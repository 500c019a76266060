"""First-arriving-path selection and the ranging error bound.

The FAP rule: find the strongest MPC in the power delay profile (SNR
s_max), set the eligibility threshold s_max - t_fap, and return the
earliest-arriving MPC at or above it. Raising t_fap admits shorter but
weaker paths.

Ranging accuracy for a resolvable path follows the delay-estimation bound
std(tau) = 1 / sqrt(8 * pi^2 * beta^2 * snr), with beta^2 the mean squared
bandwidth of the baseband spectrum (B^2/12 for a flat spectrum of width B),
and the range standard deviation is sigma = c * std(tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import Mpc, Pdp, _top_k_rows
from .constants import SPEED_OF_LIGHT
from .materials import Band

__all__ = [
    "NoDetectionError",
    "FapSelection",
    "select_fap",
    "FapRows",
    "fap_rows",
    "mean_squared_bandwidth",
    "ranging_crlb_std_seconds",
    "range_sigma_m",
]


class NoDetectionError(RuntimeError):
    """No MPC available to select a first arriving path from."""


@dataclass(frozen=True)
class FapSelection:
    """Chosen first arriving path plus the thresholding context."""

    chosen: Mpc
    s_max_db: float
    threshold_db: float
    t_fap_db: float


def _fap_row(tof: np.ndarray, snr: np.ndarray, t_fap_db: float) -> tuple[int, float, float]:
    """The FAP's position among non-empty PDP rows, the strongest SNR and
    the threshold.

    The rows come sorted by time of flight. The FAP is the earliest row at
    or above the threshold; ties in time of flight go to the higher SNR,
    then to the earlier row.
    """
    s_max = float(snr.max())
    threshold = s_max - t_fap_db
    eligible = snr >= threshold
    tied = np.flatnonzero(eligible & (tof == tof[np.argmax(eligible)]))
    return int(tied[np.argmax(snr[tied])]), s_max, threshold


def select_fap(pdp: Pdp, t_fap_db: float) -> FapSelection:
    """Earliest MPC within t_fap dB of the strongest one.

    Ties in time of flight go to the higher-SNR path.
    """
    if len(pdp) == 0:
        raise NoDetectionError(
            f"empty PDP for anchor {pdp.anchor_id} at {pdp.rx}")
    row, s_max, threshold = _fap_row(np.array([m.tof_s for m in pdp.mpcs]),
                                     np.array([m.snr_db for m in pdp.mpcs]), t_fap_db)
    return FapSelection(chosen=pdp.mpcs[row], s_max_db=s_max,
                        threshold_db=threshold, t_fap_db=t_fap_db)


class FapRows(NamedTuple):
    """Top-k truncation and FAP of one PDP given as columns."""

    kept: np.ndarray  # input positions of the k strongest rows, in PDP order
    fap: int  # input position of the FAP
    mpc3: int  # input position of the earliest kept MPC3 row, or -1


def fap_rows(tof: np.ndarray, snr: np.ndarray, mpc3: np.ndarray, k: int,
             t_fap_db: float) -> FapRows:
    """truncate_top_k, then select_fap, then the earliest MPC3 row, on the
    columns of a non-empty PDP: time of flight (sorted), SNR and an MPC3
    mask. Rows are input positions, so no Mpc object is needed.
    """
    kept = _top_k_rows(tof, snr, k)
    row, _, _ = _fap_row(tof[kept], snr[kept], t_fap_db)
    first_mpc3 = np.flatnonzero(mpc3[kept])
    return FapRows(kept, int(kept[row]), int(kept[first_mpc3[0]]) if first_mpc3.size else -1)


def mean_squared_bandwidth(band: Band | float) -> float:
    """Mean squared bandwidth beta^2 of a flat baseband spectrum, in Hz^2.

    Accepts a Band or a raw bandwidth; a flat spectrum over [-B/2, B/2]
    yields B^2 / 12.
    """
    bandwidth = band.bandwidth_hz if isinstance(band, Band) else float(band)
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    return bandwidth ** 2 / 12.0


def ranging_crlb_std_seconds(beta_sq_hz2: float, snr_linear: float) -> float:
    """Delay-estimation standard deviation 1/sqrt(8 pi^2 beta^2 snr)."""
    if not beta_sq_hz2 > 0:
        raise ValueError("beta^2 must be positive")
    if not snr_linear > 0:
        raise ValueError("snr must be positive (linear scale)")
    return 1.0 / math.sqrt(8.0 * math.pi ** 2 * beta_sq_hz2 * snr_linear)


def range_sigma_m(beta_sq_hz2: float, snr_linear: float) -> float:
    """Range standard deviation: the delay bound scaled by c."""
    return SPEED_OF_LIGHT * ranging_crlb_std_seconds(beta_sq_hz2, snr_linear)
