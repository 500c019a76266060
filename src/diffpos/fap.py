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

from .channel import Mpc, Pdp
from .constants import SPEED_OF_LIGHT
from .records import NON_NEGATIVE, POSITIVE, _check_range

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


def select_fap(pdp: Pdp, t_fap_db: float) -> FapSelection:
    """Earliest MPC within t_fap dB of the strongest one.

    Ties in time of flight go to the higher-SNR path, then to the earlier
    one, as in ``fap_rows``. A ``t_fap_db`` below 0 dB or NaN raises
    ValueError.
    """
    _check_range("t_fap_db", t_fap_db, NON_NEGATIVE)
    if len(pdp) == 0:
        raise NoDetectionError(
            f"empty PDP for anchor {pdp.anchor_id} at {pdp.rx}")
    tof = np.array([m.tof_s for m in pdp.mpcs])
    snr = np.array([m.snr_db for m in pdp.mpcs])
    s_max = float(snr.max())
    threshold = s_max - t_fap_db
    return FapSelection(chosen=pdp.mpcs[_first_of_highest(snr >= threshold, tof, snr)],
                        s_max_db=s_max, threshold_db=threshold, t_fap_db=t_fap_db)


class FapRows(NamedTuple):
    """Top-k truncation and FAP of a stack of PDPs given as columns, one
    entry per PDP."""

    fap: np.ndarray  # position of the FAP; -1 without a detection
    mpc3: np.ndarray  # position of the earliest kept MPC3 row, or -1
    no_detection: np.ndarray  # True where the PDP is empty


def _first_of_highest(candidate: np.ndarray, tof: np.ndarray, snr: np.ndarray) -> np.ndarray:
    """Along the last axis: the first candidate of the highest SNR among the
    candidates of the earliest time of flight."""
    candidate = candidate & (tof == np.where(candidate, tof, np.inf).min(axis=-1, keepdims=True))
    best = np.where(candidate, snr, -np.inf).max(axis=-1, keepdims=True)
    return np.argmax(candidate & (snr == best), axis=-1)


def fap_rows(tof: np.ndarray, snr: np.ndarray, detected: np.ndarray, mpc3: np.ndarray,
             k: int, t_fap_db: float) -> FapRows:
    """truncate_top_k, then select_fap, then the earliest kept MPC3 row, of
    every PDP of a stack, on the columns of the paths it is drawn from.

    Positions run along the last axis, sorted by time of flight ``tof``. A
    PDP is a row of ``detected`` (..., P) with its ``snr``: the detected
    positions, ties in time of flight in position order. ``tof`` and the
    MPC3 mask ``mpc3`` broadcast against them, so the (A, P) columns of A
    path tables serve their (F, A, P) losses at F frequencies; padding
    positions are never detected. The results are positions, so no Mpc
    object is needed.

    The rules are those of the object bodies. Top-k keeps the k highest
    SNRs, ties to the earlier position. The FAP is the earliest kept row at
    or above the strongest SNR minus ``t_fap_db``, ties in time of flight to
    the higher SNR, then to the earlier position. The MPC3 row is the first
    kept MPC3 row in the order of the truncated PDP: by position when no
    more than k rows are detected, else by time of flight with ties in
    descending SNR, then by position. A ``t_fap_db`` below 0 dB or NaN
    raises ValueError.
    """
    _check_range("t_fap_db", t_fap_db, NON_NEGATIVE)
    kept = np.asarray(detected, dtype=bool)
    n_detected = np.count_nonzero(kept, axis=-1)
    truncated = n_detected > k
    any_truncated = truncated.any()
    if any_truncated:
        top = np.argsort(np.where(kept, -snr, np.inf), axis=-1, kind="stable")[..., :k]
        in_top = np.zeros(kept.shape, dtype=bool)
        np.put_along_axis(in_top, top, True, axis=-1)
        kept = kept & in_top

    threshold = np.where(kept, snr, -np.inf).max(axis=-1, keepdims=True) - t_fap_db
    fap = _first_of_highest(kept & (snr >= threshold), tof, snr)
    kept_mpc3 = kept & mpc3
    first_mpc3 = np.argmax(kept_mpc3, axis=-1)
    if any_truncated:
        first_mpc3 = np.where(truncated, _first_of_highest(kept_mpc3, tof, snr), first_mpc3)
    no_detection = n_detected == 0
    return FapRows(np.where(no_detection, -1, fap),
                   np.where(kept_mpc3.any(axis=-1), first_mpc3, -1), no_detection)


def mean_squared_bandwidth(bandwidth_hz: float) -> float:
    """Mean squared bandwidth beta^2 of a flat baseband spectrum, in Hz^2.

    A flat spectrum over [-B/2, B/2] of bandwidth B = ``bandwidth_hz``
    yields B^2 / 12.
    """
    return _check_range("bandwidth_hz", float(bandwidth_hz), POSITIVE) ** 2 / 12.0


def ranging_crlb_std_seconds(beta_sq_hz2, snr_linear):
    """Delay-estimation standard deviation 1/sqrt(8 pi^2 beta^2 snr), of two
    scalars or entry by entry of arrays that broadcast together."""
    _check_range("beta_sq_hz2", np.asarray(beta_sq_hz2), POSITIVE, where=True)
    _check_range("snr_linear", np.asarray(snr_linear), POSITIVE, where=True)
    return 1.0 / np.sqrt(8.0 * math.pi ** 2 * beta_sq_hz2 * snr_linear)


def range_sigma_m(beta_sq_hz2, snr_linear):
    """Range standard deviation: the delay bound scaled by c."""
    return SPEED_OF_LIGHT * ranging_crlb_std_seconds(beta_sq_hz2, snr_linear)
