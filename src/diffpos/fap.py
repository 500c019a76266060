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

import numpy as np

from .channel import Mpc, Pdp
from .constants import SPEED_OF_LIGHT
from .materials import Band

__all__ = [
    "NoDetectionError",
    "FapSelection",
    "select_fap",
    "mean_squared_bandwidth",
    "mean_squared_bandwidth_discrete",
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

    Ties in time of flight go to the higher-SNR path.
    """
    if len(pdp) == 0:
        raise NoDetectionError(
            f"empty PDP for anchor {pdp.anchor_id} at {pdp.rx}")
    s_max = max(m.snr_db for m in pdp.mpcs)
    threshold = s_max - t_fap_db
    eligible = [m for m in pdp.mpcs if m.snr_db >= threshold]
    chosen = min(eligible, key=lambda m: (m.tof_s, -m.snr_db))
    return FapSelection(chosen=chosen, s_max_db=s_max,
                        threshold_db=threshold, t_fap_db=t_fap_db)


def mean_squared_bandwidth(band: Band | float) -> float:
    """Mean squared bandwidth beta^2 of a flat baseband spectrum, in Hz^2.

    Accepts a Band or a raw bandwidth; a flat spectrum over [-B/2, B/2]
    yields B^2 / 12. Non-flat spectra go through
    mean_squared_bandwidth_discrete.
    """
    bandwidth = band.bandwidth_hz if isinstance(band, Band) else float(band)
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    return bandwidth ** 2 / 12.0


def mean_squared_bandwidth_discrete(freqs_hz, weights) -> float:
    """beta^2 of a sampled or discrete spectrum: sum(w f^2) / sum(w).

    Amplitude scaling of the weights cancels in the ratio.
    """
    f = np.asarray(freqs_hz, dtype=float)
    w = np.asarray(weights, dtype=float)
    if f.shape != w.shape or f.size == 0:
        raise ValueError("frequencies and weights must be same-length, non-empty")
    if np.any(w < 0) or not np.sum(w) > 0:
        raise ValueError("weights must be non-negative with positive total")
    return float(np.sum(w * f ** 2) / np.sum(w))


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
