"""Scalar reference position error bound: one problem at a time.

This is the body the batched ``positioning.peb_batch`` replaced, kept as the
test oracle. It takes the model's partials from a one-row call of the
measurement model ``positioning._model_rows`` and forms, tests and inverts
one Fisher matrix per call.
"""

import math

import numpy as np

from diffpos.constants import SPEED_OF_LIGHT
from diffpos.positioning import FimResult, MeasurementSet, _model_rows, _pack

RANK_RTOL = 1e-12


def scalar_peb(alpha_true, anchors, edges, snr_linear, beta_sq_hz2):
    """The FimResult of one bound problem, given as ``peb_batch`` takes it."""
    snr = np.asarray(snr_linear, dtype=float).reshape(-1)
    meas = MeasurementSet(
        anchors=np.asarray(anchors, dtype=float).reshape(-1, 3),
        ranges=np.zeros(len(snr)),
        sigmas=np.ones(len(snr)),
        edges=tuple(edges),
    )
    jac = _model_rows(np.asarray(alpha_true, dtype=float)[None], _pack([meas]))[1][0]
    inv_var = 8.0 * math.pi ** 2 * beta_sq_hz2 * snr / SPEED_OF_LIGHT ** 2  # 1/m^2
    fim = (jac * inv_var) @ jac.T
    fim = 0.5 * (fim + fim.T)

    s = np.linalg.svd(fim, compute_uv=False)
    singular = s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]
    if singular:
        return FimResult(fim=fim, fim_inv=None, peb_m=math.inf, singular=True)
    fim_inv = np.linalg.inv(fim)
    return FimResult(fim=fim, fim_inv=fim_inv,
                     peb_m=float(np.sqrt(np.trace(fim_inv))), singular=False)
