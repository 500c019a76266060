"""Scalar reference position error bound: one problem at a time.

This is the body the batched ``positioning.peb_batch`` replaced, kept as the
test oracle. It takes the model's partials from a one-row call of the
measurement model ``positioning._model_rows``, its row packed from the
problem's anchors and edge rows by ``scalar_dnls.scalar_pack``, and forms,
tests and inverts one Fisher matrix per call.
"""

import math

import numpy as np

from diffpos.constants import SPEED_OF_LIGHT
from conftest import Problem
from diffpos.positioning import FimResult, _model_rows
from scalar_dnls import scalar_pack

RANK_RTOL = 1e-12


def scalar_peb(alpha_true, anchors, table, edge_ids, snr_linear, beta_sq_hz2):
    """The FimResult of one bound problem at ``alpha_true``, with the
    anchors (M, 3), the ids of their edges in ``table`` and their linear
    SNRs."""
    snr = np.asarray(snr_linear, dtype=float).reshape(-1)
    meas = Problem(anchors, np.zeros(len(snr)), table, edge_ids)
    jac = _model_rows(np.asarray(alpha_true, dtype=float)[None], scalar_pack([meas]))[1][0]
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
