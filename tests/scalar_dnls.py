"""Scalar reference D-NLS: the per-problem Gauss-Newton and retry ladder.

This is the solver the batched ``positioning`` code replaced, kept as the
test oracle. Each edge is solved with the scalar
``approx_diffraction_solution`` of ``scalar_edge``; one problem and one rung
run at a time.
Instead of raising, a solve reports how it ended and at which iteration.

``reference_model_rows`` is the batched measurement model as it was first
written, with every term recomputed on each call, kept as the bit-exact
reference for ``positioning._model_rows``. ``scalar_pack`` is the packing of
problems that the edge-table gather replaced: it reads every edge's row and
moves every anchor into its frame with its own ``scalar_edge.to_local``
call, the bit-exact reference for ``positioning._pack``.

A problem is any object with ``anchors`` (M, 3), ``ranges`` (M,), a
``table`` and ``edges``, the id in it of each anchor's edge
(``conftest.Problem``).
"""

import math

import numpy as np

from diffpos.positioning import _Rows
from scalar_edge import approx_diffraction_solution, to_local

RANK_RTOL = 1e-12

# (start at the bounds centroid, damping, max_iters), in ladder order.
LADDER = ((False, 0.0, 50), (False, 0.1, 400), (True, 1.0, 400))


class Singular(Exception):
    pass


def scalar_model(alpha, meas):
    """Model ranges (M,) and Jacobian (3, M), one scalar edge solve per anchor."""
    p = np.empty(len(meas))
    jac = np.empty((3, len(meas)))
    table = meas.table
    for j, (anchor, e) in enumerate(zip(meas.anchors, meas.edges)):
        sol = approx_diffraction_solution(anchor, alpha, table, e)
        t = to_local(table, e, anchor)
        r = to_local(table, e, alpha)
        z_e = r[2] + 0.5 * float(table.w[e])
        x1, x2 = float(table.x1[e]), float(table.x2[e])
        qx = x2 + sol.lam * (x1 - x2)
        l_rx = math.sqrt((r[0] - qx) ** 2 + r[1] ** 2 + (z_e - r[2]) ** 2)
        l_tx = math.sqrt((t[0] - qx) ** 2 + t[1] ** 2 + (t[2] - z_e) ** 2)
        if l_rx < 1e-12 or l_tx < 1e-12:
            raise Singular
        p[j] = sol.path_length
        jac[:, j] = table.rotation[e].T @ np.array([
            (r[0] - qx) / l_rx,
            r[1] / l_rx,
            (z_e - t[2]) / l_tx,
        ])
    return p, jac


def reference_model_rows(alpha, sets):
    """Model ranges (M, R), partials (M, 3, R) and legs (2, M, R), anchor
    side first, of the measurement sets ``sets`` at receiver positions
    ``alpha`` (R, 3).

    Every floating-point expression, and its operand order, is that of
    ``positioning._model_rows``, Keller's edge point of
    ``geometry._solve_edge_lambdas`` included, so the results must agree bit
    for bit.
    """
    shape = (len(sets), len(sets[0]))
    rows = [(meas.table, e, anchor) for meas in sets for e, anchor in zip(meas.edges, meas.anchors)]

    def column(name, *tail):
        return np.array([getattr(table, name)[e] for table, e, _ in rows],
                        dtype=float).reshape(*shape, *tail)

    rot = column("rotation", 3, 3)
    t = np.array([to_local(table, e, a) for table, e, a in rows]).reshape(*shape, 3)
    x1, x2, w = column("x1"), column("x2"), column("w")
    a = np.asarray(alpha, dtype=float)[:, None, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = rot[..., 0] * a[..., 0] + rot[..., 1] * a[..., 1] + rot[..., 2] * a[..., 2] \
            + column("translation", 3)
        z_e = r[..., 2] + 0.5 * w
        xa, ya, za = t[..., 0], t[..., 1], t[..., 2]
        xn, yn, zn = r[..., 0], r[..., 1], r[..., 2]
        span = x1 - x2
        ty2, tz2 = ya ** 2, (z_e - za) ** 2
        ry2, rz2 = yn ** 2, (z_e - zn) ** 2
        rho_t, rho_r = np.sqrt(tz2 + ty2), np.sqrt(rz2 + ry2)
        free = (xa + (xn - xa) * rho_t / (rho_t + rho_r) - x2) / span
        lam = np.minimum(np.maximum(free, 0.0), 1.0)
        qx = x2 + lam * span
        l_tx = np.sqrt((xa - qx) ** 2 + ty2 + tz2)
        l_rx = np.sqrt((xn - qx) ** 2 + ry2 + rz2)
        local = ((r[..., 0] - qx) / l_rx, r[..., 1] / l_rx, (z_e - t[..., 2]) / l_tx)
        grad = rot[..., 0, :] * local[0][..., None] + rot[..., 1, :] * local[1][..., None] \
            + rot[..., 2, :] * local[2][..., None]
    return (l_tx + l_rx).T, grad.transpose(1, 2, 0), np.stack((l_tx, l_rx)).transpose(0, 2, 1)


def scalar_pack(sets) -> _Rows:
    """Pack problems with the same anchor count into one _Rows, walking
    their anchors and edge rows one at a time."""
    counts = {len(meas) for meas in sets}
    if len(counts) != 1:
        raise ValueError("measurement sets of one batch must have the same anchor count")
    shape = (len(sets), counts.pop())
    rows = [(meas.table, e, anchor) for meas in sets for e, anchor in zip(meas.edges, meas.anchors)]

    def column(values, *tail):  # (*tail, M, R)
        values = np.array(values, dtype=float).reshape(*shape, *tail)
        return np.ascontiguousarray(np.moveaxis(values, (0, 1), (-1, -2)))

    def edge_column(name, *tail):
        return column([getattr(table, name)[e] for table, e, _ in rows], *tail)

    rotation = edge_column("rotation", 3, 3)  # [i, k] = R[i, k]
    t = column([to_local(table, e, a) for table, e, a in rows], 3)
    x1, x2 = edge_column("x1"), edge_column("x2")
    ends = np.zeros((3, 2, *t.shape[1:]))  # the receiver half is written by the model
    ends[:, 0] = t
    return _Rows(
        to_local=np.ascontiguousarray(rotation.transpose(1, 0, 2, 3)),
        translation=edge_column("translation", 3),
        ends=ends,
        x2=x2,
        span=x1 - x2,
        half_w=0.5 * edge_column("w"),
        ranges=column([meas.ranges for meas in sets]),
    )


def scalar_gauss_newton(meas, init, max_iters=50, tol_m=1e-6, damping=0.0):
    """(outcome, iterations, alpha) of one Gauss-Newton run.

    outcome is "converged", "out_of_iterations", "singular" or "diverged";
    iterations is the iteration the run ended in.
    """
    alpha = np.array(init, dtype=float)
    iterations = 0
    try:
        for iterations in range(1, max_iters + 1):
            model, jac = scalar_model(alpha, meas)
            residual = meas.ranges - model
            normal = jac @ jac.T
            if damping > 0.0:
                normal = normal + damping * np.eye(3)
            else:
                s = np.linalg.svd(normal, compute_uv=False)
                if s[-1] <= RANK_RTOL * s[0] or s[0] == 0.0:
                    raise Singular
            step = np.linalg.solve(normal, jac @ residual)
            alpha = alpha + step
            if not np.all(np.isfinite(alpha)):
                return "diverged", iterations, alpha
            if np.linalg.norm(step) < tol_m:
                scalar_model(alpha, meas)
                return "converged", iterations, alpha
        scalar_model(alpha, meas)
    except Singular:
        return "singular", iterations, alpha
    return "out_of_iterations", iterations, alpha


def scalar_ladder(meas, init, bounds):
    """(rung, iterations, alpha) of the sequential retry ladder.

    rung and alpha are None when every rung fails; iterations sums the
    iterations of every rung run.
    """
    centroid = 0.5 * (np.asarray(bounds[0], dtype=float) + np.asarray(bounds[1], dtype=float))
    total = 0
    for rung, (from_centroid, damping, max_iters) in enumerate(LADDER):
        start = centroid if from_centroid else init
        outcome, iterations, alpha = scalar_gauss_newton(
            meas, start, max_iters=max_iters, damping=damping)
        total += iterations
        if outcome == "converged":
            return rung, total, alpha
    return None, total, None
