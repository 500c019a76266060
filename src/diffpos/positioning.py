"""3D position estimation and the Fisher-information error bound.

Two estimators operate on per-anchor range measurements:

* D-NLS: Gauss-Newton iteration on the diffraction path model (the
  window-height approximation), alpha <- alpha + (J^T J)^-1 J^T (r - p(alpha)).
  The Jacobian uses the envelope property of the Fermat-stationary edge
  point: the stationary point's dependence on the receiver position
  contributes nothing to first order, so only the explicit partials remain,
  and one edge solve yields both p and J. The model and the iteration run
  over rows, so that many problems, and the rungs of the retry ladder, are
  solved side by side.

* LLS: one-shot linear least squares on the Euclidean model, obtained by
  squaring the range equations and differencing against the first anchor to
  cancel the quadratic term.

The position error bound derives from the Fisher information of Gaussian
range errors whose variances come from the delay-estimation bound:
FIM = sum_j grad p_j grad p_j^T / sigma_j^2 with sigma_j^2 = c^2 / (8 pi^2
beta^2 snr_j); PEB = sqrt(trace(FIM^-1)).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import EdgeTable, _solve_edge_lambdas

__all__ = [
    "SingularGeometryError",
    "LadderRows",
    "dnls_ladder",
    "lls_solve",
    "peb_batch",
    "lls_start",
]

_RANK_RTOL = 1e-12

# D-NLS retry ladder, in order: (start at the bounds centroid, damping,
# max_iters). Plain Gauss-Newton from the LLS start, then a damped run from
# the same start, then a strongly damped run from the bounds centroid
# (Levenberg-Marquardt damping, Moré 1978). Plain Gauss-Newton can
# limit-cycle when the first arriving path does not follow the diffraction
# model.
_LADDER = ((False, 0.0, 50), (False, 0.1, 400), (True, 1.0, 400))

# Gauss-Newton stops once a step is shorter than this (m).
_TOL_M = 1e-6

# Outcome of a Gauss-Newton row. _DROPPED marks a ladder rung that was not
# needed because an earlier rung of its problem converged.
_CONVERGED, _OUT_OF_ITERATIONS, _SINGULAR, _DIVERGED, _DROPPED = range(5)


class SingularGeometryError(ValueError):
    """Anchor/edge geometry leaves the position unobservable."""


class LadderRows(NamedTuple):
    """Outcomes of the n problems of ``dnls_ladder``, one row each.

    ``rung`` is the first rung, in ladder order, that converged, and
    ``alpha`` its estimate; a problem whose every rung failed has rung -1
    and a NaN estimate. ``iterations`` counts the Gauss-Newton iterations
    of that rung and of every earlier one (of every rung for a failure),
    which is what running the rungs one after another costs.
    """

    alpha: np.ndarray  # (n, 3)
    rung: np.ndarray  # (n,)
    iterations: np.ndarray  # (n,)


class _Rows(NamedTuple):
    """Problems packed into arrays, one row per problem, M anchors each.

    Everything the measurement model needs that does not move with the
    receiver position is computed here once, not on every evaluation. The
    row index is the last axis of every array, so that the model's per-(row,
    anchor) arrays are contiguous (M, R) blocks.
    """

    # The world -> edge-local rotation R and translation: local[i] =
    # sum_k to_local[k, i] * world[k] + translation[i], and a local
    # gradient maps back to world axes as sum_k to_world[k, :, i] * local[k].
    to_local: np.ndarray  # (3, 3, M, R) [k, i] = R[i, k]
    translation: np.ndarray  # (3, M, R)
    to_world: np.ndarray  # (3, M, 3, R) [k, :, i] = R[k, i]
    anchor: np.ndarray  # (3, 1, M, R) anchor x, y, z in the edge-local frame
    x2: np.ndarray  # (M, R) edge endpoint x2 along the local x axis
    span: np.ndarray  # (M, R) x1 - x2
    half_w: np.ndarray  # (M, R) half the window height
    ranges: np.ndarray  # (M, R) measured ranges

    def take(self, rows: np.ndarray) -> "_Rows":
        """The rows with indices ``rows``, in contiguous arrays."""
        return _Rows(*(column.take(rows, axis=-1) for column in self))


def _pack(table: EdgeTable, local: np.ndarray, anchor_ids, edge_ids, ranges) -> _Rows:
    """The rows of R problems of M anchors each: anchor ``anchor_ids[r, j]``
    (broadcast to (R, M)) with the edge ``edge_ids[r, j]`` and the range
    ``ranges[r, j]``, one gather per column from ``table`` and from
    ``local`` (A, E, 3), the anchors in every edge frame."""
    ids = np.ascontiguousarray(np.asarray(edge_ids).T)  # (M, R); gathers keep its layout
    rotation = table.rotation[ids]  # (M, R, 3, 3)
    anchor = local[np.broadcast_to(anchor_ids, ids.T.shape).T, ids]  # (M, R, 3)
    x1, x2 = table.x1[ids], table.x2[ids]
    return _Rows(
        to_local=np.ascontiguousarray(rotation.transpose(3, 2, 0, 1)),
        translation=np.ascontiguousarray(table.translation[ids].transpose(2, 0, 1)),
        to_world=np.ascontiguousarray(rotation.transpose(2, 0, 3, 1)),
        anchor=np.ascontiguousarray(anchor.transpose(2, 0, 1))[:, None],
        x2=x2,
        span=x1 - x2,
        half_w=0.5 * table.w[ids],
        ranges=np.ascontiguousarray(np.asarray(ranges, dtype=float).T),
    )


# The leg that divides each local partial of _model_rows: rx, rx, tx.
_PARTIAL_LEGS = np.array([1, 1, 0])


def _model_rows(alpha: np.ndarray, rows: _Rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model ranges p (R, M), their partials J (R, 3, M) and a singular flag
    (R, M) for receiver positions ``alpha`` (R, 3).

    Each (row, anchor) edge is solved once, all rows in one call. In the
    edge-local frame, with the stationary point q held fixed (envelope
    property; also exact for endpoint-clamped points):

        dp/dx_n = (x_n - q) / l_rx
        dp/dy_n = y_n / l_rx
        dp/dz_n = (z_n + w/2 - z_a) / l_tx

    where l_rx, l_tx are the receiver- and anchor-side legs; a leg below
    1e-12 m flags the entry singular. The anchor and the receiver are the two
    ends of one stacked (2, M, R) edge solve, and the three local partials
    are one stacked division; one product with the frame rotation, summed
    over the local axis in axis order, maps them back to world axes. Every
    entry depends on its own row only. The outputs are views of row-last
    arrays, (M, R) and (M, 3, R). The caller sets the floating-point error
    state: a singular entry divides by zero.
    """
    r = np.add.reduce(rows.to_local * alpha.T[:, None, None, :], axis=0) + rows.translation
    ends = np.concatenate((rows.anchor, r[:, None]), axis=1)  # (3, 2, M, R): anchor, receiver
    y = ends[1]
    z_e = ends[2, 1] + rows.half_w
    sol = _solve_edge_lambdas(ends[0], y ** 2, ends[2], rows.x2, rows.span, z_e)
    legs = sol.legs
    # Equal to (l_rx < 1e-12) | (l_tx < 1e-12): fmin passes over a NaN leg.
    singular = np.fmin(legs[1], legs[0]) < 1e-12
    # (x_n - q, y_n, z_e - z_a) over (l_rx, l_rx, l_tx).
    local = np.concatenate((sol.dx[1:], y[1:], sol.dz[:1])) / legs.take(_PARTIAL_LEGS, axis=0)
    grad = np.add.reduce(rows.to_world * local[:, :, None], axis=0)
    return sol.length.T, grad.T, singular.T


def _rank_deficient(matrices: np.ndarray) -> np.ndarray:
    """Rank deficiency of a matrix, or of each matrix of a stack."""
    s = np.linalg.svd(matrices, compute_uv=False)
    return (s[..., -1] <= _RANK_RTOL * s[..., 0]) | (s[..., 0] == 0.0)


# An undamped normal matrix N with |det N| > _FULL_RANK_DET * ||N||_F^3 is
# full rank for _rank_deficient, because s_min / s_max >= |det N| / ||N||_F^3
# for a 3 x 3 matrix. The margin over _RANK_RTOL covers the rounding of det.
_FULL_RANK_DET = 1e-9


def _normal_rank_deficient(n: np.ndarray) -> np.ndarray:
    """``_rank_deficient`` of each matrix of a row-last (3, 3, C) stack ``n``
    of finite normal matrices, with an SVD only for the matrices that the
    determinant bound does not prove full rank."""
    det = n[0, 0] * (n[1, 1] * n[2, 2] - n[1, 2] * n[2, 1]) \
        + n[0, 1] * (n[1, 2] * n[2, 0] - n[1, 0] * n[2, 2]) \
        + n[0, 2] * (n[1, 0] * n[2, 1] - n[1, 1] * n[2, 0])
    fro_sq = np.add.reduce((n * n).reshape(9, -1), axis=0)
    deficient = ~(np.abs(det) > _FULL_RANK_DET * fro_sq * np.sqrt(fro_sq))
    if np.count_nonzero(deficient):
        deficient[deficient] = _rank_deficient(n[..., deficient].transpose(2, 0, 1))
    return deficient


def _all_finite(x: np.ndarray) -> bool:
    """Whether every entry of ``x`` is finite."""
    return np.count_nonzero(np.isfinite(x)) == x.size


class _GaussNewtonRows(NamedTuple):
    alpha: np.ndarray  # (R, 3) final iterates
    iterations: np.ndarray  # (R,)
    status: np.ndarray  # (R,) _CONVERGED, _OUT_OF_ITERATIONS, _SINGULAR, ...


def _gauss_newton(rows: _Rows, alpha0: np.ndarray, max_iters: np.ndarray,
                  damping: np.ndarray, tol: float, problem: np.ndarray) -> _GaussNewtonRows:
    """Gauss-Newton on the diffraction path model, all rows in one loop.

    Row i starts at ``alpha0[i]`` and iterates until its step norm drops
    below ``tol`` (converged) or it has run ``max_iters[i]`` iterations (out
    of iterations); the model is then evaluated once more at the final
    iterate, where it can still find the row singular. A leg of the model
    below 1e-12 m, or, without damping, rank-deficient normal equations,
    makes the row singular; a non-finite iterate or normal system makes it
    diverged.
    ``damping[i] > 0`` adds Tikhonov regularization instead of the rank
    check. A row leaves the active set when it finishes, and its result does
    not depend on the other rows.

    ``problem`` groups rows into retry ladders: rows with the same problem
    number are its rungs, earlier rungs at lower row indices. Once a row
    converges, the later rungs of its problem stop with status _DROPPED.
    """
    n_rows = len(alpha0)
    alpha = np.array(alpha0, dtype=float).reshape(n_rows, 3)
    iterations = np.zeros(n_rows, dtype=int)
    status = np.full(n_rows, _OUT_OF_ITERATIONS)
    first_converged = np.full(int(problem.max(initial=-1)) + 1, n_rows)
    eye = np.eye(3)
    damping = np.asarray(damping, dtype=float)

    # State of the active rows: their row numbers, measurements, iterates,
    # iteration limits, whether they are damped and their damping term.
    # Every active row that goes on steps once per trip, so a row that stops
    # on trip k has run k iterations, or k + 1 when the trip counts for it:
    # it went singular while not final, or failed in its step. ``final``
    # marks the rows whose last step is taken (the model evaluation at the
    # top of the loop is then their final one); it is None while no row is,
    # and ``stop`` is None on trips where no row stops, which is most of
    # them: the stop, drop and limit bookkeeping runs only on the trips
    # where some row is final, singular or failed, or runs out of
    # iterations.
    active = np.arange(n_rows)
    cur = rows
    a = alpha.copy()
    limit = np.asarray(max_iters)
    limit_trips = set((limit - 1).tolist())  # trips after which some row is out of iterations
    damped = damping > 0.0
    n_damped = np.count_nonzero(damped)
    damp_eye = damping * eye[:, :, None]  # (3, 3, R)
    final = limit <= 0
    final = final if np.count_nonzero(final) else None
    trip = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while active.size:
            # The model's arrays in their row-last layout: (M, R), (M, 3, R).
            p, jac, singular = (x.T for x in _model_rows(a, cur))
            residual = cur.ranges - p

            stop = counted = None
            if np.count_nonzero(singular):
                singular = singular.any(axis=0)
                status[active[singular]] = _SINGULAR
                stop, counted = (singular.copy(), singular) if final is None \
                    else (singular | final, singular & ~final)
            if final is not None:
                if stop is None:
                    stop, counted = final.copy(), np.zeros(len(final), dtype=bool)
                done = active[final]
                for i in done[status[done] == _CONVERGED]:
                    first_converged[problem[i]] = min(first_converged[problem[i]], i)
                dropped = ~stop & (active > first_converged[problem[active]])
                status[active[dropped]] = _DROPPED
                stop |= dropped

            # One step of the rows that go on: every active row unless some stop.
            n_stop = 0 if stop is None else np.count_nonzero(stop)
            final = None
            if n_stop < len(active):
                if n_stop:
                    go = (~stop).nonzero()[0]
                    j, res, d_eye = (x.take(go, axis=-1) for x in (jac, residual, damp_eye))
                    start, d = a[go], damped[go]
                    n_d = np.count_nonzero(d)
                else:
                    go, j, res, d_eye, start, d, n_d = \
                        slice(None), jac, residual, damp_eye, a, damped, n_damped
                # The normal equations (3, 3, G) and (3, G), summed over the
                # leading anchor axis, so in anchor order.
                normal = np.add.reduce(j[:, :, None] * j[:, None], axis=0)
                rhs = np.add.reduce(j * res[:, None], axis=0)
                if n_d:
                    np.add(normal, d_eye, out=normal, where=d)
                # Rows with a non-finite or, undamped, a rank-deficient system
                # take a zero step and fail, as do rows whose iterate is not
                # finite. ``ok`` marks the rows that do not; it stays None
                # while no row can fail, which is the common case.
                ok = None
                if not (_all_finite(normal) and _all_finite(rhs)):
                    ok = np.isfinite(normal).all(axis=(0, 1)) & np.isfinite(rhs).all(axis=0)
                deficient = None
                if n_d < len(d):
                    check = ~d if ok is None else ok & ~d
                    if np.count_nonzero(check):
                        deficient = np.zeros(len(d), dtype=bool)
                        deficient[check] = _normal_rank_deficient(normal[..., check])
                        ok = ~deficient if ok is None else ok & ~deficient
                if ok is not None:
                    normal[..., ~ok], rhs[:, ~ok] = eye[:, :, None], 0.0
                step = np.linalg.solve(normal.transpose(2, 0, 1), rhs.T[..., None])[..., 0]
                moved = start + step
                if not _all_finite(moved):
                    finite = np.isfinite(moved).all(axis=1)
                    ok = finite if ok is None else ok & finite
                converged = np.sqrt(np.add.reduce(step ** 2, axis=1)) < tol
                if ok is not None and np.count_nonzero(ok) < len(ok):
                    converged &= ok
                    failed = ~ok
                    status[active[go][failed]] = _DIVERGED if deficient is None \
                        else np.where(deficient[failed], _SINGULAR, _DIVERGED)
                    moved[failed] = start[failed]
                    if stop is None:
                        stop, counted = np.zeros((2, len(active)), dtype=bool)
                    stop[go] = counted[go] = failed
                    n_stop = np.count_nonzero(stop)
                a[go] = moved
                n_converged = np.count_nonzero(converged)
                if n_converged:
                    status[active[go][converged]] = _CONVERGED
                if n_converged or trip in limit_trips:
                    final = np.zeros(len(active), dtype=bool)
                    final[go] = converged | (trip + 1 >= limit[go])

            if n_stop:
                left = active[stop]
                alpha[left] = a[stop]
                iterations[left] = trip + counted[stop]
                keep = (~stop).nonzero()[0]
                active, cur, a = active[keep], cur.take(keep), a[keep]
                limit, damped = limit[keep], damped[keep]
                n_damped = np.count_nonzero(damped)
                damp_eye = damp_eye.take(keep, axis=-1)
                if final is not None:
                    final = final[keep]
                    final = final if np.count_nonzero(final) else None
            trip += 1
    return _GaussNewtonRows(alpha, iterations, status)


def _checked(name: str, values, shape: tuple, count: int | None = None) -> np.ndarray:
    """``values`` of ``shape``, checked to be finite or, with ``count``, ids in [0, count)."""
    values = np.asarray(values, dtype=None if count is not None else float)
    if values.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {values.shape}")
    if count is None and not _all_finite(values):
        raise ValueError(f"{name} must be finite")
    if count is not None and values.size and (values.dtype.kind not in "iu"
                                              or values.min() < 0 or values.max() >= count):
        raise ValueError(f"{name} must be integers in [0, {count})")
    return values if count is None else values.astype(int, copy=False)


def dnls_ladder(table: EdgeTable, anchors, edge_ids, ranges, starts,
                bounds) -> LadderRows:
    """D-NLS with the deterministic retry ladder, for many problems at once.

    Problem i ranges from every anchor of ``anchors`` (A, 3): anchor j to
    the edge ``edge_ids[i, j]`` of ``table`` at ``ranges[i, j]``. Its rungs
    are plain Gauss-Newton (50 iterations) from ``starts[i]``, damping 0.1
    from the same start (400), then damping 1.0 from the centroid of
    ``bounds`` = (lo, hi) (400). All rungs of all problems run side by side
    in one Gauss-Newton loop; a problem's result is its first converged rung
    in ladder order, exactly as if the rungs ran one after another, and
    later rungs stop once it is known. Returns one ``LadderRows`` row per
    problem.
    """
    anchors = _checked("anchors", anchors, (len(anchors), 3))
    m, n = len(anchors), len(edge_ids)
    if m < 4:
        raise ValueError("3D solve requires at least 4 anchors")
    if not n == len(ranges) == len(starts):
        raise ValueError(f"edge ids, ranges and starts must have one row per problem, "
                         f"not {n}, {len(ranges)} and {len(starts)}")
    if n == 0:
        return LadderRows(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    edge_ids = _checked("edge ids", edge_ids, (n, m), len(table.x1))
    ranges = _checked("ranges", ranges, (n, m))
    starts = _checked("starts", starts, (n, 3))
    lo, hi = _checked("bounds", bounds, (2, 3))
    if np.any(lo > hi):
        raise ValueError("bounds must have lo <= hi on every axis")
    k = len(_LADDER)
    problem = np.tile(np.arange(n), k)  # rung-major: row = rung * n + problem
    out = _gauss_newton(
        _pack(table, table.to_local(anchors), np.arange(m), np.tile(edge_ids, (k, 1)),
              np.tile(ranges, (k, 1))),
        np.concatenate([np.broadcast_to(0.5 * (lo + hi), (n, 3)) if from_centroid else starts
                        for from_centroid, _, _ in _LADDER]),
        np.repeat([iters for _, _, iters in _LADDER], n),
        np.repeat([damping for _, damping, _ in _LADDER], n),
        _TOL_M, problem)

    converged = out.status.reshape(k, n) == _CONVERGED
    rung = np.where(converged.any(axis=0), converged.argmax(axis=0), -1)
    # Iterations up to each rung; rung -1 picks the last row, the sum over all.
    spent = np.cumsum(out.iterations.reshape(k, n), axis=0)
    problems = np.arange(n)
    alpha = out.alpha.reshape(k, n, 3)[rung, problems]
    alpha[rung < 0] = np.nan
    return LadderRows(alpha, rung, spent[rung, problems])


def lls_solve(anchors: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """One-shot linear least squares on the Euclidean range model, for K
    range vectors measured from the same M anchors at once.

    ``ranges`` (..., M) gives estimates (..., 3). Squared range equations are
    differenced against the first anchor, which cancels |alpha|^2 and leaves
    a linear system; coplanar (or duplicated) anchors make it rank-deficient.
    The design matrix, its rank test and the anchor terms are built once,
    and the right-hand sides of all problems together; each problem is then
    its own ``lstsq`` call, which a multi-right-hand-side call does not
    match bit for bit at every anchor count.
    """
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 3)
    ranges = np.asarray(ranges, dtype=float)
    m = len(anchors)
    if m < 4:
        raise ValueError("3D solve requires at least 4 anchors")
    if ranges.shape[-1:] != (m,):
        raise ValueError(f"ranges of shape {ranges.shape} do not match {m} anchors")
    x0 = anchors[0]
    a_mat = 2.0 * (anchors[1:] - x0)
    if _rank_deficient(a_mat):
        raise SingularGeometryError("LLS design matrix: rank-deficient system")
    flat = ranges.reshape(-1, m)
    # The first range is squared by the scalar power of each problem: numpy's
    # array square can differ from it in the last bit.
    r0_sq = np.array([r0 ** 2 for r0 in flat[:, 0].tolist()])
    b = r0_sq[:, None] - flat[:, 1:] ** 2 + np.sum(anchors[1:] ** 2, axis=1) - float(x0 @ x0)
    solutions = np.array([np.linalg.lstsq(a_mat, rhs, rcond=None)[0] for rhs in b])
    return solutions.reshape(*ranges.shape[:-1], 3)


def peb_batch(table: EdgeTable, anchors, problems) -> np.ndarray:
    """Position error bounds (m) of many problems at once, one entry each.

    Each problem is a tuple (position, anchor ids, edge ids, snr_linear,
    beta_sq_hz2): the anchors ``anchors[anchor ids]`` of ``anchors`` (A, 3)
    range to the edges ``edge ids`` of ``table``, one linear SNR each. A
    problem whose FIM is singular has the bound inf. Problems with the same
    anchor count share one evaluation of the model's partials and stacked
    Fisher matrices; a problem's result does not depend on the batch.
    """
    anchors = _checked("anchors", anchors, (len(anchors), 3))
    checked, by_count = [], {}
    for i, (position, a_ids, e_ids, snr_linear, beta_sq_hz2) in enumerate(problems):
        name = f"bound problem {i}"
        snr = np.asarray(snr_linear, dtype=float).reshape(-1)
        m = len(snr)
        if not np.shape(a_ids) == np.shape(e_ids) == (m,):
            raise ValueError(f"{name}: {np.size(a_ids)} anchor ids, {np.size(e_ids)} edge ids "
                             f"and {m} linear SNRs do not align")
        if not (np.all(snr > 0) and _all_finite(snr)):
            raise ValueError(f"{name}: linear SNRs must be positive and finite")
        if not (beta_sq_hz2 > 0 and math.isfinite(beta_sq_hz2)):
            raise ValueError(f"{name}: beta^2 must be positive and finite")
        checked.append((_checked(f"{name}: position", position, (3,)),
                        _checked(f"{name}: anchor ids", a_ids, (m,), len(anchors)),
                        _checked(f"{name}: edge ids", e_ids, (m,), len(table.x1)),
                        snr, float(beta_sq_hz2)))
        by_count.setdefault(m, []).append(i)

    local = table.to_local(anchors)
    peb_m = np.full(len(checked), math.inf)
    for group in by_count.values():
        alphas, anchor_ids, edge_ids, snrs, beta_sq = (
            np.array(column) for column in zip(*(checked[i] for i in group)))
        rows = _pack(table, local, anchor_ids, edge_ids, np.zeros(edge_ids.shape))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _, jac, singular = _model_rows(alphas, rows)
        if singular.any():
            k, j = np.argwhere(singular)[0]
            raise SingularGeometryError(f"bound problem {group[k]}: position coincides "
                                        f"with the diffraction point of anchor {j}")
        inv_var = 8.0 * math.pi ** 2 * beta_sq[:, None] * snrs / SPEED_OF_LIGHT ** 2  # 1/m^2
        # The product takes a contiguous (G, M, 3) stack of partials and its
        # transpose: operand layouts pick the BLAS path, and so the FIM's bits.
        grad = np.ascontiguousarray(jac.transpose(0, 2, 1))
        fim = (grad.transpose(0, 2, 1) * inv_var[:, None, :]) @ grad
        fim = 0.5 * (fim + fim.transpose(0, 2, 1))

        full_rank = ~_rank_deficient(fim)
        fim_inv = np.linalg.inv(fim[full_rank])
        peb_m[np.array(group)[full_rank]] = np.sqrt(np.trace(fim_inv, axis1=1, axis2=2))
    return peb_m


def lls_start(estimates: np.ndarray | None, bounds: tuple) -> np.ndarray:
    """D-NLS starting points from LLS estimates (..., 3), clamped into the
    bounds.

    ``estimates`` is None when LLS was singular; the start is then the
    bounds centroid (3,).
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if estimates is None:
        return 0.5 * (lo + hi)
    return np.clip(estimates, lo, hi)
