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
from .records import FINITE, POSITIVE, Range, _check_range

__all__ = [
    "SingularGeometryError",
    "LadderRows",
    "dnls_ladder",
    "lls_solve",
    "peb_batch",
    "lls_start",
]

_RANK_RTOL = 1e-12

# Right-hand sides per lstsq call of lls_solve; a call of 256 costs about
# what 2.5 one-problem calls do.
_LLS_BLOCK = 256

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
    # sum_k to_local[k, i] * world[k] + translation[i]. Its transposed view
    # maps a local gradient back to world axes (``_model_rows``).
    to_local: np.ndarray  # (3, 3, M, R) [k, i] = R[i, k]
    translation: np.ndarray  # (3, M, R)
    # x, y, z of the anchor ([:, 0]) and of the receiver ([:, 1]) in the
    # edge-local frame; each ``_model_rows`` call writes the receiver's.
    ends: np.ndarray  # (3, 2, M, R)
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
    anchor = local[np.broadcast_to(anchor_ids, ids.T.shape).T, ids]  # (M, R, 3)
    x1, x2 = table.x1[ids], table.x2[ids]
    ends = np.zeros((3, 2, *ids.shape))
    ends[:, 0] = anchor.transpose(2, 0, 1)
    return _Rows(
        to_local=np.take(table.rotation.transpose(2, 1, 0), ids, axis=2),
        translation=np.take(table.translation.T, ids, axis=1),
        ends=ends,
        x2=x2,
        span=x1 - x2,
        half_w=0.5 * table.w[ids],
        ranges=np.ascontiguousarray(np.asarray(ranges, dtype=float).T),
    )


# The leg that divides each local partial of _model_rows: rx, rx, tx.
_PARTIAL_LEGS = np.array([1, 1, 0])


def _model_rows(alpha: np.ndarray, rows: _Rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model ranges p (M, R), their partials J (M, 3, R) and the legs (2,
    M, R), anchor-side leg first, for receiver positions ``alpha`` (R, 3).

    Each (row, anchor) edge is solved once, all rows in one call. In the
    edge-local frame, with the stationary point q held fixed (envelope
    property; also exact for endpoint-clamped points):

        dp/dx_n = (x_n - q) / l_rx
        dp/dy_n = y_n / l_rx
        dp/dz_n = (z_n + w/2 - z_a) / l_tx

    where l_rx, l_tx are the receiver- and anchor-side legs; a leg below
    1e-12 m makes the entry singular (``_singular``). The receiver is written
    into ``rows.ends``, so that the anchor and the receiver are the two ends
    of one stacked (2, M, R) edge solve, and the three local partials are
    one stacked division; one product with the transposed view of
    ``to_local``, summed over the local axis in axis order, maps them back to
    world axes. Every entry depends on its own row only. The caller sets the
    floating-point error state: a singular entry divides by zero.
    """
    ends = rows.ends
    np.add(np.add.reduce(rows.to_local * alpha.T[:, None, None, :], axis=0), rows.translation,
           out=ends[:, 1])
    y = ends[1]
    z_e = ends[2, 1] + rows.half_w
    sol = _solve_edge_lambdas(ends[0], y ** 2, ends[2], rows.x2, rows.span, z_e)
    legs = sol.legs
    # (x_n - q, y_n, z_e - z_a) over (l_rx, l_rx, l_tx).
    local = np.concatenate((sol.dx[1:], y[1:], sol.dz[:1])) / legs.take(_PARTIAL_LEGS, axis=0)
    # to_local.transpose(1, 2, 0, 3) holds R[k, i] at [k, :, i]; the sum is (M, 3, R).
    grad = np.add.reduce(rows.to_local.transpose(1, 2, 0, 3) * local[:, :, None], axis=0)
    return sol.length, grad, legs


def _singular(legs: np.ndarray) -> np.ndarray | None:
    """The (M, R) entries of the model's ``legs`` (2, M, R) with a leg below
    1e-12 m, or None when no entry has one. ``fmin`` passes over a NaN leg,
    so one reduction over every leg finds whether any entry is singular,
    and the per-entry mask is built only then."""
    if not np.fmin.reduce(legs, axis=None) < 1e-12:
        return None
    return np.fmin(legs[1], legs[0]) < 1e-12


def _rank_deficient(matrices: np.ndarray) -> np.ndarray:
    """Rank deficiency of a matrix, or of each matrix of a stack."""
    s = np.linalg.svd(matrices, compute_uv=False)
    return (s[..., -1] <= _RANK_RTOL * s[..., 0]) | (s[..., 0] == 0.0)


# An undamped normal matrix N with |det N| > _FULL_RANK_DET * ||N||_F^3 is
# full rank for _rank_deficient, because s_min / s_max >= |det N| / ||N||_F^3
# for a 3 x 3 matrix. The margin over _RANK_RTOL covers the rounding of the
# LU determinant, within about 1e-14 * ||N||_F^3 of the true one.
_FULL_RANK_DET = 1e-9


def _normal_rank_deficient(n: np.ndarray) -> np.ndarray:
    """``_rank_deficient`` of each matrix of a row-last (3, 3, C) stack ``n``
    of finite normal matrices, with an SVD only for the matrices that the
    determinant bound does not prove full rank."""
    det = np.abs(np.linalg.det(n.transpose(2, 0, 1)))
    fro_sq = np.add.reduce((n * n).reshape(9, -1), axis=0)
    deficient = ~(det > _FULL_RANK_DET * fro_sq * np.sqrt(fro_sq))
    if np.count_nonzero(deficient):
        deficient[deficient] = _rank_deficient(n[..., deficient].transpose(2, 0, 1))
    return deficient


class _GaussNewtonRows(NamedTuple):
    alpha: np.ndarray  # (R, 3) final iterates
    iterations: np.ndarray  # (R,)
    status: np.ndarray  # (R,) _CONVERGED, _OUT_OF_ITERATIONS, _SINGULAR, ...


def _gauss_newton(rows: _Rows, alpha0: np.ndarray, max_iters: np.ndarray,
                  damping: np.ndarray, problem: np.ndarray) -> _GaussNewtonRows:
    """Gauss-Newton on the diffraction path model, all rows in one loop.

    Row i starts at ``alpha0[i]`` and iterates until its step norm drops
    below ``_TOL_M`` (converged) or it has run ``max_iters[i]`` iterations (out
    of iterations); the model is then evaluated once more at the final
    iterate, where it can still find the row singular. A leg of the model
    below 1e-12 m, or, without damping, rank-deficient normal equations,
    makes the row singular; a non-finite iterate or normal system makes it
    diverged. A failed step keeps the row's iterate, and the next model
    evaluation is its final one.
    ``damping[i] > 0`` adds Tikhonov regularization instead of the rank
    check. Rows leave the active set only at the top of a trip, and a row's
    result does not depend on the other rows.

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
    # Rows leave after the model evaluation at the top of a trip and every
    # row that stays steps, so a row that leaves on trip k has run k
    # iterations, or k + 1 if it went singular while not final. ``final``
    # marks the rows whose last step is taken: converged, out of iterations
    # or failed. A failed row keeps the iterate that this trip found not
    # singular, and the model depends on the row alone, so its final
    # evaluation cannot make it singular. ``final`` is None while no row is
    # final, as ``stop`` is on the trips where no row leaves (most of them).
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
            p, jac, legs = _model_rows(a, cur)
            # The augmented [J | r] (M, 4, R), residual last.
            aug = np.concatenate((jac, (cur.ranges - p)[:, None]), axis=1)

            stop = counted = None  # the rows that leave; those that count this trip
            singular = _singular(legs)
            if singular is not None:
                stop = counted = singular.any(axis=0)
                status[active[stop]] = _SINGULAR
            if final is not None:
                done = active[final]
                for i in done[status[done] == _CONVERGED]:
                    first_converged[problem[i]] = min(first_converged[problem[i]], i)
                stop, counted = (final, None) if stop is None else (stop | final, counted & ~final)
                dropped = ~stop & (active > first_converged[problem[active]])
                status[active[dropped]] = _DROPPED
                stop = stop | dropped
            if stop is not None:
                left = active[stop]
                alpha[left] = a[stop]
                iterations[left] = trip if counted is None else trip + counted[stop]
                keep = (~stop).nonzero()[0]
                if not keep.size:
                    break
                active, cur, a = active[keep], cur.take(keep), a[keep]
                limit, damped = limit[keep], damped[keep]
                n_damped = np.count_nonzero(damped)
                aug, damp_eye = aug.take(keep, axis=-1), damp_eye.take(keep, axis=-1)

            # One step of every active row. One product of [J | r] with J,
            # summed over the leading anchor axis, so in anchor order, gives
            # the normal matrix N = system[:3] (3, 3, R) and the right-hand
            # side J^T r = system[3] (3, R): r J is J r, bit for bit.
            system = np.add.reduce(aug[:, :, None] * aug[:, None, :3], axis=0)
            normal, rhs = system[:3], system[3]
            if n_damped:
                np.add(normal, damp_eye, out=normal, where=damped)
            # Rows with a non-finite or, undamped, a rank-deficient system
            # take a zero step and fail, as do rows whose iterate is not
            # finite. ``ok`` marks the rows that do not; it stays None
            # while no row can fail, which is the common case. A finite sum
            # proves every entry finite; a sum that overflows from finite
            # entries only sends the rows through the per-row test.
            ok = None
            if not math.isfinite(np.add.reduce(system, axis=None)):
                ok = np.isfinite(system).all(axis=(0, 1))
            deficient = None
            if n_damped < len(active):
                check = ~damped if ok is None else ok & ~damped
                if ok is None or np.count_nonzero(check):
                    found = _normal_rank_deficient(normal[..., check])
                    if np.count_nonzero(found):
                        deficient = np.zeros(len(active), dtype=bool)
                        deficient[check] = found
                        ok = ~deficient if ok is None else ok & ~deficient
            if ok is not None:
                normal[..., ~ok], rhs[:, ~ok] = eye[:, :, None], 0.0
            step = np.linalg.solve(normal.transpose(2, 0, 1), rhs.T[..., None])[..., 0]
            moved = a + step
            if not math.isfinite(np.add.reduce(moved, axis=None)):
                finite = np.isfinite(moved).all(axis=1)
                ok = finite if ok is None else ok & finite
            converged = np.sqrt(np.add.reduce(step ** 2, axis=1)) < _TOL_M
            failed = None
            if ok is not None and np.count_nonzero(ok) < len(ok):
                failed = ~ok
                converged &= ok
                status[active[failed]] = _DIVERGED if deficient is None \
                    else np.where(deficient[failed], _SINGULAR, _DIVERGED)
                moved[failed] = a[failed]
            a = moved
            n_converged = np.count_nonzero(converged)
            if n_converged:
                status[active[converged]] = _CONVERGED
            final = failed
            if n_converged or trip in limit_trips:
                ended = converged | (trip + 1 >= limit)
                final = ended if failed is None else ended | failed
                final = final if np.count_nonzero(final) else None
            trip += 1
    return _GaussNewtonRows(alpha, iterations, status)


def _checked(name: str, values, shape: tuple, rng: Range = FINITE, where=True,
             ids: bool = False) -> np.ndarray:
    """``values`` of ``shape``, an array of floats or, with ``ids``, of
    integers, checked to lie in ``rng`` at the entries where ``where``
    holds. A bad value raises ValueError naming its first row."""
    values = np.asarray(values, dtype=None if ids else float)
    if values.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {values.shape}")
    if ids and values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    _check_range(name, values, rng, where)
    return values.astype(int, copy=False) if ids else values


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
        raise ValueError(f"edge_ids, ranges and starts must have one row per problem, "
                         f"not {n}, {len(ranges)} and {len(starts)}")
    if n == 0:
        return LadderRows(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    edge_ids = _checked("edge_ids", edge_ids, (n, m), Range(0, len(table.x1), open_hi=True),
                        ids=True)
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
        np.repeat([damping for _, damping, _ in _LADDER], n), problem)

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
    and the right-hand sides of all problems together; they are solved in
    fixed-width blocks, one ``lstsq`` call each, so that a problem's bits
    do not depend on its batch. At 4 to 8 anchors they are its one-problem
    ``lstsq``'s; at 12 and 16 they differ from those in the last bits. A
    pseudo-inverse factored once moves sweep counts (``dnls_iterations`` of
    the desk scene at seed 3, 5.8 GHz: 16193 -> 16194). A non-finite anchor
    or range raises ValueError naming ``anchors``, or ``ranges`` and the
    problem's row in the flattened (K, M) ranges; so do anchors so far out
    that a design term, 2 (a_i - a_0) or |a_i|^2, overflows.
    """
    anchors = _checked("anchors", anchors, (len(anchors), 3))
    ranges = np.asarray(ranges, dtype=float)
    m = len(anchors)
    if m < 4:
        raise ValueError("3D solve requires at least 4 anchors")
    if ranges.shape[-1:] != (m,):
        raise ValueError(f"ranges of shape {ranges.shape} do not match {m} anchors")
    flat = _checked("ranges", ranges.reshape(-1, m), (ranges.size // m, m))
    # lstsq can hang on a design with inf entries, so anchors whose design
    # terms overflow are refused before any LAPACK call, the rank test's
    # too. Finite squared norms |a_i|^2 keep 2 (a_i - a_0) finite as well.
    with np.errstate(over="ignore"):
        norms = np.sum(anchors ** 2, axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("anchors must have finite design terms 2 (a_i - a_0) and |a_i|^2")
    x0 = anchors[0]
    a_mat = 2.0 * (anchors[1:] - x0)
    if _rank_deficient(a_mat):
        raise SingularGeometryError("LLS design matrix: rank-deficient system")
    sq = flat ** 2
    b = sq[:, :1] - sq[:, 1:] + norms[1:] - float(x0 @ x0)
    # Each block ends in a column of ones: LAPACK applies its reflectors up
    # to the last non-zero column only, and that width picks the BLAS
    # kernel. At least one block, so that no problems give (0, 3).
    per_block = _LLS_BLOCK - 1
    rhs = np.ones((max(1, -(-len(b) // per_block)), _LLS_BLOCK, m - 1))
    rhs[np.divmod(np.arange(len(b)), per_block)] = b
    solutions = np.concatenate([np.linalg.lstsq(a_mat, block.T, rcond=None)[0].T[:-1]
                                for block in rhs])[:len(b)]
    return solutions.reshape(*ranges.shape[:-1], 3)


def peb_batch(table: EdgeTable, anchors, positions, edge_ids, snr_linear,
              beta_sq) -> np.ndarray:
    """Position error bounds (m) of n problems at once, one entry each.

    Problem i sits at ``positions[i]`` (n, 3): anchor j of ``anchors`` (A, 3)
    ranges to the edge ``edge_ids[i, j]`` of ``table`` with the linear SNR
    ``snr_linear[i, j]`` (both (n, A)), and ``beta_sq[i]`` (n,) is its mean
    squared bandwidth in Hz^2. An edge id of -1 leaves the anchor out, and its
    SNR is not read. A problem whose FIM is singular has the bound inf, as
    has, without an evaluation, one with fewer than three anchors. Problems
    with the same anchor count share one evaluation of the model's partials
    and stacked Fisher matrices; a problem's result does not depend on the
    batch.
    """
    anchors = _checked("anchors", anchors, (len(anchors), 3))
    n, m = len(positions), len(anchors)
    positions = _checked("positions", positions, (n, 3))
    edge_ids = _checked("edge_ids", edge_ids, (n, m), Range(-1, len(table.x1), open_hi=True),
                        ids=True)
    used = edge_ids >= 0
    snr = _checked("snr_linear", snr_linear, (n, m), POSITIVE, where=used)
    beta_sq = _checked("beta_sq", beta_sq, (n,), POSITIVE)

    local = table.to_local(anchors)
    peb_m = np.full(n, math.inf)
    counts = np.count_nonzero(used, axis=1)
    for count in np.unique(counts[counts >= 3]).tolist():
        group = np.flatnonzero(counts == count)
        mask = used[group]
        anchor_ids = np.nonzero(mask)[1].reshape(len(group), count)
        rows = _pack(table, local, anchor_ids, edge_ids[group][mask].reshape(anchor_ids.shape),
                     np.zeros(anchor_ids.shape))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _, jac, legs = _model_rows(positions[group], rows)
        singular = _singular(legs)
        if singular is not None:
            k, j = np.argwhere(singular.T)[0]
            raise SingularGeometryError(f"positions: row {group[k]} coincides with the "
                                        f"diffraction point of anchor {anchor_ids[k, j]}")
        snrs = snr[group][mask].reshape(anchor_ids.shape)
        inv_var = 8.0 * math.pi ** 2 * beta_sq[group, None] * snrs / SPEED_OF_LIGHT ** 2  # 1/m^2
        # The product takes a contiguous (G, M, 3) stack of partials and its
        # transpose: operand layouts pick the BLAS path, and so the FIM's bits.
        grad = np.ascontiguousarray(jac.transpose(2, 0, 1))
        fim = (grad.transpose(0, 2, 1) * inv_var[:, None, :]) @ grad
        fim = 0.5 * (fim + fim.transpose(0, 2, 1))

        full_rank = ~_rank_deficient(fim)
        fim_inv = np.linalg.inv(fim[full_rank])
        peb_m[group[full_rank]] = np.sqrt(np.trace(fim_inv, axis1=1, axis2=2))
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
