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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import Point3, WindowEdge, _solve_edge_lambdas, _vec

__all__ = [
    "SingularGeometryError",
    "MeasurementSet",
    "PositionEstimate",
    "LadderResult",
    "FimResult",
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


@dataclass
class MeasurementSet:
    """Per-anchor ranges with noise levels and the diffraction geometry."""

    anchors: np.ndarray  # (M, 3) anchor positions
    ranges: np.ndarray  # (M,) measured ranges, meters
    sigmas: np.ndarray  # (M,) range standard deviations, meters
    edges: tuple[WindowEdge, ...]  # per-anchor associated window edge

    def __post_init__(self) -> None:
        self.anchors = np.asarray(self.anchors, dtype=float).reshape(-1, 3)
        self.ranges = np.asarray(self.ranges, dtype=float).reshape(-1)
        self.sigmas = np.asarray(self.sigmas, dtype=float).reshape(-1)
        m = len(self.anchors)
        if not (len(self.ranges) == len(self.sigmas) == len(self.edges) == m):
            raise ValueError("anchors, ranges, sigmas, and edges must align")
        if np.any(self.sigmas <= 0):
            raise ValueError("sigmas must be positive")

    def __len__(self) -> int:
        return len(self.anchors)


@dataclass(frozen=True)
class PositionEstimate:
    alpha_hat: Point3
    iterations: int
    converged: bool
    residual_norm: float


class LadderResult(NamedTuple):
    """Outcome of one problem of ``dnls_ladder``.

    ``estimate`` and ``rung`` come from the first rung, in ladder order, that
    converged; both are None when every rung failed. ``iterations`` counts
    the Gauss-Newton iterations of that rung and of every earlier one, which
    is what running the rungs one after another costs.
    """

    estimate: PositionEstimate | None
    rung: int | None
    iterations: int


@dataclass(frozen=True)
class FimResult:
    """Fisher information, its inverse, and the scalar position error bound."""

    fim: np.ndarray  # (3, 3), 1/m^2
    fim_inv: np.ndarray | None
    peb_m: float  # inf when the FIM is singular
    condition: float
    singular: bool


class _Rows(NamedTuple):
    """Measurement sets packed into arrays, one row per set, M anchors each."""

    rotation: np.ndarray  # (R, M, 3, 3) world -> edge-local rotation
    translation: np.ndarray  # (R, M, 3)
    t: np.ndarray  # (R, M, 3) anchor position in the edge-local frame
    x1: np.ndarray  # (R, M) edge endpoints along the local x axis
    x2: np.ndarray
    w: np.ndarray  # (R, M) window height
    ranges: np.ndarray  # (R, M) measured ranges

    def take(self, rows) -> "_Rows":
        return _Rows(*(column[rows] for column in self))


def _pack(sets) -> _Rows:
    """Pack measurement sets with the same anchor count into one _Rows."""
    counts = {len(meas) for meas in sets}
    if len(counts) != 1:
        raise ValueError("measurement sets of one batch must have the same anchor count")
    shape = (len(sets), counts.pop())
    edges = [edge for meas in sets for edge in meas.edges]
    anchors = [anchor for meas in sets for anchor in meas.anchors]

    def column(values, *tail):
        return np.array(values, dtype=float).reshape(*shape, *tail)

    return _Rows(
        rotation=column([e.frame.rotation for e in edges], 3, 3),
        translation=column([e.frame.translation for e in edges], 3),
        t=column([e.frame.to_local(a) for a, e in zip(anchors, edges)], 3),
        x1=column([e.x1 for e in edges]),
        x2=column([e.x2 for e in edges]),
        w=column([e.w for e in edges]),
        ranges=column([meas.ranges for meas in sets]),
    )


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
    1e-12 m flags the entry singular. The local gradient maps back to world
    axes through the frame rotation. Every entry depends on its own row only.
    """
    rot = rows.rotation
    a = alpha[:, None, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = rot[..., 0] * a[..., 0] + rot[..., 1] * a[..., 1] + rot[..., 2] * a[..., 2] \
            + rows.translation
        z_e = r[..., 2] + 0.5 * rows.w
        sol = _solve_edge_lambdas(rows.t.reshape(-1, 3), r.reshape(-1, 3), rows.x1.ravel(),
                                  rows.x2.ravel(), z_e.ravel())
        length, qx, l_tx, l_rx = (v.reshape(z_e.shape)
                                  for v in (sol.length, sol.qx, sol.leg_t, sol.leg_r))
        singular = (l_rx < 1e-12) | (l_tx < 1e-12)
        local = ((r[..., 0] - qx) / l_rx, r[..., 1] / l_rx, (z_e - rows.t[..., 2]) / l_tx)
        grad = rot[..., 0, :] * local[0][..., None] + rot[..., 1, :] * local[1][..., None] \
            + rot[..., 2, :] * local[2][..., None]
    return length, grad.transpose(0, 2, 1), singular


def _rank_deficient(matrices: np.ndarray) -> np.ndarray:
    """Rank deficiency of a matrix, or of each matrix of a stack."""
    s = np.linalg.svd(matrices, compute_uv=False)
    return (s[..., -1] <= _RANK_RTOL * s[..., 0]) | (s[..., 0] == 0.0)


class _GaussNewtonRows(NamedTuple):
    alpha: np.ndarray  # (R, 3) final iterates
    iterations: np.ndarray  # (R,)
    status: np.ndarray  # (R,) _CONVERGED, _OUT_OF_ITERATIONS, _SINGULAR, ...
    residual_norm: np.ndarray  # (R,) |r - p| at the final iterate, nan if none


def _gauss_newton(rows: _Rows, alpha0: np.ndarray, max_iters: np.ndarray,
                  damping: np.ndarray, tol: float, problem: np.ndarray) -> _GaussNewtonRows:
    """Gauss-Newton on the diffraction path model, all rows in one loop.

    Row i starts at ``alpha0[i]`` and iterates until its step norm drops
    below ``tol`` (converged) or it has run ``max_iters[i]`` iterations (out
    of iterations); the model is then evaluated once more at the final
    iterate for the residual norm. A leg of the model below 1e-12 m, or,
    without damping, rank-deficient normal equations, makes the row
    singular; a non-finite iterate or normal system makes it diverged.
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
    residual_norm = np.full(n_rows, np.nan)
    first_converged = np.full(int(problem.max(initial=-1)) + 1, n_rows)
    eye = np.eye(3)

    # State of the active rows: their row numbers, measurements, iterates,
    # iteration limits, damping, iteration counts, and whether their last
    # step is taken (the model evaluation at the top of the loop is then
    # their final one). Rows that stop leave it at the end of the iteration.
    active = np.arange(n_rows)
    cur = rows
    a = alpha.copy()
    limit = np.asarray(max_iters)
    damp = np.asarray(damping, dtype=float)
    its = iterations.copy()
    final = limit <= 0
    while active.size:
        p, jac, singular = _model_rows(a, cur)
        singular = singular.any(axis=1)
        residual = cur.ranges - p

        stop = final | singular
        if final.any():
            done = active[final]
            residual_norm[done] = np.sqrt(np.sum(residual[final] ** 2, axis=1))
            status[done[singular[final]]] = _SINGULAR
            for i in done[status[done] == _CONVERGED]:
                first_converged[problem[i]] = min(first_converged[problem[i]], i)
            dropped = ~stop & (active > first_converged[problem[active]])
            status[active[dropped]] = _DROPPED
            stop |= dropped
        if singular.any():
            status[active[singular & ~final]] = _SINGULAR
            its[singular & ~final] += 1

        # One step of the rows that go on: every active row unless some stop.
        go = np.flatnonzero(~stop) if stop.any() else slice(None)
        its[go] += 1
        j, res, d, start = jac[go], residual[go], damp[go], a[go]
        normal = (j[:, :, None, :] * j[:, None, :, :]).sum(axis=-1)
        rhs = (j * res[:, None, :]).sum(axis=-1)
        damped = d > 0.0
        if damped.all():
            normal += d[:, None, None] * eye
        elif damped.any():
            normal[damped] += d[damped, None, None] * eye
        ok = np.isfinite(normal).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
        deficient = np.zeros(ok.shape, dtype=bool)
        check = ok & ~damped
        if check.any():
            deficient[check] = _rank_deficient(normal[check])
            ok &= ~deficient
        if not ok.all():  # rows that fail here take a zero step
            normal[~ok], rhs[~ok] = eye, 0.0
        step = np.linalg.solve(normal, rhs[..., None])[..., 0]
        moved = start + step
        ok &= np.isfinite(moved).all(axis=1)
        converged = ok & (np.sqrt((step ** 2).sum(axis=1)) < tol)
        if not ok.all():
            failed = ~ok
            status[active[go][failed]] = np.where(deficient[failed], _SINGULAR, _DIVERGED)
            moved[failed] = start[failed]
            stop[go] = failed
        a[go] = moved
        if converged.any():
            status[active[go][converged]] = _CONVERGED
        final[go] = converged | (its[go] >= limit[go])

        if stop.any():
            left = active[stop]
            alpha[left] = a[stop]
            iterations[left] = its[stop]
            keep = ~stop
            active, cur, a = active[keep], cur.take(keep), a[keep]
            its, final, limit, damp = its[keep], final[keep], limit[keep], damp[keep]
    return _GaussNewtonRows(alpha, iterations, status, residual_norm)


def _estimate(out: _GaussNewtonRows, row: int) -> PositionEstimate:
    return PositionEstimate(
        alpha_hat=Point3.from_array(out.alpha[row]),
        iterations=int(out.iterations[row]),
        converged=bool(out.status[row] == _CONVERGED),
        residual_norm=float(out.residual_norm[row]),
    )


def dnls_ladder(sets, inits, bounds) -> list[LadderResult]:
    """D-NLS with the deterministic retry ladder, for many problems at once.

    Problem i is measurement set ``sets[i]`` started at ``inits[i]``. Its
    rungs are plain Gauss-Newton (50 iterations), damping 0.1 from the same
    start (400), then damping 1.0 from the centroid of ``bounds`` (400). All
    rungs of all problems run side by side in one Gauss-Newton loop; a
    problem's result is its first converged rung in ladder order, exactly as
    if the rungs ran one after another, and later rungs stop once it is
    known.
    """
    n = len(sets)
    if n == 0:
        return []
    if min(len(meas) for meas in sets) < 4:
        raise ValueError("3D solve requires at least 4 anchors")
    starts = np.array([_vec(p) for p in inits])
    if not np.all(np.isfinite(starts)):
        raise ValueError("initial guesses must be finite")
    centroid = 0.5 * (np.asarray(bounds[0], dtype=float) + np.asarray(bounds[1], dtype=float))
    k = len(_LADDER)
    problem = np.tile(np.arange(n), k)  # rung-major: row = rung * n + problem
    out = _gauss_newton(
        _pack(sets).take(problem),
        np.concatenate([np.broadcast_to(centroid, (n, 3)) if from_centroid else starts
                        for from_centroid, _, _ in _LADDER]),
        np.repeat([iters for _, _, iters in _LADDER], n),
        np.repeat([damping for _, damping, _ in _LADDER], n),
        _TOL_M, problem)

    status = out.status.reshape(k, n)
    iterations = out.iterations.reshape(k, n)
    results = []
    for i in range(n):
        rungs = np.flatnonzero(status[:, i] == _CONVERGED)
        if rungs.size == 0:
            results.append(LadderResult(None, None, int(iterations[:, i].sum())))
        else:
            rung = int(rungs[0])
            results.append(LadderResult(_estimate(out, rung * n + i), rung,
                                        int(iterations[:rung + 1, i].sum())))
    return results


def lls_solve(meas: MeasurementSet) -> PositionEstimate:
    """One-shot linear least squares on the Euclidean range model.

    Squared range equations are differenced against the first anchor, which
    cancels |alpha|^2 and leaves a linear system; coplanar (or duplicated)
    anchors make it rank-deficient.
    """
    if len(meas) < 4:
        raise ValueError("3D solve requires at least 4 anchors")
    x0 = meas.anchors[0]
    r0 = meas.ranges[0]
    a_mat = 2.0 * (meas.anchors[1:] - x0)
    b = (
        r0 ** 2 - meas.ranges[1:] ** 2
        + np.sum(meas.anchors[1:] ** 2, axis=1) - float(x0 @ x0)
    )
    if _rank_deficient(a_mat):
        raise SingularGeometryError("LLS design matrix: rank-deficient system")
    solution, _, _, _ = np.linalg.lstsq(a_mat, b, rcond=None)
    residual = meas.ranges - np.linalg.norm(meas.anchors - solution, axis=1)
    return PositionEstimate(
        alpha_hat=Point3.from_array(solution),
        iterations=0,
        converged=True,
        residual_norm=float(np.linalg.norm(residual)),
    )


def peb_batch(problems) -> list[FimResult]:
    """Position error bounds of many problems at once, one ``FimResult`` each.

    Each problem is a tuple (alpha_true, anchors, edges, snr_linear,
    beta_sq_hz2). A singular FIM is reported as such (peb_m = inf) instead
    of fabricating a number. Problems with the same anchor count
    share one evaluation of the model's partials; their Fisher matrices,
    singular tests and inverses are computed stacked. A problem's result
    does not depend on the rest of the batch.
    """
    alphas, sets, snrs, beta_sqs, by_count = [], [], [], [], {}
    for i, (alpha_true, anchors, edges, snr_linear, beta_sq_hz2) in enumerate(problems):
        snr = np.asarray(snr_linear, dtype=float).reshape(-1)
        if np.any(snr <= 0):
            raise ValueError("linear SNRs must be positive")
        if not beta_sq_hz2 > 0:
            raise ValueError("beta^2 must be positive")
        alphas.append(_vec(alpha_true))
        sets.append(MeasurementSet(anchors=np.asarray(anchors, dtype=float).reshape(-1, 3),
                                   ranges=np.zeros(len(snr)), sigmas=np.ones(len(snr)),
                                   edges=tuple(edges)))
        snrs.append(snr)
        beta_sqs.append(beta_sq_hz2)
        by_count.setdefault(len(snr), []).append(i)

    results = [None] * len(sets)
    for group in by_count.values():
        _, jac, singular = _model_rows(np.array([alphas[i] for i in group]),
                                       _pack([sets[i] for i in group]))
        if singular.any():
            k, j = np.argwhere(singular)[0]
            raise SingularGeometryError(f"bound problem {group[k]}: position coincides "
                                        f"with the diffraction point of anchor {j}")
        beta_sq = np.array([beta_sqs[i] for i in group], dtype=float)[:, None]
        inv_var = 8.0 * math.pi ** 2 * beta_sq * np.array([snrs[i] for i in group]) \
            / SPEED_OF_LIGHT ** 2  # 1/m^2
        fim = (jac * inv_var[:, None, :]) @ jac.transpose(0, 2, 1)
        fim = 0.5 * (fim + fim.transpose(0, 2, 1))

        singular = _rank_deficient(fim)
        fim_inv = np.full_like(fim, np.nan)
        fim_inv[~singular] = np.linalg.inv(fim[~singular])
        condition = np.linalg.cond(fim)
        bound = np.sqrt(np.trace(fim_inv, axis1=1, axis2=2))
        for k, i in enumerate(group):
            results[i] = FimResult(fim=fim[k], fim_inv=None, peb_m=math.inf,
                                   condition=math.inf, singular=True) if singular[k] \
                else FimResult(fim=fim[k], fim_inv=fim_inv[k], peb_m=float(bound[k]),
                               condition=float(condition[k]), singular=False)
    return results


def lls_start(lls: PositionEstimate | None, bounds: tuple) -> Point3:
    """D-NLS starting point from an LLS estimate, clamped into the bounds.

    ``lls`` is None when LLS was singular; the start is then the bounds
    centroid.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    if lls is None:
        return Point3.from_array(0.5 * (lo + hi))
    return Point3.from_array(np.clip(lls.alpha_hat.as_array(), lo, hi))
