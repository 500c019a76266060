"""3D position estimation and the Fisher-information error bound.

Two estimators operate on per-anchor range measurements:

* D-NLS: Gauss-Newton iteration on the diffraction path model (the
  window-height approximation), alpha <- alpha + (J^T J)^-1 J^T (r - p(alpha)).
  The Jacobian uses the envelope property of the Fermat-stationary edge
  point: the stationary point's dependence on the receiver position
  contributes nothing to first order, so only the explicit partials remain,
  and one edge solve yields both p and J.

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

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import Point3, WindowEdge, approx_diffraction_solution

__all__ = [
    "SingularGeometryError",
    "SolverDivergedError",
    "MeasurementSet",
    "PositionEstimate",
    "FimResult",
    "diffraction_model",
    "dnls_solve",
    "lls_solve",
    "peb",
    "initial_guess",
]

_RANK_RTOL = 1e-12


class SingularGeometryError(ValueError):
    """Anchor/edge geometry leaves the position unobservable."""


class SolverDivergedError(RuntimeError):
    """Iteration produced a non-finite position estimate."""


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


@dataclass(frozen=True)
class FimResult:
    """Fisher information, its inverse, and the scalar position error bound."""

    fim: np.ndarray  # (3, 3), 1/m^2
    fim_inv: np.ndarray | None
    peb_m: float  # inf when the FIM is singular
    condition: float
    singular: bool


def diffraction_model(alpha, meas: MeasurementSet) -> tuple[np.ndarray, np.ndarray]:
    """Model ranges p_j(alpha) (M,) and their partials J (3, M).

    Each anchor's edge is solved once. Row i of J holds dp_j/d{x, y, z} of
    the receiver position. In the edge-local frame, with the stationary
    point q held fixed (envelope property; also exact for endpoint-clamped
    points):

        dp/dx_n = (x_n - q) / l_rx
        dp/dy_n = y_n / l_rx
        dp/dz_n = (z_n + w/2 - z_a) / l_tx

    where l_rx, l_tx are the receiver- and anchor-side legs. The local
    gradient maps back to world axes through the frame rotation.
    """
    a = alpha.as_array() if isinstance(alpha, Point3) else np.asarray(alpha, dtype=float)
    p = np.empty(len(meas))
    jac = np.empty((3, len(meas)))
    for j, (anchor, edge) in enumerate(zip(meas.anchors, meas.edges)):
        sol = approx_diffraction_solution(anchor, a, edge)
        t = edge.frame.to_local(anchor)
        r = edge.frame.to_local(a)
        z_e = r[2] + 0.5 * edge.w
        qx = edge.x2 + sol.lam * (edge.x1 - edge.x2)
        l_rx = math.sqrt((r[0] - qx) ** 2 + r[1] ** 2 + (z_e - r[2]) ** 2)
        l_tx = math.sqrt((t[0] - qx) ** 2 + t[1] ** 2 + (t[2] - z_e) ** 2)
        if l_rx < 1e-12 or l_tx < 1e-12:
            raise SingularGeometryError(
                f"position coincides with the diffraction point of anchor {j}")
        p[j] = sol.path_length
        jac[:, j] = edge.frame.rotation.T @ np.array([
            (r[0] - qx) / l_rx,
            r[1] / l_rx,
            (z_e - t[2]) / l_tx,
        ])
    return p, jac


def _check_rank(matrix: np.ndarray, context: str) -> None:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s[-1] <= _RANK_RTOL * s[0] or s[0] == 0.0:
        raise SingularGeometryError(f"{context}: rank-deficient system")


def dnls_solve(
    meas: MeasurementSet,
    init,
    max_iters: int = 50,
    tol_m: float = 1e-6,
    damping: float = 0.0,
) -> PositionEstimate:
    """Gauss-Newton on the diffraction path model.

    Iterates until the step norm drops below tol_m or max_iters is reached.
    ``damping`` adds Tikhonov regularization (off by default). Rank-deficient
    normal equations raise SingularGeometryError; a non-finite iterate raises
    SolverDivergedError.
    """
    if len(meas) < 4:
        raise ValueError("3D solve requires at least 4 anchors")
    alpha = init.as_array() if isinstance(init, Point3) else np.asarray(init, dtype=float).copy()
    if not np.all(np.isfinite(alpha)):
        raise ValueError("initial guess must be finite")

    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        model, jac = diffraction_model(alpha, meas)
        residual = meas.ranges - model
        normal = jac @ jac.T
        if damping > 0.0:
            normal = normal + damping * np.eye(3)
        else:
            _check_rank(normal, "D-NLS normal equations")
        step = np.linalg.solve(normal, jac @ residual)
        alpha = alpha + step
        if not np.all(np.isfinite(alpha)):
            raise SolverDivergedError(f"non-finite iterate at iteration {iterations}")
        if np.linalg.norm(step) < tol_m:
            converged = True
            break

    final_residual = meas.ranges - diffraction_model(alpha, meas)[0]
    return PositionEstimate(
        alpha_hat=Point3.from_array(alpha),
        iterations=iterations,
        converged=converged,
        residual_norm=float(np.linalg.norm(final_residual)),
    )


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
    _check_rank(a_mat, "LLS design matrix")
    solution, _, _, _ = np.linalg.lstsq(a_mat, b, rcond=None)
    residual = meas.ranges - np.linalg.norm(meas.anchors - solution, axis=1)
    return PositionEstimate(
        alpha_hat=Point3.from_array(solution),
        iterations=0,
        converged=True,
        residual_norm=float(np.linalg.norm(residual)),
    )


def peb(
    alpha_true,
    anchors,
    edges: tuple[WindowEdge, ...],
    snr_linear,
    beta_sq_hz2: float,
) -> FimResult:
    """Position error bound from the diffraction-model Fisher information.

    Range variances follow the delay bound: sigma_j^2 = c^2 / (8 pi^2 beta^2
    snr_j). A singular FIM is reported as such (peb_m = inf) instead of
    fabricating a number.
    """
    snr = np.asarray(snr_linear, dtype=float).reshape(-1)
    if np.any(snr <= 0):
        raise ValueError("linear SNRs must be positive")
    if not beta_sq_hz2 > 0:
        raise ValueError("beta^2 must be positive")
    meas = MeasurementSet(
        anchors=np.asarray(anchors, dtype=float).reshape(-1, 3),
        ranges=np.zeros(len(snr)),
        sigmas=np.ones(len(snr)),
        edges=tuple(edges),
    )
    jac = diffraction_model(alpha_true, meas)[1]
    inv_var = 8.0 * math.pi ** 2 * beta_sq_hz2 * snr / SPEED_OF_LIGHT ** 2  # 1/m^2
    fim = (jac * inv_var) @ jac.T
    fim = 0.5 * (fim + fim.T)

    s = np.linalg.svd(fim, compute_uv=False)
    singular = s[0] == 0.0 or s[-1] <= _RANK_RTOL * s[0]
    condition = math.inf if singular else float(s[0] / s[-1])
    if singular:
        return FimResult(fim=fim, fim_inv=None, peb_m=math.inf,
                         condition=condition, singular=True)
    fim_inv = np.linalg.inv(fim)
    return FimResult(fim=fim, fim_inv=fim_inv,
                     peb_m=float(np.sqrt(np.trace(fim_inv))),
                     condition=condition, singular=False)


def initial_guess(meas: MeasurementSet, bounds: tuple) -> Point3:
    """Default D-NLS starting point: LLS clamped into the scene bounds.

    Falls back to the bounds centroid (mid-height) when LLS is singular.
    """
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    try:
        estimate = lls_solve(meas).alpha_hat.as_array()
    except (SingularGeometryError, ValueError):
        return Point3.from_array(0.5 * (lo + hi))
    return Point3.from_array(np.clip(estimate, lo, hi))
