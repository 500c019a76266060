"""Scalar reference edge solver: the Fermat stationary point on one edge.

This is the quadratic solver the batched ``geometry._solve_edge_lambdas``
replaced, kept as an independent test oracle: it squares the stationarity
condition into a quadratic in lam, screens its roots, and falls back to
golden-section search with a Newton polish, where the kernel applies
Keller's closed form. It solves one (tx, rx, edge) at a time in scalar
arithmetic. ``diffraction_point`` puts the edge at its own height
``z_e``, as ``channel.SceneGeometry.diffractions`` does;
``approx_diffraction_solution`` puts it half a window height above the
receiver, as the D-NLS measurement model ``positioning._model_rows`` does.
"""

import math
from typing import NamedTuple

import numpy as np

from diffpos.geometry import Point3

# Relative tolerance below which the stationarity quadratic is treated as
# degenerate and golden-section search takes over.
DEGENERATE_QUADRATIC_RTOL = 1e-12

# Slack when testing whether a root lies in [0, 1].
ROOT_INTERVAL_SLACK = 1e-9


def to_local(table, e, p) -> np.ndarray:
    """Edge ``e``'s local coordinates of the world point ``p``: the row's
    rotation times ``p`` plus its translation."""
    return table.rotation[e] @ np.asarray(p, dtype=float) + table.translation[e]


def to_world(table, e, p) -> np.ndarray:
    """World coordinates of the point ``p`` of edge ``e``'s local
    coordinates, the inverse of ``to_local``."""
    return table.rotation[e].T @ (np.asarray(p, dtype=float) - table.translation[e])


def _golden_section_min(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Golden-section minimizer for a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class EdgeSolution(NamedTuple):
    """Edge parameter (q = lam*X1 + (1-lam)*X2 in the edge-local frame), the
    world edge point, the two-leg length, and whether lam was clamped to an
    endpoint."""

    lam: float
    q: Point3
    path_length: float
    endpoint: bool


def two_leg_length(t, r, z_e, qx):
    """Sum of the two legs through (qx, 0, z_e), in edge-local coordinates."""
    leg_t = math.sqrt((t[0] - qx) ** 2 + t[1] ** 2 + (t[2] - z_e) ** 2)
    leg_r = math.sqrt((r[0] - qx) ** 2 + r[1] ** 2 + (z_e - r[2]) ** 2)
    return leg_t + leg_r


def stationarity_quadratic(t, r, x1, x2, z_e):
    """Coefficients (a, b, c) of the quadratic in lam whose roots contain the
    stationary point of the two-leg length along the edge.

    Derived by squaring the balance condition between the two legs'
    transverse distances; squaring may introduce one spurious root, which the
    caller rejects.
    """
    xa, ya, za = t
    xn, yn, zn = r
    at2 = (z_e - za) ** 2 + ya ** 2  # squared transverse distance, tx leg
    rt2 = (z_e - zn) ** 2 + yn ** 2  # squared transverse distance, rx leg
    a = (x1 - x2) ** 2 * (rt2 - at2)
    b = 2.0 * (x1 - x2) * ((x2 - xa) * rt2 - (x2 - xn) * at2)
    c = (x2 - xa) ** 2 * rt2 - (x2 - xn) ** 2 * at2
    return a, b, c


def newton_polish(t, r, z_e, x1, x2, lam):
    """Refine an interior stationary point with Newton steps on dp/dq."""
    span = x1 - x2
    q = x2 + lam * span
    for _ in range(3):
        l1 = math.sqrt((t[0] - q) ** 2 + t[1] ** 2 + (t[2] - z_e) ** 2)
        l2 = math.sqrt((r[0] - q) ** 2 + r[1] ** 2 + (z_e - r[2]) ** 2)
        if l1 == 0.0 or l2 == 0.0:
            break
        grad = (q - t[0]) / l1 + (q - r[0]) / l2
        curv = (t[1] ** 2 + (t[2] - z_e) ** 2) / l1 ** 3 \
            + (r[1] ** 2 + (z_e - r[2]) ** 2) / l2 ** 3
        if curv <= 0.0:
            break
        step = grad / curv
        q -= step
        if abs(step) < 1e-14 * max(1.0, abs(q)):
            break
    lam = (q - x2) / span
    return min(max(lam, 0.0), 1.0)


def solve_edge_lambda(t, r, x1, x2, z_e):
    """Minimizing lam in [0, 1] for the two-leg length, plus an endpoint flag.

    Closed-form roots of the stationarity quadratic are preferred; degenerate
    or numerically inconsistent quadratics fall back to golden-section search.
    When no stationary point lies in [0, 1] the constrained minimum sits at
    the endpoint of smaller length.
    """

    def length_at(lam):
        return two_leg_length(t, r, z_e, x2 + lam * (x1 - x2))

    def fallback():
        lam = _golden_section_min(length_at, 0.0, 1.0)
        if lam < 1e-9 or lam > 1.0 - 1e-9:
            return float(round(lam)), True
        return newton_polish(t, r, z_e, x1, x2, lam), False

    a, b, c = stationarity_quadratic(t, r, x1, x2, z_e)
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0 or abs(a) < DEGENERATE_QUADRATIC_RTOL * scale:
        return fallback()

    disc = b * b - 4.0 * a * c
    disc_scale = max(b * b, abs(4.0 * a * c))
    if disc < 0.0:
        if abs(disc) > 1e-9 * disc_scale:
            return fallback()
        # Roundoff-negative discriminant of an exact double root.
        disc = 0.0

    sq = math.sqrt(disc)
    qf = -0.5 * (b + sq) if b >= 0.0 else -0.5 * (b - sq)
    roots = (qf / a, c / qf) if qf != 0.0 else (0.0, 0.0)
    # A genuine stationary point lies between tx and rx along the edge.
    between_slack = 1e-9 * max(1.0, (t[0] - r[0]) ** 2)

    def is_stationary(lam):
        q = x2 + lam * (x1 - x2)
        return (q - t[0]) * (q - r[0]) <= between_slack

    inside = [min(max(root, 0.0), 1.0) for root in roots
              if -ROOT_INTERVAL_SLACK <= root <= 1.0 + ROOT_INTERVAL_SLACK
              and is_stationary(root)]
    if inside:
        lam = min(inside, key=length_at)
        return newton_polish(t, r, z_e, x1, x2, lam), False
    return min((0.0, 1.0), key=length_at), True


def edge_solution(t, r, table, e, z_e):
    """EdgeSolution for edge-local tx/rx, with edge ``e`` of ``table`` at
    height z_e."""
    x1, x2 = float(table.x1[e]), float(table.x2[e])
    lam, endpoint = solve_edge_lambda(t, r, x1, x2, z_e)
    qx = x2 + lam * (x1 - x2)
    length = two_leg_length(t, r, z_e, qx)
    q_world = to_world(table, e, [qx, 0.0, z_e])
    return EdgeSolution(lam, Point3(*q_world.tolist()), length, endpoint)


def diffraction_point(tx, rx, table, e):
    """Diffraction at edge ``e`` of ``table``, at its own height (inputs off
    the edge line)."""
    t, r = to_local(table, e, tx), to_local(table, e, rx)
    return edge_solution(t, r, table, e, float(table.z_e[e]))


def approx_diffraction_solution(tx, rx, table, e):
    """Diffraction at edge ``e`` of ``table`` under the window-height
    approximation: the edge at z_n + w/2, with z_n the receiver height in
    the edge-local frame."""
    t, r = to_local(table, e, tx), to_local(table, e, rx)
    return edge_solution(t, r, table, e, r[2] + 0.5 * float(table.w[e]))
