"""Pure geometric kernel for multipath path lengths.

Three deterministic mechanisms are covered: straight transmission segments
(Euclidean distance), single specular reflections via the virtual-source
construction, and single diffraction at a finite horizontal edge where the
stationary point on the edge is solved in closed form from the quadratic
that encodes Fermat's principle.

All edge formulas operate in the edge-local frame in which the edge lies on
the line {y = 0, z = z_e}; a rigid transform adapter generalizes them to
arbitrarily placed world edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "GeometryError",
    "Point3",
    "RigidTransform",
    "WindowEdge",
    "euclidean_distance",
]

# Relative tolerance below which the stationarity quadratic is treated as
# degenerate and golden-section search takes over.
_DEGENERATE_QUADRATIC_RTOL = 1e-12

# Slack when testing whether a root lies in [0, 1]; absorbs roundoff for
# stationary points essentially at an edge endpoint.
_ROOT_INTERVAL_SLACK = 1e-9


class GeometryError(ValueError):
    """Raised for geometric configurations that admit no valid solution."""


def _vec(p) -> np.ndarray:
    """Coerce a Point3, sequence, or array to a float (3,) array."""
    if isinstance(p, Point3):
        return p.as_array()
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class Point3:
    """A 3D position in meters. All coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise GeometryError(f"non-finite coordinates: {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Point3":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class RigidTransform:
    """Rigid map from world to local coordinates: local = R @ world + t.

    The rotation must be orthonormal with determinant +1 (within 1e-12).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-12):
            raise GeometryError("rotation is not orthonormal")
        if np.linalg.det(r) < 0:
            raise GeometryError("rotation has negative determinant (reflection)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def to_local(self, p) -> np.ndarray:
        return self.rotation @ _vec(p) + self.translation

    def to_world(self, p) -> np.ndarray:
        return self.rotation.T @ (_vec(p) - self.translation)


@dataclass(frozen=True)
class WindowEdge:
    """A horizontal diffracting edge with the vertical window extent ``w``.

    In the edge-local frame the edge spans the segment from (x1, 0, z_e) to
    (x2, 0, z_e); ``frame`` maps world coordinates into that frame.
    """

    x1: float
    x2: float
    z_e: float
    w: float
    frame: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self) -> None:
        if self.x1 == self.x2:
            raise GeometryError("edge endpoints coincide (x1 == x2)")
        if not self.w > 0:
            raise GeometryError("window height w must be positive")

    def endpoints_world(self) -> tuple[np.ndarray, np.ndarray]:
        p1 = self.frame.to_world([self.x1, 0.0, self.z_e])
        p2 = self.frame.to_world([self.x2, 0.0, self.z_e])
        return p1, p2


def euclidean_distance(a, b) -> float:
    """Straight-line distance |a - b| in meters."""
    return float(np.linalg.norm(_vec(a) - _vec(b)))


def _reflect_rows(t: np.ndarray, r: np.ndarray, normals: np.ndarray,
                  offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Specular reflection of tx ``t`` and rx ``r``, shape (3,), off K planes
    at once.

    Plane k is {x : normals[k].x = offsets[k]} with a unit normal. Returns
    the image-source length |reflect(t) - r| (K,), the specular point
    (K, 3) and whether both endpoints lie strictly on the same side of the
    plane (K,). Rows on opposite sides or on the plane carry meaningless
    length and point. With an axis-aligned unit normal, n.t - offset is the
    coordinate minus the offset, bit for bit.
    """
    dt = normals @ t - offsets
    dr = normals @ r - offsets
    same_side = np.sign(dt) * np.sign(dr) > 0.0
    image = t - (2.0 * dt)[:, None] * normals
    direction = r - image
    length = np.sqrt((direction * direction).sum(axis=1))
    # The segment image->rx crosses the plane at parameter dt/(dt+dr); on a
    # same-side row both signed distances share a sign, so the denominator
    # does not vanish there.
    with np.errstate(divide="ignore", invalid="ignore"):
        point = image + (dt / (dt + dr))[:, None] * direction
    return length, point, same_side


# ---------------------------------------------------------------------------
# Edge diffraction
# ---------------------------------------------------------------------------

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


class _EdgeRows(NamedTuple):
    """Per-row result of ``_solve_edge_lambdas``."""

    lam: np.ndarray  # minimizing lam in [0, 1]
    endpoint: np.ndarray  # True where clamped to an edge endpoint
    length: np.ndarray  # two-leg length, leg_t + leg_r
    qx: np.ndarray  # edge-local x of the edge point, x2 + lam * (x1 - x2)
    leg_t: np.ndarray  # tx-side leg |t - q|
    leg_r: np.ndarray  # rx-side leg |q - r|


def _solve_edge_lambdas(
    t: np.ndarray, r: np.ndarray, x1: np.ndarray, x2: np.ndarray, z_e: np.ndarray
) -> _EdgeRows:
    """Minimizing lam in [0, 1] of the two-leg length, an endpoint flag, the
    two-leg length, and the edge point's x and the legs it was taken from,
    per row.

    Row i pairs edge-local tx ``t[i]`` and rx ``r[i]`` (shape (N, 3)) with
    the edge from (x1[i], 0, z_e[i]) to (x2[i], 0, z_e[i]). The stationary
    point solves a quadratic in lam, derived by squaring the balance between
    the two legs' transverse distances; squaring may add a spurious root,
    which the screening below rejects. The two-leg length is convex in lam,
    so when no stationary point lies in [0, 1] the constrained minimum sits
    at the endpoint of smaller length. Rows whose quadratic is degenerate or
    whose discriminant is inconsistent take golden-section search instead.
    Interior points get up to three Newton polish steps. Each row's result
    depends on that row only.
    """
    xa, ya, za = t.T
    xn, yn, zn = r.T
    span = x1 - x2
    # A leg through the edge point (qx, 0, z_e) is sqrt((x - qx)^2 + y^2 +
    # (z - z_e)^2), summed in that order; only its first term moves with qx.
    ty2, tz2 = ya ** 2, (z_e - za) ** 2
    ry2, rz2 = yn ** 2, (z_e - zn) ** 2

    def legs(rows, qx):
        return (np.sqrt((xa[rows] - qx) ** 2 + ty2[rows] + tz2[rows]),
                np.sqrt((xn[rows] - qx) ** 2 + ry2[rows] + rz2[rows]))

    def length_at(rows, lam):
        leg_t, leg_r = legs(rows, x2[rows] + lam * span[rows])
        return leg_t + leg_r

    at2 = tz2 + ty2  # squared transverse distance, tx leg
    rt2 = rz2 + ry2  # squared transverse distance, rx leg
    dxa, dxn = x2 - xa, x2 - xn
    a = span ** 2 * (rt2 - at2)
    b = 2.0 * span * (dxa * rt2 - dxn * at2)
    c = dxa ** 2 * rt2 - dxn ** 2 * at2
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
    bb, ac4 = b * b, 4.0 * a * c
    disc = bb - ac4
    # A discriminant negative beyond roundoff is inconsistent; a
    # roundoff-negative one is an exact double root.
    fallback = ((scale == 0.0) | (np.abs(a) < _DEGENERATE_QUADRATIC_RTOL * scale)
                | ((disc < 0.0) & (np.abs(disc) > 1e-9 * np.maximum(bb, np.abs(ac4)))))
    sq = np.sqrt(np.maximum(disc, 0.0))
    # Stable quadratic formula: avoids cancellation when b*b >> |4ac|.
    qf = np.where(b >= 0.0, -0.5 * (b + sq), -0.5 * (b - sq))
    between_slack = 1e-9 * np.maximum(1.0, (xa - xn) ** 2)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Screen both roots, stacked (2, N): inside [0, 1] (with slack) and
        # between tx and rx, where a genuine stationary point of the two-leg
        # length sits. Fallback rows may divide by zero here; they are
        # masked out.
        root = np.where(qf != 0.0, np.array((qf, c)) / np.array((a, qf)), 0.0)
        q = x2 + root * span
        ok = ((-_ROOT_INTERVAL_SLACK <= root) & (root <= 1.0 + _ROOT_INTERVAL_SLACK)
              & ((q - xa) * (q - xn) <= between_slack) & ~fallback)
        clamped = np.minimum(np.maximum(root, 0.0), 1.0)
        lam = np.where(ok[0], clamped[0], clamped[1])
        both = (ok[0] & ok[1]).nonzero()[0]
        if both.size:
            length = length_at(both, clamped[:, both])
            second = both[length[1] < length[0]]
            lam[second] = clamped[1, second]

        # No stationary point on the edge: the endpoint of smaller length.
        polish = ok[0] | ok[1]
        endpoint = ~(polish | fallback)
        ends = endpoint.nonzero()[0]
        if ends.size:
            length = length_at(ends, np.array([[1.0], [0.0]]))
            lam[ends] = np.where(length[0] < length[1], 1.0, 0.0)

        # Golden-section rows keep an endpoint they land on and are polished
        # otherwise.
        for i in fallback.nonzero()[0]:
            lam[i] = _golden_section_min(lambda x, i=i: length_at(i, x), 0.0, 1.0)
            if lam[i] < 1e-9 or lam[i] > 1.0 - 1e-9:
                lam[i], endpoint[i] = round(lam[i]), True
            else:
                polish[i] = True

        # The quadratic route resolves a near-double root only to
        # ~sqrt(eps); the two-leg length is convex in q with a simple root of
        # its derivative, so Newton steps on dp/dq recover full precision. A
        # row stops early at a zero leg, a non-positive curvature or a step
        # below 1e-14 relative.
        q = x2 + lam * span
        active = polish
        for _ in range(3):
            if not active.any():
                break
            l1, l2 = legs(slice(None), q)
            grad = (q - xa) / l1 + (q - xn) / l2
            curv = at2 / l1 ** 3 + rt2 / l2 ** 3
            step = grad / curv
            move = active & (l1 != 0.0) & (l2 != 0.0) & ~(curv <= 0.0)
            moved = q - step
            q = np.where(move, moved, q)
            active = move & ~(np.abs(step) < 1e-14 * np.maximum(1.0, np.abs(moved)))
        lam = np.where(polish, np.minimum(np.maximum((q - x2) / span, 0.0), 1.0), lam)
    qx = x2 + lam * span
    leg_t, leg_r = legs(slice(None), qx)
    return _EdgeRows(lam, endpoint, leg_t + leg_r, qx, leg_t, leg_r)


def _on_edge_line(t: np.ndarray, r: np.ndarray, z_e) -> np.ndarray:
    """Whether edge-local tx and rx, shape (..., 3), both lie on the edge
    line {y = 0, z = z_e}, where diffraction is undefined."""
    return ((np.abs(t[..., 1]) < 1e-12) & (np.abs(t[..., 2] - z_e) < 1e-12)
            & (np.abs(r[..., 1]) < 1e-12) & (np.abs(r[..., 2] - z_e) < 1e-12))


def _edge_points_world(rotation: np.ndarray, translation: np.ndarray, x1: np.ndarray,
                       x2: np.ndarray, z_e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """World points (N, 3) at ``lam`` on N edges, each given by its frame's
    rotation (N, 3, 3) and translation (N, 3) and its x1, x2, z_e (N,)."""
    q_local = np.stack([x2 + lam * (x1 - x2), np.zeros_like(lam), z_e], axis=1)
    return np.einsum("eji,ej->ei", rotation, q_local - translation)
