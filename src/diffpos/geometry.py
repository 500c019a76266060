"""Pure geometric kernel for multipath path lengths.

Three deterministic mechanisms are covered: straight transmission segments
(Euclidean distance), single specular reflections via the virtual-source
construction, and single diffraction at a finite horizontal edge where the
stationary point on the edge is solved in closed form from Keller's law of
edge diffraction (the diffracted ray makes the same angle with the edge as
the incident ray), then clipped to the edge.

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
    "EdgeTable",
    "edge_table",
    "euclidean_distance",
]


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


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rigid map from world to local coordinates: local = R @ world + t.

    The rotation must be orthonormal with determinant +1 (within 1e-12).
    Transforms compare and hash by identity, so edges that share one
    compare and hash by value.
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


class EdgeTable(NamedTuple):
    """Window edges packed into arrays, one entry per edge, in edge order."""

    rotation: np.ndarray  # (E, 3, 3) world -> edge-local rotation of the frame
    translation: np.ndarray  # (E, 3)
    x1: np.ndarray  # (E,)
    x2: np.ndarray  # (E,)
    z_e: np.ndarray  # (E,)
    w: np.ndarray  # (E,) window height

    def to_local(self, points) -> np.ndarray:
        """Points (N, 3), or one (3,) point, in every edge frame (N, E, 3), each
        by its own products, as ``RigidTransform.to_local`` bit for bit."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        return np.array([self.rotation @ p + self.translation for p in points]).reshape(
            len(points), len(self.x1), 3)

    def points(self, ids, lam) -> np.ndarray:
        """World points (N, 3) at ``lam`` (N,) on the edges ``ids`` (N,)."""
        x1, x2 = self.x1[ids], self.x2[ids]
        q_local = np.stack([x2 + lam * (x1 - x2), np.zeros_like(lam), self.z_e[ids]], axis=1)
        return np.einsum("eji,ej->ei", self.rotation[ids], q_local - self.translation[ids])


def edge_table(edges) -> EdgeTable:
    """The ``EdgeTable`` of a sequence of ``WindowEdge``s."""
    columns = np.array([[e.x1, e.x2, e.z_e, e.w] for e in edges], dtype=float).reshape(-1, 4)
    return EdgeTable(np.array([e.frame.rotation for e in edges], dtype=float).reshape(-1, 3, 3),
                     np.array([e.frame.translation for e in edges], dtype=float).reshape(-1, 3),
                     *columns.T.copy())


def euclidean_distance(a, b) -> float:
    """Straight-line distance |a - b| in meters."""
    return float(np.linalg.norm(_vec(a) - _vec(b)))


def _signed_distances(p: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Signed distance n.p - offset (M, K) of M points ``p`` (M, 3) to K
    planes {x : normals[k].x = offsets[k]} with unit normals. Each point's
    n.p is its own matrix-vector product, so a point's row does not depend
    on the others; with an axis-aligned normal it is the coordinate minus
    the offset, bit for bit."""
    return np.array([normals @ p_m for p_m in p]).reshape(len(p), -1) - offsets


def _mirror_images(dt: np.ndarray, t: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Images (A, K, 3) of A transmitters ``t`` (A, 3) in K planes, from
    their signed distances ``dt`` (A, K)."""
    return t[:, None] - (2.0 * dt)[..., None] * normals


def _reflect_rows(dt: np.ndarray, image: np.ndarray, r: np.ndarray, normals: np.ndarray,
                  offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Specular reflection of A transmitters to N receivers ``r`` (N, 3) off
    K planes at once, from the transmitters' signed distances ``dt`` (A, K)
    and images ``image`` (A, K, 3) (``_signed_distances`` and
    ``_mirror_images``).

    Returns the image-source length |reflect(t) - r| (N, A, K), the
    specular point (N, A, K, 3) and whether both endpoints lie strictly on
    the same side of the plane (N, A, K). Rows on opposite sides or on the
    plane carry meaningless length and point. Every entry is computed from
    its own transmitter, receiver and plane only.
    """
    dr = _signed_distances(r, normals, offsets)[:, None]
    same_side = np.sign(dt) * np.sign(dr) > 0.0
    direction = r[:, None, None] - image
    length = np.sqrt((direction * direction).sum(axis=-1))
    # The segment image->rx crosses the plane at parameter dt/(dt+dr); on a
    # same-side row both signed distances share a sign, so the denominator
    # does not vanish there.
    with np.errstate(divide="ignore", invalid="ignore"):
        point = image + (dt / (dt + dr))[..., None] * direction
    return length, point, same_side


# ---------------------------------------------------------------------------
# Edge diffraction
# ---------------------------------------------------------------------------

class _EdgeRows(NamedTuple):
    """Per-entry result of ``_solve_edge_lambdas``: ``lam``, ``endpoint``,
    ``length`` and ``qx`` have the entry shape, and ``legs``, ``dx`` and
    ``dz`` stack the anchor-side leg ([0]) on the receiver-side leg ([1])."""

    lam: np.ndarray  # minimizing lam in [0, 1]
    endpoint: np.ndarray  # True where the stationary point lies off the edge, lam clipped
    length: np.ndarray  # two-leg length, legs[0] + legs[1]
    qx: np.ndarray  # edge-local x of the edge point, x2 + lam * span
    legs: np.ndarray  # (2, ...) leg lengths |t - q| and |r - q|
    dx: np.ndarray  # (2, ...) x - qx of each leg's end point
    dz: np.ndarray  # (2, ...) z_e - z of each leg's end point


def _solve_edge_lambdas(x: np.ndarray, y2: np.ndarray, z: np.ndarray, x2: np.ndarray,
                        span: np.ndarray, z_e: np.ndarray) -> _EdgeRows:
    """Minimizing lam in [0, 1] of the two-leg length, an endpoint flag, the
    two-leg length, and the edge point's x and the legs it was taken from,
    per entry.

    One entry per (tx, rx, edge) triple. The end points' edge-local x, y
    squared and z come stacked, shape (2, ...): tx's at [0], rx's at [1].
    The edge arrays, of the entry shape, give the edge from (x2 + span, 0,
    z_e) to (x2, 0, z_e), where span = x1 - x2. By Keller's law of edge
    diffraction the diffracted ray leaves the edge at the angle the incident
    ray meets it: unfolding rx's half-plane about the edge line makes the
    shortest path straight, so the stationary point divides [x_t, x_r] in
    the ratio of the two transverse distances rho_t, rho_r. The two-leg
    length is convex along the edge, so clipping that point to the edge
    gives the constrained minimum; ``endpoint`` flags the entries the clip
    moved. Besides the span, which is never zero, the only division is by
    rho_t + rho_r, which vanishes only when tx and rx both lie on the edge
    line. Both legs are evaluated as one stacked array; each entry's result
    depends on that entry only.
    """
    # A leg through the edge point (qx, 0, z_e) is sqrt((x - qx)^2 + y^2 +
    # (z - z_e)^2), summed in that order; only its first term moves with qx.
    dz = z_e - z
    z2 = dz ** 2
    rho = np.sqrt(z2 + y2)
    rho_t, rho_r, x_t, x_r = rho[0], rho[1], x[0], x[1]
    free = (x_t + (x_r - x_t) * rho_t / (rho_t + rho_r) - x2) / span
    lam = np.minimum(np.maximum(free, 0.0), 1.0)
    qx = x2 + lam * span
    dx = x - qx
    legs = np.sqrt(dx ** 2 + y2 + z2)
    return _EdgeRows(lam, lam != free, legs[0] + legs[1], qx, legs, dx, dz)


def _on_edge_line(p: np.ndarray, z_e) -> np.ndarray:
    """Whether edge-local points, shape (..., 3), lie on the edge line
    {y = 0, z = z_e}; diffraction is undefined where tx and rx both do."""
    return (np.abs(p[..., 1]) < 1e-12) & (np.abs(p[..., 2] - z_e) < 1e-12)

