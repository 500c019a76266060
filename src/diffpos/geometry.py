"""Pure geometric kernel for multipath path lengths.

Three deterministic mechanisms are covered: straight transmission segments
(Euclidean distance), single specular reflections via the virtual-source
construction, and single diffraction at a finite horizontal edge where the
stationary point on the edge is solved in closed form from Keller's law of
edge diffraction (the diffracted ray makes the same angle with the edge as
the incident ray), then clipped to the edge.

All edge formulas operate in the edge-local frame in which the edge lies on
the line {y = 0, z = z_e}; the edge table (``edge_table``) holds each edge's
world -> edge-local rotation and translation beside its extent, so the
formulas apply to arbitrarily placed world edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GeometryError",
    "Point3",
    "EdgeTable",
    "edge_table",
    "euclidean_distance",
]


class GeometryError(ValueError):
    """Raised for geometric configurations that admit no valid solution."""


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


class EdgeTable(NamedTuple):
    """Window edges packed into arrays, one entry per edge, in edge order."""

    rotation: np.ndarray  # (E, 3, 3) world -> edge-local rotation of the frame
    translation: np.ndarray  # (E, 3)
    x1: np.ndarray  # (E,)
    x2: np.ndarray  # (E,)
    z_e: np.ndarray  # (E,)
    w: np.ndarray  # (E,) window height

    def to_local(self, points) -> np.ndarray:
        """Points (N, 3), or one (3,) point, in every edge frame (N, E, 3):
        bit for bit ``rotation[e] @ p + translation[e]`` (``_matvec``)."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        return _matvec(self.rotation, points[:, None]) + self.translation

    def points(self, ids, lam) -> np.ndarray:
        """World points (N, 3) at ``lam`` (N,) on the edges ``ids`` (N,)."""
        x1, x2 = self.x1[ids], self.x2[ids]
        q_local = np.stack([x2 + lam * (x1 - x2), np.zeros_like(lam), self.z_e[ids]], axis=1)
        return np.einsum("eji,ej->ei", self.rotation[ids], q_local - self.translation[ids])


def edge_table(rotation, translation, x1, x2, z_e, w) -> EdgeTable:
    """The ``EdgeTable`` of E edges given as columns: the world -> edge-local
    rotations (E, 3, 3) and translations (E, 3) of their frames, and x1, x2,
    z_e and w (E,): in its frame edge e runs from (x1, 0, z_e) to (x2, 0,
    z_e), on a window of height w. Entries must be finite, rotations
    orthonormal with determinant +1 (within 1e-12), x1 != x2 and w > 0; the
    GeometryError names the first edge that is not."""
    table = EdgeTable(*(np.array(c, dtype=float, order="C")
                        for c in (rotation, translation, x1, x2, z_e, w)))
    n, r = table.x1.size, table.rotation
    if [c.shape for c in table] != [(n, 3, 3), (n, 3)] + [(n,)] * 4:
        raise GeometryError(f"edge columns must have shapes (E, 3, 3), (E, 3) and (E,), "
                            f"not {', '.join(str(c.shape) for c in table)}")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite edge fails first
        checks = (
            (~np.isfinite(np.hstack([r.reshape(n, 9), table.translation,
                                     np.transpose(table[2:])])).all(axis=1),
             "entries must be finite"),
            (~np.isclose(r @ r.transpose(0, 2, 1), np.eye(3), atol=1e-12).all(axis=(1, 2)),
             "rotation is not orthonormal"),
            (np.linalg.det(r) < 0, "rotation has negative determinant (reflection)"),
            (table.x1 == table.x2, "edge endpoints coincide (x1 == x2)"),
            (~(table.w > 0), "window height w must be positive"))
    for bad, message in checks:
        if bad.any():
            raise GeometryError(f"edge {int(np.argmax(bad))}: {message}")
    return table


def _matvec(matrices: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``matrices @ vectors[..., None]`` (..., K) of (..., K, n) matrices and
    (..., n) vectors, broadcast, as one stacked product: each row is bit for
    bit its own ``matrix @ vector`` (a dot product for K = 1), whatever the
    rest of its batch."""
    return (matrices @ vectors[..., None])[..., 0]


def euclidean_distance(a, b) -> np.ndarray:
    """Straight-line distance |a - b| in meters of points (..., 3), row by
    row: each bit for bit ``np.linalg.norm(a - b)`` of its own row."""
    d = np.subtract(a, b, dtype=float)
    return np.sqrt(_matvec(d[..., None, :], d)[..., 0])


def _signed_distances(p: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Signed distance n.p - offset (M, K) of M points ``p`` (M, 3) to K
    planes {x : normals[k].x = offsets[k]} with unit normals. Each point's
    n.p is its own matrix-vector product (``_matvec``), so a point's row does
    not depend on the others; with an axis-aligned normal it is the
    coordinate minus the offset, bit for bit."""
    return _matvec(normals, p) - offsets


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
    """Per-entry result of ``_solve_edge_lambdas``: ``lam``, ``free`` and
    ``length`` have the entry shape, and ``legs``, ``dx`` and ``dz`` stack
    the anchor-side leg ([0]) on the receiver-side leg ([1])."""

    lam: np.ndarray  # minimizing lam in [0, 1]
    free: np.ndarray  # the stationary point's lam before the clip; lam != free off the edge
    length: np.ndarray  # two-leg length, legs[0] + legs[1]
    legs: np.ndarray  # (2, ...) leg lengths |t - q| and |r - q|
    dx: np.ndarray  # (2, ...) x - qx of each leg's end point, qx = x2 + lam * span
    dz: np.ndarray  # (2, ...) z_e - z of each leg's end point


def _solve_edge_lambdas(x: np.ndarray, y2: np.ndarray, z: np.ndarray, x2: np.ndarray,
                        span: np.ndarray, z_e: np.ndarray) -> _EdgeRows:
    """Minimizing lam in [0, 1] of the two-leg length, the stationary lam it
    was clipped from, the two-leg length, and the legs through the edge
    point, per entry.

    One entry per (tx, rx, edge) triple. The end points' edge-local x, y
    squared and z come stacked, shape (2, ...): tx's at [0], rx's at [1].
    The edge arrays, of the entry shape, give the edge from (x2 + span, 0,
    z_e) to (x2, 0, z_e), where span = x1 - x2. By Keller's law of edge
    diffraction the diffracted ray leaves the edge at the angle the incident
    ray meets it: unfolding rx's half-plane about the edge line makes the
    shortest path straight, so the stationary point divides [x_t, x_r] in
    the ratio of the two transverse distances rho_t, rho_r. The two-leg
    length is convex along the edge, so clipping that point to the edge
    gives the constrained minimum; the clip moved the entries where lam !=
    free (a NaN lam included). Besides the span, which is never zero, the
    only division is by rho_t + rho_r, which vanishes only when tx and rx
    both lie on the edge line. Both legs are evaluated as one stacked
    array; each entry's result depends on that entry only.
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
    return _EdgeRows(lam, free, legs[0] + legs[1], legs, dx, dz)


def _on_edge_line(p: np.ndarray, z_e) -> np.ndarray:
    """Whether edge-local points, shape (..., 3), lie on the edge line
    {y = 0, z = z_e}; diffraction is undefined where tx and rx both do."""
    return (np.abs(p[..., 1]) < 1e-12) & (np.abs(p[..., 2] - z_e) < 1e-12)

