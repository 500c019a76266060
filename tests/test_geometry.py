"""Geometric kernel tests.

Closed-form results are checked against independent oracles: high-precision
norms, a brute-force Fermat search over reflector planes, and golden-section
minimization of the two-leg length along diffracting edges.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import scalar_edge
import scalar_paths
from conftest import Problem, edges_of, pack
from diffpos.channel import SceneGeometry, WindowRect, build_scene_geometry, receiver_grid
from diffpos.experiments import build_default_scene
from diffpos.geometry import (
    EdgeTable,
    GeometryError,
    Point3,
    edge_table,
    euclidean_distance,
    _matvec,
    _mirror_images,
    _reflect_rows,
    _signed_distances,
    _solve_edge_lambdas,
)
from diffpos.positioning import _model_rows

RNG = np.random.default_rng(20260808)


# ---------------------------------------------------------------------------
# Oracles (independent of the implementation under test)
# ---------------------------------------------------------------------------

def oracle_norm(a, b) -> float:
    """Euclidean distance in extended precision."""
    d = np.asarray(a, dtype=np.longdouble) - np.asarray(b, dtype=np.longdouble)
    return float(np.sqrt(np.sum(d * d)))


def oracle_two_leg(tx, rx, point) -> float:
    return oracle_norm(tx, point) + oracle_norm(point, rx)


def edge_point(table: EdgeTable, lam: float, e=0) -> np.ndarray:
    """World point of the convex combination lam*X1 + (1-lam)*X2 on edge e."""
    x1, x2 = table.x1[e], table.x2[e]
    return scalar_edge.to_world(table, e, [x2 + lam * (x1 - x2), 0.0, table.z_e[e]])


def oracle_edge_length(tx, rx, table: EdgeTable, n_golden=200) -> float:
    """Golden-section minimization of the two-leg length over lam in [0, 1]
    on the table's first edge."""
    x1, x2, z_e = table.x1[0], table.x2[0], table.z_e[0]
    t = scalar_edge.to_local(table, 0, tx)
    r = scalar_edge.to_local(table, 0, rx)

    def length(lam):
        qx = x2 + lam * (x1 - x2)
        q = np.array([qx, 0.0, z_e])
        return math.dist(t, q) + math.dist(q, r)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = length(c), length(d)
    for _ in range(n_golden):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = length(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = length(d)
    lam = 0.5 * (a + b)
    return min(length(lam), length(0.0), length(1.0))


def random_edge(rng) -> EdgeTable:
    """A one-edge table, in the identity frame."""
    x1 = rng.uniform(-10, 0)
    x2 = rng.uniform(0.5, 10)
    z_e = rng.uniform(-5, 15)
    w = rng.uniform(0.2, 3.0)
    return edges_of(x1, x2, z_e, w)


def random_side_points(rng) -> tuple[np.ndarray, np.ndarray]:
    """tx above the edge plane on one side, rx on the other, generic heights."""
    tx = np.array([rng.uniform(-15, 15), rng.uniform(1, 30), rng.uniform(-10, 25)])
    rx = np.array([rng.uniform(-15, 15), rng.uniform(-30, -1), rng.uniform(-10, 25)])
    return tx, rx


def random_rotation(rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


# ---------------------------------------------------------------------------
# Euclidean distance
# ---------------------------------------------------------------------------

def test_euclidean_pythagorean_triple():
    assert euclidean_distance((0, 0, 0), (3, 4, 0)) == 5.0


def test_euclidean_identity():
    assert euclidean_distance((1, 2, 3), (1, 2, 3)) == 0.0


def test_euclidean_random_vs_high_precision():
    for _ in range(200):
        a = RNG.uniform(-100, 100, 3)
        b = RNG.uniform(-100, 100, 3)
        expect = oracle_norm(a, b)
        got = euclidean_distance(a, b)
        assert abs(got - expect) <= 1e-12 * max(expect, 1.0)
        assert got == euclidean_distance(b, a)


def test_point3_rejects_non_finite():
    with pytest.raises(GeometryError):
        Point3(0.0, math.nan, 0.0)


def test_stacked_products_equal_each_rows_own_product_bit_for_bit():
    # Frame maps, plane distances and distances from the origin of ordinary
    # rows, zero rows, NaN rows (a failed D-NLS estimate) and rows of
    # magnitude 1e150 and 1e-150, in random frames: each row equals its own
    # 1-D product, and every slice of the batch gives the same rows.
    rng = np.random.default_rng(24)
    p = np.concatenate([rng.uniform(-50, 50, (40, 3)), np.zeros((3, 3)), np.full((2, 3), np.nan),
                        rng.uniform(-1, 1, (5, 3)) * 1e150, rng.uniform(-1, 1, (5, 3)) * 1e-150])
    p[41, 2] = p[-1, 0] = math.nan
    p = p[rng.permutation(len(p))]
    rotation = np.array([random_rotation(rng) for _ in range(9)])
    normals = np.concatenate([np.eye(3), rng.standard_normal((5, 3))])
    local, distance = _matvec(rotation, p[:, None]), _matvec(normals, p)
    norm = euclidean_distance(p, 0.0)
    assert local.shape == (len(p), 9, 3) and distance.shape == (len(p), 8)
    for n, v in enumerate(p):
        assert np.array_equal(local[n], rotation @ v, equal_nan=True)
        assert np.array_equal(distance[n], normals @ v, equal_nan=True)
        assert np.array_equal(norm[n], np.linalg.norm(v), equal_nan=True)
    assert np.isnan(norm).sum() == 4 and (norm == 0.0).sum() == 2
    pairs = euclidean_distance(p[:6], p[6:10, None])  # broadcast, as path_table's direct rows
    assert pairs.shape == (4, 6) and all(
        np.array_equal(pairs[i, j], np.linalg.norm(p[j] - p[6 + i]), equal_nan=True)
        for i in range(4) for j in range(6))
    for rows in (slice(0, 1), slice(7, 30), slice(len(p) - 5, None), slice(3, None, 4)):
        assert np.array_equal(_matvec(rotation, p[rows][:, None]), local[rows], equal_nan=True)
        assert np.array_equal(_matvec(normals, p[rows]), distance[rows], equal_nan=True)
        assert np.array_equal(euclidean_distance(p[rows], 0.0), norm[rows], equal_nan=True)


# ---------------------------------------------------------------------------
# Reflection
# ---------------------------------------------------------------------------

Y_AXIS = np.array([0.0, 1.0, 0.0])
PLANE_Y0 = scalar_paths.Plane(normal=Y_AXIS, offset=0.0)


def reflect_once(tx, rx, normal=Y_AXIS, offset=0.0):
    """_reflect_rows off one plane: (length, specular point, same side)."""
    t, normals, offsets = np.asarray(tx, dtype=float)[None], np.asarray(normal)[None], \
        np.array([offset])
    dt = _signed_distances(t, normals, offsets)
    length, point, same_side = _reflect_rows(dt, _mirror_images(dt, t, normals),
                                             np.asarray(rx, dtype=float)[None], normals, offsets)
    return float(length[0, 0, 0]), point[0, 0, 0], bool(same_side[0, 0, 0])


def test_reflect_axis_aligned_mirror():
    p = scalar_paths.reflect_point((0, 5, 0), PLANE_Y0)
    np.testing.assert_allclose(p.as_array(), [0, -5, 0], atol=1e-15)


def test_reflect_fixed_point_on_plane():
    p = scalar_paths.reflect_point((2.0, 0.0, -3.0), PLANE_Y0)
    np.testing.assert_allclose(p.as_array(), [2, 0, -3], atol=1e-15)


def test_reflect_involution_random():
    for _ in range(200):
        n = RNG.standard_normal(3)
        n /= np.linalg.norm(n)
        plane = scalar_paths.Plane(normal=n, offset=RNG.uniform(-5, 5))
        p = RNG.uniform(-20, 20, 3)
        once = scalar_paths.reflect_point(p, plane).as_array()
        twice = scalar_paths.reflect_point(once, plane)
        np.testing.assert_allclose(twice.as_array(), p, atol=1e-12)


def test_reflection_path_collinear_image_case():
    length, point, same_side = reflect_once((0, 5, 0), (0, 3, 0))
    assert same_side
    assert length == pytest.approx(8.0, abs=1e-12)
    np.testing.assert_allclose(point, [0, 0, 0], atol=1e-12)


def test_reflection_path_retroreflection():
    length, point, same_side = reflect_once((0, 1, 0), (0, 1, 0))
    assert same_side
    assert length == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(point, [0, 0, 0], atol=1e-12)


def test_reflection_rejects_opposite_sides():
    assert not reflect_once((0, 5, 0), (0, -3, 0))[2]
    assert not reflect_once((0, 0, 0), (0, 3, 0))[2]
    assert not reflect_once((0, 3, 0), (0, 0, 0))[2]


def test_reflection_is_fermat_minimum_over_plane_points():
    # Grid + local refinement oracle: the unfolded length must equal the
    # minimum over sampled plane points of the two-leg length.
    for _ in range(25):
        n = RNG.standard_normal(3)
        n /= np.linalg.norm(n)
        offset = RNG.uniform(-2, 2)
        # Points strictly on the same side.
        u = np.cross(n, [1.0, 0.3, -0.2])
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        origin = offset * n
        tx = origin + RNG.uniform(0.5, 6) * n + RNG.uniform(-4, 4) * u + RNG.uniform(-4, 4) * v
        rx = origin + RNG.uniform(0.5, 6) * n + RNG.uniform(-4, 4) * u + RNG.uniform(-4, 4) * v

        length, _, same_side = reflect_once(tx, rx, n, offset)
        assert same_side

        # Coarse grid, then two rounds of refinement around the best cell.
        best, half, center = None, 12.0, origin
        for _ in range(12):
            grid = np.linspace(-half, half, 41)
            pts = center + grid[:, None, None] * u + grid[None, :, None] * v
            lengths = (
                np.linalg.norm(pts - tx, axis=2) + np.linalg.norm(pts - rx, axis=2)
            )
            i, j = np.unravel_index(np.argmin(lengths), lengths.shape)
            best = lengths[i, j]
            center = pts[i, j]
            half /= 8.0
        assert length <= best + 1e-9
        assert abs(length - best) <= 1e-6 * length


# ---------------------------------------------------------------------------
# Diffraction point and exact path length
# ---------------------------------------------------------------------------

def test_diffraction_mirror_symmetric_case():
    edge = edges_of(x1=-5.0, x2=5.0, z_e=10.0, w=1.0)
    d = SceneGeometry([], edge, None).diffractions((0, 20, 10), (0, -4, 10))
    assert d.point[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert d.length[0] == pytest.approx(24.0, rel=1e-12)
    assert not d.endpoint[0]


def test_diffraction_common_abscissa_is_stationary():
    geom = SceneGeometry([], edges_of(x1=-5.0, x2=5.0, z_e=3.0, w=1.0), None)
    for qstar in (-3.0, 0.7, 4.2):
        d = geom.diffractions((qstar, 8.0, 3.0), (qstar, -2.0, 3.0))
        assert d.point[0, 0] == pytest.approx(qstar, abs=1e-9)


def test_diffraction_rejects_both_points_on_edge_line():
    # Diffraction is undefined there, so the edge is left out.
    geom = SceneGeometry([], edges_of(x1=-5.0, x2=5.0, z_e=2.0, w=1.0), None)
    assert geom.diffractions((-1.0, 0.0, 2.0), (3.0, 0.0, 2.0)).ids.size == 0
    assert geom.diffractions((-1.0, 0.0, 2.0), (3.0, 0.0, 2.5)).ids.tolist() == [0]


def test_diffraction_random_vs_golden_section_oracle():
    for _ in range(1000):
        edge = random_edge(RNG)
        tx, rx = random_side_points(RNG)
        length = SceneGeometry([], edge, None).diffractions(tx, rx).length[0]
        expect = oracle_edge_length(tx, rx, edge)
        assert abs(length - expect) <= 1e-9 * expect


def solve_edges(t, r, x1, x2, z_e):
    """_solve_edge_lambdas on edge-local tx and rx rows (N, 3) and the edges
    from (x1, 0, z_e) to (x2, 0, z_e)."""
    x, y, z = np.stack((t.T, r.T), axis=1)
    return _solve_edge_lambdas(x, y ** 2, z, x2, x1 - x2, z_e)


def edge_rows(table, tx, rx):
    """Edge-local tx/rx and edge arrays for solve_edges, one row per edge."""
    t = np.array([scalar_edge.to_local(table, e, tx) for e in range(len(table.x1))])
    r = np.array([scalar_edge.to_local(table, e, rx) for e in range(len(table.x1))])
    return t, r, table.x1, table.x2, table.z_e


def test_solve_edge_lambdas_matches_scalar_on_default_edges():
    # Random anchors outside and receivers inside the default building, over
    # all of its window edges; most rows clamp to an endpoint.
    edges = build_scene_geometry(build_default_scene()).edge_table
    assert len(edges.x1) == 168
    rng = np.random.default_rng(5)
    endpoints = interior = 0
    for _ in range(12):
        tx = np.array([rng.uniform(-10, 40), rng.choice([-25.0, 45.0]) + rng.uniform(-5, 5),
                       rng.uniform(0.5, 15)])
        rx = rng.uniform([0.5, 0.5, 0.5], [29.5, 19.5, 20.5])
        lam, free, length = solve_edges(*edge_rows(edges, tx, rx))[:3]
        endpoint = lam != free
        for i in range(len(edges.x1)):
            sol = scalar_edge.diffraction_point(tx, rx, edges, i)
            assert abs(lam[i] - sol.lam) <= 1e-12
            assert abs(length[i] - sol.path_length) <= 1e-9 * sol.path_length
            assert endpoint[i] == sol.endpoint
        endpoints += int(endpoint.sum())
        interior += int((~endpoint).sum())
    assert endpoints > interior > 0


def test_solve_edge_lambdas_degenerate_quadratic_rows_match_scalar():
    # at2 == rt2 makes the oracle's quadratic degenerate, so it takes
    # golden-section search; the closed form needs no special case there.
    # The second edge's frame is shifted by one along y.
    edges = edges_of(-4.0, 4.0, 1.0, 1.0, translation=[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tx, rx = np.array([-1.0, -2.0, 1.0]), np.array([5.0, 2.0, 1.0])
    lam, free, length = solve_edges(*edge_rows(edges, tx, rx))[:3]
    endpoint = lam != free
    for i in range(2):
        sol = scalar_edge.diffraction_point(tx, rx, edges, i)
        assert abs(lam[i] - sol.lam) <= 1e-12
        assert abs(length[i] - sol.path_length) <= 1e-9 * sol.path_length
        assert endpoint[i] == sol.endpoint
    # A degenerate row whose minimum lies beyond the edge: lam = 0 exactly,
    # flagged as an endpoint.
    tx, rx = np.array([6.0, -2.0, 1.0]), np.array([8.0, 2.0, 1.0])
    first = edges_of(-4.0, 4.0, 1.0, 1.0)
    lam, free, length = solve_edges(*edge_rows(first, tx, rx))[:3]
    endpoint = lam != free
    sol = scalar_edge.diffraction_point(tx, rx, first, 0)
    assert lam[0] == sol.lam == 0.0 and endpoint[0] and sol.endpoint
    assert abs(length[0] - sol.path_length) <= 1e-9 * sol.path_length


def test_solve_edge_lambdas_random_edges_and_frames():
    # Every third row puts tx and rx at a common abscissa along the edge,
    # where the stationary point is a double root of the quadratic and only
    # the Newton polish restores full precision.
    columns, frames, local = [], [], []
    for k in range(300):
        edge = random_edge(RNG)
        frames.append((random_rotation(RNG), RNG.uniform(-5, 5, 3)))
        tx, rx = random_side_points(RNG)
        if k % 3 == 0:
            rx[0] = tx[0] = RNG.uniform(edge.x1[0], edge.x2[0])
        columns.append([c[0] for c in edge[2:]])
        local.append((tx, rx))
    rotation, translation = (np.array(c) for c in zip(*frames))
    edges = edges_of(*np.array(columns).T, rotation=rotation, translation=translation)
    world = [(scalar_edge.to_world(edges, e, tx), scalar_edge.to_world(edges, e, rx))
             for e, (tx, rx) in enumerate(local)]
    t = np.array([scalar_edge.to_local(edges, e, a) for e, (a, _) in enumerate(world)])
    r = np.array([scalar_edge.to_local(edges, e, b) for e, (_, b) in enumerate(world)])
    lam, free, length = solve_edges(t, r, edges.x1, edges.x2, edges.z_e)[:3]
    endpoint = lam != free
    for i, (a, b) in enumerate(world):
        sol = scalar_edge.diffraction_point(a, b, edges, i)
        assert abs(lam[i] - sol.lam) <= 1e-12
        assert abs(length[i] - sol.path_length) <= 1e-9 * sol.path_length
        assert endpoint[i] == sol.endpoint
    assert endpoint.any() and not endpoint.all()


def test_solve_edge_lambdas_matches_oracle_and_dense_grid():
    # Keller's closed form against the scalar quadratic oracle and a dense
    # brute-force lam grid, on random rows and on the rows the oracle treats
    # specially: equal transverse distances (a degenerate quadratic), tx on
    # the edge line, a common abscissa (a double root), and both abscissas on
    # the edge (an interior point), with spans from 1 cm to 10 m and
    # coordinates up to 100 m.
    rng = np.random.default_rng(1962)
    n = 1000
    t, r = rng.uniform(-100, 100, (n, 3)), rng.uniform(-100, 100, (n, 3))
    x2, z_e = rng.uniform(-100, 100, n), rng.uniform(-100, 100, n)
    x1 = x2 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-2, 1, n)
    kind = np.arange(n) % 5
    r[kind == 1, 1:] = t[kind == 1, 1:] * [-1.0, 1.0]
    t[kind == 2, 1], t[kind == 2, 2] = 0.0, z_e[kind == 2]
    on_edge = (kind == 0) | (kind == 3)
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    t[on_edge, 0] = rng.uniform(lo[on_edge], hi[on_edge])
    r[kind == 0, 0] = rng.uniform(lo[kind == 0], hi[kind == 0])
    r[kind == 3, 0] = t[kind == 3, 0]
    sol = solve_edges(t, r, x1, x2, z_e)

    size = 1.0 + np.abs(np.concatenate([t, r], axis=1)).max(axis=1)
    for i in range(n):
        lam, endpoint = scalar_edge.solve_edge_lambda(t[i], r[i], x1[i], x2[i], z_e[i])
        q = x2[i] + lam * (x1[i] - x2[i])
        length = scalar_edge.two_leg_length(t[i], r[i], z_e[i], q)
        assert abs(x2[i] + sol.lam[i] * (x1[i] - x2[i]) - q) <= 1e-12 * size[i]
        assert abs(sol.length[i] - length) <= 1e-13 * length
        assert (sol.lam[i] != sol.free[i]) == endpoint
    clipped = sol.lam != sol.free
    assert not clipped[on_edge].any() and clipped.any()

    grid = np.linspace(0.0, 1.0, 2001)
    qx = x2[:, None] + grid * (x1 - x2)[:, None]
    sampled = (np.sqrt((t[:, :1] - qx) ** 2 + t[:, 1:2] ** 2 + (t[:, 2:] - z_e[:, None]) ** 2)
               + np.sqrt((r[:, :1] - qx) ** 2 + r[:, 1:2] ** 2 + (r[:, 2:] - z_e[:, None]) ** 2))
    assert np.all(sol.length <= sampled.min(axis=1) * (1.0 + 1e-13))


def test_solve_edge_lambdas_returns_the_legs_at_its_lam():
    # Random rows, most clamped to an endpoint. Every fifth row puts tx and
    # rx at a common abscissa, where both roots of the oracle's quadratic
    # pass its screen; every seventh gives both legs the same transverse
    # distance, which makes that quadratic degenerate. The edge point and the
    # legs returned are those at the returned lam, bit for bit, as the D-NLS
    # model takes them.
    rng = np.random.default_rng(21)
    n = 600
    t, r = rng.uniform(-20, 20, (n, 3)), rng.uniform(-20, 20, (n, 3))
    x1, x2, z_e = rng.uniform(-5, 0, n), rng.uniform(0.1, 5, n), rng.uniform(-3, 3, n)
    r[::5, 0] = t[::5, 0]
    r[::7, 1:] = t[::7, 1:] * [-1.0, 1.0]
    sol = solve_edges(t, r, x1, x2, z_e)
    qx = x2 + sol.lam * (x1 - x2)
    leg_t = np.sqrt((t[:, 0] - qx) ** 2 + t[:, 1] ** 2 + (t[:, 2] - z_e) ** 2)
    leg_r = np.sqrt((r[:, 0] - qx) ** 2 + r[:, 1] ** 2 + (z_e - r[:, 2]) ** 2)
    assert np.array_equal(sol.legs, [leg_t, leg_r])
    assert np.array_equal(sol.dx, [t[:, 0] - qx, r[:, 0] - qx])
    assert np.array_equal(sol.dz, [z_e - t[:, 2], z_e - r[:, 2]])
    assert np.array_equal(sol.length, leg_t + leg_r)
    clipped = sol.lam != sol.free
    assert clipped.any() and not clipped.all()


def test_diffraction_fermat_stationarity_interior():
    # Central finite difference of the two-leg length in lam vanishes at the
    # returned interior solution.
    checked = 0
    for _ in range(400):
        edge = random_edge(RNG)
        tx, rx = random_side_points(RNG)
        d = SceneGeometry([], edge, None).diffractions(tx, rx)
        lam = d.lam[0]
        if d.endpoint[0] or not 1e-4 < lam < 1 - 1e-4:
            continue
        h = 1e-6

        def length(lam):
            return oracle_two_leg(tx, rx, edge_point(edge, lam))

        deriv = (length(lam + h) - length(lam - h)) / (2 * h)
        # Normalize by the edge span so the tolerance is scale-free.
        assert abs(deriv) / abs(edge.x1[0] - edge.x2[0]) < 1e-8 * max(1.0, d.length[0])
        checked += 1
    assert checked > 100


def test_diffraction_minimality_against_sampled_lambdas():
    for _ in range(300):
        edge = random_edge(RNG)
        tx, rx = random_side_points(RNG)
        length = SceneGeometry([], edge, None).diffractions(tx, rx).length[0]
        lams = np.linspace(0.0, 1.0, 199)
        sampled = min(oracle_two_leg(tx, rx, edge_point(edge, l)) for l in lams)
        assert length <= sampled + 1e-9


def test_diffraction_lower_bound_euclidean():
    for _ in range(300):
        edge = random_edge(RNG)
        tx, rx = random_side_points(RNG)
        p = SceneGeometry([], edge, None).diffractions(tx, rx).length[0]
        assert p >= euclidean_distance(tx, rx) - 1e-12


def test_diffraction_tx_equals_rx():
    edge = edges_of(x1=-5.0, x2=5.0, z_e=4.0, w=1.0)
    p = np.array([1.0, 3.0, 1.0])
    got = SceneGeometry([], edge, None).diffractions(p, p).length[0]
    # Legs coincide: twice the distance to the nearest edge point.
    nearest = 2.0 * math.sqrt(3.0 ** 2 + 3.0 ** 2)
    assert got == pytest.approx(nearest, rel=1e-12)


def test_diffraction_endpoint_clamping():
    # Both stationary points beyond x2: clamp and flag.
    edge = edges_of(x1=-1.0, x2=1.0, z_e=0.0, w=1.0)
    d = SceneGeometry([], edge, None).diffractions((8.0, 1.0, 0.0), (8.0, -1.0, 0.0))
    assert d.endpoint[0]
    assert d.lam[0] in (0.0, 1.0)
    assert d.point[0, 0] == pytest.approx(1.0)
    assert d.length[0] == pytest.approx(oracle_edge_length((8, 1, 0), (8, -1, 0), edge), rel=1e-12)


def test_diffraction_spurious_root_rejected():
    # Edge segment beyond both endpoints' abscissae: the squared stationarity
    # equation has a root on the edge, but it is not a Fermat point and the
    # constrained minimum sits at an edge endpoint.
    edge = edges_of(x1=2.0, x2=1.2, z_e=0.0, w=1.0)
    tx = np.array([0.0, 3.0, 0.0])
    rx = np.array([1.0, -1.0, 0.0])
    d = SceneGeometry([], edge, None).diffractions(tx, rx)
    expect = oracle_edge_length(tx, rx, edge)
    assert d.endpoint[0]
    assert d.length[0] == pytest.approx(expect, rel=1e-12)
    assert d.point[0, 0] == pytest.approx(1.2, abs=1e-12)


def test_diffraction_frame_invariance():
    for _ in range(100):
        edge = random_edge(RNG)
        tx, rx = random_side_points(RNG)
        base = SceneGeometry([], edge, None).diffractions(tx, rx).length[0]

        rot = random_rotation(RNG)
        shift = RNG.uniform(-30, 30, 3)
        # Transform the world: points move by p -> rot @ p + shift, so the
        # edge frame (world->local) composes with the inverse map.
        frame = edge.rotation[0] @ rot.T
        moved_edge = edges_of(*edge[2:], rotation=frame,
                              translation=edge.translation[0] - frame @ shift)
        moved = SceneGeometry([], moved_edge, None).diffractions(
            rot @ tx + shift, rot @ rx + shift).length[0]
        assert abs(moved - base) <= 1e-9 * base


# ---------------------------------------------------------------------------
# Window-height approximation
# ---------------------------------------------------------------------------

def test_approx_equals_exact_when_offset_matches():
    for _ in range(50):
        edge = random_edge(RNG)
        tx, _ = random_side_points(RNG)
        # Choose a receiver whose local height satisfies z_e - z_n = w/2.
        rx = np.array([RNG.uniform(-8, 8), RNG.uniform(-20, -1), edge.z_e[0] - edge.w[0] / 2.0])
        exact = SceneGeometry([], edge, None).diffractions(tx, rx).length[0]
        meas = Problem([tx], [0.0], edge)
        approx = _model_rows(rx[None], pack([meas]))[0][0, 0]
        assert approx == pytest.approx(exact, rel=1e-12)


def test_approx_w_zero_limit_in_edge_plane():
    # A vanishing window height puts the model edge at the receiver height,
    # where the exact edge lies.
    edge = edges_of(x1=-5.0, x2=5.0, z_e=7.0, w=1e-12)
    tx = np.array([2.0, 10.0, 12.0])
    rx = np.array([-1.0, -6.0, 7.0])  # receiver at edge height
    meas = Problem([tx], [0.0], edge)
    got = _model_rows(rx[None], pack([meas]))[0][0, 0]
    expect = SceneGeometry([], edge, None).diffractions(tx, rx).length[0]
    assert got == pytest.approx(expect, rel=1e-12)


def test_approx_discrepancy_bounded_by_height_mismatch():
    # Sweep the receiver height: tx above the edge, rx below, so the length's
    # sensitivity to the edge height stays below one.
    edge = edges_of(x1=-4.0, x2=4.0, z_e=10.0, w=2.0)
    tx = np.array([1.0, 25.0, 16.0])
    geom = SceneGeometry([], edge, None)
    meas = Problem([tx], [0.0], edge)
    for z_n in np.linspace(6.0, 10.0, 21):
        rx = np.array([-2.0, -5.0, z_n])
        exact = geom.diffractions(tx, rx).length[0]
        approx = _model_rows(rx[None], pack([meas]))[0][0, 0]
        mismatch = abs((edge.z_e[0] - z_n) - edge.w[0] / 2.0)
        assert abs(approx - exact) <= mismatch + 1e-12


def test_edge_table_packs_every_edge_in_order():
    # Rows 2i and 2i + 1 are window i's bottom and top rims, in the frame of
    # its facade, which maps each rim's world ends to (x1 or x2, 0, z_e). The
    # default scene's windows, and one on each facade x = 0 and x = 30.
    scene = build_default_scene()
    scene = dataclasses.replace(scene, windows=scene.windows + (
        WindowRect("x", 0.0, 4.0, 6.5, 1.0, 2.5), WindowRect("x", 30.0, 12.0, 13.0, 5.5, 7.0)))
    table = build_scene_geometry(scene).edge_table
    assert len(table.x1) == 2 * len(scene.windows) == 172
    rotation = {"y": np.eye(3),
                "x": np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])}
    for i, window in enumerate(scene.windows):
        for e, z in ((2 * i, window.z_lo), (2 * i + 1, window.z_hi)):
            assert (table.x1[e], table.x2[e], table.z_e[e], table.w[e]) \
                == (window.u_lo, window.u_hi, z, window.height)
            assert np.array_equal(table.rotation[e], rotation[window.axis])
            ends = [[u, window.coord, z] if window.axis == "y" else [window.coord, u, z]
                    for u in (window.u_lo, window.u_hi)]
            assert np.array_equal(table.to_local(ends)[:, e],
                                  [[window.u_lo, 0.0, z], [window.u_hi, 0.0, z]])
    assert [column.shape for column in edge_table(np.zeros((0, 3, 3)), np.zeros((0, 3)),
                                                  [], [], [], [])] \
        == [(0, 3, 3), (0, 3), (0,), (0,), (0,), (0,)]


def test_edge_table_frame_map_equals_to_local_bit_for_bit():
    # The default scene's facade edges, and edges in random rigid frames,
    # whose rotations mix every axis, at the scene's anchors and receivers
    # and at random points: each point in each frame equals its own
    # product with the row's rotation plus its translation, bit for bit.
    scene = build_default_scene()
    rng = np.random.default_rng(41)
    columns, rotations, translations = [], [], []
    for _ in range(60):
        columns.append([c[0] for c in random_edge(rng)[2:]])
        rotations.append(random_rotation(rng))
        translations.append(rng.uniform(-30, 30, 3))
    moved = edges_of(*np.array(columns).T, rotation=np.array(rotations),
                     translation=np.array(translations))
    points = np.concatenate([np.asarray(scene.anchors, dtype=float), receiver_grid(scene),
                             rng.uniform(-50, 50, (40, 3))])
    for table in (build_scene_geometry(scene).edge_table, moved):
        local = table.to_local(points)
        assert local.shape == (len(points), len(table.x1), 3)
        for n, p in enumerate(points):
            expect = np.array([scalar_edge.to_local(table, e, p) for e in range(len(table.x1))])
            assert np.array_equal(local[n], expect)
    assert np.array_equal(moved.to_local(points[0]), local[:1])


def three_edges():
    """Valid ``edge_table`` columns of three edges; each rejection case
    below spoils one entry."""
    return dict(rotation=np.tile(np.eye(3), (3, 1, 1)), translation=np.zeros((3, 3)),
                x1=np.zeros(3), x2=np.ones(3), z_e=np.zeros(3), w=np.ones(3))


@pytest.mark.parametrize("name, index, value, message", [
    ("x2", 1, 0.0, "edge 1: edge endpoints coincide (x1 == x2)"),
    ("w", 2, 0.0, "edge 2: window height w must be positive"),
    ("w", 1, -1.0, "edge 1: window height w must be positive"),
    ("rotation", (2, 0, 0), 1.001, "edge 2: rotation is not orthonormal"),
    ("rotation", (1, 2, 2), -1.0, "edge 1: rotation has negative determinant (reflection)"),
    ("rotation", (2, 0, 1), math.nan, "edge 2: entries must be finite"),
    ("translation", (1, 1), math.inf, "edge 1: entries must be finite"),
    ("x1", 0, -math.inf, "edge 0: entries must be finite"),
    ("z_e", 2, math.nan, "edge 2: entries must be finite"),
    ("w", 1, math.nan, "edge 1: entries must be finite"),
], ids=["x1_equals_x2", "zero_height", "negative_height", "not_orthonormal", "reflection",
        "nan_rotation", "infinite_translation", "infinite_x1", "nan_z_e", "nan_height"])
def test_edge_table_rejects(name, index, value, message):
    columns = three_edges()
    columns[name][index] = value
    with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
        edge_table(**columns)


def test_edge_table_rejects_columns_of_other_lengths():
    columns = three_edges()
    assert len(edge_table(**columns).x1) == 3
    for name, value in (("w", np.ones(2)), ("rotation", np.eye(3)), ("translation", np.zeros(3))):
        with pytest.raises(GeometryError, match=r"^edge columns must have shapes"):
            edge_table(**{**columns, name: value})


def test_solve_edge_lambdas_is_elementwise_in_any_shape():
    # The same entries as a flat vector and as (rows, anchors) blocks give the
    # same results, bit for bit.
    rng = np.random.default_rng(4)
    t, r = rng.uniform(-20, 20, (60, 3)), rng.uniform(-20, 20, (60, 3))
    x1, x2, z_e = rng.uniform(-5, 0, 60), rng.uniform(0.1, 5, 60), rng.uniform(-3, 3, 60)
    flat = solve_edges(t, r, x1, x2, z_e)

    def block(v):  # (..., 60) -> contiguous (..., 15, 4)
        return np.ascontiguousarray(np.swapaxes(v.reshape(*v.shape[:-1], 4, 15), -1, -2))

    x, y, z = np.stack((t.T, r.T), axis=1)
    got = _solve_edge_lambdas(*(block(v) for v in (x, y ** 2, z, x2, x1 - x2, z_e)))
    for column, expect in zip(got, flat):
        assert column.shape == expect.shape[:-1] + (15, 4)
        assert np.array_equal(column, block(expect))
