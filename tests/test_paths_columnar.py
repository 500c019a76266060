"""Columnar path evaluation against the scalar oracle in ``scalar_paths``.

The reflection kernel, the (F, P) loss pass, the group codes and the array
top-k and FAP bodies are each checked against the one-plane, one-row,
one-object code they replaced; a receiver's table of all anchors against
its one-anchor tables, a block's table against its one-receiver tables, and
one-anchor tables against the ones recorded before tables took blocks, and
every row's legs against its own crossing tests, although the table shares
the legs of rows clamped to an edge end.
"""

import hashlib
import json
import math
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest

import scalar_paths
from diffpos import channel
from diffpos.channel import (
    Mpc,
    MpcGroup,
    Pdp,
    build_scene_geometry,
    classify_mpc,
    path_table,
    receiver_grid,
    truncate_top_k,
)
from diffpos.constants import SPEED_OF_LIGHT
from diffpos.experiments import (
    DEFAULT_FREQUENCY_LADDER_HZ,
    SweepConfig,
    _nearest_edges,
    _receiver_faps,
    build_default_scene,
    run_sweep,
)
from diffpos.fap import fap_rows, select_fap
from diffpos.geometry import (
    GeometryError,
    Point3,
    _mirror_images,
    _reflect_rows,
    _signed_distances,
)

SCENE = build_default_scene()
GEOM = build_scene_geometry(SCENE)


def random_pairs(rng, n):
    """(anchor index, receiver) pairs on the default scene's grid floors."""
    pairs = []
    for _ in range(n):
        floor = int(rng.choice([3, 4]))
        rx = Point3(rng.uniform(0.5, 29.5), rng.uniform(0.5, 19.5),
                    SCENE.floor_base(floor) + rng.uniform(1.0, 2.0))
        pairs.append((int(rng.integers(len(SCENE.anchors))), rx))
    return pairs


# ---------------------------------------------------------------------------
# Reflection kernel
# ---------------------------------------------------------------------------

def test_reflect_rows_match_scalar_on_random_planes():
    rng = np.random.default_rng(3)
    normals = rng.standard_normal((40, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = rng.uniform(-3.0, 3.0, 40)
    for trial in range(30):
        tx, rx = rng.uniform(-10.0, 10.0, (2, 3))
        if trial % 5 == 0:  # tx on the first plane
            tx = tx - (normals[0] @ tx - offsets[0]) * normals[0]
        dt = _signed_distances(tx[None], normals, offsets)
        length, point, same_side = _reflect_rows(dt, _mirror_images(dt, tx[None], normals),
                                                 rx[None], normals, offsets)
        length, point, same_side = length[0, 0], point[0, 0], same_side[0, 0]
        for k in range(len(normals)):
            plane = scalar_paths.Plane(normals[k], offsets[k])
            try:
                sol = scalar_paths.reflection_path_length(tx, rx, plane)
            except GeometryError:
                assert not same_side[k]
                continue
            assert same_side[k]
            assert abs(length[k] - sol.length) <= 1e-12 * sol.length
            np.testing.assert_allclose(point[k], sol.specular_point.as_array(),
                                       rtol=0, atol=1e-12 * max(1.0, sol.length))
    assert same_side.any() and not same_side.all()


def reflection_cases(rng):
    """tx/rx pairs for the default scene's reflectors: anchors to receivers,
    random pairs, pairs on opposite sides of a facade, endpoints on a slab
    plane, and specular points in a window cutout or on the wall beside it."""
    cases = [(np.asarray(SCENE.anchors[a], dtype=float), rx.as_array())
             for a, rx in random_pairs(rng, 25)]
    lo, hi = np.array([-10.0, -25.0, -1.0]), np.array([40.0, 45.0, 22.0])
    cases += [tuple(rng.uniform(lo, hi, (2, 3))) for _ in range(25)]
    cases += [
        (np.array([7.5, -20.0, 3.2]), np.array([7.5, 5.0, 8.0])),  # across facade y = 0
        (np.array([4.0, 5.0, 6.0]), np.array([9.0, 12.0, 7.5])),  # tx on slab z = 6
        (np.array([2.5, -5.0, 1.8]), np.array([2.5, -3.0, 1.8])),  # specular in a window
        (np.array([2.5, 4.0, 7.8]), np.array([2.5, 2.0, 7.8])),  # same, from inside
        (np.array([5.0, -5.0, 1.8]), np.array([5.0, -3.0, 1.8])),  # wall between windows
    ]
    return cases


def test_reflections_match_scalar_on_default_scene():
    assert len(scalar_paths.reflectors(SCENE, GEOM)) == len(GEOM.reflector_slabs) == 13
    dropped = 0
    for tx, rx in reflection_cases(np.random.default_rng(5)):
        got = GEOM.reflections(tx, rx)
        want = scalar_paths.reflections(SCENE, GEOM, tx, rx)
        assert got.ids.tolist() == [k for k, *_ in want]
        for j, (_, length, spec, angle) in enumerate(want):
            assert abs(got.length[j] - length) <= 1e-12 * length
            np.testing.assert_allclose(got.point[j], spec, rtol=0, atol=1e-12 * length)
            assert abs(got.incidence[j] - angle) <= 1e-12
        dropped += 13 - len(want)
    assert dropped > 0


def test_reflections_clamp_grazing_incidence():
    # 1e-15 m above the ground over 100 m: the angle rounds to pi/2, which
    # the reflection loss rejects, so it is clamped just below.
    tx, rx = np.array([-5.0, -10.0, 1e-15]), np.array([95.0, -10.0, 1e-15])
    got = GEOM.reflections(tx, rx)
    want = scalar_paths.reflections(SCENE, GEOM, tx, rx)
    ground = len(GEOM.reflector_slabs) - 1
    assert got.ids.tolist() == [k for k, *_ in want] and ground in got.ids.tolist()
    assert got.incidence[got.ids.tolist().index(ground)] == math.pi / 2 - 1e-12
    assert np.array_equal(got.incidence, [angle for *_, angle in want])
    table = path_table(replace(SCENE, anchors=(tuple(tx),)), (0,), rx, GEOM)
    assert np.isfinite(table.losses(DEFAULT_FREQUENCY_LADDER_HZ).snr_db).all()


def test_reflections_drop_window_cutouts():
    # The specular point of the pair in front of a window lands in its
    # cutout; beside it, on the wall.
    facade = [s.name for s in GEOM.surfaces if s.reflective].index("facade_y0")
    window = GEOM.reflections(np.array([2.5, -5.0, 1.8]), np.array([2.5, -3.0, 1.8]))
    wall = GEOM.reflections(np.array([5.0, -5.0, 1.8]), np.array([5.0, -3.0, 1.8]))
    assert facade not in window.ids.tolist()
    assert facade in wall.ids.tolist()


def test_ground_reflects_only_outside_the_footprint():
    # The level-0 slab and the ground share the plane z = 0. Inside the
    # footprint the slab's row is the one reflection there; the slab's
    # inclusive extent owns the footprint's rim; outside it the ground
    # reflects.
    names = [s.name for s in GEOM.surfaces if s.reflective] + ["ground"]
    scene = replace(SCENE, anchors=((15.0, -1.0, 1.0),))
    rx = np.array([15.0, 19.0, 7.5])
    table = path_table(scene, (0,), rx, GEOM)
    rows = np.flatnonzero(table.reflector >= 0)
    assert [names[k] for k in table.reflector[rows]] == ["facade_y20", "slab_z0", "slab_z9"]
    on_slab = rows[1]
    assert table.length_m[on_slab] == 21.73131381210073
    assert table.n_crossings[on_slab].tolist() == [1, 4]
    oracle = [names[k] for k, *_ in scalar_paths.reflections(scene, GEOM, scene.anchors[0], rx)]
    assert "slab_z0" in oracle and "ground" not in oracle
    for tx, rx, where in [((-2.0, 5.0, 1.0), (2.0, 5.0, 1.0), "slab_z0"),  # on the rim x = 0
                          ((5.0, -2.0, 1.0), (5.0, 2.0, 1.0), "slab_z0"),  # on the rim y = 0
                          ((-5.0, 5.0, 1.0), (-3.0, 5.0, 1.0), "ground")]:
        tx, rx = np.array(tx), np.array(rx)
        got = [names[k] for k in GEOM.reflections(tx, rx).ids.tolist()]
        assert where in got and ("ground" in got) == (where == "ground")
        assert [names[k] for k, *_ in scalar_paths.reflections(SCENE, GEOM, tx, rx)] == got


# ---------------------------------------------------------------------------
# Path table columns and the (F, P) loss pass
# ---------------------------------------------------------------------------

def test_group_codes_match_classify():
    groups = set()
    for a, rx in random_pairs(np.random.default_rng(8), 20):
        table = path_table(SCENE, (a,), rx, GEOM)
        for i in range(len(table.length_m)):
            interactions = scalar_paths.row_interactions(table, i)
            assert MpcGroup(int(table.group[i])) is classify_mpc(interactions)
            groups.add(int(table.group[i]))
        rows = np.arange(len(table.length_m))
        mpcs = table.build_mpcs(rows, np.zeros(len(rows)), np.zeros(len(rows)))
        assert [m.interactions for m in mpcs] == [
            scalar_paths.row_interactions(table, i) for i in rows]
    assert groups == {1, 2, 3, 4}


@pytest.mark.parametrize("freqs", [[], (), np.zeros(0)])
def test_losses_reject_no_frequencies(freqs):
    table = path_table(SCENE, (0,), receiver_grid(SCENE)[0], GEOM)
    with pytest.raises(ValueError, match="^freqs_hz is empty$"):
        table.losses(freqs)


def test_snr_is_power_over_one_radio_noise_floor_at_every_frequency():
    # The noise floor is radio-wide: at each of the seven ladder frequencies,
    # every row's SNR is its power minus that one floor, bit for bit.
    radio = SCENE.radio
    table = path_table(SCENE, range(len(SCENE.anchors)), receiver_grid(SCENE)[:2], GEOM)
    losses = table.losses(DEFAULT_FREQUENCY_LADDER_HZ)
    floor = channel.noise_floor_dbm(radio.bandwidth_hz, radio.noise_temperature_k)
    assert losses.snr_db.shape == (7, len(table.length_m))
    assert losses.snr_db.tobytes() == (losses.power_dbm - floor).tobytes()


def test_losses_match_per_row_pdp_at_every_ladder_frequency():
    checked = 0
    for a, rx in random_pairs(np.random.default_rng(13), 12):
        table = path_table(SCENE, (a,), rx, GEOM)
        losses = table.losses(DEFAULT_FREQUENCY_LADDER_HZ)
        assert losses.snr_db.shape == (len(DEFAULT_FREQUENCY_LADDER_HZ), len(table.length_m))
        for fi, f_hz in enumerate(DEFAULT_FREQUENCY_LADDER_HZ):
            want = scalar_paths.pdp(table, f_hz).mpcs
            rows = table.detected_rows(losses.detected[fi])
            assert table.length_m[rows].tolist() == [m.path_length_m for m in want]
            assert np.all(np.abs(losses.snr_db[fi, rows] - [m.snr_db for m in want]) <= 1e-9)
            got = table.pdp(f_hz).mpcs
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert (g.interactions, g.path_length_m, g.tof_s, g.anchor_id, g.group,
                        g.edge_id) == (w.interactions, w.path_length_m, w.tof_s,
                                       w.anchor_id, w.group, w.edge_id)
                assert abs(g.snr_db - w.snr_db) <= 1e-9
                assert abs(g.rx_power_dbm - w.rx_power_dbm) <= 1e-9
            checked += len(got)
    assert checked > 1000


@pytest.mark.parametrize("freqs", [(28e9,), DEFAULT_FREQUENCY_LADDER_HZ], ids=["F1", "F7"])
def test_leg_slab_sums_equal_the_where_cumsum_oracle(freqs):
    # Each leg's slab loss, bit for bit, on every receiver of the trials and
    # ladder grids (4 anchors), on random one-anchor point queries, and on
    # synthetic masks with distinct losses: a leg that crosses nothing, legs
    # that cross 6 surfaces, a table that crosses nothing and an empty one.
    tables = []
    for spacing in (10.0, 6.0):
        scene = build_default_scene(grid_spacing=spacing, receiver_floors=(3,))
        geom = build_scene_geometry(scene)
        tables += [path_table(scene, range(4), rx, geom) for rx in receiver_grid(scene)]
    tables += [path_table(SCENE, (a,), rx, GEOM)
               for a, rx in random_pairs(np.random.default_rng(8), 40)]
    deepest = 0
    for table in tables:
        slab_db = np.array([table.geometry.prepare_frequency(f_hz)[0] for f_hz in freqs])
        crossed = table.crossings.reshape(-1, slab_db.shape[1])
        got = channel._leg_slab_db(crossed, slab_db)
        assert np.array_equal(got, scalar_paths.leg_slab_db(crossed, slab_db))
        deepest = max(deepest, int(table.n_crossings.max()))
    assert deepest == SCENE.limits.max_transmissions

    rng = np.random.default_rng(9)
    n_surfaces = len(GEOM.surfaces)
    slab_db = rng.uniform(0.5, 40.0, (len(freqs), n_surfaces))
    crossed = np.zeros((12, n_surfaces), dtype=bool)
    for leg in range(1, 12):
        crossed[leg, rng.choice(n_surfaces, 6 if leg % 2 else leg % 5, replace=False)] = True
    for mask in (crossed, np.zeros((5, n_surfaces), dtype=bool),
                 np.zeros((0, n_surfaces), dtype=bool)):
        got = channel._leg_slab_db(mask, slab_db)
        assert got.shape == (len(freqs), len(mask))
        assert np.array_equal(got, scalar_paths.leg_slab_db(mask, slab_db))
    assert not channel._leg_slab_db(crossed, slab_db)[:, 0].any()


def test_leg_slab_sums_of_a_large_scene():
    # Surface indices past any narrow integer type still name their own
    # surface's loss.
    rng = np.random.default_rng(70_000)
    slab_db = rng.uniform(0.5, 40.0, (2, 70_000))
    crossed = np.zeros((3, 70_000), dtype=bool)
    crossed[0, [0, 255, 32_768, 69_999]] = True
    crossed[2, rng.choice(69_999, 5, replace=False)] = True
    crossed[2, 69_999] = True
    got = channel._leg_slab_db(crossed, slab_db)
    assert np.array_equal(got, scalar_paths.leg_slab_db(crossed, slab_db))


_TABLE_COLUMNS = ("receiver", "anchor", "length_m", "tof_s", "crossings", "kind",
                  "n_crossings", "group", "edge_id", "reflector", "incidence_rad")


@pytest.mark.parametrize("grid_spacing, freqs", [
    (6.0, (28e9,)), (10.0, DEFAULT_FREQUENCY_LADDER_HZ)], ids=["trials_grid", "ladder_grid"])
def test_receiver_table_equals_the_one_anchor_tables_concatenated(grid_spacing, freqs):
    # The oracle of the per-receiver table: every column, and the losses of
    # every row, bit for bit equal to the one-anchor tables' concatenated.
    scene = build_default_scene(grid_spacing=grid_spacing, receiver_floors=(3,))
    geom = build_scene_geometry(scene)
    anchors = range(len(scene.anchors))
    for rx in receiver_grid(scene):
        table = path_table(scene, anchors, rx, geom)
        pairs = [path_table(scene, (a,), rx, geom) for a in anchors]
        assert table.anchor_ids == tuple(anchors)
        for name in _TABLE_COLUMNS:
            got = getattr(table, name)
            want = np.concatenate([getattr(pair, name) for pair in pairs])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        for got, want in zip(table.losses(freqs),
                             zip(*(pair.losses(freqs) for pair in pairs))):
            assert got.tobytes() == np.concatenate(want, axis=1).tobytes()


def assert_block_equals_concatenation(block, tables, freqs):
    """Every column and the losses of ``block`` bit for bit equal to the
    one-receiver ``tables`` concatenated, the receiver column offset by each
    table's position."""
    assert np.array_equal(block.receivers, np.concatenate([t.receivers for t in tables]))
    for name in _TABLE_COLUMNS:
        got = getattr(block, name)
        want = np.concatenate([t.receiver + n if name == "receiver" else getattr(t, name)
                               for n, t in enumerate(tables)])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    for got, want in zip(block.losses(freqs), zip(*(t.losses(freqs) for t in tables))):
        assert got.tobytes() == np.concatenate(want, axis=1).tobytes()


@pytest.mark.parametrize("grid_spacing, freqs", [
    (6.0, (28e9,)), (10.0, DEFAULT_FREQUENCY_LADDER_HZ)], ids=["trials_grid", "ladder_grid"])
def test_block_table_equals_its_one_receiver_tables_concatenated(grid_spacing, freqs):
    # The oracle of the block table: blocks of one, two and seven receivers
    # and the whole grid, every column and the losses of every row bit for
    # bit equal to the receivers' own tables concatenated.
    scene = build_default_scene(grid_spacing=grid_spacing, receiver_floors=(3,))
    geom = build_scene_geometry(scene)
    anchors = range(len(scene.anchors))
    receivers = receiver_grid(scene)
    singles = [path_table(scene, anchors, rx, geom) for rx in receivers]
    assert all(len(t.receivers) == 1 and not t.receiver.any() for t in singles)
    for size in (1, 2, 7, len(receivers)):
        for first in range(0, len(receivers), size):
            block = path_table(scene, anchors, receivers[first:first + size], geom)
            assert block.anchor_ids == tuple(anchors)
            assert_block_equals_concatenation(block, singles[first:first + size], freqs)


POINT_TABLES = Path(__file__).resolve().parent / "data" / "point_tables_golden.json"


def test_point_tables_equal_the_recorded_tables():
    # One-receiver, one-anchor tables of 40 seeded point queries, every
    # column bit for bit as recorded before tables took blocks of receivers
    # (tests/data/record_point_tables.py).
    doc = json.loads(POINT_TABLES.read_text(encoding="utf-8"))
    assert len(doc["tables"]) == 40
    for want in doc["tables"]:
        table = path_table(SCENE, (want["anchor"],), Point3(*want["rx"]), GEOM)
        for name, (dtype, shape, digest) in want["columns"].items():
            column = np.ascontiguousarray(getattr(table, name))
            assert (column.dtype.str, list(column.shape)) == (dtype, shape), name
            assert hashlib.sha256(column.tobytes()).hexdigest() == digest, name


def test_anchor_terms_do_not_follow_a_caller_array_changed_in_place():
    # The kept anchor terms hold their own copy of the anchors: changing the
    # array of an earlier call must not change the rows of a later call with
    # the same anchors in another array.
    tx = np.array(SCENE.anchors, dtype=float)
    rx = np.array([[9.0, 5.0, 7.5], [21.0, 14.0, 10.5]])
    fresh = build_scene_geometry(SCENE)
    want = fresh.reflections(tx, rx), fresh.diffractions(tx, rx)
    geom = build_scene_geometry(SCENE)
    moved = tx.copy()
    geom.reflections(moved, rx)
    geom.diffractions(moved, rx)
    moved += 1.0
    for got, expected in zip((geom.reflections(tx, rx), geom.diffractions(tx, rx)), want):
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
    # The anchor -> edge end crossings kept with the terms, too.
    assert (geom._anchor_terms(tx).end_crossings.tobytes()
            == fresh._anchor_terms(tx).end_crossings.tobytes())


def test_a_table_after_the_anchor_memo_is_emptied_equals_a_fresh_one():
    # The memo is emptied when it holds _ANCHOR_SETS anchor sets; a table
    # built before that, and one built after it from recomputed terms, both
    # equal a table built on a fresh geometry, column by column.
    rx = np.array([[9.0, 5.0, 7.5], [21.0, 14.0, 10.5]])
    want = path_table(SCENE, range(4), rx, build_scene_geometry(SCENE))
    geom = build_scene_geometry(SCENE)
    before = path_table(SCENE, range(4), rx, geom)
    rng = np.random.default_rng(3)
    for _ in range(channel._ANCHOR_SETS):
        geom.diffractions(rng.uniform(-5.0, 35.0, (2, 3)), rx)
    assert len(geom._anchor_cache) == 1
    assert np.array(SCENE.anchors, dtype=float).tobytes() not in geom._anchor_cache
    for table in (before, path_table(SCENE, range(4), rx, geom)):
        for name in _TABLE_COLUMNS:
            assert getattr(table, name).tobytes() == getattr(want, name).tobytes(), name


def row_points(geom, tx, rx) -> dict:
    """The interaction point of every candidate row of one (anchor,
    receiver) pair, by (kind, reflector, edge): the receiver for the direct
    segment, the specular point of each reflector, the diffraction point of
    each edge."""
    points = {(0, -1, -1): rx}
    refl = geom.reflections(tx, rx)
    points.update(((1, k, -1), p) for k, p in zip(refl.ids.tolist(), refl.point))
    diff = geom.diffractions(tx, rx)
    points.update(((2, -1, e), p) for e, p in zip(diff.ids.tolist(), diff.point))
    return points


def assert_legs_are_each_rows_own(table, geom) -> None:
    """Both legs of every row of ``table`` equal ``geom.crossings`` on that
    row's own legs, tested as they propagate: anchor to interaction point,
    interaction point to receiver."""
    for n, rx in enumerate(table.receivers):
        for a in table.anchor_ids:
            tx = np.array(table.scene.anchors[a], dtype=float)
            rows = np.flatnonzero((table.receiver == n) & (table.anchor == a))
            points = row_points(geom, tx, rx)
            p = np.array([points[key] for key in zip(table.kind[rows].tolist(),
                                                     table.reflector[rows].tolist(),
                                                     table.edge_id[rows].tolist())])
            assert np.array_equal(table.crossings[rows, 0],
                                  geom.crossings(np.tile(tx, (len(p), 1)), p))
            assert np.array_equal(table.crossings[rows, 1],
                                  geom.crossings(p, np.tile(rx, (len(p), 1))))


def test_block_legs_equal_each_rows_own_crossing_tests():
    # Eight receivers spread over the default grid with all anchors: most
    # rows are diffractions clamped to an edge end, whose legs the table
    # shares between receivers and between anchors.
    geom = build_scene_geometry(SCENE)
    grid = receiver_grid(SCENE)
    receivers = grid[::len(grid) // 8][:8]
    legs = []
    crossings = geom.crossings
    geom.crossings = lambda p0, p1: legs.append(len(p0)) or crossings(p0, p1)
    table = path_table(SCENE, range(len(SCENE.anchors)), receivers, geom)
    del geom.crossings
    # The anchor set's legs to the edge ends, then far fewer legs than the
    # two of each candidate row.
    anchors = np.array(SCENE.anchors, dtype=float)
    candidates = (len(receivers) * len(anchors) + len(geom.reflections(anchors, receivers).ids)
                  + len(geom.diffractions(anchors, receivers).ids))
    assert legs[0] == len(anchors) * len(geom.edge_ends)
    assert sum(legs[1:]) < 0.3 * 2 * candidates
    assert_legs_are_each_rows_own(table, geom)


def test_point_table_legs_equal_each_rows_own_crossing_tests():
    rng = np.random.default_rng(23)
    for anchor, rx in random_pairs(rng, 40):
        assert_legs_are_each_rows_own(path_table(SCENE, (anchor,), rx, GEOM), GEOM)


@pytest.mark.parametrize("full_scale, n_receivers", [(False, None), (True, 400)],
                         ids=["default", "full_scale_sample"])
def test_clamped_diffraction_points_are_the_edge_ends(full_scale, n_receivers):
    # A row clamped to an edge end shares that end's legs, which are tested
    # from the edge end table: its diffraction point must be the table's
    # entry bit for bit. Every row's point, clamped or not, is the edge
    # point at its lam, bit for bit.
    scene = build_default_scene(full_scale=full_scale)
    geom = build_scene_geometry(scene)
    receivers = receiver_grid(scene)
    if n_receivers is not None:
        receivers = receivers[np.random.default_rng(29).choice(len(receivers), n_receivers,
                                                               replace=False)]
    d = geom.diffractions(np.array(scene.anchors, dtype=float), receivers)
    rows = d.endpoint.nonzero()[0]
    assert len(rows) > 0.5 * len(d.ids)
    assert np.all((d.lam[rows] == 0.0) | (d.lam[rows] == 1.0))
    end = 2 * d.ids[rows] + (d.lam[rows] == 1.0)
    assert d.point[rows].tobytes() == geom.edge_ends[end].tobytes()
    assert d.point.tobytes() == geom.edge_table.points(d.ids, d.lam).tobytes()


def test_pdp_needs_a_one_anchor_table():
    rx = Point3(9.0, 5.0, 7.5)
    with pytest.raises(ValueError, match="^a PDP has one anchor, the table has 4$"):
        path_table(SCENE, range(4), rx, GEOM).pdp(28e9)
    with pytest.raises(ValueError, match="^a PDP has one receiver, the table has 2$"):
        path_table(SCENE, (2,), [rx.as_array(), rx.as_array()], GEOM).pdp(28e9)
    pdp = path_table(SCENE, (2,), rx, GEOM).pdp(28e9)
    assert pdp.anchor_id == 2 and pdp.rx == rx


def test_swapping_tx_and_rx_keeps_lengths_and_swaps_the_legs():
    # Reciprocity: the table from rx to tx has the same rows as the one from
    # tx to rx, with lengths within 1e-12 relative and the crossing sets of
    # the two legs swapped (the direct segment has one leg either way). The
    # transmitters are drawn at random in front of either facade: a leg
    # through the boundary line of a surface may cross it one way and not
    # the other. Anchor 0 of the default scene has such legs, to the floor-5
    # top edges of the far facade, which pass where slab z = 9 meets facade
    # y = 0.
    rng = np.random.default_rng(21)
    checked = 0
    for _, rx in random_pairs(rng, 30):
        tx = rng.uniform([-5.0, -25.0, 1.0], [35.0, -5.0, 8.0])
        if rng.random() < 0.5:
            tx[1] += 70.0
        forward = path_table(replace(SCENE, anchors=(tuple(tx),)), (0,), rx, GEOM)
        back = path_table(replace(SCENE, anchors=(tuple(rx.as_array()),)), (0,), tx, GEOM)
        for name in ("kind", "edge_id", "reflector"):
            assert np.array_equal(getattr(back, name), getattr(forward, name))
        np.testing.assert_allclose(back.length_m, forward.length_m, rtol=1e-12, atol=0)
        direct = forward.kind == 0
        assert np.array_equal(back.crossings[direct], forward.crossings[direct])
        assert np.array_equal(back.crossings[~direct], forward.crossings[~direct][:, ::-1])
        checked += int((~direct).sum())
    assert checked > 1000


# ---------------------------------------------------------------------------
# Top-k and FAP
# ---------------------------------------------------------------------------

def tied_pdp(rng, n):
    """A PDP whose ToFs and SNRs are drawn from a few values, so both tie."""
    lengths = rng.choice([10.0, 12.0, 15.0, 20.0], size=n)
    snrs = rng.choice([-5.0, 3.0, 10.0, 18.0, 30.0], size=n)
    mpcs = []
    for length, snr in zip(lengths.tolist(), snrs.tolist()):
        interactions = (("D",), ("T",), ("R", "T"), ("T", "D"))[int(rng.integers(4))]
        mpcs.append(Mpc(interactions, length, length / SPEED_OF_LIGHT, snr - 90.0, snr, 0,
                        classify_mpc(interactions), 7 if interactions == ("D",) else None))
    mpcs.sort(key=lambda m: m.tof_s)
    return Pdp(mpcs, Point3(0.0, 0.0, 0.0), anchor_id=0)


def object_rows(pdp, k, t_fap):
    """The FAP and the first kept MPC3 component (or None) of the object
    bodies."""
    kept = scalar_paths.truncate_top_k(pdp, k)
    fap = scalar_paths.select_fap(kept, t_fap).chosen
    return fap, next((m for m in kept.mpcs if m.group is MpcGroup.MPC3), None)


def stacked_columns(pdps):
    """(N, P) columns of N PDPs, the shorter ones padded with undetected rows."""
    shape = (len(pdps), max(len(pdp.mpcs) for pdp in pdps))
    tof, snr = np.full(shape, np.inf), np.full(shape, -np.inf)
    detected, mpc3 = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    for i, pdp in enumerate(pdps):
        n = len(pdp.mpcs)
        tof[i, :n] = [m.tof_s for m in pdp.mpcs]
        snr[i, :n] = [m.snr_db for m in pdp.mpcs]
        detected[i, :n] = True
        mpc3[i, :n] = [m.group is MpcGroup.MPC3 for m in pdp.mpcs]
    return tof, snr, detected, mpc3


@pytest.mark.parametrize("k", [1, 3, 8, 25])
def test_top_k_and_fap_match_object_bodies_with_ties(k):
    rng = np.random.default_rng(k)
    by_t_fap = {0.0: [], 10.0: [], 20.0: []}
    for _ in range(200):
        pdp = tied_pdp(rng, int(rng.integers(1, 40)))
        t_fap = float(rng.choice([0.0, 10.0, 20.0]))
        want = scalar_paths.truncate_top_k(pdp, k)
        got = truncate_top_k(pdp, k)
        assert len(got.mpcs) == len(want.mpcs)
        assert all(g is w for g, w in zip(got.mpcs, want.mpcs))
        want_fap = scalar_paths.select_fap(want, t_fap)
        got_fap = select_fap(got, t_fap)
        assert got_fap.chosen is want_fap.chosen
        assert (got_fap.s_max_db, got_fap.threshold_db) == (want_fap.s_max_db,
                                                            want_fap.threshold_db)
        by_t_fap[t_fap].append(pdp)

    # The array kernel on the PDPs of each threshold stacked.
    for t_fap, pdps in by_t_fap.items():
        rows = fap_rows(*stacked_columns(pdps), k, t_fap)
        assert not rows.no_detection.any()
        for pdp, fap, mpc3 in zip(pdps, rows.fap.tolist(), rows.mpc3.tolist()):
            want_fap, want_mpc3 = object_rows(pdp, k, t_fap)
            assert pdp.mpcs[fap] is want_fap
            assert (pdp.mpcs[mpc3] if mpc3 >= 0 else None) is want_mpc3


@pytest.mark.parametrize("k", [1, 3, 8, 25])
def test_fap_rows_match_object_bodies_at_each_frequency_of_a_tied_table(k):
    # One table of paths whose ToFs and SNRs tie, at six frequencies with
    # their own SNRs and detections: one detects nothing and one at most k
    # rows. A fifth of the tables have no MPC3 row.
    rng = np.random.default_rng(100 + k)
    for _ in range(150):
        n = int(rng.integers(1, 40))
        tof = np.sort(rng.choice([10.0, 12.0, 15.0, 20.0], size=n)) / SPEED_OF_LIGHT
        kinds = (("D",), ("T",), ("R", "T"), ("T", "D"))[:3 if rng.random() < 0.2 else 4]
        interactions = [kinds[int(i)] for i in rng.integers(len(kinds), size=n)]
        snr = rng.choice([-5.0, 3.0, 10.0, 18.0, 30.0], size=(6, n))
        detected = rng.random((6, n)) < rng.uniform(0.3, 1.0, (6, 1))
        detected[0] = False
        detected[1, np.flatnonzero(detected[1])[k:]] = False
        mpc3 = np.array([classify_mpc(i) is MpcGroup.MPC3 for i in interactions])
        t_fap = float(rng.choice([0.0, 10.0, 20.0]))
        rows = fap_rows(tof, snr, detected, mpc3, k, t_fap)
        for f in range(6):
            positions = np.flatnonzero(detected[f]).tolist()
            if not positions:
                assert rows.no_detection[f] and rows.fap[f] == rows.mpc3[f] == -1
                continue
            mpcs = [Mpc(interactions[i], tof[i] * SPEED_OF_LIGHT, tof[i], snr[f, i] - 90.0,
                        snr[f, i], 0, classify_mpc(interactions[i]), 7 if mpc3[i] else None)
                    for i in positions]
            want_fap, want_mpc3 = object_rows(Pdp(mpcs, Point3(0.0, 0.0, 0.0), 0), k, t_fap)
            assert not rows.no_detection[f]
            assert mpcs[positions.index(rows.fap[f])] is want_fap
            assert (mpcs[positions.index(rows.mpc3[f])] if rows.mpc3[f] >= 0 else None) \
                is want_mpc3


def test_receiver_faps_match_object_bodies_on_every_ladder_cell():
    # Every (anchor, receiver, frequency) cell of the 6 m grid's ladder
    # sweep: the PDP the sweep's losses give, through the object bodies.
    scene = build_default_scene(grid_spacing=6.0, receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ)
    geom = build_scene_geometry(scene)
    nearest = _nearest_edges(geom, np.asarray(scene.anchors, dtype=float))
    receivers = receiver_grid(scene)
    block = path_table(scene, range(len(scene.anchors)), receivers, geom)
    losses = block.losses(cfg.frequencies_hz)
    cells = _receiver_faps(block, losses, cfg, nearest, 0)
    # Every cell is detected, and the cells come receiver by receiver.
    n_freqs = len(cfg.frequencies_hz)
    assert cells.receiver.tolist() == [n for n in range(len(receivers)) for _ in range(n_freqs)]
    assert cells.freq.tolist() == list(range(n_freqs)) * len(receivers)
    assert cells.group.shape == (len(receivers) * n_freqs, len(scene.anchors))
    assert np.array_equal(_receiver_faps(block, losses, cfg, nearest, 7).receiver,
                          cells.receiver + 7)
    checked = 0
    for n, rx in enumerate(receivers):
        for a in range(len(scene.anchors)):
            pair = path_table(scene, (a,), rx, geom)
            power, snr, detected = pair.losses(cfg.frequencies_hz)
            for fi in range(n_freqs):
                rows = pair.detected_rows(detected[fi])
                assert rows.size
                pdp = Pdp(pair.build_mpcs(rows, power[fi, rows], snr[fi, rows]), rx, a)
                assert_cell_is_object_rows(cells, n * n_freqs + fi, a, pdp, cfg, nearest)
                checked += 1
    assert checked == 20 * 4 * 7


def assert_cell_is_object_rows(cells, c, a, pdp, cfg, nearest):
    """Cell ``c``'s anchor ``a`` entries are those of the object bodies on
    ``pdp``."""
    fap, mpc3 = object_rows(pdp, cfg.top_k, cfg.t_fap_db)
    assert (cells.group[c, a], cells.snr_db[c, a], cells.length_m[c, a]) \
        == (fap.group.value, fap.snr_db, fap.path_length_m)
    if mpc3 is None:
        assert cells.mpc3_edge[c, a] == -1
        assert math.isnan(cells.mpc3_snr_db[c, a])
    else:
        assert (cells.mpc3_edge[c, a], cells.mpc3_snr_db[c, a]) == (mpc3.edge_id, mpc3.snr_db)
    model_edge = fap.edge_id if fap.group is MpcGroup.MPC3 \
        else mpc3.edge_id if mpc3 is not None else nearest[a]
    assert cells.model_edge[c, a] == model_edge


def test_receiver_faps_keep_table_order_among_tied_times_of_flight():
    # Times of flight rounded to 1 ns tie rows within a PDP. Each pair's
    # PDP order is then its rows stably sorted by time of flight, ties in
    # table order, and the cells are the object bodies' on that PDP.
    scene = build_default_scene(grid_spacing=6.0, receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ)
    geom = build_scene_geometry(scene)
    nearest = _nearest_edges(geom, np.asarray(scene.anchors, dtype=float))
    block = path_table(scene, range(len(scene.anchors)), receiver_grid(scene), geom)
    tied = replace(block, tof_s=np.round(block.tof_s, 9))
    losses = tied.losses(cfg.frequencies_hz)
    cells = _receiver_faps(tied, losses, cfg, nearest, 0)
    n_freqs, ties = len(cfg.frequencies_hz), 0
    for n, rx in enumerate(tied.receivers):
        for a in range(len(scene.anchors)):
            pair_rows = np.flatnonzero((tied.receiver == n) & (tied.anchor == a))
            ties += len(pair_rows) - len(np.unique(tied.tof_s[pair_rows]))
            for fi in range(n_freqs):
                rows = pair_rows[losses.detected[fi, pair_rows]]
                rows = rows[np.argsort(tied.tof_s[rows], kind="stable")]
                pdp = Pdp(tied.build_mpcs(rows, losses.power_dbm[fi, rows],
                                          losses.snr_db[fi, rows]), rx, a)
                assert_cell_is_object_rows(cells, n * n_freqs + fi, a, pdp, cfg, nearest)
    assert ties > 0.3 * len(tied.tof_s)


def test_run_sweep_builds_no_mpc(monkeypatch):
    def no_mpc(*args, **kwargs):
        raise AssertionError("run_sweep built an Mpc")

    monkeypatch.setattr(channel.Mpc, "__init__", no_mpc)
    scene = build_default_scene(grid_spacing=10.0, receiver_floors=(3,))
    report = run_sweep(SweepConfig(scene=scene, frequencies_hz=(3.5e9, 28e9), seed=0))
    assert sum(report.frequencies[0].p_fap_pct.values()) == pytest.approx(100.0)
