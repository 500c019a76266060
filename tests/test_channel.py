"""Multipath synthesis, classification, and dataset round-trip tests."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import scalar_edge
from conftest import edges_of, write_dataset
from diffpos.constants import BOLTZMANN, SPEED_OF_LIGHT
from diffpos.channel import (
    BandPlan,
    DatasetError,
    InteriorWall,
    Mpc,
    MpcGroup,
    MpcRecord,
    PathLimits,
    Pdp,
    RadioConfig,
    SceneConfig,
    SceneGeometry,
    WindowRect,
    build_scene_geometry,
    classify_mpc,
    enumerate_mpcs,
    ingest_dataset,
    noise_floor_dbm,
    parse_interaction_string,
    path_table,
    receiver_grid,
    truncate_top_k,
    _grid_axis,
    _grid_size,
)
from diffpos.cli import main as cli_main
from diffpos.experiments import DEFAULT_FREQUENCY_LADDER_HZ, build_default_scene
from diffpos.geometry import Point3, euclidean_distance, _on_edge_line
from diffpos.materials import DiffractionLossModel, default_material_library

RNG = np.random.default_rng(42)
LIB = default_material_library()


def make_scene(**overrides) -> SceneConfig:
    """Small single-window test building with two interior partitions."""
    defaults = dict(
        footprint_x=10.0,
        footprint_y=20.0,
        floor_count=2,
        floor_height=3.0,
        exterior_slab=LIB.slab("exterior_concrete"),
        interior_slab=LIB.slab("interior_drywall"),
        windows=(WindowRect(axis="y", coord=0.0, u_lo=4.0, u_hi=6.0, z_lo=1.0, z_hi=2.5),),
        interior_walls=(
            InteriorWall(axis="y", coord=8.0, u_lo=0.0, u_hi=10.0, z_lo=0.0, z_hi=6.0),
            InteriorWall(axis="y", coord=12.0, u_lo=0.0, u_hi=10.0, z_lo=0.0, z_hi=6.0),
        ),
        anchors=((5.0, -15.0, 1.8),),
        receiver_floors=(1,),
        receiver_spacing=2.0,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("string,group", [
    ("Tx-Rx", MpcGroup.MPC1),
    ("Tx-T-T-Rx", MpcGroup.MPC1),
    ("Tx-R-Rx", MpcGroup.MPC2),
    ("Tx-R-T-T-Rx", MpcGroup.MPC2),
    ("Tx-D-Rx", MpcGroup.MPC3),
    ("Tx-D-T-Rx", MpcGroup.MPC3),
    ("Tx-R-D-Rx", MpcGroup.MPC4),
    ("Tx-DS-Rx", MpcGroup.MPC4),
    ("Tx-T-D-Rx", MpcGroup.MPC4),
    ("Tx-D-D-Rx", MpcGroup.MPC4),
    ("Tx-R-R-Rx", MpcGroup.MPC4),
    ("Tx-D-T-DS-Rx", MpcGroup.MPC4),
])
def test_classify_table(string, group):
    assert classify_mpc(string) is group


def test_classify_rejects_unknown_symbol():
    with pytest.raises(ValueError):
        classify_mpc("Tx-Q-Rx")
    with pytest.raises(ValueError):
        classify_mpc(("T", "Z"))


def test_classify_total_and_append_t_stable():
    # Every random interaction tuple maps to exactly one group, and appending
    # transmissions never changes the group of an MPC1/2/3 path.
    symbols = np.array(["T", "R", "D", "DS"])
    for _ in range(500):
        n = int(RNG.integers(0, 6))
        seq = tuple(symbols[RNG.integers(0, 4, n)])
        group = classify_mpc(seq)
        assert group in MpcGroup
        if group in (MpcGroup.MPC1, MpcGroup.MPC2, MpcGroup.MPC3):
            assert classify_mpc(seq + ("T", "T")) is group


def test_interaction_string_round_trip():
    for seq in ((), ("T",), ("D", "T"), ("R", "T", "T"), ("DS",)):
        assert parse_interaction_string("-".join(("Tx", *seq, "Rx"))) == seq
    with pytest.raises(ValueError):
        parse_interaction_string("D-T")


# ---------------------------------------------------------------------------
# SNR
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("temperature", [0.0, -5.0, float("nan")])
def test_noise_floor_rejects_non_positive_temperature(temperature):
    with pytest.raises(ValueError, match="noise temperature must be positive"):
        noise_floor_dbm(400e6, temperature)


def test_noise_floor_and_snr():
    # Oracle: 10*log10(k*290*400e6/1mW) = -87.9546 dBm.
    floor = noise_floor_dbm(400e6, 290.0)
    expect = 10 * math.log10(BOLTZMANN * 290.0 * 400e6 / 1e-3)
    assert floor == pytest.approx(expect, rel=1e-15)
    assert floor == pytest.approx(-87.95458728094849, abs=1e-9)
    assert -60.0 - floor == pytest.approx(27.954587280948488, abs=1e-9)


def test_snr_zero_at_noise_floor():
    # Every MPC's SNR is its power over the noise floor of the scene's band,
    # so an MPC received at the floor has 0 dB.
    scene = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
    radio = scene.radio
    floor = noise_floor_dbm(radio.bandwidth_hz, radio.noise_temperature_k)
    pdp = enumerate_mpcs(scene, 0, receiver_grid(scene)[0], 3.5e9)
    assert len(pdp) > 0
    for m in pdp.mpcs:
        assert m.snr_db == pytest.approx(m.rx_power_dbm - floor, abs=1e-12)


def test_snr_quadrupled_bandwidth():
    delta = noise_floor_dbm(4 * 400e6) - noise_floor_dbm(400e6)
    assert delta == pytest.approx(10 * math.log10(4.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def mk_mpc(length: float, snr: float, interactions=("T",), anchor_id=0) -> Mpc:
    return Mpc(
        interactions=tuple(interactions),
        path_length_m=length,
        tof_s=length / SPEED_OF_LIGHT,
        rx_power_dbm=snr - 87.95,
        snr_db=snr,
        anchor_id=anchor_id,
        group=classify_mpc(interactions),
    )


def mk_pdp(mpcs) -> Pdp:
    return Pdp(sorted(mpcs, key=lambda m: m.tof_s), Point3(0, 0, 0), anchor_id=0)


def test_truncate_keeps_strongest():
    mpcs = [mk_mpc(10.0 + i, snr=float(i)) for i in range(30)]
    pdp = mk_pdp(mpcs)
    out = truncate_top_k(pdp, 25)
    assert len(out) == 25
    kept = {m.snr_db for m in out.mpcs}
    dropped = {m.snr_db for m in pdp.mpcs} - kept
    assert min(kept) >= max(dropped)
    tofs = [m.tof_s for m in out.mpcs]
    assert tofs == sorted(tofs)


def test_truncate_short_pdp_unchanged():
    pdp = mk_pdp([mk_mpc(10.0 + i, snr=float(i)) for i in range(10)])
    assert truncate_top_k(pdp, 25) is pdp


def test_truncate_matches_bruteforce():
    for _ in range(50):
        n = int(RNG.integers(1, 60))
        mpcs = [mk_mpc(float(RNG.uniform(5, 100)), float(RNG.uniform(-10, 40)))
                for _ in range(n)]
        pdp = mk_pdp(mpcs)
        k = int(RNG.integers(1, 30))
        out = truncate_top_k(pdp, k)
        expect = sorted(sorted(pdp.mpcs, key=lambda m: m.snr_db)[-min(k, n):],
                        key=lambda m: m.tof_s)
        assert [m.snr_db for m in out.mpcs] == [m.snr_db for m in expect]


def test_truncate_rejects_bad_k():
    # Refused at the boundary, as SweepConfig refuses such a top_k.
    pdp = mk_pdp([mk_mpc(10.0 + i, snr=float(i)) for i in range(5)])
    for k in (0, -1, 2.5, 2.0, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match="^k must be an integer >= 1, got "):
            truncate_top_k(pdp, k)


@pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)])
def test_truncate_takes_numpy_integer_k(k):
    pdp = mk_pdp([mk_mpc(10.0 + i, snr=float(i)) for i in range(5)])
    assert [m.snr_db for m in truncate_top_k(pdp, k).mpcs] == [3.0, 4.0]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_two_interior_walls_single_transmission_path():
    # Indoor-to-indoor segment crossing exactly two drywall partitions, with
    # reflections and windows disabled: a single Tx-T-T-Rx component.
    scene = make_scene(
        windows=(),
        anchors=((5.0, 2.0, 1.5),),
        limits=PathLimits(max_reflections=0, max_diffractions=0),
        include_ground=False,
    )
    pdp = enumerate_mpcs(scene, 0, Point3(5.0, 18.0, 1.5), 3.5e9)
    assert len(pdp) == 1
    only = pdp.mpcs[0]
    assert only.interactions == ("T", "T")
    assert only.group is MpcGroup.MPC1
    assert only.path_length_m == pytest.approx(16.0, rel=1e-12)


def test_enumerate_opaque_walls_leaves_only_diffraction():
    metal = LIB.material("metal")
    from diffpos.materials import SlabLayer, SlabSpec
    opaque = SlabSpec("opaque", (SlabLayer(metal, 0.3),))
    scene = make_scene(
        exterior_slab=opaque,
        interior_slab=opaque,
        interior_walls=(),
        limits=PathLimits(max_reflections=0),
        include_ground=False,
    )
    # Receiver in the geometric shadow: the direct segment hits metal.
    pdp = enumerate_mpcs(scene, 0, Point3(8.0, 5.0, 1.5), 10e9)
    assert len(pdp) > 0
    assert all(m.group is MpcGroup.MPC3 for m in pdp.mpcs)


def test_enumerate_path_lengths_dominate_euclidean_and_sorted():
    scene = make_scene()
    rx = Point3(5.0, 10.0, 1.5)
    anchor = np.asarray(scene.anchors[0])
    for f in (0.7e9, 3.5e9, 28e9):
        pdp = enumerate_mpcs(scene, 0, rx, f)
        assert len(pdp) > 0
        direct = euclidean_distance(anchor, rx.as_array())
        tofs = [m.tof_s for m in pdp.mpcs]
        assert tofs == sorted(tofs)
        for m in pdp.mpcs:
            assert m.path_length_m >= direct - 1e-12
            assert m.tof_s == pytest.approx(m.path_length_m / SPEED_OF_LIGHT, rel=1e-12)
            if m.path_length_m > direct + 1e-9:
                assert m.interactions != ()


def test_enumerate_line_of_sight_through_window():
    # Receiver aligned with the window opening: the direct segment enters
    # through the cutout and stays unobstructed.
    scene = make_scene(anchors=((5.0, -15.0, 1.75),), interior_walls=())
    pdp = enumerate_mpcs(scene, 0, Point3(5.0, 1.0, 1.75), 3.5e9)
    los = [m for m in pdp.mpcs if m.interactions == ()]
    assert len(los) == 1
    assert los[0].group is MpcGroup.MPC1


def test_enumerate_diffraction_beats_transmission_at_high_frequency():
    # The dB gap between the window-diffraction path and the through-wall
    # path grows with frequency for the default materials. Receiver off the
    # window axis so the direct segment crosses concrete.
    scene = make_scene(interior_walls=())
    rx = Point3(8.0, 5.0, 1.5)
    gaps = []
    for f in (3.5e9, 10e9, 28e9):
        pdp = enumerate_mpcs(scene, 0, rx, f)
        direct = [m for m in pdp.mpcs if m.group is MpcGroup.MPC1]
        diffr = [m for m in pdp.mpcs if m.group is MpcGroup.MPC3]
        assert diffr, f"no diffraction path at {f}"
        best_diff = max(m.snr_db for m in diffr)
        best_direct = max(m.snr_db for m in direct) if direct else -math.inf
        gaps.append(best_diff - best_direct)
    assert gaps == sorted(gaps)
    assert gaps[-1] > 0


def test_receiver_grid_counts():
    scene = make_scene(receiver_floors=(1, 2), receiver_spacing=2.0, receiver_margin=1.0)
    grid = receiver_grid(scene)
    xs, ys = np.arange(1.0, 9.0 + 1e-9, 2.0), np.arange(1.0, 19.0 + 1e-9, 2.0)
    per_floor = len(xs) * len(ys)
    assert len(grid) == 2 * per_floor
    assert len({tuple(p) for p in grid.tolist()}) == len(grid)
    assert grid.dtype == np.float64 and grid.shape == (2 * per_floor, 3)
    # Floor by floor, each row by row in y, each point by point in x.
    zs = [scene.floor_base(floor) + scene.receiver_height for floor in (1, 2)]
    assert grid.tolist() == [[x, y, z] for z in zs for y in ys.tolist() for x in xs.tolist()]


def test_scene_invariants():
    with pytest.raises(ValueError):
        make_scene(receiver_spacing=0.0)
    with pytest.raises(ValueError):
        make_scene(receiver_floors=(5,))
    with pytest.raises(ValueError):
        PathLimits(max_transmissions=-1)
    with pytest.raises(ValueError):
        WindowRect(axis="y", coord=0.0, u_lo=2.0, u_hi=1.0, z_lo=0.0, z_hi=1.0)
    # An interior wall keeps the rectangle rules of a window.
    with pytest.raises(ValueError, match="^InteriorWall.axis must be 'x' or 'y', got 'z'$"):
        InteriorWall(axis="z", coord=8.0, u_lo=0.0, u_hi=10.0, z_lo=0.0, z_hi=6.0)
    with pytest.raises(ValueError, match=r"^InteriorWall\(.*\) is empty"):
        InteriorWall(axis="y", coord=8.0, u_lo=0.0, u_hi=10.0, z_lo=6.0, z_hi=6.0)


@pytest.mark.parametrize("overrides, message", [
    ({"windows": (WindowRect("y", 5.0, 4.0, 6.0, 1.0, 2.5),)}, "on no facade"),
    ({"windows": (WindowRect("y", 0.0, 9.0, 11.0, 1.0, 2.5),)}, "extends past its facade"),
    ({"windows": (WindowRect("x", 10.0, 4.0, 6.0, 5.0, 6.5),)}, "extends past its facade"),
    ({"anchors": ((math.nan, -15.0, 1.8),)},
     r"^SceneConfig.anchors\[0\]\[0\] must lie in \[-1e\+06, 1e\+06\], got nan$"),
    ({"anchors": ((5.0, -math.inf, 1.8),)},
     r"^SceneConfig.anchors\[0\]\[1\] must lie in \[-1e\+06, 1e\+06\], got -inf$"),
    ({"receiver_margin": 6.0}, "empty receiver grid"),
    ({"receiver_floors": ()}, "empty receiver grid"),
    ({"receiver_margin": -4.0}, r"^SceneConfig.receiver_margin must lie in \(0, inf\), got -4.0$"),
    ({"receiver_margin": 0.0}, r"^SceneConfig.receiver_margin must lie in \(0, inf\), got 0.0$"),
    ({"receiver_height": 4.5}, r"receiver_height must lie in \(0, 3\) m, got 4.5 m"),
    ({"receiver_height": 3.0}, r"receiver_height must lie in \(0, 3\) m, got 3 m"),
    ({"receiver_height": 0.0}, r"^SceneConfig.receiver_height must lie in \(0, inf\), got 0.0$"),
    ({"receiver_height": -1.0},
     r"^SceneConfig.receiver_height must lie in \(0, inf\), got -1.0$"),
    ({"interior_walls": (InteriorWall("y", 25.0, 0.0, 10.0, 0.0, 6.0),)},
     r"^interior_walls\[0\] extends past its facade: y must lie in \[0, 20\] m"),
    ({"interior_walls": (InteriorWall("x", 5.0, 0.0, 25.0, 0.0, 6.0),)},
     r"^interior_walls\[0\] extends past its facade: x must lie in \[0, 10\] m, u in \[0, 20\]"),
    ({"interior_walls": (InteriorWall("y", 8.0, 0.0, 10.0, 0.0, 6.5),)},
     r"z in \[0, 6\] m$"),
    ({"footprint_x": 0.0}, r"^SceneConfig.footprint_x must lie in \(0, 1e\+06\], got 0.0$"),
    ({"footprint_y": math.nan}, r"^SceneConfig.footprint_y must lie in \(0, 1e\+06\], got nan$"),
    ({"floor_count": 1001}, r"^SceneConfig.floor_count must lie in \[1, 1000\], got 1001$"),
    ({"floor_height": 1e300},
     r"^SceneConfig.floor_height must lie in \(0, 1e\+06\], got 1e\+300$"),
    ({"floor_height": 6e5},
     "^floor_count × floor_height must be at most 1e[+]06 m, got 2 floors of 600000 m$"),
    ({"receiver_spacing": 1e-320}, "gives inf x inf receivers on each of 1 floors"),
], ids=["window_off_facade", "window_past_facade_u", "window_past_facade_z",
        "nan_anchor", "infinite_anchor", "margin_empties_grid", "no_receiver_floors",
        "negative_margin", "zero_margin", "height_on_next_floor", "height_at_ceiling",
        "height_on_slab", "height_below_slab", "wall_off_footprint", "wall_past_width",
        "wall_past_roof", "zero_footprint", "nan_footprint", "too_many_floors",
        "building_too_high", "building_too_tall", "grid_too_fine"])
def test_scene_config_rejects(overrides, message):
    with pytest.raises(ValueError, match=message):
        make_scene(**overrides)


def test_radio_band_lookup():
    fr1 = BandPlan("FR1", 0.41e9, 7.125e9, 20.0, 0.0)
    one = BandPlan("X", 20e9, 20e9, 25.0)  # a band may hold one frequency
    fr2 = BandPlan("FR2", 24.25e9, 71e9, 30.0, 20.0)
    radio = RadioConfig(bands=(fr1, one, fr2))
    assert radio.band_for(3.5e9) is fr1
    assert radio.band_for(20e9) is one
    assert radio.band_for(28e9) is fr2
    assert radio.band_for(71e9) is fr2
    for f_hz in (10e9, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="outside every configured band"):
            radio.band_for(f_hz)


@pytest.mark.parametrize("f_lo_hz, f_hi_hz, field", [
    (-1.0, 1e9, "f_lo_hz"),
    (0.0, 1e9, "f_lo_hz"),
    (math.nan, 1e9, "f_lo_hz"),
    (math.inf, math.inf, "f_lo_hz"),
    (5e9, 1e9, "f_hi_hz"),
    (1e9, math.inf, "f_hi_hz"),
    (1e9, math.nan, "f_hi_hz"),
    (0.99e6, 1e9, "f_lo_hz"),
    (1e9, 1.01e12, "f_hi_hz"),
])
def test_band_plan_rejects_bad_range(f_lo_hz, f_hi_hz, field):
    # A band must span 1 MHz <= f_lo_hz <= f_hi_hz <= 1 THz, the frequencies
    # over which no material function overflows.
    message = (f"band 'X': {field} must be >= f_lo_hz" if (f_lo_hz, f_hi_hz) == (5e9, 1e9)
               else rf"^BandPlan.{field} must lie in \[1e\+06, 1e\+12\], got ")
    with pytest.raises(ValueError, match=message):
        BandPlan("X", f_lo_hz, f_hi_hz, 20.0)


def test_band_plan_takes_the_ends_of_its_reach():
    band = BandPlan("X", 1e6, 1e12, 20.0)
    assert (band.f_lo_hz, band.f_hi_hz) == (1e6, 1e12)


def test_grid_size_is_the_grid_axis_length_without_the_axis():
    rng = np.random.default_rng(11)
    cases = [(10.0, 1.0, 2.0), (10.0, 5.0, 1.0), (10.0, 5.0 + 1e-9, 1.0), (10.0, 6.0, 1.0),
             (30.0, 1.0, 0.5), (20.0, 1.0, 3.0), (10.0, 1.0, math.inf), (10.0, 1.0, 1e300)]
    cases += [(rng.uniform(0.0, 40.0), rng.uniform(0.01, 20.0), rng.uniform(0.05, 5.0))
              for _ in range(300)]
    for extent, margin, spacing in cases:
        assert _grid_size(extent, margin, spacing) == len(_grid_axis(extent, margin, spacing))
    # An axis too long to build is counted, not built.
    assert _grid_size(1e6, 1.0, 1e-320) == math.inf
    assert _grid_size(1e6, 1.0, 1e-3) == 999_998_001


# ---------------------------------------------------------------------------
# Batched kernels against their scalar oracles
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "data" / "enumeration_golden.json"
_PLANE_UV = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}


def test_enumeration_matches_golden():
    # Full, untruncated PDPs of the default scene recorded before enumeration
    # was batched (tests/data/record_enumeration.py).
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert tuple(doc["frequencies_hz"]) == DEFAULT_FREQUENCY_LADDER_HZ
    scene = build_default_scene()
    geom = build_scene_geometry(scene)
    checked = 0
    for pair in doc["pairs"]:
        rx = Point3(*pair["rx"])
        for f_hz, rows in zip(doc["frequencies_hz"], pair["pdps"]):
            got = enumerate_mpcs(scene, pair["anchor"], rx, f_hz, geometry=geom).mpcs
            want = [pair["paths"][i] for i, _ in rows]
            assert [["-".join(("Tx", *m.interactions, "Rx")), m.group.name, m.edge_id]
                    for m in got] == [path[:3] for path in want]
            for m, path, (_, power) in zip(got, want, rows):
                assert abs(m.path_length_m - path[3]) <= 1e-9 * path[3]
                assert abs(m.rx_power_dbm - power) <= 1e-9
            checked += len(got)
    assert checked == sum(len(rows) for pair in doc["pairs"] for rows in pair["pdps"]) > 1000


def surface_contains(surf, u: float, v: float) -> bool:
    """Whether (u, v) lies on the surface: inside its extent, outside every
    cutout (bounds inclusive)."""
    if not (surf.u_lo <= u <= surf.u_hi and surf.v_lo <= v <= surf.v_hi):
        return False
    return not any(cu_lo <= u <= cu_hi and cv_lo <= v <= cv_hi
                   for cu_lo, cu_hi, cv_lo, cv_hi in surf.cutouts)


def brute_force_crossings(geom, p0, p1) -> np.ndarray:
    """Segment-by-segment, surface-by-surface crossing test."""
    out = np.zeros((len(p0), len(geom.surfaces)), dtype=bool)
    for k, (a, b) in enumerate(zip(p0, p1)):
        d = b - a
        for j, surf in enumerate(geom.surfaces):
            axis = "xyz".index(surf.axis)
            if abs(d[axis]) <= 1e-15:
                continue
            t = (surf.coord - a[axis]) / d[axis]
            if not 1e-9 < t < 1.0 - 1e-9:
                continue
            ui, vi = _PLANE_UV[surf.axis]
            out[k, j] = surface_contains(surf, a[ui] + t * d[ui], a[vi] + t * d[vi])
    return out


def test_crossings_match_brute_force():
    scene = build_default_scene()
    geom = build_scene_geometry(scene)
    rng = np.random.default_rng(7)
    lo = np.array([-10.0, -10.0, -2.0])
    hi = np.array([40.0, 30.0, 23.0])
    n = 150
    # Generic segments.
    p0 = [rng.uniform(lo, hi, (n, 3))]
    p1 = [rng.uniform(lo, hi, (n, 3))]
    # Segments through window cutouts, from outside to inside.
    windows = [scene.windows[i] for i in rng.integers(len(scene.windows), size=n)]
    mid = np.array([[rng.uniform(w.u_lo, w.u_hi), w.coord, rng.uniform(w.z_lo, w.z_hi)]
                    for w in windows])
    step = rng.uniform([-3.0, 2.0, -1.0], [3.0, 8.0, 1.0], (n, 3))
    step[:, 1] *= np.where(mid[:, 1] == 0.0, 1.0, -1.0)
    p0.append(mid - step)
    p1.append(mid + step)
    # Segments parallel to the floor slabs, some lying in a slab plane.
    flat = rng.uniform(lo, hi, (2 * n, 3))
    flat[:n, 2] = rng.choice([3.0, 9.0, 4.5], size=n)
    flat[n:, 2] = flat[:n, 2]
    p0.append(flat[:n])
    p1.append(flat[n:])
    # Segments with an endpoint on a facade or a slab.
    on = rng.uniform([0.0, 0.0, 0.0], [30.0, 20.0, 21.0], (n, 3))
    on[: n // 2, 1] = 0.0
    on[n // 2:, 2] = 6.0
    p0.append(on)
    p1.append(rng.uniform(lo, hi, (n, 3)))
    p0, p1 = np.concatenate(p0), np.concatenate(p1)

    got = geom.crossings(p0, p1)
    expect = brute_force_crossings(geom, p0, p1)
    assert got.dtype == bool and got.shape == (len(p0), len(geom.surfaces))
    assert np.array_equal(got, expect)
    # The window segments pass the facade through its cutout.
    facade = [s.name for s in geom.surfaces].index("facade_y0")
    through = np.flatnonzero(mid[:, 1] == 0.0) + n
    assert through.size and not got[through, facade].any()
    assert got.sum() > n


def test_path_table_tests_legs_from_the_anchor_at_a_boundary_line():
    # Anchor 0 of the default scene, (7.5, -20, 3.2), sees the top edges of
    # the floor-5 windows of facade y = 20 (z = 14.8) along lines through
    # (x, 0, 9), where slab z = 9 meets facade y = 0. Whether such a leg
    # crosses the slab depends on the last bit of its hit point, and so on
    # its direction: from the anchor it does not, towards the anchor it
    # does. The table holds the crossings of the legs as they propagate; at
    # this receiver it keeps five of the six edges, the sixth is beyond the
    # transmission limit.
    scene = build_default_scene()
    geom = build_scene_geometry(scene)
    anchor = np.array(scene.anchors[0])
    slab = [s.name for s in geom.surfaces].index("slab_z9")
    midpoints = geom.edge_table.points(slice(None), np.full(len(geom.edge_table.x1), 0.5))
    top = [i for i, e in enumerate(midpoints.tolist()) if e[1:] == [20.0, 14.8]]
    assert len(top) == 6
    rx = Point3(13.0, 15.0, 13.5)
    table = path_table(scene, (0,), rx, geom)
    diff = geom.diffractions(anchor, rx.as_array())
    seen = kept = 0
    for edge, point in zip(diff.ids.tolist(), diff.point):
        if edge not in top:
            continue
        seen += 1
        forward = geom.crossings(anchor[None], point[None])[0]
        backward = geom.crossings(point[None], anchor[None])[0]
        assert np.array_equal(np.flatnonzero(forward != backward), [slab])
        assert backward[slab]
        row = np.flatnonzero(table.edge_id == edge)
        if row.size:
            assert np.array_equal(table.crossings[row[0], 0], forward)
            kept += 1
    assert (seen, kept) == (6, 5)


@pytest.mark.parametrize("anchor_ids, message", [
    ((-1,), r"^anchor_ids: -1 is not an anchor index in 0\.\.3$"),
    ((0, 4), r"^anchor_ids: 4 is not an anchor index in 0\.\.3$"),
    ((), r"^anchor_ids is empty$"),
    ((1.0,), r"^anchor_ids: 1\.0 is not an anchor index in 0\.\.3$"),
    ((True,), r"^anchor_ids: True is not an anchor index in 0\.\.3$"),
])
def test_path_table_rejects_bad_anchor_ids(anchor_ids, message):
    # A negative id must not alias the last anchor (anchor 3's rows labelled
    # -1); every bad id fails at the boundary, naming the argument.
    scene = build_default_scene()
    with pytest.raises(ValueError, match=message):
        path_table(scene, anchor_ids, Point3(9.0, 5.0, 7.5))


@pytest.mark.parametrize("anchor_index", [-1, -4, 4])
def test_enumerate_mpcs_rejects_a_bad_anchor_index(anchor_index):
    scene = build_default_scene()
    with pytest.raises(ValueError, match=rf"^anchor_index: {anchor_index} is not an anchor "
                                         r"index in 0\.\.3$"):
        enumerate_mpcs(scene, anchor_index, Point3(9.0, 5.0, 7.5), 28e9)
    assert enumerate_mpcs(scene, 3, Point3(9.0, 5.0, 7.5), 28e9).anchor_id == 3


@pytest.mark.parametrize("rx", [
    np.zeros(2), np.zeros((2, 4)), np.zeros((0, 3)), np.zeros((1, 1, 3)), [[1.0, 2.0], [3.0]],
])
def test_path_table_rejects_a_malformed_receiver(rx):
    with pytest.raises(ValueError, match=r"^rx must be a Point3, a point of shape \(3,\) or a "
                                         r"block of shape \(N, 3\) with N >= 1, got "):
        path_table(build_default_scene(), (0,), rx)


def test_path_table_rejects_a_non_finite_receiver():
    with pytest.raises(ValueError, match="^rx has a non-finite coordinate$"):
        path_table(build_default_scene(), (0,), [[9.0, 5.0, 7.5], [9.0, math.nan, 7.5]])


def test_path_table_takes_a_point_a_row_or_a_block():
    scene = build_default_scene()
    geom = build_scene_geometry(scene)
    rx = Point3(9.0, 5.0, 7.5)
    tables = [path_table(scene, (1,), arg, geom)
              for arg in (rx, rx.as_array(), rx.as_array().tolist(), [rx.as_array()])]
    for table in tables:
        assert table.receivers.shape == (1, 3) and not table.receiver.any()
        assert table.length_m.tobytes() == tables[0].length_m.tobytes()


def test_a_geometry_without_reflectors_or_edges_gives_empty_rows():
    geom = SceneGeometry([], edges_of([], [], [], []), None)
    tx, rx = np.array([[0.0, -5.0, 1.0], [1.0, -5.0, 2.0]]), np.array([[1.0, 2.0, 3.0]])
    for rows in (geom.reflections(tx, rx), geom.diffractions(tx, rx)):
        assert len(rows.ids) == len(rows.pair) == 0 and rows.point.shape == (0, 3)


def test_diffractions_match_diffraction_point():
    # Against the scalar solver, at the bounds of the edge-solver oracle tests.
    scene = build_default_scene()
    geom = build_scene_geometry(scene)
    edges = geom.edge_table
    n_edges = len(edges.x1)
    rng = np.random.default_rng(11)

    def assert_close(d, k, sol):
        assert abs(d.length[k] - sol.path_length) <= 1e-9 * sol.path_length
        assert abs(d.lam[k] - sol.lam) <= 1e-12
        assert d.endpoint[k] == sol.endpoint
        np.testing.assert_allclose(d.point[k], sol.q.as_array(), rtol=0, atol=1e-9)

    for _ in range(4):
        tx = np.array([rng.uniform(-5, 35), rng.choice([-20.0, 40.0]), rng.uniform(1, 8)])
        rx = rng.uniform([0.5, 0.5, 6.5], [29.5, 19.5, 11.5])
        d = geom.diffractions(tx, rx)
        assert d.ids.tolist() == list(range(n_edges))
        for e in range(n_edges):
            assert_close(d, e, scalar_edge.diffraction_point(tx, rx, edges, e))
    # Both points on the line of the first-floor bottom edges of facade y = 0,
    # where diffraction is undefined: those edges are left out.
    tx, rx = np.array([-5.0, 0.0, 0.8]), np.array([3.0, 0.0, 0.8])
    d = geom.diffractions(tx, rx)
    defined = [e for e in range(n_edges)
               if not (_on_edge_line(scalar_edge.to_local(edges, e, tx), edges.z_e[e])
                       and _on_edge_line(scalar_edge.to_local(edges, e, rx), edges.z_e[e]))]
    assert d.ids.tolist() == defined and len(defined) == n_edges - 6
    for k, e in enumerate(defined):
        assert_close(d, k, scalar_edge.diffraction_point(tx, rx, edges, e))


# ---------------------------------------------------------------------------
# Dataset export / ingest
# ---------------------------------------------------------------------------

def test_ingest_well_formed(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"schema": "mpc-dataset/1"}\n'
        '{"anchor_id": 0, "rx_id": 1, "rx_xyz": [1.0, 2.0, 3.0], "interactions": "Tx-Rx", '
        '"path_length_m": 10.0, "rx_power_dbm": -50.0}\n'
        '{"anchor_id": 0, "rx_id": 1, "rx_xyz": [1.0, 2.0, 3.0], "interactions": "Tx-D-T-Rx", '
        '"path_length_m": 14.0, "rx_power_dbm": -62.0}\n'
        '{"anchor_id": 1, "rx_id": 1, "rx_xyz": [1.0, 2.0, 3.0], "interactions": "Tx-DS-Rx", '
        '"path_length_m": 12.0, "rx_power_dbm": -70.0}\n'
    )
    result = ingest_dataset(path)
    assert not result.rejected
    assert result.groups == [MpcGroup.MPC1, MpcGroup.MPC3, MpcGroup.MPC4]
    assert result.records == [MpcRecord(0, 1, (1.0, 2.0, 3.0), "Tx-Rx", 10.0, -50.0),
                              MpcRecord(0, 1, (1.0, 2.0, 3.0), "Tx-D-T-Rx", 14.0, -62.0),
                              MpcRecord(1, 1, (1.0, 2.0, 3.0), "Tx-DS-Rx", 12.0, -70.0)]


def test_ingest_rejects_negative_length(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"schema": "mpc-dataset/1"}\n'
        '{"anchor_id": 0, "rx_id": 0, "rx_xyz": [0, 0, 0], "interactions": "Tx-Rx", '
        '"path_length_m": -5.0, "rx_power_dbm": -50.0}\n'
    )
    result = ingest_dataset(path)
    assert result.records == result.groups == []
    assert len(result.rejected) == 1
    assert result.rejected[0][0] == 2


def test_ingest_rejects_inconsistent_tof(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"schema": "mpc-dataset/1"}\n'
        '{"anchor_id": 0, "rx_id": 0, "rx_xyz": [0, 0, 0], "interactions": "Tx-Rx", '
        '"path_length_m": 10.0, "rx_power_dbm": -50.0, "tof_s": 1.0e-7}\n'
    )
    result = ingest_dataset(path)
    assert result.records == result.groups == []
    assert "tof" in result.rejected[0][1]


def test_ingest_malformed_line_reports_number(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"schema": "mpc-dataset/1"}\n'
        '{"anchor_id": 0, "rx_id": 0, "rx_xyz": [0, 0, 0], "interactions": "Tx-Rx", '
        '"path_length_m": 10.0, "rx_power_dbm": -50.0}\n'
        'this is not json\n'
    )
    with pytest.raises(DatasetError) as err:
        ingest_dataset(path)
    assert err.value.line_no == 3


_RECORD = {"anchor_id": 0, "rx_id": 0, "rx_xyz": [0.0, 0.0, 0.0], "interactions": "Tx-Rx",
           "path_length_m": 10.0, "rx_power_dbm": -50.0}


@pytest.mark.parametrize("changes, outcome", [
    ({"edge_id": "x"}, "edge_id: expected an integer, got str$"),
    ({"tof_s": "x"}, "tof_s: expected a number, got str$"),
    ({"tof_s": None}, "accepted"),
    ({"rx_xyz": [0.0, float("nan"), 0.0]}, r"rx_xyz\[1\]: expected a finite number, got nan$"),
    ({"path_length_m": float("nan")}, "path_length_m: expected a finite number, got nan$"),
    ({"rx_power_dbm": float("inf")}, "rx_power_dbm: expected a finite number, got inf$"),
    ({"tof_s": float("nan")}, "tof_s: expected a finite number, got nan$"),
    ({"interactions": 5}, "interactions: expected a string, got int$"),
    ({"rx_xyz": "123"}, "rx_xyz: expected a list, got str$"),
    ({"rx_xyz": [0.0, 0.0]}, "rx_xyz: expected 3 items, got 2$"),
    ({"rx_xyz": [0.0, "1", 0.0]}, r"rx_xyz\[1\]: expected a number, got str$"),
    ({"path_length_m": "10.0"}, "path_length_m: expected a number, got str$"),
    ({"rx_power_dbm": True}, "rx_power_dbm: expected a number, got bool$"),
    ({"tof_s": False}, "tof_s: expected a number, got bool$"),
    # Through float() this record read as (1, 2, 3), a 10 m path and 1 dBm.
    ({"rx_xyz": "123", "path_length_m": "10.0", "rx_power_dbm": True},
     "rx_xyz: expected a list, got str$"),
    # Misspelt optional keys would leave the MPC without its edge id.
    ({"interactions": "Tx-D-Rx", "edgeid": 4, "tof": 1.0}, "unexpected key 'edgeid'$"),
    ({"path_length_m": 10 ** 400},
     "path_length_m: expected a finite number, got an integer too large for a float$"),
    # A record that is valid JSON but no object is replaced whole.
    ([1, 2], "expected an object, got list$"),
    (None, "expected an object, got NoneType$"),
], ids=["edge_id_not_int", "tof_not_a_number", "tof_null", "rx_xyz_nan", "length_nan",
        "power_inf", "tof_nan", "interactions_not_a_string", "rx_xyz_string", "rx_xyz_of_two",
        "rx_xyz_string_component", "length_string", "power_bool", "tof_bool",
        "string_position_length_and_bool_power", "misspelt_keys", "length_huge_integer",
        "record_a_list", "record_null"])
def test_ingest_bad_field_values(tmp_path, changes, outcome):
    # A malformed field, a non-finite number among them, raises DatasetError
    # with its line number and its path in the record; null for an optional
    # key reads as absent.
    path = tmp_path / "data.jsonl"
    record = {**_RECORD, **changes} if isinstance(changes, dict) else changes
    path.write_text('{"schema": "mpc-dataset/1"}\n' + json.dumps(_RECORD) + "\n"
                    + json.dumps(record) + "\n")
    if outcome == "accepted":
        result = ingest_dataset(path)
        assert len(result.records) == len(result.groups) == 2
        assert not result.rejected
    else:
        with pytest.raises(DatasetError, match=f"^line 3: .*{outcome}") as err:
            ingest_dataset(path)
        assert err.value.line_no == 3


def test_ingest_unknown_header_key_is_an_error(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"schema": "mpc-dataset/1", "units": "m"}\n' + json.dumps(_RECORD) + "\n")
    with pytest.raises(DatasetError, match="^line 1: header: unexpected key 'units'$"):
        ingest_dataset(path)


@pytest.mark.parametrize("changes, outcome", [
    ({"anchor_id": 0.7}, "anchor_id: expected an integer, got float$"),
    ({"rx_id": True}, "rx_id: expected an integer, got bool$"),
    ({"anchor_id": "1"}, "anchor_id: expected an integer, got str$"),
    ({"edge_id": 2.9, "interactions": "Tx-D-Rx"}, "edge_id: expected an integer, got float$"),
    ({"anchor_id": -1}, r"MpcRecord.anchor_id must lie in \[0, inf\), got -1$"),
    ({"rx_id": -2.0}, "rx_id: expected an integer, got float$"),
    ({"edge_id": -3, "interactions": "Tx-D-Rx"},
     r"MpcRecord.edge_id must lie in \[0, inf\), got -3$"),
    ({"edge_id": 2}, "rejected: edge_id 2 on Tx-Rx, which diffracts nowhere"),
    ({"rx_xyz": [9.0, 9.0, 9.0]},
     "rejected: rx_xyz [9.0, 9.0, 9.0] of anchor 0, rx 0 differs from its first [0.0, 0.0, 0.0]"),
    ({"anchor_id": 2.0, "edge_id": 4, "interactions": "Tx-T-D-Rx"},
     "anchor_id: expected an integer, got float$"),
    ({"anchor_id": 2, "edge_id": 4, "interactions": "Tx-T-D-Rx"}, "accepted"),
], ids=["anchor_fraction", "rx_bool", "anchor_string", "edge_fraction", "anchor_negative",
        "rx_negative_float", "edge_negative", "edge_without_diffraction", "rx_moved",
        "integral_float_and_mpc4_edge", "mpc4_edge"])
def test_ingest_ids(tmp_path, capsys, changes, outcome):
    # Ids must be non-negative JSON integers, so 2.0 is refused as scene/1
    # refuses 3.0 for floor_count (a DatasetError with the line number); an
    # edge id on a path without a diffraction, or a position
    # other than that of the first record of the same anchor and receiver,
    # rejects its record. The CLI prints the error as one line and the
    # rejection in its summary.
    path = tmp_path / "data.jsonl"
    path.write_text('{"schema": "mpc-dataset/1"}\n' + json.dumps(_RECORD) + "\n"
                    + json.dumps({**_RECORD, **changes}) + "\n")
    rc = cli_main(["ingest", "--dataset", str(path)])
    out, err = capsys.readouterr()
    if outcome == "accepted":
        result = ingest_dataset(path)
        assert not result.rejected
        assert [(r.anchor_id, r.edge_id) for r in result.records] == [(0, None), (2, 4)]
        assert result.groups == [MpcGroup.MPC1, MpcGroup.MPC4]
        assert rc == 0 and "2 MPCs" in out
    elif outcome.startswith("rejected: "):
        result = ingest_dataset(path)
        assert len(result.records) == 1
        assert result.rejected == [(3, outcome.removeprefix("rejected: "))]
        assert rc == 0 and "1 rejected records" in out
    else:
        with pytest.raises(DatasetError, match=f"^line 3: .*{outcome}") as exc:
            ingest_dataset(path)
        assert exc.value.line_no == 3
        assert rc == 1 and err == f"error: {exc.value}\n"


def test_ingest_line_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "data.jsonl"
    bad = json.dumps({**_RECORD, "interactions": "Tx-?-Rx"}).encode().replace(b"?", b"\xff")
    path.write_bytes(b'{"schema": "mpc-dataset/1"}\n' + json.dumps(_RECORD).encode() + b"\n"
                     + bad + b"\n")
    with pytest.raises(DatasetError, match="^line 3: 'utf-8' codec can't decode byte 0xff in "
                       f"position {bad.index(0xff)}: invalid start byte$") as err:
        ingest_dataset(path)
    assert err.value.line_no == 3


def test_ingest_bad_schema(tmp_path):
    path = tmp_path / "data.jsonl"
    for header, message in (('{"schema": "other/9"}', "unsupported header schema 'other/9'"),
                            ("[]", "header: expected an object, got list")):
        path.write_text(header + "\n")
        with pytest.raises(DatasetError, match=f"^line 1: {re.escape(message)}$"):
            ingest_dataset(path)



# The values a mutation gives one field of a dataset record; _DELETE
# deletes the key instead.
_DELETE = object()
_MUTATIONS = (None, True, -1, 1.5, 1e308, 10 ** 400, math.nan, "", [], {}, _DELETE)


def test_ingest_mutated_dataset_exits_0_or_prints_one_error_line(tmp_path, capsys):
    # Each field of a valid record, on a seeded choice among three lines,
    # takes each mutation in turn. `diffpos ingest` exits 0 (the record
    # read, or rejected in the summary), or exits 1 with one error line
    # naming that line; it never ends in a traceback.
    records = [{"anchor_id": a, "rx_id": 0, "rx_xyz": [1.0, 2.0, 3.0],
                "interactions": "Tx-D-T-Rx", "path_length_m": length, "rx_power_dbm": -60.0,
                "tof_s": length / SPEED_OF_LIGHT, "edge_id": a}
               for a, length in enumerate((10.0, 12.0, 15.0))]
    rng = np.random.default_rng(0)
    path = tmp_path / "data.jsonl"
    exits = set()
    for key in records[0]:
        for value in _MUTATIONS:
            i = int(rng.integers(len(records)))
            record = dict(records[i])
            if value is _DELETE:
                del record[key]
            else:
                record[key] = value
            docs = [{"schema": "mpc-dataset/1"}, *records[:i], record, *records[i + 1:]]
            path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
            rc = cli_main(["ingest", "--dataset", str(path)])
            err = capsys.readouterr().err
            exits.add(rc)
            if rc == 0:
                assert err == "", (key, value)
            else:
                assert rc == 1 and err.startswith(f"error: line {i + 2}: ") \
                    and err.count("\n") == 1, (key, value, err)
    assert exits == {0, 1}


def test_dataset_round_trip_bitwise(tmp_path):
    scene = make_scene()
    pdps = [(rx_id, enumerate_mpcs(scene, 0, rx, 10e9))
            for rx_id, rx in enumerate(receiver_grid(scene)[:6])]
    path = tmp_path / "export.jsonl"
    n = write_dataset(pdps, path)
    assert n == sum(len(p) for _, p in pdps)

    result = ingest_dataset(path)
    assert not result.rejected
    assert len(result.records) == len(result.groups) == n
    written = [(rx_id, pdp.rx, m) for rx_id, pdp in pdps for m in pdp.mpcs]
    for (rx_id, rx, m), rec, group in zip(written, result.records, result.groups):
        assert (rec.anchor_id, rec.rx_id) == (m.anchor_id, rx_id)
        assert rec.rx_xyz == (rx.x, rx.y, rx.z)
        assert parse_interaction_string(rec.interactions) == m.interactions
        assert rec.path_length_m == m.path_length_m  # bitwise
        assert rec.rx_power_dbm == m.rx_power_dbm
        assert rec.tof_s == m.tof_s
        assert group is m.group
        assert rec.edge_id == m.edge_id
