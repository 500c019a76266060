"""Sweep orchestration, export, and CLI tests (small scenes for speed)."""

import dataclasses
import json
import math
import threading
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from diffpos.channel import (
    MpcGroup,
    PathLimits,
    RadioConfig,
    SceneConfig,
    WindowRect,
    build_scene_geometry,
    receiver_grid,
)
from diffpos.cli import main as cli_main
from diffpos.experiments import (
    DEFAULT_FREQUENCY_LADDER_HZ,
    Diagnostics,
    SweepConfig,
    build_default_scene,
    export_report,
    load_scene,
    p_fap_stats,
    report_from_dict,
    report_to_dict,
    run_sweep,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    _nearest_edges,
)
from diffpos.materials import DiffractionLossModel, default_material_library
from scalar_edge import to_world

RNG = np.random.default_rng(3)


@pytest.fixture(scope="module")
def tiny_sweep():
    """Small but complete sweep shared across tests."""
    scene = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=(3.5e9, 28e9), seed=11)
    return cfg, run_sweep(cfg)


# ---------------------------------------------------------------------------
# Default scene
# ---------------------------------------------------------------------------

def test_default_scene_passes_invariants():
    scene = build_default_scene()
    assert scene.receiver_spacing > 0
    assert scene.floor_count == 7
    assert len(scene.anchors) == 4
    assert all(w.height > 0 for w in scene.windows)
    # Anchors hover outside the footprint between the lower floors.
    for x, y, z in scene.anchors:
        assert y < 0 or y > scene.footprint_y
        assert scene.floor_height <= z <= 2 * scene.floor_height


def test_default_scene_receiver_count_matches_analytic():
    scene = build_default_scene(grid_spacing=5.0, receiver_floors=(3, 4))
    per_axis_x = len(np.arange(1.0, scene.footprint_x - 1.0 + 1e-9, 5.0))
    per_axis_y = len(np.arange(1.0, scene.footprint_y - 1.0 + 1e-9, 5.0))
    assert len(receiver_grid(scene)) == 2 * per_axis_x * per_axis_y


def test_full_scale_receiver_count_order_1e4():
    scene = build_default_scene(full_scale=True)
    count = len(receiver_grid(scene))
    assert 5_000 <= count <= 50_000
    assert scene.receiver_floors == (3, 4, 5, 6, 7)
    assert scene.receiver_spacing == 0.5


@pytest.mark.parametrize("kwargs", [
    {}, {"full_scale": True}, {"grid_spacing": 6.0, "receiver_floors": (3,)},
    {"grid_spacing": 10.0, "receiver_floors": (3,)},
], ids=["default", "full_scale", "trials_sweep_size", "ladder_sweep_size"])
def test_nearest_edges_match_a_loop_over_edges(kwargs):
    # Oracle: the nearest midpoint, each from the edge's two world endpoints
    # and each distance a norm. Besides the scene's anchors, whole-metre
    # points hit exact distance ties, where the first edge must win.
    scene = build_default_scene(**kwargs)
    geom = build_scene_geometry(scene)
    rng = np.random.default_rng(8)
    points = np.concatenate([np.asarray(scene.anchors, dtype=float),
                             np.round(rng.uniform(-30, 60, (60, 3))),
                             rng.uniform(-30, 60, (60, 3))])
    edges = geom.edge_table
    midpoints = [0.5 * (to_world(edges, e, [edges.x1[e], 0.0, edges.z_e[e]])
                        + to_world(edges, e, [edges.x2[e], 0.0, edges.z_e[e]]))
                 for e in range(len(edges.x1))]
    expect = [int(np.argmin([np.linalg.norm(mid - p) for mid in midpoints])) for p in points]
    assert _nearest_edges(geom, points) == expect


# ---------------------------------------------------------------------------
# P_FAP statistics
# ---------------------------------------------------------------------------

def test_p_fap_counting():
    stats = p_fap_stats([2, 0, 2, 0])
    assert stats[MpcGroup.MPC1] == 50.0
    assert stats[MpcGroup.MPC3] == 50.0
    assert stats[MpcGroup.MPC2] == 0.0


def test_p_fap_all_one_group():
    stats = p_fap_stats([0, 0, 14, 0])
    assert stats[MpcGroup.MPC3] == 100.0


def test_p_fap_random_matches_tally():
    groups = list(MpcGroup)
    for _ in range(20):
        flat = [groups[i] for i in RNG.integers(0, 4, int(RNG.integers(1, 160)))]
        stats = p_fap_stats(np.bincount([g.value for g in flat], minlength=5)[1:])
        for g in groups:
            assert stats[g] == pytest.approx(100.0 * flat.count(g) / len(flat), rel=1e-12)
        assert sum(stats.values()) == pytest.approx(100.0, abs=0.01)


def test_p_fap_empty_errors():
    with pytest.raises(ValueError, match="no FAP selections"):
        p_fap_stats([0, 0, 0, 0])
    with pytest.raises(ValueError, match="expected 4 group counts, got 3"):
        p_fap_stats([1, 2, 3])


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------

def test_sweep_noiseless_matched_model_zero_error():
    # One receiver exactly half a window height below the top edge, anchors
    # above the window so every FAP is the top-edge diffraction path: the
    # measurement equals the model at the truth and D-NLS lands on it.
    lib = default_material_library()
    scene = SceneConfig(
        footprint_x=10.0,
        footprint_y=20.0,
        floor_count=3,
        floor_height=3.0,
        exterior_slab=lib.slab("exterior_concrete"),
        interior_slab=lib.slab("interior_drywall"),
        windows=(WindowRect(axis="y", coord=0.0, u_lo=2.0, u_hi=8.0, z_lo=6.8, z_hi=8.8),),
        interior_walls=(),
        anchors=((1.0, -8.0, 12.0), (9.0, -8.0, 16.0), (3.0, -25.0, 17.0), (7.0, -25.0, 16.0)),
        receiver_floors=(3,),
        receiver_spacing=30.0,  # single grid point
        receiver_margin=5.0,
        receiver_height=1.8,  # z = 7.8 = top edge 8.8 - w/2
    )
    receivers = receiver_grid(scene)
    assert len(receivers) == 1
    cfg = SweepConfig(scene=scene, frequencies_hz=(39e9,), seed=5, noiseless=True)
    report = run_sweep(cfg)
    fr = report.frequencies[0]
    assert fr.p_fap_pct[MpcGroup.MPC3] == 100.0
    assert len(fr.dnls_errors_m) == 1
    assert fr.dnls_errors_m[0] <= 1e-6


def test_sweep_deterministic_reports(tmp_path, tiny_sweep):
    cfg, report = tiny_sweep
    again = run_sweep(SweepConfig(scene=cfg.scene, frequencies_hz=cfg.frequencies_hz,
                                  seed=cfg.seed))
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    files_a = export_report(report, dir_a)
    files_b = export_report(again, dir_b)
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_sweep_seed_changes_errors(tiny_sweep):
    cfg, report = tiny_sweep
    other = run_sweep(SweepConfig(scene=cfg.scene, frequencies_hz=cfg.frequencies_hz,
                                  seed=cfg.seed + 1))
    assert not np.array_equal(report.frequencies[0].dnls_errors_m,
                              other.frequencies[0].dnls_errors_m)
    # FAP statistics are noise-free and must agree across seeds.
    assert report.frequencies[0].p_fap_pct == other.frequencies[0].p_fap_pct


def test_sweep_partition_and_cdf_invariants(tiny_sweep):
    _, report = tiny_sweep
    for fr in report.frequencies:
        assert sum(fr.p_fap_pct.values()) == pytest.approx(100.0, abs=0.01)
        for samples in (fr.dnls_errors_m, fr.lls_errors_m, fr.peb_m):
            assert np.all(np.diff(samples) >= 0)
            assert np.all(samples >= 0)
        excluded = fr.exclusions["dnls_failed"] + fr.exclusions["no_detection"]
        assert len(fr.dnls_errors_m) + excluded == fr.n_receivers


def test_sweep_bound_below_estimator_error(tiny_sweep):
    # At the high-frequency rung (diffraction-dominated FAPs) the mean bound
    # must sit below the mean D-NLS error at matched geometry.
    _, report = tiny_sweep
    fr = report.frequencies[-1]
    assert fr.p_fap_pct[MpcGroup.MPC3] > 50.0
    assert float(np.mean(fr.peb_m)) <= float(np.mean(fr.dnls_errors_m))


@pytest.mark.parametrize("limits", [
    PathLimits(min_snr_db=500.0),
    PathLimits(max_transmissions=0, max_reflections=0, max_diffractions=0),
], ids=["floor_above_every_path", "empty_path_tables"])
def test_sweep_reports_a_frequency_without_detections(tmp_path, limits):
    # A detectability floor that no path clears, as deep indoors, or limits
    # that leave every path table empty: every receiver is excluded at every
    # frequency, and the report, its CSVs and its JSON round trip say so.
    scene = dataclasses.replace(build_default_scene(grid_spacing=10.0, receiver_floors=(3,)),
                                limits=limits)
    report = run_sweep(SweepConfig(scene=scene, frequencies_hz=(3.5e9, 28e9), trials=2))
    for fr in report.frequencies:
        assert (fr.n_receivers, fr.n_pairs) == (6, 24)
        assert fr.exclusions == {"no_detection": 6, "dnls_failed": 0, "lls_failed": 0,
                                 "peb_singular": 0}
        assert fr.p_fap_pct == {g: 0.0 for g in MpcGroup}
        assert fr.fap_snr_quartiles_db is None
        assert [len(s) for s in (fr.dnls_errors_m, fr.lls_errors_m, fr.peb_m)] == [0, 0, 0]
        assert fr.diagnostics == Diagnostics(dnls_rung=(0, 0, 0), dnls_iterations=0)

    files = export_report(report, tmp_path)
    text = {path.name: path.read_text() for path in files}
    assert text["p_fap.csv"].splitlines()[1:] == ["3500000000.0,0.0,0.0,0.0,0.0",
                                                  "28000000000.0,0.0,0.0,0.0,0.0"]
    assert text["exclusions.csv"].splitlines()[1:] == ["3500000000.0,6,24,6,0,0,0",
                                                       "28000000000.0,6,24,6,0,0,0"]
    assert len(text["fap_snr_quartiles.csv"].splitlines()) == 1
    assert all(len(body.splitlines()) == 1 for name, body in text.items()
               if name.startswith("cdf_"))

    doc = json.loads(json.dumps(report_to_dict(report)))
    assert report_to_dict(report_from_dict(doc)) == doc
    assert doc["frequencies"][0]["p_fap_pct"] == {"MPC1": 0.0, "MPC2": 0.0, "MPC3": 0.0,
                                                  "MPC4": 0.0}


SWEEP_GOLDEN = Path(__file__).resolve().parent / "data" / "sweep_golden.json"


@pytest.mark.parametrize("name", ["noisy", "noiseless"])
def test_sweep_matches_golden(name):
    # Reports recorded before the sweep's FAP and LLS passes were batched
    # (tests/data/record_sweep.py): counts exact, noiseless D-NLS counters
    # exact, error samples within 1e-9 m noiseless and 1e-6 m noisy.
    want = json.loads(SWEEP_GOLDEN.read_text(encoding="utf-8"))["reports"][name]
    scene = build_default_scene(grid_spacing=10.0, receiver_floors=(3,))
    got = report_to_dict(run_sweep(SweepConfig(
        scene=scene, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ, trials=2, seed=0,
        noiseless=name == "noiseless")))
    tol = 1e-9 if name == "noiseless" else 1e-6
    assert len(got["frequencies"]) == len(want["frequencies"]) == 7
    for fr, ref in zip(got["frequencies"], want["frequencies"]):
        for key in ("frequency_hz", "p_fap_pct", "exclusions", "n_receivers", "n_pairs"):
            assert fr[key] == ref[key], key
        if name == "noiseless":
            assert fr["diagnostics"] == ref["diagnostics"]
        np.testing.assert_allclose(fr["fap_snr_quartiles_db"], ref["fap_snr_quartiles_db"],
                                   rtol=0, atol=1e-9)
        for key in ("dnls_errors_m", "lls_errors_m", "peb_m"):
            assert len(fr[key]) == len(ref[key]) > 0, key
            np.testing.assert_allclose(fr[key], ref[key], rtol=0, atol=tol, err_msg=key)


def test_sweep_config_validation():
    scene = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
    with pytest.raises(ValueError):
        SweepConfig(scene=scene, frequencies_hz=())
    with pytest.raises(ValueError):
        SweepConfig(scene=scene, frequencies_hz=(28e9, 3.5e9))
    with pytest.raises(ValueError):
        SweepConfig(scene=scene, frequencies_hz=(3.5e9,), trials=0)
    # NumPy integers are integers, kept as Python ints so that a report's
    # seed and trials encode as JSON.
    cfg = SweepConfig(scene=scene, frequencies_hz=(3.5e9,), trials=np.int64(2),
                      seed=np.uint8(1), top_k=np.int32(5))
    assert [(type(v), v) for v in (cfg.trials, cfg.seed, cfg.top_k)] \
        == [(int, 2), (int, 1), (int, 5)]


_ANCHORS = build_default_scene().anchors


@pytest.mark.parametrize("scene_changes, sweep_changes, message", [
    ({"anchors": _ANCHORS[:3]}, {}, "at least 4 anchors"),
    ({}, {"frequencies_hz": (3.5e9, 3.5e9, 28e9)}, "strictly increasing"),
    ({}, {"frequencies_hz": (3.5e9, 80e9)}, "outside every configured band"),
    ({"anchors": ((15.0, 10.0, 4.0),) + _ANCHORS[1:]}, {}, "inside the building"),
    ({"anchors": _ANCHORS[:3] + ((30.0, 20.0, 21.0),)}, {}, "inside the building"),
    ({}, {"top_k": 0}, "top_k must be >= 1"),
    ({}, {"t_fap_db": -1.0}, "t_fap_db must be >= 0"),
    ({}, {"seed": -1}, "seed must be >= 0"),
    ({}, {"frequencies_hz": (28e9, 28.0000004e9)},
     "frequencies 28000000000.0 and 28000000400.0 Hz share the CSV label 28GHz"),
    ({}, {"trials": 2.0}, "trials must be an integer, got 2.0"),
    ({}, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({}, {"top_k": 3.0}, "top_k must be an integer, got 3.0"),
    ({}, {"trials": True}, "trials must be an integer, got True"),
    ({}, {"seed": False}, "seed must be an integer, got False"),
    ({}, {"top_k": np.bool_(True)}, "top_k must be an integer, got "),
    # A report holds finite numbers only.
    ({}, {"t_fap_db": math.inf}, "t_fap_db must be >= 0 dB and finite, got inf"),
], ids=["three_anchors", "duplicate_frequency", "out_of_band_frequency",
        "anchor_inside_building", "anchor_on_building_corner", "top_k_zero",
        "negative_t_fap", "negative_seed", "colliding_csv_labels", "float_trials",
        "fractional_seed", "float_top_k", "bool_trials", "bool_seed", "numpy_bool_top_k",
        "infinite_t_fap"])
def test_sweep_config_rejects(scene_changes, sweep_changes, message):
    scene = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
    scene = dataclasses.replace(scene, **scene_changes)
    with pytest.raises(ValueError, match=message):
        SweepConfig(scene=scene, **{"frequencies_hz": (28e9,), **sweep_changes})


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def test_export_empty_report_headers_only(tmp_path):
    from diffpos.experiments import SweepReport

    files = export_report(SweepReport(seed=0, t_fap_db=20.0, trials=1, noiseless=False,
                                      frequencies=[]), tmp_path)
    for path in files:
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1  # header only


def test_scene_rejects_a_repeated_receiver_floor():
    with pytest.raises(ValueError, match="^receiver floor 3 is listed twice$"):
        build_default_scene(grid_spacing=8.0, receiver_floors=(3, 4, 3))


def test_export_rejects_colliding_labels_before_writing(tmp_path, tiny_sweep):
    _, report = tiny_sweep
    clash = dataclasses.replace(report.frequencies[1], frequency_hz=3.5000001e9)
    report = dataclasses.replace(report, frequencies=[report.frequencies[0], clash])
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="share the CSV label 3.5GHz"):
        export_report(report, out_dir)
    assert not out_dir.exists()


def test_export_cdf_rows_and_probabilities(tmp_path, tiny_sweep):
    _, report = tiny_sweep
    export_report(report, tmp_path)
    fr = report.frequencies[0]
    label = f"{fr.frequency_hz / 1e9:g}GHz"
    lines = (tmp_path / f"cdf_dnls_{label}.csv").read_text().strip().splitlines()
    assert lines[0] == "error_m,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(fr.dnls_errors_m)
    probs = [float(r[1]) for r in rows]
    assert probs == [k / len(rows) for k in range(1, len(rows) + 1)]


def test_export_round_trip_equals_report(tmp_path, tiny_sweep):
    _, report = tiny_sweep
    export_report(report, tmp_path)

    p_fap_lines = (tmp_path / "p_fap.csv").read_text().strip().splitlines()[1:]
    assert len(p_fap_lines) == len(report.frequencies)
    for line, fr in zip(p_fap_lines, report.frequencies):
        vals = [float(v) for v in line.split(",")]
        assert vals[0] == fr.frequency_hz
        assert vals[1:] == [fr.p_fap_pct[g] for g in
                            (MpcGroup.MPC1, MpcGroup.MPC2, MpcGroup.MPC3, MpcGroup.MPC4)]

    for fr in report.frequencies:
        label = f"{fr.frequency_hz / 1e9:g}GHz"
        for name, samples in (("dnls", fr.dnls_errors_m), ("lls", fr.lls_errors_m),
                              ("peb", fr.peb_m)):
            rows = (tmp_path / f"cdf_{name}_{label}.csv").read_text().strip().splitlines()[1:]
            parsed = np.array([float(r.split(",")[0]) for r in rows])
            assert np.array_equal(parsed, samples)


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------

def test_scene_json_round_trip(tmp_path):
    scene = build_default_scene()
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert scene_to_dict(loaded) == scene_to_dict(scene)
    assert loaded.anchors == scene.anchors
    assert loaded.exterior_slab.layers[0].material.a == 5.31


def test_scene_round_trip_keeps_every_field_off_its_default(tmp_path):
    base = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
    scene = dataclasses.replace(
        base,
        receiver_margin=1.5,
        receiver_height=1.2,
        radio=RadioConfig(
            bands=tuple(dataclasses.replace(b, rx_processing_gain_db=3.0 + i)
                        for i, b in enumerate(base.radio.bands)),
            bandwidth_hz=200e6,
            noise_temperature_k=300.0,
            polarization="TM",
            diffraction_loss=DiffractionLossModel(l0_db=12.0, gamma=0.5, f0_hz=2e9),
        ),
        limits=PathLimits(max_transmissions=4, max_reflections=3, max_diffractions=0,
                          min_snr_db=-5.0),
        include_ground=False,
    )
    records = [scene, scene.radio, scene.radio.diffraction_loss, scene.limits,
               *scene.radio.bands]
    for record in records:
        for f in dataclasses.fields(record):
            default = f.default_factory() if f.default_factory is not dataclasses.MISSING \
                else f.default
            assert default is dataclasses.MISSING or getattr(record, f.name) != default, f.name
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    assert load_scene(path) == scene


def test_scene_keys_with_defaults_may_be_omitted():
    scene = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
    doc = scene_to_dict(scene)
    for key in ("receiver_margin", "receiver_height", "limits", "include_ground"):
        del doc[key]
    del doc["radio"]["polarization"]
    del doc["radio"]["bands"][0]["rx_processing_gain_db"]
    assert scene_from_dict(doc) == scene


def test_scene_schema_rejected():
    with pytest.raises(ValueError):
        scene_from_dict({"schema": "nope/0"})
    with pytest.raises(ValueError, match="scene: expected an object, got list"):
        scene_from_dict([])


def test_report_json_round_trip(tiny_sweep):
    _, report = tiny_sweep
    doc = json.loads(json.dumps(report_to_dict(report)))
    back = report_from_dict(doc)
    assert report_to_dict(back) == report_to_dict(report)


def test_report_with_numpy_scalars_round_trips(tiny_sweep):
    # A NumPy scalar leaf is written as its Python value.
    _, report = tiny_sweep
    report = dataclasses.replace(report, seed=np.int64(report.seed), frequencies=[
        dataclasses.replace(fr, n_receivers=np.int64(fr.n_receivers),
                            frequency_hz=np.float32(fr.frequency_hz))
        for fr in report.frequencies])
    doc = json.loads(json.dumps(report_to_dict(report)))
    back = report_from_dict(doc)
    assert type(back.seed) is int and back.seed == report.seed
    assert [(type(fr.n_receivers), fr.n_receivers) for fr in back.frequencies] \
        == [(int, int(fr.n_receivers)) for fr in report.frequencies]
    assert report_to_dict(back) == doc


def test_report_diagnostics_count_every_dnls_problem(tiny_sweep):
    cfg, report = tiny_sweep
    again = run_sweep(SweepConfig(scene=cfg.scene, frequencies_hz=cfg.frequencies_hz,
                                  seed=cfg.seed))
    for fr, fr_again in zip(report.frequencies, again.frequencies):
        rungs = fr.diagnostics.dnls_rung
        assert len(rungs) == 3 and sum(rungs) == len(fr.dnls_errors_m)
        problems = len(fr.dnls_errors_m) + fr.exclusions["dnls_failed"]
        assert fr.diagnostics.dnls_iterations >= problems
        assert fr_again.diagnostics == fr.diagnostics


@pytest.mark.parametrize("permutation", [(3, 1, 0, 2), (1, 2, 3, 0)])
def test_noiseless_sweep_does_not_depend_on_anchor_order(permutation):
    # The per-receiver path table stacks the anchors in scene order and the
    # sweep reads it back per anchor; permuting the anchors must only permute
    # the rows, so the report is the same up to the rounding of the solvers.
    scene = build_default_scene(grid_spacing=6.0, receiver_floors=(3,))
    permuted = dataclasses.replace(scene, anchors=tuple(scene.anchors[a] for a in permutation))
    reports = [run_sweep(SweepConfig(scene=s, frequencies_hz=(0.7e9, 28e9), noiseless=True))
               for s in (scene, permuted)]
    for fr, fp in zip(*(r.frequencies for r in reports)):
        assert fr.p_fap_pct == fp.p_fap_pct
        assert fr.exclusions == fp.exclusions
        assert fr.diagnostics == fp.diagnostics
        assert fr.fap_snr_quartiles_db == fp.fap_snr_quartiles_db
        for want, got in ((fr.dnls_errors_m, fp.dnls_errors_m),
                          (fr.lls_errors_m, fp.lls_errors_m), (fr.peb_m, fp.peb_m)):
            assert want.shape == got.shape and want.size
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def mirrored_in_x(scene):
    """The scene mirrored about its mid-plane x = footprint_x / 2: windows,
    interior walls and anchors, each keeping its index."""
    lx = scene.footprint_x

    def mirror(rect):  # a WindowRect or an InteriorWall
        if rect.axis == "x":
            return dataclasses.replace(rect, coord=lx - rect.coord)
        return dataclasses.replace(rect, u_lo=lx - rect.u_hi, u_hi=lx - rect.u_lo)

    return dataclasses.replace(scene, windows=tuple(map(mirror, scene.windows)),
                               interior_walls=tuple(map(mirror, scene.interior_walls)),
                               anchors=tuple((lx - x, y, z) for x, y, z in scene.anchors))


def test_noiseless_sweep_does_not_depend_on_a_mirror_image_of_the_scene():
    # Mirroring the building, its walls and its anchors about x = 15 m maps
    # the receiver grid onto itself (x = 1, 8, ..., 29), so every receiver's
    # paths are the mirror image of another's: the report is the same up to
    # the rounding of the solvers. The mirrored walls keep their indices, so
    # each leg's slab losses add in the same order. No leg of this grid runs
    # through a surface's boundary line, which the two directions could
    # count differently.
    scene = build_default_scene(grid_spacing=7.0, receiver_floors=(3,))
    mirrored = mirrored_in_x(scene)
    xs = receiver_grid(scene)[:, 0].tolist()
    assert sorted(xs) == sorted(scene.footprint_x - x for x in xs)
    assert len(set(xs)) == 5 and scene.windows != mirrored.windows
    reports = [run_sweep(SweepConfig(scene=s, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ,
                                     noiseless=True))
               for s in (scene, mirrored)]
    for fr, fm in zip(*(r.frequencies for r in reports)):
        assert fr.p_fap_pct == fm.p_fap_pct
        assert fr.exclusions == fm.exclusions
        assert fr.diagnostics == fm.diagnostics
        assert fr.fap_snr_quartiles_db == fm.fap_snr_quartiles_db
        for want, got in ((fr.dnls_errors_m, fm.dnls_errors_m),
                          (fr.lls_errors_m, fm.lls_errors_m), (fr.peb_m, fm.peb_m)):
            assert want.shape == got.shape and want.size
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def fap_counts(fr, n_anchors):
    """FAP count per group of a frequency report, from its shares."""
    total = (fr.n_receivers - fr.exclusions["no_detection"]) * n_anchors
    counts = {g: pct * total / 100.0 for g, pct in fr.p_fap_pct.items()}
    assert all(abs(c - round(c)) < 1e-9 for c in counts.values())
    return {g: round(c) for g, c in counts.items()}


def test_noiseless_sweep_over_floors_merges_the_sweeps_of_each_floor():
    # A receiver's results do not depend on the other receivers of its
    # sweep, nor on where its problems sit in the LLS, D-NLS and bound
    # queues: the sweep over floors 3 and 4 is the two one-floor sweeps
    # merged, error samples bit for bit.
    reports = [run_sweep(SweepConfig(
        scene=build_default_scene(grid_spacing=10.0, receiver_floors=floors),
        frequencies_hz=(3.5e9, 28e9), noiseless=True)) for floors in ((3, 4), (3,), (4,))]
    n_anchors = len(build_default_scene().anchors)
    for both, *single in zip(*(r.frequencies for r in reports)):
        for name in ("dnls_errors_m", "lls_errors_m", "peb_m"):
            merged = np.sort(np.concatenate([getattr(fr, name) for fr in single]))
            assert np.array_equal(getattr(both, name), merged), name
        assert both.dnls_errors_m.size and both.peb_m.size
        for key in both.exclusions:
            assert both.exclusions[key] == sum(fr.exclusions[key] for fr in single)
        assert both.n_receivers == sum(fr.n_receivers for fr in single)
        assert both.n_pairs == sum(fr.n_pairs for fr in single)
        assert both.diagnostics.dnls_rung == tuple(
            sum(fr.diagnostics.dnls_rung[k] for fr in single) for k in range(3))
        assert both.diagnostics.dnls_iterations == sum(
            fr.diagnostics.dnls_iterations for fr in single)
        counts = [fap_counts(fr, n_anchors) for fr in (both, *single)]
        assert counts[0] == {g: counts[1][g] + counts[2][g] for g in counts[0]}


def recorded_batches(monkeypatch):
    """Record, in lists returned, the cells each block of run_sweep yields
    and the problems of each dnls_ladder call."""
    import diffpos.experiments as experiments

    cells, calls = [], []
    faps, ladder = experiments._receiver_faps, experiments.dnls_ladder

    def block_cells(*args):
        found = faps(*args)
        cells.append(len(found.freq))
        return found

    def batch_ladder(table, anchors, edge_ids, *rest):
        calls.append(len(edge_ids))
        return ladder(table, anchors, edge_ids, *rest)

    monkeypatch.setattr(experiments, "_receiver_faps", block_cells)
    monkeypatch.setattr(experiments, "dnls_ladder", batch_ladder)
    return cells, calls


def counted_blocks(monkeypatch):
    """Record, in the list returned, the receivers of each path table that
    run_sweep builds."""
    import diffpos.experiments as experiments

    table, blocks = experiments.path_table, []
    monkeypatch.setattr(experiments, "path_table",
                        lambda s, a, rx, g: blocks.append(len(rx)) or table(s, a, rx, g))
    return blocks


def candidate_rows(scene):
    """Candidate path rows of one receiver of the scene to all its anchors."""
    geom = build_scene_geometry(scene)
    return len(scene.anchors) * (1 + len(geom.reflector_slabs) + len(geom.edge_table.x1))


def test_dnls_batch_size_does_not_change_the_report(tiny_sweep, monkeypatch):
    import diffpos.experiments as experiments

    cfg, report = tiny_sweep
    # Blocks of two receivers, so that batches gather cells of several blocks.
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", 2 * candidate_rows(cfg.scene))
    monkeypatch.setattr(experiments, "_DNLS_BATCH", 3)
    cells, calls = recorded_batches(monkeypatch)
    chunked = run_sweep(cfg)
    problems = sum(len(fr.dnls_errors_m) + fr.exclusions["dnls_failed"]
                   for fr in report.frequencies)
    # A batch is solved once at least three cells wait, and after the last
    # block.
    batches, waiting = [], 0
    for i, n in enumerate(cells):
        waiting += n
        if waiting >= 3 or i == len(cells) - 1:
            batches, waiting = batches + [waiting], 0
    assert calls == batches and sum(calls) == problems and len(calls) > 2
    assert min(calls[:-1]) >= 3 and max(calls) > 3
    assert json.dumps(report_to_dict(chunked)) == json.dumps(report_to_dict(report))


@pytest.mark.parametrize("trials", [2, 3])
def test_dnls_batch_size_does_not_change_the_report_over_trials(trials, monkeypatch):
    # With one receiver per block, each block yields at most one cell at one
    # frequency: a batch is max(1, _DNLS_BATCH // trials) cells, one cell
    # when _DNLS_BATCH < trials, and every dnls_ladder call covers whole
    # cells, all trials of each.
    import diffpos.experiments as experiments

    scene = build_default_scene(grid_spacing=6.0, receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=(28e9,), trials=trials, seed=0)
    report = json.dumps(report_to_dict(run_sweep(cfg)))
    monkeypatch.setattr(experiments, "_BLOCK_ROWS", 1)
    cells, calls = recorded_batches(monkeypatch)
    for size, batch in ((trials - 1, 1), (trials, 1), (2 * trials + 1, 2), (5 * trials, 5)):
        cells.clear()
        calls.clear()
        monkeypatch.setattr(experiments, "_DNLS_BATCH", size)
        assert json.dumps(report_to_dict(run_sweep(cfg))) == report
        assert len(cells) == len(receiver_grid(scene)) and max(cells) == 1
        assert all(n == batch * trials for n in calls[:-1]) and len(calls) > 2
        assert 0 <= calls[-1] <= batch * trials and calls[-1] % trials == 0
        assert sum(calls) == sum(cells) * trials


@pytest.mark.parametrize("grid_spacing, sweep", [
    (10.0, {"frequencies_hz": DEFAULT_FREQUENCY_LADDER_HZ}),
    (10.0, {"frequencies_hz": DEFAULT_FREQUENCY_LADDER_HZ, "noiseless": True}),
    (6.0, {"frequencies_hz": (28e9,), "trials": 2}),
], ids=["ladder", "ladder_noiseless", "trials"])
def test_block_size_does_not_change_the_report(grid_spacing, sweep, monkeypatch):
    # The receiver loop runs block by block; blocks of one, two and seven
    # receivers and of the whole sweep give byte-identical reports.
    import diffpos.experiments as experiments

    scene = build_default_scene(grid_spacing=grid_spacing, receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, seed=0, **sweep)
    n_receivers = len(receiver_grid(scene))
    rows = candidate_rows(scene)
    blocks = counted_blocks(monkeypatch)
    reports = []
    for size in (1, 2, 7, n_receivers):
        blocks.clear()
        monkeypatch.setattr(experiments, "_BLOCK_ROWS", size * rows + rows - 1)
        reports.append(json.dumps(report_to_dict(run_sweep(cfg))))
        assert sum(blocks) == n_receivers and blocks[0] == min(size, n_receivers)
        assert len(blocks) == -(-n_receivers // size)
    assert all(report == reports[0] for report in reports[1:])


@pytest.mark.parametrize("grid_spacing, frequencies_hz, n_receivers", [
    (10.0, DEFAULT_FREQUENCY_LADDER_HZ, 6),
    (6.0, (28e9,), 20),
], ids=["ladder", "28GHz"])
def test_default_block_bound_groups_receivers(grid_spacing, frequencies_hz, n_receivers,
                                              monkeypatch):
    # The default bound counts candidate rows alone, so the 7-frequency
    # ladder builds fewer path tables than it has receivers, and one
    # frequency builds no more than blocks of four receivers would.
    scene = build_default_scene(grid_spacing=grid_spacing, receiver_floors=(3,))
    assert len(receiver_grid(scene)) == n_receivers
    blocks = counted_blocks(monkeypatch)
    run_sweep(SweepConfig(scene=scene, frequencies_hz=frequencies_hz, seed=0))
    assert sum(blocks) == n_receivers and len(blocks) <= 5


def test_report_json_round_trip_keeps_diagnostics_and_accepts_none(tiny_sweep):
    _, report = tiny_sweep
    doc = json.loads(json.dumps(report_to_dict(report)))
    assert [fr["diagnostics"] for fr in doc["frequencies"]] \
        == [{"dnls_rung": list(fr.diagnostics.dnls_rung),
             "dnls_iterations": fr.diagnostics.dnls_iterations} for fr in report.frequencies]
    assert [fr.diagnostics for fr in report_from_dict(doc).frequencies] \
        == [fr.diagnostics for fr in report.frequencies]

    for fr in doc["frequencies"]:
        del fr["diagnostics"]
    back = report_from_dict(doc)
    assert all(fr.diagnostics is None for fr in back.frequencies)
    assert report_to_dict(back) == doc


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_scene_and_sweep_and_report(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    rc = cli_main(["scene", "--out", str(scene_path), "--grid-spacing", "8.0",
                   "--floors", "3"])
    assert rc == 0
    assert scene_path.exists()

    out_dir = tmp_path / "out"
    rc = cli_main(["sweep", "--scene", str(scene_path), "--out", str(out_dir),
                   "--seed", "4", "--frequencies", "3.5e9", "28e9"])
    assert rc == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "p_fap.csv").exists()
    captured = capsys.readouterr()
    assert "MPC3" in captured.out

    redo_dir = tmp_path / "redo"
    rc = cli_main(["report", "--report", str(out_dir / "report.json"),
                   "--out", str(redo_dir)])
    assert rc == 0
    for path in sorted(out_dir.glob("*.csv")):
        assert (redo_dir / path.name).read_bytes() == path.read_bytes()


def test_cli_sweep_out_of_band_is_an_error_line(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli_main(["sweep", "--out", str(out_dir), "--frequencies", "3.5e9", "80e9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "outside every configured band" in err
    assert not out_dir.exists()


def test_cli_sweep_colliding_labels_is_an_error_line(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli_main(["sweep", "--out", str(out_dir), "--frequencies", "28e9", "28.0000004e9"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: frequencies 28000000000.0 and 28000000400.0 Hz"
                                       " share the CSV label 28GHz\n")
    assert not out_dir.exists()


def test_cli_report_colliding_labels_is_an_error_line(tmp_path, capsys, tiny_sweep):
    doc = report_to_dict(tiny_sweep[1])
    doc["frequencies"][1]["frequency_hz"] = 3.5000001e9
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = cli_main(["report", "--report", str(path), "--out", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == ("error: frequencies 3500000000.0 and 3500000100.0 Hz"
                                       " share the CSV label 3.5GHz\n")
    assert not out_dir.exists()


def test_cli_scene_repeated_floor_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "scene.json"
    rc = cli_main(["scene", "--out", str(out), "--floors", "3", "3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: receiver floor 3 is listed twice\n"
    assert not out.exists()


def test_cli_error_deep_in_the_sweep_is_an_error_line(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise ValueError("linear SNRs must be positive and finite; row 0 is not")

    monkeypatch.setattr("diffpos.cli.run_sweep", fail)
    out_dir = tmp_path / "out"
    rc = cli_main(["sweep", "--out", str(out_dir), "--frequencies", "28e9"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: linear SNRs must be positive and finite;"
                                       " row 0 is not\n")
    assert not out_dir.exists()


def test_cli_sweep_negative_seed_is_an_error_line(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = cli_main(["sweep", "--out", str(out_dir), "--seed", "-3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not out_dir.exists()


def test_cli_sweep_infinite_t_fap_is_an_error_line(tmp_path, capsys):
    # report.json holds finite numbers only: `diffpos report` refuses "t_fap_db": Infinity.
    out_dir = tmp_path / "out"
    rc = cli_main(["sweep", "--out", str(out_dir), "--t-fap", "inf"])
    assert rc == 1
    assert capsys.readouterr().err == "error: t_fap_db must be >= 0 dB and finite, got inf\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("record, key, message", [
    ("windows", "colour", "windows[0]: unexpected key 'colour'"),
    ("interior_walls", "colour", "interior_walls[0]: unexpected key 'colour'"),
    ("bands", "colour", "radio.bands[0]: unexpected key 'colour'"),
    ("layers", "colour", "exterior_slab.layers[0]: unexpected key 'colour'"),
    ("limits", "max_bounces", "limits: unexpected key 'max_bounces'"),
    ("diffraction_loss", "colour", "radio.diffraction_loss: unexpected key 'colour'"),
    ("windows", None, "windows[0]: missing key 'z_hi'"),
], ids=["window_extra_key", "wall_extra_key", "band_extra_key", "slab_layer_extra_key",
        "limits_extra_key", "diffraction_loss_extra_key", "window_missing_key"])
def test_cli_sweep_bad_scene_record_is_an_error_line(tmp_path, capsys, record, key, message):
    doc = scene_to_dict(build_default_scene(grid_spacing=8.0, receiver_floors=(3,)))
    target = {
        "windows": doc["windows"][0],
        "interior_walls": doc["interior_walls"][0],
        "bands": doc["radio"]["bands"][0],
        "layers": doc["exterior_slab"]["layers"][0],
        "limits": doc["limits"],
        "diffraction_loss": doc["radio"]["diffraction_loss"],
    }[record]
    if key is None:
        del target["z_hi"]
    else:
        target[key] = 1
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = cli_main(["sweep", "--scene", str(scene_path), "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


def _within(seconds: float, func, *args):
    """``func(*args)``, run on a daemon thread, so that a call that hangs in C
    code (as lstsq did on an overflowed design) fails the test after
    ``seconds`` instead of stalling the suite."""
    out = []
    worker = threading.Thread(target=lambda: out.append(func(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        pytest.fail(f"still running after {seconds} s")
    return out[0]


def _set(path, value):
    """A change to a scene document: set the value at ``path``, a list of
    keys and indices."""
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return change


@pytest.mark.parametrize("change, message", [
    (_set(["windows"], 5), "windows: expected a list, got int"),
    (_set(["radio"], []), "radio: expected an object, got list"),
    (_set(["anchors"], [5]), "anchors[0]: expected a list, got int"),
    (_set(["anchors", 1], [7.5, -20.0]), "anchors[1]: expected 3 items, got 2"),
    (_set(["colour"], "grey"), "scene: unexpected key 'colour'"),
    (_set(["radio", "colour"], "grey"), "radio: unexpected key 'colour'"),
    (_set(["footprint_x"], "30"), "footprint_x: expected a number, got str"),
    (_set(["floor_count"], 7.0), "floor_count: expected an integer, got float"),
    (_set(["include_ground"], 1), "include_ground: expected a boolean, got int"),
    (_set(["windows", 3, "u_lo"], True), "windows[3].u_lo: expected a number, got bool"),
    (_set(["radio", "polarization"], "XY"), "polarization must be 'TE' or 'TM', got 'XY'"),
    (_set(["radio", "noise_temperature_k"], -5), "noise temperature must be positive, got -5 K"),
    (_set(["radio", "diffraction_loss", "f0_hz"], 0),
     "diffraction loss f0_hz must be positive, got 0 Hz"),
    (_set(["radio", "diffraction_loss", "l0_db"], math.nan),
     "radio.diffraction_loss.l0_db: expected a finite number, got nan"),
    (_set(["anchors", 2, 1], math.inf), "anchors[2][1]: expected a finite number, got inf"),
    (_set(["windows", 3, "z_lo"], -math.inf),
     "windows[3].z_lo: expected a finite number, got -inf"),
    (_set(["receiver_floors"], [3, 3]), "receiver floor 3 is listed twice"),
    (_set(["receiver_margin"], -4), "receiver_margin must be positive, got -4 m"),
    (_set(["receiver_height"], 4.5), "receiver_height must lie in (0, 3) m, got 4.5 m"),
    (_set(["receiver_height"], 0), "receiver_height must lie in (0, 3) m, got 0 m"),
    # Finite numbers that overflowed deep in the sweep: an LLS design term,
    # on which lstsq hung, or a linear SNR.
    (_set(["anchors", 0, 0], -1e308),
     "anchors[0]: coordinates must lie within ±1e+06 m, got (-1e+308, -20.0, 3.2)"),
    (_set(["radio", "bands", 2, "tx_power_dbm"], 1e308),
     "BandPlan.tx_power_dbm must lie within ±300, got 1e+308"),
    (_set(["radio", "bands", 2, "rx_processing_gain_db"], 1e308),
     "BandPlan.rx_processing_gain_db must lie within ±300, got 1e+308"),
    (_set(["radio", "diffraction_loss", "l0_db"], -1e308),
     "DiffractionLossModel.l0_db must lie within ±300, got -1e+308"),
    (_set(["radio", "bandwidth_hz"], 1e308),
     "RadioConfig.bandwidth_hz 1e+308 and noise_temperature_k 290 give a noise floor of "
     "2906.02 dBm, not within ±300"),
    (_set(["radio", "noise_temperature_k"], 1e-300),
     "RadioConfig.bandwidth_hz 4e+08 and noise_temperature_k 1e-300 give a noise floor of "
     "-3112.27 dBm, not within ±300"),
    # Interior walls follow the rectangle rules of windows, and lie within
    # the building.
    (_set(["interior_walls", 0, "axis"], "q"), "InteriorWall.axis must be 'x' or 'y', got 'q'"),
    (_set(["interior_walls", 0, "u_lo"], 40.0),
     "InteriorWall(axis='y', coord=7.5, u_lo=40.0, u_hi=30.0, z_lo=0.0, z_hi=21.0) is empty: "
     "it needs u_lo < u_hi and z_lo < z_hi"),
    (_set(["interior_walls", 0, "coord"], 1e308),
     "interior_walls[0] extends past its facade: y must lie in [0, 20] m, u in [0, 30] m and "
     "z in [0, 21] m"),
    (_set(["interior_walls", 5, "coord"], -0.5),
     "interior_walls[5] extends past its facade: x must lie in [0, 30] m, u in [0, 20] m and "
     "z in [0, 21] m"),
    # A scene too large for its arrays is refused before any is built.
    (_set(["footprint_x"], 1e12), "footprint_x must lie in (0, 1e+06] m, got 1e+12 m"),
    (_set(["floor_count"], 10 ** 6),
     "floor_count must be at most 1,000 and floor_count × floor_height at most 1e+06 m, "
     "got 1000000 floors of 3 m"),
    (_set(["receiver_spacing"], 1e-3),
     "receiver_spacing 0.001 m gives 28001 x 18001 receivers on each of 1 floors, more than "
     "the 1,000,000 allowed"),
    # Material coefficients whose powers overflowed or divided by zero.
    (_set(["exterior_slab", "layers", 0, "material", "b"], 1e12),
     "material 'concrete': b must lie in [-10, 10], got 1000000000000.0"),
    (_set(["exterior_slab", "layers", 0, "material", "d"], 1e308),
     "material 'concrete': d must lie in [-10, 10], got 1e+308"),
    (_set(["exterior_slab", "layers", 0, "material", "a"], 1e-300),
     "material 'concrete': a must lie in [1e-06, 1e+06], got 1e-300"),
    (_set(["exterior_slab", "layers", 0, "material", "b"], -1e308),
     "material 'concrete': b must lie in [-10, 10], got -1e+308"),
    # A layer thick enough to hide every path through its wall.
    (_set(["exterior_slab", "layers", 0, "thickness_m"], 1e308),
     "SlabLayer.thickness_m must lie in (0, 1e+06] m, got 1e+308 m"),
], ids=["windows_not_a_list", "radio_not_an_object", "anchor_not_a_list",
        "anchor_of_two", "scene_extra_key", "radio_extra_key", "footprint_string",
        "floor_count_float", "include_ground_int", "window_bound_bool", "polarization_xy",
        "negative_noise_temperature", "zero_f0", "l0_nan", "anchor_infinity",
        "window_bound_minus_infinity", "repeated_receiver_floor", "receivers_outside",
        "receivers_on_next_floor", "receivers_on_slab", "anchor_far_out", "tx_power_huge",
        "processing_gain_huge", "l0_huge_negative", "bandwidth_huge",
        "noise_temperature_tiny", "wall_axis_q", "wall_u_inverted", "wall_coord_huge",
        "wall_outside_footprint", "footprint_huge", "floor_count_huge", "receiver_grid_huge",
        "slab_b_huge", "slab_d_huge", "slab_a_tiny", "slab_b_huge_negative",
        "slab_thickness_huge"])
def test_cli_sweep_bad_scene_shape_is_an_error_line(tmp_path, capsys, change, message):
    doc = scene_to_dict(build_default_scene(grid_spacing=8.0, receiver_floors=(3,)))
    change(doc)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = _within(60, cli_main, ["sweep", "--scene", str(scene_path), "--out", str(out_dir),
                                "--frequencies", "28e9"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["materials"]["concrete"].pop("d"),
     "materials.concrete: missing key 'd'"),
    (lambda doc: doc["slabs"]["interior_drywall"][1].__setitem__(0, "nope"),
     "slab 'interior_drywall': unknown material 'nope'; have ['air', 'brick', 'concrete',"
     " 'glass', 'metal', 'plasterboard', 'wood']"),
    (lambda doc: doc["slabs"].pop("exterior_concrete"),
     "unknown slab 'exterior_concrete'; have ['interior_drywall']"),
    (lambda doc: doc.__setitem__("materials", []), "materials: expected an object, got list"),
    (lambda doc: doc["materials"]["concrete"].__setitem__("a", "5"),
     "materials.concrete.a: expected a number, got str"),
    (lambda doc: doc["slabs"]["interior_drywall"][1].append(1.0),
     "slabs.interior_drywall[1]: expected 2 items, got 3"),
    (lambda doc: doc["materials"]["concrete"].__setitem__("colour", "grey"),
     "materials.concrete: unexpected key 'colour'"),
    (lambda doc: doc.__setitem__("slabz", {}), "materials file: unexpected key 'slabz'"),
    (lambda doc: doc["materials"]["concrete"].__setitem__("b", math.nan),
     "materials.concrete.b: expected a finite number, got nan"),
    (lambda doc: doc["slabs"]["interior_drywall"][1].__setitem__(1, math.inf),
     "slabs.interior_drywall[1][1]: expected a finite number, got inf"),
    (lambda doc: doc["materials"]["concrete"].__setitem__("b", 1e12),
     "material 'concrete': b must lie in [-10, 10], got 1000000000000.0"),
    (lambda doc: doc["materials"]["concrete"].__setitem__("d", 1e308),
     "material 'concrete': d must lie in [-10, 10], got 1e+308"),
    (lambda doc: doc["materials"]["concrete"].__setitem__("a", 1e-300),
     "material 'concrete': a must lie in [1e-06, 1e+06], got 1e-300"),
    (lambda doc: doc["materials"]["concrete"].__setitem__("b", -1e308),
     "material 'concrete': b must lie in [-10, 10], got -1e+308"),
    (lambda doc: doc["slabs"]["exterior_concrete"][0].__setitem__(1, 1e308),
     "slab 'exterior_concrete': SlabLayer.thickness_m must lie in (0, 1e+06] m, got 1e+308 m"),
], ids=["missing_coefficient", "unknown_material", "no_exterior_slab", "materials_not_an_object",
        "string_coefficient", "layer_not_a_pair", "material_extra_key", "file_extra_key",
        "nan_coefficient", "infinite_thickness", "b_huge", "d_huge", "a_tiny",
        "b_huge_negative", "thickness_huge"])
def test_cli_scene_bad_material_file_is_an_error_line(tmp_path, capsys, change, message):
    doc = json.loads(resources.files("diffpos").joinpath("data/materials.json")
                     .read_text(encoding="utf-8"))
    change(doc)
    materials = tmp_path / "materials.json"
    materials.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "scene.json"
    rc = cli_main(["scene", "--materials", str(materials), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sweep", "--scene"], ["scene", "--materials"]],
                         ids=["sweep_scene", "scene_materials"])
def test_cli_directory_as_input_file_is_an_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = cli_main([*argv, str(tmp_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1
    assert not out.exists()


def _bad_report(**first) -> str:
    """The JSON text of a valid two-frequency report whose first frequency
    then takes the values ``first``."""
    freq = {"frequency_hz": 28e9, "p_fap_pct": {"MPC1": 0.0, "MPC2": 0.0, "MPC3": 100.0,
                                                "MPC4": 0.0},
            "fap_snr_quartiles_db": [1.0, 2.0, 3.0], "dnls_errors_m": [0.5, 1.5],
            "lls_errors_m": [0.7, 2.0], "peb_m": [0.1, 0.2],
            "exclusions": {"no_detection": 0, "dnls_failed": 0, "lls_failed": 0,
                           "peb_singular": 0},
            "n_receivers": 2, "n_pairs": 8}
    return json.dumps({"schema": "sweep-report/1", "seed": 0, "t_fap_db": 20.0, "trials": 1,
                       "noiseless": False,
                       "frequencies": [{**freq, "frequency_hz": 3.5e9, **first}, freq]})


@pytest.mark.parametrize("text, message", [
    ('{"schema": "sweep-report/0"}', "error: unsupported report schema 'sweep-report/0'"),
    ("not json", "error: Expecting value: line 1 column 1 (char 0)"),
    ('{"schema": "sweep-report/1", "seed": 0}', "error: report: missing key 't_fap_db'"),
    ("[]", "error: report: expected an object, got list"),
    ('{"schema": "sweep-report/1", "seed": 0, "t_fap_db": 6.0, "trials": 1,'
     ' "noiseless": false, "frequencies": [1]}',
     "error: frequencies[0]: expected an object, got int"),
    (_bad_report(dnls_errors_m="0.5"),
     "error: frequencies[0].dnls_errors_m: expected a list, got str"),
    (_bad_report(peb_m=[0.1, None]),
     "error: frequencies[0].peb_m[1]: expected a number, got NoneType"),
    (_bad_report(frequency_hz="3.5e9"),
     "error: frequencies[0].frequency_hz: expected a number, got str"),
    (_bad_report(p_fap_pct={"MPC1": 0.0, "MPC2": 0.0, "MPC3": 100.0}),
     "error: frequencies[0].p_fap_pct: missing key 'MPC4'"),
    (_bad_report(p_fap_pct={"MPC1": 0.0, "MPC2": 0.0, "MPC3": 100.0, "MPC4": 0.0, "MPC5": 0.0}),
     "error: frequencies[0].p_fap_pct: unexpected key 'MPC5'"),
    (_bad_report(exclusions={"no_detection": 0, "dnls_failed": 0, "lls_failed": 0}),
     "error: frequencies[0].exclusions: missing key 'peb_singular'"),
    ('{"schema": "sweep-report/1", "seed": 0, "t_fap_db": 6.0, "trials": 1,'
     ' "noiseless": false}', "error: report: missing key 'frequencies'"),
    (_bad_report(colour="grey"), "error: frequencies[0]: unexpected key 'colour'"),
    (_bad_report(lls_errors_m=[0.7, math.inf, 2.0]),
     "error: frequencies[0].lls_errors_m[1]: expected a finite number, got inf"),
    (_bad_report(dnls_errors_m=[3.0, -1.0, 2.0]),
     "error: FrequencyReport.dnls_errors_m must be sorted ascending and >= 0"),
    (_bad_report(peb_m=[-0.1, 0.2]),
     "error: FrequencyReport.peb_m must be sorted ascending and >= 0"),
    (_bad_report(frequency_hz=10 ** 400),
     "error: frequencies[0].frequency_hz: expected a finite number, got an integer too large "
     "for a float"),
    (_bad_report(lls_errors_m=[0.7, 10 ** 400]),
     "error: frequencies[0].lls_errors_m[1]: expected a finite number, got an integer too "
     "large for a float"),
    (_bad_report(diagnostics={"dnls_rung": [{}, 0, 0], "dnls_iterations": 0}),
     "error: frequencies[0].diagnostics.dnls_rung[0]: expected an integer, got dict"),
    (_bad_report(diagnostics={"dnls_rung": [-1, 0, 0], "dnls_iterations": 0}),
     "error: Diagnostics counts must be >= 0, got Diagnostics(dnls_rung=(-1, 0, 0), "
     "dnls_iterations=0)"),
    (_bad_report(diagnostics={"dnls_rung": [1, 0], "dnls_iterations": 0}),
     "error: frequencies[0].diagnostics.dnls_rung: expected 3 items, got 2"),
    (_bad_report(diagnostics={"dnls_rung": [1, 0, 0], "dnls_iterations": ""}),
     "error: frequencies[0].diagnostics.dnls_iterations: expected an integer, got str"),
], ids=["wrong_schema", "not_json", "missing_key", "not_an_object", "frequency_not_an_object",
        "string_samples", "null_sample", "string_frequency", "missing_group", "unknown_group",
        "missing_exclusion", "no_frequencies", "unexpected_key", "infinite_sample",
        "unsorted_samples", "negative_sample", "huge_integer_frequency", "huge_integer_sample",
        "rung_not_an_integer", "rung_negative", "two_rungs", "iterations_string"])
def test_cli_report_bad_report_is_an_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    rc = cli_main(["report", "--report", str(path), "--out", str(out_dir)])
    assert rc == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["scene", "--grid-spacing", "0"], "error: receiver spacing must be positive\n"),
], ids=["scene_zero_spacing"])
def test_cli_bad_number_is_an_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "scene.json"
    rc = cli_main([argv[0], "--out", str(out), *argv[1:]])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_cli_ingest(tmp_path, capsys):
    # The whole summary of a dataset written from enumerate_mpcs, followed
    # by one record of each rejection kind.
    from conftest import write_dataset
    from diffpos.channel import enumerate_mpcs

    scene = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
    pdps = [(rx_id, enumerate_mpcs(scene, a, rx, 10e9))
            for rx_id, rx in enumerate(receiver_grid(scene)[:3]) for a in (0, 2)]
    dataset = tmp_path / "mpcs.jsonl"
    n = write_dataset(pdps, dataset)
    record = {"anchor_id": 0, "rx_id": 0, "rx_xyz": [9, 9, 9], "interactions": "Tx-Rx",
              "path_length_m": 10, "rx_power_dbm": -50}
    rejects = [{"interactions": "Tx-X-Rx"}, {"edge_id": 3}, {"path_length_m": -1},
               {"tof_s": 1e-7}, {}]
    with open(dataset, "a", encoding="utf-8") as fh:
        fh.write("".join(json.dumps({**record, **changes}) + "\n" for changes in rejects))

    rc = cli_main(["ingest", "--dataset", str(dataset)])
    assert rc == 0 and n == 85
    assert capsys.readouterr().out == (
        "85 MPCs across 6 (anchor, receiver) pairs\n"
        "  MPC1: 3\n"
        "  MPC2: 1\n"
        "  MPC3: 72\n"
        "  MPC4: 9\n"
        "5 rejected records:\n"
        "  line 87: unknown interaction symbol 'X' in 'Tx-X-Rx'\n"
        "  line 88: edge_id 3 on Tx-Rx, which diffracts nowhere\n"
        "  line 89: negative path length -1.0\n"
        "  line 90: tof 1e-07 inconsistent with length 10.0\n"
        "  line 91: rx_xyz [9.0, 9.0, 9.0] of anchor 0, rx 0 differs from its first "
        "[1.0, 1.0, 7.5]\n")


def _repeat_key(text: str, key: str) -> str:
    """The JSON text ``text`` with ``"key": 12.0`` put before the first
    ``"key":`` in it, so that one object names ``key`` twice."""
    at = text.index(f"{json.dumps(key)}:")
    return f"{text[:at]}{json.dumps(key)}: 12.0, {text[at:]}"


@pytest.mark.parametrize("kind, key, where", [
    ("scene", "footprint_x", ""),
    ("report", "n_pairs", ""),
    ("materials", "a", ""),
    ("dataset", "path_length_m", "line 2: "),
], ids=["scene", "report", "materials", "dataset"])
def test_cli_repeated_json_key_is_an_error_line(tmp_path, capsys, kind, key, where):
    # json keeps the last of two values of a key; every file the CLI reads
    # refuses the object instead, naming the key (and a dataset's line).
    text = {
        "scene": lambda: json.dumps(scene_to_dict(build_default_scene(grid_spacing=10.0,
                                                                      receiver_floors=(3,)))),
        "report": _bad_report,
        "materials": lambda: resources.files("diffpos").joinpath("data/materials.json")
                                      .read_text(encoding="utf-8"),
        "dataset": lambda: '{"schema": "mpc-dataset/1"}\n' + json.dumps(
            {"anchor_id": 0, "rx_id": 0, "rx_xyz": [0.0, 0.0, 0.0], "interactions": "Tx-Rx",
             "path_length_m": 10.0, "rx_power_dbm": -50.0}) + "\n",
    }[kind]()
    path, out = tmp_path / f"{kind}.json", tmp_path / "out"
    path.write_text(_repeat_key(text, key), encoding="utf-8")
    argv = {"scene": ["sweep", "--scene", str(path), "--frequencies", "28e9", "--out", str(out)],
            "report": ["report", "--report", str(path), "--out", str(out)],
            "materials": ["scene", "--materials", str(path), "--out", str(out)],
            "dataset": ["ingest", "--dataset", str(path)]}[kind]
    rc = cli_main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {where}repeated key {key!r}\n"
    assert not out.exists()


def test_cli_ingest_bad_input(tmp_path, capsys):
    rc = cli_main(["ingest", "--dataset", str(tmp_path / "missing.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "wrong/1"}\n')
    rc = cli_main(["ingest", "--dataset", str(bad)])
    assert rc == 1
    assert "schema" in capsys.readouterr().err
