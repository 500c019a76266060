"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria cover the
geometric kernel against brute-force oracles, estimator consistency and
efficiency against the error bound, material physics, the frequency trend of
first-arriving-path groups, the estimator crossover, determinism, and the
dataset round trip.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import scalar_edge
from conftest import (
    Problem,
    bounds_of,
    edges_of,
    ladder,
    pack,
    random_positioning_instance,
    write_dataset,
)
from diffpos.channel import (
    MpcGroup,
    SceneGeometry,
    enumerate_mpcs,
    ingest_dataset,
    receiver_grid,
    truncate_top_k,
)
from diffpos.constants import SPEED_OF_LIGHT, VACUUM_PERMEABILITY, VACUUM_PERMITTIVITY
from diffpos.experiments import (
    SweepConfig,
    build_default_scene,
    export_report,
    run_sweep,
)
from diffpos.fap import mean_squared_bandwidth, range_sigma_m, ranging_crlb_std_seconds
from diffpos.materials import default_material_library, transmission_loss_db
from diffpos.positioning import _model_rows, lls_solve

BETA_SQ_400MHZ = mean_squared_bandwidth(400e6)
# Box of the D-NLS retry ladder's last rung; it holds every receiver of
# random_positioning_instance.
LADDER_BOUNDS = (np.zeros(3), np.full(3, 20.0))


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


@pytest.fixture(scope="module")
def default_sweep():
    """Desk-scale default sweep shared by the trend and crossover criteria."""
    scene = build_default_scene()
    cfg = SweepConfig(scene=scene, seed=0, t_fap_db=20.0)
    start = time.perf_counter()
    report = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return report, elapsed


# ---------------------------------------------------------------------------
# 1. Diffraction point vs golden-section Fermat oracle
# ---------------------------------------------------------------------------

def golden_oracle_length(tx, rx, table) -> float:
    """Golden-section minimum of the two-leg length on the table's first edge."""
    t = scalar_edge.to_local(table, 0, tx)
    r = scalar_edge.to_local(table, 0, rx)
    x1, x2, z_e = table.x1[0], table.x2[0], table.z_e[0]

    def length(lam):
        qx = x2 + lam * (x1 - x2)
        q = np.array([qx, 0.0, z_e])
        return math.dist(t, q) + math.dist(q, r)

    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = length(c), length(d)
    for _ in range(200):
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


def test_criterion_1_diffraction_point_vs_oracle():
    with criterion(1, "diffraction path length matches 1D Fermat oracle (1e-9 rel, <5 s)"):
        rng = np.random.default_rng(101)
        cases = []
        for _ in range(1000):
            edge = edges_of(rng.uniform(-10, 0), rng.uniform(0.5, 10),
                            rng.uniform(-5, 15), rng.uniform(0.2, 3.0))
            tx = np.array([rng.uniform(-15, 15), rng.uniform(1, 30), rng.uniform(-10, 25)])
            rx = np.array([rng.uniform(-15, 15), rng.uniform(-30, -1), rng.uniform(-10, 25)])
            cases.append((tx, rx, edge))

        start = time.perf_counter()
        lengths = [SceneGeometry([], edge, None).diffractions(tx, rx).length[0]
                   for tx, rx, edge in cases]
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"solver took {elapsed:.2f} s"

        for (tx, rx, edge), got in zip(cases, lengths):
            expect = golden_oracle_length(tx, rx, edge)
            assert abs(got - expect) <= 1e-9 * expect


# ---------------------------------------------------------------------------
# 2. Jacobian vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_2_jacobian_vs_finite_differences():
    with criterion(2, "analytic Jacobian matches central differences (<=1e-6)"):
        rng = np.random.default_rng(202)
        worst = 0.0
        h = 1e-5
        for _ in range(1000):
            alpha, anchors, edges = random_positioning_instance(rng)
            meas = Problem(anchors, np.zeros(4), edges)
            analytic = _model_rows(alpha[None], pack([meas]))[1][0]
            numeric = np.empty_like(analytic)
            for i in range(3):
                up, dn = alpha.copy(), alpha.copy()
                up[i] += h
                dn[i] -= h
                for j in range(4):
                    p_up = scalar_edge.approx_diffraction_solution(anchors[j], up, edges, j)
                    p_dn = scalar_edge.approx_diffraction_solution(anchors[j], dn, edges, j)
                    numeric[i, j] = (p_up.path_length - p_dn.path_length) / (2 * h)
            worst = max(worst, float(np.max(np.abs(analytic - numeric))))
        assert worst <= 1e-6, f"max deviation {worst:.2e}"


# ---------------------------------------------------------------------------
# 3. Estimator consistency
# ---------------------------------------------------------------------------

def test_criterion_3_estimator_consistency():
    with criterion(3, "noiseless D-NLS 100/100 to 1e-6 m; noiseless LLS to 1e-9 m"):
        rng = np.random.default_rng(303)
        truths, sets, starts = [], [], []
        for _ in range(100):
            alpha, anchors, edges = random_positioning_instance(rng)
            meas = Problem(anchors, np.zeros(4), edges)
            meas.ranges = _model_rows(alpha[None], pack([meas]))[0][0]
            offset = rng.uniform(-1.0, 1.0, 3)
            offset *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(offset), 1e-9)
            truths.append(alpha)
            sets.append(meas)
            starts.append(alpha + offset)
        # Plain Gauss-Newton, the retry ladder's first rung, converges on all.
        result = ladder(sets, starts, LADDER_BOUNDS)
        assert (result.rung == 0).all()
        for alpha, estimate in zip(truths, result.alpha):
            assert np.linalg.norm(estimate - alpha) <= 1e-6

        anchors = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0],
                            [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
        for _ in range(20):
            truth = rng.uniform(1.0, 9.0, 3)
            ranges = np.linalg.norm(anchors - truth, axis=1)
            est = lls_solve(anchors, ranges)
            assert np.linalg.norm(est - truth) <= 1e-9


# ---------------------------------------------------------------------------
# 4. Bound attainment
# ---------------------------------------------------------------------------

def test_criterion_4_monte_carlo_rmse_vs_peb():
    with criterion(4, "1000-trial D-NLS RMSE within 15% of PEB at high SNR"):
        rng = np.random.default_rng(404)
        alpha, anchors, edges = random_positioning_instance(rng)
        snr_lin = 10 ** 1.6  # 16 dB
        sigma = range_sigma_m(BETA_SQ_400MHZ, snr_lin)
        assert sigma <= 0.10

        bound = bounds_of([(alpha, anchors, edges, range(4), np.full(4, snr_lin),
                            BETA_SQ_400MHZ)])[0]
        meas = Problem(anchors, np.zeros(4), edges)
        truth = _model_rows(alpha[None], pack([meas]))[0][0]
        sets = [Problem(anchors, truth + sigma * rng.standard_normal(4), edges)
                for _ in range(1000)]
        result = ladder(sets, [alpha] * len(sets), LADDER_BOUNDS)
        assert (result.rung == 0).all()
        sq_errors = np.array([np.sum((estimate - alpha) ** 2) for estimate in result.alpha])
        rmse = math.sqrt(float(np.mean(sq_errors)))
        assert abs(rmse - bound) <= 0.15 * bound, f"rmse {rmse:.4f} vs peb {bound:.4f}"
        se_rmse = float(np.std(sq_errors) / (2 * rmse * math.sqrt(len(sq_errors))))
        assert rmse >= bound - 3 * se_rmse


# ---------------------------------------------------------------------------
# 5. Ranging bound arithmetic
# ---------------------------------------------------------------------------

def test_criterion_5_ranging_crlb_arithmetic():
    with criterion(5, "ranging std 9.2 cm (+-0.1) at 400 MHz / 10 dB; exact halving at 4x SNR"):
        std_s = ranging_crlb_std_seconds(BETA_SQ_400MHZ, 10.0)
        std_cm = std_s * SPEED_OF_LIGHT * 100.0
        assert abs(std_cm - 9.2) <= 0.1, f"{std_cm:.4f} cm"
        assert ranging_crlb_std_seconds(BETA_SQ_400MHZ, 40.0) == 0.5 * std_s


# ---------------------------------------------------------------------------
# 6. Frequency trend of the FAP group mix
# ---------------------------------------------------------------------------

def test_criterion_6_frequency_trend(default_sweep):
    with criterion(6, "MPC3 FAP fraction monotone in f; top frequency MPC3 > MPC1; <10 min"):
        report, elapsed = default_sweep
        assert elapsed < 600.0, f"sweep took {elapsed:.0f} s"
        fractions = [fr.p_fap_pct[MpcGroup.MPC3] for fr in report.frequencies]
        assert all(b >= a for a, b in zip(fractions, fractions[1:])), fractions
        top = report.frequencies[-1]
        assert top.p_fap_pct[MpcGroup.MPC3] > top.p_fap_pct[MpcGroup.MPC1]


# ---------------------------------------------------------------------------
# 7. Estimator crossover between ladder ends
# ---------------------------------------------------------------------------

def test_criterion_7_positioning_crossover(default_sweep):
    with criterion(7, "D-NLS < LLS median at top frequency; LLS <= D-NLS at bottom"):
        report, _ = default_sweep
        bottom, top = report.frequencies[0], report.frequencies[-1]
        assert float(np.median(top.dnls_errors_m)) < float(np.median(top.lls_errors_m))
        assert float(np.median(bottom.lls_errors_m)) <= float(np.median(bottom.dnls_errors_m))


# ---------------------------------------------------------------------------
# 8. Transmission-loss physics
# ---------------------------------------------------------------------------

def test_criterion_8_transmission_loss_physics():
    with criterion(8, "30 cm concrete at 3.5 GHz within 2% of oracle; monotone in f"):
        lib = default_material_library()
        wall = lib.slab("exterior_concrete")
        drywall = lib.slab("interior_drywall")

        # Independent extended-precision oracle of the lossy-slab formula.
        concrete = lib.material("concrete")
        f = np.longdouble(3.5e9)
        eps = np.longdouble(concrete.a)
        sig = np.longdouble(concrete.c) * (f / np.longdouble(1e9)) ** np.longdouble(concrete.d)
        x = sig / (2 * np.pi * f * np.longdouble(VACUUM_PERMITTIVITY) * eps)
        oracle = float(
            np.longdouble(12.27) * np.pi * f * np.longdouble(0.30)
            * np.sqrt(np.longdouble(VACUUM_PERMEABILITY) * np.longdouble(VACUUM_PERMITTIVITY) * eps)
            * (np.sqrt(1 + x ** 2) - 1) ** np.longdouble(0.5)
        )
        got = transmission_loss_db(wall, 3.5e9)
        assert abs(got - oracle) <= 0.02 * oracle, f"{got} vs oracle {oracle}"
        assert abs(oracle - 19.1) < 0.1  # sanity anchor for the reader

        freqs = np.geomspace(1e9, 40e9, 120)
        for slab in (wall, drywall):
            losses = np.array([transmission_loss_db(slab, f) for f in freqs])
            assert np.all(np.diff(losses) > 0)


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_9_sweep_determinism(tmp_path):
    with criterion(9, "identical seed and config produce byte-identical CSV outputs"):
        scene = build_default_scene(grid_spacing=8.0, receiver_floors=(3,))
        cfg = dict(scene=scene, frequencies_hz=(3.5e9, 28e9), seed=7, trials=2)
        files_a = export_report(run_sweep(SweepConfig(**cfg)), tmp_path / "a")
        files_b = export_report(run_sweep(SweepConfig(**cfg)), tmp_path / "b")
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()


# ---------------------------------------------------------------------------
# 10. Dataset round trip
# ---------------------------------------------------------------------------

def test_criterion_10_dataset_round_trip(tmp_path):
    with criterion(10, "write -> ingest of 1e4 MPC records is lossless"):
        scene = build_default_scene(grid_spacing=2.0, receiver_floors=(3, 4))
        pdps = []
        total = 0
        for rx_id, rx in enumerate(receiver_grid(scene)):
            for a in range(4):
                pdp = enumerate_mpcs(scene, a, rx, 10e9)
                pdps.append((rx_id, pdp))
                total += len(pdp)
            if total >= 10_000:
                break
        assert total >= 10_000

        path = tmp_path / "mpcs.jsonl"
        count = write_dataset(pdps, path)
        assert count == total

        result = ingest_dataset(path)
        assert not result.rejected
        assert len(result.records) == len(result.groups) == total
        # Every written field and the group, bit for bit, in file order.
        written = [(rx_id, pdp.rx, m) for rx_id, pdp in pdps for m in pdp.mpcs]
        for (rx_id, rx, m), rec, group in zip(written, result.records, result.groups):
            assert (rec.anchor_id, rec.rx_id, rec.rx_xyz, rec.interactions, rec.path_length_m,
                    rec.rx_power_dbm, rec.tof_s, rec.edge_id, group) == \
                   (m.anchor_id, rx_id, (rx.x, rx.y, rx.z), "-".join(("Tx", *m.interactions, "Rx")),
                    m.path_length_m, m.rx_power_dbm, m.tof_s, m.edge_id, m.group)
