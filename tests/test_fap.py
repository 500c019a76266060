"""FAP selection and ranging-bound tests."""

import math

import numpy as np
import pytest

from diffpos.constants import SPEED_OF_LIGHT
from diffpos.channel import Mpc, Pdp, classify_mpc
from diffpos.fap import (
    NoDetectionError,
    fap_rows,
    mean_squared_bandwidth,
    range_sigma_m,
    ranging_crlb_std_seconds,
    select_fap,
)
from diffpos.geometry import Point3

RNG = np.random.default_rng(7)
BANDWIDTH_HZ = 400e6


def mk_mpc(length: float, snr: float, interactions=("T",)) -> Mpc:
    return Mpc(
        interactions=tuple(interactions),
        path_length_m=length,
        tof_s=length / SPEED_OF_LIGHT,
        rx_power_dbm=snr - 87.95,
        snr_db=snr,
        anchor_id=0,
        group=classify_mpc(interactions),
    )


def mk_pdp(specs) -> Pdp:
    mpcs = sorted((mk_mpc(l, s) for l, s in specs), key=lambda m: m.tof_s)
    return Pdp(mpcs, Point3(0, 0, 0), anchor_id=0)


# ---------------------------------------------------------------------------
# FAP selection
# ---------------------------------------------------------------------------

def test_select_fap_basic_rule():
    sel = select_fap(mk_pdp([(10.0, 25.0), (12.0, 30.0)]), t_fap_db=20.0)
    assert sel.s_max_db == 30.0
    assert sel.threshold_db == 10.0
    assert sel.chosen.path_length_m == 10.0


def test_select_fap_excludes_weak_early_paths():
    sel = select_fap(mk_pdp([(10.0, 5.0), (11.0, 8.0), (12.0, 30.0)]), t_fap_db=20.0)
    assert sel.threshold_db == 10.0
    assert sel.chosen.path_length_m == 12.0


def test_select_fap_zero_threshold_returns_strongest():
    sel = select_fap(mk_pdp([(10.0, 5.0), (12.0, 30.0)]), t_fap_db=0.0)
    assert sel.chosen.path_length_m == 12.0
    # An equally strong earlier path wins instead.
    sel = select_fap(mk_pdp([(9.0, 30.0), (12.0, 30.0)]), t_fap_db=0.0)
    assert sel.chosen.path_length_m == 9.0


def test_select_fap_tof_tie_broken_by_snr():
    pdp = mk_pdp([(10.0, 12.0), (10.0, 22.0)])
    sel = select_fap(pdp, t_fap_db=30.0)
    assert sel.chosen.snr_db == 22.0


def test_select_fap_empty_pdp_raises():
    with pytest.raises(NoDetectionError):
        select_fap(Pdp([], Point3(0, 0, 0), anchor_id=0), 20.0)


@pytest.mark.parametrize("t_fap_db", [-1.0, -1e-12, math.nan, -math.inf])
def test_select_fap_rejects_a_bad_threshold(t_fap_db):
    # Checked before anything is selected, so an empty PDP raises it too.
    for pdp in (mk_pdp([(10.0, 25.0), (12.0, 30.0)]), Pdp([], Point3(0, 0, 0), anchor_id=0)):
        with pytest.raises(ValueError, match="^t_fap_db must be >= 0 dB"):
            select_fap(pdp, t_fap_db)


@pytest.mark.parametrize("t_fap_db", [-1.0, -1e-12, math.nan, -math.inf])
def test_fap_rows_rejects_a_bad_threshold(t_fap_db):
    # With t_fap_db = -1 no row clears the threshold, so without the check
    # position 0 would come back as the FAP.
    tof = np.array([1e-8, 2e-8])
    snr = np.array([[25.0, 30.0]])
    with pytest.raises(ValueError, match="^t_fap_db must be >= 0 dB"):
        fap_rows(tof, snr, np.ones((1, 2), dtype=bool), np.zeros(2, dtype=bool), 25, t_fap_db)


def test_select_fap_monotone_in_threshold():
    # Raising t_fap never selects a later-arriving FAP.
    for _ in range(200):
        n = int(RNG.integers(1, 12))
        specs = [(float(RNG.uniform(5, 50)), float(RNG.uniform(-5, 40))) for _ in range(n)]
        pdp = mk_pdp(specs)
        tofs = []
        for t_fap in (0.0, 5.0, 10.0, 20.0, 40.0):
            tofs.append(select_fap(pdp, t_fap).chosen.tof_s)
        assert all(b <= a + 1e-18 for a, b in zip(tofs, tofs[1:]))


def test_select_fap_permutation_invariant():
    specs = [(float(RNG.uniform(5, 50)), float(RNG.uniform(-5, 40))) for _ in range(10)]
    pdp = mk_pdp(specs)
    base = select_fap(pdp, 15.0).chosen
    for _ in range(10):
        perm = list(pdp.mpcs)
        RNG.shuffle(perm)
        perm.sort(key=lambda m: m.tof_s)
        again = select_fap(Pdp(perm, pdp.rx, 0), 15.0).chosen
        assert again.path_length_m == base.path_length_m
        assert again.snr_db == base.snr_db


# ---------------------------------------------------------------------------
# Mean squared bandwidth
# ---------------------------------------------------------------------------

def test_msb_flat_400mhz():
    # Oracle: closed-form second moment of a flat spectrum, B^2/12.
    assert mean_squared_bandwidth(BANDWIDTH_HZ) == pytest.approx(1.3333333333333334e16, rel=1e-12)


# ---------------------------------------------------------------------------
# Ranging bound
# ---------------------------------------------------------------------------

def test_crlb_std_at_10db():
    # Oracle: 1/sqrt(8 pi^2 * (400e6)^2/12 * 10) = 3.082e-10 s, i.e. 9.24 cm.
    beta_sq = mean_squared_bandwidth(BANDWIDTH_HZ)
    std = ranging_crlb_std_seconds(beta_sq, 10.0)
    assert std == pytest.approx(3.082022220307499e-10, rel=1e-12)
    assert range_sigma_m(beta_sq, 10.0) == pytest.approx(0.09239670170366027, rel=1e-12)


def test_crlb_scalings():
    beta_sq = mean_squared_bandwidth(400e6)
    base = ranging_crlb_std_seconds(beta_sq, 10.0)
    assert ranging_crlb_std_seconds(beta_sq, 40.0) == pytest.approx(base / 2, rel=1e-12)
    assert ranging_crlb_std_seconds(mean_squared_bandwidth(800e6), 10.0) == pytest.approx(
        base / 2, rel=1e-12)


def test_crlb_monotone_decreasing():
    beta_sq = mean_squared_bandwidth(400e6)
    snrs = np.geomspace(0.1, 1e4, 20)
    stds = [ranging_crlb_std_seconds(beta_sq, s) for s in snrs]
    assert all(b < a for a, b in zip(stds, stds[1:]))
    betas = np.geomspace(1e12, 1e18, 20)
    stds = [ranging_crlb_std_seconds(b, 10.0) for b in betas]
    assert all(b < a for a, b in zip(stds, stds[1:]))


def test_crlb_rejects_nonpositive():
    with pytest.raises(ValueError):
        ranging_crlb_std_seconds(0.0, 10.0)
    with pytest.raises(ValueError):
        ranging_crlb_std_seconds(1e16, 0.0)



def test_range_sigma_of_arrays_equals_scalar_calls_bit_for_bit():
    # The FAP SNRs of every cell of the 6 m grid's 28 GHz sweep, in linear
    # scale as the sweep takes them, with the beta^2 of each cell as a
    # column: the array form equals one scalar call per entry, and the
    # scalar call is the math-module formula.
    from diffpos.channel import build_scene_geometry, path_table, receiver_grid
    from diffpos.experiments import (SweepConfig, _nearest_edges, _receiver_faps,
                                     build_default_scene)

    scene = build_default_scene(grid_spacing=6.0, receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=(28e9,))
    geom = build_scene_geometry(scene)
    anchors = np.asarray(scene.anchors, dtype=float)
    block = path_table(scene, range(len(anchors)), receiver_grid(scene), geom)
    cells = _receiver_faps(block, block.losses(cfg.frequencies_hz), cfg,
                           _nearest_edges(geom, anchors), 0)
    snr = 10 ** (cells.snr_db / 10)
    assert snr.shape == (20, 4)
    beta_sq = mean_squared_bandwidth(scene.radio.bandwidth_hz)
    sigma = range_sigma_m(np.full((len(snr), 1), beta_sq), snr)
    scalar = np.array([[range_sigma_m(beta_sq, s) for s in row] for row in snr.tolist()])
    formula = np.array([[SPEED_OF_LIGHT * (1.0 / math.sqrt(8.0 * math.pi ** 2 * beta_sq * s))
                         for s in row] for row in snr.tolist()])
    assert sigma.shape == snr.shape
    assert sigma.tobytes() == scalar.tobytes() == formula.tobytes()
    assert range_sigma_m(beta_sq, snr).tobytes() == sigma.tobytes()

    with pytest.raises(ValueError, match="snr must be positive"):
        range_sigma_m(beta_sq, np.where(np.arange(snr.size).reshape(snr.shape) == 5, 0.0, snr))
    with pytest.raises(ValueError, match="snr must be positive"):
        range_sigma_m(beta_sq, np.array([10.0, -1.0, np.nan]))
    with pytest.raises(ValueError, match=r"beta\^2 must be positive"):
        range_sigma_m(np.array([[beta_sq], [0.0]]), snr[:2])
    with pytest.raises(ValueError, match=r"beta\^2 must be positive"):
        ranging_crlb_std_seconds(np.array([beta_sq, -beta_sq]), 10.0)
