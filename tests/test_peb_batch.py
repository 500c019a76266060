"""Batched position error bound against the scalar body it replaced
(``scalar_bound``).

The parity cases replay the bound problems of real sweeps, captured where
``run_sweep`` hands its queue to ``peb_batch``: the 28 GHz, two-trial sweep
of the 6 m floor-3 grid and the seven-frequency ladder of the 10 m floor-3
grid, seeds 0-3. Each bound must equal the scalar one bit for bit; the
scalar body takes the problem's anchors and the rows of the scene's edge
table that its ids name.
"""

import math

import numpy as np
import pytest

import diffpos.experiments as experiments
from diffpos.channel import build_scene_geometry
from diffpos.experiments import DEFAULT_FREQUENCY_LADDER_HZ, SweepConfig, build_default_scene
from conftest import edges_of
from diffpos.positioning import SingularGeometryError, peb_batch
from scalar_bound import scalar_peb

SWEEPS = {
    "trials": dict(grid_spacing=6.0, frequencies_hz=(28e9,), trials=2),
    "ladder": dict(grid_spacing=10.0, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ, trials=1),
}


def captured_bound_problems(monkeypatch, size: str, seed: int):
    """(table, anchors, problems, edges) of one sweep: the bound problems as
    ``peb_batch`` takes them, and the scene's own edge table."""
    params = SWEEPS[size]
    scene = build_default_scene(grid_spacing=params["grid_spacing"], receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=params["frequencies_hz"], t_fap_db=20.0,
                      trials=params["trials"], seed=seed, top_k=25)
    calls = []

    def capture(table, anchors, batch):
        calls.append((table, anchors, list(batch)))
        return peb_batch(table, anchors, batch)

    monkeypatch.setattr(experiments, "peb_batch", capture)
    experiments.run_sweep(cfg)
    table, anchors = calls[0][:2]
    assert all(t is table and a is anchors for t, a, _ in calls)
    return table, anchors, [p for _, _, batch in calls for p in batch], \
        build_scene_geometry(scene).edge_table


@pytest.mark.parametrize("size", ["trials", "ladder"])
def test_peb_batch_matches_scalar_bound_on_sweep_problems(monkeypatch, size):
    problems = []
    for seed in range(4):
        table, anchors, captured, scene_edges = captured_bound_problems(monkeypatch, size, seed)
        problems += captured
    assert all(np.array_equal(a, b) for a, b in zip(table, scene_edges))
    assert len(problems) > 40
    # Beside each sweep problem: its first three anchors, its first two
    # (singular) and its first anchor four times over (singular with four
    # anchors), shuffled so that anchor counts interleave in the batch.
    mixed = []
    for alpha, anchor_ids, edge_ids, snr, beta_sq in problems:
        mixed += [(alpha, anchor_ids, edge_ids, snr, beta_sq),
                  (alpha, anchor_ids[:3], edge_ids[:3], snr[:3], beta_sq),
                  (alpha, anchor_ids[:2], edge_ids[:2], snr[:2], beta_sq),
                  (alpha, anchor_ids[:1] * 4, edge_ids[:1] * 4, snr, beta_sq)]
    order = np.random.default_rng(3).permutation(len(mixed))
    mixed = [mixed[i] for i in order]

    batch = peb_batch(table, anchors, mixed)
    assert batch.shape == (len(mixed),) and batch.dtype == float
    # inf exactly where the scalar body finds the FIM singular, and every
    # finite bound its bits.
    expect = np.array([scalar_peb(alpha, anchors[anchor_ids], scene_edges, edge_ids, snr, beta_sq)
                       for alpha, anchor_ids, edge_ids, snr, beta_sq in mixed])
    assert np.array_equal(np.isinf(batch), np.isinf(expect))
    assert batch.tobytes() == expect.tobytes()
    singular = [(len(p[1]), bool(s)) for p, s in zip(mixed, np.isinf(batch))]
    assert singular.count((4, True)) == singular.count((2, True)) == len(problems)
    assert singular.count((3, False)) > 0 and singular.count((4, False)) > 0
    # A problem solved alone equals itself in the batch.
    for i in range(0, len(mixed), 7):
        assert peb_batch(table, anchors, [mixed[i]]).tobytes() == batch[i:i + 1].tobytes()


# Edge 1 is edge 0 with a vanishing window height.
BAD_INPUT_TABLE = edges_of(-5.0, 5.0, 5.0, [1.0, 1e-13])
BAD_INPUT_ANCHORS = np.array([[0.0, 10.0, 2.0], [3.0, 12.0, 3.0], [-2.0, 14.0, 1.0]])
GOOD = (np.array([1.0, -3.0, 2.0]), [0, 1, 2], [0, 0, 0], np.full(3, 10.0), 1e16)


def test_peb_batch_errors_name_the_problem():
    table, anchors, good = BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, GOOD
    assert peb_batch(table, anchors, []).shape == (0,)
    with pytest.raises(ValueError, match="SNRs must be positive"):
        peb_batch(table, anchors, [good, (*good[:3], np.array([10.0, 0.0, 10.0]), 1e16)])
    with pytest.raises(ValueError, match="beta"):
        peb_batch(table, anchors, [good, (*good[:4], 0.0)])
    # A true position on the model edge's line gives anchor 0 a zero
    # receiver leg.
    on_edge = (np.array([0.0, 0.0, 4.0]), [0, 1, 2], [1, 1, 1], np.full(3, 10.0), 1e16)
    with pytest.raises(SingularGeometryError, match="bound problem 1: .* anchor 0"):
        peb_batch(table, anchors, [good, on_edge])
    assert math.isfinite(peb_batch(table, anchors, [good])[0])


def test_peb_batch_rejects_a_nan_snr():
    with pytest.raises(ValueError, match="problem 1: linear SNRs must be positive and finite"):
        peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS,
                  [GOOD, (*GOOD[:3], np.array([10.0, np.nan, 10.0]), 1e16)])


@pytest.mark.parametrize("position", [[np.nan, 0.0, 1.0], [0.0, np.inf, 1.0]])
def test_peb_batch_rejects_a_non_finite_position(position):
    with pytest.raises(ValueError, match="bound problem 0: position must be finite"):
        peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, [(np.array(position), *GOOD[1:])])


@pytest.mark.parametrize("beta_sq", [math.inf, math.nan])
def test_peb_batch_rejects_a_non_finite_beta_sq(beta_sq):
    with pytest.raises(ValueError, match=r"bound problem 0: beta\^2 must be positive and finite"):
        peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, [(*GOOD[:4], beta_sq)])


def test_peb_batch_rejects_counts_that_do_not_align():
    with pytest.raises(ValueError, match="bound problem 0: 3 anchor ids, 3 edge ids and 2 "
                                         "linear SNRs do not align"):
        peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, [(*GOOD[:3], np.full(2, 10.0), 1e16)])
    with pytest.raises(ValueError, match="2 anchor ids, 3 edge ids"):
        peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, [(GOOD[0], [0, 1], *GOOD[2:])])


@pytest.mark.parametrize("anchor_ids, edge_ids, name", [
    ([0, 1, 3], [0, 0, 0], "anchor ids"), ([0, 1, -1], [0, 0, 0], "anchor ids"),
    ([0, 1, 2], [0, 2, 0], "edge ids"), ([0, 1, 2], [0, -1, 0], "edge ids"),
    ([0, 1, 2], [0.0, 0.0, 0.0], "edge ids")])
def test_peb_batch_rejects_ids_out_of_range(anchor_ids, edge_ids, name):
    with pytest.raises(ValueError, match=f"bound problem 0: {name} must be integers in"):
        peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, [(GOOD[0], anchor_ids, edge_ids, *GOOD[3:])])
