"""Batched position error bound against the scalar body it replaced
(``scalar_bound``).

The parity cases replay the bound problems of real sweeps, captured where
``run_sweep`` hands a batch of cells to ``peb_batch``: the 28 GHz, two-trial
sweep of the 6 m floor-3 grid and the seven-frequency ladder of the 10 m
floor-3 grid, seeds 0-3. Each bound must equal the scalar one bit for bit;
the scalar body takes the anchors a row uses and the rows of the scene's
edge table that its ids name.
"""

import math

import numpy as np
import pytest

import diffpos.experiments as experiments
import diffpos.positioning as positioning
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
    """(table, anchors, columns, edges) of one sweep: the bound problems as
    ``peb_batch`` takes them, the columns (positions, edge ids, linear SNRs,
    beta^2) of all its calls joined, and the scene's own edge table."""
    params = SWEEPS[size]
    scene = build_default_scene(grid_spacing=params["grid_spacing"], receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=params["frequencies_hz"], t_fap_db=20.0,
                      trials=params["trials"], seed=seed, top_k=25)
    calls = []

    def capture(table, anchors, *columns):
        calls.append((table, anchors, columns))
        return peb_batch(table, anchors, *columns)

    monkeypatch.setattr(experiments, "peb_batch", capture)
    experiments.run_sweep(cfg)
    table, anchors = calls[0][:2]
    assert all(t is table and a is anchors for t, a, _ in calls)
    columns = [np.concatenate(column) for column in zip(*(c for _, _, c in calls))]
    return table, anchors, columns, build_scene_geometry(scene).edge_table


@pytest.mark.parametrize("size", ["trials", "ladder"])
def test_peb_batch_matches_scalar_bound_on_sweep_problems(monkeypatch, size):
    captured = []
    for seed in range(4):
        table, anchors, columns, scene_edges = captured_bound_problems(monkeypatch, size, seed)
        captured.append(columns)
    positions, edge_ids, snr, beta_sq = (np.concatenate(c) for c in zip(*captured))
    assert all(np.array_equal(a, b) for a, b in zip(table, scene_edges))
    # Cells with fewer than three MPC3 anchors are bounded as inf; every
    # other sweep problem has all four anchors.
    used = np.count_nonzero(edge_ids >= 0, axis=1)
    few = used < 3
    assert np.all(np.isinf(peb_batch(table, anchors, positions[few], edge_ids[few], snr[few],
                                     beta_sq[few])))
    positions, edge_ids, snr, beta_sq = (x[~few] for x in (positions, edge_ids, snr, beta_sq))
    n = len(positions)
    assert n > 40 and np.all(used[~few] == 4)

    # Beside each sweep problem: its first three anchors, its first two
    # (singular) and its first anchor four times over (singular with four
    # anchors), the last as four duplicated rows of anchor 0 after the
    # scene's anchors; shuffled so that anchor counts interleave in the batch.
    all_anchors = np.concatenate([anchors, np.repeat(anchors[:1], 4, axis=0)])

    def case(columns, ids, snrs):
        """Edge ids and SNRs (n, 8) with ``ids`` and ``snrs`` in ``columns``."""
        out = np.full((n, 8), -1), np.full((n, 8), np.nan)
        out[0][:, columns], out[1][:, columns] = ids, snrs
        return out

    cases = [case(slice(0, k), edge_ids[:, :k], snr[:, :k]) for k in (4, 3, 2)]
    cases.append(case(slice(4, 8), edge_ids[:, :1], snr))
    order = np.random.default_rng(3).permutation(4 * n)
    mixed = (np.tile(positions, (4, 1))[order],
             *(np.concatenate(x)[order] for x in zip(*cases)), np.tile(beta_sq, 4)[order])

    batch = peb_batch(table, all_anchors, *mixed)
    assert batch.shape == (4 * n,) and batch.dtype == float
    # inf exactly where the scalar body finds the FIM singular, and every
    # finite bound its bits.
    expect = []
    for alpha, row_ids, row_snr, row_beta in zip(*mixed):
        use = row_ids >= 0
        expect.append(scalar_peb(alpha, all_anchors[use], scene_edges, row_ids[use],
                                 row_snr[use], row_beta))
    expect = np.array(expect)
    assert np.array_equal(np.isinf(batch), np.isinf(expect))
    assert batch.tobytes() == expect.tobytes()
    singular = [(int(u), bool(s)) for u, s in zip(np.count_nonzero(mixed[1] >= 0, axis=1),
                                                 np.isinf(batch))]
    assert singular.count((4, True)) == singular.count((2, True)) == n
    assert singular.count((3, False)) > 0 and singular.count((4, False)) > 0
    # A problem solved alone equals itself in the batch.
    for i in range(0, 4 * n, 7):
        alone = peb_batch(table, all_anchors, *(x[i:i + 1] for x in mixed))
        assert alone.tobytes() == batch[i:i + 1].tobytes()


# Edge 1 is edge 0 with a vanishing window height.
BAD_INPUT_TABLE = edges_of(-5.0, 5.0, 5.0, [1.0, 1e-13])
BAD_INPUT_ANCHORS = np.array([[0.0, 10.0, 2.0], [3.0, 12.0, 3.0], [-2.0, 14.0, 1.0]])
FOUR_ANCHORS = np.concatenate([BAD_INPUT_ANCHORS, [[2.0, 16.0, 2.5]]])
# One good problem as (positions, edge ids, linear SNRs, beta^2) columns.
GOOD = (np.array([[1.0, -3.0, 2.0]]), np.array([[0, 0, 0]]), np.full((1, 3), 10.0),
        np.array([1e16]))


def good_and(position=(1.0, -3.0, 2.0), edge_ids=(0, 0, 0), snr=(10.0, 10.0, 10.0),
             beta_sq=1e16):
    """peb_batch of GOOD's row, then a row with the given entries."""
    return peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, [GOOD[0][0], position],
                     [GOOD[1][0], edge_ids], [GOOD[2][0], snr], [GOOD[3][0], beta_sq])


def test_peb_batch_errors_name_the_problem():
    table, anchors = BAD_INPUT_TABLE, BAD_INPUT_ANCHORS
    assert peb_batch(table, anchors, np.zeros((0, 3)), np.zeros((0, 3), dtype=int),
                     np.zeros((0, 3)), np.zeros(0)).shape == (0,)
    with pytest.raises(ValueError, match="linear SNRs must be positive and finite; row 1 is not"):
        good_and(snr=(10.0, 0.0, 10.0))
    with pytest.raises(ValueError, match=r"beta\^2 must be positive and finite; row 1 is not"):
        good_and(beta_sq=0.0)
    # A true position on the model edge's line gives anchor 0 a zero
    # receiver leg.
    with pytest.raises(SingularGeometryError, match="positions: row 1 .* anchor 0"):
        good_and(position=(0.0, 0.0, 4.0), edge_ids=(1, 1, 1))
    # The error names the anchor, not its place among the anchors used.
    with pytest.raises(SingularGeometryError, match="positions: row 0 .* anchor 3"):
        peb_batch(table, FOUR_ANCHORS, [(0.0, 0.0, 4.0)], [[-1, 0, 0, 1]], GOOD[2][:, [0, 0, 1, 2]],
                  GOOD[3])
    assert math.isfinite(peb_batch(table, anchors, *GOOD)[0])


def test_peb_batch_rejects_a_nan_snr():
    with pytest.raises(ValueError, match="linear SNRs must be positive and finite; row 1 is not"):
        good_and(snr=(10.0, np.nan, 10.0))
    # A NaN at an unused anchor is not read.
    bound = [peb_batch(BAD_INPUT_TABLE, FOUR_ANCHORS, GOOD[0], [[0, -1, 0, 0]],
                       [[10.0, snr, 10.0, 10.0]], GOOD[3]) for snr in (np.nan, 10.0)]
    assert math.isfinite(bound[0][0]) and bound[0].tobytes() == bound[1].tobytes()


@pytest.mark.parametrize("position", [[np.nan, 0.0, 1.0], [0.0, np.inf, 1.0]])
def test_peb_batch_rejects_a_non_finite_position(position):
    with pytest.raises(ValueError, match="positions must be finite; row 1 is not"):
        good_and(position=position)


@pytest.mark.parametrize("beta_sq", [math.inf, math.nan])
def test_peb_batch_rejects_a_non_finite_beta_sq(beta_sq):
    with pytest.raises(ValueError, match=r"beta\^2 must be positive and finite; row 1 is not"):
        good_and(beta_sq=beta_sq)


def test_peb_batch_rejects_counts_that_do_not_align():
    positions, edge_ids, snr, beta_sq = GOOD
    call = lambda *columns: peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, *columns)
    with pytest.raises(ValueError, match=r"linear SNRs must have shape \(1, 3\), not \(1, 2\)"):
        call(positions, edge_ids, snr[:, :2], beta_sq)
    with pytest.raises(ValueError, match=r"edge ids must have shape \(1, 3\), not \(1, 2\)"):
        call(positions, edge_ids[:, :2], snr, beta_sq)
    with pytest.raises(ValueError, match=r"edge ids must have shape \(2, 3\), not \(1, 3\)"):
        call(np.repeat(positions, 2, axis=0), edge_ids, snr, beta_sq)
    with pytest.raises(ValueError, match=r"beta\^2 must have shape \(1,\), not \(2,\)"):
        call(positions, edge_ids, snr, np.repeat(beta_sq, 2))
    with pytest.raises(ValueError, match=r"positions must have shape \(1, 3\), not \(1, 2\)"):
        call(positions[:, :2], edge_ids, snr, beta_sq)


@pytest.mark.parametrize("edge_ids", [[0, 2, 0], [0, -2, 0], [0.0, 0.0, 0.0]])
def test_peb_batch_rejects_edge_ids_out_of_range(edge_ids):
    with pytest.raises(ValueError, match=r"edge ids must be integers in \[-1, 2\)"):
        good_and(edge_ids=edge_ids)
    if not isinstance(edge_ids[0], float):
        with pytest.raises(ValueError, match="; row 1 is not"):
            good_and(edge_ids=edge_ids)


def test_peb_batch_rows_with_fewer_than_three_anchors_are_inf_unevaluated(monkeypatch):
    # Rows with 0, 1 and 2 used anchors, each at a position on the edge
    # line that would make a model evaluation singular: inf, with no
    # evaluation; the three-anchor row beside them is evaluated.
    rows = [(-1, -1, -1), (1, -1, -1), (-1, 1, 1), (0, 0, 0)]
    positions = [(0.0, 0.0, 4.0)] * 3 + [(1.0, -3.0, 2.0)]
    evaluated = []
    model = positioning._model_rows
    monkeypatch.setattr(positioning, "_model_rows",
                        lambda alpha, packed: evaluated.append(len(alpha)) or model(alpha, packed))
    bound = peb_batch(BAD_INPUT_TABLE, BAD_INPUT_ANCHORS, positions, rows,
                      np.full((4, 3), 10.0), np.full(4, 1e16))
    assert np.all(np.isinf(bound[:3])) and math.isfinite(bound[3])
    assert evaluated == [1]
