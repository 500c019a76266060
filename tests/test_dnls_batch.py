"""Batched D-NLS against the scalar reference solver (``scalar_dnls``).

The parity cases replay the D-NLS problems of real sweeps, captured where
``run_sweep`` hands its queue to ``dnls_ladder``: the 28 GHz, two-trial
sweep of the 6 m floor-3 grid (seeds 0-3) and the seven-frequency ladder of
the 10 m floor-3 grid (seed 0). Every problem must end on the same rung
after the same number of iterations, or fail as the scalar ladder does, and
its estimate must agree within 1e-9 m. The scalar ladder takes each problem
as the scene's anchors and the rows of the scene's edge table that its edge
ids name. The rows that ``_pack`` gathers from the edge table must equal,
bit for bit, the per-edge packing it replaced (``scalar_dnls.scalar_pack``).
"""

import numpy as np
import pytest

import diffpos.experiments as experiments
import diffpos.positioning as positioning
from conftest import Problem, edges_of, joined, pack, random_positioning_instance
from diffpos.experiments import DEFAULT_FREQUENCY_LADDER_HZ, SweepConfig, build_default_scene
from diffpos.positioning import (
    _CONVERGED,
    _DIVERGED,
    _DROPPED,
    _LADDER,
    _OUT_OF_ITERATIONS,
    _SINGULAR,
    _TOL_M,
    _gauss_newton,
    _model_rows,
    _pack,
    _Rows,
    dnls_ladder,
)
from scalar_dnls import reference_model_rows, scalar_gauss_newton, scalar_ladder, scalar_pack

SWEEPS = {
    "trials": dict(grid_spacing=6.0, frequencies_hz=(28e9,), trials=2),
    "ladder": dict(grid_spacing=10.0, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ, trials=1),
}


def captured_sweep(monkeypatch, size: str, seed: int):
    """(report, args, sets) of one sweep's D-NLS queue: the ``dnls_ladder``
    arguments (table, anchors, edge ids, ranges, starts, bounds) and the same
    problems as ``Problem``s with the scene's edge table."""
    params = SWEEPS[size]
    scene = build_default_scene(grid_spacing=params["grid_spacing"], receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=params["frequencies_hz"], t_fap_db=20.0,
                      trials=params["trials"], seed=seed, top_k=25)
    calls = []

    def capture(*args):
        calls.append(args)
        return dnls_ladder(*args)

    monkeypatch.setattr(experiments, "dnls_ladder", capture)
    report = experiments.run_sweep(cfg)
    assert len(calls) == 1
    table, anchors, edge_ids, ranges, _, _ = calls[0]
    sets = [Problem(anchors, r, table, ids) for ids, r in zip(edge_ids, ranges)]
    return report, calls[0], sets


@pytest.mark.parametrize("size, seed", [("trials", 0), ("trials", 1), ("trials", 2),
                                        ("trials", 3), ("ladder", 0)])
def test_ladder_matches_scalar_ladder_on_sweep_problems(monkeypatch, size, seed):
    report, args, sets = captured_sweep(monkeypatch, size, seed)
    inits, bounds = args[4:]
    results = dnls_ladder(*args)
    rungs = [0, 0, 0]
    total_iterations = 0
    failed = 0
    for meas, init, got_alpha, got_rung, got_iterations in zip(sets, inits, *results):
        rung, iterations, alpha = scalar_ladder(meas, init, bounds)
        assert (got_rung, got_iterations) == (-1 if rung is None else rung, iterations)
        total_iterations += iterations
        if rung is None:
            assert np.isnan(got_alpha).all()
            failed += 1
            continue
        rungs[rung] += 1
        np.testing.assert_allclose(got_alpha, alpha, rtol=0, atol=1e-9)
    # The report's counters are the same sums over its frequencies.
    assert [sum(fr.diagnostics["dnls_rung"][k] for fr in report.frequencies)
            for k in range(3)] == rungs
    assert sum(fr.diagnostics["dnls_iterations"] for fr in report.frequencies) \
        == total_iterations
    assert sum(fr.exclusions["dnls_failed"] for fr in report.frequencies) == failed


@pytest.mark.parametrize("size, rungs", [("trials", {0, 1, -1}), ("ladder", {0, 1})],
                         ids=["trials", "ladder"])
def test_ladder_result_does_not_depend_on_the_batch(monkeypatch, size, rungs):
    _, args, _ = captured_sweep(monkeypatch, size, 0)
    table, anchors, edge_ids, ranges, inits, bounds = args
    batch = dnls_ladder(*args)
    reversed_batch = [column[::-1] for column in dnls_ladder(
        table, anchors, edge_ids[::-1], ranges[::-1], inits[::-1], bounds)]
    assert set(batch.rung.tolist()) == rungs  # the outcomes the queue holds, failures (-1) too
    for i in range(len(inits)):
        alone = dnls_ladder(table, anchors, edge_ids[i:i + 1], ranges[i:i + 1], inits[i:i + 1],
                            bounds)
        for one, column, reversed_column in zip(alone, batch, reversed_batch):
            assert np.array_equal(one[0], column[i], equal_nan=True)
            assert np.array_equal(column[i], reversed_column[i], equal_nan=True)


@pytest.mark.parametrize("case", ["every_rung_fails", "no_problems"])
def test_ladder_columns_of_failed_problems_and_of_none(monkeypatch, case):
    # The captured problems that fail every rung, solved on their own, or
    # none of them: one row per problem in each column, rung -1, a NaN
    # estimate and the iterations of every rung the scalar ladder runs.
    _, args, sets = captured_sweep(monkeypatch, "trials", 0)
    table, anchors, edge_ids, ranges, inits, bounds = args
    picked = np.flatnonzero(dnls_ladder(*args).rung < 0)
    assert picked.size > 0
    if case == "no_problems":
        picked = picked[:0]
    out = dnls_ladder(table, anchors, edge_ids[picked], ranges[picked], inits[picked], bounds)
    n = len(picked)
    assert (out.alpha.shape, out.rung.shape, out.iterations.shape) == ((n, 3), (n,), (n,))
    assert out.rung.dtype.kind == out.iterations.dtype.kind == "i"
    assert out.rung.tolist() == [-1] * n and np.isnan(out.alpha).all()
    assert out.iterations.tolist() == [scalar_ladder(sets[i], inits[i], bounds)[1]
                                       for i in picked]


def in_random_frames(meas, rng):
    """The measurement set with each edge moved into a random rigid frame."""
    frames = []
    for _ in meas.edges:
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        q[:, 0] *= np.sign(np.linalg.det(q))
        frames.append((q, rng.uniform(-5, 5, 3)))
    rotation, translation = (np.array(c) for c in zip(*frames))
    table = edges_of(*(column[meas.edges] for column in meas.table[2:]), rotation=rotation,
                     translation=translation)
    return Problem(meas.anchors, meas.ranges, table)


@pytest.mark.parametrize("size", ["trials", "ladder"])
def test_model_rows_equal_the_reference_model_bit_for_bit(monkeypatch, size):
    # The rows of a captured queue at their starts, at their estimates and
    # at 1,000 random positions inside the bounds; the queue's sets with
    # their edges in random frames, whose rotations, unlike a facade's, mix
    # every axis; then one batch that also holds a row with NaN legs and a
    # row whose receiver leg is below 1e-12 m. Ranges, partials and
    # singular flags must equal the reference bit for bit, NaN where it has
    # NaN.
    _, args, sets = captured_sweep(monkeypatch, size, 0)
    inits, bounds = args[4:]
    results = dnls_ladder(*args)
    solved = np.flatnonzero(results.rung >= 0)
    rng = np.random.default_rng(11)
    pick = rng.integers(len(sets), size=1000)
    edge = edges_of(-5.0, 5.0, 5.0, 1e-13)
    on_edge = Problem(np.array([[0.0, 10.0, 2.0], [0.0, 12.0, 3.0], [0.0, 14.0, 1.0],
                                [0.0, 9.0, 4.0]]), np.full(4, 20.0), edge, [0] * 4)
    cases = [
        (sets, np.array(inits)),
        ([sets[i] for i in solved], results.alpha[solved]),
        ([sets[i] for i in pick], rng.uniform(bounds[0], bounds[1], (1000, 3))),
        ([in_random_frames(sets[i], rng) for i in pick[:200]],
         rng.uniform(bounds[0], bounds[1], (200, 3))),
        ([sets[0], on_edge, sets[1], sets[2]],
         np.array([inits[0], [0.0, 0.0, 4.0], [np.nan, 1.0, 1.0], inits[2]])),
    ]
    for case_sets, alpha in cases:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = _model_rows(alpha, pack(case_sets))
        expect = reference_model_rows(alpha, case_sets)
        for g, e in zip(got, expect):
            assert g.shape == e.shape and np.array_equal(g, e, equal_nan=True)
    singular = got[2]
    assert singular[1].tolist() == [True] * 4 and not singular[2].any()  # a NaN leg does not flag
    assert np.isnan(got[0][2]).all() and not singular[[0, 3]].any()


def test_ladder_prefers_an_earlier_rung_that_converges_later(monkeypatch):
    # Rung 1 starts at the noiseless solution (the bounds centroid) and
    # converges at once; rung 0 starts off it and needs more iterations.
    # The result is still rung 0's, and rung 2 never counts.
    monkeypatch.setattr(positioning, "_LADDER",
                        ((False, 0.0, 50), (True, 0.0, 50), (True, 1.0, 400)))
    alpha, anchors, edges = random_positioning_instance(np.random.default_rng(12))
    meas = Problem(anchors, np.zeros(4), edges)
    meas.ranges = _model_rows(alpha[None], pack([meas]))[0][0]
    start = alpha + np.array([0.6, -0.4, 0.3])
    result = dnls_ladder(edges, anchors, [[0, 1, 2, 3]], [meas.ranges], [start],
                         (alpha - 1.0, alpha + 1.0))
    outcome, iterations, estimate = scalar_gauss_newton(meas, start)
    assert outcome == "converged" and iterations > 1
    assert (result.rung[0], result.iterations[0]) == (0, iterations)
    np.testing.assert_allclose(result.alpha[0], estimate, rtol=0, atol=1e-9)


def degenerate_vertical_problem():
    """The singular geometry of test_dnls_rejects_degenerate_vertical_geometry."""
    edges = edges_of(np.full(4, 3.0), 7.0, 6.0, 2.0)
    anchors = np.array([[5.0, y, z] for y, z in ((12.0, 2.0), (15.0, 3.0),
                                                 (18.0, 4.0), (21.0, 5.0))])
    alpha = np.array([5.0, -4.0, 5.0])
    meas = Problem(anchors, np.zeros(4), edges)
    meas.ranges = _model_rows(alpha[None], pack([meas]))[0][0]
    return meas, alpha + np.array([0.0, 0.5, 0.5])


def diverging_problem(rng):
    """A range of inf makes the first step non-finite."""
    alpha, anchors, edges = random_positioning_instance(rng)
    meas = Problem(anchors, np.zeros(4), edges)
    meas.ranges = _model_rows(alpha[None], pack([meas]))[0][0]
    meas.ranges[2] = np.inf
    return meas, alpha


def good_problem(rng):
    alpha, anchors, edges = random_positioning_instance(rng)
    meas = Problem(anchors, np.zeros(4), edges)
    meas.ranges = _model_rows(alpha[None], pack([meas]))[0][0] + 0.03 * rng.standard_normal(4)
    return meas, alpha + 0.5


def solve_rows(problems, damping):
    sets = [meas for meas, _ in problems]
    starts = np.array([start for _, start in problems])
    n = len(problems)
    return _gauss_newton(pack(sets), starts, np.full(n, 50), np.full(n, damping), 1e-6,
                         np.arange(n))


@pytest.mark.parametrize("damping", [0.0, 0.1])
def test_singular_and_diverging_rows_fail_only_themselves(damping):
    rng = np.random.default_rng(8)
    good = [good_problem(rng) for _ in range(2)]
    problems = [good[0], degenerate_vertical_problem(), diverging_problem(rng), good[1]]
    if damping > 0.0:  # damping replaces the rank check: the geometry is not singular then
        problems.pop(1)
    out = solve_rows(problems, damping)

    expect = [_CONVERGED, _SINGULAR, _DIVERGED, _CONVERGED] if damping == 0.0 \
        else [_CONVERGED, _DIVERGED, _CONVERGED]
    assert out.status.tolist() == expect
    for row, problem in ((0, good[0]), (len(problems) - 1, good[1])):
        alone = solve_rows([problem], damping)
        assert out.status[row] == alone.status[0]
        assert out.iterations[row] == alone.iterations[0]
        assert np.array_equal(out.alpha[row], alone.alpha[0])
        outcome, iterations, alpha = scalar_gauss_newton(*problem, damping=damping)
        assert outcome == "converged" and iterations == out.iterations[row]
        np.testing.assert_allclose(out.alpha[row], alpha, rtol=0, atol=1e-9)
    # The failures end where the scalar solver's do.
    for row, problem in enumerate(problems):
        if out.status[row] != _CONVERGED:
            outcome, iterations, _ = scalar_gauss_newton(*problem, damping=damping)
            assert outcome == {_SINGULAR: "singular", _DIVERGED: "diverged"}[out.status[row]]
            assert iterations == out.iterations[row]


def test_final_evaluation_can_make_a_row_singular():
    # With max_iters=0 the final model evaluation is the only one; at a
    # position on the model edge's line it is singular.
    edge = edges_of(-5.0, 5.0, 5.0, 1e-13)
    anchors = np.array([[0.0, 10.0, 2.0], [0.0, 12.0, 3.0], [0.0, 14.0, 1.0], [0.0, 9.0, 4.0]])
    meas = Problem(anchors, np.full(4, 20.0), edge, [0] * 4)
    alpha = np.array([0.0, 0.0, 4.0])
    assert scalar_gauss_newton(meas, alpha, max_iters=0)[:2] == ("singular", 0)
    out = _gauss_newton(pack([meas]), alpha[None], np.zeros(1, dtype=int), np.zeros(1), 1e-6,
                        np.zeros(1, dtype=int))
    assert (out.status[0], out.iterations[0]) == (_SINGULAR, 0)
    out = solve_rows([(meas, alpha), good_problem(np.random.default_rng(11))], 0.0)
    assert out.status[0] == _SINGULAR and out.status[1] == _CONVERGED


def final_singular_problem():
    """The geometry of test_final_evaluation_can_make_a_row_singular and a
    position at which its model is singular."""
    edge = edges_of(-5.0, 5.0, 5.0, 1e-13)
    anchors = np.array([[0.0, 10.0, 2.0], [0.0, 12.0, 3.0], [0.0, 14.0, 1.0], [0.0, 9.0, 4.0]])
    return Problem(anchors, np.full(4, 20.0), edge, [0] * 4), \
        np.array([0.0, 0.0, 4.0])


def run_rows(problems):
    """_gauss_newton over ``problems``, problem by problem; a problem is a
    list of (meas, start, max_iters, damping) rows, its rungs in order."""
    rows = [(row, i) for i, problem in enumerate(problems) for row in problem]
    return _gauss_newton(
        pack([meas for (meas, _, _, _), _ in rows]),
        np.array([start for (_, start, _, _), _ in rows]),
        np.array([max_iters for (_, _, max_iters, _), _ in rows]),
        np.array([damping for (_, _, _, damping), _ in rows], dtype=float),
        _TOL_M, np.array([i for _, i in rows]))


def test_rows_stop_as_in_their_own_runs(monkeypatch):
    # Iteration counts come from the trip number, and the stop, limit and
    # drop bookkeeping runs only on the trips where some row stops. One
    # batch mixes every way a row stops; each problem's rows must end as in
    # a run of that problem alone, bit for bit. The ladders are problems of
    # the ladder sweep at seed 5: rung 0 rank-deficient at iteration 4 with
    # rung 2 dropped at 82; rung 1 converging at its 400th iteration as rung
    # 2 runs out; every rung out of iterations (damped rows at 400);
    # converged at rung 0 with rungs 1 and 2 dropped.
    _, args, sets = captured_sweep(monkeypatch, "ladder", 5)
    inits, bounds = args[4:]
    centroid = 0.5 * (bounds[0] + bounds[1])
    ladders = [[(sets[i], centroid if from_centroid else inits[i], iters, damping)
                for from_centroid, damping, iters in _LADDER] for i in (36, 37, 19, 0)]
    rng = np.random.default_rng(17)
    singular_meas, singular_at = final_singular_problem()
    mid, last = good_problem(rng), good_problem(rng)
    singles = [
        [(*diverging_problem(rng), 50, 0.0)],  # non-finite normal system
        [(*diverging_problem(rng), 400, 0.1)],
        [(*degenerate_vertical_problem(), 50, 0.0)],  # rank-deficient at once
        [(singular_meas, singular_at, 0, 0.0)],  # singular at its only, final evaluation
        [(singular_meas, singular_at, 50, 0.0)],  # singular while not final
        [(*mid, 50, 0.0)],
        [(*last, 50, 0.0)],
    ]
    # The model goes singular at ``mid``'s third iterate, mid-loop, and at
    # ``last``'s final iterate, which it reaches converged.
    third = run_rows([[(*mid, 3, 0.0)]]).alpha[0]
    final = run_rows([singles[-1]])
    assert final.status[0] == _CONVERGED and final.iterations[0] > 3
    real_model = positioning._model_rows

    def model(alpha, rows):
        p, jac, singular = real_model(alpha, rows)
        hit = (alpha == third).all(axis=1) | (alpha == final.alpha[0]).all(axis=1)
        return p, jac, singular | hit[:, None]

    monkeypatch.setattr(positioning, "_model_rows", model)
    problems = singles + ladders
    out = run_rows(problems)
    start = 0
    for problem in problems:
        alone = run_rows([problem])
        end = start + len(problem)
        for got, want in zip(out, alone):
            assert np.array_equal(got[start:end], want, equal_nan=True)
        start = end

    status, iterations = out.status.tolist(), out.iterations.tolist()
    assert list(zip(status[:7], iterations[:7])) == [
        (_DIVERGED, 1), (_DIVERGED, 1), (_SINGULAR, 1), (_SINGULAR, 0), (_SINGULAR, 1),
        (_SINGULAR, 4), (_SINGULAR, final.iterations[0])]
    assert list(zip(status[7:], iterations[7:])) == [
        (_SINGULAR, 4), (_CONVERGED, 82), (_DROPPED, 82),
        (_OUT_OF_ITERATIONS, 50), (_CONVERGED, 400), (_OUT_OF_ITERATIONS, 400),
        (_OUT_OF_ITERATIONS, 50), (_OUT_OF_ITERATIONS, 400), (_OUT_OF_ITERATIONS, 400),
        (_CONVERGED, iterations[16]), (_DROPPED, iterations[16]), (_DROPPED, iterations[16])]


def test_ladder_rejects_mixed_anchor_counts_and_bad_starts():
    rng = np.random.default_rng(10)
    meas, start = good_problem(rng)
    alpha, anchors, edges = random_positioning_instance(rng, n_anchors=5)
    table = joined([meas.table, edges])[0]
    bounds = (np.zeros(3), np.full(3, 20.0))
    with pytest.raises(ValueError, match=r"edge ids must have shape \(2, 4\), not \(2, 5\)"):
        dnls_ladder(table, meas.anchors, [[0, 1, 2, 3, 0], [4, 5, 6, 7, 8]],
                    [np.append(meas.ranges, 30.0), np.full(5, 30.0)], [start, alpha], bounds)
    with pytest.raises(ValueError, match="starts must be finite"):
        dnls_ladder(table, meas.anchors, [[0, 1, 2, 3]], [meas.ranges],
                    [np.array([np.nan, 0.0, 0.0])], bounds)
    empty = dnls_ladder(table, meas.anchors, np.zeros((0, 4), dtype=int), np.zeros((0, 4)),
                        np.zeros((0, 3)), bounds)
    assert [column.shape for column in empty] == [(0, 3), (0,), (0,)]


def ladder_args():
    """Valid ``dnls_ladder`` arguments of two problems; each boundary test
    below breaks one of them."""
    rng = np.random.default_rng(10)
    (first, start), (second, _) = good_problem(rng), good_problem(rng)
    return dict(table=joined([first.table, second.table])[0], anchors=first.anchors,
                edge_ids=np.array([[0, 1, 2, 3], [4, 5, 6, 7]]),
                ranges=np.array([first.ranges, first.ranges + 0.1]),
                starts=np.array([start, start + 0.2]), bounds=(np.zeros(3), np.full(3, 20.0)))


def test_ladder_args_are_valid():
    assert len(dnls_ladder(**ladder_args()).rung) == 2


@pytest.mark.parametrize("name, value, message", [
    ("edge_ids", np.array([[0, 1, 2, 3]]), "not 1, 2 and 2"),
    ("ranges", np.full((3, 4), 20.0), "not 2, 3 and 2"),
    ("starts", np.full((1, 3), 5.0), "not 2, 2 and 1"),
    ("starts", np.full((3, 3), 5.0), "not 2, 2 and 3"),
    ("ranges", np.full((2, 5), 20.0), r"ranges must have shape \(2, 4\), not \(2, 5\)"),
    ("starts", np.full((2, 2), 5.0), r"starts must have shape \(2, 3\), not \(2, 2\)"),
], ids=["edge_ids", "ranges", "fewer_starts", "more_starts", "wide_ranges", "narrow_starts"])
def test_ladder_rejects_counts_that_disagree(name, value, message):
    args = ladder_args()
    args[name] = value
    with pytest.raises(ValueError, match=message):
        dnls_ladder(**args)


@pytest.mark.parametrize("bad_id", [-1, 8, 2.0], ids=["minus_one", "past_the_end", "float"])
def test_ladder_rejects_edge_ids_outside_the_table(bad_id):
    args = ladder_args()
    args["edge_ids"] = np.array([[0, 1, 2, 3], [4, 5, 6, bad_id]])
    with pytest.raises(ValueError, match=r"edge ids must be integers in \[0, 8\)"):
        dnls_ladder(**args)


def test_ladder_rejects_fewer_than_four_anchors():
    args = ladder_args()
    args.update(anchors=args["anchors"][:3], edge_ids=args["edge_ids"][:, :3],
                ranges=args["ranges"][:, :3])
    with pytest.raises(ValueError, match="at least 4 anchors"):
        dnls_ladder(**args)


@pytest.mark.parametrize("name, value", [
    ("starts", np.array([[1.0, 2.0, 3.0], [np.inf, 2.0, 3.0]])),
    ("ranges", np.array([[20.0, 20.0, np.nan, 20.0], [20.0] * 4])),
    ("bounds", (np.zeros(3), np.array([20.0, np.nan, 20.0]))),
    ("bounds", (np.full(3, np.nan), np.full(3, np.nan))),
    ("bounds", (np.array([0.0, -np.inf, 0.0]), np.full(3, 20.0))),
], ids=["starts", "ranges", "nan_bound", "nan_bounds", "infinite_bound"])
def test_ladder_rejects_non_finite_values(name, value):
    args = ladder_args()
    args[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dnls_ladder(**args)


def test_ladder_rejects_bounds_with_lo_above_hi():
    args = ladder_args()
    args["bounds"] = (np.array([0.0, 21.0, 0.0]), np.full(3, 20.0))
    with pytest.raises(ValueError, match="bounds must have lo <= hi"):
        dnls_ladder(**args)


@pytest.mark.parametrize("size, seed", [(size, seed) for size in SWEEPS for seed in range(8)])
def test_gathered_rows_equal_the_object_packing(monkeypatch, size, seed):
    # The rows dnls_ladder gathers for a captured queue, from the sweep's
    # own edge table, against the per-edge packing of the same problems.
    _, (table, anchors, edge_ids, ranges, _, _), sets = captured_sweep(monkeypatch, size, seed)
    assert_same_rows(_pack(table, table.to_local(anchors), np.arange(len(anchors)), edge_ids,
                           ranges), scalar_pack(sets))


def test_gathered_rows_equal_the_object_packing_in_random_frames(monkeypatch):
    # Edges in random rigid frames, whose rotations mix every axis.
    _, _, sets = captured_sweep(monkeypatch, "trials", 0)
    rng = np.random.default_rng(23)
    moved = [in_random_frames(sets[i], rng) for i in rng.integers(len(sets), size=200)]
    assert_same_rows(pack(moved), scalar_pack(moved))


def assert_same_rows(got: _Rows, want: _Rows):
    for name, g, w in zip(_Rows._fields, got, want):
        assert (g.shape, g.dtype, g.flags.c_contiguous) \
            == (w.shape, w.dtype, w.flags.c_contiguous), name
        assert np.array_equal(g, w), name


@pytest.mark.parametrize("size", ["trials", "ladder"])
def test_rank_screen_decides_as_the_svd_on_sweep_queues(monkeypatch, size):
    # Every stack of undamped normal matrices whose rank the Gauss-Newton
    # loop tests while it solves a captured queue: the determinant screen
    # decides as the SVD test does, and spares the SVD most matrices.
    _, args, _ = captured_sweep(monkeypatch, size, 0)
    svd_test, screen = positioning._rank_deficient, positioning._normal_rank_deficient
    tested, sent_to_svd = [], []

    def counted_svd_test(matrices):
        sent_to_svd.append(len(matrices))
        return svd_test(matrices)

    def checked_screen(normal):
        got = screen(normal)
        assert np.array_equal(got, svd_test(normal.transpose(2, 0, 1)))
        tested.append(normal.shape[-1])
        return got

    monkeypatch.setattr(positioning, "_rank_deficient", counted_svd_test)
    monkeypatch.setattr(positioning, "_normal_rank_deficient", checked_screen)
    dnls_ladder(*args)
    assert sum(tested) > 500
    assert sum(sent_to_svd) < 0.1 * sum(tested)


def test_rank_screen_decides_as_the_svd_near_the_threshold():
    # Symmetric positive semi-definite 3 x 3 matrices, as normal matrices
    # are, with s_min / s_max from 1e-14 to 1e-8 around the SVD test's 1e-12,
    # at scales from 1e-6 to 1e6; then the zero matrix and exactly singular
    # ones.
    rng = np.random.default_rng(12)
    matrices = []
    for ratio in np.logspace(-14, -8, 601):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = np.array([1.0, rng.uniform(ratio, 1.0), ratio]) * 10 ** rng.uniform(-6, 6)
        matrices.append((q * s) @ q.T)
    matrices += [np.zeros((3, 3)), np.diag([1.0, 1.0, 0.0]), np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])]
    matrices = np.array(matrices)
    want = positioning._rank_deficient(matrices)
    assert 100 < np.count_nonzero(want) < 500
    got = positioning._normal_rank_deficient(np.ascontiguousarray(matrices.transpose(1, 2, 0)))
    assert np.array_equal(got, want)
