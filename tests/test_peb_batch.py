"""Batched position error bound against the scalar body it replaced
(``scalar_bound``).

The parity cases replay the bound problems of real sweeps, captured where
``run_sweep`` hands its queue to ``peb_batch``: the 28 GHz, two-trial sweep
of the 6 m floor-3 grid and the seven-frequency ladder of the 10 m floor-3
grid, seeds 0-3. Each bound must equal the scalar one bit for bit.
"""

import math

import numpy as np
import pytest

import diffpos.experiments as experiments
from diffpos.experiments import DEFAULT_FREQUENCY_LADDER_HZ, SweepConfig, build_default_scene
from diffpos.geometry import WindowEdge
from diffpos.positioning import SingularGeometryError, peb_batch
from scalar_bound import scalar_peb

SWEEPS = {
    "trials": dict(grid_spacing=6.0, frequencies_hz=(28e9,), trials=2),
    "ladder": dict(grid_spacing=10.0, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ, trials=1),
}


def captured_bound_problems(monkeypatch, size: str, seed: int) -> list:
    """The bound problems of one sweep, as ``peb_batch`` takes them."""
    params = SWEEPS[size]
    scene = build_default_scene(grid_spacing=params["grid_spacing"], receiver_floors=(3,))
    cfg = SweepConfig(scene=scene, frequencies_hz=params["frequencies_hz"], t_fap_db=20.0,
                      trials=params["trials"], seed=seed, top_k=25)
    problems = []

    def capture(batch):
        problems.extend(batch)
        return peb_batch(batch)

    monkeypatch.setattr(experiments, "peb_batch", capture)
    experiments.run_sweep(cfg)
    return problems


def same(got, expect) -> bool:
    """Whether two FimResults agree bit for bit."""
    if got.fim_inv is None or expect.fim_inv is None:
        inverses = got.fim_inv is None and expect.fim_inv is None
    else:
        inverses = np.array_equal(got.fim_inv, expect.fim_inv)
    return (inverses and np.array_equal(got.fim, expect.fim) and got.peb_m == expect.peb_m
            and got.singular == expect.singular)


@pytest.mark.parametrize("size", ["trials", "ladder"])
def test_peb_batch_matches_scalar_bound_on_sweep_problems(monkeypatch, size):
    problems = [p for seed in range(4) for p in captured_bound_problems(monkeypatch, size, seed)]
    assert len(problems) > 40
    # Beside each sweep problem: its first three anchors, its first two
    # (singular) and its first anchor four times over (singular with four
    # anchors), shuffled so that anchor counts interleave in the batch.
    mixed = []
    for alpha, anchors, edges, snr, beta_sq in problems:
        mixed += [(alpha, anchors, edges, snr, beta_sq),
                  (alpha, anchors[:3], edges[:3], snr[:3], beta_sq),
                  (alpha, anchors[:2], edges[:2], snr[:2], beta_sq),
                  (alpha, np.repeat(anchors[:1], 4, axis=0), edges[:1] * 4, snr, beta_sq)]
    order = np.random.default_rng(3).permutation(len(mixed))
    mixed = [mixed[i] for i in order]

    batch = peb_batch(mixed)
    assert len(batch) == len(mixed)
    for problem, got in zip(mixed, batch):
        assert same(got, scalar_peb(*problem))
    singular = [(len(p[1]), r.singular) for p, r in zip(mixed, batch)]
    assert singular.count((4, True)) == singular.count((2, True)) == len(problems)
    assert singular.count((3, False)) > 0 and singular.count((4, False)) > 0
    # A problem solved alone equals itself in the batch.
    for i in range(0, len(mixed), 7):
        assert same(peb_batch([mixed[i]])[0], batch[i])


def test_peb_batch_errors_name_the_problem():
    edge = WindowEdge(-5.0, 5.0, 5.0, 1.0)
    anchors = np.array([[0.0, 10.0, 2.0], [3.0, 12.0, 3.0], [-2.0, 14.0, 1.0]])
    good = (np.array([1.0, -3.0, 2.0]), anchors, (edge,) * 3, np.full(3, 10.0), 1e16)
    assert peb_batch([]) == []
    with pytest.raises(ValueError, match="SNRs must be positive"):
        peb_batch([good, (*good[:3], np.array([10.0, 0.0, 10.0]), 1e16)])
    with pytest.raises(ValueError, match="beta"):
        peb_batch([good, (*good[:4], 0.0)])
    # A true position on the model edge's line gives anchor 0 a zero
    # receiver leg.
    on_edge = (np.array([0.0, 0.0, 4.0]), anchors, (WindowEdge(-5.0, 5.0, 5.0, 1e-13),) * 3,
               np.full(3, 10.0), 1e16)
    with pytest.raises(SingularGeometryError, match="bound problem 1: .* anchor 0"):
        peb_batch([good, on_edge])
    assert math.isfinite(peb_batch([good])[0].peb_m)
