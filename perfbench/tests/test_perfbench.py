"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

TINY = {
    # One receiver (the 40 m grid keeps only the corner point).
    "ladder_sweep": replace(workloads.LadderSweep.size, grid_spacing=40.0,
                            frequencies_hz=(0.7e9, 28e9)),
    "trials_sweep": replace(workloads.TrialsSweep.size, grid_spacing=40.0, trials=2),
    "pair_queries": replace(workloads.PairQueries.size, block=4, blocks=4,
                            reference_queries=4),
}


def tiny_run(name: str, trace: bool, tmp_path: Path, seed: int = 0):
    return harness.run_workload(workloads.WORKLOADS[name], seed, 0.0, trace,
                                tmp_path / name, size=TINY[name])


def is_wrapper(obj) -> bool:
    return callable(obj) and hasattr(obj, "__wrapped__")


def package_attributes():
    import diffpos.channel

    owners = [m for n, m in sys.modules.items() if n.startswith("diffpos")]
    owners.append(diffpos.channel.SceneGeometry)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end_at_tiny_size(name, tmp_path):
    untraced = tiny_run(name, False, tmp_path)
    assert untraced.attempted >= 1
    assert untraced.failures == []
    assert set(untraced.metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m.value > 0 for m in untraced.metrics.values())

    traced = tiny_run(name, True, tmp_path)
    assert traced.failures == []
    assert set(traced.metrics) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_traced_counts_repeat_exactly(tmp_path):
    first = tiny_run("trials_sweep", True, tmp_path)
    second = tiny_run("trials_sweep", True, tmp_path)
    counts = {n: m.value for n, m in first.metrics.items()
              if m.unit == "count"}
    assert counts["positioning.dnls_solve.calls"] > 0
    assert counts == {n: m.value for n, m in second.metrics.items() if m.unit == "count"}


def test_traced_context_restores_every_patch():
    workloads.load_diffpos()
    before = package_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            during = package_attributes()
            assert sum(is_wrapper(v) for v in during.values()) >= len(tracing.TARGETS)
            raise RuntimeError("abandon the traced pass")
    after = package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_untraced_passes_after_a_traced_run_see_no_wrappers(tmp_path):
    tiny_run("pair_queries", True, tmp_path)
    assert not any(is_wrapper(v) for v in package_attributes().values())


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    child = tracer.wrap("fap.range_sigma_m", lambda: time.sleep(0.02))

    def parent_body():
        time.sleep(0.01)
        child()

    parent = tracer.wrap("fap.select_fap", parent_body)
    parent()
    parent_stats = tracer.stats["fap.select_fap"]
    child_stats = tracer.stats["fap.range_sigma_m"]
    assert (parent_stats.calls, child_stats.calls) == (1, 1)
    assert child_stats.self_s >= 0.02
    assert 0.01 <= parent_stats.self_s < child_stats.self_s


def test_sweep_reference_check_tolerances():
    doc = json.loads((workloads.REFERENCE_DIR / "trials_sweep.json").read_text())["seeds"]["0"]
    assert workloads.check_sweep_report(doc, doc) == []

    close = json.loads(json.dumps(doc))
    close["frequencies"][0]["dnls_errors_m"][0] += 1e-8
    assert workloads.check_sweep_report(close, doc) == []

    far = json.loads(json.dumps(doc))
    far["frequencies"][0]["dnls_errors_m"][0] += 2e-6
    assert workloads.check_sweep_report(far, doc)

    shifted = json.loads(json.dumps(doc))
    fr = shifted["frequencies"][0]
    fr["exclusions"]["dnls_failed"] += 1
    fr["dnls_errors_m"].pop()
    errors = workloads.check_sweep_report(shifted, None)
    assert errors == [], "one sample moved to the exclusions still accounts for all"
    assert workloads.check_sweep_report(shifted, doc)

    lost = json.loads(json.dumps(doc))
    lost["frequencies"][0]["lls_errors_m"].pop()
    assert workloads.check_sweep_report(lost, None)


def test_query_reference_check_tolerances():
    want = ["MPC3", 12, 25, 30.0, 21.5]
    check = workloads.PairQueries._reference_problem
    assert check(["MPC3", 12, 25, 30.0 * (1 + 5e-10), 21.5 + 5e-10], want) is None
    assert check(["MPC3", 12, 25, 30.0 * (1 + 2e-9), 21.5], want)
    assert check(["MPC3", 12, 25, 30.0, 21.5 + 2e-9], want)
    assert check(["MPC1", None, 25, 30.0, 21.5], want)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_references_are_recorded_at_the_current_size(name):
    doc = json.loads((workloads.REFERENCE_DIR / f"{name}.json").read_text())
    w = workloads.WORKLOADS[name]
    assert doc["size"] == json.loads(json.dumps(asdict(w.size)))
    assert workloads.load_reference(name, w.size) == doc["seeds"]
    assert len(doc["seeds"]) >= 10


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "pair_queries",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
