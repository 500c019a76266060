"""Measurement loop shared by the command line and the benchmark's tests.

A run sets the workload up several times (each set-up imports the package
afresh) and keeps the median, then repeats passes until the run length is
used. Untraced runs report the end-to-end metrics, with times scaled to the
reference machine speed by the speed probe. Traced runs alternate untraced
and traced passes: the traced ones give the per-layer metrics, and the two
together give the tracing overhead; their times are not scaled.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

from speedprobe import NoProbe, SpeedProbe
from tracing import Tracer, layer_metrics, traced
from workloads import load_diffpos

SETUP_REPS = 5


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    metrics: dict[str, Metric]
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    # Reported but not gated: the speed scale, per-pass times and query p99.
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir,
                 size=None) -> RunResult:
    work_dir.mkdir(parents=True, exist_ok=True)
    with NoProbe() if trace else SpeedProbe() as probe:
        return _measure(workload, seed, seconds, trace, work_dir, size, probe)


def _measure(workload, seed, seconds, trace, work_dir, size, probe):
    result = RunResult(metrics={})
    setup_times, scales = [], []
    state = None
    for _ in range(SETUP_REPS):
        t0 = probe.clock()
        state = workload.prepare(load_diffpos(), seed, work_dir, size)
        t1 = probe.clock()
        scale = probe.scale(t0, t1)
        setup_times.append((t1 - t0) * scale)
        scales.append(scale)

    # Enough passes for a median; a traced run needs two of each kind.
    min_passes = 4 if trace else 3
    max_passes = workload.passes_available(state)
    raw_walls, walls, cpus, latencies_ms = [], [], [], []
    traced_walls, layer_runs = [], []
    start = time.perf_counter()
    index = 0
    while True:
        k = workload.input_index(index, trace)
        tracer = Tracer() if trace and index % 2 == 1 else None
        t0, c0, spent0 = probe.clock(), time.process_time(), probe.spent
        try:
            if tracer is None:
                output = workload.run_pass(state, k, probe.clock)
            else:
                with traced(tracer):
                    output = workload.run_pass(state, k, probe.clock)
        except Exception:
            output = None
            failures, ops = [f"pass {index} raised:\n{traceback.format_exc()}"], 1
        t1 = probe.clock()
        cpu = time.process_time() - c0 - (probe.spent - spent0)
        wall, scale = t1 - t0, probe.scale(t0, t1)
        raw_walls.append(wall)
        if output is not None:
            try:
                ops, failures = workload.check(state, k, output)
            except Exception:
                failures, ops = [f"checking pass {index} raised:\n{traceback.format_exc()}"], 1
        result.attempted += ops
        result.failures.extend(failures)

        if tracer is None:
            walls.append(wall * scale)
            cpus.append(cpu * scale)
            scales.append(scale)
            spans = workload.op_spans(output) if output is not None else None
            latencies_ms.extend([(b - a) * probe.scale(a, b) * 1e3 for a, b in spans]
                                if spans else [wall * scale * 1e3])
        else:
            traced_walls.append(wall)
            layer_runs.append(layer_metrics(tracer))

        index += 1
        elapsed = time.perf_counter() - start
        if max_passes is not None and index >= max_passes:
            break
        if index >= min_passes and elapsed + statistics.median(raw_walls) > seconds:
            break

    result.info = {"speed_scale": statistics.median(scales), "pass_s": walls,
                   "query_p99_ms": percentile(latencies_ms, 99)}
    if trace:
        result.metrics = _layer_summary(layer_runs, walls, traced_walls)
    else:
        n = len(walls)
        result.metrics = {
            "setup_s": Metric(statistics.median(setup_times), "s", len(setup_times)),
            "sweep_s": Metric(statistics.median(walls), "s", n),
            "cpu_s": Metric(statistics.median(cpus), "s", n),
            "query_p50_ms": Metric(percentile(latencies_ms, 50), "ms", len(latencies_ms)),
            "query_p90_ms": Metric(percentile(latencies_ms, 90), "ms", len(latencies_ms)),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": Metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
    return result


def _layer_summary(layer_runs, walls, traced_walls) -> dict[str, Metric]:
    """Counts from the first traced pass; times as medians over traced passes."""
    n = len(layer_runs)
    out = {}
    for name, (value, unit) in layer_runs[0].items():
        if unit == "s":
            value = statistics.median(run[name][0] for run in layer_runs)
        out[name] = Metric(value, unit, n)
    out["trace.overhead_frac"] = Metric(
        statistics.median(traced_walls) / statistics.median(walls) - 1.0, "ratio", n)
    return out
