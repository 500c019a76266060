"""Run workloads in their own processes and print every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/summary.py                          # all workloads, seed 0
    python3 perfbench/summary.py --seeds 0 1 2 3 4 --trace 0 --workloads trials_sweep
    python3 perfbench/summary.py --seeds 0 1 2 --record "label"

Each (workload, seed, trace) run is one ``run.py`` process. For every metric
the table gives the median over seeds, the spread (distance between the
first and third quartile as a share of the median, as the regression gate
computes it), the unit and the number of samples behind one run's value.
``--record`` appends the medians with the machine's provenance to
``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAJECTORY = HERE / "trajectory.json"


def run_one(workload: str, seed: int, seconds: float, trace: int, details: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--details", str(details)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(details.read_text(encoding="utf-8"))
    details.unlink()
    return doc


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def cpu_model() -> str:
    """Read here rather than in run.py, which reads nothing outside its checkout."""
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    p.add_argument("--record", metavar="LABEL", default=None,
                   help="append the medians to trajectory.json under this label")
    args = p.parse_args(argv)

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    details = work / f"summary-{os.getpid()}.json"
    runs: dict[str, dict[str, list]] = {}
    provenance = None
    print(f"{'workload':13s} {'metric':44s} {'median':>12s} {'spread':>7s} "
          f"{'unit':6s} {'runs':>4s} samples/run", flush=True)
    for workload in args.workloads:
        per_metric: dict[str, list] = {}
        failed = attempted = 0
        started = time.perf_counter()
        for trace in args.trace:
            for seed in args.seeds:
                doc = run_one(workload, seed, args.seconds, trace, details)
                provenance = doc["provenance"]
                failed += doc["failed"]
                attempted += doc["attempted"]
                for failure in doc["failures"]:
                    print(f"FAILED {workload} seed {seed}: {failure}", file=sys.stderr)
                for name, m in doc["metrics"].items():
                    per_metric.setdefault(name, []).append(m)
        per_metric["failed_frac"] = [{"value": failed / attempted, "unit": "ratio",
                                      "samples": attempted}]
        runs[workload] = per_metric
        for name in sorted(per_metric):
            ms = per_metric[name]
            values = [m["value"] for m in ms]
            sp = spread(values)
            print(f"{workload:13s} {name:44s} {statistics.median(values):12.6g} "
                  f"{'' if sp is None else f'{sp:7.1%}':>7s} {ms[0]['unit']:6s} "
                  f"{len(ms):4d} {statistics.median(m['samples'] for m in ms):g}")
        print(f"# {workload}: {time.perf_counter() - started:.0f} s", flush=True)

    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text(encoding="utf-8")) \
            if TRAJECTORY.is_file() else []
        trajectory.append({
            "label": args.record,
            "provenance": {**provenance, "cpu_model": cpu_model()},
            "seeds": args.seeds,
            "seconds": args.seconds,
            "workloads": {
                w: {name: {"median": statistics.median(m["value"] for m in ms),
                           "spread": spread([m["value"] for m in ms]),
                           "unit": ms[0]["unit"], "runs": len(ms)}
                    for name, ms in sorted(per_metric.items())}
                for w, per_metric in runs.items()},
        })
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
