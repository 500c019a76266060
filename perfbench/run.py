"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder_sweep --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's ``src/``. Load comes from one
process and one thread, and BLAS/OpenMP pools are pinned to one thread. The
output is a table of every metric with its unit and sample count, a
provenance line, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, which is when the pools are sized.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy

    import diffpos

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info varies across versions
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "diffpos": diffpos.__version__,
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    p.add_argument("--seconds", type=float, required=True, help="run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--details", default=None,
                   help="also write metrics with sample counts, failures and "
                        "provenance to this JSON file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if not (SRC / "diffpos" / "__init__.py").is_file():
        print(f"error: no diffpos package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import run_workload
    from workloads import WORKLOADS

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in result.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    failed_frac = result.failed / result.attempted
    print(f"{'metric':44s} {'value':>14s} {'unit':6s} samples")
    for name, m in sorted(result.metrics.items()):
        print(f"{name:44s} {m.value:14.6g} {m.unit:6s} {m.samples}")
    print(f"{'failed_frac':44s} {failed_frac:14.6g} {'ratio':6s} {result.attempted}")
    if not args.trace:
        print(f"{'query_p99_ms (not gated)':44s} {result.info['query_p99_ms']:14.6g} ms")
        print(f"times are in reference seconds: measured times x "
              f"{result.info['speed_scale']:.4g} (median speed-probe scale)")
    prov = provenance()
    print("provenance:", json.dumps(prov, sort_keys=True))

    if args.details:
        Path(args.details).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "provenance": prov,
            "attempted": result.attempted, "failed": result.failed,
            "failed_frac": failed_frac, "failures": result.failures[:20],
            "metrics": {n: vars(m) for n, m in result.metrics.items()},
            "info": result.info,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": m.value, "unit": m.unit}
                    for n, m in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
