"""Record the per-seed output references that the benchmark checks against.

Usage, from the root of a checkout:

    python3 perfbench/record_references.py            # every workload, seeds 0-15
    python3 perfbench/record_references.py --workloads pair_queries --seeds 0 1

Each reference is the output of the workload's first input for that seed,
at the workload's current size. Record them at a commit whose outputs are
trusted; a change that must not alter what the pipeline reports is then
checked against them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_DIR, WORKLOADS, load_diffpos  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(16)))
    args = p.parse_args(argv)

    work_dir = HERE.parent / ".bench_work" / "references"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workloads:
            workload = WORKLOADS[name]
            path = REFERENCE_DIR / f"{name}.json"
            size = json.loads(json.dumps(asdict(workload.size)))
            doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
            if doc.get("size") != size:
                doc = {"size": size, "seeds": {}}
            for seed in args.seeds:
                state = workload.prepare(load_diffpos(), seed, work_dir)
                output = workload.run_pass(state, 0, time.perf_counter)
                doc["seeds"][str(seed)] = workload.reference_record(state, output)
                print(f"{name} seed {seed}", flush=True)
            doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
            REFERENCE_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
