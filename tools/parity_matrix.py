"""Print the SHA-256 of every output file of the 72-sweep parity matrix.

The matrix is the benchmark's two sweep sizes at seeds 0-15 and the desk
scene (``build_default_scene()``) at seeds 0-3, each noisy and noiseless.
Each sweep's ``report.json`` is written as ``diffpos sweep`` writes it, next
to its CSVs, and one ``<sha256>  <sweep>/<file>`` line is printed per file.
Two trees give the same outputs when this script prints the same lines on
both, so compare them with ``diff``:

    PYTHONPATH=src python tools/parity_matrix.py > change.txt

The bits are only promised on one machine, so compare runs made on the
same one. Takes about 10 s on a 2-core x86 box.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from diffpos.experiments import (DEFAULT_FREQUENCY_LADDER_HZ, SweepConfig, build_default_scene,
                                 export_report, report_to_dict, run_sweep)

# (name, grid spacing, receiver floors, frequencies, trials, seeds): the
# ladder_sweep and trials_sweep benchmark workloads, then the desk scene.
MATRIX = (
    ("ladder", 10.0, (3,), DEFAULT_FREQUENCY_LADDER_HZ, 1, range(16)),
    ("trials", 6.0, (3,), (28e9,), 2, range(16)),
    ("desk", 2.0, (3, 4), DEFAULT_FREQUENCY_LADDER_HZ, 1, range(4)),
)


def write_matrix(out: Path):
    """Run every sweep of the matrix into its own directory under ``out``;
    yields each directory once it is written."""
    for name, spacing, floors, freqs, trials, seeds in MATRIX:
        scene = build_default_scene(grid_spacing=spacing, receiver_floors=floors)
        for seed in seeds:
            for noiseless in (False, True):
                report = run_sweep(SweepConfig(scene=scene, frequencies_hz=freqs, trials=trials,
                                               seed=seed, noiseless=noiseless))
                sweep = out / f"{name}_seed{seed}_{'noiseless' if noiseless else 'noisy'}"
                sweep.mkdir(parents=True)
                with open(sweep / "report.json", "w", encoding="utf-8") as fh:
                    json.dump(report_to_dict(report), fh)
                    fh.write("\n")
                export_report(report, sweep)
                yield sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path,
                        help="keep the sweeps in this new directory (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        for sweep in write_matrix(out):
            for path in sorted(sweep.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {sweep.name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
