"""Record the sweep golden file read by tests/test_experiments.py.

Run from the repository root with ``PYTHONPATH=src python3
tests/data/record_sweep.py``. The file holds ``report_to_dict`` of two
``run_sweep`` calls on the default scene's 10 m grid, floor 3, over the
seven ladder frequencies with 2 trials at seed 0: one with noise and one
noiseless.
"""

import json
import subprocess
from pathlib import Path

from diffpos.experiments import (
    DEFAULT_FREQUENCY_LADDER_HZ,
    SweepConfig,
    build_default_scene,
    report_to_dict,
    run_sweep,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "sweep_golden.json"
GRID_SPACING, FLOORS, TRIALS, SEED = 10.0, (3,), 2, 0


def sweep_config(noiseless: bool) -> SweepConfig:
    scene = build_default_scene(grid_spacing=GRID_SPACING, receiver_floors=FLOORS)
    return SweepConfig(scene=scene, frequencies_hz=DEFAULT_FREQUENCY_LADDER_HZ,
                       trials=TRIALS, seed=SEED, noiseless=noiseless)


def record() -> dict:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, check=False).stdout.strip()
    return {"schema": "sweep-golden/1", "recorded_at": commit,
            "reports": {name: report_to_dict(run_sweep(sweep_config(noiseless)))
                        for name, noiseless in (("noisy", False), ("noiseless", True))}}


if __name__ == "__main__":
    doc = record()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
