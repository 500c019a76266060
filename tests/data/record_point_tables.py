"""Record the point-table golden file read by tests/test_paths_columnar.py.

Run from the repository root with ``PYTHONPATH=src python3
tests/data/record_point_tables.py``. The file holds, for 40 seeded point
queries (an anchor and an off-grid receiver on floors 3-4 of the default
scene), the SHA-256 of every column of the query's one-anchor path table,
with its dtype and shape, so a later table builder can be checked against
this one bit for bit.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import numpy as np

from diffpos.channel import build_scene_geometry, path_table
from diffpos.experiments import build_default_scene
from diffpos.geometry import Point3

GOLDEN_PATH = Path(__file__).resolve().parent / "point_tables_golden.json"
COLUMNS = ("anchor", "length_m", "tof_s", "crossings", "kind", "n_crossings", "group",
           "edge_id", "reflector", "incidence_rad")
QUERIES = 40
SEED = 17


def queries(scene) -> list[tuple[int, Point3]]:
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(QUERIES):
        floor = int(rng.choice([3, 4]))
        rx = Point3(float(rng.uniform(0.5, 29.5)), float(rng.uniform(0.5, 19.5)),
                    scene.floor_base(floor) + float(rng.uniform(1.0, 2.0)))
        out.append((int(rng.integers(len(scene.anchors))), rx))
    return out


def column_digest(column: np.ndarray) -> list:
    column = np.ascontiguousarray(column)
    return [column.dtype.str, list(column.shape), hashlib.sha256(column.tobytes()).hexdigest()]


def record() -> dict:
    scene = build_default_scene()
    geom = build_scene_geometry(scene)
    tables = []
    for anchor, rx in queries(scene):
        table = path_table(scene, (anchor,), rx, geom)
        tables.append({"anchor": anchor, "rx": [rx.x, rx.y, rx.z],
                       "columns": {name: column_digest(getattr(table, name))
                                   for name in COLUMNS}})
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, check=False).stdout.strip()
    return {"schema": "point-tables-golden/1", "recorded_at": commit, "seed": SEED,
            "tables": tables}


if __name__ == "__main__":
    doc = record()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{" + ", ".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items() if k != "tables"))
        fh.write(', "tables": [\n')
        fh.write(",\n".join(json.dumps(t, separators=(",", ":")) for t in doc["tables"]))
        fh.write("\n]}\n")
    print(f"wrote {GOLDEN_PATH}")
