"""Record the enumeration golden file read by tests/test_channel.py.

Run from the repository root with ``PYTHONPATH=src python3
tests/data/record_enumeration.py``. The file holds the full, untruncated PDPs
of ``enumerate_mpcs`` on the default scene for two receivers (floors 3 and 4)
x every anchor x the seven ladder frequencies. Paths are frequency
independent, so each pair stores its paths once and each PDP lists
(path index, received power in dBm) in time-of-flight order.
"""

import json
import subprocess
from pathlib import Path

from diffpos.channel import build_scene_geometry, enumerate_mpcs
from diffpos.experiments import DEFAULT_FREQUENCY_LADDER_HZ, build_default_scene
from diffpos.geometry import Point3

GOLDEN_PATH = Path(__file__).resolve().parent / "enumeration_golden.json"
RECEIVERS = (Point3(9.0, 5.0, 7.5), Point3(21.0, 13.0, 10.5))


def record() -> dict:
    scene = build_default_scene()
    geom = build_scene_geometry(scene)
    pairs = []
    for rx in RECEIVERS:
        for a in range(len(scene.anchors)):
            paths, index, pdps = [], {}, []
            for f_hz in DEFAULT_FREQUENCY_LADDER_HZ:
                rows = []
                for m in enumerate_mpcs(scene, a, rx, f_hz, geometry=geom).mpcs:
                    key = ("-".join(("Tx", *m.interactions, "Rx")), m.group.name, m.edge_id, m.path_length_m)
                    if key not in index:
                        index[key] = len(paths)
                        paths.append(list(key))
                    rows.append([index[key], m.rx_power_dbm])
                pdps.append(rows)
            pairs.append({"rx": [rx.x, rx.y, rx.z], "anchor": a,
                          "paths": paths, "pdps": pdps})
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, check=False).stdout.strip()
    return {"schema": "enumeration-golden/1", "recorded_at": commit,
            "frequencies_hz": list(DEFAULT_FREQUENCY_LADDER_HZ), "pairs": pairs}


if __name__ == "__main__":
    doc = record()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{" + ", ".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items() if k != "pairs"))
        fh.write(', "pairs": [\n')
        fh.write(",\n".join(json.dumps(p, separators=(",", ":")) for p in doc["pairs"]))
        fh.write("\n]}\n")
    print(f"wrote {GOLDEN_PATH}")
