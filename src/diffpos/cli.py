"""Command-line interface.

Subcommands:
  scene   emit a scene config JSON (default desk-scale building)
  sweep   run the frequency sweep and export report.json plus CSVs
  ingest  validate an MPC dataset file and print group statistics
  report  re-export CSVs from a saved report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channel import MpcGroup, ingest_dataset
from .experiments import (
    DEFAULT_FREQUENCY_LADDER_HZ,
    SweepConfig,
    build_default_scene,
    export_report,
    load_scene,
    report_from_dict,
    report_to_dict,
    run_sweep,
    save_scene,
)
from .materials import load_material_library
from .records import _unique_keys


def _cmd_scene(args) -> int:
    materials = load_material_library(args.materials) if args.materials else None
    scene = build_default_scene(
        grid_spacing=args.grid_spacing,
        receiver_floors=tuple(args.floors),
        full_scale=args.full_scale,
        materials=materials,
    )
    save_scene(scene, args.out)
    print(f"wrote scene config to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    frequencies = tuple(sorted(args.frequencies)) if args.frequencies \
        else DEFAULT_FREQUENCY_LADDER_HZ
    scene = load_scene(args.scene) if args.scene else build_default_scene()
    cfg = SweepConfig(
        scene=scene,
        frequencies_hz=frequencies,
        t_fap_db=args.t_fap,
        trials=args.trials,
        seed=args.seed,
        noiseless=args.noiseless,
    )
    report = run_sweep(cfg)  # before mkdir: a refused sweep leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh)
        fh.write("\n")
    files = export_report(report, out)
    for fr in report.frequencies:
        parts = ", ".join(f"{g.name}={fr.p_fap_pct[g]:.1f}%" for g in MpcGroup)
        print(f"{fr.frequency_hz / 1e9:g} GHz: {parts}")
    print(f"wrote report.json and {len(files)} CSV files to {out}")
    return 0


def _cmd_ingest(args) -> int:
    result = ingest_dataset(args.dataset)
    pairs = {(r.anchor_id, r.rx_id) for r in result.records}
    print(f"{len(result.records)} MPCs across {len(pairs)} (anchor, receiver) pairs")
    for g in MpcGroup:
        print(f"  {g.name}: {result.groups.count(g)}")
    if result.rejected:
        print(f"{len(result.rejected)} rejected records:")
        for line_no, reason in result.rejected:
            print(f"  line {line_no}: {reason}")
    return 1 if result.rejected and args.strict else 0


def _cmd_report(args) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = report_from_dict(json.load(fh, object_pairs_hook=_unique_keys))
    files = export_report(report, args.out)
    print(f"wrote {len(files)} CSV files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffpos",
        description="Diffraction-aided NLoS positioning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene", help="emit a scene config JSON")
    p.add_argument("--out", default="scene.json", help="output path")
    p.add_argument("--grid-spacing", type=float, default=2.0,
                   help="receiver grid spacing in meters")
    p.add_argument("--floors", type=int, nargs="+", default=[3, 4],
                   help="receiver floors")
    p.add_argument("--full-scale", action="store_true",
                   help="0.5 m grid over floors 3-7")
    p.add_argument("--materials", default=None,
                   help="material library JSON overriding the packaged table")
    p.set_defaults(func=_cmd_scene)

    p = sub.add_parser("sweep", help="run the frequency sweep")
    p.add_argument("--scene", default=None, help="scene config JSON (default: built-in)")
    p.add_argument("--out", default="sweep_out", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-fap", type=float, default=20.0,
                   help="FAP threshold below the strongest path, dB")
    p.add_argument("--trials", type=int, default=1, help="noise trials per receiver")
    p.add_argument("--frequencies", type=float, nargs="+", default=None,
                   help="ladder points in Hz (default: built-in FR1/FR3/FR2 ladder)")
    p.add_argument("--noiseless", action="store_true",
                   help="skip range noise (measurements equal FAP lengths)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ingest", help="validate an MPC dataset file")
    p.add_argument("--dataset", required=True, help="line-delimited JSON dataset")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero when any record is rejected")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("report", help="re-export CSVs from report.json")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--out", default="sweep_out", help="output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DatasetError, JSONDecodeError, LinAlgError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
