"""Workload definitions: seeded inputs, one timed pass, and output checks.

Every workload makes its inputs from the seed alone and hands the program
only those inputs. A pass is the unit that is timed; the harness repeats it
for the run length. Checks run outside the timed region and compare against
the references recorded in ``references/`` (for seeds that have one) plus
invariants that hold for every seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import random
import shutil
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# The paper's FR1/FR3/FR2 ladder, fixed here so that the inputs belong to the
# benchmark rather than to the program's defaults.
LADDER_HZ = (0.7e9, 3.5e9, 5.8e9, 10e9, 15e9, 28e9, 39e9)
T_FAP_DB = 20.0
TOP_K = 25
SPEED_OF_LIGHT = 299_792_458.0

PACKAGE_MODULES = ("channel", "cli", "experiments", "fap", "geometry")


def load_diffpos() -> SimpleNamespace:
    """Import the package afresh, so that import time is part of every set-up."""
    for name in [n for n in sys.modules if n == "diffpos" or n.startswith("diffpos.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module(f"diffpos.{m}") for m in PACKAGE_MODULES})


@functools.lru_cache(maxsize=None)
def load_reference(name: str, size) -> dict:
    """Per-seed references for this workload, or {} if recorded at another size.

    Cached, so that set-up times after the first do not include reading it.
    """
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("size") != json.loads(json.dumps(asdict(size))):
        return {}
    return doc["seeds"]


class Workload:
    """A pass is repeated for the run length.

    ``run_pass(state, k, clock)`` runs the program on input ``k``; a pass
    that times its own operations reads ``clock``, which excludes the speed
    probe's time.

    ``check(state, k, output)`` checks the pass on input ``k`` and returns
    the number of operations the pass made and one error message per
    operation that failed its check.
    """

    name: str

    def input_index(self, index: int, trace: bool) -> int:
        """Which of the seed's inputs pass ``index`` of a run gets."""
        return index

    def passes_available(self, state) -> int | None:
        return None

    def op_spans(self, output) -> list[tuple[float, float]] | None:
        """(start, end) of each operation of a pass; None when the pass is one."""
        return None


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSize:
    grid_spacing: float  # receivers on the default scene's grid, margin 1 m
    floors: tuple[int, ...]
    frequencies_hz: tuple[float, ...]
    trials: int


def check_sweep_report(doc: dict, ref: dict | None) -> list[str]:
    """Invariants of a sweep report, then the recorded reference if any."""
    errors = []
    trials = doc["trials"]
    for fr in doc["frequencies"]:
        tag = f"{fr['frequency_hz'] / 1e9:g} GHz"
        total = sum(fr["p_fap_pct"].values())
        if abs(total - 100.0) > 1e-9:
            errors.append(f"{tag}: p_fap sums to {total!r}")
        excl = fr["exclusions"]
        detected = fr["n_receivers"] - excl["no_detection"]
        # Each detected receiver-trial gives a D-NLS and an LLS sample or an
        # exclusion; each detected receiver gives a bound or a singular one.
        accounted = (
            ("dnls", len(fr["dnls_errors_m"]) + excl["dnls_failed"], detected * trials),
            ("lls", len(fr["lls_errors_m"]) + excl["lls_failed"], detected * trials),
            ("peb", len(fr["peb_m"]) + excl["peb_singular"], detected),
        )
        for key, n, expected in accounted:
            if n != expected:
                errors.append(f"{tag}: {key} samples and exclusions cover {n} of {expected}")
        for key in ("dnls_errors_m", "lls_errors_m", "peb_m"):
            xs = fr[key]
            if any(not (math.isfinite(x) and x >= 0.0) for x in xs) or xs != sorted(xs):
                errors.append(f"{tag}: {key} is not a sorted list of finite errors")
    if ref is None:
        return errors

    if len(doc["frequencies"]) != len(ref["frequencies"]):
        return errors + ["frequency count differs from the reference"]
    for fr, rf in zip(doc["frequencies"], ref["frequencies"]):
        tag = f"{rf['frequency_hz'] / 1e9:g} GHz"
        for key in ("frequency_hz", "p_fap_pct", "exclusions", "n_receivers", "n_pairs"):
            if fr[key] != rf[key]:
                errors.append(f"{tag}: {key} {fr[key]!r} != reference {rf[key]!r}")
        q, rq = fr["fap_snr_quartiles_db"], rf["fap_snr_quartiles_db"]
        if (q is None) != (rq is None) or (
                q is not None and max(abs(a - b) for a, b in zip(q, rq)) > 1e-9):
            errors.append(f"{tag}: FAP SNR quartiles {q!r} != reference {rq!r}")
        for key in ("dnls_errors_m", "lls_errors_m", "peb_m"):
            xs, rs = fr[key], rf[key]
            if len(xs) != len(rs) or any(abs(a - b) > 1e-6 for a, b in zip(xs, rs)):
                errors.append(f"{tag}: {key} differs from the reference by more than 1e-6 m")
    return errors


class SweepWorkload(Workload):
    """A sweep over a fixed receiver grid; the seed draws the range noise.

    Pass 0 uses the run's seed as the sweep seed, so a reference pass can be
    rerun by hand with ``diffpos sweep --seed <seed>``. Later inputs draw
    their sweep seeds from the run's seed, so that a run averages over
    several noise draws: the D-NLS retry ladder makes the cost of a draw
    vary. One input is run twice in every run, and the two outputs must be
    identical.
    """

    def input_index(self, index: int, trace: bool) -> int:
        # Untraced: inputs 0, 0, 1, 2, ...; traced: each untraced pass is
        # followed by a traced pass on the same input.
        return index // 2 if trace else max(0, index - 1)

    def _new_state(self, seed: int, size, **fields) -> SimpleNamespace:
        return SimpleNamespace(size=size, rng=random.Random(seed), sweep_seeds=[seed],
                               fingerprints={},
                               reference=load_reference(self.name, size).get(str(seed)),
                               **fields)

    @staticmethod
    def sweep_seed(state, k: int) -> int:
        while len(state.sweep_seeds) <= k:
            state.sweep_seeds.append(state.rng.getrandbits(32))
        return state.sweep_seeds[k]

    @staticmethod
    def _verdict(state, k: int, doc: dict, fingerprint) -> tuple[int, list[str]]:
        errors = check_sweep_report(doc, state.reference if k == 0 else None)
        if state.fingerprints.setdefault(k, fingerprint) != fingerprint:
            errors.append("outputs differ between two passes with the same inputs")
        return 1, ["; ".join(errors)] if errors else []


class LadderSweep(SweepWorkload):
    """The paper's full frequency ladder through the command line, one trial.

    Why: path enumeration dominates (``leg_crossings`` and
    ``diffraction_point`` take most of the self time), and every (anchor,
    receiver) geometry is recomputed once per ladder frequency, so this is
    where computing geometry once per pair must show its gain. It also covers
    the CLI and the CSV/JSON export, whose files must be byte-identical
    between two passes with the same inputs.
    """

    name = "ladder_sweep"
    size = SweepSize(grid_spacing=10.0, floors=(3,), frequencies_hz=LADDER_HZ, trials=1)

    def prepare(self, dp, seed: int, work_dir: Path, size=None) -> SimpleNamespace:
        size = size or self.size
        scene_path = work_dir / "scene.json"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dp.cli.main(["scene", "--out", str(scene_path),
                              "--grid-spacing", repr(size.grid_spacing),
                              "--floors", *map(str, size.floors)])
        if rc != 0:
            raise RuntimeError(f"diffpos scene exited with {rc}")
        argv = ["sweep", "--scene", str(scene_path),
                "--trials", str(size.trials), "--t-fap", repr(T_FAP_DB),
                "--frequencies", *map(repr, size.frequencies_hz)]
        return self._new_state(seed, size, dp=dp, argv=argv, work_dir=work_dir)

    def run_pass(self, state, k: int, clock):
        out = state.work_dir / f"input{k}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = state.dp.cli.main([*state.argv, "--seed", str(self.sweep_seed(state, k)),
                                    "--out", str(out)])
        return rc, out

    @staticmethod
    def _read(out: Path) -> tuple[dict, dict]:
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        shutil.rmtree(out)
        return doc, digests

    def check(self, state, k: int, output) -> tuple[int, list[str]]:
        rc, out = output
        if rc != 0:
            return 1, [f"diffpos sweep exited with {rc}"]
        return self._verdict(state, k, *self._read(out))

    def reference_record(self, state, output) -> dict:
        return self._read(output[1])[0]


class TrialsSweep(SweepWorkload):
    """One frequency (28 GHz) with several noise trials, through run_sweep.

    Why: at 28 GHz most first arriving paths are single diffractions, the
    paper's regime, and positioning dominates (the D-NLS model, its Jacobian
    and the retry ladder). Enumeration runs once per pair, so reusing
    geometry across frequencies has nothing to reuse here: the prediction for
    that optimisation on this workload is no change, while a faster D-NLS
    must show here.
    """

    name = "trials_sweep"
    size = SweepSize(grid_spacing=6.0, floors=(3,), frequencies_hz=(28e9,), trials=2)

    def prepare(self, dp, seed: int, work_dir: Path, size=None) -> SimpleNamespace:
        size = size or self.size
        scene = dp.experiments.build_default_scene(grid_spacing=size.grid_spacing,
                                                   receiver_floors=size.floors)
        return self._new_state(seed, size, dp=dp, scene=scene)

    def run_pass(self, state, k: int, clock):
        cfg = state.dp.experiments.SweepConfig(
            scene=state.scene, frequencies_hz=state.size.frequencies_hz,
            t_fap_db=T_FAP_DB, trials=state.size.trials,
            seed=self.sweep_seed(state, k), top_k=TOP_K)
        return state.dp.experiments.run_sweep(cfg)

    def _doc(self, state, report) -> dict:
        return json.loads(json.dumps(state.dp.experiments.report_to_dict(report)))

    def check(self, state, k: int, output) -> tuple[int, list[str]]:
        doc = self._doc(state, output)
        return self._verdict(state, k, doc, json.dumps(doc, sort_keys=True))

    def reference_record(self, state, output) -> dict:
        return self._doc(state, output)


# ---------------------------------------------------------------------------
# Point queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuerySize:
    block: int  # queries per pass
    blocks: int  # blocks generated at set-up; a run stops early if it uses all
    floors: tuple[int, ...]
    reference_queries: int  # leading queries of a seed kept as its reference


class PairQueries(Workload):
    """Closed loop, one client: point queries through the library path.

    Each query is a seeded (anchor, off-grid receiver on floors 3-4, ladder
    frequency) triple run through enumerate_mpcs -> truncate_top_k ->
    select_fap against one shared SceneGeometry, and the next query is sent
    when the previous one returns. Why: no two queries share a receiver, so
    per-pair caches always miss and a batch enumerator runs at batch size 1.
    This catches an optimisation that only pays off in batches and slows the
    library's point-query users.
    """

    name = "pair_queries"
    size = QuerySize(block=250, blocks=40, floors=(3, 4), reference_queries=100)

    def prepare(self, dp, seed: int, work_dir: Path, size=None) -> SimpleNamespace:
        size = size or self.size
        scene = dp.experiments.build_default_scene()
        geom = dp.channel.build_scene_geometry(scene)
        rng = random.Random(seed)
        lx, ly = scene.footprint_x, scene.footprint_y
        queries = []
        for _ in range(size.block * size.blocks):
            anchor = rng.randrange(len(scene.anchors))
            floor = rng.choice(size.floors)
            rx = dp.geometry.Point3(
                rng.uniform(0.5, lx - 0.5), rng.uniform(0.5, ly - 0.5),
                scene.floor_base(floor) + rng.uniform(1.0, 2.0))
            queries.append((anchor, rx, rng.choice(LADDER_HZ)))
        return SimpleNamespace(dp=dp, scene=scene, geom=geom, queries=queries,
                               size=size,
                               reference=load_reference(self.name, size).get(str(seed)))

    def passes_available(self, state) -> int:
        return state.size.blocks

    def op_spans(self, output) -> list[tuple[float, float]]:
        return output[1]

    def run_pass(self, state, k: int, clock):
        channel, fap_mod = state.dp.channel, state.dp.fap
        scene, geom = state.scene, state.geom
        block = state.size.block
        results = []
        spans = []
        for anchor, rx, f_hz in state.queries[k * block:(k + 1) * block]:
            start = clock()
            try:
                pdp = channel.truncate_top_k(
                    channel.enumerate_mpcs(scene, anchor, rx, f_hz, geometry=geom), TOP_K)
                try:
                    fap = fap_mod.select_fap(pdp, T_FAP_DB)
                except fap_mod.NoDetectionError:
                    fap = None
                result = (pdp, fap)
            except Exception as exc:  # one failed query, counted by check()
                result = exc
            spans.append((start, clock()))
            results.append(result)
        return results, spans

    @staticmethod
    def _summary(result) -> list:
        """[FAP group, edge id, MPC count, FAP length, FAP SNR] of one query."""
        pdp, fap = result
        if fap is None:
            return [None, None, len(pdp.mpcs), None, None]
        c = fap.chosen
        return [c.group.name, c.edge_id, len(pdp.mpcs), c.path_length_m, c.snr_db]

    def check(self, state, k: int, output) -> tuple[int, list[str]]:
        results, _ = output
        block = state.size.block
        ref = state.reference or []
        classify = state.dp.channel.classify_mpc
        errors = []
        for j, result in enumerate(results):
            qi = k * block + j
            anchor, rx, f_hz = state.queries[qi]
            tag = f"query {qi} (anchor {anchor}, {f_hz / 1e9:g} GHz)"
            if isinstance(result, Exception):
                errors.append(f"{tag}: raised {result!r}")
                continue
            problem = self._invariant_problem(state, anchor, rx, result, classify)
            if problem is None and qi < len(ref):
                problem = self._reference_problem(self._summary(result), ref[qi])
            if problem is not None:
                errors.append(f"{tag}: {problem}")
        return len(results), errors

    @staticmethod
    def _invariant_problem(state, anchor, rx, result, classify) -> str | None:
        pdp, fap = result
        mpcs = pdp.mpcs
        if len(mpcs) > TOP_K:
            return f"{len(mpcs)} MPCs kept, more than top-k"
        if any(b.tof_s < a.tof_s for a, b in zip(mpcs, mpcs[1:])):
            return "PDP is not sorted by time of flight"
        if fap is None:
            return None if not mpcs else "no detection reported for a non-empty PDP"
        c = fap.chosen
        if c not in mpcs:
            return "chosen FAP is not in the PDP"
        threshold = max(m.snr_db for m in mpcs) - T_FAP_DB
        if c.snr_db < threshold or any(
                m.tof_s < c.tof_s and m.snr_db >= threshold for m in mpcs):
            return "chosen FAP is not the earliest path within t_fap of the strongest"
        direct = math.dist(state.scene.anchors[anchor], (rx.x, rx.y, rx.z))
        if c.path_length_m < direct * (1.0 - 1e-12):
            return f"FAP length {c.path_length_m!r} is shorter than the direct {direct!r}"
        if abs(c.tof_s * SPEED_OF_LIGHT - c.path_length_m) > 1e-9 * c.path_length_m:
            return "FAP time of flight disagrees with its length"
        if classify(c.interactions) is not c.group:
            return f"FAP group {c.group.name} does not match {c.interactions}"
        return None

    @staticmethod
    def _reference_problem(got: list, want: list) -> str | None:
        if got[:3] != want[:3]:
            return f"(group, edge, MPC count) {got[:3]} != reference {want[:3]}"
        if got[3] is None:
            return None
        if abs(got[3] - want[3]) > 1e-9 * want[3]:
            return f"FAP length {got[3]!r} != reference {want[3]!r} (1e-9 relative)"
        if abs(got[4] - want[4]) > 1e-9:
            return f"FAP SNR {got[4]!r} dB != reference {want[4]!r} dB (1e-9 dB)"
        return None

    def reference_record(self, state, output) -> list:
        results, _ = output
        return [self._summary(r) for r in results[:state.size.reference_queries]]


WORKLOADS = {w.name: w for w in (LadderSweep(), TrialsSweep(), PairQueries())}
