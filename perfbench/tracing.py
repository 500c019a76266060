"""Outside-in per-layer tracing of the diffpos package.

The tracer wraps public functions of the package from outside: each target
is replaced in every ``diffpos`` module that holds a reference to it, which is
where its callers look it up, and methods are replaced on their class. A
wrapper records the call count, the self time (its span's duration minus the
time its child spans cover) and outcome counts read from return values or
raised exceptions. Spans are folded into per-function totals as they close,
so memory stays flat however many calls a pass makes.

Every patch is undone when the ``traced`` context exits, also on error, so
untraced timings never run through a wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    raised: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)


# Outcome readers take (args, kwargs, result) and return counts to add.
def _enumerate_outcome(args, kwargs, pdp):
    return {"mpcs_out": len(pdp.mpcs)}


def _truncate_outcome(args, kwargs, pdp):
    pdp_in = args[0] if args else kwargs["pdp"]
    return {"mpcs_in": len(pdp_in.mpcs), "mpcs_kept": len(pdp.mpcs)}


def _diffraction_point_outcome(args, kwargs, sol):
    return {"endpoint": int(sol.endpoint)}


def _dnls_outcome(args, kwargs, est):
    return {"returned": 1, "iterations": est.iterations, "converged": int(est.converged)}


def _peb_outcome(args, kwargs, bound):
    return {"singular": int(bound.singular)}


def _export_outcome(args, kwargs, paths):
    return {"bytes": sum(p.stat().st_size for p in paths)}


def _sweep_outcome(args, kwargs, report):
    # A fix is one receiver-trial that reached D-NLS: a sample or a failure.
    return {"fixes": sum(len(fr.dnls_errors_m) + fr.exclusions["dnls_failed"]
                         for fr in report.frequencies)}


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "diffpos.channel"
    name: str  # "func" or "Class.method"
    outcome: object = None

    @property
    def metric_prefix(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.name.rsplit('.', 1)[-1]}"


# The package's layers are its modules; these are the functions each layer
# exposes to the pipeline.
TARGETS = (
    Target("diffpos.geometry", "diffraction_point", _diffraction_point_outcome),
    Target("diffpos.geometry", "reflection_path_length"),
    Target("diffpos.geometry", "approx_diffraction_solution"),
    Target("diffpos.materials", "transmission_loss_db"),
    Target("diffpos.materials", "free_space_path_loss_db"),
    Target("diffpos.materials", "reflection_loss_db"),
    Target("diffpos.channel", "SceneGeometry.leg_crossings"),
    Target("diffpos.channel", "enumerate_mpcs", _enumerate_outcome),
    Target("diffpos.channel", "truncate_top_k", _truncate_outcome),
    Target("diffpos.channel", "build_scene_geometry"),
    Target("diffpos.channel", "receiver_grid"),
    Target("diffpos.fap", "select_fap"),
    Target("diffpos.fap", "range_sigma_m"),
    Target("diffpos.positioning", "diffraction_path_model"),
    Target("diffpos.positioning", "diffraction_jacobian"),
    Target("diffpos.positioning", "dnls_solve", _dnls_outcome),
    Target("diffpos.positioning", "lls_solve"),
    Target("diffpos.positioning", "initial_guess"),
    Target("diffpos.positioning", "peb", _peb_outcome),
    Target("diffpos.experiments", "run_sweep", _sweep_outcome),
    Target("diffpos.experiments", "export_report", _export_outcome),
    Target("diffpos.cli", "main"),
)


class Tracer:
    """Per-function call counts, self times and outcome counts."""

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {
            t.metric_prefix: FunctionStats() for t in TARGETS}
        # One accumulator per open span: time covered by its child spans.
        self._child_time: list[float] = []

    def wrap(self, prefix: str, fn, outcome=None):
        stats = self.stats[prefix]
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stats.raised[type(exc).__name__] += 1
                raise
            finally:
                duration = clock() - start
                stats.calls += 1
                stats.self_s += duration - child_time.pop()
                if child_time:
                    child_time[-1] += duration
            if outcome is not None:
                stats.outcomes.update(outcome(args, kwargs, result))
            return result

        return wrapper

    @property
    def wrapped_calls(self) -> int:
        return sum(s.calls for s in self.stats.values())


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "diffpos" or name.startswith("diffpos."))]


def _patch_points(target: Target):
    """(owner, attribute, original) for every place callers find the target.

    A function that a later version of the package removes or renames is
    skipped; its metrics then read zero.
    """
    module = sys.modules.get(target.module)
    if module is None:
        return []
    if "." in target.name:
        cls_name, meth = target.name.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or meth not in vars(cls):
            return []
        return [(cls, meth, vars(cls)[meth])]
    original = getattr(module, target.name, None)
    if original is None:
        return []
    points = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                points.append((mod, attr, original))
    return points


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every target; restore the originals on exit."""
    applied = []
    try:
        for target in TARGETS:
            points = _patch_points(target)
            if not points:
                continue
            wrapper = tracer.wrap(target.metric_prefix, points[0][2], target.outcome)
            for owner, attr, original in points:
                setattr(owner, attr, wrapper)
                applied.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(applied):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric values of one traced pass: name -> (value, unit)."""
    s = tracer.stats
    out: dict[str, tuple[float, str]] = {}
    for prefix, st in s.items():
        out[f"{prefix}.calls"] = (st.calls, "count")
        out[f"{prefix}.self_s"] = (st.self_s, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    out["channel.enumerate_mpcs.mpcs_out"] = (
        s["channel.enumerate_mpcs"].outcomes["mpcs_out"], "count")
    trunc = s["channel.truncate_top_k"].outcomes
    out["channel.truncate_top_k.keep_frac"] = (
        ratio(trunc["mpcs_kept"], trunc["mpcs_in"]), "ratio")
    dp = s["geometry.diffraction_point"]
    out["geometry.diffraction_point.endpoint_frac"] = (
        ratio(dp.outcomes["endpoint"], dp.calls), "ratio")
    dnls = s["positioning.dnls_solve"]
    out["positioning.dnls_solve.iterations"] = (dnls.outcomes["iterations"], "count")
    out["positioning.dnls_solve.converged_frac"] = (
        ratio(dnls.outcomes["converged"], dnls.outcomes["returned"]), "ratio")
    out["positioning.dnls_solve.raised"] = (sum(dnls.raised.values()), "count")
    out["positioning.dnls_solve.calls_per_fix"] = (
        ratio(dnls.calls, s["experiments.run_sweep"].outcomes["fixes"]), "ratio")
    out["positioning.peb.singular"] = (s["positioning.peb"].outcomes["singular"], "count")
    out["fap.select_fap.no_detection"] = (
        s["fap.select_fap"].raised["NoDetectionError"], "count")
    out["experiments.export_report.bytes"] = (
        s["experiments.export_report"].outcomes["bytes"], "B")
    out["trace.wrapped_calls"] = (tracer.wrapped_calls, "count")
    return out
