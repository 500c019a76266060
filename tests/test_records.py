"""The declared ranges of the record fields: each closed end is accepted,
each open end and each value just past an end is refused with the one
message form, and README's table lists every range."""

import copy
import dataclasses
import json
import math
import re
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

from diffpos.channel import MpcRecord
from diffpos.experiments import (SweepConfig, SweepReport, build_default_scene,
                                 report_from_dict)
from diffpos.materials import _LibraryDoc
from diffpos.records import _check_ranges, declared_ranges

README = Path(__file__).resolve().parents[1] / "README.md"

_REPORT = {"schema": "sweep-report/1", "seed": 0, "t_fap_db": 20.0, "trials": 1,
           "noiseless": False, "frequencies": [{
               "frequency_hz": 28e9,
               "p_fap_pct": {"MPC1": 0.0, "MPC2": 0.0, "MPC3": 100.0, "MPC4": 0.0},
               "fap_snr_quartiles_db": [1.0, 2.0, 3.0], "dnls_errors_m": [0.5, 1.5],
               "lls_errors_m": [0.7, 2.0], "peb_m": [0.1, 0.2],
               "exclusions": {"no_detection": 0, "dnls_failed": 0, "lls_failed": 0,
                              "peb_singular": 0},
               "n_receivers": 2, "n_pairs": 8,
               "diagnostics": {"dnls_rung": [2, 0, 0], "dnls_iterations": 9}}]}
# One valid tree of each kind of record: a sweep of a scene, a report and a
# dataset line.
_ROOTS = (SweepConfig(scene=build_default_scene(grid_spacing=8.0, receiver_floors=(3,)),
                      frequencies_hz=(28e9,)),
          report_from_dict(json.loads(json.dumps(_REPORT))),
          MpcRecord(0, 0, (1.0, 2.0, 3.0), "Tx-D-Rx", 10.0, -50.0, tof_s=3.3e-8, edge_id=1))


def _instances(value, found):
    """``found``, with the first instance of each record class in the tree
    ``value`` added under its class."""
    if dataclasses.is_dataclass(value):
        found.setdefault(type(value), value)
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, (tuple, list, dict)):
        children = value.values() if isinstance(value, dict) else value
    else:
        return found
    for child in children:
        _instances(child, found)
    return found


def _classes(hint, found):
    """``found``, with every record class that the type ``hint`` reaches."""
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        if hint not in found:
            found.add(hint)
            for field_hint in get_type_hints(hint).values():
                _classes(field_hint, found)
    for arg in get_args(hint):
        _classes(arg, found)
    return found


INSTANCES = {}
for root in _ROOTS:
    _instances(root, INSTANCES)
# Every record class of a scene/1, materials/1, sweep-report/1 or
# mpc-dataset/1 file, and SweepConfig.
CLASSES = _classes(SweepConfig, set()) | _classes(SweepReport, set()) \
    | _classes(MpcRecord, set()) | _classes(_LibraryDoc, set())
RANGES = [(cls, name, rng, depth) for cls in sorted(CLASSES, key=lambda c: c.__name__)
          for name, (rng, depth) in declared_ranges(cls).items()]


def _with_first(value, depth: int, item):
    """``value`` with its first item ``depth`` tuple or dict levels down set
    to ``item``, and the path of that item."""
    if not depth:
        return item, ""
    if isinstance(value, dict):
        key = next(iter(value))
        inner, path = _with_first(value[key], depth - 1, item)
        return {**value, key: inner}, f".{getattr(key, 'name', key)}{path}"
    inner, path = _with_first(value[0], depth - 1, item)
    return (inner, *value[1:]), f"[0]{path}"


def test_every_class_with_ranges_has_a_sample():
    assert {cls for cls in CLASSES if declared_ranges(cls)} <= set(INSTANCES)
    assert {"SceneConfig", "Material", "SweepConfig", "FrequencyReport", "MpcRecord"} \
        <= {cls.__name__ for cls, _, _, _ in RANGES}


@pytest.mark.parametrize("cls, name, rng, depth", RANGES,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in RANGES])
def test_declared_range_ends(cls, name, rng, depth):
    record = INSTANCES[cls]
    value = getattr(record, name)
    # A closed end passes the range check.
    for end, is_open in ((rng.lo, rng.open_lo), (rng.hi, rng.open_hi)):
        if not is_open:
            at_end = copy.copy(record)
            object.__setattr__(at_end, name, _with_first(value, depth, end)[0])
            _check_ranges(at_end)
    # An open end, the value just past each finite end and NaN are refused
    # by the record itself, with one message form.
    refused = [rng.lo] if rng.open_lo else []
    refused += [rng.hi] if rng.open_hi else []
    refused += [math.nextafter(end, direction) for end, direction
                in ((rng.lo, -math.inf), (rng.hi, math.inf)) if math.isfinite(end)]
    for bad in refused + [math.nan]:
        changed, path = _with_first(value, depth, bad)
        with pytest.raises(ValueError) as err:
            dataclasses.replace(record, **{name: changed})
        assert str(err.value) == f"{cls.__name__}.{name}{path} must lie in {rng}, got {bad!r}"


def test_range_text():
    ranges = {f"{cls.__name__}.{name}": str(rng) for cls, name, rng, _ in RANGES}
    assert ranges["SceneConfig.footprint_x"] == "(0, 1e+06]"
    assert ranges["Material.a"] == "[1e-06, 1e+06]"
    assert ranges["SweepReport.trials"] == "[1, inf)"
    assert ranges["MpcRecord.rx_power_dbm"] == "(-inf, inf)"
    assert ranges["FrequencyReport.p_fap_pct"] == "[0, 100]"


def test_readme_range_table_lists_every_declared_range():
    text = README.read_text()
    table = text[text.index("| record | field | range |"):]
    table = table[:table.index("\n\n")]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \|$", table, re.M)
    assert len(rows) == len(table.splitlines()) - 2  # every row below the header
    assert sorted(rows) == sorted((cls.__name__, name, str(rng))
                                  for cls, name, rng, _ in RANGES)
