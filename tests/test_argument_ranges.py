"""The ranges of the library's numeric arguments: each closed end is
accepted, each open end, each value just past an end and NaN are refused
with the one message form of ``records._check_range``, array arguments name
their first bad row, and README's table lists every argument range."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_positioning_instance
from diffpos.channel import Mpc, MpcGroup, Pdp, noise_floor_dbm, truncate_top_k
from diffpos.constants import SPEED_OF_LIGHT
from diffpos.fap import fap_rows, mean_squared_bandwidth, ranging_crlb_std_seconds, select_fap
from diffpos.geometry import Point3
from diffpos.materials import (DiffractionLossModel, complex_permittivity, conductivity,
                               default_material_library, diffraction_loss_db,
                               free_space_path_loss_db, permittivity, reflection_loss_db)
from diffpos.positioning import dnls_ladder, lls_solve, peb_batch
from diffpos.records import AT_LEAST_ONE, FINITE, NON_NEGATIVE, POSITIVE, Range

README = Path(__file__).resolve().parents[1] / "README.md"

ALPHA, ANCHORS, TABLE = random_positioning_instance(np.random.default_rng(5))
E = len(TABLE.x1)  # edges in TABLE, "E" in README's table
IDS = np.array([[0, 1, 2, 3]] * 2)
RANGES = np.full((2, 4), 15.0)
STARTS = np.full((2, 3), 5.0)
BOUNDS = np.array([[0.0, 0.0, 0.0], [20.0, 20.0, 12.0]])
POSITIONS = np.array([ALPHA, ALPHA])
SNRS = np.full((2, 4), 10.0)
BETA_SQ = np.full(2, 1e16)
PDP = Pdp([Mpc(("T",), 10.0, 10.0 / SPEED_OF_LIGHT, -60.0, 25.0, 0, MpcGroup.MPC1)],
          Point3(0.0, 0.0, 0.0), 0)
CONCRETE = default_material_library().material("concrete")
EPS = complex_permittivity(CONCRETE, 1e9)


def row_1(array, value):
    """A copy of ``array`` whose first entry in row 1 is ``value``."""
    array = np.array(array)
    array.reshape(len(array), -1)[1, 0] = value
    return array


# (function, argument, range, kind, call): ``call(value)`` passes valid
# values for every other argument. A "number" or "integer" argument is the
# value itself; a "rows" or "ids" argument is an array of floats or of
# integers with the value in row 1.
SITES = [
    ("channel.noise_floor_dbm", "bandwidth_hz", POSITIVE, "number",
     lambda v: noise_floor_dbm(v)),
    ("channel.noise_floor_dbm", "noise_temperature_k", POSITIVE, "number",
     lambda v: noise_floor_dbm(400e6, v)),
    ("channel.truncate_top_k", "k", AT_LEAST_ONE, "integer", lambda v: truncate_top_k(PDP, v)),
    ("materials.permittivity", "f_hz", POSITIVE, "number", lambda v: permittivity(CONCRETE, v)),
    ("materials.conductivity", "f_hz", POSITIVE, "number", lambda v: conductivity(CONCRETE, v)),
    ("materials.diffraction_loss_db", "f_hz", POSITIVE, "number",
     lambda v: diffraction_loss_db(DiffractionLossModel(), v)),
    ("materials.free_space_path_loss_db", "distance_m", POSITIVE, "rows",
     lambda v: free_space_path_loss_db(row_1(np.full(3, 10.0), v), 1e9)),
    ("materials.free_space_path_loss_db", "f_hz", POSITIVE, "rows",
     lambda v: free_space_path_loss_db(10.0, row_1(np.full(3, 1e9), v))),
    ("materials.reflection_loss_db", "incidence_angle_rad",
     Range(0.0, math.pi / 2.0, open_hi=True), "rows",
     lambda v: reflection_loss_db(EPS, row_1(np.full(3, 0.5), v))),
    ("fap.select_fap", "t_fap_db", NON_NEGATIVE, "number", lambda v: select_fap(PDP, v)),
    ("fap.fap_rows", "t_fap_db", NON_NEGATIVE, "number",
     lambda v: fap_rows(np.array([1e-8, 2e-8]), np.array([[25.0, 30.0]]),
                        np.ones((1, 2), dtype=bool), np.zeros(2, dtype=bool), 25, v)),
    ("fap.mean_squared_bandwidth", "bandwidth_hz", POSITIVE, "number",
     lambda v: mean_squared_bandwidth(v)),
    ("fap.ranging_crlb_std_seconds", "beta_sq_hz2", POSITIVE, "rows",
     lambda v: ranging_crlb_std_seconds(row_1(np.full(3, 1e16), v), 10.0)),
    ("fap.ranging_crlb_std_seconds", "snr_linear", POSITIVE, "rows",
     lambda v: ranging_crlb_std_seconds(1e16, row_1(np.full(3, 10.0), v))),
    ("positioning.dnls_ladder", "anchors", FINITE, "rows",
     lambda v: dnls_ladder(TABLE, row_1(ANCHORS, v), IDS, RANGES, STARTS, BOUNDS)),
    ("positioning.dnls_ladder", "edge_ids", Range(0, E, open_hi=True), "ids",
     lambda v: dnls_ladder(TABLE, ANCHORS, row_1(IDS, v), RANGES, STARTS, BOUNDS)),
    ("positioning.dnls_ladder", "ranges", FINITE, "rows",
     lambda v: dnls_ladder(TABLE, ANCHORS, IDS, row_1(RANGES, v), STARTS, BOUNDS)),
    ("positioning.dnls_ladder", "starts", FINITE, "rows",
     lambda v: dnls_ladder(TABLE, ANCHORS, IDS, RANGES, row_1(STARTS, v), BOUNDS)),
    ("positioning.dnls_ladder", "bounds", FINITE, "rows",
     lambda v: dnls_ladder(TABLE, ANCHORS, IDS, RANGES, STARTS, row_1(BOUNDS, v))),
    ("positioning.lls_solve", "anchors", FINITE, "rows",
     lambda v: lls_solve(row_1(ANCHORS, v), RANGES)),
    ("positioning.lls_solve", "ranges", FINITE, "rows",
     lambda v: lls_solve(ANCHORS, row_1(RANGES, v))),
    ("positioning.peb_batch", "anchors", FINITE, "rows",
     lambda v: peb_batch(TABLE, row_1(ANCHORS, v), POSITIONS, IDS, SNRS, BETA_SQ)),
    ("positioning.peb_batch", "positions", FINITE, "rows",
     lambda v: peb_batch(TABLE, ANCHORS, row_1(POSITIONS, v), IDS, SNRS, BETA_SQ)),
    ("positioning.peb_batch", "edge_ids", Range(-1, E, open_hi=True), "ids",
     lambda v: peb_batch(TABLE, ANCHORS, POSITIONS, row_1(IDS, v), SNRS, BETA_SQ)),
    ("positioning.peb_batch", "snr_linear", POSITIVE, "rows",
     lambda v: peb_batch(TABLE, ANCHORS, POSITIONS, IDS, row_1(SNRS, v), BETA_SQ)),
    ("positioning.peb_batch", "beta_sq", POSITIVE, "rows",
     lambda v: peb_batch(TABLE, ANCHORS, POSITIONS, IDS, SNRS, row_1(BETA_SQ, v))),
]


@pytest.mark.parametrize("function, argument, rng, kind, call", SITES,
                         ids=[f"{function}.{argument}" for function, argument, *_ in SITES])
def test_argument_range_ends(function, argument, rng, kind, call):
    integer, rows = kind in ("integer", "ids"), kind in ("rows", "ids")
    # A closed end is accepted.
    for end, is_open in ((rng.lo, rng.open_lo), (rng.hi, rng.open_hi)):
        if not is_open:
            call(end)
    # An open end, the value just past each finite end (the next integer for
    # integers) and NaN are refused with one message form. Integer arrays
    # hold no infinity or NaN.
    refused = [end for end, is_open in ((rng.lo, rng.open_lo), (rng.hi, rng.open_hi)) if is_open]
    refused += [end + step if integer else math.nextafter(end, step * math.inf)
                for end, step in ((rng.lo, -1), (rng.hi, 1)) if math.isfinite(end)]
    refused += [math.nan]
    if kind == "ids":
        refused = [bad for bad in refused if math.isfinite(bad)]
    elif not integer:
        refused = list(map(float, refused))
    for bad in refused:
        with pytest.raises(ValueError) as err:
            call(bad)
        if rows:
            assert str(err.value) == f"{argument} must lie in {rng}; row 1 is not"
        elif integer and isinstance(bad, float):
            assert str(err.value) == f"{argument} must be an integer, got {bad!r}"
        else:
            assert str(err.value) == f"{argument} must lie in {rng}, got {bad!r}"


def test_where_leaves_out_unused_entries():
    # peb_batch reads no SNR at an anchor whose edge id is -1.
    ids = row_1(IDS, -1)
    for snr in (0.0, math.nan, math.inf):
        assert np.isfinite(peb_batch(TABLE, ANCHORS, POSITIONS, ids, row_1(SNRS, snr), BETA_SQ)
                           ).all()
    with pytest.raises(ValueError, match=r"^snr_linear must lie in \(0, inf\); row 0 is not$"):
        peb_batch(TABLE, ANCHORS, POSITIONS, ids, np.where(np.eye(2, 4), math.nan, SNRS),
                  BETA_SQ)


@pytest.mark.parametrize("call, message", [
    (lambda: free_space_path_loss_db(-1.0, 1e9), "distance_m must lie in (0, inf), got -1.0"),
    (lambda: free_space_path_loss_db(10.0, math.inf), "f_hz must lie in (0, inf), got inf"),
    (lambda: reflection_loss_db(EPS, math.pi / 2), "incidence_angle_rad must lie in "
     "[0, 1.5708), got 1.5707963267948966"),
    (lambda: ranging_crlb_std_seconds(0.0, 10.0), "beta_sq_hz2 must lie in (0, inf), got 0.0"),
    (lambda: ranging_crlb_std_seconds(1e16, np.float64(-2.0)),
     "snr_linear must lie in (0, inf), got -2.0"),
], ids=["fspl_distance", "fspl_frequency", "reflection_angle", "crlb_beta_sq", "crlb_snr"])
def test_array_arguments_given_a_number_fail_as_numbers(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_readme_argument_table_lists_every_argument_range():
    text = README.read_text()
    table = text[text.index("| function | argument | range |"):]
    table = table[:table.index("\n\n")]
    rows = re.findall(r"^\| `([\w.]+)` \| `(\w+)` \| `([^`]+)` \|$", table, re.M)
    assert len(rows) == len(table.splitlines()) - 2  # every row below the header
    assert rows == [(function, argument, re.sub(rf"\b{E}\)$", "E)", str(rng)))
                    for function, argument, rng, _, _ in SITES]
