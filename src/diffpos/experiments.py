"""Scenario construction, frequency sweeps, and plot-ready exports.

The default scene is a seven-floor concrete building with drywall interior
partitions, window rows on both long facades, four UAV anchors hovering
outside at low height, and a receiver grid on the upper floors. The sweep
walks a frequency ladder; per (frequency, anchor, receiver) it synthesizes
the PDP, keeps the strongest 25 components, selects the first arriving path,
and aggregates FAP group statistics, SNR quartiles, and 3D error samples for
the two estimators next to the position error bound.

Everything is deterministic under a fixed seed: per-trial noise generators
are derived from (seed, frequency index, receiver index, trial).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Literal, NamedTuple

import numpy as np

from .channel import (
    InteriorWall,
    MpcGroup,
    PathLosses,
    PathTable,
    SceneConfig,
    SceneGeometry,
    WindowRect,
    build_scene_geometry,
    path_table,
    receiver_grid,
)
from .fap import fap_rows, mean_squared_bandwidth, range_sigma_m
from .geometry import EdgeTable, euclidean_distance
from .materials import BandFrequency, default_material_library
from .positioning import SingularGeometryError, dnls_ladder, lls_solve, lls_start, peb_batch
from .records import (AtLeastOne, Count, Finite, NonNegative, Range, _check_ranges, _encode,
                      _from_dict, _unique_keys)

__all__ = [
    "DEFAULT_FREQUENCY_LADDER_HZ",
    "SweepConfig",
    "Diagnostics",
    "FrequencyReport",
    "SweepReport",
    "build_default_scene",
    "p_fap_stats",
    "run_sweep",
    "export_report",
    "scene_to_dict",
    "scene_from_dict",
    "save_scene",
    "load_scene",
    "report_to_dict",
    "report_from_dict",
]

# Representative points in FR1, FR3, and FR2 (band edges are config, and the
# ladder is overridable per sweep).
DEFAULT_FREQUENCY_LADDER_HZ = (0.7e9, 3.5e9, 5.8e9, 10e9, 15e9, 28e9, 39e9)

_GROUP_ORDER = (MpcGroup.MPC1, MpcGroup.MPC2, MpcGroup.MPC3, MpcGroup.MPC4)


def build_default_scene(
    grid_spacing: float = 2.0,
    receiver_floors: tuple[int, ...] = (3, 4),
    full_scale: bool = False,
    materials=None,
) -> SceneConfig:
    """Seven-floor concrete building with windowed facades and UAV anchors.

    The desk-scale default (2 m grid, two receiver floors) sweeps in minutes;
    ``full_scale=True`` switches to a 0.5 m grid over floors 3-7.
    """
    lib = materials if materials is not None else default_material_library()
    if full_scale:
        grid_spacing = 0.5
        receiver_floors = (3, 4, 5, 6, 7)

    lx, ly = 30.0, 20.0
    floor_count, floor_height = 7, 3.0

    windows = []
    for coord in (0.0, ly):
        for floor in range(1, floor_count + 1):
            base = (floor - 1) * floor_height
            for center in np.arange(2.5, lx, 5.0):
                windows.append(WindowRect(
                    axis="y", coord=coord,
                    u_lo=float(center - 1.0), u_hi=float(center + 1.0),
                    z_lo=base + 0.8, z_hi=base + 2.8,
                ))

    top = floor_count * floor_height
    interior_walls = tuple(
        [InteriorWall("y", y, 0.0, lx, 0.0, top) for y in (7.5, 13.5)]
        + [InteriorWall("x", x, 0.0, ly, 0.0, top) for x in (6.5, 12.5, 18.5, 24.5)]
    )

    anchors = (
        (7.5, -20.0, 3.2),
        (22.5, -20.0, 4.2),
        (7.5, 40.0, 4.9),
        (22.5, 40.0, 5.8),
    )

    return SceneConfig(
        footprint_x=lx,
        footprint_y=ly,
        floor_count=floor_count,
        floor_height=floor_height,
        exterior_slab=lib.slab("exterior_concrete"),
        interior_slab=lib.slab("interior_drywall"),
        windows=tuple(windows),
        interior_walls=interior_walls,
        anchors=anchors,
        receiver_floors=tuple(receiver_floors),
        receiver_spacing=grid_spacing,
    )


def p_fap_stats(counts) -> dict[MpcGroup, float]:
    """FAP group shares in percent from the FAP counts of MPC1, MPC2, MPC3
    and MPC4, in that order; normalized so the four groups sum to 100."""
    counts = [int(c) for c in counts]
    if len(counts) != len(_GROUP_ORDER):
        raise ValueError(f"expected {len(_GROUP_ORDER)} group counts, got {len(counts)}")
    total = sum(counts)
    if total == 0:
        raise ValueError("no FAP selections to aggregate")
    return {g: 100.0 * c / total for g, c in zip(_GROUP_ORDER, counts)}


@dataclass
class SweepConfig:
    scene: SceneConfig
    frequencies_hz: tuple[BandFrequency, ...] = DEFAULT_FREQUENCY_LADDER_HZ
    t_fap_db: NonNegative = 20.0  # finite: a report holds finite numbers only
    trials: AtLeastOne = 1
    seed: Count = 0
    top_k: AtLeastOne = 25
    noiseless: bool = False

    def __post_init__(self) -> None:
        _check_ranges(self)
        freqs = tuple(float(f) for f in self.frequencies_hz)
        if not freqs or any(lo >= hi for lo, hi in zip(freqs, freqs[1:])):
            raise ValueError("frequency ladder must be non-empty and strictly increasing")
        for f_hz in freqs:
            self.scene.radio.band_for(f_hz)  # raises for a frequency outside every band
        _check_labels(freqs)
        if len(self.scene.anchors) < 4:
            raise ValueError(
                f"3D positioning needs at least 4 anchors, the scene has {len(self.scene.anchors)}")
        lo, hi = self.scene.bounds
        for i, anchor in enumerate(self.scene.anchors):
            if np.all((lo <= anchor) & (anchor <= hi)):
                raise ValueError(f"anchor {i} at {tuple(anchor)!r} is inside the building")
        for name in ("trials", "seed", "top_k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # a NumPy integer is no JSON value
        self.frequencies_hz = freqs


@dataclass(frozen=True)
class Diagnostics:
    """D-NLS counters of one frequency: the problems solved on retry rung 0,
    1 and 2, and the Gauss-Newton iterations of the rungs used."""

    dnls_rung: tuple[Count, Count, Count]
    dnls_iterations: Count

    __post_init__ = _check_ranges


@dataclass
class FrequencyReport:
    frequency_hz: Finite
    p_fap_pct: dict[MpcGroup, Annotated[float, Range(0, 100)]]
    fap_snr_quartiles_db: tuple[Finite, Finite, Finite] | None
    dnls_errors_m: np.ndarray  # sorted 3D errors
    lls_errors_m: np.ndarray
    peb_m: np.ndarray
    exclusions: dict[Literal["no_detection", "dnls_failed", "lls_failed", "peb_singular"], Count]
    n_receivers: Count
    n_pairs: Count
    diagnostics: Diagnostics | None = None  # None for a report saved without them

    def __post_init__(self) -> None:
        _check_ranges(self)
        for name in ("dnls_errors_m", "lls_errors_m", "peb_m"):
            samples = np.asarray(getattr(self, name))
            if not (np.all(samples[:-1] <= samples[1:]) and np.all(samples[:1] >= 0)):
                raise ValueError(f"FrequencyReport.{name} must be sorted ascending and >= 0")


@dataclass
class SweepReport:
    seed: Count
    t_fap_db: NonNegative
    trials: AtLeastOne
    noiseless: bool
    frequencies: list[FrequencyReport]

    __post_init__ = _check_ranges


class _Cells(NamedTuple):
    """Detected (receiver, frequency) cells of a sweep, one row each: (C,)
    columns, and (C, A) columns over the scene's anchors. A cell is detected
    when every anchor has a FAP."""

    receiver: np.ndarray  # (C,) the receiver's index in the sweep
    freq: np.ndarray  # (C,) frequency index
    group: np.ndarray  # MpcGroup value of the FAP
    snr_db: np.ndarray
    length_m: np.ndarray
    model_edge: np.ndarray  # the edge of the anchor's diffraction model
    mpc3_edge: np.ndarray  # edge of the earliest kept MPC3 row, or -1
    mpc3_snr_db: np.ndarray  # its SNR; NaN without one


def _receiver_faps(table: PathTable, losses: PathLosses, cfg: SweepConfig,
                   nearest_edges: list[int], first: int) -> _Cells:
    """Top-k truncation and FAP of a block table at every receiver,
    frequency and anchor, in one ``fap_rows`` call; the block's receivers
    are the sweep's from index ``first`` on.

    The table covers the scene's anchors 0..A-1, and each (receiver,
    anchor) pair is one PDP. The table's rows come pair by pair, so one
    row-wise stable argsort of the times of flight laid out (N*A, P), padded
    with inf, gives each pair's PDP order, ties in table order: an (N*A, P)
    index into the rows, padded past the last row, so that the columns read
    as (N*A, P) and the losses as (F, N*A, P), the padding undetected. The
    diffraction model's edge is the FAP's own edge when it is a diffraction
    path, then that of the earliest kept diffraction component, then the
    anchor's ``nearest_edges`` entry (pure mismatch case). The MPC3 rows of
    a path table always have an edge. Returns the detected cells receiver
    by receiver.
    """
    n_anchors = len(table.anchor_ids)
    n_pairs = len(table.receivers) * n_anchors
    pair = table.receiver * n_anchors + table.anchor
    counts = np.bincount(pair, minlength=n_pairs)
    # Row j sorts pair j's counts[j] rows, which follow one another in the
    # table from the pair's first row on; the sort's positions plus that
    # row index them. There is at least one position when the table is
    # empty.
    filled = np.arange(max(1, counts.max())) < counts[:, None]
    tof = np.full(filled.shape, np.inf)
    tof[filled] = table.tof_s
    index = tof.argsort(axis=1, kind="stable")
    index += (counts.cumsum() - counts)[:, None]
    index[~filled] = len(table.tof_s)

    def stacked(column, fill):
        pad = np.full((*column.shape[:-1], 1), fill)
        return np.concatenate([column, pad], axis=-1)[..., index]

    snr = stacked(losses.snr_db, -np.inf)
    group = stacked(table.group, 0)
    edge = stacked(table.edge_id, -1)
    sel = fap_rows(stacked(table.tof_s, np.inf), snr, stacked(losses.detected, False),
                   group == MpcGroup.MPC3.value, cfg.top_k, cfg.t_fap_db)
    freq, pair = np.arange(snr.shape[0])[:, None], np.arange(n_pairs)
    shape = (len(snr), len(table.receivers), n_anchors)
    receiver, fi = np.nonzero(~sel.no_detection.reshape(shape).any(axis=2).T)

    def cells(column):  # (F, N*A) -> (C, A)
        return column.reshape(shape)[fi, receiver]

    fap_group = cells(group[pair, sel.fap])
    mpc3_edge = cells(np.where(sel.mpc3 >= 0, edge[pair, sel.mpc3], -1))
    return _Cells(
        receiver=receiver + first,
        freq=fi,
        group=fap_group,
        snr_db=cells(snr[freq, pair, sel.fap]),
        length_m=cells(stacked(table.length_m, np.nan)[pair, sel.fap]),
        model_edge=np.where(fap_group == MpcGroup.MPC3.value, cells(edge[pair, sel.fap]),
                            np.where(mpc3_edge >= 0, mpc3_edge, nearest_edges)),
        mpc3_edge=mpc3_edge,
        mpc3_snr_db=cells(np.where(sel.mpc3 >= 0, snr[freq, pair, sel.mpc3], np.nan)),
    )


def _nearest_edges(geom: SceneGeometry, anchors: np.ndarray) -> list[int]:
    """Per anchor (A, 3), the edge whose midpoint is nearest."""
    midpoints = geom.edge_table.points(slice(None), np.full(len(geom.edge_table.x1), 0.5))
    offset = midpoints[None] - anchors[:, None]
    return np.argmin((offset * offset).sum(axis=2), axis=1).tolist()


class _Results(NamedTuple):
    """What a sweep keeps of its solved cells, one row per cell: (C,)
    columns, (C, A) columns over the anchors and (C, T) over the trials."""

    freq: np.ndarray  # (C,) frequency index
    group: np.ndarray  # (C, A) MpcGroup value of the FAP
    snr_db: np.ndarray  # (C, A) the FAP's SNR
    lls_error_m: np.ndarray  # (C, T) NaN where LLS failed
    dnls_error_m: np.ndarray  # (C, T) NaN where every rung failed
    dnls_rung: np.ndarray  # (C, T) the rung used, -1 where every rung failed
    dnls_iterations: np.ndarray  # (C, T)
    peb_m: np.ndarray  # (C,) inf where the FIM is singular or < 3 anchors have MPC3


def _solve_cells(cells: _Cells, cfg: SweepConfig, table: EdgeTable, anchors: np.ndarray,
                 receivers: np.ndarray, beta_sq: float) -> _Results:
    """LLS, D-NLS and the bound of a batch of cells at every trial.

    Each trial draws its noise from its own (seed, frequency index, receiver
    index, trial) generator. One ``lls_solve`` call solves every trial, and
    its estimates start one ``dnls_ladder`` call; one ``peb_batch`` call
    bounds each cell at its receiver, with the earliest diffraction path of
    each anchor (the strongest isolation assumption). ``beta_sq`` is the
    radio's mean squared bandwidth, the same at every frequency.
    """
    n_cells, n_anchors = cells.length_m.shape
    trials = cfg.trials
    if cfg.noiseless:
        noise = np.zeros((n_cells, trials, n_anchors))
    else:
        noise = np.array([
            np.random.default_rng(np.random.SeedSequence([cfg.seed, fi, ri, trial]))
            .standard_normal(n_anchors)
            for fi, ri in zip(cells.freq.tolist(), cells.receiver.tolist())
            for trial in range(trials)]).reshape(n_cells, trials, n_anchors)
    sigma = range_sigma_m(beta_sq, 10 ** (cells.snr_db / 10))
    ranges = (cells.length_m[:, None] + sigma[:, None] * noise).reshape(-1, n_anchors)
    truth = receivers[cells.receiver]
    trial_truth = np.repeat(truth, trials, axis=0)
    bounds = cfg.scene.bounds
    try:
        estimates = lls_solve(anchors, ranges)
    except SingularGeometryError:
        estimates, lls_error = None, np.full(len(ranges), np.nan)
    else:
        lls_error = euclidean_distance(estimates, trial_truth)
    solved = dnls_ladder(table, anchors, np.repeat(cells.model_edge, trials, axis=0), ranges,
                         np.broadcast_to(lls_start(estimates, bounds), (len(ranges), 3)), bounds)
    dnls_error = euclidean_distance(solved.alpha, trial_truth)  # NaN where alpha is
    return _Results(
        freq=cells.freq,
        group=cells.group,
        snr_db=cells.snr_db,
        lls_error_m=lls_error.reshape(n_cells, trials),
        dnls_error_m=dnls_error.reshape(n_cells, trials),
        dnls_rung=solved.rung.reshape(n_cells, trials),
        dnls_iterations=solved.iterations.reshape(n_cells, trials),
        peb_m=peb_batch(table, anchors, truth, cells.mpc3_edge,
                        10 ** (cells.mpc3_snr_db / 10), np.full(n_cells, beta_sq)),
    )


# Cells per batch of run_sweep, times the trials: a batch is solved once at
# least max(1, _DNLS_BATCH // trials) cells wait. A cell's results do not
# depend on the rest of its batch, so the batch size bounds the sweep's
# memory without changing any output.
_DNLS_BATCH = 1024

# Candidate path rows per block of receivers in run_sweep: a block holds as
# many receivers as fit, at least one. Every row and every PDP is computed as
# in a block of one, so the bound sets the front end's memory and call count
# without changing any output. 6000 is eight default-scene receivers (728
# candidate rows each). The front end's peak grows with the block's rows, its
# loss and FAP arrays also with the frequencies; at this size it stays below
# a cell flush's peak even on the 7-frequency ladder.
_BLOCK_ROWS = 6000


def run_sweep(cfg: SweepConfig) -> SweepReport:
    """Run the full pipeline over the frequency ladder; deterministic.

    Receivers run in the outer loop, in blocks of up to ``_BLOCK_ROWS``
    candidate path rows: each block's path table of all anchors is built
    once, each distinct leg tested for crossings once, and its losses are
    evaluated at every frequency in one pass.
    Top-k truncation and the FAP of all of a block's pairs and frequencies
    run in one ``fap_rows`` call on the stacked table columns, so no Mpc
    object is built; the block yields its detected (receiver, frequency)
    cells as one table. Cells wait until a batch of at least
    ``_DNLS_BATCH // trials`` is there, and after the last block; each batch
    is solved in one ``lls_solve``, one ``dnls_ladder`` (retry rungs side by
    side) and one ``peb_batch`` call. Each frequency's report is a group-by
    over the result columns of every batch.
    Noise is keyed by (seed, frequency index, receiver index, trial) and
    every reported statistic is order-free, so the report does not depend on
    block, batch or row order.
    """
    scene = cfg.scene
    geom = build_scene_geometry(scene)
    receivers = receiver_grid(scene)
    n_anchors = len(scene.anchors)
    freqs = cfg.frequencies_hz
    beta_sq = mean_squared_bandwidth(scene.radio.bandwidth_hz)
    anchors = np.asarray(scene.anchors, dtype=float)
    nearest_edges = _nearest_edges(geom, anchors)
    rows = n_anchors * (1 + len(geom.reflector_slabs) + len(geom.edge_table.x1))
    block = max(1, _BLOCK_ROWS // rows)
    batch = max(1, _DNLS_BATCH // cfg.trials)

    waiting, n_waiting, solved = [], 0, []
    for first in range(0, len(receivers), block):
        table = path_table(scene, range(n_anchors), receivers[first:first + block], geom)
        cells = _receiver_faps(table, table.losses(freqs), cfg, nearest_edges, first)
        del table  # not held while the next block's table is built, nor at a solve
        waiting.append(cells)
        n_waiting += len(cells.freq)
        if n_waiting >= batch or first + block >= len(receivers):
            cells = _Cells(*(np.concatenate(column) for column in zip(*waiting)))
            solved.append(_solve_cells(cells, cfg, geom.edge_table, anchors, receivers, beta_sq))
            waiting, n_waiting = [], 0
    res = _Results(*(np.concatenate(column) for column in zip(*solved)))

    frequencies = []
    for fi, f_hz in enumerate(freqs):
        at = res.freq == fi
        snrs, lls, dnls, rung, peb = (
            x[at] for x in (res.snr_db, res.lls_error_m, res.dnls_error_m, res.dnls_rung, res.peb_m))
        # A frequency at which no receiver detects every anchor has no FAP.
        p_fap, quartiles = {g: 0.0 for g in _GROUP_ORDER}, None
        if snrs.size:
            counts = np.bincount(res.group[at].ravel(), minlength=len(MpcGroup) + 1)
            p_fap = p_fap_stats([counts[g.value] for g in _GROUP_ORDER])
            q = np.percentile(snrs, [25, 50, 75])
            quartiles = (float(q[0]), float(q[1]), float(q[2]))
        lls_failed = np.isnan(lls)
        frequencies.append(FrequencyReport(
            frequency_hz=f_hz,
            p_fap_pct=p_fap,
            fap_snr_quartiles_db=quartiles,
            dnls_errors_m=np.sort(dnls[rung >= 0]),
            lls_errors_m=np.sort(lls[~lls_failed]),
            peb_m=np.sort(peb[np.isfinite(peb)]),
            exclusions={"no_detection": len(receivers) - len(snrs),
                        "dnls_failed": int(np.count_nonzero(rung < 0)),
                        "lls_failed": int(np.count_nonzero(lls_failed)),
                        "peb_singular": int(np.count_nonzero(np.isinf(peb)))},
            n_receivers=len(receivers),
            n_pairs=len(receivers) * n_anchors,
            diagnostics=Diagnostics(tuple(np.bincount(rung[rung >= 0], minlength=3).tolist()),
                                    int(res.dnls_iterations[at].sum())),
        ))
    return SweepReport(seed=cfg.seed, t_fap_db=cfg.t_fap_db, trials=cfg.trials,
                       noiseless=cfg.noiseless, frequencies=frequencies)


# ---------------------------------------------------------------------------
# Report export
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _freq_label(f_hz: float) -> str:
    return f"{f_hz / 1e9:g}GHz"


def _check_labels(freqs) -> None:
    """Raise ValueError when two frequencies share a CSV file label, whose
    files would overwrite each other."""
    seen: dict[str, float] = {}
    for f_hz in freqs:
        label = _freq_label(f_hz)
        if label in seen:
            raise ValueError(f"frequencies {seen[label]!r} and {f_hz!r} Hz share the "
                             f"CSV label {label}")
        seen[label] = f_hz


def export_report(report: SweepReport, out_dir) -> list[Path]:
    """Write plot-ready CSVs; returns the created file paths.

    Per ladder: p_fap.csv, fap_snr_quartiles.csv, exclusions.csv. Per
    frequency and estimator: cdf_<estimator>_<label>.csv with one sorted
    error sample per row and empirical probability k/n. Frequencies whose
    labels collide raise ValueError before anything is written.
    """
    _check_labels([fr.frequency_hz for fr in report.frequencies])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write_csv(name, header, rows):
        path = out / name
        written.append(path)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    freqs = report.frequencies
    write_csv("p_fap.csv", ["frequency_hz", "mpc1_pct", "mpc2_pct", "mpc3_pct", "mpc4_pct"],
              ([_fmt(fr.frequency_hz)] + [_fmt(fr.p_fap_pct[g]) for g in _GROUP_ORDER]
               for fr in freqs))
    write_csv("fap_snr_quartiles.csv", ["frequency_hz", "q25_db", "q50_db", "q75_db"],
              ([_fmt(fr.frequency_hz)] + [_fmt(q) for q in fr.fap_snr_quartiles_db]
               for fr in freqs if fr.fap_snr_quartiles_db is not None))
    write_csv("exclusions.csv", ["frequency_hz", "n_receivers", "n_pairs", "no_detection",
                                 "dnls_failed", "lls_failed", "peb_singular"],
              ([_fmt(fr.frequency_hz), fr.n_receivers, fr.n_pairs,
                fr.exclusions["no_detection"], fr.exclusions["dnls_failed"],
                fr.exclusions["lls_failed"], fr.exclusions["peb_singular"]] for fr in freqs))
    for fr in freqs:
        label = _freq_label(fr.frequency_hz)
        for name, samples in (("dnls", fr.dnls_errors_m),
                              ("lls", fr.lls_errors_m),
                              ("peb", fr.peb_m)):
            n = len(samples)
            write_csv(f"cdf_{name}_{label}.csv", ["error_m", "probability"],
                      ([_fmt(err), _fmt(k / n)] for k, err in enumerate(samples, start=1)))
    return written


# ---------------------------------------------------------------------------
# Scene / report (de)serialization
# ---------------------------------------------------------------------------

def scene_to_dict(scene: SceneConfig) -> dict:
    return {"schema": "scene/1", **_encode(scene)}


def scene_from_dict(doc) -> SceneConfig:
    """Inverse of ``scene_to_dict``; a malformed scene raises ValueError
    naming the path of the offending value."""
    return _from_dict(SceneConfig, doc, "scene/1", "scene")


def save_scene(scene: SceneConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)
        fh.write("\n")


def load_scene(path) -> SceneConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh, object_pairs_hook=_unique_keys))


def report_to_dict(report: SweepReport) -> dict:
    return {"schema": "sweep-report/1", **_encode(report)}


def report_from_dict(doc) -> SweepReport:
    """Inverse of ``report_to_dict``, read by the ``records`` codec: an
    unknown or missing key, a value of the wrong JSON type, a non-finite
    number, a missing ``p_fap_pct`` group or ``exclusions`` count and a
    wrong schema raise ValueError naming the path of the offending value,
    such as ``frequencies[0].dnls_errors_m[3]``. Each sample list is read
    in one pass, and one that is not sorted ascending and >= 0, or a
    number outside its declared range, raises the record's ValueError
    after its path (``frequencies[0]: FrequencyReport.n_receivers ...``)."""
    return _from_dict(SweepReport, doc, "sweep-report/1", "report")
