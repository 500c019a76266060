"""Outdoor-to-indoor multipath synthesis and dataset ingestion.

The scene is an axis-aligned floor-plan model: a rectangular concrete shell
with window cutouts, concrete floor slabs, and interior drywall partitions.
For each (anchor, receiver) pair the enumerator generates the direct segment
with slab transmissions, single specular reflections off reflective surfaces
plus trailing transmissions, and single diffraction at every window edge.
Interaction events are ordered along the path, so classification into the
four propagation groups falls out of the event sequence. Path geometry does
not depend on frequency: path_table computes it once for a block of
receivers and any set of anchors, into one columnar PathTable (rows
receiver by receiver, each anchor by anchor); PathTable.losses applies the
losses of any number of frequencies to all rows at once, and enumerate_mpcs
builds the PDP of one (anchor, receiver) pair at one frequency.

MPC records can also be ingested from a line-delimited JSON dataset (schema
"mpc-dataset/1", each line read by the ``records`` codec), e.g. exports
from an external ray tracer.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple

import numpy as np

from .constants import BOLTZMANN, SPEED_OF_LIGHT, linear_to_db
from .geometry import (
    EdgeTable,
    Point3,
    _mirror_images,
    _on_edge_line,
    _reflect_rows,
    _signed_distances,
    _solve_edge_lambdas,
    edge_table,
    euclidean_distance,
)
from .materials import (
    DiffractionLossModel,
    SlabSpec,
    complex_permittivity,
    diffraction_loss_db,
    free_space_path_loss_db,
    reflection_loss_db,
    transmission_loss_db,
    BandFrequency,
    Decibels,
    Length,
    _MAX_ABS_DB,
    _REACH_M,
)
from .records import (AT_LEAST_ONE, POSITIVE, Count, Finite, Positive, Range, _check_range,
                      _check_ranges, _decode, _from_dict, _unique_keys)

__all__ = [
    "MpcGroup",
    "Mpc",
    "Pdp",
    "BandPlan",
    "RadioConfig",
    "PathLimits",
    "WindowRect",
    "InteriorWall",
    "SceneConfig",
    "SceneGeometry",
    "PathTable",
    "DatasetError",
    "IngestResult",
    "MpcRecord",
    "classify_mpc",
    "parse_interaction_string",
    "noise_floor_dbm",
    "truncate_top_k",
    "build_scene_geometry",
    "receiver_grid",
    "path_table",
    "enumerate_mpcs",
    "ingest_dataset",
]

_SYMBOLS = ("T", "R", "D", "DS")

# Parametric slack excluding segment endpoints from crossing tests; endpoints
# sit exactly on reflection/diffraction surfaces.
_SEGMENT_EPS = 1e-9


class MpcGroup(enum.Enum):
    """Propagation-mechanism groups determining the applicable path model."""

    MPC1 = 1  # transmissions only: Euclidean path
    MPC2 = 2  # one leading reflection: Euclidean path via virtual source
    MPC3 = 3  # one leading diffraction: diffraction path
    MPC4 = 4  # everything else: no matching path model


def parse_interaction_string(s: str) -> tuple[str, ...]:
    """Parse 'Tx-D-T-Rx' into the interaction tuple ('D', 'T')."""
    parts = s.split("-")
    if len(parts) < 2 or parts[0] != "Tx" or parts[-1] != "Rx":
        raise ValueError(f"interaction string must run Tx-...-Rx, got {s!r}")
    inner = tuple(parts[1:-1])
    for symbol in inner:
        if symbol not in _SYMBOLS:
            raise ValueError(f"unknown interaction symbol {symbol!r} in {s!r}")
    return inner


def classify_mpc(interactions) -> MpcGroup:
    """Map an interaction sequence to its propagation group.

    Accepts either a 'Tx-...-Rx' string or a sequence of symbols. Appended
    transmissions never change the group of a pure, single-reflection, or
    single-diffraction prefix; any diffuse scattering, repeated R/D, or R/D
    after a transmission falls into the mismatch group.
    """
    if isinstance(interactions, str):
        interactions = parse_interaction_string(interactions)  # checks each symbol
    else:
        interactions = tuple(interactions)
        for symbol in interactions:
            if symbol not in _SYMBOLS:
                raise ValueError(f"unknown interaction symbol {symbol!r}")
    if all(s == "T" for s in interactions):
        return MpcGroup.MPC1
    if interactions[0] == "R" and all(s == "T" for s in interactions[1:]):
        return MpcGroup.MPC2
    if interactions[0] == "D" and all(s == "T" for s in interactions[1:]):
        return MpcGroup.MPC3
    return MpcGroup.MPC4


@dataclass(frozen=True)
class Mpc:
    """One multipath component between an anchor and a receiver."""

    interactions: tuple[str, ...]
    path_length_m: float
    tof_s: float
    rx_power_dbm: float
    snr_db: float
    anchor_id: int
    group: MpcGroup
    edge_id: int | None = None  # scene window-edge index for diffraction paths


@dataclass
class Pdp:
    """Power delay profile: the MPC set of one (anchor, receiver) pair."""

    mpcs: list[Mpc]
    rx: Point3
    anchor_id: int

    def __post_init__(self) -> None:
        tofs = [m.tof_s for m in self.mpcs]
        if any(b < a for a, b in zip(tofs, tofs[1:])):
            raise ValueError("PDP must be sorted by time of flight")

    def __len__(self) -> int:
        return len(self.mpcs)


def noise_floor_dbm(bandwidth_hz: float, noise_temperature_k: float = 290.0) -> float:
    """Thermal noise floor 10*log10(k*T*B / 1 mW) in dBm."""
    _check_range("bandwidth_hz", bandwidth_hz, POSITIVE)
    _check_range("noise_temperature_k", noise_temperature_k, POSITIVE)
    return linear_to_db(BOLTZMANN * noise_temperature_k * bandwidth_hz / 1e-3)


def truncate_top_k(pdp: Pdp, k: int = 25) -> Pdp:
    """Keep the k highest-SNR MPCs, re-sorted by time of flight.

    SNR ties go to the earlier MPC; the kept MPCs are re-sorted by time of
    flight, with ties in descending SNR and then in PDP order.
    """
    _check_range("k", k, AT_LEAST_ONE, integer=True)
    if len(pdp.mpcs) <= k:
        return pdp
    tof = np.array([m.tof_s for m in pdp.mpcs])
    top = np.argsort(-np.array([m.snr_db for m in pdp.mpcs]), kind="stable")[:k]
    rows = top[np.argsort(tof[top], kind="stable")]
    return Pdp([pdp.mpcs[i] for i in rows.tolist()], pdp.rx, pdp.anchor_id)


# ---------------------------------------------------------------------------
# Scene configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandPlan:
    """Frequency range of one band with its transmit-side parameters."""

    label: str
    f_lo_hz: BandFrequency
    f_hi_hz: BandFrequency
    tx_power_dbm: Decibels
    rx_processing_gain_db: Decibels = 0.0

    def __post_init__(self) -> None:
        _check_ranges(self)
        if not self.f_lo_hz <= self.f_hi_hz:
            raise ValueError(f"band {self.label!r}: f_hi_hz must be >= f_lo_hz "
                             f"{self.f_lo_hz:g} Hz, got {self.f_hi_hz:g} Hz")


@dataclass(frozen=True)
class RadioConfig:
    bands: tuple[BandPlan, ...]
    bandwidth_hz: Positive = 400e6
    noise_temperature_k: Positive = 290.0
    polarization: str = "TE"
    diffraction_loss: DiffractionLossModel = field(default_factory=DiffractionLossModel)

    def __post_init__(self) -> None:
        _check_ranges(self)
        floor = noise_floor_dbm(self.bandwidth_hz, self.noise_temperature_k)
        if not abs(floor) <= _MAX_ABS_DB:
            raise ValueError(f"RadioConfig.bandwidth_hz {self.bandwidth_hz:g} and "
                             f"noise_temperature_k {self.noise_temperature_k:g} give a noise "
                             f"floor of {floor:g} dBm, not within ±{_MAX_ABS_DB:g}")
        if self.polarization not in ("TE", "TM"):
            raise ValueError(f"polarization must be 'TE' or 'TM', got {self.polarization!r}")

    def band_for(self, f_hz: float) -> BandPlan:
        """The first configured band whose range holds ``f_hz``."""
        for plan in self.bands:
            if plan.f_lo_hz <= f_hz <= plan.f_hi_hz:
                return plan
        raise ValueError(f"frequency {f_hz:g} Hz is outside every configured band")


@dataclass(frozen=True)
class PathLimits:
    max_transmissions: Count = 6
    max_reflections: Count = 6
    max_diffractions: Count = 1
    min_snr_db: Finite = -10.0  # detectability floor; weaker MPCs are dropped

    __post_init__ = _check_ranges


# World -> edge-local rotation of the windows of a facade with normal axis
# 'y' or 'x'; the facade at c translates by (0, -c, 0) or (0, c, 0).
_FACADE_ROTATIONS = {"y": np.eye(3),
                     "x": np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])}


@dataclass(frozen=True)
class _Rect:
    """A u x z rectangle in the plane ``axis`` = ``coord`` (``axis`` 'x' or
    'y'); ``u`` runs along the plane horizontally."""

    axis: str
    coord: Finite
    u_lo: Finite
    u_hi: Finite
    z_lo: Finite
    z_hi: Finite

    def __post_init__(self) -> None:
        _check_ranges(self)
        if self.axis not in ("x", "y"):
            raise ValueError(f"{type(self).__name__}.axis must be 'x' or 'y', got {self.axis!r}")
        if not (self.u_hi > self.u_lo and self.z_hi > self.z_lo):
            raise ValueError(f"{self} is empty: it needs u_lo < u_hi and z_lo < z_hi")

    @property
    def height(self) -> float:
        return self.z_hi - self.z_lo


class WindowRect(_Rect):
    """Rectangular opening in a facade; its horizontal rims diffract."""


class InteriorWall(_Rect):
    """Interior partition covering its rectangle; it attenuates."""


# The most floors and receivers a scene may hold, refused before any array is
# built: each floor adds a slab that every leg is tested against, and the
# full-scale grid holds 12,000 receivers.
_MAX_FLOORS = 1_000
_MAX_RECEIVERS = 1_000_000
Floor = Annotated[int, Range(1, _MAX_FLOORS)]
Coordinate = Annotated[float, Range(-_REACH_M, _REACH_M)]


@dataclass(frozen=True)
class SceneConfig:
    """Building, anchors, receiver grid, radio, and enumeration limits."""

    footprint_x: Length
    footprint_y: Length
    floor_count: Floor
    floor_height: Length
    exterior_slab: SlabSpec
    interior_slab: SlabSpec
    windows: tuple[WindowRect, ...]
    interior_walls: tuple[InteriorWall, ...]
    anchors: tuple[tuple[Coordinate, Coordinate, Coordinate], ...]
    receiver_floors: tuple[Floor, ...]
    receiver_spacing: Positive
    receiver_margin: Positive = 1.0
    receiver_height: Positive = 1.5
    radio: RadioConfig = field(default_factory=lambda: RadioConfig(bands=_DEFAULT_BANDS))
    limits: PathLimits = field(default_factory=PathLimits)
    include_ground: bool = True

    def __post_init__(self) -> None:
        _check_ranges(self)
        if self.floor_count > _REACH_M / self.floor_height:
            raise ValueError(f"floor_count × floor_height must be at most {_REACH_M:g} m, got "
                             f"{self.floor_count} floors of {self.floor_height:g} m")
        # Receivers stand inside the footprint (receiver_margin > 0) and
        # above the slab of their floor, below the next.
        if not self.receiver_height < self.floor_height:
            raise ValueError(f"receiver_height must lie in (0, {self.floor_height:g}) m, "
                             f"got {self.receiver_height:g} m")
        for i, floor in enumerate(self.receiver_floors):
            if floor > self.floor_count:
                raise ValueError(f"receiver floor {floor} outside 1..{self.floor_count}")
            if floor in self.receiver_floors[:i]:
                raise ValueError(f"receiver floor {floor} is listed twice")
        nx, ny = (_grid_size(extent, self.receiver_margin, self.receiver_spacing)
                  for extent in (self.footprint_x, self.footprint_y))
        if not (self.receiver_floors and nx and ny):
            raise ValueError(
                f"receiver margin {self.receiver_margin:g} m and spacing "
                f"{self.receiver_spacing:g} m leave an empty receiver grid")
        if nx * ny * len(self.receiver_floors) > _MAX_RECEIVERS:
            raise ValueError(f"receiver_spacing {self.receiver_spacing:g} m gives {nx:g} x {ny:g} "
                             f"receivers on each of {len(self.receiver_floors)} floors, more "
                             f"than the {_MAX_RECEIVERS:,} allowed")
        for i, anchor in enumerate(self.anchors):
            if len(anchor) != 3:
                raise ValueError(f"anchor {i} {tuple(anchor)!r} is not three coordinates")
        # Windows lie in a facade plane, interior walls in or between two;
        # either spans at most its facade's width and the building's height.
        extent = {"x": self.footprint_x, "y": self.footprint_y}
        width = {"x": self.footprint_y, "y": self.footprint_x}
        top = self.floor_count * self.floor_height
        for where, rects in (("windows", self.windows), ("interior_walls", self.interior_walls)):
            for i, r in enumerate(rects):
                if where == "windows" and r.coord not in (0.0, extent[r.axis]):
                    raise ValueError(f"windows[{i}] at {r.axis} = {r.coord:g} is on no facade")
                if not (0.0 <= r.coord <= extent[r.axis] and 0.0 <= r.u_lo
                        and r.u_hi <= width[r.axis] and 0.0 <= r.z_lo and r.z_hi <= top):
                    raise ValueError(f"{where}[{i}] extends past its facade: {r.axis} must lie in "
                                     f"[0, {extent[r.axis]:g}] m, u in [0, {width[r.axis]:g}] m "
                                     f"and z in [0, {top:g}] m")

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.zeros(3)
        hi = np.array([self.footprint_x, self.footprint_y,
                       self.floor_count * self.floor_height])
        return lo, hi

    def floor_base(self, floor: int) -> float:
        return (floor - 1) * self.floor_height


_DEFAULT_BANDS = (
    BandPlan("FR1", 0.41e9, 7.125e9, tx_power_dbm=20.0, rx_processing_gain_db=0.0),
    BandPlan("FR3", 7.125e9, 24.25e9, tx_power_dbm=30.0, rx_processing_gain_db=0.0),
    BandPlan("FR2", 24.25e9, 71e9, tx_power_dbm=30.0, rx_processing_gain_db=20.0),
)


# ---------------------------------------------------------------------------
# Derived geometry: surfaces for crossing tests, reflectors, diffraction edges
# ---------------------------------------------------------------------------

_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
# In-plane axes (u, v) for each normal axis.
_PLANE_AXES = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}


@dataclass(frozen=True)
class Surface:
    """Axis-aligned rectangle with a slab stack and optional cutouts."""

    name: str
    axis: str
    coord: float
    u_lo: float
    u_hi: float
    v_lo: float
    v_hi: float
    slab: SlabSpec
    cutouts: tuple[tuple[float, float, float, float], ...] = ()
    reflective: bool = False


class EdgeDiffractions(NamedTuple):
    """Single diffractions of a scene, one entry per (receiver, anchor,
    edge) row."""

    pair: np.ndarray  # (D,) receiver * A + anchor, positions in the rx and tx rows
    ids: np.ndarray  # (D,) edge indices into SceneGeometry.edge_table
    lam: np.ndarray  # (D,) q = lam*X1 + (1-lam)*X2 in the edge-local frame
    endpoint: np.ndarray  # (D,) clamped to an edge endpoint
    length: np.ndarray  # (D,) two-leg path length
    point: np.ndarray  # (D, 3) world diffraction point


class Reflections(NamedTuple):
    """Single specular reflections of a scene, one entry per (receiver,
    anchor, reflector) row."""

    pair: np.ndarray  # (R,) receiver * A + anchor, positions in the rx and tx rows
    ids: np.ndarray  # (R,) reflector indices into SceneGeometry.reflector_slabs
    length: np.ndarray  # (R,) image-source path length
    point: np.ndarray  # (R, 3) world specular point
    incidence: np.ndarray  # (R,) incidence angle from the normal, below pi/2


class _AnchorTerms(NamedTuple):
    """What the reflections, diffractions and path tables of a set of
    anchors need of the anchors alone, whatever the receivers: among it the
    crossings of the legs to the edge ends, which are the first legs of
    every diffraction row clamped to an edge end."""

    tx: np.ndarray  # (A, 3)
    plane_distance: np.ndarray  # (A, K) signed distance to every reflector plane
    image: np.ndarray  # (A, K, 3) image in every reflector plane
    edge_local: np.ndarray  # (A, E, 3) position in every edge frame
    on_edge_line: np.ndarray  # (A, E) lies on the edge line
    end_crossings: np.ndarray  # (A, 2E, S) surfaces crossed on the way to every edge end


# Edge rows per chunk of SceneGeometry.diffractions. Chunks bound the edge
# kernel's temporaries: solving a four-receiver sweep block unchunked raised
# the sweep's traced peak from 0.68 to 1.2 MB, and 768 was the largest chunk
# measured to keep it at 0.68 MB. A point query's rows (about 170) fit in
# one chunk.
_EDGE_ROWS = 768

# Legs per crossings call of path_table. On the default scene's 18 surfaces
# 768 keeps each of the call's temporaries below 128 KiB; the sweep's
# allocations above that size are what raise its peak RSS.
_LEG_ROWS = 768

# Anchor sets whose terms a SceneGeometry keeps; a sweep uses one and point
# queries one per anchor, so the memo is emptied when it reaches this size.
_ANCHOR_SETS = 64


class _SurfacePack(NamedTuple):
    """Axis-aligned surfaces packed into arrays, one entry per surface."""

    axis: np.ndarray  # (N,) normal axis index
    uv: np.ndarray  # (N, 2) in-plane (u, v) axis indices
    coord: np.ndarray  # (N,) plane coordinate along the normal axis
    extent: np.ndarray  # (4, N) u_lo, u_hi, v_lo, v_hi
    has_cutouts: np.ndarray  # (N,)
    cutouts: np.ndarray  # (4, N, C) likewise, padded with boxes that hold no point


def _distinct(objects) -> tuple[list, np.ndarray]:
    """The distinct ``objects`` by identity, first seen first, and each one's index among them."""
    first: dict[int, tuple[int, object]] = {}
    index = [first.setdefault(id(o), (len(first), o))[0] for o in objects]
    return [o for _, o in first.values()], np.array(index, dtype=int)


def _pack_surfaces(surfaces: list[Surface]) -> _SurfacePack:
    width = max((len(s.cutouts) for s in surfaces), default=0)
    cutouts = np.tile(np.array([math.inf, -math.inf, math.inf, -math.inf])[:, None, None],
                      (1, len(surfaces), width))
    for k, s in enumerate(surfaces):
        cutouts[:, k, :len(s.cutouts)] = np.array(s.cutouts).T.reshape(4, -1)
    return _SurfacePack(
        axis=np.array([_AXIS_INDEX[s.axis] for s in surfaces], dtype=int),
        uv=np.array([_PLANE_AXES[s.axis] for s in surfaces], dtype=int).reshape(-1, 2),
        coord=np.array([s.coord for s in surfaces], dtype=float),
        extent=np.array([[s.u_lo, s.u_hi, s.v_lo, s.v_hi] for s in surfaces],
                        dtype=float).reshape(-1, 4).T.copy(),
        has_cutouts=np.array([bool(s.cutouts) for s in surfaces], dtype=bool),
        cutouts=cutouts,
    )


class SceneGeometry:
    """Expanded scene: crossing surfaces, reflectors, and diffraction edges.

    Everything the batched kernels need is packed into arrays once, here:
    the crossing surfaces and the reflectors (the reflective surfaces in
    surface order, then the ground when ``ground_slab`` is given), each with
    its plane, extent and window cutouts, the edges (``edge_table``) and
    their ends (``edge_ends``). ``crossings`` tests every segment against
    every surface at once: a parametric plane hit strictly inside the
    segment, then the surface extent, then, per facade, the cutouts.
    ``reflections`` reflects off every reflector at once and
    ``diffractions`` solves the stationary point on every edge at once.
    ``prepare_frequency`` keeps the slab losses and the reflector
    permittivities of each frequency.
    """

    def __init__(self, surfaces: list[Surface], edges: EdgeTable,
                 ground_slab: SlabSpec | None):
        self.surfaces = surfaces
        self.edge_table = edges
        # Edge e's ends at lam = 0.0 and 1.0, rows 2e and 2e + 1: bit for bit
        # the points of the diffraction rows clamped to them, which
        # diffractions reads from here.
        n_edges = len(edges.x1)
        self.edge_ends = edges.points(np.arange(n_edges).repeat(2), np.tile([0.0, 1.0], n_edges))
        self._walls = _pack_surfaces(surfaces)
        self._cut_surfaces = np.flatnonzero(self._walls.has_cutouts)
        # Reflectors; the ground is the plane z = 0 with the reflective
        # surfaces in it cut out, so that they, rims included, reflect there.
        mirrors = [s for s in surfaces if s.reflective]
        if ground_slab is not None:
            slabs_at_0 = tuple((s.u_lo, s.u_hi, s.v_lo, s.v_hi) for s in mirrors
                               if s.axis == "z" and s.coord == 0.0)
            mirrors.append(Surface("ground", "z", 0.0, -math.inf, math.inf, -math.inf, math.inf,
                                   ground_slab, slabs_at_0))
        self.reflector_slabs = tuple(s.slab for s in mirrors)
        # Each distinct slab and facing material (scenes share them between
        # surfaces) is evaluated once per frequency, then gathered.
        self._slabs, self._slab_of = _distinct(s.slab for s in surfaces)
        self._materials, self._material_of = _distinct(s.slab.facing_material for s in mirrors)
        self._mirrors = _pack_surfaces(mirrors)
        self._mirror_normal = np.eye(3)[self._mirrors.axis].reshape(-1, 3)
        self._loss_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._anchor_cache: dict[bytes, _AnchorTerms] = {}

    def prepare_frequency(self, f_hz: float) -> tuple[np.ndarray, np.ndarray]:
        """The surfaces' slab losses (S,) and the reflectors' complex
        permittivities (R,) at ``f_hz``, kept per frequency."""
        terms = self._loss_cache.get(f_hz)
        if terms is None:
            slab_db = np.array([transmission_loss_db(slab, f_hz) for slab in self._slabs])
            eps = np.array([complex_permittivity(m, f_hz) for m in self._materials])
            terms = self._loss_cache[f_hz] = (slab_db[self._slab_of], eps[self._material_of])
        return terms

    def _anchor_terms(self, tx) -> _AnchorTerms:
        """The terms of the anchors ``tx`` (A, 3), or of one (3,) point,
        kept per anchor set (bit pattern)."""
        tx = np.array(tx, dtype=float).reshape(-1, 3)  # a copy, kept with the terms
        key = tx.tobytes()
        terms = self._anchor_cache.get(key)
        if terms is None:
            if len(self._anchor_cache) >= _ANCHOR_SETS:
                self._anchor_cache.clear()
            normals = self._mirror_normal
            dt = _signed_distances(tx, normals, self._mirrors.coord)
            t = self.edge_table.to_local(tx)
            ends = self.edge_ends
            crossed = self.crossings(tx.repeat(len(ends), axis=0), np.tile(ends, (len(tx), 1)))
            terms = self._anchor_cache[key] = _AnchorTerms(
                tx, dt, _mirror_images(dt, tx, normals), t, _on_edge_line(t, self.edge_table.z_e),
                crossed.reshape(len(tx), len(ends), len(self.surfaces)))
        return terms

    def crossings(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """(L, S) mask of the surfaces each open segment (p0[l], p1[l]) crosses.

        A segment through a surface's boundary line, such as the line where
        a slab meets a facade, hits the surface on the edge of its extent,
        so whether it crosses depends on the last bit of the computed hit
        point: the same leg can count differently in its two directions.
        ``path_table`` therefore always tests a path's legs as they
        propagate, from the anchor to the interaction point and on to the
        receiver. The mask is the transpose of a surface-major (S, L) array.
        """
        walls = self._walls
        p0 = p0.T.copy()
        d = p1.T - p0
        denom = d[walls.axis]
        t = walls.coord[:, None] - p0[walls.axis]
        with np.errstate(divide="ignore", invalid="ignore"):
            t /= denom
        t[np.abs(denom) <= 1e-15] = -1.0  # parallel segments never cross
        del denom
        hit = t > _SEGMENT_EPS
        hit &= t < 1.0 - _SEGMENT_EPS
        # The in-plane hit point p0 + t * d, formed in place as t * d + p0;
        # only the rows of the surfaces with cutouts are kept.
        cut = self._cut_surfaces
        hit_point = []
        for axes, lo, hi in zip(walls.uv.T, walls.extent[0::2, :, None],
                                walls.extent[1::2, :, None]):
            w = d[axes]
            w *= t
            w += p0[axes]
            hit &= w >= lo
            hit &= w <= hi
            hit_point.append(w[cut])
        # Window cutouts punch holes into the few surfaces that carry them.
        u, v = hit_point
        for k, i in enumerate(cut.tolist()):
            legs = np.flatnonzero(hit[i])
            box, hu, hv = walls.cutouts[:, i], u[k, legs][:, None], v[k, legs][:, None]
            in_cutout = ((box[0] <= hu) & (hu <= box[1])
                         & (box[2] <= hv) & (hv <= box[3])).any(axis=1)
            hit[i, legs[in_cutout]] = False
        return hit.T

    def reflections(self, tx, rx) -> Reflections:
        """Specular reflection of every anchor of ``tx`` (A, 3), or of one
        (3,) point, to every receiver of ``rx`` (N, 3), or to one (3,)
        point, off every reflector with a valid specular point; rows
        receiver by receiver, each anchor by anchor in reflector order.

        A reflector is left out when tx and rx are not strictly on the same
        side of its plane, when the specular point falls outside its extent
        or into a window cutout (there is no material to reflect off), or
        when the incident leg has zero length. The incidence angle is
        clamped just below pi/2.
        """
        mirrors = self._mirrors
        terms = self._anchor_terms(tx)
        length, point, ok = _reflect_rows(terms.plane_distance, terms.image,
                                          np.asarray(rx, dtype=float).reshape(-1, 3),
                                          self._mirror_normal, mirrors.coord)
        incident = point - terms.tx[:, None]
        # (receiver, anchor) pairs on one axis, receiver-major.
        n_pairs, k = ok.shape[0] * ok.shape[1], np.arange(ok.shape[2])
        length, ok = length.reshape(n_pairs, len(k)), ok.reshape(n_pairs, len(k))
        point, incident = point.reshape(n_pairs, len(k), 3), incident.reshape(n_pairs, len(k), 3)
        u, v = point[:, k, mirrors.uv[:, 0]], point[:, k, mirrors.uv[:, 1]]
        u_lo, u_hi, v_lo, v_hi = mirrors.extent
        ok &= (u >= u_lo) & (u <= u_hi) & (v >= v_lo) & (v <= v_hi)
        p_cut, cut = (ok & mirrors.has_cutouts).nonzero()
        box, hu, hv = mirrors.cutouts[:, cut], u[p_cut, cut, None], v[p_cut, cut, None]
        ok[p_cut, cut] = ~((box[0] <= hu) & (hu <= box[1])
                           & (box[2] <= hv) & (hv <= box[3])).any(axis=1)
        norm = np.sqrt((incident * incident).sum(axis=-1))
        pair, ids = (ok & (norm != 0.0)).nonzero()
        cos_i = np.abs(incident[pair, ids, mirrors.axis[ids]]) / norm[pair, ids]
        angle = np.minimum(np.arccos(np.minimum(1.0, cos_i)), math.pi / 2 - 1e-12)
        return Reflections(pair, ids, length[pair, ids], point[pair, ids], angle)

    def diffractions(self, tx, rx) -> EdgeDiffractions:
        """Diffraction of every anchor of ``tx`` (A, 3), or of one (3,)
        point, to every receiver of ``rx`` (N, 3), or to one (3,) point, at
        every edge, at the edge point that minimizes the two-leg length:
        Keller's equal-angle point, clipped to the edge where it lies off it
        (flagged as an endpoint). Rows run receiver by receiver, each anchor
        by anchor in edge order. Edges whose line holds both tx and rx,
        where diffraction is undefined, are left out. A clamped row's point
        is read from ``edge_ends``; only the others are computed.
        """
        terms = self._anchor_terms(tx)
        r = self.edge_table.to_local(rx)
        receiver, anchor, ids = (~(terms.on_edge_line
                                   & _on_edge_line(r, self.edge_table.z_e)[:, None])).nonzero()
        pair = receiver * len(terms.tx) + anchor
        # The rows in chunks, which bounds the kernel's temporaries; every
        # row depends on its own ends only.
        lam, length, point = np.empty(len(ids)), np.empty(len(ids)), np.empty((len(ids), 3))
        endpoint = np.empty(len(ids), dtype=bool)
        for chunk in range(0, len(ids), _EDGE_ROWS):
            rows = slice(chunk, chunk + _EDGE_ROWS)
            lam[rows], endpoint[rows], length[rows], point[rows] = self._edge_rows(
                terms.edge_local, r, receiver[rows], anchor[rows], ids[rows])
        return EdgeDiffractions(pair, ids, lam, endpoint, length, point)

    def _edge_rows(self, t, r, receiver, anchor, ids) -> tuple[np.ndarray, ...]:
        """lam, endpoint, length and world point of the diffraction rows of
        anchors ``t`` (A, E, 3) and receivers ``r`` (N, E, 3), in the edge
        frames, at the edges ``ids``."""
        x1, x2, z_e = self.edge_table.x1[ids], self.edge_table.x2[ids], self.edge_table.z_e[ids]
        # The ends stacked (3, 2, D) in C order, for the kernel's fast loops,
        # gathered from the (3, A*E) and (3, N*E) views of the frames.
        ends = np.empty((3, 2, len(ids)))
        ends[:, 0] = t.reshape(-1, 3).T.take(anchor * t.shape[1] + ids, axis=1)
        ends[:, 1] = r.reshape(-1, 3).T.take(receiver * r.shape[1] + ids, axis=1)
        x, y, z = ends
        sol = _solve_edge_lambdas(x, y ** 2, z, x2, x1 - x2, z_e)
        endpoint = sol.lam != sol.free
        point = self.edge_ends.take(2 * ids + (sol.lam == 1.0), axis=0)
        inner = np.flatnonzero(~endpoint)
        point[inner] = self.edge_table.points(ids.take(inner), sol.lam.take(inner))
        return sol.lam, endpoint, sol.length, point


def build_scene_geometry(scene: SceneConfig) -> SceneGeometry:
    """Expand a scene config into crossing surfaces and diffraction edges."""
    lx, ly = scene.footprint_x, scene.footprint_y
    top = scene.floor_count * scene.floor_height
    surfaces: list[Surface] = []

    # Exterior shell: the facades y = 0, y = ly, x = 0 and x = lx, each cut
    # by its windows.
    for axis, extent, width in (("y", ly, lx), ("x", lx, ly)):
        for coord in (0.0, extent):
            surfaces.append(Surface(
                name=f"facade_{axis}{coord:g}", axis=axis, coord=coord,
                u_lo=0.0, u_hi=width, v_lo=0.0, v_hi=top, slab=scene.exterior_slab,
                cutouts=tuple((w.u_lo, w.u_hi, w.z_lo, w.z_hi) for w in scene.windows
                              if w.axis == axis and w.coord == coord),
                reflective=True))
    # Floor and ceiling slabs (level 0 is the ground slab, level N the roof).
    for level in range(scene.floor_count + 1):
        z = level * scene.floor_height
        surfaces.append(Surface(
            name=f"slab_z{z:g}", axis="z", coord=z,
            u_lo=0.0, u_hi=lx, v_lo=0.0, v_hi=ly,
            slab=scene.exterior_slab, reflective=True))
    # Interior partitions (not reflective: the enumerator only mirrors off
    # exterior surfaces, floors, ceilings, and the ground).
    for i, wall in enumerate(scene.interior_walls):
        surfaces.append(Surface(
            name=f"interior_{i}", axis=wall.axis, coord=wall.coord,
            u_lo=wall.u_lo, u_hi=wall.u_hi, v_lo=wall.z_lo, v_hi=wall.z_hi,
            slab=scene.interior_slab, reflective=False))

    # Two edges per window, its bottom rim then its top rim, in the frame of
    # its facade: local x runs along the facade, local y across it, local z up.
    rims = [(w, z) for w in scene.windows for z in (w.z_lo, w.z_hi)]
    edges = edge_table(
        np.array([_FACADE_ROTATIONS[w.axis] for w, _ in rims]).reshape(-1, 3, 3),
        np.array([(0.0, -w.coord if w.axis == "y" else w.coord, 0.0)
                  for w, _ in rims]).reshape(-1, 3),
        *np.array([(w.u_lo, w.u_hi, z, w.height) for w, z in rims]).reshape(-1, 4).T)

    ground_slab = scene.exterior_slab if scene.include_ground else None
    return SceneGeometry(surfaces=surfaces, edges=edges, ground_slab=ground_slab)


def _grid_axis(extent: float, margin: float, spacing: float) -> np.ndarray:
    return np.arange(margin, extent - margin + 1e-9, spacing)


def _grid_size(extent: float, margin: float, spacing: float) -> float:
    """``len(_grid_axis(extent, margin, spacing))`` by np.arange's own
    arithmetic, without building the axis; inf for one too long to count."""
    start, stop = margin, extent - margin + 1e-9
    n = (stop - start) / spacing
    if not n > 0:  # np.arange gives one point when the quotient underflows
        return float(n == 0.0 and stop > start)
    return float(math.ceil(n)) if n < math.inf else n


def receiver_grid(scene: SceneConfig) -> np.ndarray:
    """Deterministic receiver lattice (N, 3) on the configured floors, floor
    by floor, each row by row in y, each point by point in x."""
    xs = _grid_axis(scene.footprint_x, scene.receiver_margin, scene.receiver_spacing)
    ys = _grid_axis(scene.footprint_y, scene.receiver_margin, scene.receiver_spacing)
    zs = [scene.floor_base(floor) + scene.receiver_height for floor in scene.receiver_floors]
    z, y, x = np.meshgrid(zs, ys, xs, indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


# ---------------------------------------------------------------------------
# Path enumeration
# ---------------------------------------------------------------------------

# Row kinds of a PathTable.
_DIRECT, _REFLECTION, _DIFFRACTION = 0, 1, 2
_KINDS = np.array([_DIRECT, _REFLECTION, _DIFFRACTION])
_KIND_SYMBOL = (None, "R", "D")
# Group of each row kind when no transmission precedes the interaction;
# the direct segment is MPC1 whatever it crosses.
_KIND_GROUP = np.array([MpcGroup.MPC1.value, MpcGroup.MPC2.value, MpcGroup.MPC3.value])
_GROUP_OF_CODE = (None, MpcGroup.MPC1, MpcGroup.MPC2, MpcGroup.MPC3, MpcGroup.MPC4)


# Memo of _interactions; its values are immutable and there are at most
# 3 * (max_transmissions + 1) ** 2 of them.
_INTERACTIONS: dict[tuple[int, int, int], tuple[str, ...]] = {}


def _interactions(kind: int, n1: int, n2: int) -> tuple[str, ...]:
    """Interaction tuple of a row: n1 transmissions, the row's reflection
    or diffraction, then n2 transmissions (the direct segment has only n1)."""
    found = _INTERACTIONS.get((kind, n1, n2))
    if found is None:
        found = ("T",) * n1 if kind == _DIRECT \
            else ("T",) * n1 + (_KIND_SYMBOL[kind],) + ("T",) * n2
        _INTERACTIONS[kind, n1, n2] = found
    return found


def _leg_slab_db(crossed: np.ndarray, slab_db: np.ndarray) -> np.ndarray:
    """Slab loss (F, L) of each of L legs at F frequencies: the losses
    ``slab_db`` (F, S) of the surfaces that its row of ``crossed`` (L, S)
    marks, added in surface order.

    The flat nonzero of ``crossed`` lists each leg's surfaces in ascending
    order, and ``np.add.at`` adds unbuffered in index order, so each leg's
    sum starts from zero and adds its own surfaces one after another.
    """
    n_surfaces = crossed.shape[1]
    flat = crossed.ravel().nonzero()[0]
    leg = flat // n_surfaces
    surface = flat - leg * n_surfaces
    total = np.zeros((len(slab_db), len(crossed)))
    for row, losses in zip(total, slab_db):
        np.add.at(row, leg, losses[surface])
    return total


class PathLosses(NamedTuple):
    """Losses of a PathTable's rows at F frequencies."""

    power_dbm: np.ndarray  # (F, P) received power
    snr_db: np.ndarray  # (F, P)
    detected: np.ndarray  # (F, P) reflects something and clears the floor


@dataclass(frozen=True, eq=False)
class PathTable:
    """Frequency-independent candidate paths from the anchors ``anchor_ids``
    to the receivers ``receivers`` (N, 3), one row per path.

    Rows run receiver by receiver, each anchor by anchor in ``anchor_ids``
    order, each pair in emission order: the direct segment, single specular
    reflections (reflective surfaces, then the ground), then single
    diffractions in edge order. So the columns (every attribute but the
    first four) are the one-receiver, one-anchor tables concatenated.
    ``crossings[p, 0]`` and ``[p, 1]`` mark the surfaces crossed before and
    after the reflection or diffraction point (the direct segment has only
    the first). ``group`` is MPC1 for the direct segment, MPC4 for a
    reflection or diffraction after a transmission, else MPC2 or MPC3.
    """

    scene: SceneConfig
    geometry: SceneGeometry
    anchor_ids: tuple[int, ...]
    receivers: np.ndarray  # (N, 3)
    receiver: np.ndarray  # (P,) position in receivers
    anchor: np.ndarray  # (P,) scene anchor index
    length_m: np.ndarray  # (P,)
    tof_s: np.ndarray  # (P,)
    crossings: np.ndarray  # (P, 2, S) bool
    kind: np.ndarray  # (P,) _DIRECT, _REFLECTION or _DIFFRACTION
    n_crossings: np.ndarray  # (P, 2) surfaces crossed per leg
    group: np.ndarray  # (P,) MpcGroup value
    edge_id: np.ndarray  # (P,) index into geometry.edge_table; -1 off diffraction rows
    reflector: np.ndarray  # (P,) index into geometry.reflector_slabs; -1 off reflection rows
    incidence_rad: np.ndarray  # (P,) clamped incidence angle; NaN off reflection rows

    def losses(self, freqs_hz) -> PathLosses:
        """Received power and SNR of every row at each of F frequencies
        (``freqs_hz`` is one frequency or a sequence of them).

        A row's received power is the transmit power plus processing gain of
        the frequency's band, minus the free-space loss of its length, minus
        its reflection loss or excess diffraction loss, minus the slab losses
        of the surfaces each leg crosses; its SNR is that power over the one
        noise floor of the radio's bandwidth and noise temperature. The losses
        accumulate as along the path: each leg's slab losses are summed in
        surface order, the first leg's then the second's, which fixes the
        floating-point rounding. The reflection losses of all reflection
        rows at all frequencies are one call. Paths that reflect nothing
        (infinite reflection loss) and paths below the detectability floor
        are not detected.
        """
        radio = self.scene.radio
        freqs = [float(f_hz) for f_hz in np.ravel(freqs_hz)]
        if not freqs:
            raise ValueError("freqs_hz is empty")
        gain = np.array([[plan.tx_power_dbm + plan.rx_processing_gain_db]
                         for plan in map(radio.band_for, freqs)])

        slab_db, eps = map(np.array, zip(*map(self.geometry.prepare_frequency, freqs)))
        base = np.zeros((len(freqs), len(self.length_m)))
        base[:, self.kind == _DIFFRACTION] = [
            [diffraction_loss_db(radio.diffraction_loss, f_hz)] for f_hz in freqs]
        rows = np.flatnonzero(self.kind == _REFLECTION)
        base[:, rows] = reflection_loss_db(eps[:, self.reflector[rows]], self.incidence_rad[rows],
                                           radio.polarization)
        legs_db = _leg_slab_db(self.crossings.reshape(-1, slab_db.shape[1]),
                               slab_db).reshape(len(freqs), -1, 2)
        extra = base + legs_db[..., 0] + legs_db[..., 1]
        power = gain - free_space_path_loss_db(self.length_m, np.array(freqs)[:, None]) - extra
        snr = power - noise_floor_dbm(radio.bandwidth_hz, radio.noise_temperature_k)
        detected = ~np.isinf(base) & (snr >= self.scene.limits.min_snr_db)
        return PathLosses(power, snr, detected)


def _anchor_indices(scene: SceneConfig, anchor_ids, name: str) -> tuple[int, ...]:
    """The scene anchor indices ``anchor_ids`` as a non-empty tuple of ints;
    ValueError naming the argument ``name`` for an empty one or an entry
    that is not an index of a scene anchor (a negative one included)."""
    ids = tuple(anchor_ids)
    if not ids:
        raise ValueError(f"{name} is empty")
    n_anchors = len(scene.anchors)
    for a in ids:
        if not (type(a) is int or isinstance(a, np.integer)) or not 0 <= a < n_anchors:
            raise ValueError(f"{name}: {a!r} is not an anchor index in 0..{n_anchors - 1}")
    return tuple(map(int, ids))


def _receiver_block(rx) -> np.ndarray:
    """The receivers (N, 3) of a Point3, a (3,) point or an (N, 3) block;
    ValueError naming ``rx`` for any other shape, an empty block or a
    non-finite coordinate."""
    if isinstance(rx, Point3):
        return rx.as_array()[None]
    expected = "rx must be a Point3, a point of shape (3,) or a block of shape (N, 3) with N >= 1"
    try:
        block = np.asarray(rx, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{expected}, got a {type(rx).__name__} that is no array of "
                         "numbers") from None
    if block.ndim == 1:
        block = block[None]
    if block.ndim != 2 or block.shape[1] != 3 or not len(block):
        raise ValueError(f"{expected}, got shape {np.shape(rx)}")
    if not np.isfinite(block).all():
        raise ValueError("rx has a non-finite coordinate")
    return block


def path_table(
    scene: SceneConfig,
    anchor_ids,
    rx,
    geometry: SceneGeometry | None = None,
) -> PathTable:
    """Enumerate the candidate paths from each anchor of ``anchor_ids`` (scene
    anchor indices) to each receiver of ``rx`` (a Point3, a (3,) point or an
    (N, 3) block), in one table; a point query is a block of one.

    Families: the direct segment, single specular reflections off the
    reflective surfaces and the ground, and single diffraction at every
    window edge, each with one transmission per slab crossing along its
    legs. Dropped here, for every frequency at once: reflections without a
    valid specular point, diffractions on an edge line holding both ends,
    paths beyond the transmission limit, and zero-length paths.

    The reflections and edge solves of all pairs are one call each, and
    each distinct leg is tested for crossings once. Most diffraction rows
    are clamped to an edge end, whose point is then bit for bit the
    geometry's ``edge_ends`` entry: their legs from the anchor are tested
    once per anchor set and kept with the anchor terms, and their legs to
    a receiver once per (receiver, edge end). The other rows' legs are
    tested with those, in chunks of legs. A leg is tested as it propagates,
    and a leg's mask does not depend on the other legs of its call, so
    every row is computed as in a one-receiver, one-anchor table, bit for
    bit. Bad ``anchor_ids`` and a malformed ``rx`` raise ValueError.
    """
    return _path_table(scene, _anchor_indices(scene, anchor_ids, "anchor_ids"),
                       _receiver_block(rx), geometry)


def _path_table(scene: SceneConfig, anchor_ids: tuple[int, ...], receivers: np.ndarray,
                geometry: SceneGeometry | None) -> PathTable:
    """The path_table of checked ``anchor_ids`` and an (N, 3) block of
    ``receivers``."""
    geom = geometry if geometry is not None else build_scene_geometry(scene)
    anchors = np.array([scene.anchors[a] for a in anchor_ids], dtype=float)
    limits = scene.limits
    n_anchors = len(anchors)

    pair, kind, length, pts, edge_id, reflector, incidence, end = _candidates(
        geom, anchors, receivers, limits)
    receiver, anchor = np.divmod(pair, n_anchors)

    # The legs, one column each: the anchor -> edge end legs of the anchor
    # terms, then those tested here, both legs of each row not clamped to an
    # edge end and the distinct edge end -> receiver legs of each receiver.
    ends, n_ends = geom.edge_ends, len(geom.edge_ends)
    clamped = end >= 0
    fresh, rows = (~clamped).nonzero()[0], clamped.nonzero()[0]
    # The distinct (receiver, edge end) keys, found by a scatter, and the
    # position of each row's key among them.
    key = (receiver * n_ends + end).take(rows)
    used = np.zeros(len(receivers) * n_ends, dtype=bool)
    used[key] = True
    shared, slot = used.nonzero()[0], (used.cumsum() - 1).take(key)
    base = n_anchors * n_ends
    # Each row's two legs as columns of legs.
    leg = np.empty((2, len(pair)), dtype=int)
    leg[:, fresh] = np.arange(base, base + 2 * len(fresh)).reshape(2, -1)
    leg[0, rows] = (anchor * n_ends + end).take(rows)
    leg[1, rows] = slot + (base + 2 * len(fresh))
    leg = leg.T
    at = pts.take(fresh, axis=0)
    p0 = np.concatenate([anchors.take(anchor.take(fresh), axis=0), at,
                         ends.take(shared % n_ends, axis=0)])
    p1 = np.concatenate([at, receivers.take(receiver.take(fresh), axis=0),
                         receivers.take(shared // n_ends, axis=0)])
    # Released before the crossing tests, which set the peak of a table.
    del pts, at, end, clamped, fresh, rows, key, shared, slot
    # Surface-major (S, legs), the layout in which crossings computes them.
    legs = np.concatenate(
        [geom._anchor_terms(anchors).end_crossings.reshape(base, len(geom.surfaces)).T]
        + [geom.crossings(p0[chunk:chunk + _LEG_ROWS], p1[chunk:chunk + _LEG_ROWS]).T
           for chunk in range(0, len(p0), _LEG_ROWS)], axis=1)
    n_crossings = legs.sum(axis=0).take(leg)
    keep = np.flatnonzero((length > 0.0)
                          & (n_crossings[:, 0] + n_crossings[:, 1] <= limits.max_transmissions))
    kind, n_crossings, length = kind.take(keep), n_crossings.take(keep, axis=0), length.take(keep)
    group = np.where((kind != _DIRECT) & (n_crossings[:, 0] > 0), MpcGroup.MPC4.value,
                     _KIND_GROUP[kind])
    return PathTable(
        scene=scene,
        geometry=geom,
        anchor_ids=anchor_ids,
        receivers=receivers,
        receiver=receiver.take(keep),
        anchor=np.array(anchor_ids).take(anchor.take(keep)),
        length_m=length,
        tof_s=length / SPEED_OF_LIGHT,
        crossings=legs.T.take(leg[keep], axis=0),
        kind=kind,
        n_crossings=n_crossings,
        group=group,
        edge_id=edge_id.take(keep),
        reflector=reflector.take(keep),
        incidence_rad=incidence.take(keep),
    )


def _candidates(geom: SceneGeometry, anchors: np.ndarray, receivers: np.ndarray,
                limits: PathLimits) -> tuple[np.ndarray, ...]:
    """Pair index, kind, length, interaction point, edge, reflector,
    incidence and edge end (2 * edge + 1 at lam = 1.0, 2 * edge at 0.0, -1
    for a row not clamped to an edge end) of every candidate row, pair by
    pair in emission order: the rows come kind by kind, each pair by pair,
    and a stable sort by pair orders them. A direct segment's interaction
    point is the receiver.
    The kernels' outputs are released when this returns, before a block's
    crossing tests run.
    """
    n_anchors = len(anchors)
    n_pairs = len(receivers) * n_anchors
    refl = geom.reflections(anchors, receivers)
    if limits.max_reflections < 1:
        refl = Reflections(*(column[:0] for column in refl))
    diff = geom.diffractions(anchors, receivers)
    if limits.max_diffractions < 1:
        diff = EdgeDiffractions(*(column[:0] for column in diff))
    n_refl, n_diff = len(refl.ids), len(diff.ids)

    pair = np.concatenate([np.arange(n_pairs), refl.pair, diff.pair])
    order = pair.argsort(kind="stable")
    return (
        pair.take(order),
        _KINDS.repeat([n_pairs, n_refl, n_diff]).take(order),
        np.concatenate([euclidean_distance(anchors, receivers[:, None]).ravel(),
                        refl.length, diff.length]).take(order),
        np.concatenate([receivers.repeat(n_anchors, axis=0), refl.point,
                        diff.point]).take(order, axis=0),
        np.concatenate([np.full(n_pairs + n_refl, -1), diff.ids]).take(order),
        np.concatenate([np.full(n_pairs, -1), refl.ids, np.full(n_diff, -1)]).take(order),
        np.concatenate([np.full(n_pairs, math.nan), refl.incidence,
                        np.full(n_diff, math.nan)]).take(order),
        np.concatenate([np.full(n_pairs + n_refl, -1),
                        np.where(diff.endpoint, 2 * diff.ids + (diff.lam == 1.0), -1)]).take(order),
    )


def enumerate_mpcs(
    scene: SceneConfig,
    anchor_index: int,
    rx,
    f_hz: float,
    geometry: SceneGeometry | None = None,
) -> Pdp:
    """Synthesize the PDP of one (anchor, receiver) pair at one frequency:
    an Mpc for each detected row of the pair's one-anchor path_table, by
    time of flight, ties in table order.

    Paths beyond the transmission limit or below the detectability floor
    are dropped; an empty PDP is a legitimate deep-indoor outcome. To
    evaluate one pair at several frequencies, build its one-anchor
    path_table once and call its losses with all of them. An
    ``anchor_index`` that is not a scene anchor index, negative ones
    included, or an ``rx`` block of more than one receiver raises
    ValueError.
    """
    anchor_ids = _anchor_indices(scene, (anchor_index,), "anchor_index")
    receivers = _receiver_block(rx)
    if len(receivers) != 1:
        raise ValueError(f"a PDP has one receiver, rx has {len(receivers)}")
    table = _path_table(scene, anchor_ids, receivers, geometry)
    power, snr, detected = table.losses(f_hz)
    rows = np.flatnonzero(detected[0])
    rows = rows[np.argsort(table.tof_s[rows], kind="stable")]
    n1, n2 = table.n_crossings[rows].T.tolist()
    return Pdp([
        Mpc(_interactions(kind, a, b), length, tof, p, s, anchor_ids[0], _GROUP_OF_CODE[group],
            None if edge < 0 else edge)
        for kind, a, b, length, tof, p, s, group, edge in zip(
            table.kind[rows].tolist(), n1, n2, table.length_m[rows].tolist(),
            table.tof_s[rows].tolist(), power[0, rows].tolist(), snr[0, rows].tolist(),
            table.group[rows].tolist(), table.edge_id[rows].tolist())
    ], Point3(*receivers[0].tolist()), anchor_ids[0])


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

_DATASET_SCHEMA = "mpc-dataset/1"


class DatasetError(ValueError):
    """Malformed dataset content; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class _DatasetHeader:
    """Line 1 of an mpc-dataset/1 file, which holds its schema alone."""


@dataclass(frozen=True)
class MpcRecord:
    """Every later line of an mpc-dataset/1 file: one MPC."""

    anchor_id: Count
    rx_id: Count
    rx_xyz: tuple[Finite, Finite, Finite]
    interactions: str
    path_length_m: Finite
    rx_power_dbm: Finite
    tof_s: Finite | None = None
    edge_id: Count | None = None

    __post_init__ = _check_ranges


@dataclass
class IngestResult:
    """The kept records of a dataset in file order, the group of each, and
    the (line number, reason) of each rejected record."""

    records: list[MpcRecord]
    groups: list[MpcGroup]
    rejected: list[tuple[int, str]]


def _read_line(line_no: int, line: bytes, read):
    """``read`` of the JSON value on dataset line ``line_no``; a line that
    is not UTF-8, bad JSON, a repeated key or a ValueError of ``read``
    raises DatasetError with the line number."""
    try:
        return read(json.loads(line.decode("utf-8"), object_pairs_hook=_unique_keys))
    except json.JSONDecodeError as exc:
        raise DatasetError(line_no, f"invalid JSON: {exc}") from None
    except ValueError as exc:
        raise DatasetError(line_no, str(exc)) from None


def ingest_dataset(path) -> IngestResult:
    """Read a line-delimited MPC dataset into its records.

    The ``records`` codec reads the header as a ``_DatasetHeader`` and each
    later line as an ``MpcRecord``; any problem it finds (a line that is not
    UTF-8, bad JSON, a repeated key, wrong schema, a line that is not an
    object, an unknown or missing key, a value of the wrong JSON type, a
    non-finite number, a negative id) raises DatasetError with the line
    number and the field's name. Physically inconsistent records (negative
    lengths, unknown symbols, an edge_id on a path without a diffraction,
    stored ToF disagreeing with the length beyond 1e-6 relative, an rx_xyz
    other than that of the first kept record of its (anchor_id, rx_id)) are
    rejected individually with diagnostics.
    """
    records: list[MpcRecord] = []
    groups: list[MpcGroup] = []
    rejected: list[tuple[int, str]] = []
    first_rx: dict[tuple[int, int], tuple[float, float, float]] = {}

    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line:
            raise DatasetError(1, "empty file")
        _read_line(1, header_line,
                   lambda doc: _from_dict(_DatasetHeader, doc, _DATASET_SCHEMA, "header"))

        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rec = _read_line(line_no, line, lambda doc: _decode(MpcRecord, doc, "record", ""))
            try:
                interactions = parse_interaction_string(rec.interactions)
                group = classify_mpc(interactions)
            except ValueError as exc:
                rejected.append((line_no, str(exc)))
                continue
            # Diffraction paths after a transmission (MPC4) keep their edge.
            if rec.edge_id is not None and "D" not in interactions:
                rejected.append((line_no, f"edge_id {rec.edge_id} on {rec.interactions}, "
                                          "which diffracts nowhere"))
                continue
            # The codec leaves a JSON integer an int; the messages print floats.
            length = float(rec.path_length_m)
            if length < 0:
                rejected.append((line_no, f"negative path length {length}"))
                continue
            tof = length / SPEED_OF_LIGHT
            if rec.tof_s is not None and tof > 0 and abs(rec.tof_s - tof) > 1e-6 * tof:
                rejected.append((line_no, f"tof {float(rec.tof_s)} inconsistent with length "
                                          f"{length}"))
                continue
            first = first_rx.setdefault((rec.anchor_id, rec.rx_id), rec.rx_xyz)
            if rec.rx_xyz != first:
                rejected.append((line_no, f"rx_xyz {[float(v) for v in rec.rx_xyz]} of anchor "
                                          f"{rec.anchor_id}, rx {rec.rx_id} differs from its "
                                          f"first {[float(v) for v in first]}"))
                continue
            records.append(rec)
            groups.append(group)
    return IngestResult(records, groups, rejected)
