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
losses of any number of frequencies to all rows at once, and PathTable.pdp
builds the PDP of a one-receiver, one-anchor table.

MPC records can also be ingested from a line-delimited JSON dataset (schema
"mpc-dataset/1"), e.g. exports from an external ray tracer.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

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
    Band,
    DiffractionLossModel,
    SlabSpec,
    diffraction_loss_db,
    free_space_path_loss_db,
    reflection_loss_db,
    transmission_loss_db,
)

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
        interactions = parse_interaction_string(interactions)
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
    rx_id: int = 0

    def __post_init__(self) -> None:
        tofs = [m.tof_s for m in self.mpcs]
        if any(b < a for a, b in zip(tofs, tofs[1:])):
            raise ValueError("PDP must be sorted by time of flight")

    def __len__(self) -> int:
        return len(self.mpcs)


def noise_floor_dbm(bandwidth_hz: float, noise_temperature_k: float = 290.0) -> float:
    """Thermal noise floor 10*log10(k*T*B / 1 mW) in dBm."""
    if not bandwidth_hz > 0:
        raise ValueError("bandwidth must be positive")
    if not noise_temperature_k > 0:
        raise ValueError(f"noise temperature must be positive, got {noise_temperature_k:g} K")
    return linear_to_db(BOLTZMANN * noise_temperature_k * bandwidth_hz / 1e-3)


def _top_k_rows(tof: np.ndarray, snr: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest-SNR rows of a PDP, in PDP order.

    The rows come sorted by time of flight. SNR ties go to the earlier row;
    the kept rows are re-sorted by time of flight, with ties in descending
    SNR and then in PDP order.
    """
    if len(snr) <= k:
        return np.arange(len(snr))
    top = np.argsort(-snr, kind="stable")[:k]
    return top[np.argsort(tof[top], kind="stable")]


def truncate_top_k(pdp: Pdp, k: int = 25) -> Pdp:
    """Keep the k highest-SNR MPCs, re-sorted by time of flight."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(pdp.mpcs) <= k:
        return pdp
    rows = _top_k_rows(np.array([m.tof_s for m in pdp.mpcs]),
                       np.array([m.snr_db for m in pdp.mpcs]), k)
    return Pdp([pdp.mpcs[i] for i in rows.tolist()], pdp.rx, pdp.anchor_id, pdp.rx_id)


# ---------------------------------------------------------------------------
# Scene configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandPlan:
    """Frequency range of one band with its transmit-side parameters."""

    label: str
    f_lo_hz: float
    f_hi_hz: float
    tx_power_dbm: float
    rx_processing_gain_db: float = 0.0


@dataclass(frozen=True)
class RadioConfig:
    bands: tuple[BandPlan, ...]
    bandwidth_hz: float = 400e6
    noise_temperature_k: float = 290.0
    polarization: str = "TE"
    diffraction_loss: DiffractionLossModel = field(default_factory=DiffractionLossModel)

    def __post_init__(self) -> None:
        noise_floor_dbm(self.bandwidth_hz, self.noise_temperature_k)  # both must be positive
        if self.polarization not in ("TE", "TM"):
            raise ValueError(f"polarization must be 'TE' or 'TM', got {self.polarization!r}")

    def band_for(self, f_hz: float) -> Band:
        for plan in self.bands:
            if plan.f_lo_hz <= f_hz <= plan.f_hi_hz:
                return Band(
                    label=plan.label,
                    center_frequency_hz=f_hz,
                    bandwidth_hz=self.bandwidth_hz,
                    tx_power_dbm=plan.tx_power_dbm,
                    rx_processing_gain_db=plan.rx_processing_gain_db,
                )
        raise ValueError(f"frequency {f_hz:g} Hz is outside every configured band")


@dataclass(frozen=True)
class PathLimits:
    max_transmissions: int = 6
    max_reflections: int = 6
    max_diffractions: int = 1
    min_snr_db: float = -10.0  # detectability floor; weaker MPCs are dropped

    def __post_init__(self) -> None:
        if min(self.max_transmissions, self.max_reflections, self.max_diffractions) < 0:
            raise ValueError("path limits must be non-negative")


# World -> edge-local rotation of the windows of a facade with normal axis
# 'y' or 'x'; the facade at c translates by (0, -c, 0) or (0, c, 0).
_FACADE_ROTATIONS = {"y": np.eye(3),
                     "x": np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])}


@dataclass(frozen=True)
class WindowRect:
    """Rectangular opening in a facade; its horizontal rims diffract.

    ``axis`` is the facade's normal axis ('x' or 'y'), ``coord`` the facade
    plane coordinate; ``u`` runs along the facade horizontally.
    """

    axis: str
    coord: float
    u_lo: float
    u_hi: float
    z_lo: float
    z_hi: float

    def __post_init__(self) -> None:
        if self.axis not in ("x", "y"):
            raise ValueError("window axis must be 'x' or 'y'")
        if not (self.u_hi > self.u_lo and self.z_hi > self.z_lo):
            raise ValueError("window rectangle is empty")

    @property
    def height(self) -> float:
        return self.z_hi - self.z_lo


@dataclass(frozen=True)
class InteriorWall:
    """Axis-aligned interior partition covering a u x z rectangle."""

    axis: str  # normal axis: 'x' or 'y'
    coord: float
    u_lo: float
    u_hi: float
    z_lo: float
    z_hi: float


@dataclass
class SceneConfig:
    """Building, anchors, receiver grid, radio, and enumeration limits."""

    footprint_x: float
    footprint_y: float
    floor_count: int
    floor_height: float
    exterior_slab: SlabSpec
    interior_slab: SlabSpec
    windows: tuple[WindowRect, ...]
    interior_walls: tuple[InteriorWall, ...]
    anchors: tuple[tuple[float, float, float], ...]
    receiver_floors: tuple[int, ...]
    receiver_spacing: float
    receiver_margin: float = 1.0
    receiver_height: float = 1.5
    radio: RadioConfig = field(default_factory=lambda: RadioConfig(bands=_DEFAULT_BANDS))
    limits: PathLimits = field(default_factory=PathLimits)
    include_ground: bool = True

    def __post_init__(self) -> None:
        if not self.receiver_spacing > 0:
            raise ValueError("receiver spacing must be positive")
        if self.floor_count < 1 or self.floor_height <= 0:
            raise ValueError("invalid floor layout")
        # Receivers stand inside the footprint and above the slab of their floor.
        if not self.receiver_margin > 0:
            raise ValueError(f"receiver_margin must be positive, got {self.receiver_margin:g} m")
        if not 0 < self.receiver_height < self.floor_height:
            raise ValueError(f"receiver_height must lie in (0, {self.floor_height:g}) m, "
                             f"got {self.receiver_height:g} m")
        for i, floor in enumerate(self.receiver_floors):
            if not 1 <= floor <= self.floor_count:
                raise ValueError(f"receiver floor {floor} outside 1..{self.floor_count}")
            if floor in self.receiver_floors[:i]:
                raise ValueError(f"receiver floor {floor} is listed twice")
        if not (self.receiver_floors
                and _grid_axis(self.footprint_x, self.receiver_margin, self.receiver_spacing).size
                and _grid_axis(self.footprint_y, self.receiver_margin, self.receiver_spacing).size):
            raise ValueError(
                f"receiver margin {self.receiver_margin:g} m and spacing "
                f"{self.receiver_spacing:g} m leave an empty receiver grid")
        for i, anchor in enumerate(self.anchors):
            if len(anchor) != 3 or not all(math.isfinite(v) for v in anchor):
                raise ValueError(f"anchor {i} {tuple(anchor)!r} is not three finite coordinates")
        # Window cutouts and edges belong to the facade planes.
        facade_coords = {"x": (0.0, self.footprint_x), "y": (0.0, self.footprint_y)}
        facade_width = {"x": self.footprint_y, "y": self.footprint_x}
        top = self.floor_count * self.floor_height
        for i, w in enumerate(self.windows):
            if w.coord not in facade_coords[w.axis]:
                raise ValueError(f"window {i} at {w.axis} = {w.coord:g} is on no facade")
            if w.u_lo < 0.0 or w.u_hi > facade_width[w.axis] or w.z_lo < 0.0 or w.z_hi > top:
                raise ValueError(f"window {i} extends past its facade")

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
    """What the reflections and diffractions of a set of anchors need of
    the anchors alone, whatever the receivers."""

    tx: np.ndarray  # (A, 3)
    plane_distance: np.ndarray  # (A, K) signed distance to every reflector plane
    image: np.ndarray  # (A, K, 3) image in every reflector plane
    edge_local: np.ndarray  # (A, E, 3) position in every edge frame
    on_edge_line: np.ndarray  # (A, E) lies on the edge line


# Edge rows per chunk of SceneGeometry.diffractions. Chunks bound the edge
# kernel's temporaries: solving a four-receiver sweep block unchunked raised
# the sweep's traced peak from 0.68 to 1.2 MB, and 768 was the largest chunk
# measured to keep it at 0.68 MB. A point query's rows (about 170) fit in
# one chunk.
_EDGE_ROWS = 768

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
    its plane, extent and window cutouts, and the edges (``edge_table``).
    ``crossings`` tests every segment against every surface at once: a
    parametric plane hit strictly inside the segment, then the surface
    extent, then, per facade, the cutouts. ``reflections`` reflects off every
    reflector at once and ``diffractions`` solves the stationary point on
    every edge at once. Per-frequency slab losses are cached via
    prepare_frequency.
    """

    def __init__(self, surfaces: list[Surface], edges: EdgeTable,
                 ground_slab: SlabSpec | None):
        self.surfaces = surfaces
        self.edge_table = edges
        self._walls = _pack_surfaces(surfaces)
        self._cut_surfaces = np.flatnonzero(self._walls.has_cutouts)
        # Reflectors; the ground is the unbounded plane z = 0.
        mirrors = [s for s in surfaces if s.reflective]
        if ground_slab is not None:
            mirrors.append(Surface("ground", "z", 0.0, -math.inf, math.inf,
                                   -math.inf, math.inf, ground_slab))
        self.reflector_slabs = tuple(s.slab for s in mirrors)
        self._mirrors = _pack_surfaces(mirrors)
        self._mirror_normal = np.eye(3)[self._mirrors.axis].reshape(-1, 3)
        self._loss_cache: dict[float, np.ndarray] = {}
        self._anchor_cache: dict[bytes, _AnchorTerms] = {}

    def prepare_frequency(self, f_hz: float) -> np.ndarray:
        losses = self._loss_cache.get(f_hz)
        if losses is None:
            losses = np.array([
                transmission_loss_db(s.slab, f_hz) for s in self.surfaces])
            self._loss_cache[f_hz] = losses
        return losses

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
            terms = self._anchor_cache[key] = _AnchorTerms(
                tx, dt, _mirror_images(dt, tx, normals), t, _on_edge_line(t, self.edge_table.z_e))
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
        where diffraction is undefined, are left out.
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
        # The ends stacked (3, 2, D) in C order, for the kernel's fast loops.
        ends = np.empty((3, 2, len(ids)))
        ends[:, 0], ends[:, 1] = t[anchor, ids].T, r[receiver, ids].T
        x, y, z = ends
        sol = _solve_edge_lambdas(x, y ** 2, z, x2, x1 - x2, z_e)
        return sol.lam, sol.endpoint, sol.length, self.edge_table.points(ids, sol.lam)


def build_scene_geometry(scene: SceneConfig) -> SceneGeometry:
    """Expand a scene config into crossing surfaces and diffraction edges."""
    lx, ly = scene.footprint_x, scene.footprint_y
    top = scene.floor_count * scene.floor_height
    surfaces: list[Surface] = []

    def window_cutouts(axis: str, coord: float):
        return tuple(
            (w.u_lo, w.u_hi, w.z_lo, w.z_hi)
            for w in scene.windows if w.axis == axis and w.coord == coord
        )

    # Exterior shell.
    for coord in (0.0, ly):
        surfaces.append(Surface(
            name=f"facade_y{coord:g}", axis="y", coord=coord,
            u_lo=0.0, u_hi=lx, v_lo=0.0, v_hi=top,
            slab=scene.exterior_slab, cutouts=window_cutouts("y", coord),
            reflective=True))
    for coord in (0.0, lx):
        surfaces.append(Surface(
            name=f"facade_x{coord:g}", axis="x", coord=coord,
            u_lo=0.0, u_hi=ly, v_lo=0.0, v_hi=top,
            slab=scene.exterior_slab, cutouts=window_cutouts("x", coord),
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


def receiver_grid(scene: SceneConfig) -> list[Point3]:
    """Deterministic receiver lattice on the configured floors."""
    xs = _grid_axis(scene.footprint_x, scene.receiver_margin, scene.receiver_spacing)
    ys = _grid_axis(scene.footprint_y, scene.receiver_margin, scene.receiver_spacing)
    out = []
    for floor in scene.receiver_floors:
        z = scene.floor_base(floor) + scene.receiver_height
        for y in ys:
            for x in xs:
                out.append(Point3(float(x), float(y), float(z)))
    return out


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
    total = np.zeros((len(slab_db), len(crossed)))
    for row, losses in zip(total, slab_db[:, flat - leg * n_surfaces]):
        np.add.at(row, leg, losses)
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

        A row's received power is the band gain minus the free-space loss of
        its length, minus its reflection loss or excess diffraction loss,
        minus the slab losses of the surfaces each leg crosses. The losses
        accumulate as along the path: each leg's slab losses are summed in
        surface order, the first leg's then the second's, which fixes the
        floating-point rounding. Reflection losses take one call per
        (reflector, frequency). Paths that reflect nothing (infinite
        reflection loss) and paths below the detectability floor are not
        detected.
        """
        radio = self.scene.radio
        freqs = [float(f_hz) for f_hz in np.ravel(freqs_hz)]
        bands = [radio.band_for(f_hz) for f_hz in freqs]
        gain = np.array([[b.tx_power_dbm + b.rx_processing_gain_db] for b in bands])
        floor = np.array([[noise_floor_dbm(b.bandwidth_hz, radio.noise_temperature_k)]
                          for b in bands])

        base = np.zeros((len(freqs), len(self.length_m)))
        base[:, self.kind == _DIFFRACTION] = [
            [diffraction_loss_db(radio.diffraction_loss, f_hz)] for f_hz in freqs]
        # The reflection rows reflector by reflector, each in table order.
        rows = np.flatnonzero(self.kind == _REFLECTION)
        rows = rows[self.reflector[rows].argsort(kind="stable")]
        reflection_db = [[] for _ in freqs]
        for k, run in itertools.groupby(zip(self.reflector[rows].tolist(),
                                            self.incidence_rad[rows].tolist()), itemgetter(0)):
            angles = [angle for _, angle in run]
            for f_hz, row in zip(freqs, reflection_db):
                row += reflection_loss_db(self.geometry.reflector_slabs[k], f_hz, angles,
                                          radio.polarization)
        base[:, rows] = reflection_db
        slab_db = np.array([self.geometry.prepare_frequency(f_hz) for f_hz in freqs])
        legs_db = _leg_slab_db(self.crossings.reshape(-1, slab_db.shape[1]),
                               slab_db).reshape(len(freqs), -1, 2)
        extra = base + legs_db[..., 0] + legs_db[..., 1]
        power = gain - free_space_path_loss_db(self.length_m, np.array(freqs)[:, None]) - extra
        snr = power - floor
        detected = ~np.isinf(base) & (snr >= self.scene.limits.min_snr_db)
        return PathLosses(power, snr, detected)

    def detected_rows(self, detected: np.ndarray) -> np.ndarray:
        """The rows of one frequency's ``detected`` mask in PDP order: by
        time of flight, ties in table order."""
        rows = np.flatnonzero(detected)
        return rows[np.argsort(self.tof_s[rows], kind="stable")]

    def build_mpcs(self, rows: np.ndarray, power_dbm: np.ndarray, snr_db: np.ndarray) -> list[Mpc]:
        """Mpc objects of the given rows, with their received power and SNR."""
        n1, n2 = self.n_crossings[rows].T.tolist()
        return [
            Mpc(_interactions(kind, a, b), length, tof, power, snr, anchor,
                _GROUP_OF_CODE[group], None if edge < 0 else edge)
            for kind, a, b, length, tof, power, snr, anchor, group, edge in zip(
                self.kind[rows].tolist(), n1, n2, self.length_m[rows].tolist(),
                self.tof_s[rows].tolist(), power_dbm.tolist(), snr_db.tolist(),
                self.anchor[rows].tolist(), self.group[rows].tolist(),
                self.edge_id[rows].tolist())
        ]

    def pdp(self, f_hz: float) -> Pdp:
        """The PDP of a one-receiver, one-anchor table at one frequency,
        sorted by time of flight; Mpc objects are built for the detected
        rows only."""
        if len(self.anchor_ids) != 1:
            raise ValueError(f"a PDP has one anchor, the table has {len(self.anchor_ids)}")
        if len(self.receivers) != 1:
            raise ValueError(f"a PDP has one receiver, the table has {len(self.receivers)}")
        power, snr, detected = self.losses(f_hz)
        rows = self.detected_rows(detected[0])
        return Pdp(self.build_mpcs(rows, power[0, rows], snr[0, rows]),
                   Point3(*self.receivers[0].tolist()), self.anchor_ids[0])


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

    The reflections and edge solves of all pairs are one call each; the
    crossing test is one call per (receiver, anchor) pair, which was
    measured faster than batching it. Every row is computed as in a
    one-receiver, one-anchor table, bit for bit. Bad ``anchor_ids`` and a
    malformed ``rx`` raise ValueError.
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
    n_pairs = len(receivers) * n_anchors

    pair, kind, length, pts, edge_id, reflector, incidence = _candidates(
        geom, anchors, receivers, limits)

    crossed = np.empty((len(pair), 2, len(geom.surfaces)), dtype=bool)
    start = 0
    ends = np.bincount(pair, minlength=n_pairs).cumsum().tolist()
    for (r, tx), end in zip(((r, tx) for r in receivers for tx in anchors), ends):
        p = pts[start:end]
        n = end - start
        crossed[start:end] = geom.crossings(
            np.concatenate([tx[None].repeat(n, axis=0), p]),
            np.concatenate([p, r[None].repeat(n, axis=0)])).reshape(2, n, -1).transpose(1, 0, 2)
        start = end
    n_crossings = crossed.sum(axis=2)
    keep = np.flatnonzero((length > 0.0) & (n_crossings.sum(axis=1) <= limits.max_transmissions))
    kind, n_crossings, pair, length = kind[keep], n_crossings[keep], pair[keep], length[keep]
    group = np.where((kind != _DIRECT) & (n_crossings[:, 0] > 0), MpcGroup.MPC4.value,
                     _KIND_GROUP[kind])
    return PathTable(
        scene=scene,
        geometry=geom,
        anchor_ids=anchor_ids,
        receivers=receivers,
        receiver=pair // n_anchors,
        anchor=np.array(anchor_ids)[pair % n_anchors],
        length_m=length,
        tof_s=length / SPEED_OF_LIGHT,
        crossings=crossed[keep],
        kind=kind,
        n_crossings=n_crossings,
        group=group,
        edge_id=edge_id[keep],
        reflector=reflector[keep],
        incidence_rad=incidence[keep],
    )


def _candidates(geom: SceneGeometry, anchors: np.ndarray, receivers: np.ndarray,
                limits: PathLimits) -> tuple[np.ndarray, ...]:
    """Pair index, kind, length, interaction point, edge, reflector and
    incidence of every candidate row, pair by pair in emission order: the
    rows come kind by kind, each pair by pair, and a stable sort by pair
    orders them. A direct segment's interaction point is the receiver.
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
        pair[order],
        _KINDS.repeat([n_pairs, n_refl, n_diff])[order],
        np.concatenate([[euclidean_distance(tx, r) for r in receivers for tx in anchors],
                        refl.length, diff.length])[order],
        np.concatenate([receivers.repeat(n_anchors, axis=0), refl.point, diff.point])[order],
        np.concatenate([np.full(n_pairs + n_refl, -1), diff.ids])[order],
        np.concatenate([np.full(n_pairs, -1), refl.ids, np.full(n_diff, -1)])[order],
        np.concatenate([np.full(n_pairs, math.nan), refl.incidence,
                        np.full(n_diff, math.nan)])[order],
    )


def enumerate_mpcs(
    scene: SceneConfig,
    anchor_index: int,
    rx,
    f_hz: float,
    geometry: SceneGeometry | None = None,
) -> Pdp:
    """Synthesize the PDP of one (anchor, receiver) pair at one frequency.

    Paths beyond the transmission limit or below the detectability floor
    are dropped; an empty PDP is a legitimate deep-indoor outcome. To
    evaluate one pair at several frequencies, build its one-anchor
    path_table once and call its pdp per frequency. An ``anchor_index``
    that is not a scene anchor index, negative ones included, raises
    ValueError.
    """
    return _path_table(scene, _anchor_indices(scene, (anchor_index,), "anchor_index"),
                       _receiver_block(rx), geometry).pdp(f_hz)


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

_DATASET_SCHEMA = "mpc-dataset/1"


class DatasetError(ValueError):
    """Malformed dataset content; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class IngestResult:
    """Parsed PDPs keyed by (anchor_id, rx_id), plus per-record rejects."""

    pdps: dict[tuple[int, int], Pdp]
    rejected: list[tuple[int, str]]

    @property
    def mpc_count(self) -> int:
        return sum(len(p) for p in self.pdps.values())


def _integer_field(rec: dict, key: str) -> int:
    """An id field that must be a non-negative JSON integer; a boolean, a
    non-integral or a negative number raises ValueError."""
    value = rec[key]
    if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{key} must be non-negative, got {value!r}")
    return int(value)


def _number(value, name: str) -> float:
    """A JSON number as a float; a boolean, a string or any other JSON type
    raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def ingest_dataset(path, band: Band, noise_temperature_k: float = 290.0) -> IngestResult:
    """Read a line-delimited MPC dataset and rebuild per-pair PDPs.

    Structural problems (bad JSON, wrong schema, missing or malformed
    fields, an id that is not a non-negative integer, an rx_xyz that is not
    a list of three finite JSON numbers, a length, power or ToF that is not
    a JSON number) raise DatasetError with the line number. Physically
    inconsistent records (negative or non-finite lengths, non-finite powers,
    unknown symbols, an edge_id on a path without a diffraction, stored ToF
    disagreeing with the length beyond 1e-6 relative, an rx_xyz other than
    that of the first kept record of its (anchor_id, rx_id)) are rejected
    individually with diagnostics.
    A non-positive bandwidth or noise temperature raises ValueError.
    """
    floor = noise_floor_dbm(band.bandwidth_hz, noise_temperature_k)
    buckets: dict[tuple[int, int], list[Mpc]] = {}
    rx_positions: dict[tuple[int, int], Point3] = {}
    rejected: list[tuple[int, str]] = []

    with open(path, "r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise DatasetError(1, "empty file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise DatasetError(1, f"invalid JSON header: {exc}") from None
        if not isinstance(header, dict):
            raise DatasetError(1, f"header: expected an object, got {type(header).__name__}")
        if header.get("schema") != _DATASET_SCHEMA:
            raise DatasetError(1, f"unsupported schema {header.get('schema')!r}")

        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(line_no, f"invalid JSON: {exc}") from None
            try:
                anchor_id = _integer_field(rec, "anchor_id")
                rx_id = _integer_field(rec, "rx_id")
                xyz = rec["rx_xyz"]
                if not (isinstance(xyz, list) and len(xyz) == 3):
                    raise ValueError(f"rx_xyz must be a list of three numbers, got {xyz!r}")
                rx_xyz = [_number(v, "rx_xyz") for v in xyz]
                interactions_s = rec["interactions"]
                if not isinstance(interactions_s, str):
                    raise TypeError(f"interactions must be a string, got {interactions_s!r}")
                length = _number(rec["path_length_m"], "path_length_m")
                power = _number(rec["rx_power_dbm"], "rx_power_dbm")
                stored = _number(rec["tof_s"], "tof_s") if "tof_s" in rec else None
                edge_id = _integer_field(rec, "edge_id") if "edge_id" in rec else None
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(line_no, f"missing or malformed field: {exc}") from None

            if not all(math.isfinite(v) for v in rx_xyz):
                raise DatasetError(line_no, f"non-finite rx_xyz {rx_xyz}")
            try:
                interactions = parse_interaction_string(interactions_s)
                group = classify_mpc(interactions)
            except ValueError as exc:
                rejected.append((line_no, str(exc)))
                continue
            # Diffraction paths after a transmission (MPC4) keep their edge.
            if edge_id is not None and "D" not in interactions:
                rejected.append((line_no, f"edge_id {edge_id} on {interactions_s}, "
                                          "which diffracts nowhere"))
                continue
            if not (math.isfinite(length) and math.isfinite(power)):
                rejected.append((line_no, f"non-finite path length {length} or power {power}"))
                continue
            if length < 0:
                rejected.append((line_no, f"negative path length {length}"))
                continue
            tof = length / SPEED_OF_LIGHT
            # "not <=" also rejects a NaN stored ToF.
            if stored is not None and tof > 0 and not abs(stored - tof) <= 1e-6 * tof:
                rejected.append((line_no, f"tof {stored} inconsistent with length {length}"))
                continue

            mpc = Mpc(
                interactions=interactions,
                path_length_m=length,
                tof_s=tof,
                rx_power_dbm=power,
                snr_db=power - floor,
                anchor_id=anchor_id,
                group=group,
                edge_id=edge_id,
            )
            key = (anchor_id, rx_id)
            position = Point3(*rx_xyz)
            first = rx_positions.setdefault(key, position)
            if position != first:
                rejected.append((line_no, f"rx_xyz {rx_xyz} of anchor {anchor_id}, rx {rx_id} "
                                          f"differs from its first {[first.x, first.y, first.z]}"))
                continue
            buckets.setdefault(key, []).append(mpc)

    pdps = {}
    for key, mpcs in buckets.items():
        mpcs.sort(key=lambda m: m.tof_s)
        pdps[key] = Pdp(mpcs, rx_positions[key], anchor_id=key[0], rx_id=key[1])
    return IngestResult(pdps=pdps, rejected=rejected)
