"""Outdoor-to-indoor multipath synthesis and dataset ingestion.

The scene is an axis-aligned floor-plan model: a rectangular concrete shell
with window cutouts, concrete floor slabs, and interior drywall partitions.
For each (anchor, receiver) pair the enumerator generates the direct segment
with slab transmissions, single specular reflections off reflective surfaces
plus trailing transmissions, and single diffraction at every window edge.
Interaction events are ordered along the path, so classification into the
four propagation groups falls out of the event sequence. Path geometry does
not depend on frequency: path_table computes it once per pair into a
columnar PathTable, and PathTable.pdp applies one frequency's losses.

MPC records can also be ingested from a line-delimited JSON dataset (schema
"mpc-dataset/1"), e.g. exports from an external ray tracer.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .constants import BOLTZMANN, SPEED_OF_LIGHT, linear_to_db
from .geometry import (
    GeometryError,
    Point3,
    ReflectorPlane,
    RigidTransform,
    WindowEdge,
    _edge_points_world,
    _on_edge_line,
    _solve_edge_lambdas,
    euclidean_distance,
    reflection_path_length,
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
    "format_interaction_string",
    "snr_db",
    "noise_floor_dbm",
    "truncate_top_k",
    "build_scene_geometry",
    "receiver_grid",
    "path_table",
    "enumerate_mpcs",
    "export_dataset",
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


def format_interaction_string(interactions) -> str:
    return "-".join(["Tx", *interactions, "Rx"])


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

    def interaction_string(self) -> str:
        return format_interaction_string(self.interactions)


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
    return linear_to_db(BOLTZMANN * noise_temperature_k * bandwidth_hz / 1e-3)


def snr_db(mpc_or_power, band: Band, noise_temperature_k: float = 290.0) -> float:
    """SNR of an MPC (or raw received power in dBm) against the noise floor."""
    power = mpc_or_power.rx_power_dbm if isinstance(mpc_or_power, Mpc) else float(mpc_or_power)
    return power - noise_floor_dbm(band.bandwidth_hz, noise_temperature_k)


def truncate_top_k(pdp: Pdp, k: int = 25) -> Pdp:
    """Keep the k highest-SNR MPCs, re-sorted by time of flight."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(pdp.mpcs) <= k:
        return pdp
    keep = sorted(pdp.mpcs, key=lambda m: m.snr_db, reverse=True)[:k]
    keep.sort(key=lambda m: m.tof_s)
    return Pdp(keep, pdp.rx, pdp.anchor_id, pdp.rx_id)


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

    def edges(self) -> tuple[WindowEdge, WindowEdge]:
        """Bottom and top horizontal diffracting edges in world frames."""
        if self.axis == "y":
            frame = RigidTransform(np.eye(3), np.array([0.0, -self.coord, 0.0]))
        else:
            rot = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
            frame = RigidTransform(rot, np.array([0.0, self.coord, 0.0]))
        bottom = WindowEdge(self.u_lo, self.u_hi, self.z_lo, self.height, frame)
        top = WindowEdge(self.u_lo, self.u_hi, self.z_hi, self.height, frame)
        return bottom, top


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
        for floor in self.receiver_floors:
            if not 1 <= floor <= self.floor_count:
                raise ValueError(f"receiver floor {floor} outside 1..{self.floor_count}")
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

    def as_plane(self) -> ReflectorPlane:
        """The unbounded plane; callers enforce the extent with contains_uv."""
        normal = np.zeros(3)
        normal[_AXIS_INDEX[self.axis]] = 1.0
        return ReflectorPlane(normal=normal, offset=self.coord)

    def contains_uv(self, u: float, v: float) -> bool:
        if not (self.u_lo <= u <= self.u_hi and self.v_lo <= v <= self.v_hi):
            return False
        for (cu_lo, cu_hi, cv_lo, cv_hi) in self.cutouts:
            if cu_lo <= u <= cu_hi and cv_lo <= v <= cv_hi:
                return False
        return True


class EdgeDiffractions(NamedTuple):
    """Single diffraction at D edges of a scene, one entry per edge."""

    ids: np.ndarray  # (D,) edge indices into SceneGeometry.edges
    lam: np.ndarray  # (D,) edge parameter, as DiffractionSolution.lam
    endpoint: np.ndarray  # (D,) clamped to an edge endpoint
    length: np.ndarray  # (D,) two-leg path length
    point: np.ndarray  # (D, 3) world diffraction point


class SceneGeometry:
    """Expanded scene: crossing surfaces, reflectors, and diffraction edges.

    Everything the batched kernels need is packed into arrays once, here:
    the surface planes and extents, one array of cutout boxes per surface
    that has window cutouts, and the edge frames. ``crossings`` tests every
    segment against every surface at once: a parametric plane hit strictly
    inside the segment, then the surface extent, then, per facade, the
    cutouts. ``diffractions`` solves the stationary point on every edge at
    once. Per-frequency slab losses are cached via prepare_frequency.
    """

    def __init__(self, surfaces: list[Surface], edges: list[WindowEdge],
                 ground: ReflectorPlane | None):
        self.surfaces = surfaces
        self.edges = edges
        self.ground = ground
        self._axis = np.array([_AXIS_INDEX[s.axis] for s in surfaces], dtype=int)
        self._ui = np.array([_PLANE_AXES[s.axis][0] for s in surfaces], dtype=int)
        self._vi = np.array([_PLANE_AXES[s.axis][1] for s in surfaces], dtype=int)
        self._coord = np.array([s.coord for s in surfaces])
        self._u_lo = np.array([s.u_lo for s in surfaces])
        self._u_hi = np.array([s.u_hi for s in surfaces])
        self._v_lo = np.array([s.v_lo for s in surfaces])
        self._v_hi = np.array([s.v_hi for s in surfaces])
        # Surface index -> (K, 4) cutout boxes (u_lo, u_hi, v_lo, v_hi).
        self._cutouts = {i: np.array(s.cutouts) for i, s in enumerate(surfaces) if s.cutouts}
        self._edge_rotation = np.array([e.frame.rotation for e in edges]).reshape(-1, 3, 3)
        self._edge_translation = np.array([e.frame.translation for e in edges]).reshape(-1, 3)
        self._edge_x1 = np.array([e.x1 for e in edges], dtype=float)
        self._edge_x2 = np.array([e.x2 for e in edges], dtype=float)
        self._edge_z = np.array([e.z_e for e in edges], dtype=float)
        self._loss_cache: dict[float, np.ndarray] = {}

    def prepare_frequency(self, f_hz: float) -> np.ndarray:
        losses = self._loss_cache.get(f_hz)
        if losses is None:
            losses = np.array([
                transmission_loss_db(s.slab, f_hz) for s in self.surfaces])
            self._loss_cache[f_hz] = losses
        return losses

    def crossings(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """(L, S) mask of the surfaces each open segment (p0[l], p1[l]) crosses."""
        d = p1 - p0
        denom = d[:, self._axis]
        crossing = np.abs(denom) > 1e-15
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (self._coord - p0[:, self._axis]) / denom
        t = np.where(crossing, t, -1.0)  # parallel segments never cross
        hit = crossing & (t > _SEGMENT_EPS) & (t < 1.0 - _SEGMENT_EPS)
        u = p0[:, self._ui] + t * d[:, self._ui]
        v = p0[:, self._vi] + t * d[:, self._vi]
        hit &= (u >= self._u_lo) & (u <= self._u_hi) & (v >= self._v_lo) & (v <= self._v_hi)
        # Window cutouts punch holes into the few surfaces that carry them.
        for i, box in self._cutouts.items():
            legs = np.flatnonzero(hit[:, i])
            hu = u[legs, i][:, None]
            hv = v[legs, i][:, None]
            in_cutout = ((box[:, 0] <= hu) & (hu <= box[:, 1])
                         & (box[:, 2] <= hv) & (hv <= box[:, 3])).any(axis=1)
            hit[legs[in_cutout], i] = False
        return hit

    def diffractions(self, tx: np.ndarray, rx: np.ndarray) -> EdgeDiffractions:
        """Diffraction at every edge where diffraction_point is defined, with
        the numbers it gives one edge at a time. It raises where both tx and
        rx lie on the edge line; those edges are left out.
        """
        t = self._edge_rotation @ tx + self._edge_translation
        r = self._edge_rotation @ rx + self._edge_translation
        ids = np.flatnonzero(~_on_edge_line(t, r, self._edge_z))
        x1, x2, z_e = self._edge_x1[ids], self._edge_x2[ids], self._edge_z[ids]
        lam, endpoint, length = _solve_edge_lambdas(t[ids], r[ids], x1, x2, z_e)
        point = _edge_points_world(self._edge_rotation[ids], self._edge_translation[ids],
                                   x1, x2, z_e, lam)
        return EdgeDiffractions(ids, lam, endpoint, length, point)


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

    edges: list[WindowEdge] = []
    for window in scene.windows:
        edges.extend(window.edges())

    ground = None
    if scene.include_ground:
        ground = ReflectorPlane(normal=np.array([0.0, 0.0, 1.0]), offset=0.0)
    return SceneGeometry(surfaces=surfaces, edges=edges, ground=ground)


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

@dataclass(frozen=True, eq=False)
class PathTable:
    """Frequency-independent candidate paths of one (anchor, receiver) pair.

    One row per path, in emission order: the direct segment, single
    specular reflections (reflective surfaces in surface order, then the
    ground), then single diffractions in edge order. ``crossings[p, 0]`` and
    ``crossings[p, 1]`` mark the surfaces crossed before and after the
    path's reflection or diffraction point (the direct segment has only the
    first). Geometry-only drops happen when the table is built; ``pdp``
    applies the losses of one frequency.
    """

    scene: SceneConfig
    geometry: SceneGeometry
    anchor_id: int
    rx: Point3
    length_m: np.ndarray  # (P,)
    crossings: np.ndarray  # (P, 2, S) bool
    interactions: tuple[tuple[str, ...], ...]
    groups: tuple[MpcGroup, ...]
    edge_ids: tuple[int | None, ...]
    reflection_slabs: tuple[SlabSpec | None, ...]
    incidence_rad: np.ndarray  # (P,) clamped incidence angle; NaN off reflection rows

    def pdp(self, f_hz: float) -> Pdp:
        """The PDP at one frequency, sorted by time of flight.

        A row's received power is the band gain minus the free-space loss of
        its length, minus its reflection loss or excess diffraction loss,
        minus the slab losses of the surfaces each leg crosses. The losses
        accumulate as along the path: each leg's slab losses are summed in
        surface order, the first leg's then the second's, which fixes the
        floating-point rounding. Paths that reflect nothing (infinite
        reflection loss) and paths below the detectability floor are dropped.
        """
        radio = self.scene.radio
        band = radio.band_for(f_hz)
        floor = noise_floor_dbm(band.bandwidth_hz, radio.noise_temperature_k)
        gain = band.tx_power_dbm + band.rx_processing_gain_db
        lengths = self.length_m.tolist()

        base = np.zeros(len(lengths))
        base[[i for i, e in enumerate(self.edge_ids) if e is not None]] = \
            diffraction_loss_db(radio.diffraction_loss, f_hz)
        for i, slab in enumerate(self.reflection_slabs):
            if slab is not None:
                base[i] = reflection_loss_db(slab, f_hz, float(self.incidence_rad[i]),
                                             radio.polarization)
        slab_db = self.geometry.prepare_frequency(f_hz)
        legs_db = np.cumsum(np.where(self.crossings, slab_db, 0.0), axis=-1)[..., -1]
        extra = base + legs_db[:, 0] + legs_db[:, 1]
        fspl = np.array([free_space_path_loss_db(length, f_hz) for length in lengths])
        power = gain - fspl - extra
        snr = power - floor
        keep = np.flatnonzero(~np.isinf(base) & (snr >= self.scene.limits.min_snr_db))

        power, snr = power.tolist(), snr.tolist()
        mpcs = [
            Mpc(interactions=self.interactions[i],
                path_length_m=lengths[i],
                tof_s=lengths[i] / SPEED_OF_LIGHT,
                rx_power_dbm=power[i],
                snr_db=snr[i],
                anchor_id=self.anchor_id,
                group=self.groups[i],
                edge_id=self.edge_ids[i])
            for i in keep.tolist()
        ]
        mpcs.sort(key=lambda m: m.tof_s)
        return Pdp(mpcs, self.rx, self.anchor_id)


def path_table(
    scene: SceneConfig,
    anchor_index: int,
    rx,
    geometry: SceneGeometry | None = None,
) -> PathTable:
    """Enumerate the candidate paths of one (anchor, receiver) pair.

    Families generated: the direct segment with one transmission per slab
    crossing, single specular reflections off reflective surfaces (and the
    ground) with transmissions ordered along both legs, and single
    diffraction at every window edge with trailing transmissions. Dropped
    here, for every frequency at once: reflections with no valid specular
    point on the surface (outside its extent or in a window cutout),
    diffractions on an edge line holding both endpoints, paths beyond the
    transmission limit, and zero-length paths.
    """
    geom = geometry if geometry is not None else build_scene_geometry(scene)
    anchor = np.asarray(scene.anchors[anchor_index], dtype=float)
    rx_vec = rx.as_array() if isinstance(rx, Point3) else np.asarray(rx, dtype=float)
    limits = scene.limits

    # One candidate per row: (interaction symbol, length, interaction point,
    # reflection slab, incidence angle, edge id); the direct segment's
    # interaction point is the receiver, so its second leg is empty.
    rows = [(None, euclidean_distance(anchor, rx_vec), rx_vec, None, math.nan, None)]

    # Single specular reflections. Surface bounds (and window cutouts, where
    # there is no material to reflect off) are enforced via contains_uv.
    if limits.max_reflections >= 1:
        reflectors: list[tuple[ReflectorPlane, SlabSpec, Surface | None]] = [
            (surf.as_plane(), surf.slab, surf)
            for surf in geom.surfaces if surf.reflective
        ]
        if geom.ground is not None:
            reflectors.append((geom.ground, scene.exterior_slab, None))
        for plane, slab, surf in reflectors:
            try:
                sol = reflection_path_length(anchor, rx_vec, plane)
            except GeometryError:
                continue
            spec = sol.specular_point.as_array()
            if surf is not None:
                ui, vi = _PLANE_AXES[surf.axis]
                if not surf.contains_uv(spec[ui], spec[vi]):
                    continue
            incident = spec - anchor
            norm = np.linalg.norm(incident)
            if norm == 0.0:
                continue
            cos_i = abs(float(plane.normal @ incident)) / norm
            angle = math.acos(min(1.0, cos_i))
            rows.append(("R", sol.length, spec, slab, min(angle, math.pi / 2 - 1e-12), None))

    # Single diffraction at each window edge.
    if limits.max_diffractions >= 1 and geom.edges:
        d = geom.diffractions(anchor, rx_vec)
        rows += [("D", length, point, None, math.nan, e)
                 for e, length, point in zip(d.ids.tolist(), d.length, d.point)]

    symbols, lengths, points, slabs, angles, edge_ids = zip(*rows)
    pts = np.array(points)
    hits = geom.crossings(np.concatenate([np.broadcast_to(anchor, pts.shape), pts]),
                          np.concatenate([pts, np.broadcast_to(rx_vec, pts.shape)]))
    crossings = hits.reshape(2, len(pts), -1).transpose(1, 0, 2)
    counts = crossings.sum(axis=2).tolist()
    keep = [p for p, (n1, n2) in enumerate(counts)
            if lengths[p] > 0.0 and n1 + n2 <= limits.max_transmissions]

    interactions = []
    for p in keep:
        n1, n2 = counts[p]
        interactions.append(("T",) * n1 if symbols[p] is None
                            else ("T",) * n1 + (symbols[p],) + ("T",) * n2)
    group_of = {i: classify_mpc(i) for i in set(interactions)}
    return PathTable(
        scene=scene,
        geometry=geom,
        anchor_id=anchor_index,
        rx=Point3.from_array(rx_vec),
        length_m=np.array([lengths[p] for p in keep], dtype=float),
        crossings=crossings[keep],
        interactions=tuple(interactions),
        groups=tuple(group_of[i] for i in interactions),
        edge_ids=tuple(edge_ids[p] for p in keep),
        reflection_slabs=tuple(slabs[p] for p in keep),
        incidence_rad=np.array([angles[p] for p in keep], dtype=float),
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
    evaluate one pair at several frequencies, build its path_table once and
    call its pdp per frequency.
    """
    return path_table(scene, anchor_index, rx, geometry).pdp(f_hz)


# ---------------------------------------------------------------------------
# Dataset export / ingestion
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


def export_dataset(pdps, path) -> int:
    """Write PDPs as line-delimited JSON records; returns the record count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": _DATASET_SCHEMA}) + "\n")
        for pdp in pdps:
            rx_xyz = [pdp.rx.x, pdp.rx.y, pdp.rx.z]
            for m in pdp.mpcs:
                record = {
                    "anchor_id": m.anchor_id,
                    "rx_id": pdp.rx_id,
                    "rx_xyz": rx_xyz,
                    "interactions": m.interaction_string(),
                    "path_length_m": m.path_length_m,
                    "rx_power_dbm": m.rx_power_dbm,
                    "tof_s": m.tof_s,
                }
                if m.edge_id is not None:
                    record["edge_id"] = m.edge_id
                fh.write(json.dumps(record) + "\n")
                count += 1
    return count


def ingest_dataset(path, band: Band, noise_temperature_k: float = 290.0) -> IngestResult:
    """Read a line-delimited MPC dataset and rebuild per-pair PDPs.

    Structural problems (bad JSON, wrong schema, missing or malformed
    fields, a non-finite receiver position) raise DatasetError with the line
    number. Physically inconsistent records (negative or non-finite lengths,
    non-finite powers, unknown symbols, stored ToF disagreeing with the
    length beyond 1e-6 relative) are rejected individually with diagnostics.
    """
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
                anchor_id = int(rec["anchor_id"])
                rx_id = int(rec["rx_id"])
                rx_xyz = [float(v) for v in rec["rx_xyz"]]
                interactions_s = rec["interactions"]
                length = float(rec["path_length_m"])
                power = float(rec["rx_power_dbm"])
                stored = float(rec["tof_s"]) if "tof_s" in rec else None
                edge_id = int(rec["edge_id"]) if "edge_id" in rec else None
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(line_no, f"missing or malformed field: {exc}") from None

            if len(rx_xyz) != 3:
                raise DatasetError(line_no, "rx_xyz must have three components")
            if not all(math.isfinite(v) for v in rx_xyz):
                raise DatasetError(line_no, f"non-finite rx_xyz {rx_xyz}")
            try:
                interactions = parse_interaction_string(interactions_s)
                group = classify_mpc(interactions)
            except ValueError as exc:
                rejected.append((line_no, str(exc)))
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
                snr_db=snr_db(power, band, noise_temperature_k),
                anchor_id=anchor_id,
                group=group,
                edge_id=edge_id,
            )
            key = (anchor_id, rx_id)
            buckets.setdefault(key, []).append(mpc)
            rx_positions.setdefault(key, Point3(*rx_xyz))

    pdps = {}
    for key, mpcs in buckets.items():
        mpcs.sort(key=lambda m: m.tof_s)
        pdps[key] = Pdp(mpcs, rx_positions[key], anchor_id=key[0], rx_id=key[1])
    return IngestResult(pdps=pdps, rejected=rejected)
