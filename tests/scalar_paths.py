"""Scalar reference path evaluation: one plane, one row, one MPC at a time.

These are the bodies the columnar ``channel`` and ``fap`` code replaced,
kept as the test oracle: the image-source reflection off one plane, the
per-reflector specular test that ``path_table`` ran, the one-angle
``cmath`` Fresnel reflection loss, the per-row PDP with scalar free-space
loss and one ``Mpc`` per row (``row_mpc``), the where/cumsum slab sum of
``PathTable.losses``, and the object bodies of ``truncate_top_k`` and
``select_fap``.
"""

import cmath
import math
from typing import NamedTuple

import numpy as np

from diffpos.channel import Mpc, Pdp, Surface, classify_mpc, noise_floor_dbm
from diffpos.constants import SPEED_OF_LIGHT
from diffpos.fap import FapSelection, NoDetectionError
from diffpos.geometry import GeometryError, Point3
from diffpos.materials import complex_permittivity, diffraction_loss_db

_PLANE_UV = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}


class Plane(NamedTuple):
    """Unbounded plane {x : normal.x = offset} with a unit normal."""

    normal: np.ndarray
    offset: float


class ReflectionSolution(NamedTuple):
    """Unfolded reflection length and the specular point."""

    length: float
    specular_point: Point3


def signed_distance(plane, p):
    return float(plane.normal @ np.asarray(p, dtype=float) - plane.offset)


def reflect_point(p, plane):
    """Mirror image of p across the plane (the virtual-source construction)."""
    v = np.asarray(p, dtype=float)
    return Point3(*(v - 2.0 * signed_distance(plane, v) * plane.normal).tolist())


def reflection_path_length(tx, rx, plane):
    """Specular reflection path length via the mirrored transmitter; tx and
    rx must lie strictly on the same side of the plane."""
    t = np.asarray(tx, dtype=float)
    r = np.asarray(rx, dtype=float)
    dt = signed_distance(plane, t)
    dr = signed_distance(plane, r)
    if dt == 0.0 or dr == 0.0 or (dt > 0) != (dr > 0):
        raise GeometryError("tx and rx must lie strictly on the same side of the plane")
    image = reflect_point(t, plane).as_array()
    direction = r - image
    length = float(np.linalg.norm(direction))
    s = dt / (dt + dr)
    return ReflectionSolution(length, Point3(*(image + s * direction).tolist()))


def contains_uv(surf, u, v):
    """Whether (u, v) lies on the surface: inside its extent, outside every
    cutout (bounds inclusive)."""
    if not (surf.u_lo <= u <= surf.u_hi and surf.v_lo <= v <= surf.v_hi):
        return False
    return not any(cu_lo <= u <= cu_hi and cv_lo <= v <= cv_hi
                   for cu_lo, cu_hi, cv_lo, cv_hi in surf.cutouts)


def reflectors(scene, geom):
    """(plane, slab, surface) per reflector, in reflector order: the
    reflective surfaces, then the ground, which reflects outside the
    building's footprint (the level-0 slab reflects inside it, rim
    included)."""
    out = []
    for surf in geom.surfaces:
        if surf.reflective:
            normal = np.zeros(3)
            normal["xyz".index(surf.axis)] = 1.0
            out.append((Plane(normal, surf.coord), surf.slab, surf))
    if scene.include_ground:
        ground = Surface("ground", "z", 0.0, -math.inf, math.inf, -math.inf, math.inf,
                         scene.exterior_slab,
                         cutouts=((0.0, scene.footprint_x, 0.0, scene.footprint_y),))
        out.append((Plane(np.array([0.0, 0.0, 1.0]), 0.0), scene.exterior_slab, ground))
    return out


def reflections(scene, geom, tx, rx):
    """[(reflector index, length, specular point, incidence)] of the
    reflectors with a valid specular point, one reflector at a time."""
    tx = np.asarray(tx, dtype=float)
    out = []
    for k, (plane, _, surf) in enumerate(reflectors(scene, geom)):
        try:
            sol = reflection_path_length(tx, rx, plane)
        except GeometryError:
            continue
        spec = sol.specular_point.as_array()
        ui, vi = _PLANE_UV[surf.axis]
        if not contains_uv(surf, spec[ui], spec[vi]):
            continue
        incident = spec - tx
        norm = np.linalg.norm(incident)
        if norm == 0.0:
            continue
        cos_i = abs(float(plane.normal @ incident)) / norm
        angle = math.acos(min(1.0, cos_i))
        out.append((k, sol.length, spec, min(angle, math.pi / 2 - 1e-12)))
    return out


def reflection_loss_db(slab, f_hz, angle, polarization):
    """Fresnel reflection loss -20*log10(|Gamma|) of one angle off the
    slab's facing material as a lossy half-space; +inf where it reflects
    nothing."""
    if not 0.0 <= angle < math.pi / 2.0:
        raise ValueError("incidence angle must lie in [0, pi/2)")
    if polarization not in ("TE", "TM"):
        raise ValueError(f"unknown polarization {polarization!r}")
    eps = complex_permittivity(slab.facing_material, f_hz)
    cos_i = math.cos(angle)
    sin_i = math.sin(angle)
    transmitted = cmath.sqrt(eps - sin_i ** 2)
    if polarization == "TE":
        gamma = (cos_i - transmitted) / (cos_i + transmitted)
    else:
        gamma = (eps * cos_i - transmitted) / (eps * cos_i + transmitted)
    magnitude = abs(gamma)
    return math.inf if magnitude == 0.0 else -20.0 * math.log10(magnitude)


def row_interactions(table, i):
    """Interaction tuple of table row ``i``, from its kind and crossings."""
    n1, n2 = (int(n) for n in table.n_crossings[i])
    if table.edge_id[i] >= 0:
        return ("T",) * n1 + ("D",) + ("T",) * n2
    if table.reflector[i] >= 0:
        return ("T",) * n1 + ("R",) + ("T",) * n2
    return ("T",) * n1


def pdp(table, f_hz):
    """The PDP of a path table at one frequency, row by row: scalar
    free-space loss, one Mpc per detected row, then a sort by ToF."""
    scene = table.scene
    radio = scene.radio
    band = radio.band_for(f_hz)
    floor = noise_floor_dbm(radio.bandwidth_hz, radio.noise_temperature_k)
    gain = band.tx_power_dbm + band.rx_processing_gain_db
    slab_db, _ = table.geometry.prepare_frequency(f_hz)
    mpcs = []
    for i, length in enumerate(table.length_m.tolist()):
        if table.edge_id[i] >= 0:
            base = diffraction_loss_db(radio.diffraction_loss, f_hz)
        elif table.reflector[i] >= 0:
            slab = table.geometry.reflector_slabs[table.reflector[i]]
            base = reflection_loss_db(slab, f_hz, float(table.incidence_rad[i]),
                                      radio.polarization)
        else:
            base = 0.0
        legs = [0.0, 0.0]
        for leg in (0, 1):
            for s, crossed in enumerate(table.crossings[i, leg]):
                if crossed:
                    legs[leg] += slab_db[s]
        fspl = 20.0 * math.log10(4.0 * math.pi * length * f_hz / SPEED_OF_LIGHT)
        power = gain - fspl - (base + legs[0] + legs[1])
        snr = power - floor
        if math.isinf(base) or snr < scene.limits.min_snr_db:
            continue
        mpcs.append(row_mpc(table, i, power, snr))
    mpcs.sort(key=lambda m: m.tof_s)
    return Pdp(mpcs, Point3(*table.receivers[0].tolist()), table.anchor_ids[0])


def row_mpc(table, i, power_dbm, snr_db):
    """The Mpc of table row ``i`` with the given received power and SNR."""
    interactions = row_interactions(table, i)
    edge = int(table.edge_id[i])
    return Mpc(interactions, float(table.length_m[i]), float(table.tof_s[i]), float(power_dbm),
               float(snr_db), int(table.anchor[i]), classify_mpc(interactions),
               None if edge < 0 else edge)


def leg_slab_db(crossed, slab_db):
    """Slab loss (F, L) of each leg: the losses ``slab_db`` (F, S) of the
    surfaces its row of ``crossed`` (L, S) marks, summed in surface order.
    cumsum runs down the surfaces of an (S, F, L) stack that holds zero
    where a leg does not cross."""
    stack = np.where(crossed.T[:, None, :], slab_db.T[:, :, None], 0.0)
    return np.cumsum(stack, axis=0)[-1]


def truncate_top_k(pdp, k=25):
    """Keep the k highest-SNR MPCs, re-sorted by time of flight."""
    if len(pdp.mpcs) <= k:
        return pdp
    keep = sorted(pdp.mpcs, key=lambda m: m.snr_db, reverse=True)[:k]
    keep.sort(key=lambda m: m.tof_s)
    return Pdp(keep, pdp.rx, pdp.anchor_id)


def select_fap(pdp, t_fap_db):
    """Earliest MPC within t_fap dB of the strongest; ToF ties go to the
    higher SNR, then to the earlier MPC."""
    if len(pdp) == 0:
        raise NoDetectionError("empty PDP")
    s_max = max(m.snr_db for m in pdp.mpcs)
    threshold = s_max - t_fap_db
    eligible = [m for m in pdp.mpcs if m.snr_db >= threshold]
    chosen = min(eligible, key=lambda m: (m.tof_s, -m.snr_db))
    return FapSelection(chosen=chosen, s_max_db=s_max, threshold_db=threshold,
                        t_fap_db=t_fap_db)
