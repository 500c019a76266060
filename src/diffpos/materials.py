"""Frequency-dependent material physics for building interactions.

Material properties follow the ITU power-law parameterization
(eps_r' = a * f_GHz^b, sigma = c * f_GHz^d S/m); the default table is seeded
from ITU-R P.2040-1 and ships as an editable JSON file (data/materials.json).
Slab transmission loss uses the lossy-dielectric single-pass attenuation

    PL_T = 12.27 * pi * f * t * sqrt(mu0*eps0*eps_r')
           * (sqrt(1 + (sigma / (2*pi*f*eps0*eps_r'))^2) - 1)^0.5   [dB]

summed per layer in dB (internal multiple reflections are not modeled).
Reflection magnitude comes from the Fresnel coefficient of an equivalent
half-space with complex permittivity eps_r' - j*sigma/(2*pi*f*eps0).
Edge diffraction excess loss is a configurable scalar
L0 + 10*gamma*log10(f/f0) on top of the free-space loss of the full
two-leg path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Annotated, Literal

import numpy as np

from .constants import (
    SPEED_OF_LIGHT,
    VACUUM_PERMEABILITY,
    VACUUM_PERMITTIVITY,
)
from .records import Finite, Positive, Range, _check_ranges, _from_dict, _named, _unique_keys

__all__ = [
    "Material",
    "SlabLayer",
    "SlabSpec",
    "DiffractionLossModel",
    "MaterialLibrary",
    "permittivity",
    "conductivity",
    "complex_permittivity",
    "transmission_loss_db",
    "free_space_path_loss_db",
    "reflection_loss_db",
    "diffraction_loss_db",
    "load_material_library",
    "default_material_library",
]


# No scene length (an anchor coordinate's distance from the origin, a
# footprint side, the building's height, a slab layer's thickness) exceeds
# this many metres: 1,000 km is far past detection at any band, and keeps
# the sweep's squared distances (the LLS design terms among them) far from
# overflow.
_REACH_M = 1e6
Length = Annotated[float, Range(0, _REACH_M, open_lo=True)]
# The radio's dB numbers (transmit power, processing gain, diffraction
# reference loss, noise floor in dBm) lie within this many dB of 0, so that
# an SNR stays far below the ~3,083 dB at which its linear value overflows.
_MAX_ABS_DB = 300.0
Decibels = Annotated[float, Range(-_MAX_ABS_DB, _MAX_ABS_DB)]
# Every frequency a band may hold lies in 1 MHz to 1 THz, and each
# power-law coefficient in the range of its Material field. Together they
# keep eps_r' within 1e-36..1e36, sigma below 1e42 S/m and the loss tangent
# below 1e83, so no function of this module overflows or divides by zero.
BandFrequency = Annotated[float, Range(1e6, 1e12)]
Exponent = Annotated[float, Range(-10.0, 10.0)]


@dataclass(frozen=True)
class Material:
    """ITU power-law fit parameters for one building material."""

    name: str
    a: Annotated[float, Range(1e-6, 1e6)]  # permittivity coefficient
    b: Exponent  # permittivity frequency exponent
    c: Annotated[float, Range(0.0, 1e12)]  # conductivity coefficient (S/m at 1 GHz)
    d: Exponent  # conductivity frequency exponent

    __post_init__ = _check_ranges


@dataclass(frozen=True)
class SlabLayer:
    material: Material
    thickness_m: Length

    __post_init__ = _check_ranges


@dataclass(frozen=True)
class SlabSpec:
    """Ordered layer stack of one wall/floor construction."""

    name: str
    layers: tuple[SlabLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"slab {self.name!r} has no layers")

    @property
    def facing_material(self) -> Material:
        return self.layers[0].material


@dataclass(frozen=True)
class DiffractionLossModel:
    """Scalar excess loss for edge diffraction: l0 + 10*gamma*log10(f/f0)."""

    l0_db: Decibels = 15.0
    gamma: Finite = 0.0
    f0_hz: Positive = 1e9

    __post_init__ = _check_ranges


def permittivity(material: Material, f_hz: float) -> float:
    """Real relative permittivity eps_r' = a * f_GHz^b."""
    if not f_hz > 0:
        raise ValueError("frequency must be positive")
    return material.a * (f_hz / 1e9) ** material.b


def conductivity(material: Material, f_hz: float) -> float:
    """Electrical conductivity sigma = c * f_GHz^d in S/m."""
    if not f_hz > 0:
        raise ValueError("frequency must be positive")
    return material.c * (f_hz / 1e9) ** material.d


def complex_permittivity(material: Material, f_hz: float) -> complex:
    """Relative complex permittivity eps_r' - j*sigma/(2*pi*f*eps0)."""
    eps = permittivity(material, f_hz)
    sig = conductivity(material, f_hz)
    return eps - 1j * sig / (2.0 * math.pi * f_hz * VACUUM_PERMITTIVITY)


def _layer_transmission_loss_db(material: Material, thickness_m: float, f_hz: float) -> float:
    eps = permittivity(material, f_hz)
    sig = conductivity(material, f_hz)
    loss_tangent = sig / (2.0 * math.pi * f_hz * VACUUM_PERMITTIVITY * eps)
    attenuation = (math.sqrt(1.0 + loss_tangent ** 2) - 1.0) ** 0.5
    return (
        12.27 * math.pi * f_hz * thickness_m
        * math.sqrt(VACUUM_PERMEABILITY * VACUUM_PERMITTIVITY * eps)
        * attenuation
    )


def transmission_loss_db(slab: SlabSpec, f_hz: float) -> float:
    """Total single-pass transmission loss of the layer stack, in dB.

    Lossless layers (sigma = 0, e.g. air gaps) contribute exactly zero.
    """
    return sum(
        _layer_transmission_loss_db(layer.material, layer.thickness_m, f_hz)
        for layer in slab.layers
    )


def free_space_path_loss_db(distance_m, f_hz):
    """Friis free-space loss 20*log10(4*pi*d*f/c) in dB.

    Scalars give a float. Arrays broadcast against each other, so a (P,)
    distance and an (F, 1) frequency give the (F, P) losses of P paths at F
    frequencies.
    """
    d = np.asarray(distance_m, dtype=float)
    f = np.asarray(f_hz, dtype=float)
    if not (d > 0).all():
        raise ValueError("distance must be positive")
    if not (f > 0).all():
        raise ValueError("frequency must be positive")
    loss = 20.0 * np.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)
    return float(loss) if loss.ndim == 0 else loss


def reflection_loss_db(eps, incidence_angle_rad, polarization: str = "TE") -> np.ndarray:
    """Reflection loss -20*log10(|Gamma|) off equivalent lossy half-spaces.

    ``eps`` holds relative complex permittivities (``complex_permittivity``
    of a slab's facing material) and ``incidence_angle_rad`` angles from the
    surface normal in [0, pi/2); the two broadcast together, so the (F, R)
    permittivities of R rows' reflectors at F frequencies and the rows' (R,)
    angles give the (F, R) losses. Each entry depends on its own
    permittivity and angle only. Index-matched materials reflect nothing:
    the loss is +inf and no reflected path should be generated.
    """
    angle = np.asarray(incidence_angle_rad, dtype=float)
    if not ((0.0 <= angle) & (angle < math.pi / 2.0)).all():
        raise ValueError("incidence angle must lie in [0, pi/2)")
    if polarization not in ("TE", "TM"):
        raise ValueError(f"unknown polarization {polarization!r}")
    cos_i = np.cos(angle)
    transmitted = np.sqrt(eps - np.sin(angle) ** 2)
    near = cos_i if polarization == "TE" else eps * cos_i
    magnitude = np.abs((near - transmitted) / (near + transmitted))
    with np.errstate(divide="ignore"):
        return -20.0 * np.log10(magnitude)


def diffraction_loss_db(model: DiffractionLossModel, f_hz: float) -> float:
    """Excess diffraction loss in dB (applied on top of two-leg Friis loss)."""
    if not f_hz > 0:
        raise ValueError("frequency must be positive")
    return model.l0_db + 10.0 * model.gamma * math.log10(f_hz / model.f0_hz)


# ---------------------------------------------------------------------------
# Material configuration file
# ---------------------------------------------------------------------------

class MaterialLibrary:
    """Materials and named slab stacks loaded from a JSON config file.

    A lookup of a name the library lacks raises ValueError.
    """

    def __init__(self, materials: dict[str, Material], slabs: dict[str, SlabSpec]):
        self.materials = dict(materials)
        self.slabs = dict(slabs)

    def material(self, name: str) -> Material:
        if name not in self.materials:
            raise ValueError(f"unknown material {name!r}; have {sorted(self.materials)}")
        return self.materials[name]

    def slab(self, name: str) -> SlabSpec:
        if name not in self.slabs:
            raise ValueError(f"unknown slab {name!r}; have {sorted(self.slabs)}")
        return self.slabs[name]


@dataclass(frozen=True)
class _LibraryDoc:
    """A materials/1 document: the a, b, c, d coefficients of each material
    and each slab's [material name, thickness] layers."""

    materials: dict[str, dict[Literal["a", "b", "c", "d"], float]]
    slabs: dict[str, list[tuple[str, float]]] = field(default_factory=dict)


def _library_from_dict(doc) -> MaterialLibrary:
    """The library of a materials/1 document, read by the ``records`` codec,
    whose ValueError names the JSON path of a bad value (``materials.concrete.a``),
    as a Material out of range names its material (``materials.concrete: ...``);
    a bad slab layer raises one naming the slab."""
    lib = _from_dict(_LibraryDoc, doc, "materials/1", "materials file")
    library = MaterialLibrary({name: _named(f"materials.{name}", Material, name, **coeffs)
                               for name, coeffs in lib.materials.items()}, {})
    for name, layers in lib.slabs.items():
        library.slabs[name] = _named(f"slab {name!r}", lambda: SlabSpec(name=name, layers=tuple(
            SlabLayer(material=library.material(mat_name), thickness_m=float(thickness))
            for mat_name, thickness in layers)))
    return library


def load_material_library(path) -> MaterialLibrary:
    """Load a material/slab table from a JSON file (schema "materials/1");
    a malformed one raises ValueError as ``_library_from_dict`` does."""
    with open(path, "r", encoding="utf-8") as fh:
        return _library_from_dict(json.load(fh, object_pairs_hook=_unique_keys))


def default_material_library() -> MaterialLibrary:
    """The packaged default table (ITU-seeded values; user-overridable)."""
    doc = json.loads(
        resources.files("diffpos").joinpath("data/materials.json").read_text(encoding="utf-8"),
        object_pairs_hook=_unique_keys)
    return _library_from_dict(doc)
