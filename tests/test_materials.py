"""Material physics tests.

Expected values marked as oracle results were computed with independent
high-precision evaluations of the defining formulas (see comments).
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

import scalar_paths
from diffpos.channel import BandPlan, PathLimits, RadioConfig
from diffpos.constants import VACUUM_PERMITTIVITY
from diffpos.experiments import DEFAULT_FREQUENCY_LADDER_HZ
from diffpos.materials import (
    DiffractionLossModel,
    Material,
    SlabLayer,
    SlabSpec,
    complex_permittivity,
    conductivity,
    default_material_library,
    diffraction_loss_db,
    free_space_path_loss_db,
    load_material_library,
    permittivity,
    reflection_loss_db,
    transmission_loss_db,
)
from diffpos.records import declared_ranges

# The declared coefficient ranges of a Material and the frequency reach of
# a band.
_COEFFICIENT_RANGES = {name: (rng.lo, rng.hi)
                       for name, (rng, *_) in declared_ranges(Material).items()}
_BAND_REACH = declared_ranges(BandPlan)["f_lo_hz"][0]
_FREQ_REACH_HZ = (_BAND_REACH.lo, _BAND_REACH.hi)

LIB = default_material_library()
CONCRETE = LIB.material("concrete")
PLASTERBOARD = LIB.material("plasterboard")
CONCRETE_WALL = LIB.slab("exterior_concrete")
DRYWALL = LIB.slab("interior_drywall")


def slab_of(material: Material, thickness: float) -> SlabSpec:
    return SlabSpec(name=material.name, layers=(SlabLayer(material, thickness),))


def eps_of(slab: SlabSpec, f_hz: float) -> complex:
    return complex_permittivity(slab.facing_material, f_hz)


# ---------------------------------------------------------------------------
# Permittivity / conductivity power laws
# ---------------------------------------------------------------------------

def test_permittivity_concrete_constant_in_frequency():
    assert CONCRETE.a == 5.31 and CONCRETE.b == 0.0
    for f in (1e9, 3.5e9, 28e9):
        assert permittivity(CONCRETE, f) == 5.31


def test_permittivity_vacuum_like():
    m = Material("unit", a=1.0, b=0.0, c=0.0, d=0.0)
    assert permittivity(m, 7e9) == 1.0


def test_permittivity_linear_fit_arithmetic():
    m = Material("lin", a=2.0, b=1.0, c=0.0, d=0.0)
    assert permittivity(m, 3e9) == pytest.approx(6.0, rel=1e-15)


def test_conductivity_concrete_at_3p5ghz():
    # Oracle: 0.0326 * 3.5**0.8095 evaluated independently.
    assert conductivity(CONCRETE, 3.5e9) == pytest.approx(0.08987536806839826, rel=1e-12)


def test_conductivity_zero_coefficient():
    m = Material("lossless", a=2.0, b=0.0, c=0.0, d=1.0)
    for f in (0.4e9, 6e9, 60e9):
        assert conductivity(m, f) == 0.0


def test_conductivity_flat_exponent():
    m = Material("flat", a=2.0, b=0.0, c=0.05, d=0.0)
    for f in (0.4e9, 6e9, 60e9):
        assert conductivity(m, f) == 0.05


# ---------------------------------------------------------------------------
# Slab transmission loss
# ---------------------------------------------------------------------------

def test_transmission_loss_concrete_30cm_3p5ghz():
    # Oracle: high-precision evaluation of the lossy-slab attenuation formula
    # with eps_r'=5.31 and sigma=0.0326*3.5**0.8095.
    got = transmission_loss_db(slab_of(CONCRETE, 0.30), 3.5e9)
    assert got == pytest.approx(19.10450423654113, rel=1e-10)


def test_transmission_loss_lossless_dielectric_is_zero():
    m = Material("glasslike", a=4.0, b=0.0, c=0.0, d=0.0)
    assert transmission_loss_db(slab_of(m, 0.5), 10e9) == 0.0


def test_transmission_loss_monotone_in_frequency():
    freqs = np.linspace(1e9, 40e9, 64)
    for slab in (CONCRETE_WALL, DRYWALL):
        losses = [transmission_loss_db(slab, f) for f in freqs]
        assert all(b > a for a, b in zip(losses, losses[1:]))
        assert all(v >= 0 for v in losses)


def test_transmission_loss_monotone_in_thickness():
    losses = [transmission_loss_db(slab_of(CONCRETE, t), 3.5e9) for t in (0.1, 0.2, 0.3, 0.5)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_transmission_loss_air_gap_contributes_nothing():
    air = LIB.material("air")
    only_sheets = SlabSpec("sheets", (
        SlabLayer(PLASTERBOARD, 0.013), SlabLayer(PLASTERBOARD, 0.013)))
    with_gap = SlabSpec("gap", (
        SlabLayer(PLASTERBOARD, 0.013), SlabLayer(air, 0.089), SlabLayer(PLASTERBOARD, 0.013)))
    f = 6e9
    assert transmission_loss_db(with_gap, f) == pytest.approx(
        transmission_loss_db(only_sheets, f), rel=1e-15)


def test_outputs_finite_over_band():
    for f in np.geomspace(0.4e9, 60e9, 24):
        assert math.isfinite(transmission_loss_db(CONCRETE_WALL, f))
        assert math.isfinite(transmission_loss_db(DRYWALL, f))
        assert math.isfinite(reflection_loss_db(eps_of(CONCRETE_WALL, f), 0.5, "TE"))
        assert math.isfinite(reflection_loss_db(eps_of(DRYWALL, f), 0.5, "TM"))
        assert math.isfinite(free_space_path_loss_db(25.0, f))


# ---------------------------------------------------------------------------
# Free-space path loss
# ---------------------------------------------------------------------------

def test_fspl_unit_argument():
    from diffpos.constants import SPEED_OF_LIGHT
    f = 3.5e9
    d = SPEED_OF_LIGHT / (4 * math.pi * f)
    assert free_space_path_loss_db(d, f) == pytest.approx(0.0, abs=1e-12)


def test_fspl_inverse_square_doubling():
    base = free_space_path_loss_db(50.0, 2e9)
    assert free_space_path_loss_db(100.0, 2e9) - base == pytest.approx(
        20 * math.log10(2), rel=1e-12)


def test_fspl_100m_3p5ghz():
    # Oracle: 20*log10(4*pi*100*3.5e9/c).
    assert free_space_path_loss_db(100.0, 3.5e9) == pytest.approx(83.32914410888888, rel=1e-12)


def test_fspl_rejects_nonpositive():
    with pytest.raises(ValueError):
        free_space_path_loss_db(0.0, 1e9)
    with pytest.raises(ValueError):
        free_space_path_loss_db(-1.0, 1e9)
    with pytest.raises(ValueError):
        free_space_path_loss_db(1.0, 0.0)


# ---------------------------------------------------------------------------
# Reflection loss
# ---------------------------------------------------------------------------

def test_reflection_grazing_limit():
    angle = math.pi / 2 - 1e-6
    loss = reflection_loss_db(eps_of(CONCRETE_WALL, 3.5e9), angle, "TE")
    assert loss == pytest.approx(0.0, abs=1e-4)


def test_reflection_index_matched_sentinel():
    # Exactly +inf, without a RuntimeWarning from the log of zero.
    eps = eps_of(slab_of(Material("matched", a=1.0, b=0.0, c=0.0, d=0.0), 0.1), 3.5e9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for polarization in ("TE", "TM"):
            assert reflection_loss_db(eps, 0.0, polarization) == math.inf
            assert reflection_loss_db(np.full((2, 3), eps), np.zeros(3),
                                      polarization).tolist() == [[math.inf] * 3] * 2


def test_reflection_normal_incidence_vs_complex_oracle():
    f = 3.5e9
    eps = 5.31 - 1j * conductivity(CONCRETE, f) / (2 * math.pi * f * VACUUM_PERMITTIVITY)
    expect = abs((1 - np.sqrt(eps)) / (1 + np.sqrt(eps)))
    for pol in ("TE", "TM"):
        loss = reflection_loss_db(eps_of(CONCRETE_WALL, f), 0.0, pol)
        assert 10 ** (-loss / 20) == pytest.approx(expect, rel=1e-9)


def test_reflection_te_loss_nonincreasing_toward_grazing():
    angles = np.linspace(0.0, math.pi / 2 - 1e-4, 50)
    losses = reflection_loss_db(eps_of(CONCRETE_WALL, 10e9), angles, "TE")
    assert (losses[1:] <= losses[:-1] + 1e-12).all()
    assert (losses >= 0).all()


def oracle_angles(seed):
    """Random angles in [0, pi/2), then 0 and the clamp just below pi/2."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(0.0, math.pi / 2, 40), [0.0, math.pi / 2 - 1e-12]])


@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("slab", [CONCRETE_WALL, DRYWALL], ids=["concrete", "drywall"])
def test_reflection_loss_matches_the_scalar_oracle(slab, polarization):
    # The (F, R) losses of the ladder's permittivities against R angles, each
    # within 1e-12 dB of the one-angle cmath body.
    angles = oracle_angles(4)
    eps = np.array([[eps_of(slab, f_hz)] for f_hz in DEFAULT_FREQUENCY_LADDER_HZ])
    got = reflection_loss_db(eps, angles, polarization)
    assert got.shape == (len(DEFAULT_FREQUENCY_LADDER_HZ), len(angles))
    for row, f_hz in zip(got, DEFAULT_FREQUENCY_LADDER_HZ):
        want = [scalar_paths.reflection_loss_db(slab, f_hz, a, polarization)
                for a in angles.tolist()]
        assert np.abs(row - want).max() <= 1e-12


@pytest.mark.parametrize("polarization", ["TE", "TM"])
@pytest.mark.parametrize("slab", [CONCRETE_WALL, DRYWALL], ids=["concrete", "drywall"])
def test_reflection_loss_of_many_angles_equals_one_angle_calls(slab, polarization):
    # Every entry of a many-angle, many-permittivity call is bit for bit its
    # own one-angle call, up to the angle just below pi/2: a row's loss does
    # not depend on the other rows of its call.
    angles = np.append(oracle_angles(5), np.nextafter(math.pi / 2, 0.0))
    eps = np.array([[eps_of(s, f_hz) for s in (slab, CONCRETE_WALL, DRYWALL)]
                    for f_hz in DEFAULT_FREQUENCY_LADDER_HZ])[:, np.arange(len(angles)) % 3]
    got = reflection_loss_db(eps, angles, polarization)
    want = [[reflection_loss_db(e, a, polarization) for e, a in zip(row, angles)]
            for row in eps]
    assert np.array_equal(got, want)
    assert np.array_equal(reflection_loss_db(eps[2:5, 3:9], angles[3:9], polarization),
                          got[2:5, 3:9])
    assert reflection_loss_db(eps[:, :0], angles[:0], polarization).shape == (7, 0)


def test_reflection_rejects_a_bad_angle_among_many():
    eps = eps_of(CONCRETE_WALL, 1e9)
    message = r"^incidence_angle_rad must lie in \[0, 1.5708\); row 1 is not$"
    with pytest.raises(ValueError, match=message):
        reflection_loss_db(eps, np.array([0.1, math.pi / 2, 0.2]), "TE")
    with pytest.raises(ValueError, match=message):
        reflection_loss_db(eps, np.array([0.1, math.nan]), "TE")
    with pytest.raises(ValueError, match=r"^unknown polarization 'XY'$"):
        reflection_loss_db(eps, np.array([0.1]), "XY")


def test_reflection_rejects_bad_angle():
    eps = eps_of(CONCRETE_WALL, 1e9)
    message = r"^incidence_angle_rad must lie in \[0, 1.5708\), got "
    with pytest.raises(ValueError, match=message + "1.5707963267948966$"):
        reflection_loss_db(eps, math.pi / 2, "TE")
    with pytest.raises(ValueError, match=message + "-0.1$"):
        reflection_loss_db(eps, -0.1, "TE")


# ---------------------------------------------------------------------------
# Diffraction excess loss
# ---------------------------------------------------------------------------

def test_diffraction_loss_passthrough():
    model = DiffractionLossModel(l0_db=0.0, gamma=0.0, f0_hz=1e9)
    assert diffraction_loss_db(model, 28e9) == 0.0


def test_diffraction_loss_flat_offset():
    model = DiffractionLossModel(l0_db=6.0, gamma=0.0, f0_hz=1e9)
    for f in (1e9, 7e9, 39e9):
        assert diffraction_loss_db(model, f) == 6.0


def test_diffraction_loss_decade_step():
    model = DiffractionLossModel(l0_db=3.0, gamma=1.0, f0_hz=2e9)
    assert diffraction_loss_db(model, 20e9) == pytest.approx(13.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Config file round trip
# ---------------------------------------------------------------------------

def test_material_library_from_file(tmp_path):
    doc = {
        "schema": "materials/1",
        "materials": {
            "stone": {"a": 6.0, "b": 0.0, "c": 0.05, "d": 0.9},
            "air": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0},
        },
        "slabs": {"wall": [["stone", 0.2], ["air", 0.05], ["stone", 0.2]]},
    }
    path = tmp_path / "materials.json"
    path.write_text(json.dumps(doc))
    lib = load_material_library(path)
    assert lib.material("stone").a == 6.0
    wall = lib.slab("wall")
    assert len(wall.layers) == 3
    assert wall.layers[1].material.name == "air"
    assert wall.facing_material.name == "stone"


def test_material_invariants():
    with pytest.raises(ValueError):
        Material("bad", a=0.0, b=0.0, c=0.0, d=0.0)
    with pytest.raises(ValueError):
        Material("bad", a=1.0, b=0.0, c=-0.1, d=0.0)
    with pytest.raises(ValueError):
        SlabLayer(CONCRETE, 0.0)
    with pytest.raises(ValueError,
                       match=r"^RadioConfig.bandwidth_hz must lie in \(0, inf\), got 0.0$"):
        RadioConfig(bands=(BandPlan("FR1", 0.41e9, 7.125e9, 20.0),), bandwidth_hz=0.0)


def test_material_coefficients_at_their_bounds_keep_every_function_finite():
    # Every corner of the coefficient ranges at both ends of the band reach:
    # eps_r' stays positive, and no function overflows, divides by zero or
    # warns.
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for coefficients in itertools.product(*_COEFFICIENT_RANGES.values()):
            m = Material("corner", *coefficients)
            for f_hz in _FREQ_REACH_HZ:
                eps = complex_permittivity(m, f_hz)
                slab = SlabSpec("corner", (SlabLayer(m, 1.0),))
                values = (permittivity(m, f_hz), conductivity(m, f_hz), eps.real, eps.imag,
                          transmission_loss_db(slab, f_hz))
                assert values[0] > 0 and all(map(math.isfinite, values)), (coefficients, f_hz)
                for polarization in ("TE", "TM"):
                    loss = reflection_loss_db(eps, np.array([0.0, 0.7, 1.5]), polarization)
                    assert not np.isnan(loss).any()


@pytest.mark.parametrize("name", "abcd")
def test_material_refuses_a_coefficient_past_its_range(name):
    lo, hi = _COEFFICIENT_RANGES[name]
    itu = {"a": 5.31, "b": 0.0, "c": 0.0326, "d": 0.8095}
    for value in (lo, hi):
        assert getattr(Material("edge", **{**itu, name: value}), name) == value
    for value in (np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)):
        with pytest.raises(ValueError, match=f"^Material.{name} must lie in "):
            Material("edge", **{**itu, name: float(value)})


FR1 = (BandPlan("FR1", 0.41e9, 7.125e9, 20.0),)


@pytest.mark.parametrize("make, message", [
    (lambda: BandPlan("FR1", 0.41e9, 7.125e9, tx_power_dbm=math.nan),
     r"^BandPlan.tx_power_dbm must lie in \[-300, 300\], got nan$"),
    (lambda: BandPlan("FR1", 0.41e9, 7.125e9, 20.0, rx_processing_gain_db=math.inf),
     r"^BandPlan.rx_processing_gain_db must lie in \[-300, 300\], got inf$"),
    (lambda: RadioConfig(bands=FR1, bandwidth_hz=math.inf),
     r"^RadioConfig.bandwidth_hz must lie in \(0, inf\), got inf$"),
    (lambda: RadioConfig(bands=FR1, noise_temperature_k=math.inf),
     r"^RadioConfig.noise_temperature_k must lie in \(0, inf\), got inf$"),
    (lambda: DiffractionLossModel(l0_db=math.nan),
     r"^DiffractionLossModel.l0_db must lie in \[-300, 300\], got nan$"),
    (lambda: DiffractionLossModel(gamma=math.inf),
     r"^DiffractionLossModel.gamma must lie in \(-inf, inf\), got inf$"),
    (lambda: DiffractionLossModel(f0_hz=math.inf),
     r"^DiffractionLossModel.f0_hz must lie in \(0, inf\), got inf$"),
    (lambda: PathLimits(min_snr_db=math.nan),
     r"^PathLimits.min_snr_db must lie in \(-inf, inf\), got nan$"),
], ids=["tx_power", "processing_gain", "bandwidth", "noise_temperature", "l0", "gamma", "f0",
        "min_snr"])
def test_radio_loss_and_limit_numbers_must_be_finite(make, message):
    with pytest.raises(ValueError, match=message):
        make()
