"""Physical constants (SI) and decibel helpers shared across the package."""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact
BOLTZMANN = 1.380_649e-23  # J/K, exact
VACUUM_PERMITTIVITY = 8.854_187_8128e-12  # F/m
VACUUM_PERMEABILITY = 1.256_637_062_12e-6  # H/m


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to dB. Zero maps to -inf."""
    if value == 0.0:
        return -math.inf
    return 10.0 * math.log10(value)
