"""Unit helpers and physical constants.

All internal quantities are SI: times in seconds, angular frequencies in
rad/s. Wavelength offsets are converted to angular frequency around a
fixed telecom reference of 1550 nm, which is accurate to first order for
the pm-scale filter bandwidths this package deals with.
"""

from __future__ import annotations

import math

C_M_PER_S = 299_792_458.0

# Reference wavelength for pm <-> rad/s conversion.
LAMBDA0_M = 1550e-9

# FWHM = RMS_TO_FWHM * rms for a Gaussian.
RMS_TO_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))

PS = 1e-12
FS = 1e-15

# FWHM of |sinc(W t / 2)|**2 in time equals RECT_TC_PRODUCT / W for a
# rectangular spectrum of full width W (rad/s). The constant is 4*x where
# x solves sin(x)/x = 1/sqrt(2).
RECT_TC_PRODUCT = 5.56622951300604


def wavelength_pm_to_angular(delta_lambda_pm: float) -> float:
    """Convert a wavelength offset in pm at 1550 nm to rad/s."""
    delta_nu = C_M_PER_S * (delta_lambda_pm * 1e-12) / LAMBDA0_M**2
    return 2.0 * math.pi * delta_nu


def angular_to_wavelength_pm(delta_omega: float) -> float:
    """Convert an angular frequency offset in rad/s to pm at 1550 nm."""
    delta_nu = delta_omega / (2.0 * math.pi)
    return delta_nu * LAMBDA0_M**2 / C_M_PER_S * 1e12
