"""Unit conversion and physical-constant checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cwhom.units import (
    C_M_PER_S,
    FS,
    LAMBDA0_M,
    PS,
    RECT_TC_PRODUCT,
    RMS_TO_FWHM,
    angular_to_wavelength_pm,
    wavelength_pm_to_angular,
)


def test_rms_to_fwhm_is_gaussian_factor():
    assert RMS_TO_FWHM == pytest.approx(2.0 * math.sqrt(2.0 * math.log(2.0)), rel=0, abs=1e-15)


def test_rect_tc_product_solves_half_power_sinc():
    # T_c * W_f for a rect filter: sinc(x) = 1/sqrt(2) at x = product / 4.
    x = RECT_TC_PRODUCT / 4.0
    assert math.sin(x) / x == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_second_scale_constants():
    assert PS == 1e-12
    assert FS == 1e-15


def test_wavelength_pm_to_angular_at_1550nm():
    # d(omega) = 2 pi c / lambda^2 * d(lambda) at the 1550 nm carrier.
    expected = 2.0 * math.pi * C_M_PER_S / LAMBDA0_M**2 * 1e-12
    got = wavelength_pm_to_angular(1.0)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(7.840381133439556e8, rel=1e-12)


@pytest.mark.parametrize("pm", [-41.0, -10.0, 0.0, 1.0, 27.0, 44.0, 164.0])
def test_wavelength_angular_roundtrip(pm):
    assert angular_to_wavelength_pm(wavelength_pm_to_angular(pm)) == pytest.approx(pm, abs=1e-12)


def test_angular_conversion_is_linear():
    pms = np.array([0.5, 5.0, 50.0])
    vals = np.array([wavelength_pm_to_angular(p) for p in pms])
    assert np.allclose(vals / pms, vals[0] / pms[0], rtol=1e-14)
