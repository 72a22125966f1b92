"""Timing-jitter model tests: quadrature composition and spectral kernel."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cwhom.detection import DetectorModel, effective_jitter, jitter_kernel, jitter_sigma_time
from cwhom.units import RMS_TO_FWHM

TAGGER_RMS = 4.2e-12
CHANNEL_FWHM = 17e-12


def test_effective_jitter_identity():
    assert effective_jitter(components_fwhm=(CHANNEL_FWHM,)) == CHANNEL_FWHM
    assert effective_jitter() == 0.0


def test_rms_component_converts_to_fwhm():
    got = effective_jitter(components_rms=(TAGGER_RMS,))
    assert got == pytest.approx(math.sqrt(8.0 * math.log(2.0)) * TAGGER_RMS, rel=1e-14)
    assert got == pytest.approx(9.890244189130281e-12, rel=1e-12)


def test_quadrature_composition():
    tagger_fwhm = TAGGER_RMS * RMS_TO_FWHM
    got = effective_jitter(components_fwhm=(CHANNEL_FWHM,), components_rms=(TAGGER_RMS,))
    assert got == pytest.approx(math.hypot(CHANNEL_FWHM, tagger_fwhm), rel=1e-14)
    assert got == pytest.approx(19.6676e-12, rel=1e-4)


def test_effective_jitter_rejects_negative():
    for bad in (-1e-12, math.nan):
        with pytest.raises(ValueError):
            effective_jitter(components_fwhm=(bad,))
        with pytest.raises(ValueError):
            effective_jitter(components_rms=(bad,))


def test_kernel_limits():
    w = np.linspace(-1e12, 1e12, 11)
    assert jitter_kernel(CHANNEL_FWHM, 0.0) == 1.0
    assert np.all(jitter_kernel(0.0, w) == 1.0)


def test_kernel_even_real_bounded():
    w = np.linspace(1e8, 5e11, 41)
    k = jitter_kernel(CHANNEL_FWHM, w)
    assert np.all(k == jitter_kernel(CHANNEL_FWHM, -w))
    assert np.isrealobj(k)
    assert np.all((k > 0.0) & (k <= 1.0))


def test_kernel_decreasing_in_jitter():
    w = 2.0 * math.pi * 1e10
    jitters = np.array([5e-12, 10e-12, 20e-12, 40e-12])
    vals = np.array([jitter_kernel(j, w) for j in jitters])
    assert np.all(np.diff(vals) < 0)


def test_kernel_hand_value():
    # Composed 19.67 ps FWHM at a 10 GHz frequency difference:
    # sigma = 8.353 ps, exponent ~ -0.1377.
    j = effective_jitter(components_fwhm=(CHANNEL_FWHM,), components_rms=(TAGGER_RMS,))
    val = jitter_kernel(j, 2.0 * math.pi * 1e10)
    assert val == pytest.approx(0.8714, abs=5e-4)
    assert jitter_sigma_time(j) == pytest.approx(8.353e-12, rel=1e-3)


@pytest.mark.parametrize("fwhm", [7e-12, 19.67e-12, 60e-12])
def test_kernel_matches_transformed_time_gaussian(fwhm):
    # Fourier consistency: numerically transform the time-domain Gaussian
    # response and compare with the closed-form spectral kernel.
    sigma = jitter_sigma_time(fwhm)
    t = np.linspace(-12.0 * sigma, 12.0 * sigma, 20001)
    g = np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    omegas = np.linspace(0.0, 2.5 / sigma, 9)
    for w in omegas:
        num = np.trapezoid(g * np.cos(w * t), t)
        assert num == pytest.approx(jitter_kernel(fwhm, w), rel=1e-6, abs=1e-9)


def test_detector_model_validation():
    DetectorModel((17e-12, 13e-12, 11e-12, 16e-12))
    with pytest.raises(ValueError):
        DetectorModel((17e-12, 13e-12, 11e-12))
    for bad in (-13e-12, math.nan, math.inf):
        with pytest.raises(ValueError):
            DetectorModel((17e-12, bad, 11e-12, 16e-12))


def test_sigma_time_rejects_negative():
    for bad in (-1e-12, math.nan):
        with pytest.raises(ValueError):
            jitter_sigma_time(bad)
