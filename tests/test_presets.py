"""Frozen expectations for the calibrated reference sources.

The grating parameters in presets.py are calibration results; these
tests pin the bandwidths, coherence times, and the asymmetric coherence
side peak of source B that the calibration is supposed to reproduce.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cwhom.detection import RMS_TO_FWHM
from cwhom.interference import (
    coherence_function,
    jsa_coherence_fwhm,
    sized_grid,
    source_jitters,
    visibility_at_zero_delay,
)
from cwhom.presets import (
    FILTER_IDLER_A,
    FILTER_SIGNAL_A,
    GRATING_GRID_FLOOR,
    NOMINAL_BANDWIDTHS_PM,
    REFERENCE_COHERENCE_TIMES,
    REFERENCE_FILTERS,
    REFERENCE_JITTERS_FWHM,
    REFERENCE_SOURCES,
    TIME_TAGGER_RMS,
    filtered_pair_jsa,
    grating_width,
    reference_setup,
    reference_source_a,
    reference_source_b,
    tagger_composed_jitters,
)
from cwhom.spectral import FbgModel, FrequencyGrid, JointSpectralAmplitude, fbg_reflectivity_fwhm
from cwhom.units import wavelength_pm_to_angular

PM = wavelength_pm_to_angular(1.0)

# Shared measurement protocol for the coherence curves.
DELAYS = np.linspace(-800e-12, 800e-12, 3201)

# Frozen regression values for the protocol above (any drift here means
# the calibrated models or the coherence pipeline changed).
FROZEN_FWHM_PM = {
    "signal_a": 41.0053100690929,
    "idler_a": 27.00349687476849,
    "signal_b": 44.002837209467394,
    "idler_b": 41.0028738166124,
}
FROZEN_TC_A = 2.4364293051804933e-10
FROZEN_TC_B = 1.6850551234607817e-10
FROZEN_V0_REFERENCE = 0.5944311459268931


def pair_grid(signal: FbgModel, idler: FbgModel, tau_max: float, n_points: int | None = None):
    """Grid sized from a pair's widest grating band, resolving delays up to tau_max."""
    return sized_grid(8.0 * grating_width(signal, idler), tau_max, GRATING_GRID_FLOOR, n_points)


def local_maxima(values: np.ndarray) -> np.ndarray:
    inner = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    return np.where(inner)[0] + 1


def test_bandwidths_match_nominal():
    for name, model in REFERENCE_FILTERS.items():
        fwhm_pm = fbg_reflectivity_fwhm(model) / PM
        nominal = NOMINAL_BANDWIDTHS_PM[name]
        assert fwhm_pm == pytest.approx(nominal, rel=1e-2)
        assert fwhm_pm == pytest.approx(FROZEN_FWHM_PM[name], rel=1e-9)


def test_source_a_coherence_time():
    jsa = reference_source_a(pair_grid(*REFERENCE_SOURCES["a"], 800e-12))
    curve = coherence_function(jsa, *source_jitters(REFERENCE_JITTERS_FWHM, "a"), DELAYS)
    # 244 ps nominal, 5% band.
    assert 231.8e-12 <= curve.t_c_fwhm <= 256.2e-12
    assert curve.t_c_fwhm == pytest.approx(FROZEN_TC_A, rel=1e-9)


def test_source_b_coherence_time():
    jsa = reference_source_b(pair_grid(*REFERENCE_SOURCES["b"], 800e-12))
    curve = coherence_function(jsa, *source_jitters(REFERENCE_JITTERS_FWHM, "b"), DELAYS)
    # 164 ps nominal, 5% band.
    assert 155.8e-12 <= curve.t_c_fwhm <= 172.2e-12
    assert curve.t_c_fwhm == pytest.approx(FROZEN_TC_B, rel=1e-9)


def test_source_b_side_peak_requires_spectral_phase():
    jsa = reference_source_b(pair_grid(*REFERENCE_SOURCES["b"], 800e-12))
    curve = coherence_function(jsa, *source_jitters(REFERENCE_JITTERS_FWHM, "b"), DELAYS)
    g = curve.density / curve.density.max()

    peaks = local_maxima(g)
    side = peaks[np.abs(DELAYS[peaks]) > 50e-12]
    assert side.size > 0
    i_main = side[int(np.argmax(g[side]))]
    tau_main = DELAYS[i_main]
    assert tau_main == pytest.approx(606e-12, abs=10e-12)
    assert g[i_main] == pytest.approx(0.10450867633233218, rel=1e-6)

    # The curve is asymmetric: the mirrored position carries less than
    # half the side-peak height.
    i_mirror = int(np.argmin(np.abs(DELAYS + tau_main)))
    assert g[i_mirror] < 0.5 * g[i_main]

    # Discarding arg(J) destroys the feature: the magnitude-only model
    # is symmetric, has no comparable side peak, and underestimates the
    # coherence time.
    flat = JointSpectralAmplitude(grid=jsa.grid, j_amp=np.abs(jsa.j_amp))
    curve_flat = coherence_function(flat, *source_jitters(REFERENCE_JITTERS_FWHM, "b"), DELAYS)
    gf = curve_flat.density / curve_flat.density.max()
    assert gf[i_main] < 0.2 * g[i_main]
    np.testing.assert_allclose(gf, gf[::-1], atol=1e-9)
    assert curve_flat.t_c_fwhm < 0.75 * curve.t_c_fwhm


def test_tagger_composed_jitters():
    composed = tagger_composed_jitters()
    tagger_fwhm = TIME_TAGGER_RMS * RMS_TO_FWHM
    for got, raw in zip(composed, REFERENCE_JITTERS_FWHM):
        assert got == pytest.approx(math.hypot(raw, tagger_fwhm), rel=1e-12)
        assert got > raw


def test_reference_setup_composition():
    setup = reference_setup(40e-12, 2000e-12)
    assert setup.jsa_a.grid is setup.jsa_b.grid
    assert setup.windows.tau_14 == 40e-12
    assert setup.windows.tau_23 == 2000e-12
    assert setup.detectors.jitter_fwhm == REFERENCE_JITTERS_FWHM
    tc_a, tc_b = setup.coherence_times
    assert tc_a == pytest.approx(2.4308475663456844e-10, rel=1e-9)
    assert tc_b == pytest.approx(1.6643778375270387e-10, rel=1e-9)


def test_reference_coherence_times_are_the_reference_grid_estimates():
    grid = reference_setup(40e-12, 2000e-12).jsa_a.grid
    assert grid.n_points == 1407
    for name, source in (("a", reference_source_a), ("b", reference_source_b)):
        estimate = jsa_coherence_fwhm(source(grid))
        assert REFERENCE_COHERENCE_TIMES[name] == pytest.approx(estimate, rel=1e-12)


def test_reference_setup_visibility():
    setup = reference_setup(40e-12, 2000e-12)
    v0 = visibility_at_zero_delay(setup)
    # Dissimilar coherence times cap the visibility well below one.
    assert 0.4 < v0 < 0.8
    assert v0 == pytest.approx(FROZEN_V0_REFERENCE, rel=1e-9)


def test_filtered_jsa_grid_sizing():
    grid = pair_grid(FILTER_SIGNAL_A, FILTER_IDLER_A, 0.0, n_points=601)
    jsa = filtered_pair_jsa(FILTER_SIGNAL_A, FILTER_IDLER_A, grid)
    assert jsa.grid is grid and grid.n_points == 601
    assert grid.span == 8.0 * fbg_reflectivity_fwhm(FILTER_SIGNAL_A)  # the wider band
    assert pair_grid(FILTER_SIGNAL_A, FILTER_IDLER_A, 0.0).n_points == GRATING_GRID_FLOOR
    jsa2 = filtered_pair_jsa(FILTER_SIGNAL_A, FILTER_IDLER_A,
                             pair_grid(FILTER_SIGNAL_A, FILTER_IDLER_A, 2e-9))
    assert jsa2.grid.step <= 2.0 * math.pi / (8.0 * 2e-9)
    assert np.max(np.abs(jsa2.j_amp)) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_bands_raise():
    dark = FbgModel(length=0.02, n_sections=16, peak_kappa=0.0, order=2.0, width=0.8)
    grid = FrequencyGrid(n_points=129, span=1e11)
    with pytest.raises(ValueError, match="do not overlap"):
        filtered_pair_jsa(dark, FILTER_IDLER_A, grid=grid)
