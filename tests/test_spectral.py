"""Spectral-domain tests: grids, filters, grating transfer matrices, fitting.

The grating model is checked three independent ways: a closed form for the
on-resonance reflectance (section matrices commute at zero detuning), a
scipy ODE integration of the coupled-mode equations with the continuous
apodization profile, and the full four-element complex transfer-matrix
chain that the package's two-element lossless chain reduces.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cwhom.presets import FILTER_SIGNAL_A, REFERENCE_FILTERS
from cwhom.spectral import (
    FBG_EFFECTIVE_INDEX,
    LM_MAX_EVALS,
    FbgModel,
    FrequencyGrid,
    JointSpectralAmplitude,
    SpectralAmplitude,
    _levenberg_marquardt,
    _reflection,
    fbg_reflectivity_fwhm,
    fbg_response,
    fit_fbg,
    fwhm_from_samples,
    joint_spectral_amplitude,
    load_filter_table,
    make_filter,
    tabulated_filter,
)
from cwhom.units import C_M_PER_S, wavelength_pm_to_angular

RNG_SEED = 20240917

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Compact grating used where the exact published geometry is not needed.
TEST_MODEL = FbgModel(length=0.02, n_sections=64, peak_kappa=120.0, order=2.0, width=0.8)


def kappa_of_z(model: FbgModel, z: np.ndarray) -> np.ndarray:
    """Apodization profile recomputed from its documented definition."""
    u = 2.0 * (z - model.length / 2.0) / (model.width * model.length)
    return model.peak_kappa * np.exp(-math.log(2.0) * np.abs(u) ** (2.0 * model.order))


def ode_reflectance(model: FbgModel, omega: float) -> float:
    """Coupled-mode reflectance by direct integration (independent oracle).

    Integrates dM/dz = A(z) M with the continuous profile, A built from
    the local detuning and coupling; the reflectance is |M21 / M11|^2.
    """
    delta = (omega - model.detuning_offset) * FBG_EFFECTIVE_INDEX / C_M_PER_S

    def rhs(z, y):
        m = y[:4].reshape(2, 2) + 1j * y[4:].reshape(2, 2)
        k = kappa_of_z(model, np.array([z]))[0]
        a = np.array([[-1j * delta, -1j * k], [1j * k, 1j * delta]])
        dm = a @ m
        return np.concatenate([dm.real.ravel(), dm.imag.ravel()])

    y0 = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    sol = solve_ivp(rhs, (0.0, model.length), y0, rtol=1e-10, atol=1e-12, method="DOP853")
    m = sol.y[:4, -1].reshape(2, 2) + 1j * sol.y[4:, -1].reshape(2, 2)
    return float(np.abs(m[1, 0] / m[0, 0]) ** 2)


# ---------------------------------------------------------------------------
# Grids


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(n_points=4, span=1e11)  # even
    with pytest.raises(ValueError):
        FrequencyGrid(n_points=1, span=1e11)  # too short
    with pytest.raises(ValueError):
        FrequencyGrid(n_points=33, span=0.0)


def test_grid_symmetry_and_step():
    g = FrequencyGrid(n_points=33, span=1.6e11)
    w = g.omega
    assert w.size == 33
    assert w[16] == 0.0
    assert np.allclose(w, -w[::-1])
    assert g.step == pytest.approx(2 * 1.6e11 / 32, rel=1e-15)


# ---------------------------------------------------------------------------
# Analytic filters


def test_rect_filter_band_average_preserves_width():
    g = FrequencyGrid(n_points=257, span=8e11)
    # Width chosen so the band edges fall between grid nodes.
    fwhm = 1.2345e11
    f = make_filter(g, "rect", fwhm)
    assert np.sum(np.abs(f.amp) ** 2) * g.step == pytest.approx(fwhm, rel=1e-12)
    assert abs(f.amp[g.n_points // 2]) == 1.0


@pytest.mark.parametrize("kind", ["gaussian", "lorentzian"])
def test_soft_filters_half_power_at_half_width(kind):
    fwhm = 2e11
    g = FrequencyGrid(n_points=1601, span=8e11)
    f = make_filter(g, kind, fwhm)
    # fwhm/2 lands exactly on a node for this span and point count.
    idx = np.flatnonzero(np.isclose(g.omega, fwhm / 2.0))
    assert idx.size == 1
    assert np.abs(f.amp[idx[0]]) ** 2 == pytest.approx(0.5, rel=1e-12)
    assert np.abs(f.amp[g.n_points - 1 - idx[0]]) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_filter_peak_is_unity():
    g = FrequencyGrid(n_points=257, span=8e11)
    for kind in ("rect", "gaussian", "lorentzian"):
        f = make_filter(g, kind, 1e11)
        assert np.max(np.abs(f.amp)) == pytest.approx(1.0, abs=1e-15)


def test_make_filter_errors():
    g = FrequencyGrid(n_points=65, span=1e11)
    with pytest.raises(ValueError):
        make_filter(g, "rect", 0.0)
    with pytest.raises(ValueError):
        make_filter(g, "rect", 1.5e11)  # wider than the span
    with pytest.raises(ValueError):
        make_filter(g, "boxcar", 1e10)
    with pytest.raises(ValueError, match="finite"):
        make_filter(g, "gaussian", 1e10, center=np.nan)


def test_tabulated_filter_zero_outside_range():
    g = FrequencyGrid(n_points=129, span=4e11)
    om = np.linspace(-1e11, 1e11, 21)
    refl = np.exp(-((om / 5e10) ** 2))
    f = tabulated_filter(g, om, refl)
    outside = np.abs(g.omega) > 1.0001e11
    assert np.all(f.amp[outside] == 0)
    inside = np.abs(g.omega) < 0.99e11
    expected = np.sqrt(np.interp(g.omega[inside], om, refl))
    assert np.allclose(np.abs(f.amp[inside]), expected, rtol=1e-12)


def test_tabulated_filter_validation():
    g = FrequencyGrid(n_points=65, span=1e11)
    om = np.linspace(-1e10, 1e10, 11)
    ok = np.full(11, 0.5)
    with pytest.raises(ValueError):
        tabulated_filter(g, om[::-1], ok)
    with pytest.raises(ValueError):
        tabulated_filter(g, om, np.full(11, 1.5))
    with pytest.raises(ValueError, match="reflectance"):
        tabulated_filter(g, om, np.where(np.arange(11) == 5, np.nan, 0.5))
    with pytest.raises(ValueError):
        tabulated_filter(g, om, ok[:-1])
    with pytest.raises(ValueError):
        tabulated_filter(g, om[:1], ok[:1])


def test_tabulated_filter_applies_phase():
    g = FrequencyGrid(n_points=65, span=1e11)
    om = np.linspace(-1e11, 1e11, 41)
    refl = np.full(41, 0.49)
    phase = 0.3 * om / 1e11
    f = tabulated_filter(g, om, refl, phase)
    mid = g.n_points // 2
    assert np.angle(f.amp[mid + 5]) == pytest.approx(0.3 * g.omega[mid + 5] / 1e11, rel=1e-9)


def test_load_filter_table_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    wl = np.linspace(-60.0, 60.0, 31)
    refl = np.exp(-((wl / 25.0) ** 2))
    with open(path, "w") as fh:
        fh.write("wavelength_pm,reflectance\n")
        for w, r in zip(wl, refl):
            fh.write(f"{w},{r}\n")
    om, r2, ph = load_filter_table(path)
    assert ph is None
    assert np.all(np.diff(om) > 0)
    assert om[0] == pytest.approx(wavelength_pm_to_angular(-60.0), rel=1e-12)
    assert om[-1] == pytest.approx(wavelength_pm_to_angular(60.0), rel=1e-12)
    assert np.max(r2) == pytest.approx(1.0, rel=1e-12)


def test_load_filter_table_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lambda_nm,r\n0,0.5\n")
    with pytest.raises(ValueError):
        load_filter_table(path)


# ---------------------------------------------------------------------------
# Grating transfer matrix


def test_fbg_model_validation():
    good = dict(length=0.02, n_sections=64, peak_kappa=120.0, order=2.0, width=0.8)
    FbgModel(**good)
    for bad in (
        dict(good, length=0.0),
        dict(good, n_sections=8),
        dict(good, peak_kappa=-1.0),
        dict(good, order=0.5),
        dict(good, width=0.0),
        dict(good, width=1.2),
        dict(good, length=math.nan),
        dict(good, peak_kappa=math.nan),
        dict(good, order=math.nan),
        dict(good, width=math.nan),
        dict(good, detuning_offset=math.nan),
        dict(good, detuning_offset=math.inf),
    ):
        with pytest.raises(ValueError):
            FbgModel(**bad)


def test_zero_coupling_reflects_nothing():
    model = FbgModel(length=0.02, n_sections=32, peak_kappa=0.0, order=2.0, width=0.8)
    g = FrequencyGrid(n_points=65, span=2e11)
    r = fbg_response(model, g)
    assert np.max(np.abs(r.amp)) == 0.0


@pytest.mark.parametrize("order,width", [(1.0, 0.5), (2.0, 0.8), (8.0, 1.0)])
def test_on_resonance_reflectance_closed_form(order, width):
    # At zero detuning every section matrix is exp(kappa_k dz B) with a
    # shared generator, so the chain collapses to tanh^2 of the summed
    # coupling regardless of the apodization shape.
    model = FbgModel(length=0.03, n_sections=48, peak_kappa=90.0, order=order, width=width)
    dz = model.length / model.n_sections
    z = (np.arange(model.n_sections) + 0.5) * dz
    total = np.sum(kappa_of_z(model, z)) * dz
    g = FrequencyGrid(n_points=33, span=2e11)
    r2 = np.abs(fbg_response(model, g).amp[16]) ** 2
    assert r2 == pytest.approx(math.tanh(total) ** 2, abs=1e-12)


def test_detuning_offset_moves_the_resonance():
    offset = 7.84e9
    model = FbgModel(
        length=0.03, n_sections=48, peak_kappa=90.0, order=8.0, width=1.0,
        detuning_offset=offset,
    )
    dz = model.length / model.n_sections
    z = (np.arange(model.n_sections) + 0.5) * dz
    total = np.sum(kappa_of_z(model, z)) * dz
    # Grid [-offset, 0, +offset] samples the shifted resonance exactly.
    g = FrequencyGrid(n_points=3, span=offset)
    r2 = np.abs(fbg_response(model, g).amp) ** 2
    assert r2[2] == pytest.approx(math.tanh(total) ** 2, abs=1e-12)
    assert r2[1] < r2[2]
    assert r2[0] < r2[2]


@pytest.mark.parametrize("frac", [0.0, 0.3, 0.8, 1.5])
def test_transfer_matrix_against_ode_integration(frac):
    # Probe on resonance, mid-band, near the band edge, and outside.
    fwhm = fbg_reflectivity_fwhm(TEST_MODEL)
    omega = frac * fwhm / 2.0
    fine = FbgModel(
        length=TEST_MODEL.length, n_sections=256, peak_kappa=TEST_MODEL.peak_kappa,
        order=TEST_MODEL.order, width=TEST_MODEL.width,
    )
    g = FrequencyGrid(n_points=3, span=max(abs(omega), 1.0))
    idx = 2 if omega > 0 else 1 if omega == 0.0 else 0
    grid_omega = g.omega[idx]
    assert grid_omega == pytest.approx(omega, abs=1e-6)
    r2_engine = np.abs(fbg_response(fine, g).amp[idx]) ** 2
    r2_ode = ode_reflectance(fine, grid_omega)
    assert r2_engine == pytest.approx(r2_ode, abs=2e-5, rel=2e-4)


def test_section_doubling_converged_for_reference_grating():
    from cwhom.presets import FILTER_SIGNAL_A

    g = FrequencyGrid(n_points=513, span=3e11)
    coarse = np.abs(fbg_response(FILTER_SIGNAL_A, g).amp) ** 2
    doubled_model = FbgModel(
        length=FILTER_SIGNAL_A.length, n_sections=2 * FILTER_SIGNAL_A.n_sections,
        peak_kappa=FILTER_SIGNAL_A.peak_kappa, order=FILTER_SIGNAL_A.order,
        width=FILTER_SIGNAL_A.width,
    )
    doubled = np.abs(fbg_response(doubled_model, g).amp) ** 2
    assert np.max(np.abs(doubled - coarse)) < 1e-4


def test_section_error_shrinks_quadratically():
    g = FrequencyGrid(n_points=129, span=3e11)
    diffs = []
    prev = np.abs(fbg_response(TEST_MODEL, g).amp) ** 2
    for n in (128, 256, 512):
        model = FbgModel(
            length=TEST_MODEL.length, n_sections=n, peak_kappa=TEST_MODEL.peak_kappa,
            order=TEST_MODEL.order, width=TEST_MODEL.width,
        )
        cur = np.abs(fbg_response(model, g).amp) ** 2
        diffs.append(np.max(np.abs(cur - prev)))
        prev = cur
    assert diffs[1] < diffs[0] / 3.0
    assert diffs[2] < diffs[1] / 3.0


def test_reflectance_even_without_offset():
    g = FrequencyGrid(n_points=129, span=3e11)
    r = np.abs(fbg_response(TEST_MODEL, g).amp)
    assert np.allclose(r, r[::-1], rtol=1e-10, atol=1e-12)


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x, complex-safe, with the x -> 0 limit handled."""
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    out = np.sinh(xs) / xs
    return np.where(small, 1.0 + x**2 / 6.0, out)


def four_array_reflection(model: FbgModel, omega: np.ndarray) -> np.ndarray:
    """Reference chain: full complex 2x2 products with complex gamma."""
    dz = model.length / model.n_sections
    kappa = kappa_of_z(model, (np.arange(model.n_sections) + 0.5) * dz)
    delta = ((omega - model.detuning_offset) * FBG_EFFECTIVE_INDEX / C_M_PER_S).astype(complex)
    t11 = np.ones(omega.size, dtype=complex)
    t12 = np.zeros(omega.size, dtype=complex)
    t21 = np.zeros(omega.size, dtype=complex)
    t22 = np.ones(omega.size, dtype=complex)
    for k in kappa:
        gamma = np.sqrt(k**2 - delta**2)
        ch = np.cosh(gamma * dz)
        shc = _sinhc(gamma * dz) * dz
        f11 = ch - 1j * delta * shc
        f12 = -1j * k * shc
        f21 = 1j * k * shc
        f22 = ch + 1j * delta * shc
        t11, t12, t21, t22 = (
            t11 * f11 + t12 * f21,
            t11 * f12 + t12 * f22,
            t21 * f11 + t22 * f21,
            t21 * f12 + t22 * f22,
        )
    return t21 / t11


@pytest.mark.parametrize(
    "model", [*REFERENCE_FILTERS.values(), TEST_MODEL], ids=[*REFERENCE_FILTERS, "test_model"]
)
def test_two_array_chain_matches_four_array_chain(model):
    # Detunings from 4 peak couplings down to exactly zero: the stopband
    # (every section has kappa > |delta|), the band edge (kappa^2 - delta^2
    # changes sign along the apodized profile), and the sidelobes.
    kappa = kappa_of_z(model, (np.arange(model.n_sections) + 0.5) * model.length / model.n_sections)
    delta = model.peak_kappa * np.concatenate([np.linspace(-4.0, 4.0, 400), [0.0]])
    omega = model.detuning_offset + delta * C_M_PER_S / FBG_EFFECTIVE_INDEX
    omega[-1] = model.detuning_offset
    stop = np.abs(delta) < kappa.min()
    edge = (np.abs(delta) > kappa.min()) & (np.abs(delta) < kappa.max())
    side = np.abs(delta) > kappa.max()
    assert stop.sum() > 10 and edge.sum() > 10 and side.sum() > 100
    r = _reflection(model, omega)
    ref = four_array_reflection(model, omega)
    assert np.max(np.abs(r - ref)) < 1e-13


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    peak_kappa=st.floats(0.0, 200.0),
    order=st.floats(1.0, 8.0),
    width=st.floats(0.05, 1.0),
    offset_steps=st.integers(-40, 40),
)
def test_reflectance_bounded_and_even_about_offset(peak_kappa, order, width, offset_steps):
    grid = FrequencyGrid(n_points=257, span=3e11)
    model = FbgModel(
        length=0.02, n_sections=32, peak_kappa=peak_kappa, order=order, width=width,
        detuning_offset=offset_steps * grid.step,
    )
    r = np.abs(fbg_response(model, grid).amp)
    assert np.all(r <= 1.0 + 1e-12)
    # samples at offset +- k steps, k up to the nearer grid edge
    centre = grid.n_points // 2 + offset_steps
    reach = min(centre, grid.n_points - 1 - centre)
    up = r[centre : centre + reach + 1]
    down = r[centre - reach : centre + 1][::-1]
    assert np.allclose(up, down, rtol=1e-10, atol=1e-12)


def test_energy_conservation_is_enforced():
    g = FrequencyGrid(n_points=257, span=4e11)
    amp = fbg_response(TEST_MODEL, g).amp
    # |t|^2 = 1 - |r|^2 held to 1e-9 internally; spot-check the bound.
    assert np.max(np.abs(amp)) < 1.0 + 1e-12


def test_transfer_matrix_overflow_raises():
    model = FbgModel(length=0.05, n_sections=64, peak_kappa=3e4, order=2.0, width=0.8)
    g = FrequencyGrid(n_points=17, span=1e11)
    with pytest.raises(ValueError, match="overflow"):
        fbg_response(model, g)


def test_reflectivity_fwhm_is_memoised():
    model = replace(TEST_MODEL, peak_kappa=97.0)
    first = fbg_reflectivity_fwhm(model)
    hits = fbg_reflectivity_fwhm.cache_info().hits
    assert fbg_reflectivity_fwhm(replace(model)) == first
    assert fbg_reflectivity_fwhm.cache_info().hits == hits + 1
    assert fbg_reflectivity_fwhm.__wrapped__(model) == first


def test_reflectivity_fwhm_scale():
    # Stronger coupling widens the stopband.
    weak = FbgModel(length=0.02, n_sections=48, peak_kappa=60.0, order=2.0, width=0.8)
    strong = FbgModel(length=0.02, n_sections=48, peak_kappa=240.0, order=2.0, width=0.8)
    assert fbg_reflectivity_fwhm(strong) > fbg_reflectivity_fwhm(weak)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.floats(0.2, 1.9), apex=st.integers(40, 80), height=st.floats(1e-200, 1e200))
@example(a=1.7, apex=60, height=1.0)
def test_fwhm_from_samples_triangle_exact(a, apex, height):
    # the apex is a sample, so it is the sampled peak; the half-maximum
    # crossings sit a / 2 from it, at least two samples from any kink,
    # so linear interpolation is exact
    x = np.linspace(-3.0, 3.0, 121)
    y = height * np.clip(1.0 - np.abs(x - x[apex]) / a, 0.0, None)
    assert fwhm_from_samples(x, y) == pytest.approx(a, rel=1e-12)


def test_fwhm_from_samples_unbracketed_raises():
    x = np.linspace(-0.5, 0.5, 41)
    y = np.exp(-(x**2))  # edges stay above half max
    with pytest.raises(ValueError, match="not bracketed"):
        fwhm_from_samples(x, y)


@pytest.mark.parametrize("y, message", [
    ([0.0, 1.0, np.nan, 1.0, 0.0], "finite"),
    ([0.0, 1.0, np.inf, 1.0, 0.0], "finite"),
    ([-3.0, -2.0, -1.0, -2.0, -3.0], "positive"),
    ([-1.0, 0.0, -1.0, -2.0, -3.0], "positive"),
    ([0.0, 0.0, 0.0, 0.0, 0.0], "positive"),
])
def test_fwhm_from_samples_rejects_bad_samples(y, message):
    with pytest.raises(ValueError, match=message):
        fwhm_from_samples(np.arange(5.0), np.array(y))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(y=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30), step=st.floats(1e-15, 1e3),
       data=st.data())
def test_fwhm_from_samples_returns_a_width_or_raises(y, step, data):
    # any finite samples: a width within the sampled span, or a ValueError
    # that names the reason; a non-finite sample anywhere is refused
    x = step * np.arange(len(y))
    y = np.array(y)
    peak = y.max()
    if not peak > 0:
        with pytest.raises(ValueError, match="positive"):
            fwhm_from_samples(x, y)
    elif max(y[0], y[-1]) >= peak / 2:
        with pytest.raises(ValueError, match="not bracketed"):
            fwhm_from_samples(x, y)
    else:
        width = fwhm_from_samples(x, y)
        assert 0.0 <= width <= x[-1] - x[0]
        assert fwhm_from_samples(x, 3.0 * y) == pytest.approx(width, rel=1e-9, abs=1e-9 * step)
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    target = data.draw(st.sampled_from([x, y]))
    target[data.draw(st.integers(0, len(y) - 1))] = bad
    with pytest.raises(ValueError, match="finite"):
        fwhm_from_samples(x, y)


# ---------------------------------------------------------------------------
# Fitting


def dense_table(model: FbgModel, n: int = 161, span_factor: float = 2.5):
    fwhm = fbg_reflectivity_fwhm(model)
    span = span_factor * fwhm + abs(model.detuning_offset)
    g = FrequencyGrid(n_points=n if n % 2 else n + 1, span=span)
    r2 = np.abs(fbg_response(model, g).amp) ** 2
    return g.omega.copy(), r2


def test_fit_returns_seed_when_seed_is_exact():
    truth = FbgModel(length=0.02, n_sections=32, peak_kappa=100.0, order=2.0, width=0.8)
    # The fit evaluates the model at the table's own abscissae, so a table
    # sampled from the seed itself is reproduced with zero residual.
    span = 2.5 * fbg_reflectivity_fwhm(truth)
    g = FrequencyGrid(n_points=257, span=span)
    r2 = np.abs(fbg_response(truth, g).amp) ** 2
    om = g.omega[::4].copy()
    model, res = fit_fbg(om, r2[::4].copy(), truth, rng_seed=RNG_SEED, n_restarts=0)
    assert res == 0.0
    assert model == truth


def test_fit_recovers_perturbed_coupling():
    truth = FbgModel(length=0.02, n_sections=32, peak_kappa=100.0, order=2.0, width=0.8)
    om, r2 = dense_table(truth, n=101)
    seed = FbgModel(length=0.02, n_sections=32, peak_kappa=140.0, order=2.0, width=0.8)
    model, res = fit_fbg(om, r2, seed, rng_seed=RNG_SEED, n_restarts=1)
    assert model.peak_kappa == pytest.approx(truth.peak_kappa, rel=5e-2)
    assert model.order == pytest.approx(truth.order, rel=5e-2)
    assert model.width == pytest.approx(truth.width, rel=5e-2)
    assert abs(model.detuning_offset) < 0.05 * fbg_reflectivity_fwhm(truth)
    assert res < 1e-3


def test_fit_recovers_bundled_table_from_bundled_seed():
    # One least-squares start from the fbg fit scenario's seed (kappa 28%
    # low, no offset hint) lands on the calibrated grating to roundoff.
    with open(os.path.join(REPO, "scenarios", "fbg_fit.json")) as fh:
        seed = FbgModel(**json.load(fh)["fbg_fit"]["seed"])
    om, r2, _ = load_filter_table(os.path.join(REPO, "data", "filter_signal_a.csv"))
    model, res = fit_fbg(om, r2, seed, rng_seed=0, n_restarts=0)
    assert model.peak_kappa == pytest.approx(FILTER_SIGNAL_A.peak_kappa, rel=1e-8)
    assert model.order == pytest.approx(FILTER_SIGNAL_A.order, rel=1e-8)
    assert model.width == pytest.approx(FILTER_SIGNAL_A.width, rel=1e-8)
    assert res < 1e-18


def test_fit_validation():
    seed = FbgModel(length=0.02, n_sections=32, peak_kappa=100.0, order=2.0, width=0.8)
    om = np.linspace(-1e11, 1e11, 30)
    r2 = np.linspace(0.0, 0.9, 30)
    with pytest.raises(ValueError, match="too few"):
        fit_fbg(om[:10], r2[:10], seed)
    with pytest.raises(ValueError, match="increasing"):
        fit_fbg(om[::-1], r2, seed)
    with pytest.raises(ValueError, match="degenerate"):
        fit_fbg(om, np.full(30, 0.4), seed)
    with pytest.raises(ValueError, match="positive"):
        fit_fbg(om, -r2, seed)
    bad = r2.copy()
    bad[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fit_fbg(om, bad, seed)


def test_fit_refuses_a_seed_the_model_refuses():
    # kappa L too large: the transfer matrix overflows on the seed itself
    seed = FbgModel(length=0.05, n_sections=64, peak_kappa=3e4, order=2.0, width=0.8)
    om, r2 = dense_table(TEST_MODEL, n=41)
    with pytest.raises(ValueError, match="overflow"):
        fit_fbg(om, r2, seed, n_restarts=0)


def test_levenberg_marquardt_matches_lstsq_on_a_linear_problem():
    rng = np.random.default_rng(RNG_SEED)
    a = rng.standard_normal((40, 4))
    b = rng.standard_normal(40)
    x, r = _levenberg_marquardt(lambda x: a @ x - b, np.zeros(4))
    x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(x, x_ref, rtol=1e-7, atol=1e-9)
    assert r @ r == pytest.approx(np.sum((a @ x_ref - b) ** 2), rel=1e-12)


def test_levenberg_marquardt_survives_a_zero_jacobian_column():
    # x[1] never reaches the residual, as a clamped order or width does not
    a = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    b = np.array([1.0, 2.0, 2.0])
    x, r = _levenberg_marquardt(lambda x: a @ x - b, np.array([0.0, 0.7]))
    assert x[0] == pytest.approx(11.0 / 14.0, rel=1e-9)
    assert x[1] == 0.7


def test_levenberg_marquardt_stops_at_the_evaluation_cap():
    # exp(-x) has no minimizer: each Gauss-Newton step lowers the cost by
    # e^2 and moves x by 1, so only the cap ends the search
    calls = []

    def fun(x):
        calls.append(x)
        return np.exp(-x)

    x, _ = _levenberg_marquardt(fun, np.zeros(1))
    assert len(calls) <= LM_MAX_EVALS
    assert x[0] > 100.0


def test_model_json_roundtrip(tmp_path):
    from dataclasses import asdict

    from cwhom.cli import _write_json

    model = FbgModel(
        length=0.0456, n_sections=64, peak_kappa=71.25, order=8.0, width=1.0,
        detuning_offset=7.84e9,
    )
    path = tmp_path / "model.json"
    # the fbg_model artifact that `cwhom fbg fit` writes
    _write_json(str(path), asdict(model), "fbg_model")
    payload = json.loads(path.read_text())
    assert FbgModel(**payload) == model
    assert payload["length"] == model.length


# ---------------------------------------------------------------------------
# Joint spectral amplitude


def test_jsa_is_product_with_mirrored_idler():
    g = FrequencyGrid(n_points=257, span=4e11)
    s = make_filter(g, "gaussian", 1.2e11, center=3e10)
    i = make_filter(g, "gaussian", 0.9e11, center=-1e10)
    jsa = joint_spectral_amplitude(s, i, normalize=False)
    assert np.allclose(jsa.j_amp, s.amp * i.amp[::-1], rtol=0, atol=0)


def test_jsa_normalized_peak():
    g = FrequencyGrid(n_points=257, span=4e11)
    s = make_filter(g, "lorentzian", 1.2e11)
    i = make_filter(g, "gaussian", 0.9e11)
    jsa = joint_spectral_amplitude(s, i)
    assert np.max(np.abs(jsa.j_amp)) == pytest.approx(1.0, rel=1e-12)


def test_jsa_of_identical_rects_keeps_width():
    g = FrequencyGrid(n_points=2049, span=8e11)
    f = make_filter(g, "rect", 1e11)
    jsa = joint_spectral_amplitude(f, f, normalize=False)
    # |J| = coverage fraction for a centered rect pair, so the equivalent
    # width of |J| reproduces the band width exactly.
    assert np.sum(np.abs(jsa.j_amp)) * g.step == pytest.approx(1e11, rel=1e-9)


def test_jsa_of_nested_rects_takes_narrower_width():
    g = FrequencyGrid(n_points=2049, span=8e11)
    narrow = make_filter(g, "rect", 1e11)
    wide = make_filter(g, "rect", 3e11)
    jsa = joint_spectral_amplitude(narrow, wide, normalize=False)
    assert np.sum(np.abs(jsa.j_amp) ** 2) * g.step == pytest.approx(1e11, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_amplitudes_must_be_finite(bad):
    g = FrequencyGrid(n_points=65, span=1e11)
    values = np.full(65, 0.5, dtype=complex)
    values[7] = bad
    with pytest.raises(ValueError, match="finite"):
        SpectralAmplitude(grid=g, amp=values)
    with pytest.raises(ValueError, match="finite"):
        JointSpectralAmplitude(grid=g, j_amp=values)


def test_jsa_must_not_vanish():
    # an all-zero JSA has no support to size a coherence scan from
    with pytest.raises(ValueError, match="identically zero"):
        JointSpectralAmplitude(grid=FrequencyGrid(n_points=65, span=1e11), j_amp=np.zeros(65))


def test_jsa_grid_mismatch_raises():
    g1 = FrequencyGrid(n_points=257, span=4e11)
    g2 = FrequencyGrid(n_points=129, span=4e11)
    with pytest.raises(ValueError):
        joint_spectral_amplitude(make_filter(g1, "rect", 1e11), make_filter(g2, "rect", 1e11))


def test_disjoint_filters_raise():
    g = FrequencyGrid(n_points=513, span=8e11)
    s = make_filter(g, "rect", 5e10, center=3e11)
    i = make_filter(g, "rect", 5e10, center=3e11)
    # The idler is mirrored, so equal +detunings on both push the bands apart.
    with pytest.raises(ValueError, match="identically zero"):
        joint_spectral_amplitude(s, i)


def test_jsa_scales_bilinearly():
    g = FrequencyGrid(n_points=257, span=4e11)
    s = make_filter(g, "gaussian", 1.2e11)
    i = make_filter(g, "gaussian", 0.9e11)
    base = joint_spectral_amplitude(s, i, normalize=False).j_amp
    s_half = type(s)(grid=g, amp=0.5 * s.amp)
    halved = joint_spectral_amplitude(s_half, i, normalize=False).j_amp
    assert np.allclose(halved, 0.5 * base, rtol=1e-14)
