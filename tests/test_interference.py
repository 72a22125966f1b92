"""Four-photon coincidence engine tests.

The frequency-domain contraction is cross-checked against the brute-force
time-domain integration and against closed forms for the coherence FWHM
of each analytic filter shape.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from cwhom.detection import DetectorModel, jitter_kernel, jitter_sigma_time
from cwhom.interference import (
    SPAN_FACTOR,
    TAU23_TC_FACTOR,
    CoincidenceConfig,
    FourfoldEngine,
    GridResolutionError,
    InterferenceSetup,
    NumericalError,
    _CROSS_BLOCK,
    _diagonal_sums,
    _identical_source_setup,
    _lag_axis,
    _lag_sum_over_delays,
    _pair_amplitude,
    _plateau_delay,
    _required_n_points,
    _window_weights,
    analytic_jsa,
    analytic_source,
    build_setup,
    coherence_function,
    filter_width,
    fourfold_probability_oracle,
    hom_curve,
    jsa_coherence_fwhm,
    source_grid,
    visibility,
    visibility_at_zero_delay,
    visibility_map,
)
from cwhom.presets import reference_setup
from cwhom.spectral import (
    FrequencyGrid,
    JointSpectralAmplitude,
    joint_spectral_amplitude,
    make_filter,
)
from cwhom.units import FS, RECT_TC_PRODUCT

PS = 1e-12
JITTERS = (17e-12, 13e-12, 11e-12, 16e-12)


def with_estimated_coherence_times(setup, **changes):
    """setup with changes, carrying the numeric coherence FWHMs of its JSAs."""
    setup = dataclasses.replace(setup, **changes)
    return dataclasses.replace(
        setup, coherence_times=(jsa_coherence_fwhm(setup.jsa_a), jsa_coherence_fwhm(setup.jsa_b))
    )


def two_source_setup(tc_a, tc_b, tau_14, tau_23, jitters, kind="rect"):
    """Analytic sources with possibly different coherence times, carrying the numeric estimates."""
    windows = CoincidenceConfig(tau_14=tau_14, tau_23=tau_23)
    setup = build_setup(analytic_source(kind, tc_a), analytic_source(kind, tc_b), windows, jitters)
    return with_estimated_coherence_times(setup)


def full_grid_reference(setup):
    """Direct-term lag coefficients and cross cores over the whole grid.

    Built here from the n x n formulas, with no restriction to where the
    JSAs are nonzero: returns the lag axis x, the a-side scalars
    (a_phi2, a_phi3), the b-side lag coefficients (b_phi3, b_phi2), the
    two cross cores w3 = k_phi3 k12 k_phi2 and w4 = k_phi2 k12 k_phi3, and
    the 3-4 link k34.
    """
    grid = setup.jsa_a.grid
    n = grid.n_points
    x = _lag_axis(grid.n_points, grid.step)
    j1, j2, j3, j4 = setup.detectors.jitter_fwhm
    cfg = setup.windows

    def window(tau):
        return tau * np.sinc(tau * x / (2.0 * np.pi))

    g1 = jitter_kernel(j1, x)
    phi2 = window(cfg.tau_23) * jitter_kernel(j2, x)
    phi3 = window(cfg.tau_23) * jitter_kernel(j3, x)
    s14 = window(cfg.tau_14) * jitter_kernel(j4, x)
    ja, jb = setup.jsa_a.j_amp, setup.jsa_b.j_amp
    ra = np.correlate(ja, ja, mode="full")
    rb = np.correlate(jb, jb, mode="full")
    idx = np.arange(n)
    d = idx[None, :] - idx[:, None] + (n - 1)
    k12 = np.outer(ja, np.conj(ja)) * g1[d]
    k_phi2 = phi2[d].astype(complex)
    k_phi3 = phi3[d].astype(complex)
    return dict(
        x=x,
        a_phi2=np.sum(np.conj(ra) * g1 * phi2),
        a_phi3=np.sum(np.conj(ra) * g1 * phi3),
        b_phi3=np.conj(rb) * s14 * phi3,
        b_phi2=np.conj(rb) * s14 * phi2,
        w3=k_phi3 @ k12 @ k_phi2,
        w4=k_phi2 @ k12 @ k_phi3,
        k34=np.outer(jb, np.conj(jb)) * s14[d],
    )


def full_grid_terms(setup, taus):
    """Bracket terms T1..T4 (columns) per delay, contracted over the whole grid."""
    ref = full_grid_reference(setup)
    grid = setup.jsa_a.grid
    rows = []
    for tau in taus:
        phase = np.exp(1j * ref["x"] * tau)
        u = np.exp(1j * grid.omega * tau)
        rows.append([
            ref["a_phi2"] * np.sum(ref["b_phi3"] * phase),
            ref["a_phi3"] * np.sum(ref["b_phi2"] * phase),
            np.conj(u) @ (ref["k34"] * ref["w3"].T) @ u,
            np.conj(u) @ (ref["k34"] * ref["w4"].T) @ u,
        ])
    return np.array(rows) * grid.step**4


def support_span(setup):
    """[lo, hi) from the first to the last point where either JSA is nonzero."""
    nz = np.flatnonzero((setup.jsa_a.j_amp != 0) | (setup.jsa_b.j_amp != 0))
    return int(nz[0]), int(nz[-1]) + 1


def off_centre_setup():
    """Hand-made JSAs whose nonzeros sit off-centre and only partly overlap."""
    plain = two_source_setup(120 * PS, 80 * PS, 40 * PS, 280 * PS, JITTERS)
    grid = plain.jsa_a.grid
    n = grid.n_points

    def bump(start, width, rate):
        j = np.zeros(n, dtype=complex)
        k = np.arange(width)
        j[start : start + width] = np.sin(np.pi * (k + 1) / (width + 1)) ** 4 * np.exp(1j * rate * k**2)
        return JointSpectralAmplitude(grid=grid, j_amp=j)

    return with_estimated_coherence_times(
        plain, jsa_a=bump(n // 5, 31, 0.01), jsa_b=bump(n // 5 + 12, 37, -0.004)
    )


# Random small setups for the engine's property tests. Every time scale
# stays within 2 x the shortest coherence time, so a sized grid holds at
# most 229 points (rect) and each example takes milliseconds.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
KINDS = st.sampled_from(["rect", "gaussian"])
COHERENCE_TIMES = st.floats(100 * PS, 150 * PS)
HERALD_WINDOWS = st.floats(10 * PS, 100 * PS)
BS_WINDOWS = st.floats(150 * PS, 200 * PS)


def jitter_tuples(lowest):
    return st.tuples(*[st.floats(lowest, 30 * PS)] * 4)


# ---------------------------------------------------------------------------
# Engine vs time-domain oracle


# The zero-jitter zero-delay dip is excluded here: there the probability
# is a dip-suppressed difference of large terms, and the oracle, whose
# lattice step no jitter sets, reads 1.6e-2 above the engine. The engine
# is not the side that is off: with only channel 4 jittered by 4, 3 or
# 2 ps the two agree within 1.7e-6, and those engine values approach its
# jitter-free one as the jitter squared.
@pytest.mark.parametrize("jitter,tau", [
    (0.0, 100e-12),
    (17e-12, 0.0),
    (17e-12, 100e-12),
    (17e-12, 250e-12),
])
def test_engine_matches_time_domain_oracle(jitter, tau):
    setup = _identical_source_setup(100 * PS, 40 * PS, 280 * PS, jitter, "rect")
    engine = FourfoldEngine(setup).probability(tau)
    oracle = fourfold_probability_oracle(setup, tau)
    assert engine == pytest.approx(oracle, rel=1e-3)


UNEQUAL_RECT = dict(kind="rect", tc_a=120 * PS, tc_b=80 * PS, tau_14=40 * PS, tau_23=280 * PS,
                    jitters=JITTERS)


# every jitter is at least 5 ps: zero-jitter dips are excluded, as above
@PROPERTY_SETTINGS
@given(kind=KINDS, tc_a=COHERENCE_TIMES, tc_b=COHERENCE_TIMES, tau_14=HERALD_WINDOWS,
       tau_23=BS_WINDOWS, jitters=jitter_tuples(5 * PS), tau=st.floats(-100 * PS, 100 * PS))
@example(**UNEQUAL_RECT, tau=0.0)
@example(**UNEQUAL_RECT, tau=120 * PS)
def test_engine_matches_oracle_with_unequal_sources(kind, tc_a, tc_b, tau_14, tau_23, jitters, tau):
    setup = two_source_setup(tc_a, tc_b, tau_14, tau_23, jitters, kind)
    assert FourfoldEngine(setup).probability(tau) == pytest.approx(
        fourfold_probability_oracle(setup, tau), rel=1e-3
    )


# Channels 1-3 draw a zero jitter half the time; channel 4 always has one.
# A jitter-free herald window puts the oracle off at deep dips: over ~200
# rect and lorentzian draws of this box with channel 4 allowed zero, it
# read up to 3.0e-3 off the engine, against 1.5e-5 with channel 4
# jittered. On a rect dip 4.8e-3 off, channel-4 jitters of 4, 3 and 2 ps
# bring the oracle within 1.5e-8 of the engine, and those engine values
# converge on its jitter-free one, so the oracle is the side that is off.
OPTIONAL_JITTERS = st.one_of(st.just(0.0), st.floats(4 * PS, 30 * PS))


def test_engine_matches_oracle_over_drawn_setups():
    # engine and oracle at tau = 0 and one drawn delay, each point on its
    # own, with no shared normalization (measured worst: 4.0e-6)
    ran, refused = [], []

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["rect", "gaussian", "lorentzian"]),
           tc_a=st.floats(80 * PS, 250 * PS), tc_b=st.floats(80 * PS, 250 * PS),
           tau_14=st.floats(20 * PS, 600 * PS), tau_23_factor=st.floats(4.0, 8.0),
           jitters=st.tuples(OPTIONAL_JITTERS, OPTIONAL_JITTERS, OPTIONAL_JITTERS,
                             st.floats(4 * PS, 30 * PS)),
           tau_factor=st.floats(-2.0, 2.0))
    def check(kind, tc_a, tc_b, tau_14, tau_23_factor, jitters, tau_factor):
        tc_max = max(tc_a, tc_b)
        tau = tau_factor * tc_max
        setup = build_setup(
            analytic_source(kind, tc_a),
            analytic_source(kind, tc_b),
            CoincidenceConfig(tau_14=tau_14, tau_23=tau_23_factor * tc_max),
            jitters,
            reach=abs(tau),
        )
        delays = np.array([0.0, tau])
        # the oracle's documented exit-3 limit, met before any allocation
        try:
            oracle = np.array([fourfold_probability_oracle(setup, t) for t in delays])
        except GridResolutionError:
            refused.append(kind)
            return
        engine = FourfoldEngine(setup).probabilities(delays)
        assert np.all(np.abs(engine - oracle) <= 1e-3 * oracle)
        ran.append(kind)

    check()
    assert len(ran) >= 3 * len(refused), (ran, refused)


# ---------------------------------------------------------------------------
# Structural symmetries


@PROPERTY_SETTINGS
@given(kind=KINDS, tc_a=COHERENCE_TIMES, tc_b=COHERENCE_TIMES, tau_14=HERALD_WINDOWS,
       tau_23=BS_WINDOWS, jitters=jitter_tuples(0.0), tau=st.floats(1 * PS, 150 * PS))
@example(**dict(UNEQUAL_RECT, tau_23=600 * PS), tau=60 * PS)
@example(**dict(UNEQUAL_RECT, tau_23=600 * PS), tau=150 * PS)
@example(**dict(UNEQUAL_RECT, tau_23=600 * PS), tau=280 * PS)
def test_probability_even_in_delay(kind, tc_a, tc_b, tau_14, tau_23, jitters, tau):
    engine = FourfoldEngine(two_source_setup(tc_a, tc_b, tau_14, tau_23, jitters, kind))
    assert engine.probability(tau) == pytest.approx(engine.probability(-tau), rel=1e-9)


# Ordered pairs of unequal coherence times on a four-point lattice over
# 80-150 ps. The exchange residual of the windowed rect packets changes
# sign as either T_c moves, so between the lattice points the bounds
# below do not hold everywhere: T_c = 120 and 130 ps at 5 ps jitter give
# a wide-window residual of -2.3e-3 on this grid and on grids up to 8x
# finer, and near a sign change (T_c = 80 and 145 ps at 30 ps jitter)
# the ratio bound fails on the sized grid.
EXCHANGE_PAIRS = list(itertools.permutations(np.linspace(80 * PS, 150 * PS, 4), 2))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(tcs=st.sampled_from(EXCHANGE_PAIRS), jitter=st.floats(5 * PS, 30 * PS))
@example(tcs=(120 * PS, 80 * PS), jitter=15 * PS)
def test_exchange_symmetry_at_zero_delay(tcs, jitter):
    # Swapping the two sources relabels the channels. The trigger channel
    # carries no window while its opposite herald does, so the symmetry
    # is exact only in the wide-window limit; the residual must be small
    # and must shrink as the heralding window tightens. The time-domain
    # oracle reproduces the same residual, so it is physics of the
    # windowed model rather than an engine artifact.
    a, b = tcs

    def residual(t14, probability):
        fwd = two_source_setup(a, b, t14, 2000 * PS, (jitter,) * 4)
        rev = two_source_setup(b, a, t14, 2000 * PS, (jitter,) * 4)
        pf = probability(fwd, 0.0)
        pr = probability(rev, 0.0)
        return (pf - pr) / pr

    def engine_probability(setup, tau):
        return FourfoldEngine(setup).probability(tau)

    wide = residual(40 * PS, engine_probability)
    tight = residual(10 * PS, engine_probability)
    assert abs(wide) < 1e-3
    assert abs(tight) < abs(wide) / 5.0
    assert residual(40 * PS, fourfold_probability_oracle) == pytest.approx(wide, rel=1e-3)
    assert residual(10 * PS, fourfold_probability_oracle) == pytest.approx(tight, rel=1e-3)


def test_probabilities_match_per_delay_evaluation():
    setup = two_source_setup(120 * PS, 80 * PS, 40 * PS, 600 * PS, JITTERS)
    engine = FourfoldEngine(setup)
    taus = np.linspace(-300 * PS, 300 * PS, 13)
    batch = engine.probabilities(taus)
    single = np.array([engine.probability(t) for t in taus])
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)
    # the contraction runs over a small part of the grid, yet the reach
    # of the delay phase is still set by the full grid's step
    lo, hi = support_span(setup)
    assert engine._x.size == 2 * (hi - lo) - 1
    assert hi - lo < setup.jsa_a.grid.n_points // 10
    reach = 2.0 * math.pi / (8.0 * setup.jsa_a.grid.step)
    engine.probabilities(np.array([0.99 * reach]))
    with pytest.raises(GridResolutionError):
        engine.probabilities(np.array([0.0, 1.5 * reach]))


def chirped_setup():
    """Unequal BS-side jitters (j2 != j3) and a chirped source A.

    The jitters make the two cross cores w3 = k_phi3 k12 k_phi2 and
    w4 = k_phi2 k12 k_phi3 differ as products, and the chirp makes k12
    complex.
    """
    jitters = (17e-12, 5e-12, 60e-12, 16e-12)
    plain = two_source_setup(120 * PS, 80 * PS, 40 * PS, 280 * PS, jitters)
    grid = plain.jsa_a.grid
    chirp = np.exp(1j * (grid.omega / (0.1 * grid.span)) ** 2)
    return with_estimated_coherence_times(
        plain, jsa_a=JointSpectralAmplitude(grid=grid, j_amp=plain.jsa_a.j_amp * chirp)
    )


def test_second_cross_core_is_conjugate_transpose():
    # w4 = w3^H although the cores differ as products, because the
    # kernels are even
    setup = chirped_setup()
    grid = setup.jsa_a.grid
    engine = FourfoldEngine(setup)
    ref = full_grid_reference(setup)
    w3, w4 = ref["w3"], ref["w4"]
    assert np.abs(w4 - w3).max() > 1e-2 * np.abs(w4).max()
    assert np.abs(w4.imag).max() > 1e-2 * np.abs(w4).max()
    np.testing.assert_allclose(w4, w3.conj().T, rtol=0.0, atol=1e-12 * np.abs(w4).max())
    # the engine's cross-term rows are the diagonal sums of the full-grid
    # cores over the lags of the JSAs' nonzero span, and the full-grid
    # sums vanish exactly at every longer lag
    lo, hi = support_span(setup)
    m, n = hi - lo, grid.n_points
    assert m < n
    lags = np.arange(-(n - 1), n)
    inside = np.abs(lags) < m
    for row, core in ((2, w3), (3, w4)):
        full = ref["k34"] * core.T
        sums = np.array([np.trace(full, offset=lag) for lag in lags])
        np.testing.assert_allclose(
            engine._coeff[row], sums[inside], rtol=0.0, atol=1e-12 * np.abs(sums).max()
        )
        assert not np.any(sums[~inside])


def test_residue_cap_counts_the_first_cross_core_twice():
    # |k34| is symmetric, so the magnitudes |k34| |w3| of the second cross
    # core k34 * conj(w3) sum to those of the first, k34 * w3.T
    setup = chirped_setup()
    ref = full_grid_reference(setup)
    first = np.sum(np.abs(ref["k34"] * ref["w3"].T))
    second = np.sum(np.abs(ref["k34"]) * np.abs(ref["w3"]))
    assert 2.0 * first == pytest.approx(first + second, rel=1e-12, abs=0.0)
    direct = (abs(ref["a_phi2"]) * np.sum(np.abs(ref["b_phi3"]))
              + abs(ref["a_phi3"]) * np.sum(np.abs(ref["b_phi2"])))
    cap = setup.jsa_a.grid.step**4 * (direct + first + second)
    assert FourfoldEngine(setup)._residue_cap == pytest.approx(cap, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make_setup", [
    off_centre_setup,
    lambda: two_source_setup(120 * PS, 80 * PS, 40 * PS, 280 * PS, JITTERS),
], ids=["off-centre", "unequal-rect"])
def test_support_restriction_matches_full_grid_contraction(make_setup):
    setup = make_setup()
    lo, hi = support_span(setup)
    assert 0 < lo and hi < setup.jsa_a.grid.n_points
    # somewhere inside the span one of the two JSAs is exactly zero
    assert np.any(setup.jsa_a.j_amp[lo:hi] == 0) or np.any(setup.jsa_b.j_amp[lo:hi] == 0)
    engine = FourfoldEngine(setup)
    assert engine._x.size == 2 * (hi - lo) - 1
    taus = np.array([0.0, 35 * PS, -90 * PS, 150 * PS])
    want = full_grid_terms(setup, taus)
    p_want = (want[:, 0] + want[:, 1] - want[:, 2] - want[:, 3]).real
    np.testing.assert_allclose(engine.probabilities(taus), p_want, rtol=1e-12, atol=0.0)
    base = (want[0, 0] + want[0, 1]).real
    assert engine.baseline() == pytest.approx(base, rel=1e-12)
    v0 = (want[0, 2] + want[0, 3]).real / base
    assert visibility_at_zero_delay(setup) == pytest.approx(v0, rel=1e-12)


def test_oracle_alias_refusal_names_a_grid_that_resolves():
    def setup_on(n_points):
        source = analytic_source("rect", 100 * PS)
        return build_setup(
            source, source, CoincidenceConfig(tau_14=40 * PS, tau_23=280 * PS), JITTERS, n_points=n_points
        )

    # the 65-point grid's period, 451 ps, is under 1 / 0.45 of the 223 ps lag
    with pytest.raises(GridResolutionError, match="aliases") as err:
        fourfold_probability_oracle(setup_on(65), 0.0)
    need = err.value.required_n_points
    assert need == 73
    setup = setup_on(need)
    assert fourfold_probability_oracle(setup, 0.0) > 0


def test_oracle_pair_amplitude_skips_only_zeros():
    # The oracle's Fourier sum over the nonzero entries must equal the
    # dense sum over every grid point; the JSA spans four decades, so a
    # magnitude cut in place of the exact zero test would show.
    setup = off_centre_setup()
    grid = setup.jsa_a.grid
    v = np.linspace(-700 * PS, 700 * PS, 301)
    for jsa in (setup.jsa_a, setup.jsa_b):
        assert np.count_nonzero(jsa.j_amp) < grid.n_points // 5
        dense = np.exp(-1j * np.outer(v, grid.omega)) @ jsa.j_amp * grid.step
        got = _pair_amplitude(jsa, v)
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_dense_jsa_contracts_over_the_full_grid():
    setup = _identical_source_setup(165 * PS, 40 * PS, 2000 * PS, 17e-12, "gaussian")
    assert np.all(setup.jsa_a.j_amp != 0)
    assert support_span(setup) == (0, setup.jsa_a.grid.n_points)
    assert FourfoldEngine(setup)._x.size == 2 * setup.jsa_a.grid.n_points - 1


def test_engine_keeps_no_square_state():
    # a built engine holds the 4 x (2m - 1) lag coefficients and nothing
    # larger: no m x m core outlives the build
    setup = two_source_setup(120 * PS, 80 * PS, 40 * PS, 280 * PS, JITTERS)
    engine = FourfoldEngine(setup)
    lo, hi = support_span(setup)
    m = hi - lo
    assert engine._coeff.shape == (4, 2 * m - 1)
    assert m * m > engine._coeff.size
    held = [v for v in vars(engine).values() if isinstance(v, np.ndarray)]
    assert all(v.nbytes <= engine._coeff.nbytes for v in held)


@settings(deadline=None, derandomize=True)
@given(m=st.integers(1, 40), b=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(m=1, b=1, seed=0)
@example(m=2, b=1, seed=0)
@example(m=7, b=7, seed=0)
def test_diagonal_sums_match_a_double_loop(m, b, seed):
    # every block of b consecutive rows, at every row offset, adds the
    # sums of its own entries at their lags l - k in the whole array
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    b = min(b, m)
    for row0 in range(m - b + 1):
        want = np.zeros(2 * m - 1, dtype=complex)
        for k in range(row0, row0 + b):
            for l in range(m):
                want[l - k + m - 1] += a[k, l]
        got = np.zeros(2 * m - 1, dtype=complex)
        _diagonal_sums(a[row0 : row0 + b], row0, got)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


# the examples are the block edges of the engine's column walk: one
# column, one short of a block, one block, one past it, and two blocks and
# a part
@settings(max_examples=10, deadline=None, derandomize=True)
@given(m=st.integers(1, 2 * _CROSS_BLOCK + 3), seed=st.integers(0, 2**32 - 1))
@example(m=1, seed=0)
@example(m=_CROSS_BLOCK - 1, seed=1)
@example(m=_CROSS_BLOCK, seed=2)
@example(m=_CROSS_BLOCK + 1, seed=3)
@example(m=2 * _CROSS_BLOCK + 3, seed=4)
def test_streamed_build_matches_the_dense_cross_core(m, seed):
    # random complex JSAs on a support of m points, with a zero grid point
    # past each end, and unequal jitters on all four channels
    rng = np.random.default_rng(seed)
    n = m + 3 - m % 2
    grid = FrequencyGrid(n_points=n, span=0.5 * (n - 1) * 2e9)

    def jsa():
        j = np.zeros(n, dtype=complex)
        j[1 : m + 1] = rng.normal(size=m) + 1j * rng.normal(size=m)
        return JointSpectralAmplitude(grid=grid, j_amp=j / np.abs(j).max())

    setup = InterferenceSetup(
        jsa_a=jsa(), jsa_b=jsa(), detectors=DetectorModel(jitter_fwhm=(17e-12, 5e-12, 60e-12, 16e-12)),
        windows=CoincidenceConfig(tau_14=40 * PS, tau_23=280 * PS), coherence_times=(100 * PS,) * 2,
    )
    engine = FourfoldEngine(setup)
    assert engine._x.size == 2 * m - 1
    # the dense reference: the full-grid core k34 * w3.T and its diagonal
    # sums, over the lags of the support
    ref = full_grid_reference(setup)
    core = ref["k34"] * ref["w3"].T
    c3 = np.array([np.trace(core, offset=lag) for lag in range(-(m - 1), m)])
    inside = slice(n - m, n + m - 1)
    want = np.stack([ref["a_phi2"] * ref["b_phi3"][inside], ref["a_phi3"] * ref["b_phi2"][inside],
                     c3, np.conj(c3[::-1])])
    for got, row in zip(engine._coeff, want):
        np.testing.assert_allclose(got, row, rtol=0.0, atol=1e-13 * np.abs(row).max())
    cap = grid.step**4 * (abs(ref["a_phi2"]) * np.sum(np.abs(ref["b_phi3"]))
                          + abs(ref["a_phi3"]) * np.sum(np.abs(ref["b_phi2"]))
                          + 2.0 * np.sum(np.abs(core)))
    assert engine._residue_cap == pytest.approx(cap, rel=1e-13, abs=0.0)


def test_reference_engine_build_peaks_below_40_m2_bytes():
    # the build's only m x m arrays are its two real Toeplitz kernels,
    # 16 m^2 bytes, beside one block of columns at a time
    import tracemalloc

    setup = reference_setup(40 * PS, 2000 * PS, 800 * PS)
    lo, hi = support_span(setup)
    m = hi - lo
    assert m == 1407
    tracemalloc.start()
    try:
        FourfoldEngine(setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * m * m


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(["rect", "gaussian", "lorentzian"]), t_c=COHERENCE_TIMES,
       tau_14=HERALD_WINDOWS, tau_23=BS_WINDOWS, jitters=jitter_tuples(0.0), scale=st.floats(0.3, 4.0))
@example(kind="rect", t_c=165 * PS, tau_14=40 * PS, tau_23=2000 * PS, jitters=(17e-12,) * 4,
         scale=2.7)
@example(kind="gaussian", t_c=165 * PS, tau_14=40 * PS, tau_23=2000 * PS, jitters=JITTERS, scale=0.31)
@example(kind="lorentzian", t_c=100 * PS, tau_14=200 * PS, tau_23=800 * PS, jitters=(0.0,) * 4,
         scale=3.7)
def test_visibility_scale_invariance(kind, t_c, tau_14, tau_23, jitters, scale):
    # T_c, both windows and every jitter scaled together leave the grid's
    # point count and V unchanged: the sizing rule and the engine read only
    # ratios of times (measured |dV| <= 2.4e-15)
    base = _identical_source_setup(t_c, tau_14, tau_23, jitters, kind)
    scaled = _identical_source_setup(
        t_c * scale, tau_14 * scale, tau_23 * scale, tuple(j * scale for j in jitters), kind
    )
    assert scaled.jsa_a.grid.n_points == base.jsa_a.grid.n_points
    assert abs(visibility_at_zero_delay(scaled) - visibility_at_zero_delay(base)) <= 1e-13


def test_zero_delay_identity_with_baseline():
    setup = _identical_source_setup(165 * PS, 40 * PS, 2000 * PS, JITTERS, "rect")
    v0 = visibility_at_zero_delay(setup)
    engine = FourfoldEngine(setup)
    base = engine.baseline()
    p0 = engine.probability(0.0)
    assert v0 == pytest.approx((base - p0) / base, abs=1e-12)


# ---------------------------------------------------------------------------
# Physical monotonicities and limits


def test_visibility_decreases_with_jitter():
    vs = [
        visibility_at_zero_delay(_identical_source_setup(165 * PS, 40 * PS, 2000 * PS, j, "rect"))
        for j in (0.0, 10e-12, 20e-12, 40e-12)
    ]
    assert all(b < a for a, b in zip(vs, vs[1:]))


def test_visibility_decreases_with_heralding_window():
    vs = [
        visibility_at_zero_delay(_identical_source_setup(165 * PS, t14, 2000 * PS, 17e-12, "rect"))
        for t14 in (20e-12, 80e-12, 200e-12, 400e-12)
    ]
    assert all(b < a for a, b in zip(vs, vs[1:]))


def test_visibility_approaches_unity_for_tight_heralding():
    setup = _identical_source_setup(165 * PS, 1 * PS, 2000 * PS, 0.0, "rect")
    assert visibility_at_zero_delay(setup) > 0.999


# Lorentzian tails fall off as 1/W^2, so that shape needs a far wider
# grid before the truncated tail stops biasing the width.
@pytest.mark.parametrize("kind,product,span_factor,n_points,tol", [
    ("rect", RECT_TC_PRODUCT, 12.0, 2049, 2e-3),
    ("gaussian", 4.0 * math.sqrt(2.0) * math.log(2.0), 12.0, 2049, 2e-3),
    ("lorentzian", 2.0 * math.log(2.0), 256.0, 4097, 1e-2),
])
def test_coherence_fwhm_closed_forms(kind, product, span_factor, n_points, tol):
    t_c = 165 * PS
    w_f = product / t_c
    grid = FrequencyGrid(n_points=n_points, span=span_factor * w_f)
    f = make_filter(grid, kind, w_f)
    jsa = joint_spectral_amplitude(f, f)
    assert jsa_coherence_fwhm(jsa) == pytest.approx(t_c, rel=tol)


def test_rect_coherence_against_fft_oracle():
    # Independent oracle: the arrival-delay density is |FT of J|^2; take
    # the FFT on a heavily zero-padded grid and read the width off it.
    t_c = 165 * PS
    grid = FrequencyGrid(n_points=1025, span=8.0 * filter_width("rect", t_c))
    jsa = analytic_jsa(grid, "rect", t_c)

    n_fft = 1 << 20
    ft = np.fft.fft(jsa.j_amp, n=n_fft)
    g = np.abs(ft) ** 2
    t = np.fft.fftfreq(n_fft, d=grid.step / (2.0 * math.pi))
    order = np.argsort(t)
    t, g = t[order], g[order]
    half = 0.5 * g.max()
    above = np.flatnonzero(g >= half)
    lo, hi = above[0], above[-1]
    t_lo = np.interp(half, [g[lo - 1], g[lo]], [t[lo - 1], t[lo]])
    t_hi = np.interp(half, [g[hi + 1], g[hi]], [t[hi + 1], t[hi]])
    oracle_fwhm = t_hi - t_lo

    assert jsa_coherence_fwhm(jsa) == pytest.approx(oracle_fwhm, rel=1e-2)
    assert oracle_fwhm == pytest.approx(t_c, rel=1e-2)


def test_coherence_function_parity_and_width():
    t_c = 165 * PS
    grid = FrequencyGrid(n_points=1025, span=8.0 * filter_width("rect", t_c))
    jsa = analytic_jsa(grid, "rect", t_c)
    delays = np.linspace(-500 * PS, 500 * PS, 401)
    curve = coherence_function(jsa, 0.0, 0.0, delays)
    assert np.allclose(curve.density, curve.density[::-1], rtol=1e-9, atol=1e-9 * curve.density.max())
    assert curve.t_c_fwhm == pytest.approx(t_c, rel=2e-3)
    # Jitter broadens the measured arrival-delay density.
    blurred = coherence_function(jsa, 40e-12, 40e-12, delays)
    assert blurred.t_c_fwhm > curve.t_c_fwhm


def test_non_finite_coherence_density_raises_at_the_first_scan(monkeypatch):
    import cwhom.interference

    t_c = 165 * PS
    grid = FrequencyGrid(n_points=257, span=8.0 * filter_width("rect", t_c))
    # finite amplitudes whose products overflow: the lag sum comes out inf/nan
    j = 1e200 * analytic_jsa(grid, "rect", t_c).j_amp
    scans = []

    def counting_scan(*args):
        scans.append(args)
        return coherence_function(*args)

    monkeypatch.setattr(cwhom.interference, "coherence_function", counting_scan)
    with pytest.raises(NumericalError, match="not finite"):
        jsa_coherence_fwhm(JointSpectralAmplitude(grid=grid, j_amp=j))
    assert len(scans) == 1


def test_coherence_function_validation():
    t_c = 165 * PS
    jsa = analytic_jsa(FrequencyGrid(n_points=257, span=8.0 * filter_width("rect", t_c)), "rect", t_c)
    with pytest.raises(ValueError, match="at least 5"):
        coherence_function(jsa, 0.0, 0.0, np.array([-1e-10, 0.0, 1e-10]))
    with pytest.raises(ValueError, match="symmetric"):
        coherence_function(jsa, 0.0, 0.0, np.linspace(-1e-10, 3e-10, 21))
    u = np.linspace(-1.0, 1.0, 21)
    with pytest.raises(ValueError, match="uniformly spaced"):
        coherence_function(jsa, 0.0, 0.0, 1e-10 * u * np.abs(u))


# Counts below (5, 161) and above (8193) the 1129 lags of the grid, on a
# symmetric scan and on one that starts off zero.
@pytest.mark.parametrize("count,start", [(5, -1.0), (161, -0.3), (8193, -1.0)])
def test_lag_sum_matches_dense_sum(count, start):
    rng = np.random.default_rng(count)
    grid = FrequencyGrid(n_points=565, span=3e12)
    x = _lag_axis(grid.n_points, grid.step)
    coeff = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    delays = np.linspace(start * 400 * PS, 400 * PS, count)
    fast = _lag_sum_over_delays(coeff, x, delays)
    dense = np.concatenate([
        np.real(coeff @ np.exp(1j * np.outer(x, delays[lo : lo + 512])))
        for lo in range(0, count, 512)
    ])
    assert np.max(np.abs(fast - dense)) <= 1e-9 * np.max(np.abs(dense))


def test_window_weights_erf_matches_scipy():
    # the oracle's lattice around a 40 ps window with 17 ps FWHM jitter
    sigma = 17 * PS / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    lo, hi, step = -20 * PS, 20 * PS, sigma / 3.0
    u = np.arange(math.floor((lo - 5 * sigma) / step), math.ceil((hi + 5 * sigma) / step) + 1) * step
    rt2 = sigma * math.sqrt(2.0)
    ref = 0.5 * (erf((hi - u) / rt2) - erf((lo - u) / rt2))
    w = _window_weights(u, 1.0, lo, hi, sigma)
    assert w.dtype == float
    assert np.max(np.abs(w - ref)) <= 1e-15


# ---------------------------------------------------------------------------
# Dip curve, plateau bookkeeping, refusals


def test_hom_curve_fields_and_visibility():
    setup = _identical_source_setup(165 * PS, 40 * PS, 2000 * PS, JITTERS, "rect")
    delays = np.array([-400 * PS, -150 * PS, 0.0, 150 * PS, 400 * PS])
    curve = hom_curve(setup, delays)
    assert curve.dip == curve.values[2]
    assert curve.plateau_reliable
    assert curve.plateau > curve.dip
    assert 2 * 165 * PS <= curve.plateau_delay <= 1000 * PS
    v = visibility(curve)
    assert 0.9 < v < 1.0
    assert v == pytest.approx(visibility_at_zero_delay(setup), abs=2e-3)


def test_hom_curve_requires_zero_delay():
    setup = _identical_source_setup(100 * PS, 40 * PS, 800 * PS, 0.0, "rect")
    with pytest.raises(ValueError, match="tau = 0"):
        hom_curve(setup, np.array([-100 * PS, 50 * PS, 100 * PS]))


def test_short_bs_window_plateau_unreliable():
    setup = _identical_source_setup(165 * PS, 40 * PS, 330 * PS, 0.0, "rect")
    curve = hom_curve(setup, np.array([-100 * PS, 0.0, 100 * PS]))
    assert not curve.plateau_reliable
    with pytest.raises(ValueError, match="unreliable"):
        visibility(curve)


def test_source_grid_covers_and_resolves_every_source():
    # the rect source is the wider, the gaussian the longer-lived: the span
    # comes from one and the point count from the other's T_c
    wide = analytic_source("rect", 100 * PS)
    slow = analytic_source("gaussian", 400 * PS)
    grid = source_grid((wide, slow), 10 * PS)
    assert grid.span == SPAN_FACTOR * wide.width
    assert grid.n_points == _required_n_points(grid.span, 400 * PS) == 455
    assert source_grid((wide, dataclasses.replace(slow, floor=1025)), 10 * PS).n_points == 1025
    assert source_grid((wide, slow), 10 * PS, n_points=301).n_points == 301


def test_build_setup_samples_a_shared_source_once():
    grids = []
    source = analytic_source("rect", 100 * PS)
    counted = dataclasses.replace(source, jsa=lambda grid: grids.append(grid) or source.jsa(grid))
    setup = build_setup(counted, counted, CoincidenceConfig(tau_14=40 * PS, tau_23=800 * PS), JITTERS)
    assert len(grids) == 1 and setup.jsa_a is setup.jsa_b
    assert setup.coherence_times == (100 * PS, 100 * PS)


def test_grid_resolution_error_names_required_points():
    source = analytic_source("rect", 100 * PS)
    setup = build_setup(
        source, source, CoincidenceConfig(tau_14=40 * PS, tau_23=4000 * PS), (0.0,) * 4, n_points=129
    )
    with pytest.raises(GridResolutionError) as err:
        FourfoldEngine(setup).probability(0.0)
    assert err.value.required_n_points is not None
    assert err.value.required_n_points > 129
    assert isinstance(err.value, ValueError)


def test_config_validation():
    with pytest.raises(ValueError):
        CoincidenceConfig(tau_14=0.0, tau_23=1e-10)
    with pytest.raises(ValueError):
        CoincidenceConfig(tau_14=1e-10, tau_23=-1e-10)
    # windows below the 1 fs tag resolution, down to subnormal ones, and NaN
    for tiny in (0.999 * FS, 1e-300 * PS, math.nan):
        with pytest.raises(ValueError, match="at least 1 fs"):
            CoincidenceConfig(tau_14=tiny, tau_23=1e-10)
        with pytest.raises(ValueError, match="at least 1 fs"):
            CoincidenceConfig(tau_14=1e-10, tau_23=tiny)
    CoincidenceConfig(tau_14=FS, tau_23=FS)


def test_setup_rejects_mismatched_grids():
    g1 = FrequencyGrid(n_points=129, span=4e11)
    g2 = FrequencyGrid(n_points=257, span=4e11)
    jsa1 = joint_spectral_amplitude(make_filter(g1, "rect", 1e11), make_filter(g1, "rect", 1e11))
    jsa2 = joint_spectral_amplitude(make_filter(g2, "rect", 1e11), make_filter(g2, "rect", 1e11))
    with pytest.raises(ValueError, match="share"):
        InterferenceSetup(
            jsa_a=jsa1, jsa_b=jsa2,
            detectors=DetectorModel(jitter_fwhm=(0.0,) * 4),
            windows=CoincidenceConfig(tau_14=1e-11, tau_23=1e-10),
        )


def identical_165_setup():
    return _identical_source_setup(165 * PS, 40 * PS, 2000 * PS, JITTERS, "rect")


@pytest.mark.parametrize("times", [
    *((bad, 165 * PS) for bad in (math.nan, 0.0, -165 * PS, math.inf)),
    *((165 * PS, bad) for bad in (math.nan, 0.0, -165 * PS, math.inf)),
    (165 * PS,),
    (165 * PS,) * 3,
])
def test_setup_refuses_coherence_times_other_than_two_positive_finite_times(times):
    # NaN once gave a NaN plateau at a NaN delay, and 0 or -165 ps a
    # plateau flagged reliable inside the dip and an oracle that divided
    # by zero or returned 0
    with pytest.raises(ValueError, match="coherence_times must be two positive, finite times"):
        dataclasses.replace(identical_165_setup(), coherence_times=times)


def test_setup_without_coherence_times_is_refused_by_every_evaluation():
    bare = dataclasses.replace(identical_165_setup(), coherence_times=None)
    for evaluate in (
        FourfoldEngine,
        lambda setup: fourfold_probability_oracle(setup, 0.0),
        lambda setup: hom_curve(setup, np.array([0.0])),
    ):
        with pytest.raises(ValueError, match="no coherence_times"):
            evaluate(bare)


def test_bare_setup_primed_through_its_dict_evaluates_with_the_primed_times():
    # a bare setup whose times are written into its __dict__, as the
    # benchmark harness primes its own: the field is plain, so the write
    # is what every evaluation reads
    built = identical_165_setup()
    bare = InterferenceSetup(jsa_a=built.jsa_a, jsa_b=built.jsa_b, detectors=built.detectors,
                             windows=built.windows)
    primed = (150 * PS, 160 * PS)
    bare.__dict__["coherence_times"] = primed
    given = dataclasses.replace(built, coherence_times=primed)
    assert bare.coherence_times == primed
    delays = np.array([0.0, 100 * PS])
    curve, want = hom_curve(bare, delays), hom_curve(given, delays)
    assert curve.plateau_delay == want.plateau_delay != hom_curve(built, delays).plateau_delay
    assert np.array_equal(curve.values, want.values) and curve.plateau == want.plateau
    assert fourfold_probability_oracle(bare, 0.0) == fourfold_probability_oracle(given, 0.0)


def test_visibility_map_shape_and_monotonicity():
    tc = np.array([80 * PS, 160 * PS])
    t14 = np.array([40 * PS, 120 * PS])
    vmap = visibility_map(tc, t14, jitter=15e-12)
    assert vmap.shape == (2, 2)
    # Longer coherence time wins for every heralding window.
    assert np.all(vmap[1] > vmap[0])
    # Tighter heralding wins for every coherence time.
    assert np.all(vmap[:, 0] > vmap[:, 1])
    with pytest.raises(ValueError, match="reliable-plateau"):
        visibility_map(tc, t14, jitter=15e-12, tau23_factor=2.0)


def test_tau23_regime_is_one_constant():
    import json

    import cwhom.interference as interference
    from cwhom.schemas import SCHEMAS

    # an int, so the schema document states the minimum as 4
    assert interference.TAU23_TC_FACTOR == 4 and type(interference.TAU23_TC_FACTOR) is int
    assert '"tau23_factor": {"minimum": 4, "type": "number"}' in json.dumps(SCHEMAS["scenario"])
    # visibility_map refuses below it
    tc, t14 = np.array([80 * PS]), np.array([40 * PS])
    with pytest.raises(ValueError, match="reliable-plateau"):
        visibility_map(tc, t14, jitter=15e-12, tau23_factor=interference.TAU23_TC_FACTOR - 0.5)


# a stand-in JSA: _plateau_delay reads only the windows, jitters and
# coherence times of a setup
_TINY_JSA = JointSpectralAmplitude(grid=FrequencyGrid(n_points=3, span=1e9), j_amp=np.ones(3))


@settings(deadline=None, derandomize=True)
@given(tcs=st.tuples(*[st.floats(1 * PS, 500 * PS)] * 2), tau_14=st.floats(1 * PS, 500 * PS),
       tau_23=st.floats(1 * PS, 6000 * PS), jitters=jitter_tuples(0.0))
@example(tcs=(165 * PS, 165 * PS), tau_14=40 * PS, tau_23=2000 * PS, jitters=(15e-12,) * 4)
def test_plateau_is_reliable_exactly_when_its_clamp_interval_is_not_empty(tcs, tau_14, tau_23, jitters):
    setup = InterferenceSetup(
        jsa_a=_TINY_JSA, jsa_b=_TINY_JSA, detectors=DetectorModel(jitter_fwhm=jitters),
        windows=CoincidenceConfig(tau_14=tau_14, tau_23=tau_23), coherence_times=tcs,
    )
    tc_max, sigma = max(tcs), jitter_sigma_time(max(jitters))
    t_lo = max(2 * tc_max + tau_14 / 2 + 3 * sigma, 3 * max(jitters))
    t_hi = tau_23 / 2 - tc_max - tau_14 / 2 - 3 * sigma
    tau_p, reliable = _plateau_delay(setup)
    assert reliable == (t_hi >= t_lo)
    if reliable:
        # with rounding room: the bound is t_hi >= t_lo rearranged
        assert tau_23 >= (6 * tc_max + 2 * tau_14 + 12 * sigma) * (1 - 1e-12)
        assert tau_23 > TAU23_TC_FACTOR * tc_max
        assert t_lo <= tau_p <= t_hi
    else:
        assert tau_p <= tau_23 / 2


def test_unsupported_filter_kind_rejected():
    with pytest.raises(ValueError, match="unsupported filter kind"):
        _identical_source_setup(100 * PS, 40 * PS, 800 * PS, 0.0, "boxcar")
