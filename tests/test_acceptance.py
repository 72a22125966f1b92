"""Acceptance gate: one test per shipped claim, each printing a
PASS/FAIL line with the measured figure next to its tolerance.

Run with -s (or read the captured output of a failure) to see the
per-criterion lines.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from cwhom.detection import DetectorModel, effective_jitter
from cwhom.interference import (
    CoherenceCurve,
    CoincidenceConfig,
    FourfoldEngine,
    Source,
    _plateau_delay,
    analytic_jsa,
    analytic_source,
    build_setup,
    coherence_function,
    filter_width,
    fourfold_probability_oracle,
    hom_curve,
    jsa_coherence_fwhm,
    source_grid,
    source_jitters,
    visibility,
    visibility_at_zero_delay,
    visibility_map,
)
from cwhom.presets import (
    GRATING_GRID_FLOOR,
    REFERENCE_FILTERS,
    REFERENCE_JITTERS_FWHM,
    filtered_pair_jsa,
    tagger_composed_jitters,
)
from cwhom.rates import LossProfile, RateQuery, cw_fourfold_rate, optimize_window, pass_swaps, pulsed_rate
from cwhom.spectral import (
    FbgModel,
    FrequencyGrid,
    fbg_reflectivity_fwhm,
    fit_fbg,
    fwhm_from_samples,
    load_filter_table,
)
from cwhom.timetags import (
    SimScenario,
    accidental_params_from,
    analytic_accidentals,
    count_fourfolds,
    fourfold_counts,
    simulate_streams,
)

PS = 1e-12
QUARTET = (17 * PS, 13 * PS, 11 * PS, 16 * PS)
DATA_DIR = __file__.rsplit("/", 2)[0] + "/data"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def identical_setup(kind, t_c, tau_14, tau_23, jitters, extra_reach=0.0):
    # Carries the numeric estimate of its JSA's coherence FWHM (164.98 ps
    # for 165 ps), not the analytic T_c: it sets the clamped plateau delay
    # (789.9 ps) of criterion 2, which reads V = 0.97539956 with it and
    # 0.97539963 with the analytic 165 ps that the CLI's identical_165.json
    # run uses. Both values are pinned to 1e-9, so swapping the T_c source
    # of either fails a golden.
    source = analytic_source(kind, t_c)
    windows = CoincidenceConfig(tau_14=tau_14, tau_23=tau_23)
    reach = max(extra_reach, 6.0 * t_c, 3.0 * max(jitters), PS)
    setup = build_setup(source, source, windows, jitters, reach=reach)
    return dataclasses.replace(setup, coherence_times=(jsa_coherence_fwhm(setup.jsa_a),) * 2)


def test_criterion_1_engine_matches_time_domain_oracle():
    # >= 5 setups spanning tau_14 {40,200,600} ps, tau_23 {280,2000} ps,
    # jitters {0,17} ps; tolerance 1e-3 relative at each setup, with no
    # fitted scale; runtime budget 300 s.
    j17, j0 = (17 * PS,) * 4, (0.0,) * 4
    sweep = [
        (40 * PS, 280 * PS, j17, 0.0),
        (40 * PS, 280 * PS, j0, 100 * PS),
        (200 * PS, 280 * PS, j17, 0.0),
        (200 * PS, 2000 * PS, j0, 150 * PS),
        (600 * PS, 2000 * PS, j17, 0.0),
        (40 * PS, 2000 * PS, j17, 300 * PS),
    ]
    t0 = time.time()
    engine, oracle = [], []
    for tau_14, tau_23, jit, tau in sweep:
        s = identical_setup("rect", 165 * PS, tau_14, tau_23, jit, extra_reach=abs(tau))
        engine.append(FourfoldEngine(s).probability(tau))
        oracle.append(fourfold_probability_oracle(s, tau))
    elapsed = time.time() - t0
    engine, oracle = np.array(engine), np.array(oracle)
    max_rel = float(np.max(np.abs(engine - oracle) / oracle))
    report(1, max_rel <= 1e-3 and elapsed <= 300.0,
           f"{len(sweep)} setups, max rel dev {max_rel:.2e} <= 1e-3, {elapsed:.0f}s <= 300s")


def test_criterion_2_visibility_golden_number():
    # identical sources, T_c = 165 ps, detector jitters (17,13,11,16) ps
    # with the 4.2 ps rms tagger folded in, tau_23 = 2000 ps,
    # tau_14 = 40 ps: V = 0.956 +/- 0.02.
    composed = tuple(
        effective_jitter(components_fwhm=(j,), components_rms=(4.2 * PS,)) for j in QUARTET
    )
    setup = identical_setup("rect", 165 * PS, 40 * PS, 2000 * PS, composed)
    curve = hom_curve(setup, np.array([0.0]))
    v = visibility(curve)
    bare = visibility_at_zero_delay(
        identical_setup("rect", 165 * PS, 40 * PS, 2000 * PS, QUARTET)
    )
    report(2, 0.936 <= v <= 0.976 and curve.plateau_reliable,
           f"V = {v:.4f} in 0.956 +/- 0.02 (detector-only jitters give {bare:.4f})")
    assert v == np.float64(0.9753995610018338).item() or abs(v - 0.9753995610018338) < 1e-9


def test_two_visibilities_on_criterion_2_setup():
    # Criterion 2 reads the plateau visibility 1 - P(0)/P(tau_p); vismap and
    # the optimizer (criteria 4 and 8) read the baseline visibility
    # 1 - P(0)/B, B the direct terms at tau = 0. They differ by the ratio
    # P(tau_p)/B pinned here, so a change to either route shows.
    setup = identical_setup("rect", 165 * PS, 40 * PS, 2000 * PS,
                            tagger_composed_jitters(QUARTET, 4.2 * PS))
    assert setup.jsa_a.grid.n_points == 1377
    tau_p, reliable = _plateau_delay(setup)
    assert reliable and tau_p == pytest.approx(789.96 * PS, abs=0.01 * PS)
    engine = FourfoldEngine(setup)
    ratio = engine.probability(tau_p) / engine.baseline()
    assert ratio == pytest.approx(0.9645545350530204, rel=1e-9)
    v_plateau = visibility(hom_curve(setup, np.array([0.0])))
    v_baseline = visibility_at_zero_delay(setup)
    assert v_plateau == pytest.approx(0.97539956, abs=1e-8)
    assert v_baseline == pytest.approx(0.97627154, abs=1e-8)
    assert 1.0 - v_plateau == pytest.approx((1.0 - v_baseline) / ratio, rel=1e-9)


def test_criterion_3_coherence_times_from_fitted_models():
    # Fit every grating from its bundled reflectance table (seeded 25%
    # off in kappa, no offset hint), rebuild the pair spectra from the
    # fitted models, and check the coherence times: source A 244 ps and
    # source B 164 ps, both +/- 5%.  With rectangular filters the
    # coherence FWHM must match an independent FFT oracle to +/- 1%.
    fitted = {}
    for name, true_model in REFERENCE_FILTERS.items():
        omega, refl = load_filter_table(f"{DATA_DIR}/filter_{name}.csv")
        seed = FbgModel(
            length=true_model.length,
            n_sections=true_model.n_sections,
            peak_kappa=0.75 * true_model.peak_kappa,
            order=true_model.order,
            width=true_model.width,
            detuning_offset=0.0,
        )
        model, residual = fit_fbg(omega, refl, seed, rng_seed=0, n_restarts=2)
        assert residual < 1e-3, f"{name}: fit residual {residual:.2e}"
        fitted[name] = model

    delays = np.linspace(-800 * PS, 800 * PS, 3201)

    def pair_jsa(signal, idler, t_c):
        # the nominal t_c is what the fit is measured against; the 800 ps
        # scan, not it, sets the grid's point count
        width = max(fbg_reflectivity_fwhm(signal), fbg_reflectivity_fwhm(idler))
        source = Source(lambda grid: filtered_pair_jsa(signal, idler, grid), width, t_c, GRATING_GRID_FLOOR)
        return source.jsa(source_grid((source,), 800 * PS))

    jsa_a = pair_jsa(fitted["signal_a"], fitted["idler_a"], 244 * PS)
    tc_a = coherence_function(jsa_a, *source_jitters(REFERENCE_JITTERS_FWHM, "a"), delays).t_c_fwhm
    jsa_b = pair_jsa(fitted["signal_b"], fitted["idler_b"], 164 * PS)
    tc_b = coherence_function(jsa_b, *source_jitters(REFERENCE_JITTERS_FWHM, "b"), delays).t_c_fwhm
    ok_a = 0.95 * 244 * PS <= tc_a <= 1.05 * 244 * PS
    ok_b = 0.95 * 164 * PS <= tc_b <= 1.05 * 164 * PS

    # rect part: package FWHM vs a plain FFT of the same spectrum
    t_c = 165 * PS
    grid = FrequencyGrid(n_points=2049, span=8.0 * filter_width("rect", t_c))
    jsa = analytic_jsa(grid, "rect", t_c)
    tc_pkg = jsa_coherence_fwhm(jsa)
    n_fft = 1 << 20
    amp = np.zeros(n_fft, dtype=complex)
    amp[: grid.n_points] = jsa.j_amp
    times = np.fft.fftshift(np.fft.fftfreq(n_fft, d=grid.step / (2.0 * math.pi)))
    dens = np.abs(np.fft.fftshift(np.fft.fft(amp))) ** 2
    keep = np.abs(times) < 6.0 * t_c
    tc_fft = fwhm_from_samples(times[keep], dens[keep])
    rect_rel = abs(tc_pkg - tc_fft) / tc_fft

    report(3, ok_a and ok_b and rect_rel <= 1e-2,
           f"fitted T_cA = {tc_a / PS:.1f} ps (244 +/- 5%), T_cB = {tc_b / PS:.1f} ps "
           f"(164 +/- 5%); rect vs FFT oracle rel {rect_rel:.2e} <= 1e-2")


def test_criterion_4_ratio_law():
    # j = 50 ps, T_c <= 250 ps: smallest T_c/tau_14 with V >= 0.95 in
    # [3.0, 4.0]; V at ratio 1 in [0.80, 0.90].
    ratios = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0])
    t_c = 250 * PS
    v = visibility_map(np.array([t_c]), t_c / ratios, 50 * PS, tau23_factor=8.0)[0]
    passing = ratios[v >= 0.95]
    min_ratio = float(passing.min()) if passing.size else float("inf")
    report(4, 3.0 <= min_ratio <= 4.0 and 0.80 <= v[0] <= 0.90,
           f"min ratio for V >= 0.95 is {min_ratio} in [3, 4]; V(ratio 1) = {v[0]:.4f} "
           f"in [0.80, 0.90]")


def test_criterion_5_narrow_bs_window_shape():
    # tau_14 = 80 ps, tau_23 = 280 ps: local minimum at zero delay, an
    # interior maximum, and below 1% of that maximum beyond
    # T_c + tau_23 + 3 j.  Smooth (gaussian) spectra so the far tail is
    # filter-limited rather than set by the 1/tau^2 lobes of an ideal
    # rectangular band edge.
    t_c = 165 * PS
    setup = identical_setup("gaussian", t_c, 80 * PS, 280 * PS, QUARTET,
                            extra_reach=600 * PS)
    delays = np.linspace(-600 * PS, 600 * PS, 49)
    delays[24] = 0.0
    vals = FourfoldEngine(setup).probabilities(delays)
    i0, imax = 24, int(np.argmax(vals))
    local_min = vals[i0] < vals[i0 - 1] and vals[i0] < vals[i0 + 1]
    interior_max = 0 < imax < vals.size - 1 and imax != i0
    cut = t_c + 280 * PS + 3 * max(QUARTET)
    far_frac = float(vals[np.abs(delays) > cut].max() / vals[imax])
    report(5, local_min and interior_max and far_frac < 1e-2,
           f"min at 0, max at {delays[imax] / PS:.0f} ps, tail beyond "
           f"{cut / PS:.0f} ps at {far_frac:.1e} of max < 1e-2")


def _mc_scenario(gamma, seed):
    t = np.linspace(-100 * PS, 100 * PS, 401)
    density = CoherenceCurve(
        delays=t,
        density=np.exp(-4.0 * math.log(2.0) * (t / (20 * PS)) ** 2),
        t_c_fwhm=20 * PS,
    )
    return SimScenario(
        pair_rate_a=2e6, pair_rate_b=2e6, internal_delay_density=density,
        gamma=gamma, noise_rates=(7.5e6,) * 4, etas=(0.9, 1.0, 1.0, 1.0),
        detectors=DetectorModel(jitter_fwhm=QUARTET),
        duration=0.02, rng_seed=seed, pairing_horizon=1.6e-9,
    )


def test_criterion_6_accidentals_match_monte_carlo():
    # Closed-form window probabilities vs simulated counts within 3
    # Poisson sigma at 1e7 windows for gamma in {0, 0.5, 1}, and the
    # corrected visibility of a noisy stream recovers the injected V.
    tau_w = 2e-9
    cfg = CoincidenceConfig(tau_14=tau_w, tau_23=tau_w)
    worst = 0.0
    for gamma in (0.0, 0.5, 1.0):
        sc = _mc_scenario(gamma, seed=3)
        n_w = sc.duration / tau_w
        assert n_w >= 1e6
        stream = simulate_streams(sc)
        a0 = count_fourfolds(stream, cfg, 0.0)
        _, s2, s3 = fourfold_counts(stream, cfg, 0.0, 20 * tau_w)
        a = analytic_accidentals(accidental_params_from(sc, tau_w, bs_photon_fillers=True))
        for got, key in ((a0, "A0"), (s2, "As2"), (s3, "As3")):
            exp = a[key] * n_w
            pull = (got - exp) / math.sqrt(exp)
            worst = max(worst, abs(pull))
            assert abs(pull) < 3.0, f"gamma={gamma} {key}: {got} vs {exp:.1f}"
        exp_corr = a["P_real"] * n_w
        sigma = math.sqrt((a["A0"] + a["As2"] + a["As3"]) * n_w)
        pull = ((a0 - s2 - s3) - exp_corr) / sigma
        worst = max(worst, abs(pull))
        assert abs(pull) < 3.0, f"gamma={gamma} corrected: pull {pull:.2f}"

    # visibility recovery from a correlated stream
    v_inj, t_c = 0.9, 50 * PS
    t = np.linspace(-250 * PS, 250 * PS, 501)
    density = CoherenceCurve(
        delays=t,
        density=np.exp(-4.0 * math.log(2.0) * (t / t_c) ** 2),
        t_c_fwhm=t_c,
    )

    def gamma_step(delta):
        return np.where(np.abs(np.asarray(delta, dtype=float)) <= 5 * t_c,
                        (1.0 + v_inj) / 2.0, 0.5)

    sc = SimScenario(
        pair_rate_a=1e7, pair_rate_b=1e7, internal_delay_density=density,
        gamma=gamma_step, noise_rates=(1e5,) * 4, etas=(0.9, 1.0, 1.0, 0.9),
        detectors=DetectorModel(jitter_fwhm=QUARTET),
        duration=0.5, rng_seed=21, pairing_horizon=1.6e-9,
    )
    stream = simulate_streams(sc)
    cfg = CoincidenceConfig(tau_14=100 * PS, tau_23=2e-9)
    corr, var = {}, {}
    for tau in (0.0, 500 * PS):
        raw = count_fourfolds(stream, cfg, tau)
        _, s2, s3 = fourfold_counts(stream, cfg, tau, 20 * cfg.tau_23)
        corr[tau], var[tau] = raw - s2 - s3, raw + s2 + s3
    a, b = corr[0.0], corr[500 * PS]
    v_meas = 1.0 - a / b
    sigma_v = (a / b) * math.sqrt(var[0.0] / a**2 + var[500 * PS] / b**2)
    v_pull = (v_meas - v_inj) / sigma_v
    report(6, abs(v_pull) < 3.0,
           f"3 gammas within 3 sigma (worst pull {worst:.2f}); corrected V "
           f"{v_meas:.4f} vs injected {v_inj} (pull {v_pull:+.2f})")


def test_criterion_7_rate_hand_values():
    cw = cw_fourfold_rate(0.01, 100 * PS, 100 * PS)
    t_c = 650 * PS
    pl = pulsed_rate(0.01, t_c, t_c, 1e9)
    report(7, cw == 1.0e6 and pl == 1e5,
           f"cw_fourfold_rate = {cw:.1f} (= 1.0e6); pulsed_rate = {pl:.1f} (= 1e5)")


def test_criterion_8_optimizer_shape():
    # V_target 0.95 at j = 15 ps, mu = 0.01, T_c <= 800 ps: interior
    # maximum of R(tau_w); rate_opt strictly decreasing over targets
    # {0.85, 0.90, 0.95}.
    rates = []
    interior = True
    for v_target in (0.85, 0.90, 0.95):
        q = RateQuery(mu=0.01, jitter=15 * PS, v_target=v_target, tc_max=800 * PS)
        res = optimize_window(q)
        rates.append(res.rate_opt)
        k = int(np.argmax(res.curve[:, 2]))
        interior &= 0 < k < len(res.curve) - 1
        interior &= res.curve[0, 2] < res.rate_opt and res.curve[-1, 2] < res.rate_opt
    decreasing = rates[0] > rates[1] > rates[2]
    report(8, interior and decreasing,
           f"interior maxima at all targets; rate_opt {rates[0]:.3e} > {rates[1]:.3e} "
           f"> {rates[2]:.3e}")
    assert rates[2] == np.float64(440111.40674504224).item() or \
        abs(rates[2] - 440111.40674504224) / 440111.40674504224 < 1e-6


def test_criterion_9_declared_substitutions():
    # Absolute experimental count rates, the measured raw-vs-corrected
    # points, and yearly satellite swap totals need hardware or an
    # orbital loss generator; they are declared out of desk scale and
    # covered by criteria 1-8 plus this closed-form swaps hand check.
    profile = LossProfile(
        times=np.array([0.0, 300.0, 600.0]),
        losses_db=np.array([[30.0, 30.0, 2.2, 2.2]] * 3),
    )
    swaps = pass_swaps(profile, mu=0.01, t_c=800 * PS, tau_w=50 * PS)
    report(9, abs(swaps - 0.85) <= 0.01 * 0.85,
           f"declared: experimental absolutes substituted; pass_swaps = {swaps:.6f} "
           f"within 1% of 0.85")
