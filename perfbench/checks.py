"""Correctness checks on the artifacts of one pass of each workload.

Every check returns a list of error strings; an empty list means it
passed. The small checks take plain numbers and arrays, so the tests can
feed them hand-made wrong answers. The ``check_<workload>`` functions
read a pass's artifacts, found from each call's ``--out`` argument, and
run the small checks on them. Expected values are independent computations (brute
force, the time-domain oracle, closed forms, a finer grid) or published
figures, never copies of an earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import COUNT_DELAYS_PS

PS = 1e-12
FS_PER_PS = 1000


# ---------------------------------------------------------------------------
# helpers


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def meta(call: dict) -> dict:
    """The JSON metadata line a CSV-emitting subcommand printed."""
    return json.loads(call["stdout"].strip().splitlines()[-1])


def out(call: dict) -> str:
    """The artifact path a call wrote (its --out argument)."""
    return call["argv"][call["argv"].index("--out") + 1]


def fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum by linear interpolation of the crossings."""
    i = int(np.argmax(y))
    half = y[i] / 2.0
    lo = i
    while lo > 0 and y[lo] > half:
        lo -= 1
    hi = i
    while hi < len(y) - 1 and y[hi] > half:
        hi += 1
    if y[lo] > half or y[hi] > half:
        raise ValueError("half maximum not bracketed")
    x_lo = x[lo] + (x[lo + 1] - x[lo]) * (half - y[lo]) / (y[lo + 1] - y[lo])
    x_hi = x[hi - 1] + (x[hi] - x[hi - 1]) * (y[hi - 1] - half) / (y[hi - 1] - y[hi])
    return float(x_hi - x_lo)


def jsa_coherence_time(jsa) -> float:
    """Jitter-free coherence FWHM of a JSA from a zero-padded FFT.

    |sum_k J_k exp(i k dW t)|^2 sampled at t = 2 pi m / (N dW); the
    padding makes the time step a few hundred times finer than the
    coherence time.
    """
    n_fft = 1 << 18
    g = np.abs(np.fft.fft(jsa.j_amp, n_fft)) ** 2
    g = np.fft.fftshift(g)
    t = (np.arange(n_fft) - n_fft // 2) * (2.0 * math.pi / (n_fft * jsa.grid.step))
    return fwhm(t, g)


def prime_coherence_times(setup) -> None:
    # InterferenceSetup caches its coherence times; the library's own lag
    # sum takes seconds on large grids, so supply the FFT values instead
    setup.__dict__["coherence_times"] = (
        jsa_coherence_time(setup.jsa_a),
        jsa_coherence_time(setup.jsa_b),
    )


# ---------------------------------------------------------------------------
# source-model

PAPER_TC_B_PS = 164.0
PAPER_VISIBILITY = 0.956


def fit_errors(model: dict, residual: float, truth_kappa: float) -> list[str]:
    err = []
    if not abs(model["peak_kappa"] - truth_kappa) <= 5e-3:
        err.append(f"fitted peak_kappa {model['peak_kappa']} is not within 5e-3 of {truth_kappa}")
    if not residual < 1e-6:
        err.append(f"fit residual {residual} is not below 1e-6")
    return err


def coherence_errors(tau_ps: np.ndarray, values: np.ndarray, tc_meta_ps: float) -> list[str]:
    err = []
    if not abs(tc_meta_ps / PAPER_TC_B_PS - 1.0) <= 0.05:
        err.append(f"source B coherence time {tc_meta_ps} ps is not within 5% of {PAPER_TC_B_PS} ps")
    tc_csv = fwhm(tau_ps, values)
    if not abs(tc_csv / tc_meta_ps - 1.0) <= 1e-6:
        err.append(f"FWHM of the coherence CSV {tc_csv} ps differs from the reported {tc_meta_ps} ps")
    return err


def visibility_errors(v: float) -> list[str]:
    if abs(v - PAPER_VISIBILITY) <= 0.02:
        return []
    return [f"identical-source visibility {v} is not within 0.956 +- 0.02"]


def even_dip_errors(tau: np.ndarray, values: np.ndarray, dip: float, plateau: float) -> list[str]:
    """A dip of identical sources: even in tau, deepest at tau = 0."""
    err = []
    if not np.array_equal(tau, -tau[::-1]):
        return ["delay scan is not symmetric about zero"]
    if np.max(np.abs(values - values[::-1])) > 1e-6 * np.max(np.abs(values)):
        err.append("dip curve is not even in tau")
    if tau[int(np.argmin(values))] != 0.0:
        err.append(f"dip minimum sits at {tau[int(np.argmin(values))]} ps, not at 0")
    if not 0.0 < dip < plateau:
        err.append(f"dip {dip} is not inside (0, plateau {plateau})")
    return err


def oracle_ratio_errors(ratios: dict, oracle_ratios: dict, tol: float = 1e-3) -> list[str]:
    """Dip values relative to tau = 0 against the time-domain oracle's."""
    return [
        f"P({tau} ps)/P(0) = {ratios[tau]} but the oracle gives {oracle_ratios[tau]}"
        for tau in ratios
        if not abs(ratios[tau] / oracle_ratios[tau] - 1.0) <= tol
    ]


def appendix_errors(tau: np.ndarray, values: np.ndarray) -> list[str]:
    err = []
    zero = np.flatnonzero(tau == 0.0)
    if zero.size != 1 or not 0 < zero[0] < len(tau) - 1:
        return ["appendix scan has no interior tau = 0 sample"]
    i = int(zero[0])
    if not (values[i] < values[i - 1] and values[i] < values[i + 1]):
        err.append("appendix curve has no local minimum at tau = 0")
    k = int(np.argmax(values))
    if k in (0, len(values) - 1):
        err.append("appendix curve has its maximum at the scan edge, not inside")
    return err


def oracle_report_errors(report: dict, tol: float = 1e-3) -> list[str]:
    err = []
    engine = np.asarray(report["engine"], dtype=float)
    oracle = np.asarray(report["oracle"], dtype=float)
    max_rel = float(np.max(np.abs(engine - oracle) / np.abs(oracle)))
    if not report["pass"] or not report["max_rel_deviation"] <= tol:
        err.append(f"oracle report fails: max_rel_deviation {report['max_rel_deviation']}")
    if not max_rel <= tol:
        err.append(f"engine and oracle columns differ by {max_rel} > {tol}")
    if not abs(max_rel - report["max_rel_deviation"]) <= 1e-9 * max(max_rel, 1e-300):
        err.append(f"reported deviation {report['max_rel_deviation']} != recomputed {max_rel}")
    return err


def reference_oracle_ratios(taus_ps: list[float]) -> dict:
    """P(tau)/P(0) of the reference sources from the time-domain oracle."""
    from cwhom.interference import fourfold_probability_oracle
    from cwhom.presets import reference_setup

    setup = reference_setup(tau_14=40 * PS, tau_23=2000 * PS, tau_max=800 * PS)
    prime_coherence_times(setup)
    p0 = fourfold_probability_oracle(setup, 0.0)
    return {tau: fourfold_probability_oracle(setup, tau * PS) / p0 for tau in taus_ps}


def check_source_model(calls: dict) -> list[str]:
    from cwhom.presets import FILTER_SIGNAL_A

    err = fit_errors(read_json(out(calls["fit"])), meta(calls["fit"])["residual"],
                     FILTER_SIGNAL_A.peak_kappa)
    _, coh = read_csv(out(calls["coherence"]))
    err += coherence_errors(coh[:, 0], coh[:, 1], meta(calls["coherence"])["t_c_fwhm_ps"])
    err += visibility_errors(read_json(out(calls["visibility"]))["visibility"])

    _, d165 = read_csv(out(calls["dip_165"]))
    m165 = meta(calls["dip_165"])
    err += even_dip_errors(d165[:, 0], d165[:, 2], m165["dip"], m165["plateau"])

    # the reference sources carry grating phase, so their dip is neither
    # even nor centred; it is checked against the oracle instead
    _, ref = read_csv(out(calls["dip_scan"]))
    mref = meta(calls["dip_scan"])
    if not 0.0 < mref["dip"] < mref["plateau"]:
        err.append(f"reference dip {mref['dip']} is not inside (0, plateau {mref['plateau']})")
    tau, raw = ref[:, 0], ref[:, 2]
    i0 = int(np.flatnonzero(tau == 0.0)[0])
    picks = [float(tau[int(np.argmin(raw))]), float(tau[int(np.argmax(raw))])]
    ratios = {t: float(raw[int(np.flatnonzero(tau == t)[0])] / raw[i0]) for t in picks}
    err += oracle_ratio_errors(ratios, reference_oracle_ratios(picks))

    _, app = read_csv(out(calls["dip_appendix"]))
    err += appendix_errors(app[:, 0], app[:, 1])
    err += oracle_report_errors(read_json(out(calls["oracle_check"])))
    return err


# ---------------------------------------------------------------------------
# window-design


def curve_errors(result: dict, mu: float) -> list[str]:
    err = []
    curve = np.asarray(result["curve"], dtype=float)
    tw, tc, rate = curve[:, 0] * PS, curve[:, 1] * PS, curve[:, 2]
    expect = (mu / tc) ** 2 * tw
    bad = np.flatnonzero(np.abs(rate / expect - 1.0) > 1e-9)
    if bad.size:
        err.append(f"{bad.size} curve rows break rate = (mu/T_c)^2 tau_w, first at row {bad[0]}")
    k = int(np.argmax(rate))
    if result["rate_opt_hz"] != rate[k]:
        err.append(f"rate_opt {result['rate_opt_hz']} is not the curve maximum {rate[k]}")
    if (result["tau_w_opt_ps"], result["tc_opt_ps"]) != (curve[k, 0], curve[k, 1]):
        err.append("optimum window and coherence time are not the maximal row")
    if k in (0, len(rate) - 1):
        err.append("optimum lies at the edge of the window scan")
    return err


def target_order_errors(rate_lo_target: float, rate_hi_target: float) -> list[str]:
    if rate_lo_target > rate_hi_target:
        return []
    return [f"rate_opt at the lower target {rate_lo_target} is not above {rate_hi_target}"]


def fine_grid_visibility(tau_w: float, t_c: float, jitter: float, refine: float = 1.5) -> float:
    """Zero-delay visibility of identical rect sources, built here on a finer grid.

    Same physics as the optimizer's model (tau_14 = tau_w, tau_23 = 4 T_c),
    with a grid `refine` times denser than the resolution rule needs.
    """
    from cwhom.detection import DetectorModel
    from cwhom.interference import CoincidenceConfig, InterferenceSetup, visibility_at_zero_delay
    from cwhom.spectral import FrequencyGrid, joint_spectral_amplitude, make_filter
    from cwhom.units import RECT_TC_PRODUCT

    w_f = RECT_TC_PRODUCT / t_c
    span = 8.0 * w_f
    t_max = max(tau_w, 4.0 * t_c)
    n = int(math.ceil(refine * 2.0 * span * 8.0 * t_max / (2.0 * math.pi))) + 1
    grid = FrequencyGrid(n_points=n | 1, span=span)
    f = make_filter(grid, "rect", w_f)
    jsa = joint_spectral_amplitude(f, f)
    setup = InterferenceSetup(
        jsa_a=jsa, jsa_b=jsa,
        detectors=DetectorModel(jitter_fwhm=(jitter,) * 4),
        windows=CoincidenceConfig(tau_14=tau_w, tau_23=4.0 * t_c),
    )
    prime_coherence_times(setup)
    return visibility_at_zero_delay(setup)


def opt_visibility_errors(v: float, v_target: float) -> list[str]:
    if v >= v_target - 1e-3:
        return []
    return [f"visibility {v} at the optimum is below the target {v_target} - 1e-3"]


def vismap_errors(tau14_ps: np.ndarray, v: np.ndarray, tc_ps: float) -> list[str]:
    err = []
    ratio = tc_ps / np.asarray(tau14_ps, dtype=float)
    order = np.argsort(ratio)
    ratio, v = ratio[order], np.asarray(v, dtype=float)[order]
    ok = ratio[v >= 0.95]
    if ok.size == 0 or not 3.0 <= ok.min() <= 4.0:
        err.append(f"smallest T_c/tau_14 with V >= 0.95 is {ok.min() if ok.size else None}, not in [3, 4]")
    at_one = v[ratio == 1.0]
    if at_one.size != 1 or not 0.80 <= at_one[0] <= 0.90:
        err.append(f"V at T_c/tau_14 = 1 is {at_one}, not in [0.80, 0.90]")
    if np.any(np.diff(v) <= 0):
        err.append("V does not fall as tau_14 grows")
    return err


def check_window_design(calls: dict, scenarios: dict) -> list[str]:
    err = []
    results = {}
    for stage in ("optimize_cold", "optimize_warm"):
        q = read_json(scenarios[stage])["rate_query"]
        res = read_json(out(calls[stage]))
        results[stage] = res
        err += [f"{stage}: {e}" for e in curve_errors(res, q["mu"])]
        v = fine_grid_visibility(res["tau_w_opt_ps"] * PS, res["tc_opt_ps"] * PS, q["jitter_ps"] * PS)
        err += [f"{stage}: {e}" for e in opt_visibility_errors(v, q["v_target"])]
    err += target_order_errors(results["optimize_cold"]["rate_opt_hz"], results["optimize_warm"]["rate_opt_hz"])
    header, rows = read_csv(out(calls["vismap"]))
    vm = read_json(scenarios["vismap"])["vismap"]
    err += vismap_errors(np.array([float(h) for h in header[1:]]), rows[0, 1:], vm["tc_values_ps"][0])
    return err


# ---------------------------------------------------------------------------
# tag-stream


def expected_events(tags: dict) -> tuple[float, float]:
    """Mean and standard deviation of the total tag count.

    Each pair yields a herald (efficiency eta_1 or eta_4) and a partner
    that leaves either beam-splitter port with probability 1/2, so the
    detected photons per pair K have E[K] = e_h + e_bs and
    E[K^2] = e_h + e_bs + 2 e_h e_bs; a compound Poisson count has
    variance rate * T * E[K^2]. Stray counts add plain Poisson terms.
    """
    t = tags["duration_ps"] * PS
    e1, e2, e3, e4 = tags["etas"]
    e_bs = (e2 + e3) / 2.0
    mean = var = 0.0
    for rate, e_h in ((tags["pair_rate_a_hz"], e1), (tags["pair_rate_b_hz"], e4)):
        mean += rate * t * (e_h + e_bs)
        var += rate * t * (e_h + e_bs + 2.0 * e_h * e_bs)
    noise = sum(tags["noise_rates_hz"]) * t
    return mean + noise, math.sqrt(var + noise)


def event_count_errors(n_events: int, tags: dict) -> list[str]:
    mean, sigma = expected_events(tags)
    if abs(n_events - mean) <= 5.0 * sigma:
        return []
    return [f"{n_events} events is not within 5 sigma ({sigma:.1f}) of the expected {mean:.1f}"]


def stream_errors(channels: np.ndarray, times_fs: np.ndarray, n_reported: int) -> list[str]:
    err = []
    if channels.size != n_reported:
        err.append(f"CSV holds {channels.size} events, the run reported {n_reported}")
    if np.any(np.diff(times_fs) < 0):
        err.append("CSV timestamps are not sorted")
    if not np.all(np.isin(channels, (1, 2, 3, 4))):
        err.append("CSV holds channels outside 1-4")
    return err


def brute_force_raw(channels, times_fs, tau23_ps: float, tau14_ps: float, tau_ps: float) -> int:
    """Trigger-anchored fourfolds by a plain two-pointer walk per channel.

    A channel-1 tag at t counts when channels 2 and 3 each have a tag in
    [t - tau23/2, t + tau23/2] and channel 4 one in
    [t + tau - tau14/2, t + tau + tau14/2], edges included.
    """
    channels = np.asarray(channels)
    times = np.asarray(times_fs, dtype=np.int64)
    h23 = round(tau23_ps * FS_PER_PS / 2)
    h14 = round(tau14_ps * FS_PER_PS / 2)
    off = round(tau_ps * FS_PER_PS)
    trig = times[channels == 1].tolist()

    def hits(tags: list, lo_off: int, hi_off: int) -> list:
        out, j, n = [], 0, len(tags)
        for t in trig:
            lo = t + lo_off
            while j < n and tags[j] < lo:
                j += 1
            out.append(j < n and tags[j] <= t + hi_off)
        return out

    h2 = hits(times[channels == 2].tolist(), -h23, h23)
    h3 = hits(times[channels == 3].tolist(), -h23, h23)
    h4 = hits(times[channels == 4].tolist(), off - h14, off + h14)
    return sum(1 for a, b, c in zip(h2, h3, h4) if a and b and c)


def counts_errors(counts: dict, brute_raw: int) -> list[str]:
    err = []
    if counts["raw"] != brute_raw:
        err.append(f"raw count {counts['raw']} != brute-force count {brute_raw}")
    if counts["corrected"] != counts["raw"] - counts["shifted_2"] - counts["shifted_3"]:
        err.append("corrected != raw - shifted_2 - shifted_3")
    return err


def check_tag_stream(calls: dict, scenarios: dict) -> list[str]:
    scenario = read_json(scenarios["simulate"])
    n_events = meta(calls["simulate"])["n_events"]
    err = event_count_errors(n_events, scenario["tags"])
    rows = np.loadtxt(out(calls["simulate"]), delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    channels, times = rows[:, 0], rows[:, 1]
    err += stream_errors(channels, times, n_events)
    win = scenario["windows"]
    for tau in COUNT_DELAYS_PS:
        counts = read_json(out(calls[f"count_{tau:g}"]))
        raw = brute_force_raw(channels, times, win["tau_23_ps"], win["tau_14_ps"], tau)
        err += [f"tau {tau:g} ps: {e}" for e in counts_errors(counts, raw)]
    return err


def check(workload: str, calls: dict, scenarios: dict) -> list[str]:
    """All checks of one pass; calls maps each stage to its call record."""
    if workload == "source-model":
        return check_source_model(calls)
    if workload == "window-design":
        return check_window_design(calls, scenarios)
    return check_tag_stream(calls, scenarios)
