"""Tests of the benchmark's checks and tracer on tiny hand-made inputs.

Run from the repository root:  python3 -m pytest perfbench -q
Each check is shown to accept a right answer and reject a wrong one.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.dirname(os.path.abspath(__file__)), os.path.join(ROOT, "src")]

import checks  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402

PS = 1e-12


# ---------------------------------------------------------------------------
# source-model


def test_fwhm_of_a_triangle():
    x = np.linspace(-2.0, 2.0, 41)
    assert checks.fwhm(x, np.maximum(1.0 - np.abs(x), 0.0)) == pytest.approx(1.0, abs=1e-12)


def test_fft_coherence_time_matches_rect_closed_form():
    from cwhom.spectral import FrequencyGrid, joint_spectral_amplitude, make_filter
    from cwhom.units import RECT_TC_PRODUCT

    w = RECT_TC_PRODUCT / (100 * PS)
    grid = FrequencyGrid(n_points=401, span=8.0 * w)
    f = make_filter(grid, "rect", w)
    tc = checks.jsa_coherence_time(joint_spectral_amplitude(f, f))
    assert tc == pytest.approx(100 * PS, rel=1e-2)


def test_fit_check():
    assert checks.fit_errors({"peak_kappa": 55.2290}, 1e-7, 55.2275) == []
    assert checks.fit_errors({"peak_kappa": 55.2400}, 1e-7, 55.2275)
    assert checks.fit_errors({"peak_kappa": 55.2275}, 2e-6, 55.2275)


def test_coherence_check():
    tau = np.linspace(-400.0, 400.0, 81)
    g = np.exp(-4 * math.log(2) * (tau / 164.0) ** 2)
    tc = checks.fwhm(tau, g)
    assert checks.coherence_errors(tau, g, tc) == []
    assert checks.coherence_errors(tau, g, tc * 1.001)  # CSV and report disagree
    wide = np.exp(-4 * math.log(2) * (tau / 190.0) ** 2)
    assert checks.coherence_errors(tau, wide, checks.fwhm(tau, wide))  # off the paper value


def test_visibility_check():
    assert checks.visibility_errors(0.9754) == []
    assert checks.visibility_errors(0.9770)


def test_even_dip_check():
    tau = np.linspace(-100.0, 100.0, 5)
    good = np.array([1.0, 0.6, 0.1, 0.6, 1.0])
    assert checks.even_dip_errors(tau, good, 0.1, 1.0) == []
    assert checks.even_dip_errors(tau, np.array([1.0, 0.6, 0.1, 0.5, 1.0]), 0.1, 1.0)
    assert checks.even_dip_errors(tau, np.array([1.0, 0.1, 0.2, 0.1, 1.0]), 0.2, 1.0)
    assert checks.even_dip_errors(tau, good, 1.2, 1.0)


def test_oracle_ratio_check():
    assert checks.oracle_ratio_errors({80.0: 0.6724}, {80.0: 0.6724001}) == []
    assert checks.oracle_ratio_errors({80.0: 0.6724}, {80.0: 0.6800})


def test_appendix_check():
    tau = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert checks.appendix_errors(tau, np.array([0.5, 0.9, 0.2, 0.9, 0.5])) == []
    assert checks.appendix_errors(tau, np.array([0.9, 0.5, 0.2, 0.5, 0.9]))  # max at the edge
    assert checks.appendix_errors(tau, np.array([0.5, 0.9, 0.95, 0.9, 0.5]))  # no dip at 0


def test_oracle_report_check():
    report = {"engine": [1.0, 2.0], "oracle": [1.0, 2.0004], "max_rel_deviation": 0.0004 / 2.0004,
              "pass": True, "tolerance": 1e-3}
    assert checks.oracle_report_errors(report) == []
    assert checks.oracle_report_errors(dict(report, **{"pass": False}))
    assert checks.oracle_report_errors(dict(report, oracle=[1.0, 2.01]))


# ---------------------------------------------------------------------------
# window-design


def _opt_result(exponent: float = 2.0) -> dict:
    mu = 0.01
    rows = [[tw, tc, (mu / (tc * PS)) ** exponent * tw * PS]
            for tw, tc in ((10.0, 40.0), (25.0, 50.0), (60.0, 150.0))]
    k = int(np.argmax([r[2] for r in rows]))
    return {"curve": rows, "rate_opt_hz": rows[k][2], "tau_w_opt_ps": rows[k][0], "tc_opt_ps": rows[k][1]}


def test_curve_check():
    assert checks.curve_errors(_opt_result(), 0.01) == []
    assert checks.curve_errors(_opt_result(exponent=1.0), 0.01)  # wrong exponent
    res = _opt_result()
    assert checks.curve_errors(dict(res, rate_opt_hz=res["rate_opt_hz"] * 0.99), 0.01)
    edge = _opt_result()
    edge["curve"] = edge["curve"][:2]
    edge.update(rate_opt_hz=edge["curve"][1][2], tau_w_opt_ps=25.0, tc_opt_ps=50.0)
    assert checks.curve_errors(edge, 0.01)  # optimum at the end of the scan


def test_target_order_check():
    assert checks.target_order_errors(9.2e5, 4.4e5) == []
    assert checks.target_order_errors(4.4e5, 4.4e5)


def test_opt_visibility_check():
    assert checks.opt_visibility_errors(0.8995, 0.90) == []
    assert checks.opt_visibility_errors(0.8985, 0.90)


def test_fine_grid_visibility_agrees_with_library_model():
    from cwhom.interference import _identical_source_setup, visibility_at_zero_delay

    tw, tc, jit = 25 * PS, 50 * PS, 15 * PS
    lib = visibility_at_zero_delay(_identical_source_setup(tc, tw, 4 * tc, jit, "rect"))
    assert checks.fine_grid_visibility(tw, tc, jit) == pytest.approx(lib, abs=1e-3)


def test_vismap_check():
    tau14 = 250.0 / np.array([1.0, 2.0, 3.0, 3.5, 4.0])
    good = np.array([0.85, 0.92, 0.94, 0.951, 0.955])
    assert checks.vismap_errors(tau14, good, 250.0) == []
    assert checks.vismap_errors(tau14, np.array([0.85, 0.96, 0.97, 0.98, 0.99]), 250.0)  # too early
    assert checks.vismap_errors(tau14, np.array([0.95, 0.96, 0.97, 0.98, 0.99]), 250.0)  # V(1) high
    assert checks.vismap_errors(tau14, np.array([0.85, 0.94, 0.92, 0.951, 0.955]), 250.0)  # not monotone


# ---------------------------------------------------------------------------
# tag-stream

TAGS = {"duration_ps": 1e9, "pair_rate_a_hz": 1e6, "pair_rate_b_hz": 1e6,
        "etas": [0.5, 1.0, 1.0, 0.5], "noise_rates_hz": [0.0, 0.0, 0.0, 0.0]}


def test_expected_events_closed_form():
    # 1000 pairs per source, each detected herald (1/2) plus partner (1)
    mean, sigma = checks.expected_events(TAGS)
    assert mean == pytest.approx(3000.0)
    assert sigma == pytest.approx(math.sqrt(2 * 1000 * (0.5 + 1.0 + 1.0)))


def test_event_count_check():
    assert checks.event_count_errors(3050, TAGS) == []
    assert checks.event_count_errors(3500, TAGS)


def test_stream_check():
    ch = np.array([1, 2, 3, 4])
    t = np.array([0, 5, 5, 9])
    assert checks.stream_errors(ch, t, 4) == []
    assert checks.stream_errors(ch, np.array([0, 5, 4, 9]), 4)
    assert checks.stream_errors(np.array([1, 2, 5, 4]), t, 4)
    assert checks.stream_errors(ch, t, 5)


def _edge_stream():
    # tau_23 = 2 ps -> half window 1000 fs; tau_14 = 1 ps -> 500 fs.
    # trigger at 10000: ch2 exactly on the early edge, ch3 on the late
    # edge, ch4 exactly on its edge -> counts only with inclusive edges.
    # trigger at 20000: ch3 one femtosecond outside -> never counts.
    ch = np.array([2, 1, 4, 3, 2, 1, 3, 4])
    t = np.array([9000, 10000, 10500, 11000, 19500, 20000, 21001, 20000])
    order = np.argsort(t, kind="stable")
    return ch[order], t[order]


def test_brute_force_counts_inclusive_edges():
    ch, t = _edge_stream()
    assert checks.brute_force_raw(ch, t, 2.0, 1.0, 0.0) == 1
    assert checks.brute_force_raw(ch, t, 2.0, 1.0, 1.1) == 0  # ch4 now 100 fs outside


def test_counts_check_rejects_off_by_one_window():
    ch, t = _edge_stream()
    brute = checks.brute_force_raw(ch, t, 2.0, 1.0, 0.0)
    good = {"raw": 1, "shifted_2": 0, "shifted_3": 0, "corrected": 1}
    assert checks.counts_errors(good, brute) == []
    # an exclusive-edge counter misses the trigger at 10000
    assert checks.counts_errors({"raw": 0, "shifted_2": 0, "shifted_3": 0, "corrected": 0}, brute)
    assert checks.counts_errors(dict(good, corrected=2), brute)


def test_brute_force_agrees_with_library_counter():
    from cwhom.interference import CoincidenceConfig
    from cwhom.timetags import TagStream, count_fourfolds

    rng = np.random.default_rng(5)
    t = np.sort(rng.integers(0, 2_000_000, 4000))
    ch = rng.integers(1, 5, t.size).astype(np.uint8)
    stream = TagStream(channels=ch, times_fs=t, duration=3e-9)
    cfg = CoincidenceConfig(tau_14=10 * PS, tau_23=40 * PS)
    for tau_ps in (0.0, 7.0, -12.0):
        assert checks.brute_force_raw(ch, t, 40.0, 10.0, tau_ps) == count_fourfolds(stream, cfg, tau_ps * PS)


# ---------------------------------------------------------------------------
# tracer


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, None]


def test_self_times_subtract_children():
    spans = [
        _span("cli.main", "cli", 0.0, 10.0, -1),
        _span("rates.optimize_window", "rates", 1.0, 9.0, 0),
        _span("interference.FourfoldEngine.__init__", "interference", 2.0, 5.0, 1),
        _span("interference.FourfoldEngine.__init__", "interference", 6.0, 8.0, 1),
    ]
    assert self_times(spans) == [2.0, 3.0, 3.0, 2.0]
    m = layer_metrics(spans)
    assert (m["cli.self_s"], m["rates.self_s"], m["interference.self_s"]) == (2.0, 3.0, 5.0)
    assert m["trace.self_sum_s"] == 10.0
    assert (m["interference.engine_builds"], m["rates.builds_cold"], m["rates.builds_warm"]) == (2, 2, 0)


def test_install_wraps_every_lookup_place():
    script = textwrap.dedent("""
        import cwhom.cli, cwhom.interference, cwhom.presets, cwhom.rates
        from tracer import Tracer, layer_metrics
        tracer = Tracer("t")
        tracer.install()
        assert cwhom.cli.hom_curve is cwhom.interference.hom_curve
        assert hasattr(cwhom.cli.hom_curve, "__wrapped__")
        assert hasattr(cwhom.rates.visibility_at_zero_delay, "__wrapped__")
        assert hasattr(cwhom.presets.fbg_response, "__wrapped__")
        assert hasattr(cwhom.cli._PRESET_SOURCES["b"], "__wrapped__")
        assert hasattr(cwhom.interference.FourfoldEngine.__init__, "__wrapped__")
        cwhom.interference.visibility_map([100e-12], [50e-12], 10e-12)
        m = layer_metrics(tracer.spans)
        assert m["interference.engine_builds"] == 1 and m["interference.vis0_calls"] == 1, m
        top = [s for s in tracer.spans if s[4] < 0]
        assert abs(m["trace.self_sum_s"] - sum(s[3] - s[2] for s in top)) < 1e-9
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.path.dirname(__file__)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
