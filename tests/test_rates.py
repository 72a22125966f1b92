"""Rate model and optimizer tests.

The closed-form rates have exact hand values; the optimizer is checked
for bisection tightness and feasibility refusals against its own
visibility model.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwhom.rates import (
    DEFAULT_WINDOW_RANGE,
    LossProfile,
    OptResult,
    RateQuery,
    TC_TIGHTNESS,
    _visibility_model,
    cw_fourfold_rate,
    optimize_window,
    pass_swaps,
    pulsed_rate,
)

PS = 1e-12
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# One canonical query reused across tests so the memoized visibility
# model is only computed once per session.
CANONICAL_QUERY = RateQuery(mu=0.01, jitter=15 * PS, v_target=0.85, tc_max=800 * PS)


# ---------------------------------------------------------------------------
# Closed-form rates


def test_cw_rate_hand_values():
    assert cw_fourfold_rate(0.01, 100 * PS, 100 * PS) == 1.0e6
    assert cw_fourfold_rate(0.01, 800 * PS, 200 * PS) == 3.125e4


def test_pulsed_rate_hand_value():
    assert pulsed_rate(0.01, 8e-10, 8e-10, 1e9) == 1e5


def test_cw_rate_scaling_laws():
    base = cw_fourfold_rate(0.01, 200 * PS, 50 * PS)
    assert cw_fourfold_rate(0.02, 200 * PS, 50 * PS) == pytest.approx(4 * base, rel=1e-14)
    assert cw_fourfold_rate(0.01, 400 * PS, 50 * PS) == pytest.approx(base / 4, rel=1e-14)
    assert cw_fourfold_rate(0.01, 200 * PS, 100 * PS) == pytest.approx(2 * base, rel=1e-14)


def test_cw_rate_factors():
    base = cw_fourfold_rate(0.01, 200 * PS, 50 * PS)
    assert cw_fourfold_rate(0.01, 200 * PS, 50 * PS, with_bsm_factor=True) == base / 2


def test_cw_rate_validation_and_warning():
    with pytest.raises(ValueError):
        cw_fourfold_rate(0.0, 1e-10, 1e-11)
    with pytest.raises(ValueError):
        cw_fourfold_rate(0.01, -1e-10, 1e-11)
    with pytest.raises(ValueError):
        cw_fourfold_rate(0.01, 1e-10, 0.0)
    for args in ((math.nan, 1e-10, 1e-11), (0.01, math.nan, 1e-11), (0.01, 1e-10, math.nan)):
        with pytest.raises(ValueError):
            cw_fourfold_rate(*args)
    with pytest.warns(UserWarning, match="tau_w"):
        cw_fourfold_rate(0.01, 1e-10, 2e-10)


def test_pulsed_rate_validation():
    with pytest.raises(ValueError):
        pulsed_rate(-0.01, 1e-10, 1e-10, 1e9)
    with pytest.raises(ValueError):
        pulsed_rate(0.01, 0.0, 1e-10, 1e9)
    with pytest.raises(ValueError):
        pulsed_rate(0.01, 1e-10, 1e-10, 0.0)
    for i in range(4):
        args = [0.01, 1e-10, 1e-10, 1e9]
        args[i] = math.nan
        with pytest.raises(ValueError):
            pulsed_rate(*args)
    # a rate past the float range: the square overflows, the product after
    # it overflows, or f_rep is infinite
    for args in ([1e200, 1e-10, 1e-10, 1e9], [1e150, 1e-10, 1e-10, 1e9], [0.01, 1e-10, 1e-10, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            pulsed_rate(*args)


def test_rate_query_validation():
    with pytest.raises(ValueError):
        RateQuery(mu=0.3, jitter=0.0, v_target=0.9, tc_max=1e-10)
    with pytest.raises(ValueError):
        RateQuery(mu=0.01, jitter=-1e-12, v_target=0.9, tc_max=1e-10)
    with pytest.raises(ValueError):
        RateQuery(mu=0.01, jitter=0.0, v_target=1.0, tc_max=1e-10)
    with pytest.raises(ValueError):
        RateQuery(mu=0.01, jitter=0.0, v_target=0.9, tc_max=0.0)
    with pytest.raises(ValueError, match="jitter"):
        RateQuery(mu=0.01, jitter=math.nan, v_target=0.9, tc_max=1e-10)
    with pytest.raises(ValueError, match="tc_max"):
        RateQuery(mu=0.01, jitter=0.0, v_target=0.9, tc_max=math.nan)
    with pytest.raises(ValueError):
        RateQuery(mu=0.01, jitter=0.0, v_target=0.9, tc_max=1e-10,
                  tau_w_range=(1e-10, 1e-11))


def test_opt_result_invariants():
    curve = np.array([[1e-11, 1e-10, 5.0], [2e-11, 1e-10, 7.0]])
    OptResult(tau_w_opt=2e-11, tc_opt=1e-10, rate_opt=7.0, curve=curve)
    with pytest.raises(ValueError, match="maximum"):
        OptResult(tau_w_opt=1e-11, tc_opt=1e-10, rate_opt=5.0, curve=curve)
    with pytest.raises(ValueError, match="curve"):
        OptResult(tau_w_opt=1e-11, tc_opt=1e-10, rate_opt=5.0, curve=np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# Loss profiles and swap yield


def test_loss_profile_validation():
    t = np.array([0.0, 10.0])
    ok = np.full((2, 4), 3.0)
    LossProfile(times=t, losses_db=ok)
    with pytest.raises(ValueError, match="two time"):
        LossProfile(times=np.array([0.0]), losses_db=ok[:1])
    with pytest.raises(ValueError, match="increasing"):
        LossProfile(times=np.array([10.0, 0.0]), losses_db=ok)
    with pytest.raises(ValueError, match="shape"):
        LossProfile(times=t, losses_db=np.full((2, 3), 3.0))
    with pytest.raises(ValueError, match="nonnegative"):
        LossProfile(times=t, losses_db=np.full((2, 4), -1.0))
    # a NaN fails every comparison, so finiteness is checked on its own
    for value in (math.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LossProfile(times=np.array([0.0, value]), losses_db=ok)
        bad = ok.copy()
        bad[1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            LossProfile(times=t, losses_db=bad)


def test_loss_profile_efficiencies():
    prof = LossProfile(times=np.array([0.0, 1.0]),
                       losses_db=np.array([[10.0, 20.0, 3.0, 0.0]] * 2))
    eta = prof.efficiencies()
    assert eta[0] == pytest.approx([0.1, 0.01, 10 ** -0.3, 1.0], rel=1e-12)


def test_loss_profile_csv(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text(
        "t_s,loss1_db,loss2_db,loss3_db,loss4_db\n"
        "0,30,30,2.2,2.2\n300,30,30,2.2,2.2\n600,30,30,2.2,2.2\n"
    )
    prof = LossProfile.from_csv(path)
    assert prof.times.size == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("time,l1,l2,l3,l4\n0,1,1,1,1\n")
    with pytest.raises(ValueError, match="header"):
        LossProfile.from_csv(bad)


def test_pass_swaps_constant_profile_hand_value():
    # 600 s pass at constant 30/30/2.2/2.2 dB: the integral collapses to
    # rate x duration; roughly 0.85 swaps for these numbers.
    prof = LossProfile(times=np.array([0.0, 300.0, 600.0]),
                       losses_db=np.array([[30.0, 30.0, 2.2, 2.2]] * 3))
    got = pass_swaps(prof, mu=0.01, t_c=800 * PS, tau_w=50 * PS)
    expected = 0.5 * (0.01 / (800 * PS)) ** 2 * (50 * PS) * 10 ** (-6.44) * 600.0
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.85, rel=1e-2)


def test_pass_swaps_integrates_time_variation():
    # Loss ramping 0 -> 10 dB on one channel: trapezoid of 1, 10^-0.5,
    # 10^-1 over two 5 s panels.
    prof = LossProfile(times=np.array([0.0, 5.0, 10.0]),
                       losses_db=np.array([[0.0] * 4, [5.0, 0, 0, 0], [10.0, 0, 0, 0]]))
    base = cw_fourfold_rate(0.01, 800 * PS, 50 * PS, with_bsm_factor=True)
    expected = base * (2.5 * (1 + 10 ** -0.5) + 2.5 * (10 ** -0.5 + 10 ** -1))
    assert pass_swaps(prof, 0.01, 800 * PS, 50 * PS) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Window/coherence optimizer


def test_optimizer_curve_and_tightness():
    res = optimize_window(CANONICAL_QUERY)
    q = CANONICAL_QUERY
    assert res.curve.shape[1] == 3
    assert res.rate_opt == res.curve[:, 2].max()
    assert q.tau_w_range[0] <= res.tau_w_opt <= q.tau_w_range[1]
    assert res.tc_opt <= q.tc_max

    # The reported coherence time meets the floor and is tight: 5%
    # smaller already fails, unless the row sits at the tc floor.
    assert _visibility_model(res.tc_opt, res.tau_w_opt, q.jitter) >= q.v_target
    floor = max(res.tau_w_opt / 8.0, q.jitter / 4.0, 1e-12)
    if res.tc_opt > floor * 1.001:
        v_below = _visibility_model(res.tc_opt / TC_TIGHTNESS, res.tau_w_opt, q.jitter)
        assert v_below < q.v_target


def test_optimizer_interior_maximum():
    res = optimize_window(CANONICAL_QUERY)
    rates = res.curve[:, 2]
    k = int(np.argmax(rates))
    assert 0 < k < rates.size - 1
    assert rates[0] < rates[k]
    assert rates[-1] < rates[k]


@settings(max_examples=6, deadline=None, derandomize=True)
@given(scale=st.floats(0.3, 4.0))
@example(scale=0.5)
@example(scale=3.0)
def test_optimizer_scales_with_every_time(scale):
    # optimize.json with its jitter, tc_max and window range scaled: the
    # optimum's times scale with them and its rate inversely, row by row of
    # the whole curve. The 1e-12 s T_c floor would break this below 1 ps;
    # here jitter / 4 >= 1.1 ps.
    with open(os.path.join(REPO, "scenarios", "optimize.json")) as fh:
        rq = json.load(fh)["rate_query"]

    def query(k):
        return RateQuery(
            mu=rq["mu"],
            jitter=rq["jitter_ps"] * PS * k,
            v_target=rq["v_target"],
            tc_max=rq["tc_max_ps"] * PS * k,
            tau_w_range=tuple(t * k for t in DEFAULT_WINDOW_RANGE),
        )

    base, scaled = optimize_window(query(1.0)), optimize_window(query(scale))
    got = scaled.curve / np.array([scale, scale, 1.0 / scale])
    assert got.shape == base.curve.shape
    np.testing.assert_allclose(got, base.curve, rtol=1e-13, atol=0.0)
    opt = (scaled.tau_w_opt / scale, scaled.tc_opt / scale, scaled.rate_opt * scale)
    np.testing.assert_allclose(opt, (base.tau_w_opt, base.tc_opt, base.rate_opt), rtol=1e-13, atol=0.0)


def test_optimizer_unreachable_target():
    q = RateQuery(mu=0.01, jitter=50 * PS, v_target=0.99, tc_max=20 * PS)
    with pytest.raises(ValueError, match="unreachable"):
        optimize_window(q)
