"""Rate model and optimizer tests.

The closed-form rates have exact hand values; the optimizer is checked
for bisection tightness and feasibility refusals against its own
visibility model.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cwhom.rates import (
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
    etas = (0.9, 0.8, 0.7, 0.6)
    assert cw_fourfold_rate(0.01, 200 * PS, 50 * PS, etas=etas) == pytest.approx(
        base * 0.9 * 0.8 * 0.7 * 0.6, rel=1e-14
    )


def test_cw_rate_validation_and_warning():
    with pytest.raises(ValueError):
        cw_fourfold_rate(0.0, 1e-10, 1e-11)
    with pytest.raises(ValueError):
        cw_fourfold_rate(0.01, -1e-10, 1e-11)
    with pytest.raises(ValueError):
        cw_fourfold_rate(0.01, 1e-10, 0.0)
    with pytest.raises(ValueError):
        cw_fourfold_rate(0.01, 1e-10, 1e-11, etas=(0.9, 0.9))
    with pytest.warns(UserWarning, match="tau_w"):
        cw_fourfold_rate(0.01, 1e-10, 2e-10)


def test_pulsed_rate_validation():
    with pytest.raises(ValueError):
        pulsed_rate(-0.01, 1e-10, 1e-10, 1e9)
    with pytest.raises(ValueError):
        pulsed_rate(0.01, 0.0, 1e-10, 1e9)
    with pytest.raises(ValueError):
        pulsed_rate(0.01, 1e-10, 1e-10, 0.0)


def test_rate_query_validation():
    with pytest.raises(ValueError):
        RateQuery(mu=0.3, jitter=0.0, v_target=0.9, tc_max=1e-10)
    with pytest.raises(ValueError):
        RateQuery(mu=0.01, jitter=-1e-12, v_target=0.9, tc_max=1e-10)
    with pytest.raises(ValueError):
        RateQuery(mu=0.01, jitter=0.0, v_target=1.0, tc_max=1e-10)
    with pytest.raises(ValueError):
        RateQuery(mu=0.01, jitter=0.0, v_target=0.9, tc_max=0.0)
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
    assert _visibility_model(res.tc_opt, res.tau_w_opt, q.jitter, q.filter_kind) >= q.v_target
    floor = max(res.tau_w_opt / 8.0, q.jitter / 4.0, 1e-12)
    if res.tc_opt > floor * 1.001:
        v_below = _visibility_model(res.tc_opt / TC_TIGHTNESS, res.tau_w_opt,
                                    q.jitter, q.filter_kind)
        assert v_below < q.v_target


def test_optimizer_interior_maximum():
    res = optimize_window(CANONICAL_QUERY)
    rates = res.curve[:, 2]
    k = int(np.argmax(rates))
    assert 0 < k < rates.size - 1
    assert rates[0] < rates[k]
    assert rates[-1] < rates[k]


def test_optimizer_unreachable_target():
    q = RateQuery(mu=0.01, jitter=50 * PS, v_target=0.99, tc_max=20 * PS)
    with pytest.raises(ValueError, match="unreachable"):
        optimize_window(q)
