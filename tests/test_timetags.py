"""Tag-stream generator and coincidence-counting tests.

A handcrafted four-tag fixture pins the window logic exactly; the
stochastic generator is checked against Poisson expectations and the
closed-form accidental model on a fixed seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwhom.detection import DetectorModel
from cwhom.interference import CoherenceCurve, CoincidenceConfig
from cwhom.timetags import (
    _CSV_CHUNK,
    AccidentalParams,
    SimScenario,
    TagStream,
    accidental_params_from,
    analytic_accidentals,
    count_fourfolds,
    load_tags_csv,
    save_tags_csv,
    shifted_accidentals,
    simulate_streams,
)
from cwhom.units import FS

PS_FS = 1000  # femtoseconds per picosecond
TAU_W = 2e-9
MC_SEED = 3


def gaussian_density(t_c=20e-12, span=100e-12, n=401) -> CoherenceCurve:
    delays = np.linspace(-span, span, n)
    dens = np.exp(-4.0 * math.log(2.0) * (delays / t_c) ** 2)
    return CoherenceCurve(delays=delays, density=dens, t_c_fwhm=t_c)


def four_tag_stream(offset_fs=1_000_000):
    """One trigger with partners at +10 ps (ch 2), -20 ps (ch 3), +5 ps (ch 4)."""
    times = np.array([
        offset_fs - 20 * PS_FS,
        offset_fs,
        offset_fs + 5 * PS_FS,
        offset_fs + 10 * PS_FS,
    ])
    chans = np.array([3, 1, 4, 2])
    return TagStream(channels=chans, times_fs=times, duration=2e-9 + offset_fs * 1e-15)


# ---------------------------------------------------------------------------
# Exact window logic


def test_fourfold_found_with_wide_heralding_window():
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    assert count_fourfolds(four_tag_stream(), cfg, 0.0) == 1


def test_fourfold_lost_with_tight_heralding_window():
    cfg = CoincidenceConfig(tau_14=8e-12, tau_23=100e-12)
    assert count_fourfolds(four_tag_stream(), cfg, 0.0) == 0


def test_counting_is_translation_invariant():
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    assert count_fourfolds(four_tag_stream(5_000_000), cfg, 0.0) == 1
    assert count_fourfolds(four_tag_stream(123_456_789), cfg, 0.0) == 1


def test_delay_shifts_the_heralding_window():
    cfg = CoincidenceConfig(tau_14=8e-12, tau_23=100e-12)
    # Centering the 8 ps window on tau = 5 ps recovers the channel-4 tag.
    assert count_fourfolds(four_tag_stream(), cfg, 5e-12) == 1
    assert count_fourfolds(four_tag_stream(), cfg, 40e-12) == 0


def test_window_edges_are_inclusive():
    offset = 1_000_000
    times = np.array([offset, offset + 50 * PS_FS, offset + 50 * PS_FS, offset + 20 * PS_FS])
    order = np.argsort(times, kind="stable")
    stream = TagStream(
        channels=np.array([1, 2, 3, 4])[order],
        times_fs=times[order],
        duration=2e-9,
    )
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    assert count_fourfolds(stream, cfg, 0.0) == 1


def test_each_trigger_counts_at_most_once():
    offset = 1_000_000
    # Two channel-4 tags inside the window must not double-count.
    times = np.array([offset, offset + 2 * PS_FS, offset + 5 * PS_FS,
                      offset + 10 * PS_FS, offset - 20 * PS_FS])
    chans = np.array([1, 4, 4, 2, 3])
    order = np.argsort(times, kind="stable")
    stream = TagStream(channels=chans[order], times_fs=times[order], duration=2e-9)
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    assert count_fourfolds(stream, cfg, 0.0) == 1


def test_empty_stream_counts_zero():
    stream = TagStream(channels=np.zeros(0, dtype=np.uint8),
                       times_fs=np.zeros(0, dtype=np.int64), duration=1e-6)
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    assert count_fourfolds(stream, cfg, 0.0) == 0


def brute_fourfolds(times: dict, cfg: CoincidenceConfig, tau: float) -> int:
    """Triggers with a tag in every window, scanning every tag per trigger."""
    h23, h14, off = round(cfg.tau_23 / 2 / FS), round(cfg.tau_14 / 2 / FS), round(tau / FS)

    def hit(ch, lo, hi):
        return any(lo <= t <= hi for t in times[ch])

    return sum(
        hit(2, t1 - h23, t1 + h23) and hit(3, t1 - h23, t1 + h23)
        and hit(4, t1 + off - h14, t1 + off + h14)
        for t1 in times[1]
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(h23=st.integers(1, 10), h14=st.integers(1, 10), tau=st.integers(-10, 10),
       shift_channel=st.sampled_from([2, 3]), data=st.data())
def test_counts_match_brute_force(h23, h14, tau, shift_channel, data):
    # picosecond lattice: each trigger gets one partner per channel on, just
    # inside or just outside a window edge, or at the window centre, and one
    # more in the shifted channel that the shift of 10 tau_23 = 20 h23 ps
    # moves onto such a place; strays land anywhere
    tags = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 350)), max_size=10))
    for t1 in data.draw(st.lists(st.integers(220, 320), min_size=1, max_size=4)):
        tags.append((1, t1))
        for c, centre, h in ((2, t1, h23), (3, t1, h23), (4, t1 + tau, h14),
                             (shift_channel, t1 - 20 * h23, h23)):
            tags.append((c, centre + data.draw(st.sampled_from([-h - 1, -h, 0, h, h + 1]))))
    ch = np.array([c for c, _ in tags], dtype=np.uint8)
    t = np.array([p for _, p in tags], dtype=np.int64) * PS_FS
    order = np.lexsort((ch, t))
    stream = TagStream(channels=ch[order], times_fs=t[order], duration=1e-9)
    cfg = CoincidenceConfig(tau_14=2 * h14 * 1e-12, tau_23=2 * h23 * 1e-12)
    times = {c: t[ch == c].tolist() for c in (1, 2, 3, 4)}
    assert count_fourfolds(stream, cfg, tau * 1e-12) == brute_fourfolds(times, cfg, tau * 1e-12)
    delta = 10 * cfg.tau_23
    times[shift_channel] = [x + round(delta / FS) for x in times[shift_channel]]
    got = shifted_accidentals(stream, cfg, delta, shift_channel, tau * 1e-12)
    assert got == brute_fourfolds(times, cfg, tau * 1e-12)


def test_tag_stream_validation():
    t = np.array([100, 50])
    with pytest.raises(ValueError, match="sorted"):
        TagStream(channels=np.array([1, 2]), times_fs=t, duration=1e-9)
    with pytest.raises(ValueError, match="within"):
        TagStream(channels=np.array([1]), times_fs=np.array([-5]), duration=1e-9)
    with pytest.raises(ValueError, match="within"):
        TagStream(channels=np.array([1]), times_fs=np.array([10_000_000]), duration=1e-9)
    with pytest.raises(ValueError, match="channel"):
        TagStream(channels=np.array([5]), times_fs=np.array([100]), duration=1e-9)
    with pytest.raises(ValueError, match="duration"):
        TagStream(channels=np.array([1]), times_fs=np.array([100]), duration=0.0)
    with pytest.raises(ValueError, match="parallel"):
        TagStream(channels=np.array([1, 2]), times_fs=np.array([100]), duration=1e-9)
    # labels and times are checked as given: 257 must not wrap to channel 1,
    # -252 to channel 4, nor 1.9 fs truncate to 1 fs
    t = np.array([100, 200])
    for labels in (np.array([257, 2]), np.array([-252, 2]), np.array([1.0, 2.5])):
        with pytest.raises(ValueError, match="channel"):
            TagStream(channels=labels, times_fs=t, duration=1e-9)
    for times in (np.array([1.9, 5.0]), np.array([np.nan, 5.0])):
        with pytest.raises(ValueError, match="integer"):
            TagStream(channels=np.array([1, 2]), times_fs=times, duration=1e-9)
    # whole-number floats are exact and stay accepted
    stream = TagStream(channels=np.array([1.0, 4.0]), times_fs=np.array([100.0, 200.0]), duration=1e-9)
    assert stream.channels.dtype == np.uint8 and stream.times_fs.dtype == np.int64
    assert stream.channels.tolist() == [1, 4] and stream.times_fs.tolist() == [100, 200]


def test_channel_times_are_split_once_and_read_only():
    stream = four_tag_stream()
    for c in (1, 2, 3, 4):
        first = stream.channel_times(c)
        assert stream.channel_times(c) is first
        assert first.tolist() == stream.times_fs[stream.channels == c].tolist()
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 0
    with pytest.raises(ValueError, match="channel"):
        stream.channel_times(5)
    # the split cannot go stale through a write to the stream's own arrays
    with pytest.raises(ValueError, match="read-only"):
        stream.times_fs[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        stream.channels[0] = 4


def test_count_order_does_not_change_the_counts():
    sc = dataclasses.replace(mc_scenario(), duration=2e-3)
    cfg = CoincidenceConfig(tau_14=TAU_W, tau_23=TAU_W)
    calls = {
        "raw": lambda s: count_fourfolds(s, cfg, 0.0),
        "s2": lambda s: shifted_accidentals(s, cfg, 20 * TAU_W, 2),
        "s3": lambda s: shifted_accidentals(s, cfg, 20 * TAU_W, 3),
    }
    # each count on a stream of its own is the reference
    want = {name: call(simulate_streams(sc)) for name, call in calls.items()}
    assert want["raw"] > 0
    for order in itertools.permutations(calls):
        stream = simulate_streams(sc)
        assert {name: calls[name](stream) for name in order} == want


@pytest.mark.parametrize("missing", [1, 2, 3, 4])
def test_empty_channel_counts_zero(missing):
    stream = four_tag_stream()
    keep = stream.channels != missing
    stream = TagStream(channels=stream.channels[keep], times_fs=stream.times_fs[keep],
                       duration=stream.duration)
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    assert count_fourfolds(stream, cfg, 0.0) == 0
    assert shifted_accidentals(stream, cfg, 1e-9, 2) == 0
    assert shifted_accidentals(stream, cfg, 1e-9, 3) == 0


def test_shifted_accidentals_validation():
    stream = four_tag_stream()
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    with pytest.raises(ValueError, match="2 or 3"):
        shifted_accidentals(stream, cfg, 1e-8, 4)
    with pytest.raises(ValueError, match="10 times"):
        shifted_accidentals(stream, cfg, 5 * 100e-12, 2)


# ---------------------------------------------------------------------------
# Generator statistics


def test_simulation_is_deterministic():
    sc = SimScenario(pair_rate_a=1e6, pair_rate_b=8e5, internal_delay_density=gaussian_density(),
                     gamma=0.4, noise_rates=(1e5,) * 4, etas=(0.9, 0.8, 0.85, 0.95),
                     duration=2e-3, rng_seed=42)
    s1 = simulate_streams(sc)
    s2 = simulate_streams(sc)
    assert np.array_equal(s1.channels, s2.channels)
    assert np.array_equal(s1.times_fs, s2.times_fs)


def test_seed_changes_the_stream():
    base = dict(pair_rate_a=1e6, pair_rate_b=8e5, internal_delay_density=gaussian_density(),
                duration=2e-3)
    s1 = simulate_streams(SimScenario(rng_seed=1, **base))
    s2 = simulate_streams(SimScenario(rng_seed=2, **base))
    assert s1.n_events != s2.n_events or not np.array_equal(s1.times_fs, s2.times_fs)


def test_zero_efficiency_blanks_the_channel():
    sc = SimScenario(pair_rate_a=1e6, pair_rate_b=1e6, internal_delay_density=gaussian_density(),
                     etas=(0.0, 1.0, 1.0, 1.0), duration=1e-3, rng_seed=7)
    stream = simulate_streams(sc)
    assert stream.channel_times(1).size == 0
    assert stream.channel_times(2).size > 0


def test_singles_rates_match_poisson_expectation():
    rate_a, rate_b, noise = 1e6, 6e5, 2e5
    etas = (0.7, 0.9, 0.8, 0.6)
    duration = 1e-2
    sc = SimScenario(pair_rate_a=rate_a, pair_rate_b=rate_b,
                     internal_delay_density=gaussian_density(),
                     noise_rates=(noise,) * 4, etas=etas, duration=duration, rng_seed=5)
    stream = simulate_streams(sc)
    bs_rate = 0.5 * (rate_a + rate_b)
    expected = {
        1: (rate_a * etas[0] + noise) * duration,
        2: (bs_rate * etas[1] + noise) * duration,
        3: (bs_rate * etas[2] + noise) * duration,
        4: (rate_b * etas[3] + noise) * duration,
    }
    for ch, exp in expected.items():
        got = stream.channel_times(ch).size
        assert abs(got - exp) < 3.0 * math.sqrt(exp), f"channel {ch}: {got} vs {exp}"


def test_gamma_of_constant_and_callable():
    sc = SimScenario(pair_rate_a=1.0, pair_rate_b=1.0,
                     internal_delay_density=gaussian_density(), gamma=0.3)
    assert np.all(sc.gamma_of(np.zeros(4)) == 0.3)

    step = SimScenario(pair_rate_a=1.0, pair_rate_b=1.0,
                       internal_delay_density=gaussian_density(),
                       gamma=lambda d: np.where(np.abs(d) < 1e-12, 0.9, 0.5))
    got = step.gamma_of(np.array([0.0, 5e-12]))
    assert got[0] == 0.9 and got[1] == 0.5

    bad = SimScenario(pair_rate_a=1.0, pair_rate_b=1.0,
                      internal_delay_density=gaussian_density(),
                      gamma=lambda d: np.full(np.shape(d), 1.2))
    with pytest.raises(ValueError, match="lie in"):
        bad.gamma_of(np.zeros(2))


def test_scenario_validation():
    dens = gaussian_density()
    good = dict(pair_rate_a=1e6, pair_rate_b=1e6, internal_delay_density=dens)
    SimScenario(**good)
    with pytest.raises(ValueError):
        SimScenario(**dict(good, pair_rate_a=-1.0))
    with pytest.raises(ValueError):
        SimScenario(**dict(good, gamma=1.5))
    with pytest.raises(ValueError):
        SimScenario(**dict(good, noise_rates=(1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        SimScenario(**dict(good, etas=(0.5, 0.5, 0.5, 1.5)))
    with pytest.raises(ValueError):
        SimScenario(**dict(good, duration=0.0))
    with pytest.raises(ValueError):
        SimScenario(**dict(good, pairing_horizon=0.0))


# ---------------------------------------------------------------------------
# Closed-form accidental model


def random_params(rng):
    return AccidentalParams(
        mu_c1=rng.uniform(0, 0.1), mu_c2=rng.uniform(0, 0.1),
        eta=tuple(rng.uniform(0.3, 1.0, 4)),
        p_noise=tuple(rng.uniform(0, 0.05, 4)),
        gamma=rng.uniform(0, 1),
    )


def test_corrected_probability_cancels_every_noise_term():
    rng = np.random.default_rng(99)
    for _ in range(50):
        p = random_params(rng)
        a = analytic_accidentals(p)
        e1, e2, e3, e4 = p.eta
        expected = (1.0 - p.gamma) * p.mu_c1 * p.mu_c2 * e1 * e2 * e3 * e4
        assert a["A0"] - a["As2"] - a["As3"] == pytest.approx(expected, rel=1e-13)
        assert a["P_real"] == pytest.approx(expected, rel=1e-13)


def test_noise_free_distinguishable_case():
    p = AccidentalParams(mu_c1=0.02, mu_c2=0.03, eta=(0.9, 0.8, 0.7, 0.6),
                         p_noise=(0.0,) * 4, gamma=0.0)
    a = analytic_accidentals(p)
    assert a["A0"] == pytest.approx(0.02 * 0.03 * 0.9 * 0.8 * 0.7 * 0.6, rel=1e-14)
    assert a["As2"] == 0.0
    assert a["As3"] == 0.0


def test_bunching_term_uses_two_chance_efficiency():
    # With only channel-2 noise, the surviving accidental is a pair
    # bunched into channel 3 (efficiency 1-(1-eta)^2 for two photons)
    # plus the stray channel-2 count; shifting channel 2 uncovers it.
    eta3 = 0.7
    p = AccidentalParams(mu_c1=0.04, mu_c2=0.05, eta=(1.0, 1.0, eta3, 1.0),
                         p_noise=(0.0, 0.02, 0.0, 0.0), gamma=1.0)
    a = analytic_accidentals(p)
    ebar3 = 1.0 - (1.0 - eta3) ** 2
    assert a["As2"] == pytest.approx(0.5 * 1.0 * 0.05 * 0.04 * ebar3 * 0.02, rel=1e-14)
    assert a["As3"] == 0.0


def test_accidental_params_validation():
    with pytest.raises(ValueError):
        AccidentalParams(mu_c1=1.5, mu_c2=0.1, eta=(1.0,) * 4, p_noise=(0.0,) * 4, gamma=0.0)
    with pytest.raises(ValueError):
        AccidentalParams(mu_c1=0.1, mu_c2=0.1, eta=(1.0,) * 3, p_noise=(0.0,) * 4, gamma=0.0)


def test_params_mapping_from_scenario():
    sc = SimScenario(pair_rate_a=2e6, pair_rate_b=3e6,
                     internal_delay_density=gaussian_density(),
                     gamma=0.25, noise_rates=(1e5, 2e5, 3e5, 4e5),
                     etas=(0.9, 0.8, 0.7, 0.6), duration=1.0)
    p = accidental_params_from(sc, TAU_W)
    assert p.mu_c1 == pytest.approx(2e6 * TAU_W)
    assert p.mu_c2 == pytest.approx(3e6 * TAU_W)
    assert p.gamma == 0.25
    assert p.p_noise == pytest.approx((1e5 * TAU_W, 2e5 * TAU_W, 3e5 * TAU_W, 4e5 * TAU_W))

    filled = accidental_params_from(sc, TAU_W, bs_photon_fillers=True)
    photon = 0.5 * (2e6 + 3e6) * TAU_W
    assert filled.p_noise[0] == p.p_noise[0]
    assert filled.p_noise[1] == pytest.approx(p.p_noise[1] + photon * 0.8)
    assert filled.p_noise[2] == pytest.approx(p.p_noise[2] + photon * 0.7)
    assert filled.p_noise[3] == p.p_noise[3]


def test_callable_gamma_needs_explicit_value():
    sc = SimScenario(pair_rate_a=1e6, pair_rate_b=1e6,
                     internal_delay_density=gaussian_density(),
                     gamma=lambda d: np.full(np.shape(d), 0.5))
    with pytest.raises(ValueError, match="explicitly"):
        accidental_params_from(sc, TAU_W)
    p = accidental_params_from(sc, TAU_W, gamma=0.5)
    assert p.gamma == 0.5


# ---------------------------------------------------------------------------
# Stream persistence


def test_tags_csv_roundtrip(tmp_path):
    sc = SimScenario(pair_rate_a=5e5, pair_rate_b=5e5,
                     internal_delay_density=gaussian_density(),
                     noise_rates=(1e5,) * 4, duration=1e-3, rng_seed=13)
    stream = simulate_streams(sc)
    path = tmp_path / "tags.csv"
    save_tags_csv(stream, path)
    back = load_tags_csv(path, duration=stream.duration)
    assert back.duration == stream.duration
    assert np.array_equal(back.channels, stream.channels)
    assert np.array_equal(back.times_fs, stream.times_fs)


def test_tags_csv_header_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,chan\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_tags_csv(path)


def test_tags_csv_empty_body(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("channel,timestamp_fs\n")
    stream = load_tags_csv(path, duration=1e-3)
    assert stream.n_events == 0
    # a header-only file is an empty stream, read without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream = load_tags_csv(path)
    assert stream.n_events == 0 and stream.duration == 1e-15
    assert stream.channels.dtype == np.uint8 and stream.times_fs.dtype == np.int64


def test_tags_csv_saved_stream_loads_back_identically(tmp_path):
    # Timestamps shared across channels (in the loader's channel order)
    # come back in place, and the default duration is the last timestamp.
    stream = TagStream(
        channels=np.array([3, 1, 2, 4, 1, 3], dtype=np.uint8),
        times_fs=np.array([0, 7, 7, 7, 123_456_789_012, 999_999_999_999], dtype=np.int64),
        duration=1e-3,
    )
    path = tmp_path / "tags.csv"
    save_tags_csv(stream, path)
    back = load_tags_csv(path)
    assert back.channels.dtype == np.uint8 and back.times_fs.dtype == np.int64
    assert np.array_equal(back.times_fs, stream.times_fs)
    assert np.array_equal(back.channels, stream.channels)
    assert back.duration == 999_999_999_999 * 1e-15


def test_tags_csv_unsorted_rows_load_sorted(tmp_path):
    # shuffled rows, and equal timestamps listing channels in descending
    # order, both take the lexsort path and load as the sorted stream
    sc = SimScenario(pair_rate_a=5e5, pair_rate_b=5e5,
                     internal_delay_density=gaussian_density(),
                     noise_rates=(1e5,) * 4, duration=1e-4, rng_seed=13)
    stream = simulate_streams(sc)
    rows = list(zip(stream.channels.tolist(), stream.times_fs.tolist()))
    rng = np.random.default_rng(0)
    shuffled = [rows[i] for i in rng.permutation(len(rows))]
    ties = [(c, 7) for c in (4, 3, 2, 1)] + [(2, 9), (1, 9)]
    tie_stream = TagStream(channels=np.array([1, 2, 3, 4, 1, 2]),
                           times_fs=np.array([7, 7, 7, 7, 9, 9]), duration=1e-12)
    for name, body, want in (("shuffled", shuffled, stream), ("ties", ties, tie_stream)):
        path = tmp_path / f"{name}.csv"
        path.write_text("channel,timestamp_fs\n" + "".join(f"{c},{t}\n" for c, t in body))
        back = load_tags_csv(path, duration=want.duration)
        assert back.channels.dtype == np.uint8 and back.times_fs.dtype == np.int64
        assert np.array_equal(back.channels, want.channels)
        assert np.array_equal(back.times_fs, want.times_fs)


def test_tags_csv_saves_ties_in_channel_order(tmp_path):
    stream = TagStream(channels=np.array([4, 2, 1, 3]), times_fs=np.array([5, 5, 8, 8]),
                       duration=1e-12)
    path = tmp_path / "ties.csv"
    save_tags_csv(stream, path)
    assert path.read_text() == "channel,timestamp_fs\n2,5\n4,5\n1,8\n3,8\n"


MAX_FS = 2**63 - 1
# every 10**k - 1 / 10**k step in digit count that an int64 timestamp can take
DIGIT_EDGES = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [MAX_FS]


def csv_reference(channels: np.ndarray, times: np.ndarray) -> bytes:
    """The per-event formatter: one f-string per row, in (time, channel) order."""
    rows = sorted(zip(times.tolist(), channels.tolist()))
    return ("channel,timestamp_fs\n" + "".join(f"{c},{t}\n" for t, c in rows)).encode("ascii")


def check_saved_bytes(path, channels, times):
    # a duration beyond 2**63 fs admits every int64 timestamp
    stream = TagStream(channels=np.array(channels, dtype=np.uint8),
                       times_fs=np.array(times, dtype=np.int64), duration=1e4)
    save_tags_csv(stream, path)
    assert path.read_bytes() == csv_reference(stream.channels, stream.times_fs)
    back = load_tags_csv(path, duration=stream.duration)
    order = np.lexsort((stream.channels, stream.times_fs))
    assert np.array_equal(back.channels, stream.channels[order])
    assert np.array_equal(back.times_fs, stream.times_fs[order])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.integers(1, 4), st.one_of(st.sampled_from(DIGIT_EDGES),
                                                            st.integers(0, MAX_FS))),
                     max_size=30))
@example(rows=[])
@example(rows=[(3, 0)])
@example(rows=[(c, t) for c, t in zip(itertools.cycle((4, 1, 3, 2)), DIGIT_EDGES)])
@example(rows=[(4, 7), (2, 7), (3, 7), (1, 7), (2, 10), (1, 10)])
def test_saved_bytes_match_per_event_formatter(tmp_path_factory, rows):
    # rows are sorted by time only, so equal timestamps keep the drawn
    # channel order, which the writer must put right
    rows.sort(key=lambda row: row[1])
    path = tmp_path_factory.mktemp("tags") / "tags.csv"
    check_saved_bytes(path, [c for c, _ in rows], [t for _, t in rows])


def test_saved_bytes_match_across_chunk_edges(tmp_path):
    # the digit count steps from 12 to 13 right at the first chunk edge,
    # and both chunks hold mixed digit counts; a third chunk holds one row
    rng = np.random.default_rng(11)
    times = np.concatenate([np.sort(rng.integers(0, 10**12, _CSV_CHUNK - 1)),
                            [10**12 - 1, 10**12],
                            np.sort(rng.integers(10**12, 10**14, _CSV_CHUNK))])
    assert times[_CSV_CHUNK - 1] == 10**12 - 1 and times.size == 2 * _CSV_CHUNK + 1
    check_saved_bytes(tmp_path / "tags.csv", rng.integers(1, 5, times.size), times)


@pytest.mark.parametrize("row, message", [("257,5", "channel"), ("-252,7", "channel"),
                                          ("0,5", "channel"), ("1,1.9", "1.9")])
def test_tags_csv_rejects_rows_that_would_narrow(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"channel,timestamp_fs\n1,3\n{row}\n")
    with pytest.raises(ValueError, match=message):
        load_tags_csv(path, duration=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo vs closed form (fixed seed)


def mc_scenario(seed=MC_SEED):
    return SimScenario(
        pair_rate_a=2e6, pair_rate_b=2e6, internal_delay_density=gaussian_density(),
        gamma=0.5, noise_rates=(7.5e6,) * 4, etas=(0.9, 1.0, 1.0, 1.0),
        detectors=DetectorModel(jitter_fwhm=(17e-12, 13e-12, 11e-12, 16e-12)),
        duration=0.02, rng_seed=seed, pairing_horizon=1.6e-9,
    )


def test_counts_match_analytic_model():
    sc = mc_scenario()
    stream = simulate_streams(sc)
    cfg = CoincidenceConfig(tau_14=TAU_W, tau_23=TAU_W)
    n_w = sc.duration / TAU_W

    a0 = count_fourfolds(stream, cfg, 0.0)
    s2 = shifted_accidentals(stream, cfg, 20 * TAU_W, 2)
    s3 = shifted_accidentals(stream, cfg, 20 * TAU_W, 3)

    a = analytic_accidentals(accidental_params_from(sc, TAU_W, bs_photon_fillers=True))
    for got, key in ((a0, "A0"), (s2, "As2"), (s3, "As3")):
        exp = a[key] * n_w
        assert abs(got - exp) < 3.0 * math.sqrt(exp), f"{key}: {got} vs {exp:.1f}"
    exp_corr = a["P_real"] * n_w
    sigma_corr = math.sqrt((a["A0"] + a["As2"] + a["As3"]) * n_w)
    assert abs((a0 - s2 - s3) - exp_corr) < 3.0 * sigma_corr


def test_shift_distance_does_not_matter():
    sc = mc_scenario(seed=17)
    stream = simulate_streams(sc)
    cfg = CoincidenceConfig(tau_14=TAU_W, tau_23=TAU_W)
    near = shifted_accidentals(stream, cfg, 20 * TAU_W, 2)
    far = shifted_accidentals(stream, cfg, 40 * TAU_W, 2)
    assert abs(near - far) < 3.0 * math.sqrt(near + far + 1.0)


def test_clean_stream_has_few_accidentals():
    sc = SimScenario(pair_rate_a=1e6, pair_rate_b=1e6,
                     internal_delay_density=gaussian_density(),
                     gamma=0.0, duration=5e-3, rng_seed=23)
    stream = simulate_streams(sc)
    cfg = CoincidenceConfig(tau_14=1e-9, tau_23=1e-9)
    a0 = count_fourfolds(stream, cfg, 0.0)
    s2 = shifted_accidentals(stream, cfg, 1e-8, 2)
    s3 = shifted_accidentals(stream, cfg, 1e-8, 3)
    assert a0 > 0
    assert s2 + s3 < 0.1 * a0
