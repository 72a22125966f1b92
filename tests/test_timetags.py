"""Tag-stream generator and coincidence-counting tests.

A handcrafted four-tag fixture pins the window logic exactly; the
stochastic generator is checked against Poisson expectations and the
closed-form accidental model on a fixed seed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import math
import os
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwhom import timetags
from cwhom.detection import DetectorModel
from cwhom.interference import CoherenceCurve, CoincidenceConfig
from cwhom.timetags import (
    _CSV_CHUNK,
    AccidentalParams,
    SharedTagLoader,
    SimScenario,
    TagStream,
    accidental_params_from,
    analytic_accidentals,
    count_fourfolds,
    fourfold_counts,
    load_tags_csv,
    save_tags_csv,
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
       missing=st.one_of(st.none(), st.integers(1, 4)), data=st.data())
def test_counts_match_brute_force(h23, h14, tau, missing, data):
    # picosecond lattice: each trigger gets one partner per channel on, just
    # inside or just outside a window edge, or at the window centre, and one
    # more in channels 2 and 3 each that the shift of 10 tau_23 = 20 h23 ps
    # moves onto such a place; strays land anywhere, and one channel may
    # then be emptied
    tags = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 350)), max_size=10))
    for t1 in data.draw(st.lists(st.integers(220, 320), min_size=1, max_size=4)):
        tags.append((1, t1))
        for c, centre, h in ((2, t1, h23), (3, t1, h23), (4, t1 + tau, h14),
                             (2, t1 - 20 * h23, h23), (3, t1 - 20 * h23, h23)):
            tags.append((c, centre + data.draw(st.sampled_from([-h - 1, -h, 0, h, h + 1]))))
    tags = [(c, p) for c, p in tags if c != missing]
    ch = np.array([c for c, _ in tags], dtype=np.uint8)
    t = np.array([p for _, p in tags], dtype=np.int64) * PS_FS
    order = np.lexsort((ch, t))
    stream = TagStream(channels=ch[order], times_fs=t[order], duration=1e-9)
    cfg = CoincidenceConfig(tau_14=2 * h14 * 1e-12, tau_23=2 * h23 * 1e-12)
    delta = 10 * cfg.tau_23
    times = {c: t[ch == c].tolist() for c in (1, 2, 3, 4)}
    want = [brute_fourfolds(times, cfg, tau * 1e-12)]
    for c in (2, 3):
        shifted = dict(times)
        shifted[c] = [x + round(delta / FS) for x in times[c]]
        want.append(brute_fourfolds(shifted, cfg, tau * 1e-12))
    assert list(fourfold_counts(stream, cfg, tau * 1e-12, delta)) == want
    assert count_fourfolds(stream, cfg, tau * 1e-12) == want[0]


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
    with pytest.raises(ValueError, match="duration"):
        TagStream(channels=np.zeros(0), times_fs=np.zeros(0), duration=np.nan)
    # a duration of 2**60 fs or more would let a window edge leave int64
    for duration in (float("inf"), 2**60 * FS, 1e300):
        with pytest.raises(ValueError, match="duration must be below 2\\*\\*60 fs"):
            TagStream(channels=np.array([1]), times_fs=np.array([100]), duration=duration)
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


def test_tags_csv_refuses_timestamps_past_2_60_fs(tmp_path):
    # channels 1, 2 and 3 at one time and channel 4 70 ps later, all within
    # a window's reach of 2**63 fs: a herald-window edge would pass 2**63 - 1
    t = 9223372036854700000
    path = tmp_path / "late.csv"
    path.write_text(f"channel,timestamp_fs\n1,{t}\n2,{t}\n3,{t}\n4,{t + 70 * PS_FS}\n")
    with pytest.raises(ValueError, match="duration must be below 2\\*\\*60 fs"):
        load_tags_csv(path)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), labels=st.sets(st.integers(1, 4), min_size=1))
@example(data=None, labels=None)
def test_channel_split_matches_masks(data, labels):
    # streams over any subset of the channels, one channel alone included;
    # the explicit example is the empty stream
    rows = [] if labels is None else data.draw(
        st.lists(st.tuples(st.sampled_from(sorted(labels)), st.integers(0, 40)), max_size=30))
    ch = np.array([c for c, _ in rows], dtype=np.uint8)
    t = np.array([p for _, p in rows], dtype=np.int64)
    order = np.lexsort((ch, t))
    stream = TagStream(channels=ch[order], times_fs=t[order], duration=1e-12)
    for c in (1, 2, 3, 4):
        part = stream.channel_times(c)
        assert part.dtype == np.int64 and not part.flags.writeable
        assert part.tolist() == stream.times_fs[stream.channels == c].tolist()


def test_fourfold_counts_refuses_a_short_shift():
    cfg = CoincidenceConfig(tau_14=40e-12, tau_23=100e-12)
    with pytest.raises(ValueError, match="10 times"):
        fourfold_counts(four_tag_stream(), cfg, 0.0, 5 * 100e-12)


@pytest.mark.parametrize("field", ["tau_14", "tau_23", "tau", "delta"])
def test_counts_refuse_spans_past_int64_femtoseconds(field):
    # 2**60 fs, ~1153 s: past it, a window edge could leave int64
    big = 2**60 * FS
    spans = {"tau_14": 40e-12, "tau_23": 100e-12, "tau": 0.0, "delta": 1e-9, field: big}
    if field == "tau_23":
        spans["delta"] = 20 * big
    cfg = CoincidenceConfig(tau_14=spans["tau_14"], tau_23=spans["tau_23"])
    stream = four_tag_stream()
    calls = [lambda: fourfold_counts(stream, cfg, spans["tau"], spans["delta"])]
    if field != "delta":
        calls.append(lambda: count_fourfolds(stream, cfg, spans["tau"]))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{field} must lie within 2\\*\\*60 fs"):
            call()
    # just inside the limit the count runs
    spans[field] = (2**60 - 256) * FS
    cfg = CoincidenceConfig(tau_14=spans["tau_14"], tau_23=spans["tau_23"])
    if field == "delta":
        assert fourfold_counts(stream, cfg, spans["tau"], spans["delta"])[1] == 0
    else:
        assert count_fourfolds(stream, cfg, spans["tau"]) in (0, 1)


def test_count_order_does_not_change_the_counts():
    sc = dataclasses.replace(mc_scenario(), duration=2e-3)
    cfg = CoincidenceConfig(tau_14=TAU_W, tau_23=TAU_W)
    calls = {
        "raw": lambda s: count_fourfolds(s, cfg, 0.0),
        "s2": lambda s: fourfold_counts(s, cfg, 0.0, 20 * TAU_W)[1],
        "s3": lambda s: fourfold_counts(s, cfg, 0.0, 20 * TAU_W)[2],
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
    assert fourfold_counts(stream, cfg, 0.0, 1e-9)[1:] == (0, 0)


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


def smooth_gamma(delta):
    return 0.5 + 0.45 * np.exp(-((delta / 50e-9) ** 2))


# small scenarios over the generator's branches, each overriding the base below
PINNED_CASES = {
    # constant gamma, every efficiency below 1, noise and jitter on every channel
    "constant": dict(gamma=0.4, noise_rates=(2e5, 1e5, 3e5, 1.5e5), etas=(0.9, 0.8, 0.85, 0.95),
                     detectors=DetectorModel(jitter_fwhm=(17e-12, 13e-12, 11e-12, 16e-12))),
    # delay-dependent gamma over ~60 duos, eta = 1 on channels 1 and 3, no
    # noise on channel 3, no jitter on channel 1
    "callable": dict(gamma=smooth_gamma, pairing_horizon=2e-7, noise_rates=(2e5, 1e5, 0.0, 1.5e5),
                     etas=(1.0, 0.8, 1.0, 0.9),
                     detectors=DetectorModel(jitter_fwhm=(0.0, 13e-12, 11e-12, 16e-12))),
    # gamma 0, no noise, eta = 1 and no jitter anywhere
    "defaults": dict(),
    # one source silent, channel 1 blanked, noise on channel 4 only
    "one_source": dict(pair_rate_b=0.0, etas=(0.0, 1.0, 1.0, 1.0), noise_rates=(0.0, 0.0, 0.0, 2e5),
                       detectors=DetectorModel(jitter_fwhm=(17e-12, 0.0, 11e-12, 16e-12))),
}

# SHA-256 of the saved CSV of each case and seed: a change in the draw
# order or in the event order shows here
PINNED_DIGESTS = {
    ("constant", 1): "0f0c60ded43d4b0276c7f8e0e817f73c243b5ea098c11a7cd7b8087937c6ecad",
    ("constant", 2): "994eb8426747888d1574f802a7e700a5ee8fe3984aadeecd52c9de19e2f731a2",
    ("constant", 3): "ae9a8e6e38b2bd6d3191c312321da6626e9439404e09ddd6a6a74a932ad7077d",
    ("callable", 1): "76d3c0867992ccccfeb97b0a3050e396274982dc0332659e76bb5a0d0e19e9e3",
    ("callable", 2): "1c721b3eccf91c49463911d4963a30224d340ecb3cb1e9140eb44d0ed67e88ef",
    ("callable", 3): "460b7da6750a2acc074793f6d4677cbe5513b5785a19ab7cf1f55f9b83cda156",
    ("defaults", 1): "cb251c569977c208d9d9b8d38551195243b5da22241c05ed27031cebcebe5208",
    ("defaults", 2): "a1a1a8f2b443c75ec947a1d97cbfe7dec06ec2793178070816e078832dbb2c51",
    ("defaults", 3): "65e9c89853e58ca0b1745d344984ad1b3d2f4345814fac53c49e68c5e774f17c",
    ("one_source", 1): "67948f761ff984f2e3b6e2fa8a6c8a35fbf33ed1f0a64209f2e689ae481bf55d",
    ("one_source", 2): "12c775d14d37aafa8e96114183c08b4213f478116532f5d392d84d13a68fa1f1",
    ("one_source", 3): "69e97cb645f455c478e04abd87cfa7c4c34dceec620011cfa16d5149d3af2d87",
}


@pytest.mark.parametrize("case, seed", sorted(PINNED_DIGESTS))
def test_simulated_bytes_are_pinned(tmp_path, case, seed):
    base = dict(pair_rate_a=2e6, pair_rate_b=1.5e6, internal_delay_density=gaussian_density(),
                duration=1e-4, rng_seed=seed, pairing_horizon=1.6e-9)
    path = tmp_path / "tags.csv"
    save_tags_csv(simulate_streams(SimScenario(**{**base, **PINNED_CASES[case]})), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_DIGESTS[(case, seed)]


def test_simulate_streams_working_memory_per_event():
    # scenarios/tags_demo.json's parameters at 10x its duration: ~3.8e5 events
    high = (1.0 + 0.9) / 2.0
    sc = SimScenario(pair_rate_a=1e7, pair_rate_b=1e7,
                     internal_delay_density=gaussian_density(t_c=50e-12, span=250e-12, n=501),
                     gamma=lambda delta: np.where(np.abs(delta) <= 250e-12, high, 0.5),
                     noise_rates=(1e5,) * 4, etas=(0.9, 1.0, 1.0, 0.9),
                     detectors=DetectorModel(jitter_fwhm=(17e-12, 13e-12, 11e-12, 16e-12)),
                     duration=1e-2, rng_seed=7, pairing_horizon=1600e-12)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stream = simulate_streams(sc)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the peak comes while the photons are paired, at ~29 bytes per event
    assert stream.n_events > 3e5
    assert peak <= 32 * stream.n_events


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
    nan = float("nan")
    for field in ("pair_rate_a", "pair_rate_b", "duration", "pairing_horizon"):
        with pytest.raises(ValueError):
            SimScenario(**dict(good, **{field: nan}))
    with pytest.raises(ValueError, match="noise_rates"):
        SimScenario(**dict(good, noise_rates=(1.0, nan, 1.0, 1.0)))


def test_scenario_duration_keeps_the_sort_key_exact():
    # events sort as one int64 key (t_fs << 3) | channel, exact below 2**60 fs
    good = dict(pair_rate_a=0.0, pair_rate_b=0.0, internal_delay_density=gaussian_density(),
                noise_rates=(1.0, 0.0, 0.0, 1.0))
    for duration in (2**60 * FS, (2**60 - 64) * FS, float("inf"), 1e300):
        with pytest.raises(ValueError, match="duration must be below 2\\*\\*60 fs"):
            SimScenario(**good, duration=duration)
    # the largest duration admitted: its stream ends just below 2**60 fs
    longest = SimScenario(**good, duration=(2**60 - 128) * FS, rng_seed=4)
    stream = simulate_streams(longest)
    assert stream.n_events > 0 and stream.times_fs[-1] < 2**60
    assert set(stream.channels.tolist()) <= {1, 4}


def test_scenario_expected_event_count_is_bounded():
    # each pair is two photons, each stray one event; the bound is on the
    # expectation, checked before anything is drawn
    base = dict(pair_rate_b=0.0, internal_delay_density=gaussian_density(), duration=1.0)
    limit = timetags.MAX_SIM_EVENTS
    SimScenario(**base, pair_rate_a=limit / 2)
    SimScenario(**base, pair_rate_a=limit / 4, noise_rates=(0.0, limit / 2, 0.0, 0.0))
    for extra in (dict(pair_rate_a=limit / 2 + 1),
                  dict(pair_rate_a=limit / 4, noise_rates=(0.0, limit / 2, 0.0, 1.0)),
                  dict(pair_rate_a=1e300, noise_rates=(1e300,) * 4)):
        with pytest.raises(ValueError, match=f"at most {limit} are allowed"):
            SimScenario(**{**base, **extra})


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


@pytest.fixture
def parses(monkeypatch):
    """Paths np.loadtxt reads from, one entry per tag file actually parsed."""
    paths = []
    real = np.loadtxt

    def counted(fname, *args, **kwargs):
        paths.append(fname)
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return paths


def rewrite_keeping_times(path, text):
    """New bytes at the same path with the old mtime, as a coarse clock would leave it."""
    st = os.stat(path)
    path.write_text(text)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def same_events(a, b):
    return (a.channels.tolist(), a.times_fs.tolist(), a.duration) == (
        b.channels.tolist(), b.times_fs.tolist(), b.duration)


def test_shared_tag_loader_reuses_the_stream_of_identical_bytes(tmp_path, parses):
    loader = SharedTagLoader()
    stream = four_tag_stream()
    path = tmp_path / "tags.csv"
    save_tags_csv(stream, path)
    first = loader.load(path, duration=stream.duration)
    first.channel_times(1)
    assert loader.load(path, duration=stream.duration) is first
    # the same bytes under another path and another mtime are the same stream
    copy = tmp_path / "copy.csv"
    copy.write_bytes(path.read_bytes())
    os.utime(copy, ns=(0, 0))
    again = loader.load(copy, duration=stream.duration)
    assert again is first and len(parses) == 1
    assert "_by_channel" in vars(again)
    assert not again.channels.flags.writeable and not again.times_fs.flags.writeable


@pytest.mark.parametrize("text", [
    "channel,timestamp_fs\n3,5\n4,8\n",  # same length
    "channel,timestamp_fs\n1,5\n2,7\n3,9\n",  # a row appended
    "channel,timestamp_fs\n1,5\n",  # the last row cut
])
def test_shared_tag_loader_reads_new_bytes_at_the_same_path(tmp_path, parses, text):
    loader = SharedTagLoader()
    path = tmp_path / "tags.csv"
    path.write_text("channel,timestamp_fs\n1,5\n2,7\n")
    first = loader.load(path, duration=1e-12)
    rewrite_keeping_times(path, text)
    back = loader.load(path, duration=1e-12)
    fresh = load_tags_csv(path, duration=1e-12)
    assert back is not first and same_events(back, fresh)
    assert first.channels.tolist() == [1, 2] and first.times_fs.tolist() == [5, 7]
    assert len(parses) == 3


def test_shared_tag_loader_with_another_duration_parses_again(tmp_path, parses):
    loader = SharedTagLoader()
    path, copy = tmp_path / "tags.csv", tmp_path / "copy.csv"
    path.write_text("channel,timestamp_fs\n1,5\n2,7\n")
    copy.write_bytes(path.read_bytes())
    assert loader.load(path, duration=1e-12).duration == 1e-12
    longer = loader.load(copy, duration=2e-12)
    assert longer.duration == 2e-12
    assert loader.load(path, duration=2e-12) is longer
    # no duration means the last timestamp's, here 7 fs
    default = loader.load(copy)
    assert default.duration == 7 * FS
    assert loader.load(path, duration=7 * FS) is default
    assert len(parses) == 3


@pytest.mark.parametrize("text", [
    "channel,timestamp_fs\n2,7\n1,5\n",  # rows out of order
    "channel,timestamp_fs\n1, 5\n2, 7\n",  # spaces
    "channel,timestamp_fs\r\n1,5\r\n2,7\r\n",  # CRLF line ends
])
def test_shared_tag_loader_parses_another_row_format_each_time(tmp_path, parses, text):
    # the reuse test compares with save_tags_csv's bytes, which these are not
    loader = SharedTagLoader()
    path = tmp_path / "tags.csv"
    path.write_bytes(text.encode())
    first = loader.load(path, duration=1e-12)
    again = loader.load(path, duration=1e-12)
    assert again is not first and same_events(again, first)
    assert first.channels.tolist() == [1, 2] and first.times_fs.tolist() == [5, 7]
    assert len(parses) == 2


def test_shared_tag_loader_keeps_the_bytes_it_parsed(tmp_path, parses, monkeypatch):
    # a writer that replaces the file just after the parse: the stream kept
    # is the parsed one, so each later load sees the file's current rows
    loader = SharedTagLoader()
    path = tmp_path / "tags.csv"
    old, new = "channel,timestamp_fs\n1,5\n2,7\n", "channel,timestamp_fs\n3,5\n4,8\n"
    path.write_text(old)
    real = timetags.load_tags_csv

    def racing(*args, **kwargs):
        stream = real(*args, **kwargs)
        rewrite_keeping_times(path, new)
        return stream

    monkeypatch.setattr(timetags, "load_tags_csv", racing)
    first = loader.load(path, duration=1e-12)
    assert first.channels.tolist() == [1, 2]
    monkeypatch.setattr(timetags, "load_tags_csv", real)
    assert loader.load(path, duration=1e-12).channels.tolist() == [3, 4]
    rewrite_keeping_times(path, old)
    assert loader.load(path, duration=1e-12).channels.tolist() == [1, 2]
    assert len(parses) == 3


@pytest.mark.parametrize("body, message", [
    ("channel,timestamp_ps\n1,5\n2,7\n", "header"),
    ("channel,timestamp_fs\n1,5\n9,7\n", "channel"),
])
def test_shared_tag_loader_never_keeps_a_file_that_fails(tmp_path, parses, body, message):
    loader = SharedTagLoader()
    path = tmp_path / "tags.csv"
    path.write_text("channel,timestamp_fs\n1,5\n2,7\n")
    loader.load(path, duration=1e-12)
    rewrite_keeping_times(path, body)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            loader.load(path, duration=1e-12)
    assert loader._last is None


def test_tags_csv_load_keeps_no_stream(tmp_path, parses):
    # only a SharedTagLoader keeps a stream; a caller's dropped stream is freed
    path = tmp_path / "tags.csv"
    save_tags_csv(four_tag_stream(), path)
    stream = load_tags_csv(path)
    assert load_tags_csv(path) is not stream
    gone = weakref.ref(stream)
    del stream
    gc.collect()
    assert gone() is None and len(parses) == 2


# the longest duration a stream admits, and the last timestamp it admits
LONGEST = (2**60 - 128) * FS
MAX_FS = round(LONGEST / FS)
# every 10**k - 1 / 10**k step in digit count that a stream's timestamp
# can take; 10**18 is the last below 2**60
DIGIT_EDGES = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [MAX_FS]


def csv_reference(channels: np.ndarray, times: np.ndarray) -> bytes:
    """The per-event formatter: one f-string per row, in (time, channel) order."""
    rows = sorted(zip(times.tolist(), channels.tolist()))
    return ("channel,timestamp_fs\n" + "".join(f"{c},{t}\n" for t, c in rows)).encode("ascii")


def check_saved_bytes(path, channels, times):
    # the longest duration admits every timestamp a stream can hold
    stream = TagStream(channels=np.array(channels, dtype=np.uint8),
                       times_fs=np.array(times, dtype=np.int64), duration=LONGEST)
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
    _, s2, s3 = fourfold_counts(stream, cfg, 0.0, 20 * TAU_W)

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
    near = fourfold_counts(stream, cfg, 0.0, 20 * TAU_W)[1]
    far = fourfold_counts(stream, cfg, 0.0, 40 * TAU_W)[1]
    assert abs(near - far) < 3.0 * math.sqrt(near + far + 1.0)


def test_clean_stream_has_few_accidentals():
    sc = SimScenario(pair_rate_a=1e6, pair_rate_b=1e6,
                     internal_delay_density=gaussian_density(),
                     gamma=0.0, duration=5e-3, rng_seed=23)
    stream = simulate_streams(sc)
    cfg = CoincidenceConfig(tau_14=1e-9, tau_23=1e-9)
    a0 = count_fourfolds(stream, cfg, 0.0)
    _, s2, s3 = fourfold_counts(stream, cfg, 0.0, 1e-8)
    assert a0 > 0
    assert s2 + s3 < 0.1 * a0
