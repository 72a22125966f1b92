"""Time-tag stream simulation and fourfold coincidence counting.

Classical Monte Carlo generator for four-channel tag streams (Poisson
pair emission, beam-splitter port routing, stray photons, detector
jitter), trigger-relative fourfold counting, and the shifted-tag
accidental estimate together with its closed-form counterpart.

The generator is classical by construction: the same-port probability
gamma is an exogenous input (optionally a function of the arrival-time
difference of the two interfering photons), so the Monte Carlo validates
post-selection logic and accidental algebra, not the interference
integral itself.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .detection import DetectorModel, jitter_sigma_time
from .interference import CoherenceCurve, CoincidenceConfig
from .units import FS

# Channel labels: 1 and 4 are the heralding channels of the two sources,
# 2 and 3 are the beam-splitter output channels (2', 3').
CHANNELS = (1, 2, 3, 4)

# Times are int64 femtoseconds.  A stream ends before 2**60 fs (~1153 s),
# so simulated events sort as one int64 key (t << 3) | channel; a window,
# delay or shift below 2**60 fs added to such a time stays inside int64.
MAX_TIME_FS = 2**60

# The most events a simulated stream may be expected to hold.  simulate_streams
# peaks at ~29 bytes per event (tracemalloc, the bundled tags_demo's rates),
# so a run at the cap needs ~1 GB of working memory.
MAX_SIM_EVENTS = 2**25


def _check_duration(duration: float) -> None:
    """Refuse a duration [s] that is not positive or reaches 2**60 fs."""
    # each test is written so that NaN and infinity fail it; floats just
    # below 2**60 are whole, so the second is round(duration / FS) < 2**60
    if not duration > 0:
        raise ValueError("duration must be positive")
    if not duration / FS < MAX_TIME_FS:
        raise ValueError(f"duration must be below 2**60 fs ({MAX_TIME_FS * FS:.6g} s)")


@dataclass(frozen=True)
class TagStream:
    """Sorted four-channel detection record.

    channels and times_fs are parallel arrays; times are integer
    femtoseconds, sorted ascending, within [0, duration], and duration
    is below 2**60 fs (~1153 s).  Labels and times are checked as given
    (integer-valued, labels 1 to 4) before they are stored as uint8 and
    int64, so no value wraps or truncates.
    The stored arrays are read-only views, which may share memory with
    the arrays passed in; those must not be written to afterwards.
    """

    channels: np.ndarray
    times_fs: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        ch = np.asarray(self.channels)
        t = np.asarray(self.times_fs)
        if ch.shape != t.shape or ch.ndim != 1:
            raise ValueError("channels and times_fs must be parallel 1-d arrays")
        if not _integral(ch) or (ch.size and (ch.min() < 1 or ch.max() > 4)):
            raise ValueError("channel labels must be in {1, 2, 3, 4}")
        if not _integral(t):
            raise ValueError("timestamps must be integer femtoseconds")
        _check_duration(self.duration)
        if t.size and np.any(t[1:] < t[:-1]):
            raise ValueError("timestamps must be sorted ascending")
        if t.size and (t[0] < 0 or t[-1] > round(self.duration / FS)):
            raise ValueError("timestamps must lie within [0, duration]")
        object.__setattr__(self, "channels", _read_only(ch.astype(np.uint8, copy=False)))
        object.__setattr__(self, "times_fs", _read_only(t.astype(np.int64, copy=False)))

    @functools.cached_property
    def _by_channel(self) -> tuple[np.ndarray, ...]:
        # split once per stream: every count reads these four arrays.  A
        # stable sort of the labels groups the channels and keeps each one's
        # times in order; the label counts mark where each group ends
        grouped = self.times_fs[np.argsort(self.channels, kind="stable")]
        ends = np.cumsum(np.bincount(self.channels, minlength=len(CHANNELS) + 1)[1:len(CHANNELS)])
        return tuple(_read_only(part) for part in np.split(grouped, ends))

    def channel_times(self, channel: int) -> np.ndarray:
        """Sorted int64 femtosecond timestamps of one channel, read-only."""
        if channel not in CHANNELS:
            raise ValueError("channel must be 1, 2, 3 or 4")
        return self._by_channel[channel - 1]

    @property
    def n_events(self) -> int:
        return int(self.times_fs.size)


def _read_only(values: np.ndarray) -> np.ndarray:
    view = values.view()
    view.flags.writeable = False
    return view


def _integral(values: np.ndarray) -> bool:
    """True for an integer array, or a float one holding only whole numbers."""
    if values.dtype.kind in "iu":
        return True
    if values.dtype.kind != "f":
        return False
    return bool(np.all(np.isfinite(values) & (values == np.trunc(values))))


def _tag_order(channels: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The events in (time, channel) order; sorts only when an O(n) check fails."""
    tie = np.flatnonzero(times[1:] == times[:-1])
    if np.all(times[1:] >= times[:-1]) and np.all(channels[tie + 1] >= channels[tie]):
        return channels, times
    order = np.lexsort((channels, times))
    return channels[order], times[order]


@dataclass(frozen=True)
class SimScenario:
    """Inputs of the tag-stream generator.

    pair_rate_a and pair_rate_b are emitted pairs per second.  gamma is
    the probability that two paired beam-splitter photons exit the same
    port, either a constant or a function of their arrival-time
    difference.  noise_rates are observed stray-count rates per channel
    (not subject to efficiency thinning); etas are per-channel detection
    efficiencies applied to pair photons.  pairing_horizon bounds the
    arrival-time difference within which photons from opposite sources
    are treated as one interfering duo; by default it spans the internal
    delay density grid.  duration must be below 2**60 fs (~1153 s), and
    the expected event count duration * (2 (pair_rate_a + pair_rate_b) +
    sum(noise_rates)) at most MAX_SIM_EVENTS.
    """

    pair_rate_a: float
    pair_rate_b: float
    internal_delay_density: CoherenceCurve
    gamma: float | Callable[[np.ndarray], np.ndarray] = 0.0
    noise_rates: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    etas: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    detectors: DetectorModel = field(default_factory=lambda: DetectorModel(jitter_fwhm=(0.0, 0.0, 0.0, 0.0)))
    duration: float = 1.0
    rng_seed: int = 0
    pairing_horizon: float | None = None

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not (self.pair_rate_a >= 0 and self.pair_rate_b >= 0):
            raise ValueError("pair rates must be nonnegative")
        if not callable(self.gamma) and not 0.0 <= float(self.gamma) <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if len(self.noise_rates) != 4 or any(not r >= 0 for r in self.noise_rates):
            raise ValueError("noise_rates must be four nonnegative rates")
        if len(self.etas) != 4 or any(not 0.0 <= e <= 1.0 for e in self.etas):
            raise ValueError("etas must be four efficiencies in [0, 1]")
        _check_duration(self.duration)
        if self.pairing_horizon is not None and not self.pairing_horizon > 0:
            raise ValueError("pairing_horizon must be positive")
        # two photons per pair; refused before simulate_streams draws anything
        expected = self.duration * (2.0 * (self.pair_rate_a + self.pair_rate_b) + sum(self.noise_rates))
        if not expected <= MAX_SIM_EVENTS:
            raise ValueError(
                f"the stream would hold ~{expected:.3g} events; at most {MAX_SIM_EVENTS} are allowed"
            )

    def gamma_of(self, delta: np.ndarray) -> np.ndarray:
        if callable(self.gamma):
            g = np.asarray(self.gamma(delta), dtype=float)
        else:
            g = np.full(np.shape(delta), float(self.gamma))
        if np.any((g < 0.0) | (g > 1.0)):
            raise ValueError("gamma values must lie in [0, 1]")
        return g


@dataclass(frozen=True)
class AccidentalParams:
    """Per-window probabilities of the closed-form accidental model."""

    mu_c1: float
    mu_c2: float
    eta: tuple[float, float, float, float]
    p_noise: tuple[float, float, float, float]
    gamma: float

    def __post_init__(self) -> None:
        values = (self.mu_c1, self.mu_c2, self.gamma, *self.eta, *self.p_noise)
        if len(self.eta) != 4 or len(self.p_noise) != 4:
            raise ValueError("eta and p_noise must each hold four entries")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("all probabilities must lie in [0, 1]")


def _sample_internal_delays(
    density: CoherenceCurve, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw signal-idler delays from a tabulated density by inverse CDF."""
    if n == 0:
        return np.zeros(0)
    g = np.maximum(np.asarray(density.density, dtype=float), 0.0)
    x = np.asarray(density.delays, dtype=float)
    cdf = np.concatenate(([0.0], np.cumsum((g[1:] + g[:-1]) * np.diff(x) / 2.0)))
    if cdf[-1] <= 0.0:
        raise ValueError("internal delay density integrates to zero")
    cdf /= cdf[-1]
    # strictly increasing knots keep interp well defined
    keep = np.concatenate(([True], np.diff(cdf) > 0))
    return np.interp(rng.random(n), cdf[keep], x[keep])


def _pair_bs_photons(
    t_a: np.ndarray, t_b: np.ndarray, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mutual-nearest-neighbour pairing of opposite-source photon times.

    Both inputs are sorted.  A duo forms when each photon is the other's
    nearest opposite-source photon and they lie within horizon of each
    other; everything else stays unpaired.  One-to-one by construction.
    Returns index arrays (into t_a and t_b) of the paired duos.
    """
    na, nb = len(t_a), len(t_b)
    if na == 0 or nb == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)

    def _nearest(src: np.ndarray, ref: np.ndarray) -> np.ndarray:
        # index of the ref element closest to each src element
        right = np.searchsorted(ref, src)
        left = np.clip(right - 1, 0, len(ref) - 1)
        right = np.clip(right, 0, len(ref) - 1)
        take_right = np.abs(ref[right] - src) < np.abs(ref[left] - src)
        return np.where(take_right, right, left)

    b_of_a = _nearest(t_a, t_b)
    a_of_b = _nearest(t_b, t_a)
    ia = np.arange(na, dtype=np.intp)
    mutual = a_of_b[b_of_a] == ia
    close = np.abs(t_b[b_of_a] - t_a) <= horizon
    ia = ia[mutual & close]
    return ia, b_of_a[mutual & close].astype(np.intp)


def _bs_ports(
    scenario: SimScenario, bs_a: np.ndarray, bs_b: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The port (0 -> channel 2, 1 -> channel 3) of each partner photon of A and of B.

    Pairs opposite-source photons by their beam-splitter arrival times;
    lone photons route uniformly, duos by gamma of their time difference.
    """
    horizon = scenario.pairing_horizon
    if horizon is None:
        x = np.asarray(scenario.internal_delay_density.delays, dtype=float)
        horizon = float(x[-1] - x[0])
    order_a = np.argsort(bs_a, kind="stable")
    order_b = np.argsort(bs_b, kind="stable")
    ia, ib = _pair_bs_photons(bs_a[order_a], bs_b[order_b], horizon)
    ia = order_a[ia]
    ib = order_b[ib]

    port_a = np.zeros(bs_a.size, dtype=np.int8)
    port_b = np.zeros(bs_b.size, dtype=np.int8)
    lone_a = np.ones(bs_a.size, dtype=bool)
    lone_b = np.ones(bs_b.size, dtype=bool)
    lone_a[ia] = False
    lone_b[ib] = False
    port_a[lone_a] = rng.random(np.count_nonzero(lone_a)) < 0.5
    port_b[lone_b] = rng.random(np.count_nonzero(lone_b)) < 0.5
    if ia.size:
        g = scenario.gamma_of(bs_a[ia] - bs_b[ib])
        same = rng.random(ia.size) < g
        joint = (rng.random(ia.size) < 0.5).astype(np.int8)
        port_a[ia] = joint
        port_b[ib] = np.where(same, joint, 1 - joint)
    return port_a, port_b


def simulate_streams(scenario: SimScenario) -> TagStream:
    """Generate one four-channel tag stream.

    Each source emits pairs as a Poisson process; the heralding photon
    goes to channel 1 (source A) or 4 (source B) and the partner photon
    to a beam-splitter port.  Paired opposite-source partners exit the
    same uniformly chosen port with probability gamma(delta) and split
    otherwise; unpaired partners route uniformly.  Pair photons are
    thinned by the channel efficiency, stray counts arrive as unthinned
    per-channel Poisson noise, and every tag receives Gaussian channel
    jitter.  Deterministic for a fixed rng_seed.

    Each array is dropped at its last use; the peak, ~29 bytes per event,
    comes while the photons are paired.
    """
    rng = np.random.default_rng(scenario.rng_seed)
    t_total = scenario.duration
    density = scenario.internal_delay_density

    # emission times and internal delays, sources drawn in a fixed order
    n_a = rng.poisson(scenario.pair_rate_a * t_total)
    n_b = rng.poisson(scenario.pair_rate_b * t_total)
    emit_a = np.sort(rng.random(n_a) * t_total)
    emit_b = np.sort(rng.random(n_b) * t_total)
    bs_a = emit_a + _sample_internal_delays(density, n_a, rng)
    bs_b = emit_b + _sample_internal_delays(density, n_b, rng)
    port_a, port_b = _bs_ports(scenario, bs_a, bs_b, rng)

    # per channel, in channel order: the detected pair photons, then strays
    ports = [np.concatenate([bs_a[port_a == p], bs_b[port_b == p]]) for p in (0, 1)]
    pairs = [emit_a, *ports, emit_b]
    del emit_a, emit_b, bs_a, bs_b, port_a, port_b, ports
    for i, eta in enumerate(scenario.etas):
        if pairs[i].size and eta < 1.0:
            pairs[i] = pairs[i][rng.random(pairs[i].size) < eta]
    strays = [rng.random(rng.poisson(rate * t_total)) * t_total for rate in scenario.noise_rates]

    # one jitter draw per channel, split over its two blocks, which are not
    # read again and take it in place; each block's keys go into one buffer
    t_max = round(t_total / FS)
    buf = np.empty(sum(t.size for t in pairs + strays), dtype=np.int64)
    n = 0
    for ch, fwhm in zip(CHANNELS, scenario.detectors.jitter_fwhm):
        pair, stray = pairs.pop(0), strays.pop(0)
        sigma = jitter_sigma_time(fwhm)
        if sigma > 0.0:
            jitter = rng.normal(0.0, sigma, pair.size + stray.size)
            pair += jitter[: pair.size]
            stray += jitter[pair.size :]
            del jitter
        for t in (pair, stray):
            kept = t[(t >= 0.0) & (t <= t_total)]
            t_fs = buf[n : n + kept.size]
            np.rint(np.divide(kept, FS, out=kept), out=t_fs, casting="unsafe")
            np.minimum(t_fs, t_max, out=t_fs)
            t_fs <<= 3
            t_fs |= ch
            n += kept.size
    # t_max < 2**60 (SimScenario checks), so the key orders by time, then channel
    key = buf[:n]
    key.sort()
    channels = np.bitwise_and(key, 7, out=np.empty(n, np.uint8), casting="unsafe")
    key >>= 3
    return TagStream(channels=channels, times_fs=key, duration=t_total)


def _window_hits(tags: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """True where at least one tag lies in the inclusive window [lo, hi].

    One binary search per window: the first tag at or after lo hits when
    it exists and lies at or before hi.
    """
    if tags.size == 0:
        return np.zeros(lo.shape, dtype=bool)
    i = np.searchsorted(tags, lo, side="left")
    return (i < tags.size) & (tags.take(i, mode="clip") <= hi)


# no library path calls it (the CLI counts with fourfold_counts); perfbench/test_checks.py imports it
def count_fourfolds(stream: TagStream, cfg: CoincidenceConfig, tau: float) -> int:
    """Count trigger-anchored fourfold coincidences.

    For each channel-1 tag at t1 the fourfold requires at least one tag
    in channel 2 and in channel 3 within [t1 - tau_23/2, t1 + tau_23/2]
    and at least one channel-4 tag within [t1 + tau - tau_14/2,
    t1 + tau + tau_14/2]; each trigger contributes at most one count.
    """
    return _count_triggers(stream._by_channel, cfg, tau, [(0.0, 0.0)])[0]


def fourfold_counts(
    stream: TagStream, cfg: CoincidenceConfig, tau: float, delta: float
) -> tuple[int, int, int]:
    """The raw fourfolds, as count_fourfolds, and both shifted accidentals.

    Each shifted count adds delta (at least 10 tau_23) to every tag of
    channel 2, then of channel 3; all three come from one herald test.
    """
    if delta < 10.0 * cfg.tau_23:
        raise ValueError("delta must be at least 10 times tau_23")
    raw, s2, s3 = _count_triggers(stream._by_channel, cfg, tau, [(0.0, 0.0), (delta, 0.0), (0.0, delta)])
    return raw, s2, s3


def _count_triggers(
    times: Sequence[np.ndarray],
    cfg: CoincidenceConfig,
    tau: float,
    shifts: Sequence[tuple[float, float]],
) -> list[int]:
    """Fourfolds over the sorted femtosecond tags of channels 1 to 4, one count per shift.

    Each shift is a pair of delays [s] added to every tag of channel 2 and
    of channel 3; (0, 0) counts the stream as it is.  The herald window
    tau_14 is the narrowest, so it is tested first, and once: only the
    channel-1 triggers with a channel-4 tag in [t1 + tau - tau_14/2,
    t1 + tau + tau_14/2] go on to the channel-2 and channel-3 tests.  No
    shift changes that first test, so only these are repeated per shift.
    A tag shifted by d lies in [lo, hi] exactly when the unshifted tag lies
    in [lo - d, hi - d], so the windows move instead of the tags.
    """
    spans = [("tau_14", cfg.tau_14), ("tau_23", cfg.tau_23), ("tau", tau)]
    spans += [("delta", d) for pair in shifts for d in pair]
    for name, value in spans:
        # checked before conversion: a larger span leaves int64 (NaN fails too)
        if not abs(value) / FS < MAX_TIME_FS:
            limit = f"2**60 fs ({MAX_TIME_FS * FS:.6g} s)"
            raise ValueError(f"{name} must lie within {limit} of zero, not {value:g} s")
    t1, t2, t3, t4 = times
    h23 = round(cfg.tau_23 / 2.0 / FS)
    h14 = round(cfg.tau_14 / 2.0 / FS)
    off = round(tau / FS)
    lo = t1 + (off - h14)
    t1 = t1[_window_hits(t4, lo, lo + 2 * h14)]
    lo = t1 - h23
    hi = t1 + h23
    counts = []
    for d2, d3 in shifts:
        d2, d3 = round(d2 / FS), round(d3 / FS)
        both = _window_hits(t2, lo - d2, hi - d2) & _window_hits(t3, lo - d3, hi - d3)
        counts.append(int(np.count_nonzero(both)))
    return counts


def analytic_accidentals(p: AccidentalParams) -> dict[str, float]:
    """Closed-form per-window fourfold probabilities.

    Returns the unshifted probability A0, the two single-channel shifted
    probabilities As2 and As3, and the real-event probability
    P_real = A0 - As2 - As3; the subtraction cancels every noise term
    and leaves the two-pair split-port contribution.
    """
    e1, e2, e3, e4 = p.eta
    p1, p2, p3, p4 = p.p_noise
    ebar2 = 1.0 - (1.0 - e2) ** 2
    ebar3 = 1.0 - (1.0 - e3) ** 2
    mu11 = p.mu_c1 * e1
    mu24 = p.mu_c2 * e4
    real = (1.0 - p.gamma) * mu24 * e3 * mu11 * e2
    bunch_2 = 0.5 * p.gamma * mu24 * mu11 * ebar2 * p3
    bunch_3 = 0.5 * p.gamma * mu24 * mu11 * ebar3 * p2
    pair_b_noise_12 = 0.5 * mu24 * e3 * p1 * p2
    pair_b_noise_13 = 0.5 * mu24 * e2 * p1 * p3
    pair_a_noise_43 = 0.5 * mu11 * e2 * p4 * p3
    pair_a_noise_42 = 0.5 * mu11 * e3 * p4 * p2
    a0 = real + bunch_2 + bunch_3 + pair_b_noise_12 + pair_b_noise_13 + pair_a_noise_43 + pair_a_noise_42
    as2 = pair_b_noise_12 + pair_a_noise_42 + bunch_3
    as3 = pair_a_noise_43 + pair_b_noise_13 + bunch_2
    return {"A0": a0, "As2": as2, "As3": as3, "P_real": a0 - as2 - as3}


def accidental_params_from(
    scenario: SimScenario,
    tau_w: float,
    gamma: float | None = None,
    bs_photon_fillers: bool = False,
) -> AccidentalParams:
    """Map generator rates onto the per-window closed-form parameters.

    mu_c = pair_rate * tau_w and P_n = noise_rate * tau_w; gamma must be
    supplied explicitly when the scenario uses a delay-dependent gamma.
    With bs_photon_fillers the beam-splitter channel probabilities also
    count uncorrelated pair photons (marginal port occupancy 1/2), which
    a shifted window sees exactly like stray counts; the heralding
    channels keep noise only since pair tags there are accounted by the
    mu_c factors.
    """
    if gamma is None:
        if callable(scenario.gamma):
            raise ValueError("scenario gamma is delay dependent; pass gamma explicitly")
        gamma = float(scenario.gamma)
    p_n = [r * tau_w for r in scenario.noise_rates]
    if bs_photon_fillers:
        photon_rate = 0.5 * (scenario.pair_rate_a + scenario.pair_rate_b)
        p_n[1] += photon_rate * scenario.etas[1] * tau_w
        p_n[2] += photon_rate * scenario.etas[2] * tau_w
    return AccidentalParams(
        mu_c1=scenario.pair_rate_a * tau_w,
        mu_c2=scenario.pair_rate_b * tau_w,
        eta=tuple(scenario.etas),
        p_noise=tuple(p_n),
        gamma=gamma,
    )


# "00" to "99" as two-byte codes: one lookup writes two decimal digits
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
# 10**1 to 10**18: a timestamp t >= 0 has 1 + (the number of these <= t) digits
_POWERS_OF_TEN = np.array([10**k for k in range(1, 19)], dtype=np.int64)
# rows formatted per block: small enough that the scratch arrays stay in cache
_CSV_CHUNK = 1 << 14
# first line of every tag file
_CSV_HEADER = "channel,timestamp_fs"


def _digit_counts(times: np.ndarray) -> np.ndarray:
    return 1 + np.searchsorted(_POWERS_OF_TEN, times, side="right")


def _csv_rows(channels: np.ndarray, times: np.ndarray) -> np.ndarray:
    """ASCII bytes of the rows `channel,timestamp\\n`, as one uint8 array.

    Every row is first laid out at the width of the longest timestamp,
    its digits written two at a time from a lookup table; rows with
    fewer digits then lose their leading zeros through a boolean mask,
    which a block of equal digit counts does without.
    """
    short, width = _digit_counts(np.array([times.min(), times.max()]))
    n_pairs = (width + 1) // 2
    pairs = np.empty((times.size, n_pairs), dtype=np.uint16)
    rest = times
    for k in range(n_pairs - 1, -1, -1):
        # divmod by 100, with the remainder by subtraction: faster than np.divmod
        quot = rest // 100
        pairs[:, k] = _DIGIT_PAIRS[rest - 100 * quot]
        rest = quot
    block = np.empty((times.size, width + 3), dtype=np.uint8)
    # an odd digit count puts the pairs' leading zero on the comma's column,
    # which is written after them
    block[:, width + 2 - 2 * n_pairs : width + 2] = pairs.view(np.uint8)
    # labels are 1 to 4 (TagStream checks), so one ASCII digit each
    np.add(channels, ord("0"), out=block[:, 0])
    block[:, 1] = ord(",")
    block[:, -1] = ord("\n")
    if short == width:
        return block
    cols = np.arange(width + 3)
    return block[(cols < 2) | (cols >= 2 + width - _digit_counts(times)[:, None])]


def save_tags_csv(stream: TagStream, path: str) -> None:
    """Write the stream as an ASCII CSV file.

    The bytes are the header line `channel,timestamp_fs\\n`, then one row
    `<channel>,<timestamp_fs>\\n` per event in (timestamp, channel) order:
    decimal integers without sign, padding or leading zeros, `\\n` line
    ends and no trailing blank line.  An empty stream writes the header
    alone.
    """
    # the stream is time-sorted; only ties can be out of channel order
    ch, t = _tag_order(stream.channels, stream.times_fs)
    with open(path, "wb") as fh:
        for block in _csv_blocks(ch, t):
            fh.write(block)


def _csv_blocks(channels: np.ndarray, times: np.ndarray) -> Iterator[bytes]:
    """The bytes of a tag file, header first, for events already in tag order."""
    yield _CSV_HEADER.encode("ascii") + b"\n"
    for lo in range(0, times.size, _CSV_CHUNK):
        hi = lo + _CSV_CHUNK
        yield _csv_rows(channels[lo:hi], times[lo:hi]).tobytes()


def load_tags_csv(path: str, duration: float | None = None) -> TagStream:
    """Read a `channel,timestamp_fs` file back into a TagStream.

    Rows come back in (timestamp, channel) order.  A file already in that
    order, as `save_tags_csv` writes it, passes an O(n) check and is not
    re-sorted; any other order is sorted (`_tag_order`).  Labels and
    timestamps are validated as read, before they are narrowed.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
    if header != _CSV_HEADER:
        raise ValueError(f"tag file must have header {_CSV_HEADER}")
    # numpy reads a named file in blocks, faster than line by line from a
    # handle; a header-only file is an empty stream, not a malformed one
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(
            path, delimiter=",", dtype=np.int64, ndmin=2, skiprows=1, encoding="ascii"
        )
    if rows.size == 0:
        rows = np.zeros((0, 2), dtype=np.int64)
    if rows.shape[1] != 2:
        raise ValueError(f"tag file rows must hold 2 fields, channel and timestamp_fs, not {rows.shape[1]}")
    ch, t = _tag_order(rows[:, 0], np.ascontiguousarray(rows[:, 1]))
    if duration is None:
        duration = _last_tag_time(t)
    return TagStream(channels=ch, times_fs=t, duration=duration)


def _last_tag_time(times_fs: np.ndarray) -> float:
    """A loaded stream's default duration: its last timestamp, or 1 fs if empty."""
    return float(times_fs[-1] * FS) if times_fs.size else FS


class SharedTagLoader:
    """Loads tag files as `load_tags_csv` does, reusing the last stream it returned.

    For a process that reads one file many times, such as a delay scan run
    as several `tags count` calls through `cwhom.cli.main`.  When the file's
    bytes are exactly those `save_tags_csv` writes for the stream `load`
    returned last, and `duration` resolves to that stream's duration, the
    same stream comes back without a parse: the check compares content,
    never the path or modification time, and costs a re-serialisation
    (0.12-0.17 s at 3.84 M events against 0.33-0.41 s to parse, on a
    shared 2-core host).  Any other file, including one written in another
    row format, is parsed; the first load does no more than
    `load_tags_csv`.  Streams returned are shared, read-only objects, and
    the last one stays in memory until a different file is loaded (~65 MB
    at 3.84 M events, with the channel split the counts make); a file that
    fails its checks is never kept.
    """

    def __init__(self) -> None:
        self._last: TagStream | None = None

    def load(self, path: str, duration: float | None = None) -> TagStream:
        if self._last is not None and _holds(path, self._last, duration):
            return self._last
        # dropped before parsing: the old stream is not kept alive beside the new
        self._last = None
        self._last = load_tags_csv(path, duration)
        return self._last


def _holds(path: str, stream: TagStream, duration: float | None) -> bool:
    """True when loading `path` with `duration` would give `stream` back.

    `stream` came from `load_tags_csv`, so it is in tag order, and a file
    in save_tags_csv's bytes parses to exactly its events.
    """
    t = stream.times_fs
    if stream.duration != (duration if duration is not None else _last_tag_time(t)):
        return False
    with open(path, "rb") as fh:
        return all(fh.read(len(b)) == b for b in _csv_blocks(stream.channels, t)) and not fh.read(1)
