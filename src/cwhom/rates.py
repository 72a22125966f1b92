"""Fourfold rate models and the window/bandwidth trade-off optimizer.

Implements the asynchronous-source fourfold rate R = (mu/T_c)^2 * tau_w,
its pulsed counterpart, the joint optimization of coincidence window and
filter coherence time under a visibility floor, and entanglement-swap
yield under time-varying channel loss.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .interference import TAU23_TC_FACTOR, _identical_source_setup, visibility_at_zero_delay

# optimizer defaults: log-spaced window scan and bisection tightness
N_WINDOW_SAMPLES = 40
DEFAULT_WINDOW_RANGE = (5e-12, 1e-9)
TC_TIGHTNESS = 1.05

# first line of a loss profile file
_LOSS_CSV_HEADER = "t_s,loss1_db,loss2_db,loss3_db,loss4_db"


@dataclass(frozen=True)
class RateQuery:
    """Inputs of the window/coherence-time optimization.

    mu is the pair emission probability per coherence time, jitter the
    common per-channel timing jitter FWHM [s], v_target the visibility
    floor, tc_max the largest admissible coherence time [s]. The sources
    are identical rect filters.
    """

    mu: float
    jitter: float
    v_target: float
    tc_max: float
    tau_w_range: tuple[float, float] = DEFAULT_WINDOW_RANGE

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not 0.0 < self.mu <= 0.2:
            raise ValueError("mu must lie in (0, 0.2]")
        if not self.jitter >= 0:
            raise ValueError("jitter must be nonnegative")
        if not 0.0 < self.v_target < 1.0:
            raise ValueError("v_target must lie in (0, 1)")
        if not self.tc_max > 0:
            raise ValueError("tc_max must be positive")
        lo, hi = self.tau_w_range
        if not 0.0 < lo < hi:
            raise ValueError("tau_w_range must be an increasing positive interval")


@dataclass(frozen=True)
class OptResult:
    """Optimizer output: the best point and the full trade-off curve.

    curve rows are (tau_w, minimal feasible T_c, rate); rate_opt is the
    maximum of the curve's rate column.
    """

    tau_w_opt: float
    tc_opt: float
    rate_opt: float
    curve: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.curve, dtype=float)
        if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] < 1:
            raise ValueError("curve must be a nonempty (n, 3) array")
        object.__setattr__(self, "curve", c)
        if not np.isclose(self.rate_opt, c[:, 2].max(), rtol=1e-12):
            raise ValueError("rate_opt must equal the curve maximum")


@dataclass(frozen=True)
class LossProfile:
    """Per-channel link loss [dB] sampled at strictly increasing times [s]."""

    times: np.ndarray
    losses_db: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        ldb = np.asarray(self.losses_db, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two time samples")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if ldb.shape != (t.size, 4):
            raise ValueError("losses_db must have shape (n_times, 4)")
        if np.any(ldb < 0):
            raise ValueError("losses must be nonnegative dB")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(ldb))):
            raise ValueError("times and losses must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "losses_db", ldb)

    def efficiencies(self) -> np.ndarray:
        """eta_i(t) = 10^(-loss_db/10), shape (n_times, 4)."""
        return 10.0 ** (-self.losses_db / 10.0)

    @classmethod
    def from_csv(cls, path: str) -> "LossProfile":
        """Read `t_s,loss1_db,loss2_db,loss3_db,loss4_db` rows."""
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != _LOSS_CSV_HEADER:
                raise ValueError(f"loss file must have header {_LOSS_CSV_HEADER}")
            # a header-only file reads as zero rows, which the sample count refuses
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        return cls(times=rows[:, 0], losses_db=rows[:, 1:5])


def _finite_rate(formula: str, rate: Callable[[], float]) -> float:
    """rate(), refused with ValueError when it is not a finite float."""
    message = f"{formula} is not a finite float"
    try:
        value = rate()
    except OverflowError:  # a float ** raises where * gives inf
        raise ValueError(message) from None
    if not math.isfinite(value):
        raise ValueError(message)
    return value


def cw_fourfold_rate(
    mu: float,
    t_c: float,
    tau_w: float,
    with_bsm_factor: bool = False,
) -> float:
    """Fourfold rate of two CW-pumped sources at unit channel efficiency.

    R = (mu / T_c)^2 * tau_w, optionally times the 1/2 Bell-state
    projection factor; pass_swaps applies the channel efficiencies.
    """
    if not (mu > 0 and t_c > 0 and tau_w > 0):
        raise ValueError("mu, t_c and tau_w must be positive")
    # refused before the warning, so a failing call reports one thing
    rate = _finite_rate("CW rate (mu / t_c)^2 * tau_w", lambda: (mu / t_c) ** 2 * tau_w)
    if tau_w > t_c:
        warnings.warn(
            "coincidence window exceeds the coherence time; the rate model "
            "assumes tau_w <= T_c",
            stacklevel=2,
        )
    if with_bsm_factor:
        rate *= 0.5
    return rate


def pulsed_rate(mu_p: float, tau_p: float, t_c: float, f_rep: float) -> float:
    """Fourfold rate of pulsed sources: (mu_p * tau_p / T_c)^2 * f_rep."""
    if not (mu_p >= 0 and tau_p > 0 and t_c > 0 and f_rep > 0):
        raise ValueError("mu_p nonnegative; tau_p, t_c, f_rep positive")
    formula = "pulsed rate (mu_p * tau_p / t_c)^2 * f_rep"
    return _finite_rate(formula, lambda: (mu_p * tau_p / t_c) ** 2 * f_rep)


@functools.lru_cache(maxsize=4096)
def _visibility_model(t_c: float, tau_w: float, jitter: float) -> float:
    """Zero-delay visibility of identical rect sources at tau_23 = TAU23_TC_FACTOR T_c."""
    setup = _identical_source_setup(
        t_c=t_c,
        tau_14=tau_w,
        tau_23=TAU23_TC_FACTOR * t_c,
        jitter=jitter,
        filter_kind="rect",
    )
    return visibility_at_zero_delay(setup)


def _min_feasible_tc(
    tau_w: float, q: RateQuery, tc_floor: float
) -> float | None:
    """Smallest T_c <= tc_max meeting the visibility floor, or None.

    Bisects on a log scale until the bracket is tighter than 5%; the
    returned value satisfies V(tc) >= v_target while V(tc / 1.05) does
    not, unless the floor itself is already feasible.
    """
    if _visibility_model(q.tc_max, tau_w, q.jitter) < q.v_target:
        return None
    lo = tc_floor
    if _visibility_model(lo, tau_w, q.jitter) >= q.v_target:
        return lo
    hi = q.tc_max
    while hi / lo > TC_TIGHTNESS:
        mid = float(np.sqrt(lo * hi))
        if _visibility_model(mid, tau_w, q.jitter) >= q.v_target:
            hi = mid
        else:
            lo = mid
    return hi


def _solve_one_window(tau_w: float, q: RateQuery) -> tuple[float, float, float] | None:
    """(tau_w, least feasible T_c, rate) for one window, or None if none is feasible.

    The T_c search starts at max(tau_w / 8, jitter / 4, 1e-12 s). The
    1e-12 s floor is the optimizer's one absolute time scale: it binds
    only when jitter / 4 and tau_w / 8 are both below 1 ps, and elsewhere
    the result scales with every input time.
    """
    tc_floor = max(tau_w / 8.0, q.jitter / 4.0, 1e-12)
    if tc_floor >= q.tc_max:
        tc_floor = q.tc_max / 2.0
    tc = _min_feasible_tc(tau_w, q, tc_floor)
    if tc is None:
        return None
    return (tau_w, tc, cw_fourfold_rate(q.mu, tc, tau_w))


def optimize_window(q: RateQuery) -> OptResult:
    """Maximize R = (mu/T_c)^2 tau_w over the window/coherence trade-off.

    Scans 40 log-spaced coincidence windows; for each, finds the
    smallest coherence time whose zero-delay visibility (identical sources,
    tau_23 = TAU23_TC_FACTOR T_c, accidentals excluded) still meets v_target,
    then rates it.  Windows infeasible even at tc_max are skipped; if
    none is feasible this raises.
    """
    taus = np.geomspace(q.tau_w_range[0], q.tau_w_range[1], N_WINDOW_SAMPLES)
    if _visibility_model(q.tc_max, float(taus[0]), q.jitter) < q.v_target:
        raise ValueError(
            "visibility target unreachable: even at tc_max the smallest "
            "window in tau_w_range falls short of v_target"
        )
    solved = [_solve_one_window(float(t), q) for t in taus]
    rows = [r for r in solved if r is not None]
    if not rows:
        raise ValueError(
            "visibility target unreachable: no coherence time up to tc_max "
            "meets v_target for any window in tau_w_range"
        )
    curve = np.asarray(rows, dtype=float)
    k = int(np.argmax(curve[:, 2]))
    return OptResult(
        tau_w_opt=float(curve[k, 0]),
        tc_opt=float(curve[k, 1]),
        rate_opt=float(curve[k, 2]),
        curve=curve,
    )


def pass_swaps(
    profile: LossProfile, mu: float, t_c: float, tau_w: float
) -> float:
    """Expected entanglement swaps over one loss-profile pass.

    Integrates (trapezoid rule) the fourfold rate with the 1/2 BSM
    factor and the instantaneous four-channel efficiencies over the
    profile's time samples.
    """
    etas = profile.efficiencies()
    base = cw_fourfold_rate(mu, t_c, tau_w, with_bsm_factor=True)
    rates = base * np.prod(etas, axis=1)
    return float(np.trapezoid(rates, profile.times))
