"""Spectral building blocks: frequency grids, filters, and biphoton JSAs.

Frequencies are angular offsets from the (degenerate) center frequency,
in rad/s. Grids are symmetric about zero with an odd point count so that
negation maps grid points onto grid points exactly; downstream code
relies on that to evaluate F(-W) by index reversal.

Fiber Bragg gratings are modeled with a piecewise-uniform coupled-mode
transfer matrix and a super-Gaussian apodization of the coupling
strength. The complex reflection response (magnitude and phase) is what
shapes the biphoton joint spectral amplitude.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .units import C_M_PER_S, wavelength_pm_to_angular

# Effective index used to convert angular-frequency detuning to the
# propagation detuning of the grating equations. Fixed for fused silica
# fiber near 1550 nm; bandwidth calibration absorbs the residual error.
FBG_EFFECTIVE_INDEX = 1.468


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric grid of angular-frequency offsets.

    n_points must be odd and >= 3 so that zero is a grid point and that
    -omega is on the grid whenever omega is.
    """

    n_points: int
    span: float  # half width, rad/s; grid covers [-span, +span]

    def __post_init__(self) -> None:
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and >= 3")
        if not (self.span > 0):
            raise ValueError("span must be positive")

    @property
    def omega(self) -> np.ndarray:
        return np.linspace(-self.span, self.span, self.n_points)

    @property
    def step(self) -> float:
        return 2.0 * self.span / (self.n_points - 1)


@dataclass(frozen=True)
class SpectralAmplitude:
    """Complex field amplitude sampled on a FrequencyGrid (finite, |amp| <= 1)."""

    grid: FrequencyGrid
    amp: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp, dtype=complex)
        if amp.shape != (self.grid.n_points,):
            raise ValueError("amplitude shape does not match grid")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitude must be finite")
        if np.max(np.abs(amp)) > 1.0 + 1e-12:
            raise ValueError("|amplitude| must not exceed 1")
        object.__setattr__(self, "amp", amp)

    def mirrored(self) -> np.ndarray:
        """Amplitude evaluated at -omega (exact, by index reversal)."""
        return self.amp[::-1]


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Biphoton joint spectral amplitude J(W) on a shared grid.

    J(W) refers to the signal photon at +W and the idler at -W. Its
    entries are finite and not all zero.
    """

    grid: FrequencyGrid
    j_amp: np.ndarray

    def __post_init__(self) -> None:
        j = np.asarray(self.j_amp, dtype=complex)
        if j.shape != (self.grid.n_points,):
            raise ValueError("JSA shape does not match grid")
        if not np.all(np.isfinite(j)):
            raise ValueError("JSA must be finite")
        if not np.any(j):
            raise ValueError("JSA is identically zero")
        object.__setattr__(self, "j_amp", j)


# ---------------------------------------------------------------------------
# Analytic filters


def make_filter(grid: FrequencyGrid, kind: str, fwhm: float, center: float = 0.0) -> SpectralAmplitude:
    """Analytic filter amplitude with the given intensity FWHM (rad/s).

    kinds: 'rect', 'gaussian', 'lorentzian'. The FWHM refers to |F|^2.
    Rectangular edges are band-averaged per grid cell so the effective
    width is exact even when edges fall between grid points.
    """
    if fwhm <= 0:
        raise ValueError("fwhm must be positive")
    if fwhm > grid.span:
        raise ValueError("fwhm exceeds grid span")
    w = grid.omega - center
    if kind == "rect":
        # Fractional cell coverage of the band |w| <= fwhm/2, in intensity.
        frac = np.clip((fwhm / 2.0 - np.abs(w)) / grid.step + 0.5, 0.0, 1.0)
        amp = np.sqrt(frac)
    elif kind == "gaussian":
        amp = np.exp(-2.0 * math.log(2.0) * (w / fwhm) ** 2)
    elif kind == "lorentzian":
        amp = 1.0 / np.sqrt(1.0 + (2.0 * w / fwhm) ** 2)
    else:
        raise ValueError(f"unknown filter kind: {kind!r}")
    return SpectralAmplitude(grid=grid, amp=amp.astype(complex))


def tabulated_filter(
    grid: FrequencyGrid,
    omega: np.ndarray,
    reflectance: np.ndarray,
    phase: np.ndarray | None = None,
) -> SpectralAmplitude:
    """Interpolate a measured (omega, |F|^2, phase) table onto a grid.

    Outside the tabulated range the amplitude is zero. Reflectance must
    lie in [0, 1]; abscissae must be strictly increasing.
    """
    omega = np.asarray(omega, dtype=float)
    reflectance = np.asarray(reflectance, dtype=float)
    if omega.ndim != 1 or omega.size < 2:
        raise ValueError("table needs at least two rows")
    if np.any(np.diff(omega) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    if reflectance.shape != omega.shape:
        raise ValueError("table column lengths differ")
    if not np.all((reflectance >= 0) & (reflectance <= 1 + 1e-12)):
        raise ValueError("reflectance must lie in [0, 1]")
    r2 = np.interp(grid.omega, omega, reflectance, left=0.0, right=0.0)
    amp = np.sqrt(np.clip(r2, 0.0, 1.0)).astype(complex)
    if phase is not None:
        phase = np.asarray(phase, dtype=float)
        if phase.shape != omega.shape:
            raise ValueError("table column lengths differ")
        ph = np.interp(grid.omega, omega, phase, left=0.0, right=0.0)
        amp = amp * np.exp(1j * ph)
    return SpectralAmplitude(grid=grid, amp=amp)


def load_filter_table(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Read a filter table CSV: wavelength_pm,reflectance[,phase_rad].

    Returns (omega [rad/s], reflectance, phase or None) sorted by omega.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        cols = [c.strip().lower() for c in header]
        if cols[:2] != ["wavelength_pm", "reflectance"]:
            raise ValueError(f"unexpected filter table header: {header}")
        has_phase = len(cols) > 2 and cols[2] == "phase_rad"
        # a header-only table reads as zero rows; the caller judges the count
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=range(3 if has_phase else 2))
    omega = wavelength_pm_to_angular(rows[:, 0])
    order = np.argsort(omega)
    return omega[order], rows[order, 1], (rows[order, 2] if has_phase else None)


# ---------------------------------------------------------------------------
# Fiber Bragg grating model


@dataclass(frozen=True)
class FbgModel:
    """Piecewise-uniform coupled-mode grating with super-Gaussian apodization.

    kappa(z) = peak_kappa * exp(-ln2 * (2 (z - L/2) / (width * L))**(2 p)),
    so `width` is the FWHM of the coupling profile as a fraction of the
    grating length and `order` p controls how flat the profile top is.
    """

    length: float  # m
    n_sections: int
    peak_kappa: float  # 1/m
    order: float
    width: float  # fraction of length
    detuning_offset: float = 0.0  # rad/s

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not self.length > 0:
            raise ValueError("length must be positive")
        if self.n_sections < 16:
            raise ValueError("n_sections must be >= 16")
        if not self.peak_kappa >= 0:
            raise ValueError("peak_kappa must be nonnegative")
        if not self.order >= 1.0:
            raise ValueError("order must be >= 1")
        if not (0 < self.width <= 1.0):
            raise ValueError("width must lie in (0, 1]")
        if not math.isfinite(self.detuning_offset):
            raise ValueError("detuning_offset must be finite")


def _kappa_profile(model: FbgModel) -> np.ndarray:
    n = model.n_sections
    z = (np.arange(n) + 0.5) * (model.length / n)
    u = 2.0 * (z - model.length / 2.0) / (model.width * model.length)
    return model.peak_kappa * np.exp(-math.log(2.0) * np.abs(u) ** (2.0 * model.order))


def _reflection(model: FbgModel, omega: np.ndarray) -> np.ndarray:
    """Complex reflection amplitude r(omega) of the grating.

    Each section contributes the standard uniform-grating 2x2 transfer
    matrix; sections are chained from the input facet. With real coupling
    and real detuning every section matrix, and so their product, has the
    lossless form [[p, conj(q)], [q, conj(p)]], so the chain tracks only
    its first column. The result satisfies |r|^2 + |t|^2 = 1.
    """
    kappa = _kappa_profile(model)
    dz = model.length / model.n_sections
    # Propagation detuning (1/m) from the angular-frequency offset.
    delta = (omega - model.detuning_offset) * FBG_EFFECTIVE_INDEX / C_M_PER_S
    delta2 = delta * delta

    t11 = np.ones(delta.shape, dtype=complex)
    t21 = np.zeros(delta.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in kappa:
            # gamma^2 = kappa^2 - delta^2: cosh/sinh inside the stopband,
            # cos/sin outside, both with real arguments g dz.
            gamma2 = k * k - delta2
            g = np.sqrt(np.abs(gamma2))
            x = g * dz
            band = gamma2 > 0
            ch = np.where(band, np.cosh(x), np.cos(x))
            # sinh(gamma dz) / gamma, with its limit dz at gamma -> 0
            shc = np.where(x < 1e-8, dz, np.where(band, np.sinh(x), np.sin(x)) / g)
            p = ch - 1j * (delta * shc)
            q = 1j * (k * shc)
            t11, t21 = t11 * p + t21.conj() * q, t21 * p + t11.conj() * q
    if not np.all(np.isfinite(t11)):
        raise ValueError("invalid FBG model: transfer matrix overflow (kappa*L too large)")
    r = t21 / t11
    t = 1.0 / t11
    residual = np.max(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0))
    if residual > 1e-9:
        raise ValueError(f"invalid FBG model: energy conservation violated ({residual:.2e})")
    return r


def fbg_response(model: FbgModel, grid: FrequencyGrid) -> SpectralAmplitude:
    """Complex reflection amplitude r(W) of the grating on a grid."""
    return SpectralAmplitude(grid=grid, amp=_reflection(model, grid.omega))


@functools.cache
def fbg_reflectivity_fwhm(model: FbgModel) -> float:
    """FWHM of |r(W)|^2 in rad/s, by linear interpolation of the crossings."""
    # Generous span: grating bandwidth scales with kappa and 1/length.
    span = 12.0 * (model.peak_kappa + math.pi / model.length) * C_M_PER_S / FBG_EFFECTIVE_INDEX / 2.0
    span = max(span, 40.0 / model.length * C_M_PER_S / FBG_EFFECTIVE_INDEX)
    grid = FrequencyGrid(n_points=4097, span=span)
    r2 = np.abs(fbg_response(model, grid).amp) ** 2
    return fwhm_from_samples(grid.omega, r2)


def fwhm_from_samples(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half the peak value of sampled y(x).

    Linear interpolation between the bracketing samples; on each side
    the first half-maximum crossing walking outward from the peak wins.
    Raises ValueError for a non-finite sample, a peak that is not
    positive, or a crossing not bracketed by the sampled range.
    """
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")
    i0 = int(np.argmax(y))
    if not y[i0] > 0:
        raise ValueError("peak must be positive")
    half = y[i0] / 2.0
    if y[0] >= half or y[-1] >= half:
        raise ValueError("half-maximum crossings not bracketed by the sampled range")
    lo = i0
    while y[lo] > half:
        lo -= 1
    x_lo = x[lo] + (x[lo + 1] - x[lo]) * (half - y[lo]) / (y[lo + 1] - y[lo])
    hi = i0
    while y[hi] > half:
        hi += 1
    x_hi = x[hi] - (x[hi] - x[hi - 1]) * (half - y[hi]) / (y[hi - 1] - y[hi])
    return float(x_hi - x_lo)


# Calls of the residual function one least-squares search may make.
LM_MAX_EVALS = 400


def _levenberg_marquardt(fun, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize sum(fun(x)**2) from x0; returns (x, fun(x)).

    Levenberg-Marquardt with a forward-difference Jacobian, steps
    sqrt(eps) max(1, |x_i|). A trial step solves
    (J^T J + lam D) dx = -J^T r, with D the diagonal of J^T J floored at
    1e-12 of its largest entry, so a column that a clamp inside fun
    zeroes leaves the system nonsingular. A step that lowers the cost is
    taken and divides lam by 10; a step that does not multiplies it by
    10. The search stops after a step that lowers the cost by less than
    1e-8 of itself, after a trial step shorter than 1e-8 of |x| (taken if
    it lowers the cost), when the gradient vanishes, or once fun has been
    called LM_MAX_EVALS times.
    """
    x = np.asarray(x0, dtype=float)
    r = fun(x)
    cost, evals, lam = float(r @ r), 1, 1e-3
    rel_h = math.sqrt(np.finfo(float).eps)
    while evals + x.size < LM_MAX_EVALS:
        jac = np.empty((r.size, x.size))
        for i in range(x.size):
            xi = x.copy()
            xi[i] += rel_h * max(1.0, abs(x[i]))
            jac[:, i] = (fun(xi) - r) / (xi[i] - x[i])
        evals += x.size
        jtj, grad = jac.T @ jac, jac.T @ r
        if not np.any(grad):
            break
        damp = np.diag(np.maximum(np.diag(jtj), 1e-12 * np.max(np.diag(jtj))))
        while True:
            step = np.linalg.solve(jtj + lam * damp, -grad)
            r_new = fun(x + step)
            evals += 1
            cost_new = float(r_new @ r_new)
            done = np.linalg.norm(step) <= 1e-8 * (1e-8 + np.linalg.norm(x)) or evals >= LM_MAX_EVALS
            if cost_new < cost or done:
                break
            lam *= 10.0
        if cost_new < cost:
            done = done or cost - cost_new <= 1e-8 * cost
            x, r, cost, lam = x + step, r_new, cost_new, lam / 10.0
        if done:
            break
    return x, r


def fit_fbg(
    omega: np.ndarray,
    reflectance: np.ndarray,
    seed: FbgModel,
    rng_seed: int = 0,
    n_restarts: int = 3,
) -> tuple[FbgModel, float]:
    """Fit (peak_kappa, order, width, detuning_offset) to a measured |r|^2.

    Length and section count are kept from the seed (they describe the
    physical device, not the fit). The model is evaluated at the table's
    own abscissae, and a Levenberg-Marquardt least-squares search
    minimizes the vector of reflectance errors. |r|^2 is even about the
    detuning offset, so the offset starts at the reflectance centroid
    sum(omega r) / sum(r); the other parameters start at the seed's.
    `n_restarts` extra starts are drawn at random around that point, and
    the lowest residual wins. Returns (model, residual) with
    residual the sum of squared reflectance errors; the unmodified seed
    comes back when no start improves on it. A seed the transfer matrix
    refuses raises ValueError.
    """
    omega = np.asarray(omega, dtype=float)
    reflectance = np.asarray(reflectance, dtype=float)
    if omega.size < 20:
        raise ValueError("too few samples to fit a grating model")
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(reflectance))):
        raise ValueError("fit inputs must be finite")
    if np.ptp(reflectance) == 0:
        raise ValueError("degenerate table: reflectance has no variation")
    if not np.sum(reflectance) > 0:
        raise ValueError("degenerate table: reflectance does not sum to a positive value")
    if np.any(np.diff(omega) <= 0):
        raise ValueError("fit abscissae must be strictly increasing")
    span = max(abs(omega[0]), abs(omega[-1]))
    scale_off = max(abs(seed.detuning_offset), 0.05 * span)
    centroid = float(np.sum(omega * reflectance) / np.sum(reflectance))

    def unpack(x) -> FbgModel:
        return replace(
            seed,
            peak_kappa=seed.peak_kappa * math.exp(x[0]),
            order=max(1.0, seed.order * math.exp(x[1])),
            width=min(1.0, seed.width * math.exp(x[2])),
            detuning_offset=centroid + x[3] * scale_off,
        )

    def model_errors(model: FbgModel) -> np.ndarray:
        return np.abs(_reflection(model, omega)) ** 2 - reflectance

    def errors(x) -> np.ndarray:
        try:
            return model_errors(unpack(x))
        except (ValueError, OverflowError, FloatingPointError):
            # a point whose model cannot be built or evaluated scores worse
            # than any valid one
            return np.full(omega.size, 1e6)

    # the seed itself is not caught: a seed the model refuses is an input error
    seed_res = float(np.sum(model_errors(seed) ** 2))
    if seed_res == 0.0:
        return seed, 0.0

    rng = np.random.default_rng(rng_seed)
    starts = [np.zeros(4)] + [0.1 * rng.standard_normal(4) for _ in range(n_restarts)]
    best_res, best = math.inf, seed
    for start in starts:
        x, r = _levenberg_marquardt(errors, start)
        res = float(r @ r)
        if res < best_res:
            best_res, best = res, unpack(x)
    if best_res > seed_res:
        return seed, seed_res
    return best, best_res


# ---------------------------------------------------------------------------
# Joint spectral amplitude


def joint_spectral_amplitude(
    signal: SpectralAmplitude,
    idler: SpectralAmplitude,
    normalize: bool = True,
) -> JointSpectralAmplitude:
    """J(W) = F_s(W) * F_i(-W), optionally peak-normalized.

    With a CW pump and pm-scale filters the pump phase-matching envelope
    is flat over the filter support, so it does not enter.
    """
    if signal.grid != idler.grid:
        raise ValueError("signal and idler grids must match")
    j = signal.amp * idler.mirrored()
    peak = np.max(np.abs(j))
    if peak == 0:
        raise ValueError("JSA is identically zero: the filter bands do not overlap")
    if normalize:
        j = j / peak
    return JointSpectralAmplitude(grid=signal.grid, j_amp=j)
