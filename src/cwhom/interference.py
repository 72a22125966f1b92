"""Four-photon interference engine and temporal coherence functions.

Two independent computational routes to the same physical quantity:

* ``FourfoldEngine`` sums the frequency-domain coincidence
  expression over the grid, with the window sinc kernels and jitter
  kernels attached to index differences. Each of the four terms of the
  interference bracket becomes a lag sum sum_d c[d] exp(i x_d tau) on
  one uniform lag axis: the two direct terms factorize onto
  autocorrelations, and each cross term, a chained matrix contraction
  done once at build (never a literal four-nested loop), reduces to the
  diagonal sums of its core. The kernels are even on the symmetric lag
  axis, so the second cross core is the conjugate transpose of the first
  (``w4 = w3^H``) and its coefficients cost nothing extra. The engine
  keeps only the 4 x (2m - 1) coefficient block, and
  ``FourfoldEngine.probabilities`` evaluates a whole delay scan with one
  phase block and one product with it. Every sum runs over the
  contiguous span of m grid points where either JSA is nonzero (a rect
  JSA fills a few percent of its grid); the points outside it
  contribute exact zeros.

* ``fourfold_probability_oracle`` works in the time domain: it builds
  the pair amplitudes by discrete Fourier transform of each JSA, forms
  the antisymmetrized four-time detection density, and integrates the
  detection times over the coincidence windows (jitter folded into the
  window weights analytically). Its Fourier sums skip the zero entries
  of each JSA. It shares no kernel code with the frequency route.

Both routes carry the same absolute normalization, so their ratio is a
discretization-error diagnostic, not a free parameter.

Lag sums over a uniform delay scan (the coherence density and the
coherence FWHM) are chirp-z transforms: Bluestein's identity turns the
sum over lags at every delay into one FFT convolution.

All outputs are unnormalized probabilities: one global scale is left
free by design and every reported metric (visibility, normalized dip
curves) is a ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .detection import DetectorModel, jitter_kernel, jitter_sigma_time
from .spectral import (
    FrequencyGrid,
    JointSpectralAmplitude,
    fwhm_from_samples,
    joint_spectral_amplitude,
    make_filter,
)
from .units import FS, RECT_TC_PRODUCT

# Relative tolerance for the imaginary residue of the (mathematically
# real) coincidence sum, measured against the term-magnitude scale.
IMAG_RESIDUE_TOL = 1e-9

# Oscillation-resolution rule: grid spacing must satisfy
# d_omega <= 2*pi / (RESOLUTION_PERIODS * T_max).
RESOLUTION_PERIODS = 8.0


class GridResolutionError(ValueError):
    """Grid too coarse to resolve the fastest kernel oscillation."""

    def __init__(self, message: str, required_n_points: int | None = None):
        super().__init__(message)
        self.required_n_points = required_n_points


class NumericalError(ArithmeticError):
    """A numeric guard tripped: roundoff swamps the computed quantity."""


@dataclass(frozen=True)
class CoincidenceConfig:
    """Coincidence windows relative to the channel-1 trigger.

    Each window is at least 1 fs, the tag clock's resolution; narrower
    ones would run the engine's window kernels on subnormal floats.
    """

    tau_14: float  # s, heralding (outer) window
    tau_23: float  # s, BS-photon window

    def __post_init__(self) -> None:
        # written so that NaN fails it
        if not (self.tau_14 >= FS and self.tau_23 >= FS):
            raise ValueError("coincidence windows must be at least 1 fs")


# (herald, BS input) channel of each source, as InterferenceSetup states
SOURCE_CHANNELS = {"a": (1, 2), "b": (4, 3)}


def source_jitters(jitters, source: str) -> tuple[float, float]:
    """The entries of four per-channel jitters on the channels a source feeds."""
    return tuple(jitters[c - 1] for c in SOURCE_CHANNELS[source])


@dataclass(frozen=True)
class InterferenceSetup:
    """Everything the coincidence probability depends on.

    Source A feeds channels 1 (herald) and 2 (BS input); source B feeds
    channels 4 (herald) and 3 (BS input). known_coherence_times, when
    given, are the sources' coherence FWHMs known by construction; they
    are not checked against the JSAs, so a copy with other JSAs must drop
    them.
    """

    jsa_a: JointSpectralAmplitude
    jsa_b: JointSpectralAmplitude
    detectors: DetectorModel
    windows: CoincidenceConfig
    known_coherence_times: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.jsa_a.grid != self.jsa_b.grid:
            raise ValueError("both JSAs must share one frequency grid")

    @cached_property
    def coherence_times(self) -> tuple[float, float]:
        """Jitter-free coherence FWHM of each source's JSA [s], known or estimated."""
        if self.known_coherence_times is not None:
            return self.known_coherence_times
        return (jsa_coherence_fwhm(self.jsa_a), jsa_coherence_fwhm(self.jsa_b))


@dataclass(frozen=True)
class HomCurve:
    delays: np.ndarray
    values: np.ndarray
    plateau: float
    dip: float
    plateau_delay: float
    plateau_reliable: bool


@dataclass(frozen=True)
class CoherenceCurve:
    delays: np.ndarray
    density: np.ndarray
    t_c_fwhm: float


# ---------------------------------------------------------------------------
# Temporal coherence


def coherence_function(
    jsa: JointSpectralAmplitude,
    jit_s: float,
    jit_i: float,
    delays: np.ndarray,
) -> CoherenceCurve:
    """Signal-idler arrival-delay density G(tau) and its FWHM.

    G(tau) = sum over frequency pairs of J(W1) J*(W2) exp(i(W1-W2)tau)
    weighted by both detection kernels; evaluated over index lags. The
    FWHM is interpolated linearly; if the delay span fails to bracket
    the half maximum on both sides this raises instead of extrapolating.
    A non-finite or significantly negative density raises NumericalError.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size < 5:
        raise ValueError("need a 1-d array of at least 5 delays")
    span = delays[-1] - delays[0]
    if abs(delays[0] + delays[-1]) > 1e-6 * span:
        raise ValueError("delay scan must be symmetric about zero")
    # the lag sum runs on the uniform lattice through both end points;
    # the tolerance admits rounding and the snapping of tau = 0
    lattice = np.linspace(delays[0], delays[-1], delays.size)
    if np.max(np.abs(delays - lattice)) > 1e-9 * span:
        raise ValueError("delays must be uniformly spaced")
    grid = jsa.grid
    x = _lag_axis(grid.n_points, grid.step)
    # an overflowing kernel exponent gives exp(-inf), the exact 0; an
    # overflowing lag sum is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        k = jitter_kernel(jit_s, x) * jitter_kernel(jit_i, x)
        r = np.correlate(jsa.j_amp, jsa.j_amp, mode="full")  # R(d) at index d+n-1
        g = _lag_sum_over_delays(r * k, x, delays) * grid.step**2
    if not np.all(np.isfinite(g)):
        raise NumericalError("coherence density is not finite")
    floor = -1e-9 * float(np.max(np.abs(g)))
    if float(np.min(g)) < floor:
        raise NumericalError("coherence density has a significant negative part")
    g = np.maximum(g, 0.0)
    t_c = fwhm_from_samples(delays, g)
    return CoherenceCurve(delays=delays, density=g, t_c_fwhm=t_c)


def jsa_coherence_fwhm(jsa: JointSpectralAmplitude) -> float:
    """Jitter-free coherence FWHM of a JSA, with adaptive delay span.

    The 8193-delay scan starts at three periods of the JSA's support
    width and doubles its span until it brackets the half maximum.
    """
    grid = jsa.grid
    absj = np.abs(jsa.j_amp)
    support = grid.omega[absj > 1e-6 * absj.max()]
    w_supp = float(support[-1] - support[0])
    if w_supp <= 0:
        w_supp = 2.0 * grid.step
    half_span = 3.0 * 2.0 * math.pi / w_supp
    for _ in range(40):
        delays = np.linspace(-half_span, half_span, 8193)
        # the scan's ValueErrors are an unbracketed half maximum, which a
        # wider span mends, and a density with no positive peak; a
        # non-finite or negative density raises NumericalError at once
        try:
            return coherence_function(jsa, 0.0, 0.0, delays).t_c_fwhm
        except ValueError:
            half_span *= 2.0
    raise ValueError("coherence FWHM did not converge; JSA support degenerate?")


def _lag_axis(m: int, step: float) -> np.ndarray:
    """Frequency lags d * step of m grid points, d from -(m - 1) to m - 1."""
    return np.arange(-(m - 1), m) * step


def _chirp(phi: float, j: np.ndarray) -> np.ndarray:
    """exp(i phi j^2 / 2) for integers j, free of the rounding of a large phase.

    phi / 2 splits into a 24-bit head, whose product with j^2 is exact
    while j^2 < 2^29, and a small tail; libm reduces the exact product.
    """
    half = 0.5 * phi
    head = float(np.float32(half))
    j2 = j.astype(float) ** 2
    return np.exp(1j * head * j2) * np.exp(1j * (half - head) * j2)


def _lag_sum_over_delays(coeff: np.ndarray, x: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """Re sum_d coeff[d] exp(i x_d tau) per tau, as one chirp-z transform.

    Both axes are uniform, x_d = x_0 + d dx and tau_k = tau_0 + k dt (the
    delays are taken as the lattice through their end points), so with
    phi = dx dt the phase splits into exp(i x_d tau_0) exp(i x_0 k dt)
    exp(i phi d k). Bluestein's identity d k = (d^2 + k^2 - (k - d)^2) / 2
    turns the sum over d into a convolution with the chirp
    exp(-i phi j^2 / 2), done by FFT on a circle long enough that the
    needed j = k - d, from -(lags - 1) to delays - 1, never alias.
    """
    n_lag, m = x.size, delays.size
    dt = (delays[-1] - delays[0]) / max(m - 1, 1)
    phi = (x[-1] - x[0]) / max(n_lag - 1, 1) * dt
    d = np.arange(n_lag)
    k = np.arange(m)
    # the least power of two >= n_lag + m - 1
    size = 1 << (n_lag + m - 2).bit_length()
    # circular layout: every k - d lands on its own slot, negatives at the end
    j = np.arange(size)
    j[j >= m] -= size
    a = coeff * np.exp(1j * x * delays[0]) * _chirp(phi, d)
    conv = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(np.conj(_chirp(phi, j))))[:m]
    return np.real(np.exp(1j * x[0] * dt * k) * _chirp(phi, k) * conv)


# ---------------------------------------------------------------------------
# Frequency-domain coincidence probability


def _window_kernel(tau: float, x: np.ndarray) -> np.ndarray:
    # window tau on the lag axis: tau sin(tau x / 2) / (tau x / 2); np.sinc is normalized
    return tau * np.sinc(tau * x / 2.0 / np.pi)


# Most points of a sized grid, 8 MiB per float64 array over it and about
# 370x the largest grid the tests and the benchmark size (2 837 points).
# A larger count is refused before it is made an int or anything is
# allocated.
MAX_GRID_POINTS = 2**20 + 1

# Most bytes of the engine build's square arrays, 16 m^2 for a JSA
# support of m grid points (its two real m x m Toeplitz kernels): 128 MiB,
# m <= 2896, twice the largest support the tests and the benchmark build
# (1407). With its column blocks the build peaks at ~23 m^2 bytes
# (tracemalloc, m = 1407); a larger support is refused before anything
# m x m is allocated.
MAX_ENGINE_CORE_BYTES = 2**27

# Columns of the cross core the engine's build makes at a time: a
# support of at most this many points is one block, and each complex
# m x _CROSS_BLOCK transient of a block takes 16 m _CROSS_BLOCK bytes.
_CROSS_BLOCK = 256


def _max_step(t_max: float) -> float:
    """Coarsest grid step [rad/s] that resolves times up to t_max."""
    return 2.0 * math.pi / (RESOLUTION_PERIODS * t_max)


def _required_n_points(span: float, t_max: float) -> int:
    """Fewest odd point count over [-span, span] resolving times up to t_max.

    A count past MAX_GRID_POINTS raises GridResolutionError, naming it if
    finite: an overflowed t_max leaves no step, an infinite span no count.
    """
    step_max = _max_step(t_max)
    steps = 2.0 * span / step_max if step_max > 0 else math.inf
    n = None
    if math.isfinite(steps):
        n = int(math.ceil(steps)) + 1
        n += n % 2 == 0
    if n is None or n > MAX_GRID_POINTS:
        raise GridResolutionError(
            f"resolving times up to {t_max:.3e} s over a span of {span:.3e} rad/s needs "
            f"{n or 'more'} grid points; at most {MAX_GRID_POINTS} are allowed",
            required_n_points=n,
        )
    return n


# Intensity-FWHM x coherence-time product of each analytic filter shape:
# a filter of FWHM product / t_c gives J = F(W) F(-W) a jitter-free
# coherence FWHM of t_c, per analytic transform of the shape.
WIDTH_PRODUCTS = {
    "rect": RECT_TC_PRODUCT,
    "gaussian": 4.0 * math.sqrt(2.0) * math.log(2.0),
    "lorentzian": 2.0 * math.log(2.0),
}

# Fewest points of a grid sized by ``sized_grid``.
GRID_FLOOR = 129

# Half span of a sized grid, in units of the widest filter FWHM.
SPAN_FACTOR = 8.0


def sized_grid(
    span: float, t_max: float, floor: int = GRID_FLOOR, n_points: int | None = None
) -> FrequencyGrid:
    """Grid over [-span, span] with n_points, or else the fewest points, and at
    least floor, that resolve times up to t_max (floor when t_max is 0).

    Either count must stay within MAX_GRID_POINTS (GridResolutionError).
    """
    if n_points is None:
        n_points = max(floor, _required_n_points(span, t_max)) if t_max > 0 else floor
    elif n_points > MAX_GRID_POINTS:
        raise GridResolutionError(f"n_points {n_points} exceeds the limit of {MAX_GRID_POINTS}")
    return FrequencyGrid(n_points=n_points, span=span)


def filter_width(kind: str, t_c: float) -> float:
    """Intensity FWHM [rad/s] of the analytic filter whose JSA has coherence FWHM t_c."""
    try:
        # a float quotient: one past the float range is inf, refused by the
        # grid sizing, with no numpy overflow warning for a numpy t_c
        return WIDTH_PRODUCTS[kind] / float(t_c)
    except KeyError:
        raise ValueError(f"unsupported filter kind: {kind!r}")


def analytic_jsa(grid: FrequencyGrid, kind: str, t_c: float) -> JointSpectralAmplitude:
    """J = F(W) F(-W) behind one analytic filter, with coherence FWHM t_c."""
    f = make_filter(grid, kind, filter_width(kind, t_c))
    return joint_spectral_amplitude(f, f)


@dataclass(frozen=True)
class Source:
    """A pair source with what a frequency grid must cover and resolve for it."""

    jsa: Callable[[FrequencyGrid], JointSpectralAmplitude]  # samples its JSA on a grid
    width: float  # rad/s, widest filter FWHM
    t_c: float  # s, jitter-free coherence FWHM: exact if analytic, calibrated if preset
    floor: int = GRID_FLOOR  # fewest points of a grid for it


def analytic_source(kind: str, t_c: float) -> Source:
    """Source behind one analytic filter of shape kind, with coherence FWHM t_c."""
    return Source(lambda grid: analytic_jsa(grid, kind, t_c), filter_width(kind, t_c), t_c)


def source_grid(
    sources: Sequence[Source], t_max: float, n_points: int | None = None
) -> FrequencyGrid:
    """Grid for sources: a half span of SPAN_FACTOR x the widest width, at least
    the largest floor of points, and times up to t_max and every T_c resolved.
    """
    return sized_grid(
        SPAN_FACTOR * max(s.width for s in sources),
        max(t_max, *(s.t_c for s in sources)),
        max(s.floor for s in sources),
        n_points,
    )


def build_setup(
    a: Source,
    b: Source,
    windows: CoincidenceConfig,
    jitters: tuple[float, float, float, float],
    *,
    reach: float = 0.0,
    n_points: int | None = None,
) -> InterferenceSetup:
    """Setup with sources a and b sampled on one ``source_grid``.

    The grid resolves the windows and reach besides both T_c, which the
    setup carries as its known coherence times. Two arms holding the same
    Source share one JSA sample.
    """
    grid = source_grid((a, b), max(windows.tau_14, windows.tau_23, reach), n_points)
    jsa_a = a.jsa(grid)
    return InterferenceSetup(
        jsa_a=jsa_a,
        jsa_b=jsa_a if b is a else b.jsa(grid),
        detectors=DetectorModel(jitter_fwhm=jitters),
        windows=windows,
        known_coherence_times=(a.t_c, b.t_c),
    )


def _check_resolution(grid: FrequencyGrid, t_max: float, context: str) -> None:
    step_max = _max_step(t_max)
    if grid.step > step_max * (1.0 + 1e-12):
        need = _required_n_points(grid.span, t_max)
        raise GridResolutionError(
            f"grid spacing {grid.step:.3e} rad/s cannot resolve {context}: "
            f"need <= {step_max:.3e} rad/s (n_points >= {need} at this span)",
            required_n_points=need,
        )


def _diagonal_sums(a: np.ndarray, row0: int, out: np.ndarray) -> None:
    """Add the diagonal sums of rows row0 .. row0 + b - 1 of a square array to out.

    a holds those b rows of n columns, and out runs over the lags
    d = l - k from -(n - 1) to n - 1: entry d + n - 1 gains the sum of
    a[k - row0, k + d]. The rows go in reversed into a b x (n + b)
    zero-padded buffer; read with a row stride of n + b - 1, that buffer
    puts a[b - 1 - r, j - r] in column j of row r, so each column holds
    one diagonal, of lag j - (b - 1) - row0, and one sum over rows gives
    all n + b - 1 of them.
    """
    b, n = a.shape
    padded = np.zeros((b, n + b), dtype=a.dtype)
    padded[:, :n] = a[::-1]
    start = n - b - row0
    out[start : start + n + b - 1] += padded.ravel()[: b * (n + b - 1)].reshape(b, n + b - 1).sum(axis=0)


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The m x m Toeplitz matrix [k, l] -> c[l - k + m - 1] of 2m - 1 contiguous lag values, as a view."""
    m = (c.size + 1) // 2
    # row k starts at c[m - 1 - k], and steps back one value per row
    return np.ndarray((m, m), c.dtype, c, (m - 1) * c.itemsize, (-c.itemsize, c.itemsize))


class FourfoldEngine:
    """Lag coefficients of the four bracket terms for one setup; cheap evaluation per delay.

    Every bracket term is a lag sum sum_d c[d] exp(i x_d tau) on the
    symmetric lag axis x, so the engine keeps one 4 x (2m - 1) block of
    coefficients c. The direct terms collapse onto JSA autocorrelations
    over the lags. Each cross term is a bilinear form u^H M u with
    u = exp(i tau W), and since W is uniform, conj(u_k) u_l depends only
    on l - k: its coefficient c[d] is the sum of M's d-th diagonal.
    The jitter and window kernels are even on the lag axis, so the
    Toeplitz kernel matrices k_phi2 and k_phi3 are real and symmetric
    and the 1-2 and 3-4 links k12 and k34 are Hermitian. The second
    cross core w4 = k_phi2 k12 k_phi3 is then exactly w3^H for
    w3 = k_phi3 k12 k_phi2, whatever the jitters, and its coefficients
    are the first cross term's reversed and conjugated. The build makes
    w3 a block of columns at a time, two real products per block on its
    real and imaginary parts side by side, and reads its coefficients off
    each block: no complex m x m array is made, and only the two real
    Toeplitz kernels of g1 and phi3 are m x m.

    Only the span [lo, hi) from the first to the last grid point where
    either JSA is nonzero enters: the JSAs and the lag axis are cut to
    it, so the lag axis has 2m - 1 points for m = hi - lo, not 2n - 1.
    The span is contiguous, so the lag axis stays uniform and every
    identity above holds on it; the grid resolution checks still use the
    full grid's step. Dense JSAs give the whole grid.

    ``_terms`` evaluates a delay scan with one phase block and one product
    with the coefficient block and checks every delay; ``probabilities``,
    ``probability``, ``baseline`` and ``visibility_at_zero_delay`` all read
    its checked terms.
    """

    # an overflowing build is refused below, once its coefficients are known
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, setup: InterferenceSetup):
        grid = setup.jsa_a.grid
        tc_a, tc_b = setup.coherence_times
        cfg = setup.windows
        self._static_t_max = max(cfg.tau_14, cfg.tau_23, tc_a, tc_b)
        _check_resolution(grid, self._static_t_max, "window/coherence kernels")
        self.grid = grid

        # an exact test: points outside [lo, hi) add exact zeros to every term
        ja = setup.jsa_a.j_amp
        jb = setup.jsa_b.j_amp
        nz = np.flatnonzero((ja != 0) | (jb != 0))
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        ja, jb = ja[lo:hi], jb[lo:hi]
        m = hi - lo
        if 16 * m * m > MAX_ENGINE_CORE_BYTES:
            raise GridResolutionError(
                f"a JSA support of {m} grid points needs {16 * m * m} bytes for the engine's "
                f"two real m x m kernels; at most {MAX_ENGINE_CORE_BYTES} are allowed"
            )

        j1, j2, j3, j4 = setup.detectors.jitter_fwhm
        x = _lag_axis(m, grid.step)
        g1 = jitter_kernel(j1, x)
        g4 = jitter_kernel(j4, x)
        k23 = _window_kernel(cfg.tau_23, x)
        phi2 = k23 * jitter_kernel(j2, x)
        phi3 = k23 * jitter_kernel(j3, x)
        s14 = _window_kernel(cfg.tau_14, x) * g4

        ra = np.correlate(ja, ja, mode="full")
        rb = np.correlate(jb, jb, mode="full")

        # Direct terms: an a-side scalar times b-side lag coefficients.
        a_phi2 = complex((np.conj(ra) * (g1 * phi2)).sum())
        a_phi3 = complex((np.conj(ra) * (g1 * phi3)).sum())
        b_phi3 = np.conj(rb) * (s14 * phi3)
        b_phi2 = np.conj(rb) * (s14 * phi2)
        self._x = x

        # Cross terms: chain 1-2 (g1), 2-3 (phi), 3-4 (window-14 kernel
        # with delay phase), 4-1 (other phi); trace taken against the
        # 3-4 link leaves an m x m core k34 * w3.T per bracket term, whose
        # diagonal sums are its lag coefficients. With the Toeplitz G1,
        # Phi2, Phi3 and S14 of g1, phi2, phi3 and s14, k12 =
        # diag(ja) G1 diag(ja*) and k34 = diag(jb) S14 diag(jb*), so the
        # core's d-th diagonal sums to s14[d] D[d], D[d] being the sum of
        # P[k + d, k] for P = diag(jb*) w3 diag(jb) and w3 = Phi3 k12 Phi2.
        # P is made a block of columns at a time, from the columns
        # Phi3 diag(ja) G1 diag(ja*) Phi2[:, blk] of w3: G1 and Phi3 are
        # real, so each block goes through them as real products on its
        # complex entries viewed as float pairs. The block's columns are
        # rows of P.T, whose diagonal sums are D.
        g1_t = _toeplitz(g1).copy()
        phi3_t = _toeplitz(phi3).copy()
        phi2_t = _toeplitz(phi2)
        ja_conj, jb_conj = np.conj(ja)[:, None], np.conj(jb)[:, None]
        d_sum = np.zeros(2 * m - 1, dtype=complex)
        d_abs = np.zeros(2 * m - 1)
        for k0 in range(0, m, _CROSS_BLOCK):
            k1 = min(k0 + _CROSS_BLOCK, m)
            # made in C order, so each row of the block views as 2b floats
            p = np.multiply(ja_conj, phi2_t[:, k0:k1], out=np.empty((m, k1 - k0), dtype=complex))
            p = (g1_t @ p.view(np.float64)).view(complex)
            p *= ja[:, None]
            p = (phi3_t @ p.view(np.float64)).view(complex)
            p *= jb_conj
            p *= jb[k0:k1]
            _diagonal_sums(p.T, k0, d_sum)
            _diagonal_sums(np.abs(p.T), k0, d_abs)
        self._scale = grid.step**4
        # Roundoff capacity of the four terms: deep in the tail they
        # cancel to a value far below the magnitudes actually summed, so
        # residues must be judged against those magnitudes. The first
        # cross core's magnitudes sum to |s14| . D_abs, D_abs the diagonal
        # sums of |P|, and the second core k34 * conj(w3) has the
        # magnitudes |k34| |w3|, which sum to the same, as |k34| is
        # symmetric.
        self._residue_cap = self._scale * (
            abs(a_phi2) * float(np.abs(b_phi3).sum())
            + abs(a_phi3) * float(np.abs(b_phi2).sum())
            + 2.0 * float(np.abs(s14) @ d_abs)
        )
        c3 = s14 * d_sum
        # rows T1..T4; the fourth is the second cross core's diagonal sums,
        # those of k34 * conj(w3) with k34 Hermitian
        self._coeff = np.stack([a_phi2 * b_phi3, a_phi3 * b_phi2, c3, np.conj(c3[::-1])])
        if not (math.isfinite(self._residue_cap) and np.isfinite(self._coeff).all()):
            raise NumericalError("the engine's lag coefficients overflow the float range")

    def _terms(self, taus: np.ndarray) -> np.ndarray:
        """Bracket contributions T1..T4 (rows) per delay, each times step^4.

        The grid must resolve the largest |tau|. The imaginary residue of
        the bracket T1 + T2 - T3 - T4 and the sign of its real part are
        checked at every delay (NumericalError), so every reader of the
        terms gets checked ones.
        """
        t_max = max(self._static_t_max, float(np.max(np.abs(taus))))
        _check_resolution(self.grid, t_max, "the delay phase")
        out = np.empty((4, taus.size), dtype=complex)
        # phase blocks stay within 4e6 elements however long the scan
        chunk = max(1, int(4e6 // self._x.size))
        for lo in range(0, taus.size, chunk):
            t = taus[lo : lo + chunk]
            out[:, lo : lo + chunk] = self._coeff @ np.exp(1j * np.outer(self._x, t))
        out *= self._scale
        t1, t2, t3, t4 = out
        total = t1 + t2 - t3 - t4
        # where the scale is 0 so is every term, and neither test can trip
        scale = np.maximum(np.abs(out).sum(axis=0), self._residue_cap)
        limit = IMAG_RESIDUE_TOL * scale
        # argmax of a boolean array is its first True
        bad = np.abs(total.imag) > limit
        if bad.any():
            i = bad.argmax()
            raise NumericalError(
                f"imaginary residue {total.imag[i]:.3e} exceeds {IMAG_RESIDUE_TOL} x "
                f"{scale[i]:.3e} at tau={taus[i]:.3e}"
            )
        bad = total.real < -limit
        if bad.any():
            i = bad.argmax()
            raise NumericalError(f"negative probability {total.real[i]:.3e} at tau={taus[i]:.3e}")
        return out

    def probabilities(self, taus) -> np.ndarray:
        """Coincidence probability at every delay of a scan, from the checked terms."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        t1, t2, t3, t4 = self._terms(taus)
        return np.maximum((t1 + t2 - t3 - t4).real, 0.0)

    # no library path calls it; perfbench/tracer.py wraps it by name (ENGINE_METHODS)
    def probability(self, tau: float) -> float:
        return float(self.probabilities(tau)[0])

    # no library path calls it; criterion 2 reads P(tau_p) / B = 0.9646 through it
    def baseline(self) -> float:
        """No-interference reference: direct terms only, at zero delay."""
        t1, t2, _, _ = self._terms(np.zeros(1))[:, 0]
        return float((t1 + t2).real)


# ---------------------------------------------------------------------------
# Time-domain oracle

# math.erf over an array; the oracle's window lattices hold hundreds of points
_erf = np.frompyfunc(math.erf, 1, 1)


def _window_weights(u: np.ndarray, step: float, lo: float, hi: float, sigma: float) -> np.ndarray:
    """Quadrature weights for integrating a window over detection times.

    Each weight approximates the integral over one time cell of the
    jitter-smeared indicator of [lo, hi]: the erf closed form when
    sigma > 0, the exact cell-overlap length when sigma = 0.
    """
    if sigma > 0:
        rt2 = sigma * math.sqrt(2.0)
        w = 0.5 * (_erf((hi - u) / rt2) - _erf((lo - u) / rt2))
        return w.astype(float) * step
    cell_lo = np.maximum(u - step / 2.0, lo)
    cell_hi = np.minimum(u + step / 2.0, hi)
    return np.clip(cell_hi - cell_lo, 0.0, None)


# Most cells of any two-dimensional array of the oracle (the lag tables
# between two detection lattices, and each JSA's Fourier sum over the lag
# lattice): 2**22 complex cells take 64 MiB, four times the largest the
# tests and the benchmark use (1.02 M: 2945 lags by 1407 JSA points). The
# sizes are compared before any lattice is allocated.
MAX_ORACLE_CELLS = 2**22


def _lattice_offsets(lo: float, hi: float, step: float) -> tuple[int, int]:
    """First and last integer offset k of the lattice points k * step covering [lo, hi].

    A lattice of more than MAX_ORACLE_CELLS points, or of no finite size,
    raises GridResolutionError before its offsets are made ints.
    """
    k_lo, k_hi = lo / step, hi / step
    if not k_hi - k_lo <= MAX_ORACLE_CELLS:
        raise GridResolutionError(
            f"a time lattice over [{lo:.3e}, {hi:.3e}] s at a step of {step:.3e} s holds more "
            f"than {MAX_ORACLE_CELLS} points"
        )
    return int(math.floor(k_lo)), int(math.ceil(k_hi))


def _pair_amplitude(jsa: JointSpectralAmplitude, v: np.ndarray) -> np.ndarray:
    """f(v) = step * sum over W of J(W) exp(-i v W), at each time lag v.

    The sum runs over the nonzero entries of J only: the zeros add
    nothing to it.
    """
    nz = jsa.j_amp != 0
    return np.exp(-1j * np.outer(v, jsa.grid.omega[nz])) @ jsa.j_amp[nz] * jsa.grid.step


def fourfold_probability_oracle(setup: InterferenceSetup, tau: float) -> float:
    """Brute-force time-domain evaluation of the coincidence probability.

    Pair amplitudes f(t) come from a direct Fourier sum of each JSA, over
    its nonzero entries, on a shared time lattice; the four
    detection-time integrals use window weights with jitter folded in
    analytically. Independent of the frequency-domain contraction route.
    Practical for modest grids.
    """
    grid = setup.jsa_a.grid
    cfg = setup.windows
    tc_a, tc_b = setup.coherence_times
    j1, j2, j3, j4 = setup.detectors.jitter_fwhm
    sig = [jitter_sigma_time(j) for j in (j1, j2, j3, j4)]

    step = min(cfg.tau_14 / 8.0, cfg.tau_23 / 8.0, min(tc_a, tc_b) / 24.0)
    positive = [s for s in sig if s > 0]
    if positive:
        step = min(step, min(positive) / 3.0)

    pad = [5.0 * s for s in sig]
    h14, h23 = cfg.tau_14 / 2, cfg.tau_23 / 2
    # detection-time lattices k * step, k from o_i to e_i; channel 1 holds
    # the single point 0 when it has no jitter
    (o1, e1), (o2, e2), (o3, e3), (o4, e4) = (
        _lattice_offsets(-pad[0], pad[0], step),
        _lattice_offsets(-h23 - pad[1], h23 + pad[1], step),
        _lattice_offsets(-h23 - pad[2], h23 + pad[2], step),
        _lattice_offsets(tau - h14 - pad[3], tau + h14 + pad[3], step),
    )
    n1, n2, n3, n4 = e1 - o1 + 1, e2 - o2 + 1, e3 - o3 + 1, e4 - o4 + 1

    # All pairwise time differences live on the lattice; the pair
    # amplitudes are tabulated once per source over the needed lag range.
    spans = {
        "a12": (o1 - o2 - (n2 - 1), o1 - o2 + (n1 - 1)),
        "a13": (o1 - o3 - (n3 - 1), o1 - o3 + (n1 - 1)),
        "b43": (o4 - o3 - (n3 - 1), o4 - o3 + (n4 - 1)),
        "b42": (o4 - o2 - (n2 - 1), o4 - o2 + (n4 - 1)),
    }
    dmin = min(lo for lo, _ in spans.values())
    dmax = max(hi for _, hi in spans.values())
    nnz = max(np.count_nonzero(setup.jsa_a.j_amp), np.count_nonzero(setup.jsa_b.j_amp))
    cells = max(n1 * n2, n1 * n3, n4 * n3, n4 * n2, n1 * n4, (dmax - dmin + 1) * nnz)
    if cells > MAX_ORACLE_CELLS:
        raise GridResolutionError(
            f"the time-domain oracle needs an array of {cells} cells; at most "
            f"{MAX_ORACLE_CELLS} are allowed"
        )
    v_need = max(abs(dmin), abs(dmax)) * step
    period = 2.0 * math.pi / grid.step
    if v_need > 0.45 * period:
        # The tabulated pair amplitude is periodic with 2*pi/step, so
        # the largest needed lag must stay well inside half a period:
        # step <= 0.45 * 2 pi / v_need, the resolution rule's step for
        # times up to v_need / (0.45 RESOLUTION_PERIODS).
        need = _required_n_points(grid.span, v_need / (0.45 * RESOLUTION_PERIODS))
        raise GridResolutionError(
            f"time lag {v_need:.3e} s aliases on this grid (period {period:.3e} s); "
            f"increase n_points to >= {need}",
            required_n_points=need,
        )

    u1, u2, u3, u4 = (np.arange(o, e + 1) * step for o, e in ((o1, e1), (o2, e2), (o3, e3), (o4, e4)))
    if sig[0] > 0:
        g1w = np.exp(-0.5 * (u1 / sig[0]) ** 2) / (sig[0] * math.sqrt(2 * math.pi)) * step
    else:
        g1w = np.ones(1)
    w2 = _window_weights(u2, step, -h23, h23, sig[1])
    w3 = _window_weights(u3, step, -h23, h23, sig[2])
    w4 = _window_weights(u4, step, tau - h14, tau + h14, sig[3])
    v = np.arange(dmin, dmax + 1) * step

    fa = _pair_amplitude(setup.jsa_a, v)
    fb = _pair_amplitude(setup.jsa_b, v)

    def table(f: np.ndarray, oa: int, na: int, ob: int, nb: int) -> np.ndarray:
        ia = np.arange(na)[:, None]
        ib = np.arange(nb)[None, :]
        return f[(oa + ia) - (ob + ib) - dmin]

    fa12 = table(fa, o1, n1, o2, n2)
    fa13 = table(fa, o1, n1, o3, n3)
    fb43 = table(fb, o4, n4, o3, n3)
    fb42 = table(fb, o4, n4, o2, n2)

    term1 = (g1w @ np.abs(fa12) ** 2 @ w2) * (w4 @ np.abs(fb43) ** 2 @ w3)
    term2 = (g1w @ np.abs(fa13) ** 2 @ w3) * (w4 @ np.abs(fb42) ** 2 @ w2)
    xm = (fa12 * w2[None, :]) @ fb42.conj().T
    ym = (fa13.conj() * w3[None, :]) @ fb43.T
    cross = -2.0 * float(np.real(g1w @ (xm * ym) @ w4))
    return float(term1 + term2 + cross)


# ---------------------------------------------------------------------------
# Dip curves, visibility, maps


# Least tau_23 / T_c of the identical-source setups that visibility_map and
# the rate optimizer build, so the BS-side windows capture both wave
# packets; an int, so the schema's minimum reads 4. A reliable plateau
# needs more, see _plateau_delay.
TAU23_TC_FACTOR = 4


def _plateau_reach(coherence_times, jitters) -> float:
    """Nominal plateau delay: max(6 x max coherence time, 3 x max jitter)."""
    return max(6.0 * max(coherence_times), 3.0 * max(jitters))


def _plateau_delay(setup: InterferenceSetup) -> tuple[float, bool]:
    """Delay used as the P(infinity) estimate, and its reliability.

    Nominal rule: ``_plateau_reach``, clamped into [t_lo, t_hi]: past
    the dip, and with the delayed wave packet inside the half BS window
    tau_23/2. That does not keep the sample off the capture roll-off: on
    the criterion-2 setup it sits at t_hi = 790 ps, where P is 0.9646 of
    the direct-term baseline. The plateau is reliable when the clamp
    interval is not empty, which needs tau_23 >= 6 T_c + 2 tau_14 + 12 sigma
    for the largest coherence time and jitter sigma; otherwise no plateau
    exists and the flag is False.
    """
    cfg = setup.windows
    tc_max = max(setup.coherence_times)
    j_max = max(setup.detectors.jitter_fwhm)
    sigma_max = jitter_sigma_time(j_max)
    nominal = _plateau_reach(setup.coherence_times, setup.detectors.jitter_fwhm)
    t_lo = max(2.0 * tc_max + cfg.tau_14 / 2.0 + 3.0 * sigma_max, 3.0 * j_max)
    t_hi = cfg.tau_23 / 2.0 - tc_max - cfg.tau_14 / 2.0 - 3.0 * sigma_max
    if not t_hi >= t_lo:
        # Indicative sample only; keep it inside the capture region so the
        # curve stays computable on a grid sized for tau_23.
        return min(nominal, cfg.tau_23 / 2.0), False
    return min(max(nominal, t_lo), t_hi), True


def hom_curve(setup: InterferenceSetup, delays: np.ndarray) -> HomCurve:
    """Coincidence probability over a delay scan, plus dip and plateau.

    The plateau sample is evaluated internally at the delay described
    in ``_plateau_delay``; the scan itself must include zero delay.
    """
    delays = np.asarray(delays, dtype=float)
    if not np.any(delays == 0.0):
        raise ValueError("delay scan must include tau = 0")
    engine = FourfoldEngine(setup)
    tau_p, reliable = _plateau_delay(setup)
    values = engine.probabilities(np.append(delays, tau_p))
    plateau = float(values[-1])
    values = values[:-1]
    dip = float(values[np.flatnonzero(delays == 0.0)[0]])
    return HomCurve(
        delays=delays,
        values=values,
        plateau=plateau,
        dip=dip,
        plateau_delay=tau_p,
        plateau_reliable=reliable,
    )


def visibility(curve: HomCurve) -> float:
    """(plateau - dip) / plateau for a curve with a trustworthy plateau."""
    if not curve.plateau_reliable:
        raise ValueError(
            "plateau is unreliable (tau_23 too small relative to the coherence "
            "time); visibility is not defined in this regime"
        )
    if not (curve.plateau > 0):
        raise ValueError("plateau must be positive")
    return (curve.plateau - curve.dip) / curve.plateau


def visibility_at_zero_delay(setup: InterferenceSetup) -> float:
    """Baseline visibility from one engine build: 1 - P(0) / baseline.

    The baseline (direct terms at tau = 0) is the distinguishable-photon
    reference. It is not the plateau visibility ``visibility(hom_curve())``,
    1 - P(0) / P(tau_p), because P at the plateau delay tau_p sits below
    the baseline: on the criterion-2 setup P(tau_p) / baseline = 0.9646
    (see ``_plateau_delay``), and the two read 0.97627 (baseline) and
    0.97540 (plateau).
    """
    t1, t2, t3, t4 = FourfoldEngine(setup)._terms(np.zeros(1))[:, 0]
    base = (t1 + t2).real
    if base <= 0:
        raise ValueError("zero baseline; setup captures no coincidences")
    return float((t3 + t4).real / base)


def _identical_source_setup(
    t_c: float,
    tau_14: float,
    tau_23: float,
    jitter: float | tuple[float, float, float, float],
    filter_kind: str,
) -> InterferenceSetup:
    jit = jitter if isinstance(jitter, tuple) else (float(jitter),) * 4
    source = analytic_source(filter_kind, t_c)
    return build_setup(source, source, CoincidenceConfig(tau_14=tau_14, tau_23=tau_23), jit)


def visibility_map(
    tc_values: np.ndarray,
    tau14_values: np.ndarray,
    jitter: float,
    tau23_factor: float = 8.0,
) -> np.ndarray:
    """V over a (T_c, tau_14) grid for identical rect sources, one jitter.

    tau_23 is set to tau23_factor x T_c per cell (must stay >= TAU23_TC_FACTOR)
    so the BS-side windows capture the wave packets without post-filtering.
    Each cell is the baseline visibility ``visibility_at_zero_delay``,
    which needs no plateau. Returns V[i_tc, i_tau14].
    """
    if tau23_factor < TAU23_TC_FACTOR:
        raise ValueError(
            f"tau23_factor below {TAU23_TC_FACTOR}, where the BS window no longer captures "
            "both wave packets (no reliable-plateau regime either)"
        )
    tc_values = np.asarray(tc_values, dtype=float)
    tau14_values = np.asarray(tau14_values, dtype=float)
    out = np.empty((tc_values.size, tau14_values.size))
    for i, t_c in enumerate(tc_values):
        for k, tau14 in enumerate(tau14_values):
            setup = _identical_source_setup(
                t_c, tau14, tau23_factor * t_c, jitter, "rect"
            )
            out[i, k] = visibility_at_zero_delay(setup)
    return out
