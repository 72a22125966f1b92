"""Detector timing-jitter model.

A detection channel is described by the FWHM of its Gaussian timing
response. Independent jitter contributions (detector, time tagger,
electronics) combine in quadrature. In the frequency domain the response
enters as a real Gaussian kernel over frequency differences, normalized
to 1 at zero difference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .units import RMS_TO_FWHM


@dataclass(frozen=True)
class DetectorModel:
    """Gaussian timing jitter (FWHM, seconds) for channels 1, 2', 3', 4."""

    jitter_fwhm: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.jitter_fwhm) != 4:
            raise ValueError("DetectorModel requires exactly four channels")
        for j in self.jitter_fwhm:
            jitter_sigma_time(j)


def effective_jitter(components_fwhm=(), components_rms=()) -> float:
    """Combine jitter contributions in quadrature, returning a FWHM.

    RMS values are converted to FWHM (factor 2*sqrt(2*ln 2)) before the
    quadrature sum.
    """
    total_sq = 0.0
    # a positive factor keeps the sign, and NaN, of each RMS value
    for j in itertools.chain(components_fwhm, (r * RMS_TO_FWHM for r in components_rms)):
        if not j >= 0:
            raise ValueError("jitter components must be nonnegative")
        total_sq += j * j
    return math.sqrt(total_sq)


def jitter_sigma_time(jitter_fwhm: float) -> float:
    """Gaussian sigma (seconds) for a jitter FWHM."""
    # written so that NaN, which fails every comparison, fails the check
    if not 0.0 <= jitter_fwhm < math.inf:
        raise ValueError("jitter FWHM must be finite and nonnegative")
    return jitter_fwhm / RMS_TO_FWHM


def jitter_kernel(jitter_fwhm: float, delta_omega) -> np.ndarray:
    """Frequency-domain jitter weight exp(-sigma^2 dW^2 / 2).

    `delta_omega` is an array of frequency differences (rad/s).
    Zero jitter gives a flat kernel of ones; the kernel is even in
    `delta_omega` and equals 1 at zero difference.
    """
    sigma = jitter_sigma_time(jitter_fwhm)
    x = np.asarray(delta_omega, dtype=float)
    return np.exp(-0.5 * (sigma * x) ** 2)
