"""Reference presets for the bundled scenarios.

Holds the calibrated grating models for the two reference pair sources,
the per-channel detector jitters, and the time-tagger jitter.  The
grating parameters are frozen calibration results: each model's
reflectivity FWHM matches its nominal bandwidth and the paired joint
spectra reproduce the reference coherence times (see the test suite for
the frozen expectations).
"""

from __future__ import annotations

from .detection import effective_jitter
from .interference import (
    CoincidenceConfig,
    InterferenceSetup,
    Source,
    build_setup,
)
from .spectral import (
    FbgModel,
    FrequencyGrid,
    JointSpectralAmplitude,
    fbg_reflectivity_fwhm,
    fbg_response,
    joint_spectral_amplitude,
)

# Per-channel detector jitter FWHMs for channels (1, 2', 3', 4).
REFERENCE_JITTERS_FWHM = (17e-12, 13e-12, 11e-12, 16e-12)

# RMS jitter of the time-tagging unit, common to all channels.
TIME_TAGGER_RMS = 4.2e-12

# Fewest points of a grid sized for the grating sources.
GRATING_GRID_FLOOR = 513

# Nominal reflectivity FWHM of each grating, in pm at 1550 nm.
NOMINAL_BANDWIDTHS_PM = {
    "signal_a": 41.0,
    "idler_a": 27.0,
    "signal_b": 44.0,
    "idler_b": 41.0,
}

FILTER_SIGNAL_A = FbgModel(
    length=0.03621385696080538,
    n_sections=128,
    peak_kappa=55.22747831485113,
    order=2.0,
    width=0.8,
)
FILTER_IDLER_A = FbgModel(
    length=0.054991412421963724,
    n_sections=128,
    peak_kappa=36.3693149878288,
    order=2.0,
    width=0.8,
)
# The two source-B gratings share a +10 pm tuning offset relative to the
# pair degeneracy point: the 20 pm pair-internal misalignment shapes the
# joint spectrum while the interfering idler band stays centered.
FILTER_SIGNAL_B = FbgModel(
    length=0.05595707749782343,
    n_sections=128,
    peak_kappa=71.48336151321678,
    order=8.0,
    width=1.0,
    detuning_offset=7840381133.439556,
)
FILTER_IDLER_B = FbgModel(
    length=0.06005149780254221,
    n_sections=128,
    peak_kappa=66.60949595549747,
    order=8.0,
    width=1.0,
    detuning_offset=7840381133.439556,
)

REFERENCE_FILTERS = {
    "signal_a": FILTER_SIGNAL_A,
    "idler_a": FILTER_IDLER_A,
    "signal_b": FILTER_SIGNAL_B,
    "idler_b": FILTER_IDLER_B,
}

# The (signal, idler) gratings of each reference source.
REFERENCE_SOURCES = {
    "a": (FILTER_SIGNAL_A, FILTER_IDLER_A),
    "b": (FILTER_SIGNAL_B, FILTER_IDLER_B),
}

# Jitter-free coherence FWHM [s] of each reference source's JSA: what
# interference.jsa_coherence_fwhm reads on the 1407-point grid of
# reference_setup(40 ps, 2000 ps). Estimates on other sized grids
# (513 to 2813 points) differ by under 1e-5 relative, a tenth of how far
# an analytic source's exact T_c sits from the estimate on its own grid.
REFERENCE_COHERENCE_TIMES = {"a": 2.4308475663456844e-10, "b": 1.664377837527041e-10}


def tagger_composed_jitters(
    jitters_fwhm: tuple[float, float, float, float] = REFERENCE_JITTERS_FWHM,
    tagger_rms: float = TIME_TAGGER_RMS,
) -> tuple[float, float, float, float]:
    """Per-channel jitters with the time-tagger contribution folded in.

    Each detector FWHM is combined in quadrature with the tagger's RMS
    jitter (converted to FWHM).
    """
    return tuple(
        effective_jitter(components_fwhm=(j,), components_rms=(tagger_rms,))
        for j in jitters_fwhm
    )


def grating_width(*models: FbgModel) -> float:
    """Widest reflectivity FWHM [rad/s] among the gratings."""
    return max(fbg_reflectivity_fwhm(m) for m in models)


def filtered_pair_jsa(
    signal: FbgModel, idler: FbgModel, grid: FrequencyGrid
) -> JointSpectralAmplitude:
    """Joint spectral amplitude of a CW-pumped pair behind two gratings.

    The signal reflection is sampled at +omega and the idler reflection
    at -omega; the product is normalized to unit peak magnitude.
    """
    return joint_spectral_amplitude(fbg_response(signal, grid), fbg_response(idler, grid))


def reference_source_a(grid: FrequencyGrid) -> JointSpectralAmplitude:
    """Pair spectrum of reference source A (41 pm signal, 27 pm idler)."""
    return filtered_pair_jsa(*REFERENCE_SOURCES["a"], grid)


def reference_source_b(grid: FrequencyGrid) -> JointSpectralAmplitude:
    """Pair spectrum of reference source B (44 pm signal, 41 pm idler)."""
    return filtered_pair_jsa(*REFERENCE_SOURCES["b"], grid)


# The JSA sampler of each reference source.
PRESET_SAMPLERS = {"a": reference_source_a, "b": reference_source_b}


def preset_source(name: str) -> Source:
    """Reference source "a" or "b": its gratings' widest FWHM, calibrated T_c and grid floor."""
    jsa = PRESET_SAMPLERS[name]
    return Source(
        jsa, grating_width(*REFERENCE_SOURCES[name]), REFERENCE_COHERENCE_TIMES[name], GRATING_GRID_FLOOR
    )


def reference_setup(
    tau_14: float,
    tau_23: float,
    tau_max: float | None = None,
) -> InterferenceSetup:
    """Interference setup with source A and source B on the two arms.

    Both sources are sampled on one shared grid sized from the widest
    filter band.  tau_max bounds the largest delay the caller intends to
    evaluate; the grid resolution is chosen accordingly.  The setup carries
    REFERENCE_COHERENCE_TIMES.
    """
    return build_setup(
        preset_source("a"),
        preset_source("b"),
        CoincidenceConfig(tau_14=tau_14, tau_23=tau_23),
        REFERENCE_JITTERS_FWHM,
        reach=tau_max or 0.0,
    )
