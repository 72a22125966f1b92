"""cwhom: asynchronous four-photon HOM interference with CW-pumped sources."""

from .units import (
    RMS_TO_FWHM,
    RECT_TC_PRODUCT,
    wavelength_pm_to_angular,
    angular_to_wavelength_pm,
)
from .detection import DetectorModel, effective_jitter, jitter_kernel
from .spectral import (
    FrequencyGrid,
    SpectralAmplitude,
    JointSpectralAmplitude,
    FbgModel,
    make_filter,
    make_grid_for_filters,
    fbg_response,
    fbg_reflectivity_fwhm,
    fit_fbg,
    joint_spectral_amplitude,
    load_filter_table,
    load_fbg_model,
    save_fbg_model,
)
from .interference import (
    CoincidenceConfig,
    InterferenceSetup,
    HomCurve,
    CoherenceCurve,
    GridResolutionError,
    NumericalError,
    coherence_function,
    jsa_coherence_fwhm,
    fourfold_probability,
    fourfold_baseline,
    fourfold_probability_oracle,
    hom_curve,
    visibility,
    visibility_at_zero_delay,
    visibility_map,
)
from .presets import (
    REFERENCE_JITTERS_FWHM,
    TIME_TAGGER_RMS,
    REFERENCE_FILTERS,
    tagger_composed_jitters,
    filtered_pair_jsa,
    reference_source_a,
    reference_source_b,
    reference_setup,
)
from .timetags import (
    TagStream,
    SimScenario,
    AccidentalParams,
    simulate_streams,
    count_fourfolds,
    shifted_accidentals,
    analytic_accidentals,
    accidental_params_from,
    save_tags_csv,
    load_tags_csv,
)
from .rates import (
    RateQuery,
    OptResult,
    LossProfile,
    cw_fourfold_rate,
    pulsed_rate,
    optimize_window,
    pass_swaps,
)

__version__ = "0.1.0"
