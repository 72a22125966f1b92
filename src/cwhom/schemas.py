"""JSON schemas of the scenario file and of every artifact the CLI writes.

``SCHEMAS`` maps each name that ``cli._validator`` takes to a Draft 7
schema held as plain dicts; ``json.dumps`` of any entry gives a
standalone schema document.  Each ``enum`` takes its names from the
table the code looks them up in, and the ``tau23_factor`` minimum is the
rule ``visibility_map`` enforces, ``interference.TAU23_TC_FACTOR``.
The maxima of ``delays.count``, ``tags.density.n_points``,
``fbg_fit.n_restarts`` and a grating's ``n_sections`` bound the arrays
and loops those counts size, before anything is allocated.

Every schema dict lists its keys in sorted order: of two equally
relevant errors, jsonschema reports the one whose keyword comes first,
so ``2.5`` for an integer with a minimum of 3 reads as the range error,
not the type error.
"""

from __future__ import annotations

from .interference import SOURCE_CHANNELS, TAU23_TC_FACTOR, WIDTH_PRODUCTS
from .presets import REFERENCE_SOURCES

DRAFT = "http://json-schema.org/draft-07/schema#"

# filter shapes that interference.filter_width knows
_FILTER_KIND = {"enum": list(WIDTH_PRODUCTS)}

_FBG_MODEL_PROPS = {
    "detuning_offset": {"type": "number"},
    "length": {"exclusiveMinimum": 0, "type": "number"},
    "n_sections": {"maximum": 4096, "minimum": 16, "type": "integer"},
    "order": {"minimum": 1, "type": "number"},
    "peak_kappa": {"minimum": 0, "type": "number"},
    "width": {"exclusiveMinimum": 0, "maximum": 1, "type": "number"},
}

FBG_MODEL = {
    "additionalProperties": False,
    "properties": _FBG_MODEL_PROPS,
    "required": ["length", "n_sections", "peak_kappa", "order", "width"],
    "type": "object",
}

SOURCE = {
    "oneOf": [
        {
            "additionalProperties": False,
            "properties": {
                "kind": _FILTER_KIND,
                "t_c_ps": {"exclusiveMinimum": 0, "type": "number"},
            },
            "required": ["kind", "t_c_ps"],
            "type": "object",
        },
        {
            "additionalProperties": False,
            "properties": {"preset": {"enum": list(REFERENCE_SOURCES)}},
            "required": ["preset"],
            "type": "object",
        },
    ],
}

_NUM4 = {"items": {"minimum": 0, "type": "number"}, "maxItems": 4, "minItems": 4, "type": "array"}
_PROB4 = {
    "items": {"maximum": 1, "minimum": 0, "type": "number"},
    "maxItems": 4,
    "minItems": 4,
    "type": "array",
}

SCENARIO = {
    "$id": "cwhom/scenario.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "definitions": {"fbg_model": FBG_MODEL, "source": SOURCE},
    "properties": {
        "coherence": {
            "additionalProperties": False,
            "properties": {"source": {"enum": list(SOURCE_CHANNELS)}},
            "type": "object",
        },
        "count": {
            "additionalProperties": False,
            "properties": {
                "delta_ps": {"exclusiveMinimum": 0, "type": "number"},
                "duration_ps": {"exclusiveMinimum": 0, "type": "number"},
                "tag_csv": {"type": "string"},
                "tau_ps": {"type": "number"},
            },
            "required": ["tag_csv"],
            "type": "object",
        },
        "delays": {
            "additionalProperties": False,
            "properties": {
                "count": {"maximum": 100000, "minimum": 2, "type": "integer"},
                "start_ps": {"type": "number"},
                "stop_ps": {"type": "number"},
            },
            "required": ["start_ps", "stop_ps", "count"],
            "type": "object",
        },
        "detectors": {
            "additionalProperties": False,
            "properties": {
                "compose_tagger_rms_ps": {"minimum": 0, "type": "number"},
                "jitter_fwhm_ps": _NUM4,
            },
            "required": ["jitter_fwhm_ps"],
            "type": "object",
        },
        "fbg_fit": {
            "additionalProperties": False,
            "properties": {
                "n_restarts": {"maximum": 100, "minimum": 0, "type": "integer"},
                "rng_seed": {"minimum": 0, "type": "integer"},
                "seed": {"$ref": "#/definitions/fbg_model"},
                "table_csv": {"type": "string"},
            },
            "required": ["table_csv", "seed"],
            "type": "object",
        },
        "grid": {
            "additionalProperties": False,
            "properties": {
                "n_points": {"minimum": 3, "type": "integer"},
                "span_factor": {"exclusiveMinimum": 0, "type": "number"},
            },
            "type": "object",
        },
        "pulsed": {
            "additionalProperties": False,
            "properties": {
                "f_rep_hz": {"exclusiveMinimum": 0, "type": "number"},
                "mu_p": {"exclusiveMinimum": 0, "type": "number"},
                "t_c_ps": {"exclusiveMinimum": 0, "type": "number"},
                "tau_p_ps": {"exclusiveMinimum": 0, "type": "number"},
            },
            "required": ["mu_p", "tau_p_ps", "t_c_ps", "f_rep_hz"],
            "type": "object",
        },
        "rate_query": {
            "additionalProperties": False,
            "properties": {
                "filter_kind": _FILTER_KIND,
                "jitter_ps": {"minimum": 0, "type": "number"},
                "mu": {"exclusiveMinimum": 0, "maximum": 0.2, "type": "number"},
                "tau_w_range_ps": {
                    "items": {"exclusiveMinimum": 0, "type": "number"},
                    "maxItems": 2,
                    "minItems": 2,
                    "type": "array",
                },
                "tc_max_ps": {"exclusiveMinimum": 0, "type": "number"},
                "v_target": {"exclusiveMaximum": 1, "exclusiveMinimum": 0, "type": "number"},
            },
            "required": ["mu", "jitter_ps", "v_target", "tc_max_ps"],
            "type": "object",
        },
        "rng_seed": {"minimum": 0, "type": "integer"},
        "sources": {
            "additionalProperties": False,
            "properties": {name: {"$ref": "#/definitions/source"} for name in SOURCE_CHANNELS},
            "required": list(SOURCE_CHANNELS),
            "type": "object",
        },
        "swap": {
            "additionalProperties": False,
            "properties": {
                "loss_csv": {"type": "string"},
                "mu": {"exclusiveMinimum": 0, "type": "number"},
                "t_c_ps": {"exclusiveMinimum": 0, "type": "number"},
                "tau_w_ps": {"exclusiveMinimum": 0, "type": "number"},
            },
            "required": ["mu", "t_c_ps", "tau_w_ps", "loss_csv"],
            "type": "object",
        },
        "tags": {
            "additionalProperties": False,
            "properties": {
                "density": {
                    "additionalProperties": False,
                    "properties": {
                        "n_points": {"maximum": 100000, "minimum": 5, "type": "integer"},
                        "span_ps": {"exclusiveMinimum": 0, "type": "number"},
                        "t_c_ps": {"exclusiveMinimum": 0, "type": "number"},
                    },
                    "required": ["t_c_ps"],
                    "type": "object",
                },
                "duration_ps": {"exclusiveMinimum": 0, "type": "number"},
                "etas": _PROB4,
                "gamma": {"maximum": 1, "minimum": 0, "type": "number"},
                "gamma_step": {
                    "additionalProperties": False,
                    "properties": {
                        "v_target": {"maximum": 1, "minimum": 0, "type": "number"},
                        "width_ps": {"exclusiveMinimum": 0, "type": "number"},
                    },
                    "required": ["v_target", "width_ps"],
                    "type": "object",
                },
                "noise_rates_hz": _NUM4,
                "pair_rate_a_hz": {"minimum": 0, "type": "number"},
                "pair_rate_b_hz": {"minimum": 0, "type": "number"},
                "pairing_horizon_ps": {"exclusiveMinimum": 0, "type": "number"},
            },
            "required": [
                "pair_rate_a_hz",
                "pair_rate_b_hz",
                "noise_rates_hz",
                "etas",
                "duration_ps",
                "density",
            ],
            "type": "object",
        },
        "vismap": {
            "additionalProperties": False,
            "properties": {
                "filter_kind": _FILTER_KIND,
                "jitter_ps": {"minimum": 0, "type": "number"},
                "tau14_values_ps": {
                    "items": {"exclusiveMinimum": 0, "type": "number"},
                    "minItems": 1,
                    "type": "array",
                },
                "tau23_factor": {"minimum": TAU23_TC_FACTOR, "type": "number"},
                "tc_values_ps": {
                    "items": {"exclusiveMinimum": 0, "type": "number"},
                    "minItems": 1,
                    "type": "array",
                },
            },
            "required": ["tc_values_ps", "tau14_values_ps", "jitter_ps"],
            "type": "object",
        },
        "windows": {
            "additionalProperties": False,
            "properties": {
                "tau_14_ps": {"exclusiveMinimum": 0, "type": "number"},
                "tau_23_ps": {"exclusiveMinimum": 0, "type": "number"},
            },
            "required": ["tau_14_ps", "tau_23_ps"],
            "type": "object",
        },
    },
    "title": "cwhom scenario file (all durations in picoseconds)",
    "type": "object",
}

VISIBILITY = {
    "$id": "cwhom/visibility.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": {
        "inputs": {"type": "object"},
        "plateau_delay_ps": {"type": "number"},
        "plateau_reliable": {"type": "boolean"},
        "visibility": {"type": "number"},
    },
    "required": ["visibility", "plateau_reliable", "plateau_delay_ps", "inputs"],
    "title": "visibility subcommand output",
    "type": "object",
}

OPTRESULT = {
    "$id": "cwhom/optresult.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": {
        "curve": {
            "items": {"items": {"type": "number"}, "maxItems": 3, "minItems": 3, "type": "array"},
            "minItems": 1,
            "type": "array",
        },
        "rate_opt_hz": {"minimum": 0, "type": "number"},
        "tau_w_opt_ps": {"exclusiveMinimum": 0, "type": "number"},
        "tc_opt_ps": {"exclusiveMinimum": 0, "type": "number"},
    },
    "required": ["tau_w_opt_ps", "tc_opt_ps", "rate_opt_hz", "curve"],
    "title": "optimize-rate subcommand output",
    "type": "object",
}

COUNTS = {
    "$id": "cwhom/counts.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": {
        "corrected": {"type": "integer"},
        "raw": {"minimum": 0, "type": "integer"},
        "shifted_2": {"minimum": 0, "type": "integer"},
        "shifted_3": {"minimum": 0, "type": "integer"},
    },
    "required": ["raw", "shifted_2", "shifted_3", "corrected"],
    "title": "tags count subcommand output",
    "type": "object",
}

RATE = {
    "$id": "cwhom/rate.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": {"rate_hz": {"minimum": 0, "type": "number"}},
    "required": ["rate_hz"],
    "title": "pulsed-rate subcommand output",
    "type": "object",
}

SWAPS = {
    "$id": "cwhom/swaps.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": {"swaps": {"minimum": 0, "type": "number"}},
    "required": ["swaps"],
    "title": "pass-swaps subcommand output",
    "type": "object",
}

FBG_MODEL_OUT = {
    "$id": "cwhom/fbg_model.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": _FBG_MODEL_PROPS,
    "required": [
        "length",
        "n_sections",
        "peak_kappa",
        "order",
        "width",
        "detuning_offset",
    ],
    "title": "fitted grating model (fbg fit output)",
    "type": "object",
}

ORACLE_REPORT = {
    "$id": "cwhom/oracle_report.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": {
        "delays_ps": {"items": {"type": "number"}, "minItems": 1, "type": "array"},
        "engine": {"items": {"type": "number"}, "minItems": 1, "type": "array"},
        "max_rel_deviation": {"minimum": 0, "type": "number"},
        "oracle": {"items": {"type": "number"}, "minItems": 1, "type": "array"},
        "pass": {"type": "boolean"},
        "tolerance": {"exclusiveMinimum": 0, "type": "number"},
    },
    "required": ["delays_ps", "engine", "oracle", "max_rel_deviation", "tolerance", "pass"],
    "title": "oracle-check subcommand output",
    "type": "object",
}

CSV_META = {
    "$id": "cwhom/csv_meta.schema.json",
    "$schema": DRAFT,
    "additionalProperties": False,
    "properties": {
        "dip": {"type": "number"},
        "n_events": {"minimum": 0, "type": "integer"},
        "n_rows": {"minimum": 0, "type": "integer"},
        "out": {"type": "string"},
        "plateau": {"type": "number"},
        "plateau_reliable": {"type": "boolean"},
        "residual": {"minimum": 0, "type": "number"},
        "subcommand": {"type": "string"},
        "t_c_fwhm_ps": {"type": "number"},
    },
    "required": ["subcommand", "out"],
    "title": "status line printed by CSV-emitting subcommands",
    "type": "object",
}

SCHEMAS = {
    "scenario": SCENARIO,
    "visibility": VISIBILITY,
    "optresult": OPTRESULT,
    "counts": COUNTS,
    "rate": RATE,
    "swaps": SWAPS,
    "fbg_model": FBG_MODEL_OUT,
    "oracle_report": ORACLE_REPORT,
    "csv_meta": CSV_META,
}
