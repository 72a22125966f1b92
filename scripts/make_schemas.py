"""Regenerate the JSON schemas packaged under src/cwhom/schemas/.

Run from the repository root:  python3 scripts/make_schemas.py
"""

from __future__ import annotations

import json
import pathlib

DRAFT = "http://json-schema.org/draft-07/schema#"

_FBG_MODEL_PROPS = {
    "length": {"type": "number", "exclusiveMinimum": 0},
    "n_sections": {"type": "integer", "minimum": 16},
    "peak_kappa": {"type": "number", "minimum": 0},
    "order": {"type": "number", "minimum": 1},
    "width": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    "detuning_offset": {"type": "number"},
    "design_wavelength": {"type": "number", "exclusiveMinimum": 0},
}

FBG_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["length", "n_sections", "peak_kappa", "order", "width"],
    "properties": _FBG_MODEL_PROPS,
}

SOURCE = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind", "t_c_ps"],
            "properties": {
                "kind": {"enum": ["rect", "gaussian", "lorentzian"]},
                "t_c_ps": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["preset"],
            "properties": {"preset": {"enum": ["a", "b"]}},
        },
    ]
}

_NUM4 = {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 4, "maxItems": 4}
_PROB4 = {
    "type": "array",
    "items": {"type": "number", "minimum": 0, "maximum": 1},
    "minItems": 4,
    "maxItems": 4,
}

SCENARIO = {
    "$schema": DRAFT,
    "$id": "cwhom/scenario.schema.json",
    "title": "cwhom scenario file (all durations in picoseconds)",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "rng_seed": {"type": "integer", "minimum": 0},
        "sources": {
            "type": "object",
            "additionalProperties": False,
            "required": ["a", "b"],
            "properties": {
                "a": {"$ref": "#/definitions/source"},
                "b": {"$ref": "#/definitions/source"},
            },
        },
        "detectors": {
            "type": "object",
            "additionalProperties": False,
            "required": ["jitter_fwhm_ps"],
            "properties": {
                "jitter_fwhm_ps": _NUM4,
                "compose_tagger_rms_ps": {"type": "number", "minimum": 0},
            },
        },
        "windows": {
            "type": "object",
            "additionalProperties": False,
            "required": ["tau_14_ps", "tau_23_ps"],
            "properties": {
                "tau_14_ps": {"type": "number", "exclusiveMinimum": 0},
                "tau_23_ps": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "delays": {
            "type": "object",
            "additionalProperties": False,
            "required": ["start_ps", "stop_ps", "count"],
            "properties": {
                "start_ps": {"type": "number"},
                "stop_ps": {"type": "number"},
                "count": {"type": "integer", "minimum": 2},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_points": {"type": "integer", "minimum": 3},
                "span_factor": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "coherence": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"source": {"enum": ["a", "b"]}},
        },
        "rate_query": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mu", "jitter_ps", "v_target", "tc_max_ps"],
            "properties": {
                "mu": {"type": "number", "exclusiveMinimum": 0, "maximum": 0.2},
                "jitter_ps": {"type": "number", "minimum": 0},
                "v_target": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "tc_max_ps": {"type": "number", "exclusiveMinimum": 0},
                "tau_w_range_ps": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "filter_kind": {"enum": ["rect", "gaussian", "lorentzian"]},
            },
        },
        "pulsed": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mu_p", "tau_p_ps", "t_c_ps", "f_rep_hz"],
            "properties": {
                "mu_p": {"type": "number", "exclusiveMinimum": 0},
                "tau_p_ps": {"type": "number", "exclusiveMinimum": 0},
                "t_c_ps": {"type": "number", "exclusiveMinimum": 0},
                "f_rep_hz": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "swap": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mu", "t_c_ps", "tau_w_ps", "loss_csv"],
            "properties": {
                "mu": {"type": "number", "exclusiveMinimum": 0},
                "t_c_ps": {"type": "number", "exclusiveMinimum": 0},
                "tau_w_ps": {"type": "number", "exclusiveMinimum": 0},
                "loss_csv": {"type": "string"},
            },
        },
        "tags": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "pair_rate_a_hz",
                "pair_rate_b_hz",
                "noise_rates_hz",
                "etas",
                "duration_ps",
                "density",
            ],
            "properties": {
                "pair_rate_a_hz": {"type": "number", "minimum": 0},
                "pair_rate_b_hz": {"type": "number", "minimum": 0},
                "gamma": {"type": "number", "minimum": 0, "maximum": 1},
                "gamma_step": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["v_target", "width_ps"],
                    "properties": {
                        "v_target": {"type": "number", "minimum": 0, "maximum": 1},
                        "width_ps": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "noise_rates_hz": _NUM4,
                "etas": _PROB4,
                "duration_ps": {"type": "number", "exclusiveMinimum": 0},
                "pairing_horizon_ps": {"type": "number", "exclusiveMinimum": 0},
                "density": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["t_c_ps"],
                    "properties": {
                        "t_c_ps": {"type": "number", "exclusiveMinimum": 0},
                        "span_ps": {"type": "number", "exclusiveMinimum": 0},
                        "n_points": {"type": "integer", "minimum": 5},
                    },
                },
            },
        },
        "count": {
            "type": "object",
            "additionalProperties": False,
            "required": ["tag_csv"],
            "properties": {
                "tag_csv": {"type": "string"},
                "tau_ps": {"type": "number"},
                "delta_ps": {"type": "number", "exclusiveMinimum": 0},
                "duration_ps": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "vismap": {
            "type": "object",
            "additionalProperties": False,
            "required": ["tc_values_ps", "tau14_values_ps", "jitter_ps"],
            "properties": {
                "tc_values_ps": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "tau14_values_ps": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "jitter_ps": {"type": "number", "minimum": 0},
                "filter_kind": {"enum": ["rect", "gaussian", "lorentzian"]},
                "tau23_factor": {"type": "number", "minimum": 4},
            },
        },
        "fbg_fit": {
            "type": "object",
            "additionalProperties": False,
            "required": ["table_csv", "seed"],
            "properties": {
                "table_csv": {"type": "string"},
                "seed": {"$ref": "#/definitions/fbg_model"},
                "rng_seed": {"type": "integer", "minimum": 0},
                "n_restarts": {"type": "integer", "minimum": 0},
            },
        },
    },
    "definitions": {"source": SOURCE, "fbg_model": FBG_MODEL},
}

VISIBILITY = {
    "$schema": DRAFT,
    "$id": "cwhom/visibility.schema.json",
    "title": "visibility subcommand output",
    "type": "object",
    "additionalProperties": False,
    "required": ["visibility", "plateau_reliable", "plateau_delay_ps", "inputs"],
    "properties": {
        "visibility": {"type": "number"},
        "plateau_reliable": {"type": "boolean"},
        "plateau_delay_ps": {"type": "number"},
        "inputs": {"type": "object"},
    },
}

OPTRESULT = {
    "$schema": DRAFT,
    "$id": "cwhom/optresult.schema.json",
    "title": "optimize-rate subcommand output",
    "type": "object",
    "additionalProperties": False,
    "required": ["tau_w_opt_ps", "tc_opt_ps", "rate_opt_hz", "curve"],
    "properties": {
        "tau_w_opt_ps": {"type": "number", "exclusiveMinimum": 0},
        "tc_opt_ps": {"type": "number", "exclusiveMinimum": 0},
        "rate_opt_hz": {"type": "number", "minimum": 0},
        "curve": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 3,
                "maxItems": 3,
            },
        },
    },
}

COUNTS = {
    "$schema": DRAFT,
    "$id": "cwhom/counts.schema.json",
    "title": "tags count subcommand output",
    "type": "object",
    "additionalProperties": False,
    "required": ["raw", "shifted_2", "shifted_3", "corrected"],
    "properties": {
        "raw": {"type": "integer", "minimum": 0},
        "shifted_2": {"type": "integer", "minimum": 0},
        "shifted_3": {"type": "integer", "minimum": 0},
        "corrected": {"type": "integer"},
    },
}

RATE = {
    "$schema": DRAFT,
    "$id": "cwhom/rate.schema.json",
    "title": "pulsed-rate subcommand output",
    "type": "object",
    "additionalProperties": False,
    "required": ["rate_hz"],
    "properties": {"rate_hz": {"type": "number", "minimum": 0}},
}

SWAPS = {
    "$schema": DRAFT,
    "$id": "cwhom/swaps.schema.json",
    "title": "pass-swaps subcommand output",
    "type": "object",
    "additionalProperties": False,
    "required": ["swaps"],
    "properties": {"swaps": {"type": "number", "minimum": 0}},
}

FBG_MODEL_OUT = {
    "$schema": DRAFT,
    "$id": "cwhom/fbg_model.schema.json",
    "title": "fitted grating model (fbg fit output)",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "length",
        "n_sections",
        "peak_kappa",
        "order",
        "width",
        "detuning_offset",
        "design_wavelength",
    ],
    "properties": _FBG_MODEL_PROPS,
}

ORACLE_REPORT = {
    "$schema": DRAFT,
    "$id": "cwhom/oracle_report.schema.json",
    "title": "oracle-check subcommand output",
    "type": "object",
    "additionalProperties": False,
    "required": ["delays_ps", "engine", "oracle", "max_rel_deviation", "tolerance", "pass"],
    "properties": {
        "delays_ps": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "engine": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "oracle": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "max_rel_deviation": {"type": "number", "minimum": 0},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "pass": {"type": "boolean"},
    },
}

CSV_META = {
    "$schema": DRAFT,
    "$id": "cwhom/csv_meta.schema.json",
    "title": "status line printed by CSV-emitting subcommands",
    "type": "object",
    "additionalProperties": False,
    "required": ["subcommand", "out"],
    "properties": {
        "subcommand": {"type": "string"},
        "out": {"type": "string"},
        "t_c_fwhm_ps": {"type": "number"},
        "plateau": {"type": "number"},
        "dip": {"type": "number"},
        "plateau_reliable": {"type": "boolean"},
        "n_rows": {"type": "integer", "minimum": 0},
        "n_events": {"type": "integer", "minimum": 0},
        "residual": {"type": "number", "minimum": 0},
    },
}

SCHEMAS = {
    "scenario.schema.json": SCENARIO,
    "visibility.schema.json": VISIBILITY,
    "optresult.schema.json": OPTRESULT,
    "counts.schema.json": COUNTS,
    "rate.schema.json": RATE,
    "swaps.schema.json": SWAPS,
    "fbg_model.schema.json": FBG_MODEL_OUT,
    "oracle_report.schema.json": ORACLE_REPORT,
    "csv_meta.schema.json": CSV_META,
}


def serialize(schema: dict) -> str:
    """File text of one schema, as main writes it."""
    return json.dumps(schema, indent=2, sort_keys=True) + "\n"


def main() -> None:
    target = pathlib.Path(__file__).resolve().parent.parent / "src" / "cwhom" / "schemas"
    target.mkdir(parents=True, exist_ok=True)
    for name, schema in SCHEMAS.items():
        (target / name).write_text(serialize(schema))
    print(f"wrote {len(SCHEMAS)} schemas to src/cwhom/schemas/")


if __name__ == "__main__":
    main()
