"""JSON schemas of the scenario file and of every artifact the CLI writes.

``SCHEMAS`` maps each name that ``cli._validator`` takes to a Draft 7
schema held as plain dicts; ``json.dumps`` of any entry gives a
standalone schema document.  Each ``enum`` takes its names from the
table the code looks them up in, the grating's required fields come from
``spectral.FbgModel``, and the ``tau23_factor`` minimum is the rule
``visibility_map`` enforces, ``interference.TAU23_TC_FACTOR``.
The maxima of ``delays.count``, ``tags.density.n_points``,
``fbg_fit.n_restarts`` and a grating's ``n_sections`` bound the arrays
and loops those counts size, before anything is allocated.

Each rule is written once: every object that refuses unknown keys comes
from ``_closed``, every document header from ``_document``, and the
number and array fragments are shared dicts that nothing mutates.

Every schema dict lists its keys in sorted order: of two equally
relevant errors, jsonschema reports the one whose keyword comes first,
so ``2.5`` for an integer with a minimum of 3 reads as the range error,
not the type error.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .interference import SOURCE_CHANNELS, TAU23_TC_FACTOR, WIDTH_PRODUCTS
from .presets import REFERENCE_SOURCES
from .spectral import FbgModel

DRAFT = "http://json-schema.org/draft-07/schema#"


def _closed(properties: dict, required=()) -> dict:
    """An object schema that refuses keys other than ``properties``."""
    schema = {
        "additionalProperties": False,
        "properties": dict(sorted(properties.items())),
        "type": "object",
    }
    if required:
        schema["required"] = list(required)
    return dict(sorted(schema.items()))


def _document(name: str, title: str, schema: dict) -> dict:
    """``schema`` as the standalone document ``cwhom/<name>.schema.json``."""
    header = {"$id": f"cwhom/{name}.schema.json", "$schema": DRAFT, "title": title}
    return dict(sorted({**schema, **header}.items()))


def _array(items: dict, min_items: int, max_items: int | None = None) -> dict:
    """An array of at least ``min_items`` (and at most ``max_items``) ``items``."""
    schema = {"items": items, "minItems": min_items, "type": "array"}
    if max_items is not None:
        schema["maxItems"] = max_items
    return dict(sorted(schema.items()))


_NUMBER = {"type": "number"}
_POSITIVE = {"exclusiveMinimum": 0, "type": "number"}
_NON_NEGATIVE = {"minimum": 0, "type": "number"}
_PROBABILITY = {"maximum": 1, "minimum": 0, "type": "number"}
_COUNT = {"minimum": 0, "type": "integer"}
_NUMBERS = _array(_NUMBER, 1)
# one entry per detector channel
_NON_NEGATIVE4 = _array(_NON_NEGATIVE, 4, 4)
_PROBABILITY4 = _array(_PROBABILITY, 4, 4)

# filter shapes that interference.filter_width knows
_FILTER_KIND = {"enum": list(WIDTH_PRODUCTS)}

_FBG_FIELDS = fields(FbgModel)
_FBG_MODEL_PROPS = {
    "detuning_offset": _NUMBER,
    "length": _POSITIVE,
    "n_sections": {"maximum": 4096, "minimum": 16, "type": "integer"},
    "order": {"minimum": 1, "type": "number"},
    "peak_kappa": _NON_NEGATIVE,
    "width": {"exclusiveMinimum": 0, "maximum": 1, "type": "number"},
}

# a seed may leave out the fields that FbgModel defaults
_FBG_SEED = _closed(_FBG_MODEL_PROPS, [f.name for f in _FBG_FIELDS if f.default is MISSING])

_SOURCE = {
    "oneOf": [
        _closed(
            {
                "kind": _FILTER_KIND,
                "t_c_ps": _POSITIVE,
            },
            ["kind", "t_c_ps"],
        ),
        _closed({"preset": {"enum": list(REFERENCE_SOURCES)}}, ["preset"]),
    ],
}

_SCENARIO = _closed({
    "coherence": _closed({"source": {"enum": list(SOURCE_CHANNELS)}}),
    "count": _closed(
        {
            "delta_ps": _POSITIVE,
            "duration_ps": _POSITIVE,
            "tag_csv": {"type": "string"},
            "tau_ps": _NUMBER,
        },
        ["tag_csv"],
    ),
    "delays": _closed(
        {
            "count": {"maximum": 100000, "minimum": 2, "type": "integer"},
            "start_ps": _NUMBER,
            "stop_ps": _NUMBER,
        },
        ["start_ps", "stop_ps", "count"],
    ),
    "detectors": _closed(
        {
            "compose_tagger_rms_ps": _NON_NEGATIVE,
            "jitter_fwhm_ps": _NON_NEGATIVE4,
        },
        ["jitter_fwhm_ps"],
    ),
    "fbg_fit": _closed(
        {
            "n_restarts": {"maximum": 100, "minimum": 0, "type": "integer"},
            "seed": {"$ref": "#/definitions/fbg_model"},
            "table_csv": {"type": "string"},
        },
        ["table_csv", "seed"],
    ),
    "grid": _closed(
        {
            "n_points": {"minimum": 3, "type": "integer"},
        },
    ),
    "pulsed": _closed(
        {
            "f_rep_hz": _POSITIVE,
            "mu_p": _POSITIVE,
            "t_c_ps": _POSITIVE,
            "tau_p_ps": _POSITIVE,
        },
        ["mu_p", "tau_p_ps", "t_c_ps", "f_rep_hz"],
    ),
    "rate_query": _closed(
        {
            "filter_kind": _FILTER_KIND,
            "jitter_ps": _NON_NEGATIVE,
            "mu": {"exclusiveMinimum": 0, "maximum": 0.2, "type": "number"},
            "tau_w_range_ps": _array(_POSITIVE, 2, 2),
            "tc_max_ps": _POSITIVE,
            "v_target": {"exclusiveMaximum": 1, "exclusiveMinimum": 0, "type": "number"},
        },
        ["mu", "jitter_ps", "v_target", "tc_max_ps"],
    ),
    "rng_seed": _COUNT,
    "sources": _closed(
        {name: {"$ref": "#/definitions/source"} for name in SOURCE_CHANNELS},
        SOURCE_CHANNELS,
    ),
    "swap": _closed(
        {
            "loss_csv": {"type": "string"},
            "mu": _POSITIVE,
            "t_c_ps": _POSITIVE,
            "tau_w_ps": _POSITIVE,
        },
        ["mu", "t_c_ps", "tau_w_ps", "loss_csv"],
    ),
    "tags": _closed(
        {
            "density": _closed(
                {
                    "n_points": {"maximum": 100000, "minimum": 5, "type": "integer"},
                    "span_ps": _POSITIVE,
                    "t_c_ps": _POSITIVE,
                },
                ["t_c_ps"],
            ),
            "duration_ps": _POSITIVE,
            "etas": _PROBABILITY4,
            "gamma": _PROBABILITY,
            "gamma_step": _closed(
                {
                    "v_target": _PROBABILITY,
                    "width_ps": _POSITIVE,
                },
                ["v_target", "width_ps"],
            ),
            "noise_rates_hz": _NON_NEGATIVE4,
            "pair_rate_a_hz": _NON_NEGATIVE,
            "pair_rate_b_hz": _NON_NEGATIVE,
            "pairing_horizon_ps": _POSITIVE,
        },
        [
            "pair_rate_a_hz",
            "pair_rate_b_hz",
            "noise_rates_hz",
            "etas",
            "duration_ps",
            "density",
        ],
    ),
    "vismap": _closed(
        {
            "filter_kind": _FILTER_KIND,
            "jitter_ps": _NON_NEGATIVE,
            "tau14_values_ps": _array(_POSITIVE, 1),
            "tau23_factor": {"minimum": TAU23_TC_FACTOR, "type": "number"},
            "tc_values_ps": _array(_POSITIVE, 1),
        },
        ["tc_values_ps", "tau14_values_ps", "jitter_ps"],
    ),
    "windows": _closed(
        {
            "tau_14_ps": _POSITIVE,
            "tau_23_ps": _POSITIVE,
        },
        ["tau_14_ps", "tau_23_ps"],
    ),
})

_VISIBILITY = _closed(
    {
        # the scenario sections the run read, echoed as they were
        "inputs": {"type": "object"},
        "plateau_delay_ps": _NUMBER,
        "plateau_reliable": {"type": "boolean"},
        "visibility": _NUMBER,
    },
    ["visibility", "plateau_reliable", "plateau_delay_ps", "inputs"],
)

_OPTRESULT = _closed(
    {
        "curve": _array(_array(_NUMBER, 3, 3), 1),
        "rate_opt_hz": _NON_NEGATIVE,
        "tau_w_opt_ps": _POSITIVE,
        "tc_opt_ps": _POSITIVE,
    },
    ["tau_w_opt_ps", "tc_opt_ps", "rate_opt_hz", "curve"],
)

_COUNTS = _closed(
    {
        "corrected": {"type": "integer"},
        "raw": _COUNT,
        "shifted_2": _COUNT,
        "shifted_3": _COUNT,
    },
    ["raw", "shifted_2", "shifted_3", "corrected"],
)

_ORACLE_REPORT = _closed(
    {
        "delays_ps": _NUMBERS,
        "engine": _NUMBERS,
        "max_rel_deviation": _NON_NEGATIVE,
        "oracle": _NUMBERS,
        "pass": {"type": "boolean"},
        "tolerance": _POSITIVE,
    },
    ["delays_ps", "engine", "oracle", "max_rel_deviation", "tolerance", "pass"],
)

_CSV_META = _closed(
    {
        "dip": _NUMBER,
        "n_events": _COUNT,
        "n_rows": _COUNT,
        "out": {"type": "string"},
        "plateau": _NUMBER,
        "plateau_reliable": {"type": "boolean"},
        "residual": _NON_NEGATIVE,
        "subcommand": {"type": "string"},
        "t_c_fwhm_ps": _NUMBER,
    },
    ["subcommand", "out"],
)

SCHEMAS = {
    name: _document(name, title, schema)
    for name, title, schema in [
        (
            "scenario",
            "cwhom scenario file (all durations in picoseconds)",
            {**_SCENARIO, "definitions": {"fbg_model": _FBG_SEED, "source": _SOURCE}},
        ),
        ("visibility", "visibility subcommand output", _VISIBILITY),
        ("optresult", "optimize-rate subcommand output", _OPTRESULT),
        ("counts", "tags count subcommand output", _COUNTS),
        ("rate", "pulsed-rate subcommand output", _closed({"rate_hz": _NON_NEGATIVE}, ["rate_hz"])),
        ("swaps", "pass-swaps subcommand output", _closed({"swaps": _NON_NEGATIVE}, ["swaps"])),
        (
            "fbg_model",
            "fitted grating model (fbg fit output)",
            _closed(_FBG_MODEL_PROPS, [f.name for f in _FBG_FIELDS]),
        ),
        ("oracle_report", "oracle-check subcommand output", _ORACLE_REPORT),
        ("csv_meta", "status line printed by CSV-emitting subcommands", _CSV_META),
    ]
}
