"""JSON schemas of the scenario file and of every artifact the CLI writes.

``SCHEMAS`` maps each name that ``cli._validator`` takes to a Draft 7
schema held as plain dicts; ``json.dumps`` of any entry gives a
standalone schema document.  Each ``enum`` takes its names from the
table the code looks them up in, the grating's required fields come from
``spectral.FbgModel``, and the ``tau23_factor`` minimum is the rule
``visibility_map`` enforces, ``interference.TAU23_TC_FACTOR``.
The maxima of ``delays.count``, ``fbg_fit.n_restarts`` and a grating's
``n_sections`` bound the arrays and loops those counts size, before
anything is allocated.

Each rule and each key is written once: every object that refuses
unknown keys comes from ``_closed(required, optional)``, which names
each key once, every document header from ``_document``, and the number
and array fragments are shared dicts that nothing mutates.

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


def _closed(required: dict, optional: dict | None = None) -> dict:
    """An object schema of the keys of ``required`` and ``optional``, refusing others.

    The keys of ``required`` must all be present; their order is that of
    the ``required`` list, which jsonschema reports a missing key from.
    """
    schema = {
        "additionalProperties": False,
        "properties": dict(sorted({**required, **(optional or {})}.items())),
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

_FBG_FIELDS = fields(FbgModel)
_FBG_MODEL_PROPS = {
    "detuning_offset": _NUMBER,
    "length": _POSITIVE,
    "n_sections": {"maximum": 4096, "minimum": 16, "type": "integer"},
    "order": {"minimum": 1, "type": "number"},
    "peak_kappa": _NON_NEGATIVE,
    "width": {"exclusiveMinimum": 0, "maximum": 1, "type": "number"},
}

# FbgModel's fields without and with a default, in field order; a field
# with no entry in _FBG_MODEL_PROPS fails here, at import
_FBG_REQUIRED, _FBG_DEFAULTED = (
    {f.name: _FBG_MODEL_PROPS[f.name] for f in _FBG_FIELDS if (f.default is MISSING) == required}
    for required in (True, False)
)

# a seed may leave out the fields that FbgModel defaults
_FBG_SEED = _closed(_FBG_REQUIRED, _FBG_DEFAULTED)

_SOURCE = {
    "oneOf": [
        _closed(
            {
                # filter shapes that interference.filter_width knows
                "kind": {"enum": list(WIDTH_PRODUCTS)},
                "t_c_ps": _POSITIVE,
            },
        ),
        _closed({"preset": {"enum": list(REFERENCE_SOURCES)}}),
    ],
}

_SCENARIO = _closed({}, {
    "coherence": _closed({}, {"source": {"enum": list(SOURCE_CHANNELS)}}),
    "count": _closed(
        {
            "tag_csv": {"type": "string"},
        },
        {
            "duration_ps": _POSITIVE,
            "tau_ps": _NUMBER,
        },
    ),
    "delays": _closed(
        {
            "start_ps": _NUMBER,
            "stop_ps": _NUMBER,
            "count": {"maximum": 100000, "minimum": 2, "type": "integer"},
        },
    ),
    "detectors": _closed(
        {
            "jitter_fwhm_ps": _NON_NEGATIVE4,
        },
        {
            "compose_tagger_rms_ps": _NON_NEGATIVE,
        },
    ),
    "fbg_fit": _closed(
        {
            "table_csv": {"type": "string"},
            "seed": {"$ref": "#/definitions/fbg_model"},
        },
        {
            "n_restarts": {"maximum": 100, "minimum": 0, "type": "integer"},
        },
    ),
    "grid": _closed(
        {},
        {
            "n_points": {"minimum": 3, "type": "integer"},
        },
    ),
    "pulsed": _closed(
        {
            "mu_p": _POSITIVE,
            "tau_p_ps": _POSITIVE,
            "t_c_ps": _POSITIVE,
            "f_rep_hz": _POSITIVE,
        },
    ),
    "rate_query": _closed(
        {
            "mu": {"exclusiveMinimum": 0, "maximum": 0.2, "type": "number"},
            "jitter_ps": _NON_NEGATIVE,
            "v_target": {"exclusiveMaximum": 1, "exclusiveMinimum": 0, "type": "number"},
            "tc_max_ps": _POSITIVE,
        },
    ),
    "rng_seed": _COUNT,
    "sources": _closed(
        {name: {"$ref": "#/definitions/source"} for name in SOURCE_CHANNELS},
    ),
    "swap": _closed(
        {
            "mu": _POSITIVE,
            "t_c_ps": _POSITIVE,
            "tau_w_ps": _POSITIVE,
            "loss_csv": {"type": "string"},
        },
    ),
    "tags": _closed(
        {
            "pair_rate_a_hz": _NON_NEGATIVE,
            "pair_rate_b_hz": _NON_NEGATIVE,
            "noise_rates_hz": _NON_NEGATIVE4,
            "etas": _PROBABILITY4,
            "duration_ps": _POSITIVE,
            "density": _closed(
                {
                    "t_c_ps": _POSITIVE,
                },
            ),
            "gamma_step": _closed(
                {
                    "v_target": _PROBABILITY,
                    "width_ps": _POSITIVE,
                },
            ),
        },
        {
            "pairing_horizon_ps": _POSITIVE,
        },
    ),
    "vismap": _closed(
        {
            "tc_values_ps": _array(_POSITIVE, 1),
            "tau14_values_ps": _array(_POSITIVE, 1),
            "jitter_ps": _NON_NEGATIVE,
        },
        {
            "tau23_factor": {"minimum": TAU23_TC_FACTOR, "type": "number"},
        },
    ),
    "windows": _closed(
        {
            "tau_14_ps": _POSITIVE,
            "tau_23_ps": _POSITIVE,
        },
    ),
})

_VISIBILITY = _closed(
    {
        "visibility": _NUMBER,
        "plateau_reliable": {"type": "boolean"},
        "plateau_delay_ps": _NUMBER,
        # the scenario sections the run read, echoed as they were
        "inputs": {"type": "object"},
    },
)

_OPTRESULT = _closed(
    {
        "tau_w_opt_ps": _POSITIVE,
        "tc_opt_ps": _POSITIVE,
        "rate_opt_hz": _NON_NEGATIVE,
        "curve": _array(_array(_NUMBER, 3, 3), 1),
    },
)

_COUNTS = _closed(
    {
        "raw": _COUNT,
        "shifted_2": _COUNT,
        "shifted_3": _COUNT,
        "corrected": {"type": "integer"},
    },
)

_ORACLE_REPORT = _closed(
    {
        "delays_ps": _NUMBERS,
        "engine": _NUMBERS,
        "oracle": _NUMBERS,
        "max_rel_deviation": _NON_NEGATIVE,
        "tolerance": _POSITIVE,
        "pass": {"type": "boolean"},
    },
)

_CSV_META = _closed(
    {
        "subcommand": {"type": "string"},
        "out": {"type": "string"},
    },
    {
        "dip": _NUMBER,
        "n_events": _COUNT,
        "n_rows": _COUNT,
        "plateau": _NUMBER,
        "plateau_reliable": {"type": "boolean"},
        "residual": _NON_NEGATIVE,
        "t_c_fwhm_ps": _NUMBER,
    },
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
        ("rate", "pulsed-rate subcommand output", _closed({"rate_hz": _NON_NEGATIVE})),
        ("swaps", "pass-swaps subcommand output", _closed({"swaps": _NON_NEGATIVE})),
        (
            "fbg_model",
            "fitted grating model (fbg fit output)",
            _closed({**_FBG_REQUIRED, **_FBG_DEFAULTED}),
        ),
        ("oracle_report", "oracle-check subcommand output", _ORACLE_REPORT),
        ("csv_meta", "status line printed by CSV-emitting subcommands", _CSV_META),
    ]
}
