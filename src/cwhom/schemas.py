"""JSON schemas of the scenario file and of every artifact the CLI writes.

``SCHEMAS`` maps each name that ``validate`` takes to a Draft 7 schema
held as plain dicts; ``json.dumps`` of any entry gives a standalone
schema document.  Each ``enum`` takes its names from the
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

Every schema dict lists its keys in sorted order: ``validate`` reads
each node's keywords in that order and, of two equally relevant errors,
reports the one whose keyword comes first, so ``2.5`` for an integer
with a minimum of 3 reads as the range error, not the type error.
``validate`` implements only the keywords these documents use (``KEYWORDS``)
and words each message as jsonschema 4.26 does; jsonschema itself is
not imported, and the tests compare the two.
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields

from .interference import SOURCE_CHANNELS, TAU23_TC_FACTOR, WIDTH_PRODUCTS
from .presets import REFERENCE_SOURCES
from .spectral import FbgModel

DRAFT = "http://json-schema.org/draft-07/schema#"


def _closed(required: dict, optional: dict | None = None) -> dict:
    """An object schema of the keys of ``required`` and ``optional``, refusing others.

    The keys of ``required`` must all be present; their order is that of
    the ``required`` list, which ``validate`` reports a missing key from.
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


# ---------------------------------------------------------------------------
# Validation: the Draft 7 keywords the documents above use, and no others

_DEFINITIONS = "#/definitions/"

# Draft 7 types: a bool is never a number, and a whole float is an integer
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()
    ),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

# keywords that validate checks, and those it reads as annotations only
KEYWORDS = frozenset({
    "$ref", "additionalProperties", "enum", "exclusiveMaximum", "exclusiveMinimum",
    "items", "maxItems", "maximum", "minItems", "minimum", "oneOf", "properties",
    "required", "type",
})
ANNOTATIONS = frozenset({"$id", "$schema", "definitions", "title"})


class ValidationError(ValueError):
    """An instance that breaks its schema.

    ``str`` is the message; ``path`` holds the keys and indices from the
    document's root to the value at fault.
    """

    def __init__(self, message: str, path: tuple) -> None:
        super().__init__(message)
        self.path = path


@dataclass
class _Failure:
    message: str
    keyword: str
    # from the value a oneOf tests (or the document's root) to the value at fault
    path: tuple
    # whether the value at fault has the type of the schema node that failed
    matches_type: bool
    # the failures of every branch of a oneOf that no branch passes
    context: list


def _is_type(instance, schema: dict) -> bool:
    types = schema["type"]
    return any(_TYPES[t](instance) for t in ([types] if isinstance(types, str) else types))


def _check(instance, schema: dict, root: dict, path: tuple, out: list) -> None:
    """Append each failure of ``instance`` against ``schema`` to ``out``.

    Keywords are read in the schema's key order and a oneOf's failures
    nest in its context, as jsonschema's ``Draft7Validator.iter_errors``
    yields them; each message is worded as jsonschema 4.26 words it.
    """
    ref = schema.get("$ref")
    if ref is not None:  # Draft 7 ignores the siblings of $ref
        _check(instance, root["definitions"][ref.removeprefix(_DEFINITIONS)], root, path, out)
        return
    is_number = _TYPES["number"](instance)
    for keyword, value in schema.items():
        messages = []
        context = []
        if keyword == "type":
            if not _is_type(instance, schema):
                types = [value] if isinstance(value, str) else value
                messages.append(f"{instance!r} is not of type {', '.join(map(repr, types))}")
        elif keyword == "properties":
            if isinstance(instance, dict):
                for key, sub in value.items():
                    if key in instance:
                        _check(instance[key], sub, root, (*path, key), out)
        elif keyword == "additionalProperties":
            # only `false` is used: a closed object
            if isinstance(instance, dict):
                extras = sorted((k for k in instance if k not in schema.get("properties", {})), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    messages.append(
                        f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"
                    )
        elif keyword == "required":
            if isinstance(instance, dict):
                messages += [f"{key!r} is a required property" for key in value if key not in instance]
        elif keyword == "enum":
            # every enum member is a string, for which == is jsonschema's equality
            if instance not in value:
                messages.append(f"{instance!r} is not one of {value!r}")
        elif keyword == "minimum":
            if is_number and instance < value:
                messages.append(f"{instance!r} is less than the minimum of {value!r}")
        elif keyword == "maximum":
            if is_number and instance > value:
                messages.append(f"{instance!r} is greater than the maximum of {value!r}")
        elif keyword == "exclusiveMinimum":
            if is_number and instance <= value:
                messages.append(f"{instance!r} is less than or equal to the minimum of {value!r}")
        elif keyword == "exclusiveMaximum":
            if is_number and instance >= value:
                messages.append(f"{instance!r} is greater than or equal to the maximum of {value!r}")
        elif keyword == "items":
            # only the one-schema-for-every-item form is used
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    _check(item, value, root, (*path, index), out)
        elif keyword == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                messages.append(f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}")
        elif keyword == "maxItems":
            if isinstance(instance, list) and len(instance) > value:
                messages.append(f"{instance!r} {'is expected to be empty' if value == 0 else 'is too long'}")
        elif keyword == "oneOf":
            failed = []
            for index, sub in enumerate(value):
                found = []
                _check(instance, sub, root, (), found)
                if not found:
                    also = [s for s in value[index + 1:] if _passes(instance, s, root)]
                    if also:
                        reprs = ", ".join(map(repr, [*also, sub]))
                        messages.append(f"{instance!r} is valid under each of {reprs}")
                    break
                failed += found
            else:
                messages.append(f"{instance!r} is not valid under any of the given schemas")
                context = failed
        if messages:
            matches_type = "type" in schema and _is_type(instance, schema)
            out += [_Failure(m, keyword, path, matches_type, context) for m in messages]


def _passes(instance, schema: dict, root: dict) -> bool:
    found = []
    _check(instance, schema, root, (), found)
    return not found


def _relevance(failure: _Failure) -> tuple:
    # jsonschema's relevance: max() takes the shallowest failure, then the
    # last sibling, then a keyword other than oneOf, then one whose value
    # breaks its node's type
    return (-len(failure.path), failure.path, failure.keyword != "oneOf", not failure.matches_type)


def validate(instance, name: str) -> None:
    """Raise ``ValidationError`` if ``instance`` breaks ``SCHEMAS[name]``.

    Of several failures it reports the one jsonschema 4.26's
    ``best_match`` picks, with the same message: the most relevant, and
    within a oneOf that no branch passes, the most relevant failure of
    its branches, unless two of those tie.
    """
    root = SCHEMAS[name]
    found = []
    _check(instance, root, root, (), found)
    if not found:
        return
    best = max(found, key=_relevance)
    path = best.path
    while best.context:
        first, *rest = sorted(best.context, key=_relevance)[:2]
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        best = first
        path += best.path
    raise ValidationError(best.message, path)
