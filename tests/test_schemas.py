"""cwhom.schemas.validate against jsonschema's Draft 7 validator.

validate implements only the keywords the schema documents use; these
tests hold it to jsonschema 4.26 on mutated scenarios and artifacts, and
refuse a schema node that uses a keyword validate would not enforce.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwhom.schemas import _DEFINITIONS, _TYPES, ANNOTATIONS, KEYWORDS, SCHEMAS, ValidationError, validate

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")


def _schema_nodes():
    """(path, node) of every schema node: properties, items, oneOf branches and definitions."""
    def walk(node, path):
        yield path, node
        for key in ("properties", "definitions"):
            for name, sub in node.get(key, {}).items():
                yield from walk(sub, (*path, key, name))
        if isinstance(node.get("items"), dict):
            yield from walk(node["items"], (*path, "items"))
        for i, sub in enumerate(node.get("oneOf", [])):
            yield from walk(sub, (*path, "oneOf", i))

    for name, schema in SCHEMAS.items():
        yield from walk(schema, (name,))


def test_every_schema_keyword_is_one_validate_enforces():
    nodes = list(_schema_nodes())
    assert ("scenario", "definitions", "source", "oneOf", 1) in [path for path, _ in nodes]
    for path, node in nodes:
        assert isinstance(node, dict), path
        assert set(node) <= KEYWORDS | ANNOTATIONS, (path, set(node) - KEYWORDS - ANNOTATIONS)
        # validate implements each keyword in the one form the documents use
        assert node.get("additionalProperties", False) is False, path
        assert isinstance(node.get("items", {}), dict), path
        assert all(isinstance(member, str) for member in node.get("enum", [])), path
        types = node.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(_TYPES), path
        if "$ref" in node:
            ref = node["$ref"]
            assert ref.startswith(_DEFINITIONS), path
            assert ref.removeprefix(_DEFINITIONS) in SCHEMAS[path[0]]["definitions"], path
        if "definitions" in node:
            assert len(path) == 1, path


def _bundled_scenarios():
    docs = []
    for name in sorted(os.listdir(SCENARIOS)):
        with open(os.path.join(SCENARIOS, name)) as fh:
            docs.append(("scenario", json.load(fh)))
    return docs


# one valid document of each artifact schema
_ARTIFACTS = [
    ("visibility", {"visibility": 0.97, "plateau_reliable": True, "plateau_delay_ps": 900.0,
                    "inputs": {"windows": {"tau_14_ps": 40.0}}}),
    ("optresult", {"tau_w_opt_ps": 40.0, "tc_opt_ps": 120.0, "rate_opt_hz": 2.5e5,
                   "curve": [[5.0, 30.0, 1e5], [40.0, 120.0, 2.5e5]]}),
    ("counts", {"raw": 12, "shifted_2": 3, "shifted_3": 2, "corrected": -1}),
    ("rate", {"rate_hz": 1e5}),
    ("swaps", {"swaps": 0.85}),
    ("fbg_model", {"detuning_offset": 0.0, "length": 0.02, "n_sections": 200, "order": 1.0,
                   "peak_kappa": 150.0, "width": 0.5}),
    ("oracle_report", {"delays_ps": [0.0, 50.0], "engine": [1e-9, 2e-9], "oracle": [1e-9, 2e-9],
                       "max_rel_deviation": 1e-4, "tolerance": 1e-3, "pass": True}),
    ("csv_meta", {"subcommand": "homdip", "out": "dip.csv", "dip": 0.03, "plateau": 0.5, "n_rows": 161}),
]
_BASES = _bundled_scenarios() + _ARTIFACTS

# leaves of the wrong type or out of every range the schemas set
_LEAVES = [True, False, None, "x", [], [1.0], {}, 2.0, 3.0, 0, 0.0, -1, -1.0, 0.5, 1e9, 4097, 1e-300]

# property names whose schema is an enum
_ENUM_KEYS = sorted({
    key
    for _, node in _schema_nodes()
    for key, sub in node.get("properties", {}).items()
    if "enum" in sub
})


def _positions(doc, path=()):
    """(container path, key) of every value below ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path, key
        yield from _positions(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw):
    name, doc = draw(st.sampled_from(_BASES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        positions = list(_positions(doc))
        objects = [()] + [(*path, key) for path, key in positions if isinstance(_at(doc, (*path, key)), dict)]
        scalars = [(path, key) for path, key in positions if not isinstance(_at(doc, path)[key], (dict, list))]
        arrays = [(path, key) for path, key in positions if isinstance(_at(doc, path)[key], list)]
        op = draw(st.sampled_from(["drop", "add", "leaf", "replace", "array", "enum", "branch"]))
        if op == "drop" and positions:
            path, key = draw(st.sampled_from(positions))
            container = _at(doc, path)
            if isinstance(container, dict):
                del container[key]
        elif op == "add":
            _at(doc, draw(st.sampled_from(objects)))[draw(st.sampled_from(["aa", "bogus", "zz"]))] = (
                draw(st.sampled_from(_LEAVES))
            )
        elif op in ("leaf", "replace") and positions:
            # a number, string or bool, or any value at all
            path, key = draw(st.sampled_from(scalars if op == "leaf" and scalars else positions))
            _at(doc, path)[key] = copy.deepcopy(draw(st.sampled_from(_LEAVES)))
        elif op == "array" and arrays:
            path, key = draw(st.sampled_from(arrays))
            array = _at(doc, path)[key]
            how = draw(st.sampled_from(["empty", "shorten", "lengthen"]))
            if how == "empty":
                array.clear()
            elif how == "shorten" and array:
                array.pop()
            else:
                array.append(copy.deepcopy(array[-1]) if array else 1.0)
        elif op == "enum":
            for path, key in positions:
                if key in _ENUM_KEYS:
                    _at(doc, path)[key] = draw(st.sampled_from(["nope", "RECT", 1, None]))
        elif op == "branch" and isinstance(doc.get("sources"), dict) and doc["sources"]:
            # a source that mixes, lacks or empties the keys of its two oneOf branches
            source = doc["sources"][draw(st.sampled_from(sorted(doc["sources"])))]
            if isinstance(source, dict):
                extra = draw(st.sampled_from([{"preset": "a"}, {"kind": "rect"}, {"t_c_ps": 100.0}, None]))
                if extra is None:
                    source.clear()
                else:
                    source.update(extra)
    return name, doc


def _jsonschema_verdict(doc, name):
    error = jsonschema.exceptions.best_match(jsonschema.Draft7Validator(SCHEMAS[name]).iter_errors(doc))
    return None if error is None else (error.message, list(error.absolute_path))


def _verdict(doc, name):
    try:
        validate(doc, name)
    except ValidationError as exc:
        return str(exc), list(exc.path)
    return None


def test_every_base_document_is_valid():
    assert {name for name, _ in _BASES} == set(SCHEMAS)
    for name, doc in _BASES:
        assert _jsonschema_verdict(doc, name) is None, name
        validate(doc, name)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(drawn=_mutated())
def test_validate_agrees_with_jsonschema_best_match(drawn):
    # same acceptance; on refusal the same message, and the same path from
    # the document's root (best_match's absolute_path)
    name, doc = drawn
    assert _verdict(doc, name) == _jsonschema_verdict(doc, name)


@pytest.mark.parametrize("doc, message, path", [
    # the oneOf's own error: both branches fail at the same depth
    ({"kind": "rect"}, "{'kind': 'rect'} is not valid under any of the given schemas", ["sources", "a"]),
    # the descent into the oneOf context picks the one deeper failure
    ({"kind": "nope", "t_c_ps": 1.0}, "'nope' is not one of ['rect', 'gaussian', 'lorentzian']",
     ["sources", "a", "kind"]),
])
def test_validate_descends_into_a_failed_one_of(doc, message, path):
    scenario = {"sources": {"a": doc, "b": {"preset": "a"}}}
    assert _jsonschema_verdict(scenario, "scenario") == (message, path)
    assert _verdict(scenario, "scenario") == (message, path)


@pytest.mark.parametrize("schema, instance", [
    # overlapping oneOf branches
    ({"oneOf": [{"type": "number"}, {"minimum": 0, "type": "integer"}]}, 3),
    ({"maxItems": 0, "type": "array"}, [1.0]),
    ({"type": ["integer", "string"]}, 2.5),
])
def test_validate_agrees_with_jsonschema_on_forms_no_document_uses(monkeypatch, schema, instance):
    monkeypatch.setitem(SCHEMAS, "probe", schema)
    verdict = _jsonschema_verdict(instance, "probe")
    assert verdict is not None
    assert _verdict(instance, "probe") == verdict


def test_the_cli_imports_and_runs_without_jsonschema(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    script = (
        "import sys\n"
        "import cwhom.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in "
        "{'jsonschema', 'referencing', 'attrs', 'rpds'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    # an import of jsonschema would now raise ImportError
    blocked = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from cwhom.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "vis.json"
    proc = subprocess.run(
        [sys.executable, "-c", blocked, "visibility", "--scenario", os.path.join(SCENARIOS, "identical_165.json"),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(out.read_text())["plateau_reliable"] is True

    with open(os.path.join(SCENARIOS, "pulsed.json")) as fh:
        doc = json.load(fh)
    doc["bogus"] = 1
    sc = tmp_path / "bogus.json"
    sc.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", blocked, "pulsed-rate", "--scenario", str(sc), "--out", str(tmp_path / "rate.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == json.dumps({
        "error": "validation",
        "message": "Additional properties are not allowed ('bogus' was unexpected)",
    }) + "\n"
