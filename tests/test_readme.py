"""The README's Python quick start runs as written, and it names every scenario key."""

from __future__ import annotations

import contextlib
import io
import os
import re

from cwhom.schemas import SCHEMAS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_quick_start_runs():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], README, "exec"), {})
    # identical rect sources at 165 ps with detector-only jitters
    assert 0.936 <= float(printed.getvalue()) <= 0.99


def _key_paths(schema: dict, definitions: dict, prefix: str = ""):
    """The dotted path of every leaf key under ``schema``, through refs and alternatives."""
    if "$ref" in schema:
        yield from _key_paths(definitions[schema["$ref"].rpartition("/")[2]], definitions, prefix)
    elif "oneOf" in schema:
        for alternative in schema["oneOf"]:
            yield from _key_paths(alternative, definitions, prefix)
    elif "properties" in schema:
        for key, sub in schema["properties"].items():
            yield from _key_paths(sub, definitions, f"{prefix}{key}.")
    else:
        yield prefix[:-1]


def test_readme_names_every_scenario_key():
    with open(README) as fh:
        text = fh.read()
    scenario = SCHEMAS["scenario"]
    paths = set(_key_paths(scenario, scenario["definitions"]))
    assert {"tags.density.t_c_ps", "sources.b.preset", "fbg_fit.seed.width", "rng_seed"} <= paths
    assert sorted(p for p in paths if f"`{p}`" not in text) == []
