"""The package's source parses on the oldest Python it declares."""

from __future__ import annotations

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "cwhom")
FLOOR = (3, 10)


def test_pyproject_declares_the_floor():
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in fh.read()


@pytest.mark.parametrize("module", sorted(n for n in os.listdir(SOURCE) if n.endswith(".py")))
def test_module_parses_on_the_floor(module):
    # the grammar check only: a newer syntax form fails here, a newer
    # library call does not
    with open(os.path.join(SOURCE, module)) as fh:
        ast.parse(fh.read(), filename=module, feature_version=FLOOR)
