"""Every example imports: a public name an example uses cannot be deleted
without failing this test.  ``main()`` is not called (the examples run
full extractions; ``make examples`` runs them), so a second check parses
each example and holds every config keyword to the current fields."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro import FRWConfig

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


CONFIG_FIELDS = {f.name for f in dataclasses.fields(FRWConfig)}


def _config_calls(tree):
    """Calls that take ``FRWConfig`` fields as keywords: ``FRWConfig(...)``,
    its named constructors, ``.with_(...)`` and ``paper_config(...)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("FRWConfig", "paper_config"):
            yield node
        elif isinstance(fn, ast.Attribute) and (
            fn.attr == "with_"
            or (isinstance(fn.value, ast.Name) and fn.value.id == "FRWConfig")
        ):
            yield node


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_config_keywords_are_fields(path):
    """Config keywords inside ``main()`` (which the import test never runs)
    must still name current ``FRWConfig`` fields."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unknown = [
        (call.lineno, kw.arg)
        for call in _config_calls(tree)
        for kw in call.keywords
        if kw.arg is not None and kw.arg not in CONFIG_FIELDS
    ]
    assert not unknown, f"{path.name}: unknown FRWConfig fields {unknown}"
