"""Guards against stale names: everything the package exports and every
function the benchmark tracer wraps must exist, so a refactor that
deletes one fails here rather than only under a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import heischar

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_spans():
    """The (span name, module, attribute) triples of the tracer's SPANS,
    read from its source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def test_all_names_resolve():
    missing = [name for name in heischar.__all__ if not hasattr(heischar, name)]
    assert missing == []
    assert len(set(heischar.__all__)) == len(heischar.__all__)


def test_traced_names_resolve():
    spans = tracer_spans()
    assert spans
    for _, module, attr in spans:
        obj = importlib.import_module(f"heischar.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"heischar.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"heischar.{module}.{attr}"
