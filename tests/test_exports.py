"""Guards against stale names: everything the package exports, every
function the benchmark tracer wraps and every library name the
benchmark's ops call must exist, so a refactor that deletes one fails
here rather than only under a benchmark run."""

import ast
import importlib
from pathlib import Path

import heischar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
OPS = PERFBENCH / "ops.py"


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


def ops_library_names():
    """The (function, module, attribute) triples of every ``m.attr`` that a
    function of ops.py uses, where it imports m by ``from heischar import m``,
    read from its source without importing it."""
    for func in ast.walk(ast.parse(OPS.read_text(encoding="utf-8"))):
        if not isinstance(func, ast.FunctionDef):
            continue
        modules = {alias.asname or alias.name: alias.name
                   for node in ast.walk(func)
                   if isinstance(node, ast.ImportFrom) and node.module == "heischar"
                   for alias in node.names}
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                yield func.name, modules[node.value.id], node.attr


def test_benchmark_library_names_resolve():
    names = list(ops_library_names())
    assert names
    for func, module, attr in names:
        assert hasattr(importlib.import_module(f"heischar.{module}"), attr), \
            f"perfbench/ops.py {func}: heischar.{module}.{attr}"
