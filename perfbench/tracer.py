"""Spans around calls into each heischar module, installed from the
benchmark's side.

``install`` replaces every binding of each traced function (module
attributes, ``from``-imports such as ``oracle.row_reduce`` and
``bijections.block_decomposition``, and the package re-exports) with a
wrapper that opens a span on entry and closes it on exit.  A span is a
name, a start, an end and the span that was open when it started; all
spans of a child belong to its one op.  Self time is a span's duration
minus the time its child spans cover.  Spans are folded into per-name
totals as they close, so a child that enumerates hundreds of thousands
of items keeps a stack, not a list of every span.

The recursive ``lru_cache`` functions (``delannoy``, ``stirling2``,
``assoc_stirling2``, ``fibonacci``) are deliberately not wrapped: a
wrapper frame per recursion level would change where ``RecursionError``
strikes.  Their cost lands in ``counting.poly`` and
``counting.sequence_values``.  Per-element functions (``FieldSpec.*_code``,
``StrictUpperMatrix.__getitem__``) are not wrapped either; their call
counts come from the separate profiled pass.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, module, attribute); "Class.method" attributes wrap the method
# on the class.  Generators get one span per resumption and count items.
SPANS = (
    ("gf.field_make", "gf", "field_make"),
    ("linalg.matmul", "linalg", "StrictUpperMatrix.matmul"),
    ("linalg.row_reduce", "linalg", "row_reduce"),
    ("linalg.null_space", "linalg", "null_space"),
    ("linalg.group_inv", "linalg", "group_inv"),
    ("linalg.block_decomposition", "linalg", "block_decomposition"),
    ("linalg.solve_consistent", "linalg", "solve_consistent"),
    ("combinat.enumerate_paths", "combinat", "enumerate_paths"),
    ("combinat.enumerate_partitions", "combinat", "enumerate_partitions"),
    ("combinat.path_to_text", "combinat", "path_to_text"),
    ("counting.poly", "counting", "poly"),
    ("counting.closed_form", "counting", "closed_form"),
    ("counting.sequence_values", "counting", "sequence_values"),
    ("counting.c_invariant_heis_count", "counting", "c_invariant_heis_count"),
    ("bijections.path_to_functional", "bijections", "path_to_functional"),
    ("bijections.functional_to_path", "bijections", "functional_to_path"),
    ("bijections.classify_functional", "bijections", "classify_functional"),
    ("bijections.is_c_invariant_heis_path", "bijections", "is_c_invariant_heis_path"),
    ("bijections.heis_degree_histogram", "bijections", "heis_degree_histogram"),
    ("oracle.ls_chain", "oracle", "ls_chain"),
    ("oracle.xi_stats", "oracle", "xi_stats"),
    ("oracle.count_supercharacter_families", "oracle", "count_supercharacter_families"),
    ("oracle.count_heisenberg_characters", "oracle", "count_heisenberg_characters"),
    ("oracle.count_c_invariant", "oracle", "count_c_invariant"),
    ("oracle.tech_lem1_bruteforce", "oracle", "tech_lem1_bruteforce"),
    ("oracle.conjugacy_classes", "oracle", "conjugacy_classes"),
    ("oracle.orbit", "oracle", "orbit"),
    ("checks.run_check", "checks", "run_check"),
    ("cli.run", "cli", "run"),
)
GENERATORS = {"combinat.enumerate_paths", "combinat.enumerate_partitions"}
# functions whose returned list length is reported as items (check cases)
SIZED = {"checks.run_check"}


class Tracer:
    """A span stack and per-name totals: name -> [calls, self_s, items]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # each open span: [name, start, time covered by its child spans]
        self.stack = [[None, 0.0, 0.0]]
        self.totals: dict[str, list] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def leave(self, calls: int = 1, items: int = 0) -> None:
        end = self.clock()
        name, start, covered = self.stack.pop()
        duration = end - start
        self.stack[-1][2] += duration
        entry = self.totals.setdefault(name, [0, 0.0, 0])
        entry[0] += calls
        entry[1] += duration - covered
        entry[2] += items

    def wrap(self, name: str, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            items = 0
            try:
                result = fn(*args, **kwargs)
                if sized:
                    items = len(result)
                return result
            finally:
                self.leave(items=items)
        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                gen = fn(*args, **kwargs)
            finally:
                self.leave()
            while True:
                self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    self.leave(calls=0)
                    return
                except BaseException:
                    self.leave(calls=0)
                    raise
                self.leave(calls=0, items=1)
                yield item
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every binding of every SPANS function in the loaded heischar
    modules; heischar must already be imported."""
    modules = [m for key, m in sys.modules.items()
               if key == "heischar" or key.startswith("heischar.")]
    for name, module, attr in SPANS:
        owner = sys.modules[f"heischar.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(owner, attr)
        wrapper = (tracer.wrap_generator if name in GENERATORS else tracer.wrap)(
            name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
