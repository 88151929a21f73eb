"""The benchmark's workloads: which ops each one runs and how each op's
result is checked.

An op is one ``heischar`` CLI invocation (``cli.run(argv)``) or one
library call, run cold in its own child process (see ``child.py``).  An
op spec is a JSON-able dict: ``{"id", "kind": "cli", "argv"}``,
``{"id", "kind": "cli_batch", "items": [{"argv", "stdout"}, ...]}`` (many
CLI calls in one child, each with the stdout it must print) or
``{"id", "kind": "lib", "fn", "args"}``.

Fixed CLI ops are checked against the exit code and stdout sha256 in
``expected.json``.  Library ops and seeded ops are checked by an
independent route: round trips, ``closed_form`` against ``poly``,
``degree_count`` against the path census, the path degree against
``xi_stats``, and, for sampled ``map`` argv, encodings computed here
from the documented path/functional/partition dictionary.

This module imports nothing from ``heischar`` at import time: run.py
and the child both import it, and the child must reach its
timed ``import heischar`` with the package absent from ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("verify", "formulas", "paths")

# Seed-commit RecursionError ops (deep lru_cache recursion in counting).
# Their expected output comes from an independent route, not a seed run.
KNOWN_SEED_FAILURES = (
    ("poly", "--family", "he", "--n", "330"),
    ("poly", "--family", "bell", "--n", "700"),
)


def _cli(*argv) -> dict:
    return {"id": " ".join(argv), "kind": "cli", "argv": list(argv)}


def _lib(fn: str, **args) -> dict:
    label = ",".join(f"{k}={v}" for k, v in args.items() if k != "items")
    return {"id": f"lib:{fn}({label})", "kind": "lib", "fn": fn, "args": args}


CHECK_NAMES = ("alt-thm", "bell-thm", "c-heis-thm", "c-irr-thm", "deg-cor",
               "del-thm", "fe-thm", "heis-thm", "tech-lem1")

# verify: the oracle workload.  All three census engines (xi / ls_chain,
# sparse BFS, dense alternating) at the default sweeps and at frontier
# points, plus one size-guard op that must exit 3.
VERIFY_OPS = (
    [_cli("verify", name) for name in CHECK_NAMES]
    + [_cli("verify", "heis-thm", "--n", "6", "--q", "2"),
       _cli("verify", "heis-thm", "--n", "5", "--q", "3"),
       _cli("verify", "c-heis-thm", "--n", "6", "--q", "2"),
       _cli("verify", "alt-thm", "--n", "5", "--q", "3"),
       _cli("verify", "bell-thm", "--n", "5", "--q", "3"),
       _cli("verify", "tech-lem1", "--n", "2", "--q", "5"),
       _cli("verify", "bell-thm", "--n", "7", "--q", "3")]
)

# formulas: the counting workload; oracle and linalg do nothing here.
FORMULAS_OPS = (
    [_cli("poly", "--family", f, "--n", "200")
     for f in ("del", "pre_he", "pre_in", "he", "inv", "alt_del", "alt_he")]
    + [_cli("poly", "--family", f, "--n", "400")
       for f in ("bell", "cat", "fe", "alt_bell", "alt_cat")]
    + [_cli("count", "--family", "heis", "--n", "1-200", "--q", "2,3,4,5,7,8,9"),
       _cli("sequences", "--count", "200"),
       _lib("closed_form_vs_poly", n=200),
       _lib("c_invariant_routes", n=20, q=3)]
    + [_cli(*argv) for argv in KNOWN_SEED_FAILURES]
)

# paths: enumeration, bijections and CLI output; many small linalg and
# oracle calls instead of a few large sweeps.
PATHS_FIXED_OPS = [
    _cli("enumerate", "--family", "heis", "--n", "10", "--q", "3"),
    _cli("enumerate", "--family", "pell", "--n", "11", "--q", "3", "--format", "csv"),
    _cli("enumerate", "--family", "noncrossing", "--n", "8", "--q", "3",
         "--format", "json"),
    _lib("round_trip", n=8, q=3),
    _lib("degree_histogram", n=10, q=3),
    _lib("c_invariant_paths", n=8, q=3),
]

XI_SAMPLE = (50, 7, 2)      # paths sampled from heis_tilde(7, 2)
MAP_SAMPLE = 200            # sampled `heischar map` argv
MAP_NS = range(3, 10)
MAP_QS = (2, 3, 4, 5, 7)
MAP_OPS = ("path-to-functional", "functional-to-path", "path-to-partition",
           "partition-to-functional", "classify")


def workload_ops(workload: str, seed: int) -> list[dict]:
    """The workload's op specs in the order the seed gives them.

    verify and formulas are fixed op sets, so the seed only permutes
    them; paths also draws its sampled ops from the seed.
    """
    rng = random.Random(seed)
    if workload == "verify":
        ops = list(VERIFY_OPS)
    elif workload == "formulas":
        ops = list(FORMULAS_OPS)
    elif workload == "paths":
        count, n, q = XI_SAMPLE
        paths = [random_path(rng, n, q) for _ in range(count)]
        ops = PATHS_FIXED_OPS + [
            _lib("xi_sample", n=n, q=q, items=paths),
            {"id": f"map x{MAP_SAMPLE}", "kind": "cli_batch",
             "items": [random_map_argv(rng) for _ in range(MAP_SAMPLE)]},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------- seeded inputs and encodings
# A path is a list of (name, labels) steps; R and U advance the coordinate
# sum by one, N and UU by two, and a step carries as many labels as its
# height.
_ADVANCE = {"R": 1, "U": 1, "N": 2, "UU": 2}
_HEIGHT = {"R": 0, "U": 1, "N": 1, "UU": 2}


def random_path(rng: random.Random, n: int, q: int, pell: bool = False) -> str:
    """Text of a random labelled path to x + y = n - 1 with steps R, N, U
    and (unless pell) UU, not starting with UU: a heis_tilde path, or a
    Pell path when pell is set."""
    names = ("R", "N", "U") if pell else ("R", "N", "U", "UU")
    steps, d = [], 0
    while d < n - 1:
        fits = [s for s in names
                if d + _ADVANCE[s] <= n - 1 and not (s == "UU" and not steps)]
        name = rng.choice(fits)
        steps.append((name, [rng.randrange(1, q) for _ in range(_HEIGHT[name])]))
        d += _ADVANCE[name]
    return path_text(steps)


def path_text(steps) -> str:
    if not steps:
        return "-"
    return " ".join(name if not labels else f"{name}({','.join(map(str, labels))})"
                    for name, labels in steps)


def parse_path(text: str):
    steps = []
    for token in text.split():
        name, _, rest = token.partition("(")
        labels = [int(x) for x in rest.rstrip(")").split(",")] if rest else []
        steps.append((name, labels))
    return steps


def path_entries(text: str) -> dict:
    """{(i, j): code} of the functional of a heis path: the step at
    coordinate sum d, with i = d + 1, gives nothing for R, t at (i, i+1)
    for U(t), t at (i, i+2) for N(t), and t at (i-1, i+1), u at (i, i+2)
    for UU(t, u)."""
    entries, d = {}, 0
    for name, labels in parse_path(text):
        i = d + 1
        if name == "U":
            entries[i, i + 1] = labels[0]
        elif name == "N":
            entries[i, i + 2] = labels[0]
        elif name == "UU":
            entries[i - 1, i + 1] = labels[0]
            entries[i, i + 2] = labels[1]
        d += _ADVANCE[name]
    return entries


def functional_text(n: int, q: int, entries: dict) -> str:
    codes = [entries.get((i, j), 0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return " ".join(map(str, [n, q] + codes))


def pell_arcs(text: str) -> list[tuple[int, int, int]]:
    """Arcs of the partition of a Pell path: U(t) at coordinate sum s
    gives (s+1, s+2, t), N(t) gives (s+1, s+3, t)."""
    arcs, s = [], 0
    for name, labels in parse_path(text):
        if name == "U":
            arcs.append((s + 1, s + 2, labels[0]))
        elif name == "N":
            arcs.append((s + 1, s + 3, labels[0]))
        s += _ADVANCE[name]
    return sorted(arcs)


def partition_text(arcs) -> str:
    return " ".join(f"arc {i}-{j}:{t}" for i, j, t in arcs) if arcs else "(no arcs)"


def path_class(text: str) -> str:
    """class_X exactly when some U step is directly followed by UU (a
    type (c) block with its corner); every other path gives class_Y."""
    names = [name for name, _ in parse_path(text)]
    return "class_X" if any(a == "U" and b == "UU" for a, b in zip(names, names[1:])) \
        else "class_Y"


def random_map_argv(rng: random.Random) -> dict:
    """One sampled ``heischar map`` invocation and the stdout it must print."""
    op = rng.choice(MAP_OPS)
    n, q = rng.choice(MAP_NS), rng.choice(MAP_QS)
    pell = op in ("path-to-partition", "partition-to-functional")
    path = random_path(rng, n, q, pell=pell)
    entries = path_entries(path)
    if op == "path-to-functional":
        argv, out = [op, path, "--q", str(q)], functional_text(n, q, entries)
    elif op == "functional-to-path":
        argv, out = [op, functional_text(n, q, entries)], path
    elif op == "classify":
        argv, out = [op, functional_text(n, q, entries)], path_class(path)
    elif op == "path-to-partition":
        argv, out = [op, path, "--q", str(q)], partition_text(pell_arcs(path))
    else:
        arcs = pell_arcs(path)
        argv = [op, partition_text(arcs), "--n", str(n), "--q", str(q)]
        out = functional_text(n, q, {(i, j): t for i, j, t in arcs})
    return {"argv": ["map"] + argv, "stdout": out + "\n"}


# -------------------------------------------------------------- library ops
def _closed_form_vs_poly(n):
    from heischar import counting
    return [(f, counting.closed_form(f, n), counting.poly(f, n))
            for f in counting.CLOSED_FORM_FAMILIES]


def _c_invariant_routes(n, q):
    from heischar import counting
    return (counting.c_invariant_heis_count(n, q, "compositions"),
            counting.c_invariant_heis_count(n, q, "recurrence"))


def _round_trip(n, q):
    from heischar import bijections, combinat
    bad, classes = 0, {}
    for p in combinat.enumerate_paths("heis_tilde", n, q):
        lam = bijections.path_to_functional(p)
        if bijections.functional_to_path(lam) != p:
            bad += 1
        kind = bijections.classify_functional(lam).classification
        classes[kind] = classes.get(kind, 0) + 1
    return bad, classes


def _degree_histogram(n, q):
    from heischar import bijections, counting
    hist = bijections.heis_degree_histogram(n, q)
    formula = {e: counting.degree_count(n, e, q=q) for e in range(n)}
    return hist, {e: v for e, v in formula.items() if v}


def _c_invariant_paths(n, q):
    from heischar import bijections, combinat, counting
    found = sum(1 for p in combinat.enumerate_paths("heis_tilde", n, q)
                if bijections.is_c_invariant_heis_path(p))
    return found, counting.poly("inv", n - 1)(q - 1)


def _xi_sample(n, q, items):
    from heischar import bijections, combinat, oracle
    out = []
    for text in items:
        p = combinat.path_from_text(text, q)
        stats = oracle.xi_stats(bijections.path_to_functional(p))
        out.append((stats.irreducible, stats.degree_exponent,
                    bijections.heis_degree_exponent(p)))
    return out


LIB_OPS = {
    # name -> (call, check(result, args) -> bool)
    "closed_form_vs_poly": (
        _closed_form_vs_poly,
        lambda r, a: len(r) > 0 and all(c == p for _, c, p in r)),
    "c_invariant_routes": (
        _c_invariant_routes, lambda r, a: r[0] == r[1] and r[0] > 0),
    "round_trip": (
        _round_trip,
        lambda r, a: r[0] == 0 and set(r[1]) <= {"class_X", "class_Y"}
        and sum(r[1].values()) > 0),
    "degree_histogram": (
        _degree_histogram, lambda r, a: r[0] == r[1] and sum(r[0].values()) > 0),
    "c_invariant_paths": (
        _c_invariant_paths, lambda r, a: r[0] == r[1] and r[0] > 0),
    "xi_sample": (
        _xi_sample,
        lambda r, a: len(r) == len(a["items"])
        and all(irr and e == path_e for irr, e, path_e in r)),
}
