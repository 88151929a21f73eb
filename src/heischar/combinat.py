"""F_q-labeled set partitions and F_q-labeled lattice paths.

A labeled set partition of [n] is determined by its arcs: the covering
pairs (i, j), i < j adjacent in a block, each carrying a nonzero label.
Arc sets are exactly the pair sets with pairwise distinct sources and
pairwise distinct targets, so partitions are stored as sorted arc tuples.

A labeled lattice path starts at the origin and takes steps from a fixed
step alphabet; a step of height dy carries dy nonzero labels.  The five
families used here:

* pell:       steps (1,0), (1,1), (0,1), ending on x + y = n - 1
* heis:       pell steps plus (0,2)
* heis_tilde: heis paths not starting with (0,2)
* inv:        steps (2,1), (1,2), (0,1), ending on x + y = n - 1
* inv_tilde:  nonempty paths with inv steps starting with (0,1) ending on
              x + y = n - 1 or x + y = n - 2

Enumerators yield lazily in a deterministic lexicographic order and check
the expected stream size against a guard before starting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, product, starmap

from . import counting
from .errors import Space, UnknownFamily, guard_space
from .gf import field_make
from .linalg import Functional

# canonical step order; labels per step = its height
STEP_ORDER = ((1, 0), (1, 1), (0, 1), (0, 2), (2, 1), (1, 2))
STEP_NAMES = {(1, 0): "R", (1, 1): "N", (0, 1): "U", (0, 2): "UU",
              (2, 1): "D21", (1, 2): "D12"}
_NAME_STEPS = {v: k for k, v in STEP_NAMES.items()}

PATH_FAMILIES = {
    "pell": ((1, 0), (1, 1), (0, 1)),
    "heis": ((1, 0), (1, 1), (0, 1), (0, 2)),
    "heis_tilde": ((1, 0), (1, 1), (0, 1), (0, 2)),
    "inv": ((2, 1), (1, 2), (0, 1)),
    "inv_tilde": ((2, 1), (1, 2), (0, 1)),
}

PARTITION_FILTERS = ("all", "noncrossing", "feasible", "heis_support")


def _check_labels(q: int, labels) -> None:
    for t in labels:
        # a label is an int code: 2.0 and True are refused, not read as 2 and 1
        if type(t) is not int or not 1 <= t < q:
            raise ValueError(f"label {t} is not a nonzero code of F_{q}")


def _token(entry) -> str:
    """The text token of one labelled step, like "R" or "UU(2,1)"."""
    step, labels = entry
    name = STEP_NAMES[step]
    return name if not labels else f"{name}({','.join(map(str, labels))})"


def _validate_steps(q, steps) -> None:
    """Raise ValueError at the first entry of steps that is not a labelled
    step over F_q."""
    for step, labels in steps:
        if step not in STEP_NAMES:
            raise ValueError(f"unknown step {step}")
        if len(labels) != step[1]:
            raise ValueError(f"step {step} needs {step[1]} labels, got {len(labels)}")
        _check_labels(q, labels)


@dataclass(frozen=True)
class LabeledSetPartition:
    """A set partition of [n] with F_q-labeled arcs.

    ``arcs`` is a sorted tuple of (i, j, label) with i < j, sources
    pairwise distinct, targets pairwise distinct, labels in 1 .. q-1.
    The enumerators build their partitions unchecked from arcs of that
    form by construction (``_unchecked_partition``).
    """

    n: int
    q: int
    arcs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"size {self.n} is negative")
        seen_src, seen_tgt = set(), set()
        for i, j, t in self.arcs:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"arc ({i},{j}) out of range for n={self.n}")
            if i in seen_src or j in seen_tgt:
                raise ValueError(f"({i},{j}): repeated arc source or target")
            seen_src.add(i)
            seen_tgt.add(j)
            _check_labels(self.q, (t,))
        if self.arcs != tuple(sorted(self.arcs)):
            raise ValueError("arcs must be sorted")

    def arc_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j, _ in self.arcs]

    def __str__(self):
        return partition_to_text(self)


def _unchecked_partition(n: int, q: int, arcs: tuple) -> LabeledSetPartition:
    """A partition from valid arcs, built as _unchecked_path builds a path."""
    part = object.__new__(LabeledSetPartition)
    part.__dict__.update(n=n, q=q, arcs=arcs)
    return part


def is_noncrossing(part: LabeledSetPartition) -> bool:
    """True iff no two arcs (i, k), (j, l) satisfy i < j < k < l."""
    pairs = part.arc_pairs()
    for a in range(len(pairs)):
        i, k = pairs[a]
        for b in range(len(pairs)):
            j, l = pairs[b]
            if i < j < k < l:
                return False
    return True


def is_feasible(part: LabeledSetPartition) -> bool:
    """True iff the partition has no singleton blocks."""
    covered = {i for i, _, _ in part.arcs} | {j for _, j, _ in part.arcs}
    return covered == set(range(1, part.n + 1))


def has_heis_support(part: LabeledSetPartition) -> bool:
    """True iff every arc has the form (i, i+1) or (i, i+2)."""
    return all(j - i <= 2 for i, j, _ in part.arcs)


def shift(part: LabeledSetPartition) -> LabeledSetPartition:
    """The arc shift (i, j) -> (i, j+1), labels carried along.

    Maps partitions of [n] to partitions of [n+1]; injective, and its
    image consists of partitions whose arcs all satisfy j > i + 1.
    """
    arcs = tuple(sorted((i, j + 1, t) for i, j, t in part.arcs))
    return LabeledSetPartition(part.n + 1, part.q, arcs)


def partition_to_functional(part: LabeledSetPartition) -> Functional:
    """The functional sum of t * e*_{ij} over the arcs (i, j, t)."""
    return Functional.from_dict(part.n, field_make(part.q),
                                {(i, j): t for i, j, t in part.arcs})


@dataclass(frozen=True)
class LabeledLatticePath:
    """A lattice path with labeled steps.

    ``steps`` is a tuple of ((dx, dy), labels) where labels is a tuple of
    dy nonzero codes of F_q.  ``LabeledLatticePath(q, steps)`` and
    ``path_from_text`` check every entry; the enumerators build their
    paths with ``_unchecked_path`` from entries valid by construction,
    so every path satisfies the same property either way.
    """

    q: int
    steps: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def __post_init__(self):
        _validate_steps(self.q, self.steps)

    @property
    def endpoint(self) -> tuple[int, int]:
        x = sum(s[0] for s, _ in self.steps)
        y = sum(s[1] for s, _ in self.steps)
        return (x, y)

    @property
    def span(self) -> int:
        """x + y of the endpoint; the path ends on the line x + y = span."""
        x, y = self.endpoint
        return x + y

    def __str__(self):
        return path_to_text(self)


def _unchecked_path(q: int, steps: tuple) -> LabeledLatticePath:
    """A path from entries known to be valid, built without running
    _validate_steps.  The fields go straight into the instance dict,
    which is where the frozen dataclass's own __init__ puts them."""
    path = object.__new__(LabeledLatticePath)
    fields = path.__dict__
    fields["q"] = q
    fields["steps"] = steps
    return path


# counting polynomial of each path family's stream size, in x = q - 1
_PATH_POLYS = {"pell": "del", "heis": "pre_he", "heis_tilde": "he",
               "inv": "pre_in", "inv_tilde": "inv"}


def path_space(family: str, n: int, q: int) -> Space:
    """The family's path stream at (n, q): its counting polynomial at q - 1."""
    if family not in PATH_FAMILIES:
        raise UnknownFamily(f"unknown path family {family!r}")
    return Space(counting.poly(_PATH_POLYS[family], n)(q - 1),
                 f"path family {family}({n}, F_{q})")


def partition_floor_space(n: int, q: int) -> Space:
    """The q^(n-1) partitions with arcs (i, i+1) only: a lower bound on
    partition_space, guarded before it is counted."""
    return Space(q ** max(n - 1, 0), f"partitions of [{n}] over F_{q}", at_least=True)


def partition_space(n: int, q: int) -> Space:
    """The labeled set partitions of [n] over F_q, of every filter."""
    return Space(counting.poly("bell", n)(q - 1), f"partitions of [{n}] over F_{q}")


def enumerate_paths(family: str, n: int, q: int, limit: int | None = None):
    """The family's paths for U_n(F_q), yielded lazily in lexicographic order.

    Order: at each position, steps compare by STEP_ORDER and label tuples
    lexicographically.  The family, the field and the expected stream size
    (the family's counting polynomial at x = q-1) against the size guard
    are checked when this is called, before the first path; SpaceTooLarge
    carries the bound.
    """
    make = partial(_unchecked_path, q)
    return chain.from_iterable(map(make, map(prefix.__add__, tails))
                               for prefix, tails in path_blocks(family, n, q, limit))


def enumerate_path_texts(family: str, n: int, q: int, limit: int | None = None):
    """path_to_text of every path of enumerate_paths, in its order and with
    its checks at the call, without building the paths."""
    # only the origin's own block has an empty head: the empty path, "-"
    return chain.from_iterable(map((head[1:] or "-").__add__, tails)
                               for head, tails in path_blocks(family, n, q, limit, text=True))


def path_blocks(family: str, n: int, q: int, limit: int | None = None, *,
                text: bool = False):
    """The family's paths as blocks (prefix, tails), with the checks of
    enumerate_paths at the call.

    A block stands for the paths prefix + tail, tail in tails, in stream
    order.  Prefixes and tails are tuples of entries, or with text=True
    texts: "" or " " followed by the tokens of their entries.  Blocks
    share their tables, which must not be changed.
    """
    if family not in PATH_FAMILIES:
        raise UnknownFamily(f"unknown path family {family!r}")
    field_make(q)  # validates q
    guard_space(path_space(family, n, q), limit)
    return _walk_paths(family, n, q, text)


# most tails a suffix table holds; a coordinate sum with more completions
# is walked one step further as prefixes instead
_TABLE_CAP = 4096


def _walk_paths(family: str, n: int, q: int, text: bool):
    """The blocks of path_blocks, once its checks have passed.

    Each coordinate sum ``total`` has a precomputed list of options
    (total after the entry, piece); no step returns to the origin, so its
    list holds the first step's options, which the tilde families
    restrict.  The suffix table of a total lists its completions in
    stream order: the empty tail when the total lies on a target line,
    then, option by option, the option's piece followed by each tail of
    the total after it.  A piece is (entry,), or with text the entry's
    word " " + token, so one table serves a walk.  Tables are built from
    the target line back toward the origin, for every total with at most
    _TABLE_CAP completions; the prefixes are then walked depth first
    with an explicit stack, each the prefix below it plus the option's
    piece.  A prefix reaching a total with a table is yielded with that
    table as one block.  A prefix on a target line whose total has no
    table is yielded alone, then extended.  The rows pair each step of
    the family with every tuple of labels in 1 .. q-1, so every path is
    a tuple of valid entries.
    """
    if n < 1:
        return
    if family == "inv_tilde":
        targets = {t for t in (n - 1, n - 2) if t >= 1}
    else:
        targets = {n - 1}
    top = max(targets, default=0)
    rows = {step: [(step, labels) for labels in product(range(1, q), repeat=step[1])]
            for step in STEP_ORDER
            if step in PATH_FAMILIES[family] and step[0] + step[1] <= top}
    pieces = {entry: " " + _token(entry) if text else (entry,)
              for row in rows.values() for entry in row}
    empty = "" if text else ()

    def options(total: int, first: bool) -> list:
        out = []
        for step, row in rows.items():
            if first and family == "heis_tilde" and step == (0, 2):
                continue
            if first and family == "inv_tilde" and step != (0, 1):
                continue
            after = total + step[0] + step[1]
            if after <= top:
                out.extend((after, pieces[entry]) for entry in row)
        return out

    later = [options(total, total == 0) for total in range(top + 1)]
    hit = [total in targets for total in range(top + 1)]
    # a total has at least as many completions as every total it reaches,
    # so a total under the cap finds the tables it is built from
    sizes, tables = [0] * (top + 1), [None] * (top + 1)
    for total in range(top, 0, -1):
        sizes[total] = hit[total] + sum(sizes[after] for after, _ in later[total])
        if sizes[total] <= _TABLE_CAP:
            tails = [empty] if hit[total] else []
            for after, piece in later[total]:
                tails.extend(map(piece.__add__, tables[after]))
            tables[total] = tails

    alone = [empty]
    prefixes, stack = [empty], [iter(later[0])]
    if hit[0]:
        yield prefixes[0], alone  # the empty path, for families that allow n = 1
    while stack:
        below = prefixes[-1]
        for total, piece in stack[-1]:
            prefix = below + piece
            if tables[total] is not None:
                yield prefix, tables[total]
                continue
            if hit[total]:
                yield prefix, alone
            prefixes.append(prefix)
            stack.append(iter(later[total]))
            break
        else:
            stack.pop()
            prefixes.pop()


def enumerate_partitions(n: int, q: int, filter: str = "all",
                         limit: int | None = None):
    """Labeled set partitions of [n] over F_q, yielded lazily.

    filter selects "all", "noncrossing", "feasible" or "heis_support"
    (arcs of the form (i, i+1) or (i, i+2) only).  Streams are ordered
    lexicographically by arc position list, then by label vector.  The
    filter, n, the field and the expected stream size against the size
    guard are checked when this is called, before the first partition.
    """
    return (_unchecked_partition(n, q, tuple((i, j, t) for (i, j), t in zip(arcs, labels)))
            for arcs in _walk_partitions(n, q, filter, limit)
            for labels in product(range(1, q), repeat=len(arcs)))


def enumerate_partition_texts(n: int, q: int, filter: str = "all",
                              limit: int | None = None):
    """partition_to_text of every partition of enumerate_partitions, in its
    order and with its checks at the call, without building the partitions."""
    arc_sets = _walk_partitions(n, q, filter, limit)
    labels = list(map(str, range(1, q)))
    return chain.from_iterable(starmap(_arcs_template(arcs).format,
                                       product(labels, repeat=len(arcs)))
                               for arcs in arc_sets)


def _walk_partitions(n: int, q: int, filter: str, limit: int | None):
    """The checks of enumerate_partitions, then the arc sets of its stream,
    each a sorted tuple of pairs (i, j), once and in its order."""
    if filter not in PARTITION_FILTERS:
        raise UnknownFamily(f"unknown partition filter {filter!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    field_make(q)
    guard_space(partition_floor_space(n, q), limit)
    guard_space(partition_space(n, q), limit)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    # the filter's predicate reads the arcs only, so candidates carry label 1
    keep = {"noncrossing": is_noncrossing, "feasible": is_feasible,
            "heis_support": has_heis_support}.get(filter)

    def rec(start, chosen, used_src, used_tgt):
        if keep is None or keep(
                _unchecked_partition(n, q, tuple((i, j, 1) for i, j in chosen))):
            yield tuple(chosen)
        for a in range(start, len(pairs)):
            i, j = pairs[a]
            if i in used_src or j in used_tgt:
                continue
            chosen.append((i, j))
            yield from rec(a + 1, chosen, used_src | {i}, used_tgt | {j})
            chosen.pop()

    return rec(0, [], frozenset(), frozenset())


# -------------------------------------------------------------- serialization
def path_to_text(path: LabeledLatticePath) -> str:
    """Text form like "R N(1) U(2) UU(1,1)"; the empty path is "-"."""
    return " ".join(map(_token, path.steps)) or "-"


_TOKEN = re.compile(r"^([A-Z][A-Z0-9]*)(?:\(([0-9,]+)\))?$")


def path_from_text(text: str, q: int) -> LabeledLatticePath:
    """Inverse of path_to_text; labels are validated against F_q."""
    text = text.strip()
    if text in ("", "-"):
        return LabeledLatticePath(q, ())
    steps = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m or m.group(1) not in _NAME_STEPS:
            raise ValueError(f"cannot parse path token {token!r}")
        step = _NAME_STEPS[m.group(1)]
        labels = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
        steps.append((step, labels))
    return LabeledLatticePath(q, tuple(steps))


def partition_to_text(part: LabeledSetPartition) -> str:
    """Text form like "arc 1-3:1 arc 2-4:2"; no arcs gives "(no arcs)"."""
    return _arcs_template(part.arc_pairs()).format(*(t for _, _, t in part.arcs))


def _arcs_template(pairs) -> str:
    """The text of a partition with arcs at pairs, "{}" in each label's place."""
    return " ".join(f"arc {i}-{j}:{{}}" for i, j in pairs) or "(no arcs)"


def partition_from_text(text: str, n: int, q: int) -> LabeledSetPartition:
    """Inverse of partition_to_text given the ambient n and q."""
    text = text.strip()
    if text in ("", "(no arcs)"):
        return LabeledSetPartition(n, q, ())
    tokens = text.split()
    arcs = []
    for kw, spec in zip(tokens[::2], tokens[1::2]):
        if kw != "arc":
            raise ValueError(f"cannot parse partition text {text!r}")
        pos, _, label = spec.partition(":")
        i, _, j = pos.partition("-")
        try:
            arcs.append((int(i), int(j), int(label)))
        except ValueError:
            raise ValueError(f"cannot parse partition text {text!r}") from None
    if 2 * len(arcs) != len(tokens):
        raise ValueError(f"cannot parse partition text {text!r}")
    return LabeledSetPartition(n, q, tuple(sorted(arcs)))
