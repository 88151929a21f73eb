"""Bijections between block functionals, lattice paths and set partitions.

A functional on u_n is *class X* when every diagonal block of the upper
form of its matrix is one of

* (a) a 1 x 1 block (any value),
* (b) an m x m block, m > 1, with nonzero entries exactly on its
  superdiagonal,
* (c) an m x m block, m > 1 odd, with nonzero entries exactly on its
  superdiagonal and in its (1, 1) corner.

*Class Y* allows types (a) and (b) only.  Class-X functionals index the
characters of U_n(F_q) whose kernel contains 1 + n^3, and they are carried
bijectively onto the labeled lattice paths with steps R, N, U, UU from the
origin to the line x + y = n - 1 whose first step is not UU:

* a type (a) block becomes R when zero and U(t) for value t otherwise,
* a type (b) block with superdiagonal t_1, ..., t_{m-1} becomes
  (R, UU(t_1,t_2), UU(t_3,t_4), ...) for odd m and
  (N(t_1), UU(t_2,t_3), ...) for even m,
* a type (c) block with corner u becomes (U(u), UU(t_1,t_2), ...).

The character attached to a path P has degree q^e where e counts the N
and UU steps of P.  Paths without UU steps (Pell paths) correspond to
set partitions with arcs of the form (i, i+1) or (i, i+2) only, and
these index the irreducible supercharacters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter

from .combinat import PATH_FAMILIES, LabeledLatticePath, LabeledSetPartition, path_blocks
from .errors import NotClassX, NotInFamily
from .gf import FieldSpec, field_make
from .linalg import Functional, block_bounds, block_decomposition, row_starts, solve_consistent

STEP_R = (1, 0)
STEP_N = (1, 1)
STEP_U = (0, 1)
STEP_UU = (0, 2)
HEIS_STEPS = frozenset(PATH_FAMILIES["heis"])
PELL_STEPS = frozenset(PATH_FAMILIES["pell"])

CLASS_X = "class_X"
CLASS_Y = "class_Y"
NEITHER = "neither"


@dataclass(frozen=True)
class ClassXWitness:
    """The block decomposition of a functional with each block's type.

    ``blocks`` are the diagonal blocks of the upper form (tuples of row
    tuples of codes), ``kinds`` holds "a", "b", "c" per block or None
    when the block fits no type, ``offending_block`` is the index of the
    first untyped block.  ``classification`` is "class_Y" when all
    blocks are of types (a)/(b), "class_X" when a type (c) block also
    occurs, and "neither" otherwise.
    """

    classification: str
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    kinds: tuple[str | None, ...]
    offending_block: int | None


def _block_kind(codes, start, a: int, b: int) -> str | None:
    """The type of the block on rows a..b-1, from the codes of those rows,
    which are zero outside it: past size 1, the superdiagonal (each row's
    second code) is nonzero, and besides it only the corner of an odd
    block may be, for type (c)."""
    if b - a == 1:
        return "a"
    if not all([codes[s + 1] for s in start[a:b - 1]]):
        return None
    rows = codes[start[a]:start[b]]
    others = len(rows) - rows.count(0) - (b - a - 1)
    if not others:
        return "b"
    return "c" if others == 1 and codes[start[a]] and (b - a) % 2 else None


def classify_functional(lam: Functional) -> ClassXWitness:
    """Type every block of the upper form of lambda and classify it."""
    codes, start = lam.codes, row_starts(lam.n)
    blocks = tuple(block_decomposition(lam))
    ends = list(accumulate(map(len, blocks), initial=0))
    kinds = tuple([_block_kind(codes, start, a, b) for a, b in zip(ends, ends[1:])])
    offending = kinds.index(None) if None in kinds else None
    if offending is not None:
        classification = NEITHER
    elif "c" in kinds:
        classification = CLASS_X
    else:
        classification = CLASS_Y
    return ClassXWitness(classification, blocks, kinds, offending)


def _check_steps(path: LabeledLatticePath, allowed: frozenset, family: str) -> list:
    """The step kinds of the path, after checking that all of them lie
    in allowed and that the first is not UU; the index of the first
    offending step is looked up only when there is one."""
    kinds = list(map(itemgetter(0), path.steps))
    if not allowed.issuperset(kinds):
        k = next(k for k, step in enumerate(kinds) if step not in allowed)
        raise NotInFamily(f"step {k} is not a {family} step")
    if kinds and kinds[0] == STEP_UU:
        raise NotInFamily(f"a {family} path cannot start with UU")
    return kinds


def path_to_functional(path: LabeledLatticePath) -> Functional:
    """The functional of a path with steps R, N, U, UU not starting in UU.

    The step starting at coordinate sum d, with i = d + 1, contributes
    nothing for R, t e*_{i,i+1} for U(t), t e*_{i,i+2} for N(t) and
    t e*_{i-1,i+1} + u e*_{i,i+2} for UU(t,u).  The result lives on u_n
    for n = span + 1; e*_{i,i+1} and e*_{i,i+2} are the first two codes
    of row d of its upper form.
    """
    kinds = _check_steps(path, HEIS_STEPS, "heis")
    field = field_make(path.q)
    n = sum(map(sum, kinds)) + 1  # the span plus one
    start = row_starts(n)
    codes = [0] * start[-1]
    d = 0
    for step, labels in path.steps:
        if step == STEP_U:
            codes[start[d]] = labels[0]
        elif step == STEP_N:
            codes[start[d] + 1] = labels[0]
        elif step == STEP_UU:
            codes[start[d - 1] + 1] = labels[0]
            codes[start[d] + 1] = labels[1]
        d += step[0] + step[1]
    return Functional.from_codes(n, field, tuple(codes))


def functional_to_path(lam: Functional) -> LabeledLatticePath:
    """The inverse of path_to_functional on class-X functionals: each
    block is typed and read as steps from the first two codes of its rows.

    Raises NotClassX (carrying the block index) when some block of the
    upper form of lambda has no valid type, and ValueError on u_0, which
    no path maps to (the empty path is the path of u_1), or on a label
    that is not a nonzero code of F_q.
    """
    if lam.n < 1:
        raise ValueError(f"no path maps to a functional on u_{lam.n}; n must be >= 1")
    codes, start = lam.codes, row_starts(lam.n)
    steps = []
    for index, (a, b) in enumerate(block_bounds(lam)):
        corner = codes[start[a]]
        kind = _block_kind(codes, start, a, b)
        if kind is None:
            raise NotClassX(index)
        if kind == "a":
            steps.append((STEP_U, (corner,)) if corner else (STEP_R, ()))
            continue
        ts = [codes[s + 1] for s in start[a:b - 1]]
        if kind == "c":
            steps.append((STEP_U, (corner,)))
        else:
            steps.append((STEP_N, (ts.pop(0),)) if len(ts) % 2 else (STEP_R, ()))
        pairs = iter(ts)
        steps += [(STEP_UU, pair) for pair in zip(pairs, pairs)]
    return LabeledLatticePath(lam.field.q, tuple(steps))


def pell_path_to_partition(path: LabeledLatticePath) -> LabeledSetPartition:
    """The set partition of a path with steps R, N, U only.

    The step starting at coordinate sum s contributes no arc for R, the
    arc (s+1, s+2) for U and the arc (s+1, s+3) for N, labels carried
    along.  This is a bijection onto the noncrossing partitions of
    [span + 1] whose arcs all have the form (i, i+1) or (i, i+2); the
    crossing shapes (i, i+2), (i+1, i+3) cannot occur because an N step
    advances the coordinate sum by two.
    """
    _check_steps(path, PELL_STEPS, "pell")
    field_make(path.q)  # validates q
    arcs = []
    s = 0
    for step, labels in path.steps:
        if step == STEP_U:
            arcs.append((s + 1, s + 2, labels[0]))
        elif step == STEP_N:
            arcs.append((s + 1, s + 3, labels[0]))
        s += step[0] + step[1]
    return LabeledSetPartition(path.span + 1, path.q, tuple(sorted(arcs)))


def heis_degree_exponent(path: LabeledLatticePath) -> int:
    """log_q of the degree of the character attached to the path: the
    number of N steps plus the number of UU steps."""
    kinds = _check_steps(path, HEIS_STEPS, "heis")
    return kinds.count(STEP_N) + kinds.count(STEP_UU)


def heis_degree_histogram(n: int, q: int, limit: int | None = None) -> dict[int, int]:
    """How many paths to x + y = n - 1 (no leading UU) have each degree
    exponent; the count at e equals the number of degree-q^e characters
    of U_n(F_q) with kernel containing 1 + n^3.

    R and U advance the coordinate sum by one, N and UU by two, so a
    path's span is its number of steps plus its number of N and UU
    steps: e = span - #steps = n - 1 - #steps for every path counted.
    The paths are read as the blocks of path_blocks, whose checks and
    size guard run here: each block adds the tail lengths of its suffix
    table, counted once per table, shifted by its prefix length."""
    lengths, per_table = Counter(), {}
    for prefix, tails in path_blocks("heis_tilde", n, q, limit):
        # tables are shared between blocks and live as long as the walk
        counts = per_table.get(id(tails))
        if counts is None:
            counts = per_table[id(tails)] = Counter(map(len, tails))
        for k, count in counts.items():
            lengths[len(prefix) + k] += count
    return dict(sorted((n - 1 - k, count) for k, count in lengths.items()))


@lru_cache(maxsize=None)
def _odd_block_translation_solvable(ts: tuple[int, ...], field: FieldSpec) -> bool:
    """Whether an odd block with superdiagonal labels ts absorbs the
    all-ones superdiagonal translation.

    The coadjoint orbit of t_1 e*_{1,3} + ... + t_{m-1} e*_{m-1,m+1} on
    u_{m+1} meets the translate by e*_{1,2} + ... + e*_{m,m+1} exactly
    when M g = (1, ..., 1) is solvable, where M is the m x m tridiagonal
    matrix with subdiagonal t_1, ..., t_{m-1} and superdiagonal
    -t_1, ..., -t_{m-1}.
    """
    m = len(ts) + 1
    rows = []
    for r in range(m):
        row = [0] * m
        if r >= 1:
            row[r - 1] = ts[r - 1]
        if r <= m - 2:
            row[r + 1] = field.neg_code(ts[r])
        rows.append(row)
    return solve_consistent(rows, [1] * m, field)


def is_c_invariant_heis_path(path: LabeledLatticePath) -> bool:
    """Whether the character attached to the path is fixed under
    multiplication by the q linear characters that factor through the
    superdiagonal entry sum.

    Block by block: a 1 x 1 block never absorbs the superdiagonal
    translation, an even block always does, and an odd block does
    exactly when its tridiagonal system is solvable.  The blocks of the
    path's functional are read off the steps (see functional_to_path):
    each is a head step R, U or N followed by a run of UU steps.  R or U
    alone is a 1 x 1 block, a block headed by N is even, and any other
    block is odd with the labels of its UU run as superdiagonal.
    """
    _check_steps(path, HEIS_STEPS, "heis")
    field = field_make(path.q)
    blocks = []  # (head step, labels of the UU run after it)
    for step, labels in path.steps:
        if step == STEP_UU:
            blocks[-1][1].extend(labels)
        else:
            blocks.append((step, []))
    for head, ts in blocks:
        if head == STEP_N:
            continue
        if not ts or not _odd_block_translation_solvable(tuple(ts), field):
            return False
    return True


def is_linear_invariant_heis_path(path: LabeledLatticePath) -> bool:
    """Whether the character attached to the path is fixed under
    multiplication by every one of the q^{n-1} linear characters of the
    group, a strictly stronger condition than is_c_invariant_heis_path.

    This holds exactly when the path uses only N and UU steps.  Both
    step kinds advance the coordinate sum by two, so such paths exist
    only for odd n = 2k + 1, where they number q^{k-1} (q-1)^k.
    """
    _check_steps(path, HEIS_STEPS, "heis")
    return all(step in (STEP_N, STEP_UU) for step, _ in path.steps)


def is_c_invariant_partition(part: LabeledSetPartition) -> bool:
    """Whether the supercharacter of the partition is fixed under
    multiplication by the q linear characters that factor through the
    superdiagonal entry sum: for every j in [n-1] some arc (i, j+1) with
    i < j or some arc (j, k+1) with j < k must be present."""
    pairs = part.arc_pairs()
    for j in range(1, part.n):
        if any(tgt == j + 1 and src < j for src, tgt in pairs):
            continue
        if any(src == j and tgt > j + 1 for src, tgt in pairs):
            continue
        return False
    return True
