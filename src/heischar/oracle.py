"""Brute-force character theory for small unitriangular groups.

Everything here recomputes, from first principles, quantities that the
rest of the package produces by formula or bijection: orbits of
functionals under the one-sided, two-sided and coadjoint actions of
U_n(F_q), the l/s subalgebra chains attached to a functional and the
degree/irreducibility statistics they carry, conjugacy classes of the
group and of its quotient by 1 + n^3, and the analogous censuses for
the alternating subgroup ker(sigma).  The point is independence: these
routines know nothing about counting polynomials or lattice paths, so
agreement with them is evidence, not circularity.

Orbits are computed as breadth-first closures under group generators,
with functionals held as dense tuples of field codes.  Every generator
is compiled once into a sparse move, a tuple of (destination, source,
coefficient) triples, and one kernel applies them all: for the
superdiagonal generators 1 + t e_{i,i+1} of U_n the triples come
straight from the row or column the action touches, and for arbitrary
generators (needed for the alternating subgroup) from the off-diagonal
entries of their action matrices.  The l/s chains never multiply
matrices: lam(XY) is a bilinear form in X and Y, kept as the sparse list
of its nonzero entries.  Censuses sweep seeds in lexicographic order, so
every reported representative is the least element of its orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import SpaceTooLarge, UnknownFamily, space_limit
from .gf import FieldSpec, field_make
from .linalg import (Functional, StrictUpperMatrix, UnitriangularElement,
                     _position_index, gamma, group_inv, group_mul, null_space,
                     row_reduce, triangle_positions)

HEISENBERG_METHODS = ("quotient_classes", "xi_census")
C_INVARIANT_KINDS = ("supercharacters", "irreducible_supercharacters",
                     "heisenberg_supercharacters", "heisenberg_characters")
GROUPS = ("full", "alternating")
ORBIT_MODES = ("left", "right", "two_sided", "coadjoint")


# --------------------------------------------------------------- result types
@dataclass(frozen=True)
class OrbitCensus:
    """All orbits of one action: (least representative, size) pairs and
    the total number of points, which the sizes must sum to."""

    mode: str
    orbits: tuple[tuple[object, int], ...]
    total: int

    def __len__(self):
        return len(self.orbits)

    def sizes(self) -> list[int]:
        return [size for _, size in self.orbits]


@dataclass(frozen=True)
class ChainResult:
    """The l/s subspace chains of a functional.

    l_chain[i] and s_chain[i] are row-reduced bases (tuples of code
    rows over the triangle positions) of l^i and s^i, where l^0 = 0,
    s^0 = n, and

        l^{i+1} = {X in s^i : lam(XY) = 0 for all Y in s^i},
        s^{i+1} = {X in s^i : lam(XY) = 0 for all Y in l^{i+1}}.

    Both chains are recorded up to and including their stable values
    l_bar and s_bar.  The chains are nested: l^1 <= l^2 <= ... <= l_bar
    <= s_bar <= ... <= s^1 <= s^0.
    """

    lam: Functional
    l_chain: tuple[tuple[tuple[int, ...], ...], ...]
    s_chain: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def l_bar(self):
        return self.l_chain[-1]

    @property
    def s_bar(self):
        return self.s_chain[-1]

    @property
    def l_dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.l_chain)

    @property
    def s_dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.s_chain)


@dataclass(frozen=True)
class XiStats:
    """Degree and irreducibility of the character xi attached to a
    coadjoint orbit: degree q^degree_exponent, irreducible iff the
    stable chain members coincide."""

    degree_exponent: int
    irreducible: bool
    l_bar_dim: int
    s_bar_dim: int


@dataclass(frozen=True)
class HeisenbergCount:
    """A Heisenberg character count; histogram maps degree exponents to
    character counts when the method produces one (xi_census)."""

    count: int
    histogram: dict[int, int] | None = None


@dataclass(frozen=True)
class SupercharacterCounts:
    """Censuses of one group's supercharacters: all of them, the
    irreducible ones, and the irreducible ones killing 1 + n^3."""

    supercharacters: int
    irreducible_supercharacters: int
    heisenberg_supercharacters: int


@dataclass(frozen=True)
class TruncatedElement:
    """An element of U_n modulo 1 + n^3, kept as its first and second
    superdiagonals (tuples of field codes of lengths n-1 and n-2).

    The product law follows from multiplying 1 + A and 1 + B and
    discarding everything past the second superdiagonal:

        (a b).d1[i] = a.d1[i] + b.d1[i]
        (a b).d2[i] = a.d2[i] + b.d2[i] + a.d1[i] * b.d1[i+1]
    """

    n: int
    field: FieldSpec
    d1: tuple[int, ...]
    d2: tuple[int, ...]

    def __post_init__(self):
        if len(self.d1) != max(self.n - 1, 0) or len(self.d2) != max(self.n - 2, 0):
            raise ValueError("superdiagonal lengths do not match n")

    @classmethod
    def one(cls, n: int, field: FieldSpec) -> "TruncatedElement":
        return cls(n, field, (0,) * max(n - 1, 0), (0,) * max(n - 2, 0))

    @classmethod
    def from_element(cls, g: UnitriangularElement) -> "TruncatedElement":
        d1 = tuple(g.entry(i, i + 1) for i in range(1, g.n))
        d2 = tuple(g.entry(i, i + 2) for i in range(1, g.n - 1))
        return cls(g.n, g.field, d1, d2)

    def mul(self, other: "TruncatedElement") -> "TruncatedElement":
        f = self.field
        d1 = tuple(f.add_code(a, b) for a, b in zip(self.d1, other.d1))
        d2 = tuple(f.add_code(f.add_code(a, b), f.mul_code(self.d1[i], other.d1[i + 1]))
                   for i, (a, b) in enumerate(zip(self.d2, other.d2)))
        return TruncatedElement(self.n, f, d1, d2)

    def inverse(self) -> "TruncatedElement":
        f = self.field
        d1 = tuple(f.neg_code(a) for a in self.d1)
        d2 = tuple(f.add_code(f.neg_code(a), f.mul_code(self.d1[i], self.d1[i + 1]))
                   for i, a in enumerate(self.d2))
        return TruncatedElement(self.n, f, d1, d2)

    def sigma(self) -> int:
        f = self.field
        acc = 0
        for a in self.d1:
            acc = f.add_code(acc, a)
        return acc


# ------------------------------------------------------------ generator moves
def _sparse_moves(n: int, field: FieldSpec, mode: str):
    """The generator moves of one action, one move per (c, t).

    The left action of 1 + t e_{c,c+1} adds -t times row c to row c+1;
    the right action adds -t times column c+1 to column c; the coadjoint
    move combines the left part (-t) with the right part (+t).  The two
    parts read and write disjoint positions, so applying them against
    the original codes matches the simultaneous action."""
    idx = _position_index(n)
    moves = []
    for c in range(1, n):
        left = [(idx[c + 1, b], idx[c, b]) for b in range(c + 2, n + 1)]
        right = [(idx[a, c], idx[a, c + 1]) for a in range(1, c)]
        for t in range(1, field.q):
            neg = field.neg_code(t)
            lmove = tuple((d, s, neg) for d, s in left)
            if mode in ("left", "two_sided"):
                moves.append(lmove)
            if mode in ("right", "two_sided"):
                moves.append(tuple((d, s, neg) for d, s in right))
            if mode == "coadjoint":
                moves.append(lmove + tuple((d, s, t) for d, s in right))
    return moves


def _element_move(g: UnitriangularElement, mode: str):
    """The move of an arbitrary group element under the left or right
    action: (g acting on lam)[d] = sum_s T[d][s] lam[s], where row d of T
    holds the codes of g^{-1} e_d (left) or e_d g^{-1} (right).  T is
    unitriangular, so only its off-diagonal entries become triples."""
    n, field = g.n, g.field
    ginv = group_inv(g)
    times = ginv.mul_matrix_left if mode == "left" else ginv.mul_matrix_right
    rows = [times(StrictUpperMatrix.basis_element(n, field, i, j)).codes
            for i, j in triangle_positions(n)]
    return tuple((d, s, c) for d, row in enumerate(rows)
                 for s, c in enumerate(row) if c and s != d)


def _apply(codes: tuple[int, ...], move, add, mul) -> tuple[int, ...]:
    """codes[dst] += coeff * codes[src] for every triple of the move, all
    reading the original codes; add and mul are the field's tables."""
    out = list(codes)
    for dst, src, c in move:
        s = codes[src]
        if s:
            out[dst] = add[out[dst]][mul[c][s]]
    return tuple(out)


def _bfs(start: tuple[int, ...], step, bound: int, what: str) -> set[tuple[int, ...]]:
    """Closure of start under the moves yielded by step(codes)."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for codes in frontier:
            for nxt in step(codes):
                if nxt not in seen:
                    if len(seen) >= bound:
                        raise SpaceTooLarge(bound, None, what)
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return seen


def _stepper(moves, field: FieldSpec):
    """step(codes): the images of codes under every move that changes
    anything."""
    add, mul = field.add_table, field.mul_table
    moves = [move for move in moves if move]
    return lambda codes: [_apply(codes, move, add, mul) for move in moves]


def orbit(lam: Functional, mode: str, limit: int | None = None) -> set[Functional]:
    """The orbit of a functional under one of the four actions, as the
    breadth-first closure under the superdiagonal generators
    1 + t e_{i,i+1} (left, right, both, or conjugation-combined)."""
    if mode not in ORBIT_MODES:
        raise UnknownFamily(f"unknown action mode {mode!r}")
    field = lam.field
    moves = _sparse_moves(lam.n, field, mode)
    bound = space_limit(limit)
    seen = _bfs(lam.codes, _stepper(moves, field), bound,
                f"{mode} orbit in u_{lam.n}(F_{field.q})*")
    return {Functional.from_codes(lam.n, field, codes) for codes in seen}


# ------------------------------------------------------------------ ls chains
def _pairing_restrict(gram, field: FieldSpec, s_basis, t_basis):
    """Basis of {X in span(s_basis) : lam(X Y) = 0 for all Y in span(t_basis)}.

    lam(XY) = sum_{i<k<j} lam_ij X_ik Y_kj is a bilinear form in X and
    Y; gram lists its nonzero entries as (pos(i,k), pos(k,j), lam_ij).
    Folding one Y into it gives the vector w_Y with lam(XY) = w_Y . X,
    so each constraint row is a list of dot products, and no matrix
    product is formed."""
    if not s_basis:
        return ()
    if not t_basis:
        return s_basis
    add, mul = field.add_table, field.mul_table
    npos = len(s_basis[0])
    constraints = []
    for y in t_basis:
        w = [0] * npos
        for a, b, c in gram:
            if y[b]:
                w[a] = add[w[a]][mul[c][y[b]]]
        support = [(a, mul[v]) for a, v in enumerate(w) if v]
        if not support:
            continue
        row = []
        for x in s_basis:
            acc = 0
            for a, mv in support:
                acc = add[acc][mv[x[a]]]
            row.append(acc)
        constraints.append(row)
    vectors = []
    for coeffs in null_space(constraints, field, len(s_basis)):
        vec = [0] * npos
        for c, x in zip(coeffs, s_basis):
            if c:
                mc = mul[c]
                vec = [add[v][mc[u]] for v, u in zip(vec, x)]
        vectors.append(vec)
    return tuple(tuple(r) for r in row_reduce(vectors, field))


def ls_chain(lam: Functional) -> ChainResult:
    """Iterate the l/s recursion until both chains stabilize."""
    n, field = lam.n, lam.field
    npos = n * (n - 1) // 2
    idx = _position_index(n)
    gram = [(idx[i, k], idx[k, j], c)
            for (i, j), c in zip(triangle_positions(n), lam.codes) if c
            for k in range(i + 1, j)]
    full = tuple(tuple(1 if a == b else 0 for b in range(npos))
                 for a in range(npos))
    l_chain = [()]
    s_chain = [full]
    while True:
        s_cur = s_chain[-1]
        l_next = _pairing_restrict(gram, field, s_cur, s_cur)
        s_next = _pairing_restrict(gram, field, s_cur, l_next)
        if l_next == l_chain[-1] and s_next == s_chain[-1]:
            break
        l_chain.append(l_next)
        s_chain.append(s_next)
    return ChainResult(lam, tuple(l_chain), tuple(s_chain))


def xi_stats(lam: Functional) -> XiStats:
    """Statistics of the character attached to the coadjoint orbit of
    lambda: degree exponent dim(n) - dim(l_bar), irreducible iff
    l_bar = s_bar."""
    chains = ls_chain(lam)
    npos = lam.n * (lam.n - 1) // 2
    l_dim = len(chains.l_bar)
    s_dim = len(chains.s_bar)
    return XiStats(npos - l_dim, l_dim == s_dim, l_dim, s_dim)


# ------------------------------------------------------------------- censuses
def _kills_n3(codes, n: int) -> bool:
    return all(v == 0 for v, (i, j) in zip(codes, triangle_positions(n))
               if j - i >= 3)


def _translate(codes, t: int, direction, field: FieldSpec) -> tuple[int, ...]:
    return tuple(field.add_code(v, field.mul_code(t, g))
                 for v, g in zip(codes, direction))


@dataclass(frozen=True)
class _FunctionalOrbit:
    rep: tuple[int, ...]
    size: int
    irreducible: bool
    kills_n3: bool
    c_invariant: bool


@lru_cache(maxsize=None)
def _full_census(n: int, q: int, bound: int) -> tuple[_FunctionalOrbit, ...]:
    """Two-sided orbits on n*, swept in lexicographic seed order, with
    per-orbit irreducibility (|Glam ∩ lamG| = 1), kernel and
    C-invariance flags."""
    field = field_make(q)
    npos = n * (n - 1) // 2
    total = q ** npos
    if total > bound:
        raise SpaceTooLarge(bound, total, f"functional space u_{n}(F_{q})*")
    left = _stepper(_sparse_moves(n, field, "left"), field)
    right = _stepper(_sparse_moves(n, field, "right"), field)
    both = _stepper(_sparse_moves(n, field, "two_sided"), field)
    gamma_codes = gamma(n, field).codes

    seen = set()
    out = []
    for codes in product(range(q), repeat=npos):
        if codes in seen:
            continue
        two_sided = _bfs(codes, both, bound, "two-sided orbit")
        seen |= two_sided
        left_orbit = _bfs(codes, left, bound, "left orbit")
        right_orbit = _bfs(codes, right, bound, "right orbit")
        meet = left_orbit & right_orbit
        if len(two_sided) * len(meet) != len(left_orbit) * len(right_orbit):
            raise AssertionError("orbit size identity failed; action bug")
        c_inv = all(_translate(codes, t, gamma_codes, field) in two_sided
                    for t in range(1, q))
        out.append(_FunctionalOrbit(codes, len(two_sided), len(meet) == 1,
                                    _kills_n3(codes, n), c_inv))
    return tuple(out)


@lru_cache(maxsize=None)
def _xi_census(n: int, q: int, bound: int) -> tuple[tuple[tuple[int, ...], int, XiStats, bool], ...]:
    """Coadjoint orbits of the functionals killing n^3 (support on the
    first two superdiagonals), each with its xi statistics and the
    C-invariance flag lam + t gamma in the orbit for all t."""
    field = field_make(q)
    npos = n * (n - 1) // 2
    seeds = q ** max(2 * n - 3, 0)
    if seeds > bound:
        raise SpaceTooLarge(bound, seeds, f"kernel-restricted u_{n}(F_{q})*")
    positions = triangle_positions(n)
    near = [a for a, (i, j) in enumerate(positions) if j - i <= 2]
    moves = _sparse_moves(n, field, "coadjoint")
    step = _stepper(moves, field)
    gamma_codes = gamma(n, field).codes

    seen = set()
    out = []
    for values in product(range(q), repeat=len(near)):
        codes = [0] * npos
        for a, v in zip(near, values):
            codes[a] = v
        codes = tuple(codes)
        if codes in seen:
            continue
        orb = _bfs(codes, step, bound, "coadjoint orbit")
        seen |= orb
        stats = xi_stats(Functional.from_codes(n, field, codes))
        c_inv = all(_translate(codes, t, gamma_codes, field) in orb
                    for t in range(1, q))
        out.append((codes, len(orb), stats, c_inv))
    return tuple(out)


# ------------------------------------------------- alternating subgroup (h*)
def _h_generators(n: int, field: FieldSpec) -> list[UnitriangularElement]:
    """Generators of H = ker(sigma): the superdiagonal differences
    1 + t(e_{i,i+1} - e_{i+1,i+2}) and all higher elementaries."""
    gens = []
    for t in range(1, field.q):
        for i in range(1, n - 1):
            above = StrictUpperMatrix.from_dict(
                n, field, {(i, i + 1): t, (i + 1, i + 2): field.neg_code(t)})
            gens.append(UnitriangularElement.from_above(above))
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                gens.append(UnitriangularElement.elementary(n, field, i, j, t))
    return gens


@lru_cache(maxsize=None)
def _alt_census(n: int, q: int, bound: int) -> tuple[_FunctionalOrbit, ...]:
    """Two-sided H-orbits on h* for H = ker(sigma).

    Functionals agree on h = ker(gamma restricted to the superdiagonal
    sum) exactly when they differ by a multiple of gamma, so h* is
    swept as the classes of n* modulo gamma, canonicalized by zeroing
    the (1,2) coordinate.  The C-invariance flag is left False: C is
    trivial on h."""
    field = field_make(q)
    npos = n * (n - 1) // 2
    classes = q ** max(npos - 1, 0)
    if classes > bound:
        raise SpaceTooLarge(bound, classes, f"h* classes for U_{n}(F_{q})")
    positions = triangle_positions(n)
    idx12 = positions.index((1, 2)) if n >= 2 else None
    add, mul = field.add_table, field.mul_table
    # subtracting codes[idx12] times gamma zeroes the (1,2) coordinate
    canon_move = tuple((a, idx12, field.neg_code(1))
                       for a, g in enumerate(gamma(n, field).codes) if g)

    def canon(codes):
        return _apply(codes, canon_move, add, mul) if codes[idx12] else codes

    gens = _h_generators(n, field)
    left_moves = [_element_move(g, "left") for g in gens]
    right_moves = [_element_move(g, "right") for g in gens]

    def stepper(moves):
        step = _stepper(moves, field)
        return lambda codes: map(canon, step(codes))

    left, right = stepper(left_moves), stepper(right_moves)
    both = stepper(left_moves + right_moves)

    free = [a for a in range(npos) if a != idx12]
    seen = set()
    out = []
    for values in product(range(q), repeat=len(free)):
        codes = [0] * npos
        for a, v in zip(free, values):
            codes[a] = v
        codes = tuple(codes)
        if codes in seen:
            continue
        two_sided = _bfs(codes, both, bound, "two-sided H-orbit")
        seen |= two_sided
        left_orbit = _bfs(codes, left, bound, "left H-orbit")
        right_orbit = _bfs(codes, right, bound, "right H-orbit")
        meet = left_orbit & right_orbit
        out.append(_FunctionalOrbit(codes, len(two_sided), len(meet) == 1,
                                    _kills_n3(codes, n), False))
    return tuple(out)


def count_supercharacter_families(n: int, q: int, group: str = "full",
                                  limit: int | None = None) -> SupercharacterCounts:
    """Count supercharacters, irreducible supercharacters, and
    Heisenberg (irreducible, killing 1 + n^3) supercharacters of
    U_n(F_q) or of its alternating subgroup ker(sigma), by brute-force
    orbit censuses."""
    if group not in GROUPS:
        raise UnknownFamily(f"unknown group {group!r}")
    bound = space_limit(limit)
    census = _full_census(n, q, bound) if group == "full" else _alt_census(n, q, bound)
    irr = [o for o in census if o.irreducible]
    return SupercharacterCounts(
        supercharacters=len(census),
        irreducible_supercharacters=len(irr),
        heisenberg_supercharacters=sum(1 for o in irr if o.kills_n3))


def count_heisenberg_characters(n: int, q: int, method: str = "xi_census",
                                group: str = "full",
                                limit: int | None = None) -> HeisenbergCount:
    """Count Heisenberg characters (irreducible characters whose kernel
    contains 1 + n^3) by one of two independent routes.

    quotient_classes counts conjugacy classes of the group modulo
    1 + n^3 (for the alternating subgroup: of its image in the
    quotient).  xi_census, available for the full group, enumerates the
    coadjoint orbits of functionals killing n^3, keeps those whose xi
    is irreducible, and also reports the degree-exponent histogram.
    """
    if method not in HEISENBERG_METHODS:
        raise UnknownFamily(f"unknown method {method!r}")
    if group not in GROUPS:
        raise UnknownFamily(f"unknown group {group!r}")
    if method == "quotient_classes":
        name = "truncated" if group == "full" else "truncated_alternating"
        census = conjugacy_classes(name, n, q, limit)
        return HeisenbergCount(len(census.orbits))
    if group != "full":
        raise UnknownFamily("xi_census covers the full group only; use "
                            "quotient_classes for the alternating subgroup")
    bound = space_limit(limit)
    kept = [(codes, stats) for codes, _, stats, _ in _xi_census(n, q, bound)
            if stats.irreducible]
    histogram: dict[int, int] = {}
    for _, stats in kept:
        histogram[stats.degree_exponent] = histogram.get(stats.degree_exponent, 0) + 1
    return HeisenbergCount(len(kept), dict(sorted(histogram.items())))


def count_c_invariant(n: int, q: int, kind: str, limit: int | None = None) -> int:
    """Count characters of U_n(F_q) of the given kind fixed under
    multiplication by the linear characters theta_{t gamma}.

    Supercharacter kinds apply the two-sided test (lam + t gamma stays
    in the two-sided orbit for every t); heisenberg_characters applies
    the coadjoint test on the orbits of the xi census.
    """
    if kind not in C_INVARIANT_KINDS:
        raise UnknownFamily(f"unknown kind {kind!r}")
    bound = space_limit(limit)
    if kind == "heisenberg_characters":
        return sum(1 for _, _, stats, c_inv in _xi_census(n, q, bound)
                   if stats.irreducible and c_inv)
    census = _full_census(n, q, bound)
    if kind == "supercharacters":
        return sum(1 for o in census if o.c_invariant)
    if kind == "irreducible_supercharacters":
        return sum(1 for o in census if o.irreducible and o.c_invariant)
    return sum(1 for o in census
               if o.irreducible and o.kills_n3 and o.c_invariant)


def tech_lem1_bruteforce(d: int, q: int, limit: int | None = None) -> int:
    """Count label tuples t in (F_q^x)^{2d} such that the second-
    superdiagonal functional sum t_i e*_{i,i+2} on u_{2d+2}, translated
    by the full superdiagonal sum gamma, stays in its own coadjoint
    orbit."""
    n = 2 * d + 2
    field = field_make(q)
    bound = space_limit(limit)
    moves = _sparse_moves(n, field, "coadjoint")
    step = _stepper(moves, field)
    gamma_codes = gamma(n, field).codes
    idx = _position_index(n)
    count = 0
    for ts in product(range(1, q), repeat=2 * d):
        codes = [0] * len(idx)
        for i, t in enumerate(ts, start=1):
            codes[idx[i, i + 2]] = t
        codes = tuple(codes)
        orb = _bfs(codes, step, bound, "coadjoint orbit")
        if _translate(codes, 1, gamma_codes, field) in orb:
            count += 1
    return count


# ----------------------------------------------------------- conjugacy classes
CONJUGACY_GROUPS = ("unitriangular", "truncated", "truncated_alternating")


def _truncated_generators(n: int, field: FieldSpec, alternating: bool):
    gens = []
    zero1 = (0,) * max(n - 1, 0)
    zero2 = (0,) * max(n - 2, 0)
    for t in range(1, field.q):
        if not alternating:
            for i in range(n - 1):
                d1 = list(zero1)
                d1[i] = t
                gens.append(TruncatedElement(n, field, tuple(d1), zero2))
        else:
            for i in range(n - 2):
                d1 = list(zero1)
                d1[i] = t
                d1[i + 1] = field.neg_code(t)
                gens.append(TruncatedElement(n, field, tuple(d1), zero2))
        for i in range(n - 2):
            d2 = list(zero2)
            d2[i] = t
            gens.append(TruncatedElement(n, field, zero1, tuple(d2)))
    return gens


def conjugacy_classes(group: str, n: int, q: int,
                      limit: int | None = None) -> OrbitCensus:
    """Conjugacy classes of U_n(F_q), of its quotient by 1 + n^3
    ("truncated"), or of the sigma-kernel inside that quotient
    ("truncated_alternating"), by conjugation closure under the group's
    generators.  Class representatives are lexicographically least."""
    if group not in CONJUGACY_GROUPS:
        raise UnknownFamily(f"unknown group {group!r}")
    field = field_make(q)
    bound = space_limit(limit)

    if group == "unitriangular":
        npos = n * (n - 1) // 2
        total = q ** npos
        if total > bound:
            raise SpaceTooLarge(bound, total, f"U_{n}(F_{q})")
        gens = [UnitriangularElement.elementary(n, field, i, i + 1, t)
                for i in range(1, n) for t in range(1, q)]

        def wrap(codes):
            return UnitriangularElement.from_above(StrictUpperMatrix(n, field, codes))

        def conjugate(g, codes):
            return group_mul(group_mul(g, wrap(codes)), group_inv(g)).above.codes

        elements = product(range(q), repeat=npos)
    else:
        alternating = group == "truncated_alternating"
        n1, n2 = max(n - 1, 0), max(n - 2, 0)
        npos = n1 + n2
        total = q ** (npos - (1 if alternating and n1 else 0))
        if total > bound:
            raise SpaceTooLarge(bound, total, f"{group} group at (n,q)=({n},{q})")
        gens = _truncated_generators(n, field, alternating)

        def wrap(codes):
            return TruncatedElement(n, field, codes[:n1], codes[n1:])

        def conjugate(g, codes):
            y = g.mul(wrap(codes)).mul(g.inverse())
            return y.d1 + y.d2

        def element_iter():
            for d1 in product(range(q), repeat=n1):
                if alternating:
                    acc = 0
                    for a in d1:
                        acc = field.add_code(acc, a)
                    if acc:
                        continue
                for d2 in product(range(q), repeat=n2):
                    yield d1 + d2

        elements = element_iter()

    # on x = 1 + X, conjugation by g is X -> g X g^{-1}: linear in X and
    # unitriangular, with column s of its matrix the conjugate of e_s
    units = [tuple(int(a == s) for a in range(npos)) for s in range(npos)]
    moves = [tuple((d, s, c) for s, e in enumerate(units)
                   for d, c in enumerate(conjugate(g, e)) if c and d != s)
             for g in gens]
    step = _stepper(moves, field)

    seen = set()
    orbits = []
    count = 0
    for codes in elements:
        codes = tuple(codes)
        count += 1
        if codes in seen:
            continue
        cls = _bfs(codes, step, bound, f"conjugacy class in {group}")
        seen |= cls
        orbits.append((wrap(codes), len(cls)))
    return OrbitCensus("conjugacy", tuple(orbits), count)
