"""Brute-force character theory for small unitriangular groups.

Everything here recomputes, from first principles, quantities that the
rest of the package produces by formula or bijection: orbits of
functionals under the one-sided, two-sided and coadjoint actions of
U_n(F_q), the l/s subalgebra chains attached to a functional and the
degree/irreducibility statistics they carry, conjugacy classes of the
quotient of U_n by 1 + n^3, and the analogous censuses for the
alternating subgroup ker(sigma).  The point is independence: these
routines know nothing about counting polynomials or lattice paths, so
agreement with them is evidence, not circularity.

Orbits are computed as breadth-first closures under group generators,
with functionals held as dense tuples of field codes.  Each generator
family runs over an additive F_p-basis of F_q, the codes p^j for j < k,
not over all of F_q^x: a root subgroup {1 + t E : t in F_q} with E^2 = 0
is (F_q, +), so the basis generates the same group and every closure is
unchanged.  Every move has one source: each generator of the group (the
superdiagonal elementaries 1 + t e_{i,i+1} of U_n, or the differences
and higher elementaries that generate ker(sigma)) becomes a sparse move,
a tuple of (destination, source, coefficient) triples read off the
off-diagonal entries of its action matrix, for the left, right and
coadjoint actions on functionals and for conjugation.  ``_moves`` builds
and compiles them once per (group, n, q, action), and one kernel applies
them all.  On h* = n* / F_q gamma, held by the functionals with a zero
(1,2) coordinate, each ker(sigma) move is composed once with
lam -> lam - lam_12 gamma, so the h* moves are linear maps like any
other.  The quotient by 1 + n^3 has no element type of its own:
1 + n^3 is normal, so conjugation there is X -> g X g^{-1} in U_n read
on the first two superdiagonals.  The l/s chains never multiply matrices:
lam(XY) is a bilinear form in X and Y, kept as the sparse list of its
nonzero entries.

Every census labels its whole space in one sweep (``_sweep``): a state's
index is its free coordinates read base q, seeds are taken in index
(= lexicographic) order, so every reported representative is the least
element of its orbit, and a bytearray the size of the guarded space
marks what is visited.  Each move is grouped by destination, so an
image's index is computed from the source codes, and its tuple is built
only when that index is new.  Single orbits (``orbit``, the left and
right orbits behind the irreducibility flag) stay on a set-based BFS.
Where a coadjoint orbit is an affine space lam + T_lam (lam killing
n^3), ``tech_lem1_bruteforce`` tests membership by rank instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

from .errors import SpaceTooLarge, UnknownFamily, space_limit
from .gf import FieldSpec, field_make
from .linalg import (Functional, StrictUpperMatrix, UnitriangularElement,
                     _position_index, gamma, group_inv, null_space, row_reduce,
                     solve_consistent, triangle_positions)

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


# ------------------------------------------------------------ generator moves
def _basis(field: FieldSpec) -> tuple[int, ...]:
    """The additive F_p-basis of F_q that every generator family runs
    over: the codes p^j, j < k, since codes pack coefficients base p."""
    return tuple(field.p ** j for j in range(field.k))


def _generators(group: str, n: int, field: FieldSpec) -> list[UnitriangularElement]:
    """Generators of U_n ("full"): the superdiagonal elementaries
    1 + t e_{i,i+1}; or of H = ker(sigma) ("alternating"): the
    superdiagonal differences 1 + t(e_{i,i+1} - e_{i+1,i+2}) and the
    higher elementaries.  t runs over the F_p-basis: a root subgroup
    1 + F_q E with E^2 = 0 is (F_q, +), so basis t give all of it, and in
    H every difference, since g(a) g(b) = g(a + b) modulo 1 + F_q e_{i,i+2}."""
    basis = _basis(field)
    if group == "full":
        return [UnitriangularElement.elementary(n, field, i, i + 1, t)
                for i in range(1, n) for t in basis]
    gens = []
    for t in basis:
        for i in range(1, n - 1):
            above = StrictUpperMatrix.from_dict(
                n, field, {(i, i + 1): t, (i + 1, i + 2): field.neg_code(t)})
            gens.append(UnitriangularElement.from_above(above))
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                gens.append(UnitriangularElement.elementary(n, field, i, j, t))
    return gens


def _d1_d2(n: int) -> list[tuple[int, int]]:
    """The positions, d1 then d2, that an element of U_n / (1 + n^3) is read on."""
    return [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]


def _element_move(g: UnitriangularElement, mode: str):
    """The move of one group element.

    Each mode is a map X -> P X R with P, R among 1, g and g^{-1}, and
    the (a, b) entry of P e_{ij} R is P[a, i] R[j, b], so no matrix is
    multiplied.  "left", "right" and "coadjoint" act on functionals,
    over the whole triangle:
    (g acting on lam)[d] = sum_s T[d][s] lam[s], where row d of T holds
    the codes of g^{-1} e_d (left), e_d g^{-1} (right) or g^{-1} e_d g
    (coadjoint), as in linalg.act.  "conjugate" acts on matrices modulo
    the ideal n^3, over the d1-then-d2 positions:
    (g X g^{-1})[d] = sum_s T[d][s] X[s], where column s of T holds the
    codes of g e_s g^{-1}.  T is unitriangular, so only its off-diagonal
    entries become triples."""
    ginv, one = group_inv(g), UnitriangularElement.one(g.n, g.field)
    p, r = {"left": (ginv, one), "right": (one, ginv),
            "coadjoint": (ginv, g), "conjugate": (g, ginv)}[mode]
    cells = list(product(range(1, g.n + 1), repeat=2))
    p, r = ({ij: x.entry(*ij) for ij in cells} for x in (p, r))
    mul = g.field.mul_table
    conjugate = mode == "conjugate"
    positions = _d1_d2(g.n) if conjugate else triangle_positions(g.n)
    triples = []
    for d, (a, b) in enumerate(positions):
        for s, (i, j) in enumerate(positions):
            c = mul[p[a, i]][r[j, b]] if conjugate else mul[p[i, a]][r[b, j]]
            if c and d != s:
                triples.append((d, s, c))
    return tuple(triples)


def _compile(move, field: FieldSpec):
    """The move with each coefficient replaced by its row of the field's
    multiplication table, the form _apply takes."""
    mul = field.mul_table
    return tuple((dst, src, mul[c]) for dst, src, c in move)


@lru_cache(maxsize=None)
def _moves(group: str, n: int, q: int, mode: str):
    """The compiled moves of one action ("left", "right", "coadjoint",
    "conjugate") of the generators of one group, one move per generator
    in order; "two_sided" is the left moves followed by the right ones."""
    if mode == "two_sided":
        return _moves(group, n, q, "left") + _moves(group, n, q, "right")
    field = field_make(q)
    return tuple(_compile(_element_move(g, mode), field)
                 for g in _generators(group, n, field))


def _apply(codes: tuple[int, ...], move, add) -> tuple[int, ...]:
    """codes[dst] += coeff * codes[src] for every triple of a compiled
    move, all reading the original codes; a compiled triple holds the
    coefficient's multiplication row, and add is the field's table."""
    out = list(codes)
    for dst, src, row in move:
        s = codes[src]
        if s:
            out[dst] = add[out[dst]][row[s]]
    return tuple(out)


def _bfs(start: tuple[int, ...], step, bound: int, what: str) -> set[tuple[int, ...]]:
    """Closure of start under the moves yielded by step(codes); past the
    guard it reports the size reached, a lower bound on the closure."""
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for codes in frontier:
            for nxt in step(codes):
                if nxt not in seen:
                    if len(seen) >= bound:
                        raise SpaceTooLarge(bound, len(seen) + 1, what, at_least=True)
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return seen


def _stepper(moves, field: FieldSpec):
    """step(codes): the images of codes under every compiled move that
    changes anything."""
    add = field.add_table
    moves = [move for move in moves if move]
    return lambda codes: [_apply(codes, move, add) for move in moves]


def _onto_h(move, gamma_codes, field: FieldSpec):
    """A compiled move on h* = n* / F_q gamma: the move followed by
    lam -> lam - lam_12 gamma, which zeroes the (1,2) coordinate
    (position 0), as one linear map on functionals with lam_12 = 0."""
    coeff: dict[tuple[int, int], int] = {}

    def put(dst, src, c):
        coeff[dst, src] = field.add_code(coeff.get((dst, src), 0), c)

    for dst, src, row in move:
        if not src:
            continue
        c = row[1]
        if dst:
            put(dst, src, c)
        else:
            for a, g in enumerate(gamma_codes):
                if g and a:
                    put(a, src, field.neg_code(field.mul_code(g, c)))
    return _compile([(d, s, c) for (d, s), c in sorted(coeff.items()) if c], field)


@lru_cache(maxsize=None)
def _functional_moves(group: str, n: int, q: int, mode: str):
    """The compiled moves of one action on n* ("full") or on h*, held by
    the members with a zero (1,2) coordinate ("alternating")."""
    moves = _moves(group, n, q, mode)
    if group == "full":
        return moves
    field = field_make(q)
    gamma_codes = gamma(n, field).codes
    return tuple(_onto_h(move, gamma_codes, field) for move in moves)


def _index_moves(moves, weight, live, field: FieldSpec):
    """The moves in the sweep's form, restricted to the live positions:
    per move, the destinations with one source as (dst, src, delta, row),
    delta[old][s] being the change of the index when that source reads s,
    and those with several as (dst, place value, ((src, row), ...))."""
    add, q = field.add_table, field.q
    out = []
    for move in moves:
        by_dst: dict[int, list] = {}
        for dst, src, row in move:
            if dst in live and src in live:
                by_dst.setdefault(dst, []).append((src, row))
        singles, multis = [], []
        for dst, srcs in sorted(by_dst.items()):
            w = weight[dst]
            if len(srcs) == 1:
                (src, row), = srcs
                delta = tuple(tuple((add[old][row[s]] - old) * w for s in range(q))
                              for old in range(q))
                singles.append((dst, src, delta, row))
            else:
                multis.append((dst, w, tuple(srcs)))
        if by_dst:
            out.append((tuple(singles), tuple(multis)))
    return out


def _sweep(npos: int, free, q: int, moves, field: FieldSpec, fill=None):
    """Label a whole space of code tuples by orbits, yielding
    (seed, size, contains) for each orbit.

    The space is every tuple of length npos that is zero off the free
    positions, or, with fill, every tuple whose free coordinates are
    arbitrary and whose other coordinates fill(codes) sets in place from
    them (the moves must then never write those).  A tuple's index is its
    free coordinates read as base-q digits, first free position most
    significant, so seeds taken in index order are taken in lexicographic
    order and each seed is the least element of its orbit.  A bytearray
    of q^len(free) marks holds the visited tuples.  Each move is grouped
    by destination (``_index_moves``), so an image's index comes from the
    source codes, and the image tuple is built only when that index is
    unvisited.  contains(codes) tells whether a tuple of the space lies in
    the orbit just yielded; it holds until the sweep resumes."""
    m = len(free)
    weight = [0] * npos
    for k, a in enumerate(free):
        weight[a] = q ** (m - 1 - k)
    grouped = _index_moves(moves, weight, range(npos) if fill else set(free), field)
    add = field.add_table
    seen = bytearray(q ** m)  # 0 unvisited, 2 in the current orbit, 1 done

    def contains(codes):
        return seen[sum(codes[a] * weight[a] for a in free)] == 2

    seed = seen.find(0)
    while seed >= 0:
        codes, rest = [0] * npos, seed
        for a in reversed(free):
            rest, codes[a] = divmod(rest, q)
        if fill:
            fill(codes)
        states, indices = [tuple(codes)], [seed]
        seen[seed] = 2
        for codes, i in zip(states, indices):
            for singles, multis in grouped:
                j = i
                for dst, src, delta, _ in singles:
                    j += delta[codes[dst]][codes[src]]
                for dst, w, srcs in multis:
                    old = v = codes[dst]
                    for src, row in srcs:
                        s = codes[src]
                        if s:
                            v = add[v][row[s]]
                    j += (v - old) * w
                if not seen[j]:
                    seen[j] = 2
                    out = list(codes)
                    for dst, src, _, row in singles:
                        s = codes[src]
                        if s:
                            out[dst] = add[codes[dst]][row[s]]
                    for dst, _, srcs in multis:
                        v = codes[dst]
                        for src, row in srcs:
                            s = codes[src]
                            if s:
                                v = add[v][row[s]]
                        out[dst] = v
                    states.append(tuple(out))
                    indices.append(j)
        yield states[0], len(states), contains
        for i in indices:
            seen[i] = 1
        seed = seen.find(0, seed + 1)


def orbit(lam: Functional, mode: str, limit: int | None = None) -> set[Functional]:
    """The orbit of a functional under one of the four actions, as the
    breadth-first closure under the superdiagonal generators
    1 + t e_{i,i+1} (left, right, both, or coadjoint) for t in the
    F_p-basis of F_q, which generate U_n as all t in F_q^x do."""
    if mode not in ORBIT_MODES:
        raise UnknownFamily(f"unknown action mode {mode!r}")
    field = lam.field
    moves = _moves("full", lam.n, field.q, mode)
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


def _gram(lam: Functional):
    """The bilinear form lam(XY) = sum_{i<k<j} lam_ij X_ik Y_kj as the
    list of its nonzero entries (pos(i,k), pos(k,j), lam_ij)."""
    idx = _position_index(lam.n)
    return [(idx[i, k], idx[k, j], c)
            for (i, j), c in zip(triangle_positions(lam.n), lam.codes) if c
            for k in range(i + 1, j)]


def ls_chain(lam: Functional) -> ChainResult:
    """Iterate the l/s recursion until both chains stabilize."""
    n, field = lam.n, lam.field
    npos = n * (n - 1) // 2
    gram = _gram(lam)
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


def tangent(lam: Functional) -> tuple[tuple[int, ...], ...]:
    """Spanning vectors of T_lam = {X -> lam([X, A]) : A in n}, one per
    basis element e_a of n whose vector is nonzero: the codes of
    X -> lam([X, e_a]), whose x coordinate is lam([e_x, e_a]).

    The commutators are generic: lam([e_x, e_a]) = lam(e_x e_a) -
    lam(e_a e_x), read off the Gram form of lam(XY), so an entry
    (u, w, c) of it adds c to coordinate u of vector w and subtracts c
    from coordinate w of vector u.  When lam kills n^3, the coadjoint
    orbit of lam is the affine space lam + T_lam: for g = 1 + A, the
    terms of g^{-1} X g beyond X + [X, A] lie in n^3."""
    field = lam.field
    npos = lam.n * (lam.n - 1) // 2
    vectors = [[0] * npos for _ in range(npos)]
    for u, w, c in _gram(lam):
        vectors[w][u] = field.add_code(vectors[w][u], c)
        vectors[u][w] = field.sub_code(vectors[u][w], c)
    return tuple(tuple(v) for v in vectors if any(v))


def _in_span(vectors, target, field: FieldSpec) -> bool:
    """Whether target is a combination of the vectors: one consistency
    test of the system whose columns are the vectors."""
    if not vectors:
        return not any(target)
    return solve_consistent(list(zip(*vectors)), target, field)


# ------------------------------------------------------------------- censuses
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


def _guard(size: int, limit: int | None, what: str) -> None:
    """Refuse a space of the given size past the size guard, before any
    of it is built."""
    bound = space_limit(limit)
    if size > bound:
        raise SpaceTooLarge(bound, size, what)


def _census(group: str, n: int, q: int, limit: int | None) -> tuple[_FunctionalOrbit, ...]:
    """The two-sided census of one group, once its whole space fits."""
    field_make(q)
    npos = n * (n - 1) // 2
    if group == "full":
        _guard(q ** npos, limit, f"functional space u_{n}(F_{q})*")
    else:
        _guard(q ** max(npos - 1, 0), limit, f"h* classes for U_{n}(F_{q})")
    return _two_sided_census(group, n, q)


@lru_cache(maxsize=None)
def _two_sided_census(group: str, n: int, q: int) -> tuple[_FunctionalOrbit, ...]:
    """Two-sided orbits of U_n on n* ("full") or of H = ker(sigma) on h*
    ("alternating"), with per-orbit irreducibility (|G lam ∩ lam G| = 1),
    kernel (lam kills n^3) and C-invariance flags.

    Functionals agree on h = ker(gamma restricted to the superdiagonal
    sum) exactly when they differ by a multiple of gamma, so h* is
    swept as the classes of n* modulo gamma, each held by its member
    with a zero (1,2) coordinate, position 0.  The C-invariance flag is
    left False on h*: C is trivial on h.  The caller has checked that
    the whole space fits the size guard, so no orbit needs one."""
    field = field_make(q)
    npos = n * (n - 1) // 2
    gamma_codes = gamma(n, field).codes
    far = [a for a, (i, j) in enumerate(triangle_positions(n)) if j - i >= 3]
    full = group == "full"
    free = range(npos) if full else range(1, npos)
    bound = q ** len(free)
    kind = f"orbit in u_{n}(F_{q})*" if full else f"H-orbit in u_{n}(F_{q})* mod gamma"
    left, right = (_stepper(_functional_moves(group, n, q, mode), field)
                   for mode in ("left", "right"))
    out = []
    for codes, size, contains in _sweep(npos, free, q,
                                        _functional_moves(group, n, q, "two_sided"), field):
        meet = (_bfs(codes, left, bound, f"left {kind}")
                & _bfs(codes, right, bound, f"right {kind}"))
        c_inv = full and all(contains(_translate(codes, t, gamma_codes, field))
                             for t in range(1, q))
        out.append(_FunctionalOrbit(codes, size, len(meet) == 1,
                                    not any(codes[a] for a in far), c_inv))
    return tuple(out)


def _xi(n: int, q: int, limit: int | None) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
    """The coadjoint census of ann(n^3), once its q^(2n-3) points fit."""
    field_make(q)
    _guard(q ** max(2 * n - 3, 0), limit, f"kernel-restricted u_{n}(F_{q})*")
    return _xi_census(n, q)


@lru_cache(maxsize=None)
def _xi_census(n: int, q: int) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
    """Coadjoint orbits of the functionals killing n^3 (support on the
    first two superdiagonals), as (least member, size, C-flag), the
    C-flag telling whether lam + t gamma lies in the orbit for all t.
    The xi statistics of an orbit are left to the callers that report
    them: every orbit here is an affine space lam + T_lam, and its xi is
    irreducible of degree q^e with |O| = q^{2e}, which the tests check
    with ls_chain at the default sweep points."""
    field = field_make(q)
    npos = n * (n - 1) // 2
    near = [a for a, (i, j) in enumerate(triangle_positions(n)) if j - i <= 2]
    gamma_codes = gamma(n, field).codes
    return tuple(
        (codes, size, all(contains(_translate(codes, t, gamma_codes, field))
                          for t in range(1, q)))
        for codes, size, contains in _sweep(npos, near, q,
                                            _moves("full", n, q, "coadjoint"), field))


def count_supercharacter_families(n: int, q: int, group: str = "full",
                                  limit: int | None = None) -> SupercharacterCounts:
    """Count supercharacters, irreducible supercharacters, and
    Heisenberg (irreducible, killing 1 + n^3) supercharacters of
    U_n(F_q) or of its alternating subgroup ker(sigma), by brute-force
    orbit censuses."""
    if group not in GROUPS:
        raise UnknownFamily(f"unknown group {group!r}")
    census = _census(group, n, q, limit)
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
    is irreducible by their l/s chains, and also reports the
    degree-exponent histogram.
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
    census = _xi(n, q, limit)
    field = field_make(q)
    kept = [stats for stats in (xi_stats(Functional.from_codes(n, field, codes))
                                for codes, _, _ in census)
            if stats.irreducible]
    histogram: dict[int, int] = {}
    for stats in kept:
        histogram[stats.degree_exponent] = histogram.get(stats.degree_exponent, 0) + 1
    return HeisenbergCount(len(kept), dict(sorted(histogram.items())))


def count_c_invariant(n: int, q: int, kind: str, limit: int | None = None) -> int:
    """Count characters of U_n(F_q) of the given kind fixed under
    multiplication by the linear characters theta_{t gamma}.

    Supercharacter kinds apply the two-sided test (lam + t gamma stays
    in the two-sided orbit for every t); heisenberg_characters applies
    the coadjoint test on the orbits of the xi census, all of which
    carry an irreducible xi.
    """
    if kind not in C_INVARIANT_KINDS:
        raise UnknownFamily(f"unknown kind {kind!r}")
    if kind == "heisenberg_characters":
        return sum(1 for _, _, c_inv in _xi(n, q, limit) if c_inv)
    census = _census("full", n, q, limit)
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
    orbit.  That orbit is the affine space lam + T_lam (see tangent), so
    each tuple is one test of gamma in T_lam, and the tuples are
    refused past the size guard before any is tried."""
    n = 2 * d + 2
    field = field_make(q)
    _guard((q - 1) ** (2 * d), limit, f"label tuples (F_{q}^x)^{2 * d}")
    gamma_codes = gamma(n, field).codes
    count = 0
    for ts in product(range(1, q), repeat=2 * d):
        lam = Functional.from_dict(n, field, {(i, i + 2): t for i, t in enumerate(ts, start=1)})
        count += _in_span(tangent(lam), gamma_codes, field)
    return count


# ----------------------------------------------------------- conjugacy classes
CONJUGACY_GROUPS = ("truncated", "truncated_alternating")


def conjugacy_classes(group: str, n: int, q: int,
                      limit: int | None = None) -> OrbitCensus:
    """Conjugacy classes of the quotient of U_n(F_q) by 1 + n^3
    ("truncated") or of the image of ker(sigma) in it
    ("truncated_alternating").

    An element of the quotient is read as its first and second
    superdiagonals, d1 then d2.  1 + n^3 is normal, so conjugation by g
    sends 1 + X to 1 + g X g^{-1} read there, and the classes are
    closures under the generators of U_n (the superdiagonal
    elementaries, over the F_p-basis) or of ker(sigma).  Each class comes as (least member
    in d1-then-d2 order, size); the member is a UnitriangularElement
    that is zero beyond the second superdiagonal."""
    if group not in CONJUGACY_GROUPS:
        raise UnknownFamily(f"unknown group {group!r}")
    field = field_make(q)
    alternating = group == "truncated_alternating"
    near = _d1_d2(n)
    n1 = max(n - 1, 0)
    # in ker(sigma) the last d1 entry is minus the sum of the others
    free = [a for a in range(len(near)) if not (alternating and a == n1 - 1)]
    _guard(q ** len(free), limit, f"{group} group at (n,q)=({n},{q})")

    def fill(codes):
        codes[n1 - 1] = field.neg_code(reduce(field.add_code, codes[:n1 - 1], 0))

    moves = _moves("alternating" if alternating else "full", n, q, "conjugate")
    orbits = tuple(
        (UnitriangularElement.from_above(StrictUpperMatrix.from_dict(n, field, dict(zip(near, codes)))),
         size)
        for codes, size, _ in _sweep(len(near), free, q, moves, field,
                                     fill if alternating and n1 else None))
    return OrbitCensus("conjugacy", orbits, q ** len(free))
