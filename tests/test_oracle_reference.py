"""Per-object cross-checks of the oracle against slow, independent
references: orbits against closures under ``linalg.act``, compiled
generator moves against the group actions they encode, conjugacy classes
against conjugation by every group element, the two-sided census flags
against orbits recomputed from scratch, l/s chains against the
matrix-product route, tangent vectors against matrix commutators, and
the oracle's import closure."""

import ast
import itertools
import random
from pathlib import Path

import pytest

import heischar
from heischar import checks, gf, linalg, oracle
from heischar.linalg import Functional, StrictUpperMatrix, UnitriangularElement


def all_functionals(n, q):
    field = gf.field_make(q)
    for codes in itertools.product(range(q), repeat=n * (n - 1) // 2):
        yield Functional.from_codes(n, field, codes)


def sampled_functionals(n, q, count, seed):
    field = gf.field_make(q)
    rng = random.Random(seed)
    return [Functional.from_codes(n, field, tuple(rng.randrange(q)
                                                  for _ in range(n * (n - 1) // 2)))
            for _ in range(count)]


def superdiagonal_generators(n, field, scalars=None):
    """1 + t e_{i,i+1} for every i and every t in scalars (default: all
    of F_q^x)."""
    scalars = scalars or range(1, field.q)
    return [UnitriangularElement.elementary(n, field, i, i + 1, t)
            for i in range(1, n) for t in scalars]


def kernel_generators(n, field, scalars=None):
    """Generators of ker(sigma) for every t in scalars (default: all of
    F_q^x): the superdiagonal differences 1 + t(e_{i,i+1} - e_{i+1,i+2})
    and the higher elementaries."""
    gens = []
    for t in scalars or range(1, field.q):
        for i in range(1, n - 1):
            gens.append(UnitriangularElement.from_above(StrictUpperMatrix.from_dict(
                n, field, {(i, i + 1): t, (i + 1, i + 2): field.neg_code(t)})))
        gens.extend(UnitriangularElement.elementary(n, field, i, j, t)
                    for i in range(1, n + 1) for j in range(i + 2, n + 1))
    return gens


# ---------------------------------------------------------------- orbits
def act_closure(lam, mode):
    """Closure of lam under linalg.act by the generators 1 + t e_{i,i+1};
    the two-sided orbit is the closure under left and right together."""
    gens = superdiagonal_generators(lam.n, lam.field)
    actions = ("left", "right") if mode == "two_sided" else (mode,)
    seen, frontier = {lam}, [lam]
    while frontier:
        new = []
        for mu in frontier:
            for g in gens:
                for action in actions:
                    nu = linalg.act(action, g, mu)
                    if nu not in seen:
                        seen.add(nu)
                        new.append(nu)
        frontier = new
    return seen


@pytest.mark.parametrize("n,q,sample", [
    (3, 3, None), (4, 2, None), (4, 3, 12), (3, 4, 16), (3, 8, 8), (3, 9, 8), (4, 4, 3),
])
def test_orbits_equal_act_closures(n, q, sample):
    lams = (all_functionals(n, q) if sample is None
            else sampled_functionals(n, q, sample, seed=n * 10 + q))
    for lam in lams:
        for mode in oracle.ORBIT_MODES:
            assert oracle.orbit(lam, mode) == act_closure(lam, mode), (lam.codes, mode)


def check_moves_match_act(group, gens, lams, q):
    # the compiled moves of an action, in order, are linalg.act by the
    # group's generators
    field = gf.field_make(q)
    for mode in ("left", "right", "coadjoint"):
        moves = oracle._moves(group, 4, q, mode)
        for lam in lams:
            got = [oracle._apply(lam.codes, m, field.add_table) for m in moves]
            want = [linalg.act(mode, g, lam).codes for g in gens]
            assert got == want, (group, lam.codes, mode)


@pytest.mark.parametrize("q", [3, 4])
def test_superdiagonal_moves_match_act(q):
    # U_n: 1 + t e_{i,i+1} for t running over the F_p-basis p^j of F_q
    field = gf.field_make(q)
    basis = [field.p ** j for j in range(field.k)]
    check_moves_match_act("full", superdiagonal_generators(4, field, basis),
                          sampled_functionals(4, q, 8, seed=q), q)


@pytest.mark.parametrize("q", [3, 4])
def test_alternating_moves_match_act(q):
    # ker(sigma): its generators for t running over the F_p-basis of F_q
    field = gf.field_make(q)
    basis = [field.p ** j for j in range(field.k)]
    check_moves_match_act("alternating", kernel_generators(4, field, basis),
                          sampled_functionals(4, q, 6, seed=100 + q), q)


@pytest.mark.parametrize("q", [3, 4])
def test_h_star_moves_match_act_modulo_gamma(q):
    # on h*, held by the functionals with a zero (1,2) coordinate, each
    # composed move is linalg.act by a ker(sigma) generator followed by
    # lam -> lam - lam_12 gamma
    field = gf.field_make(q)
    basis = [field.p ** j for j in range(field.k)]
    gens = kernel_generators(4, field, basis)
    gamma = linalg.gamma(4, field).codes

    def canon(mu):
        return translate(mu, field.neg_code(mu[0]), gamma, field)

    lams = [Functional.from_codes(4, field, canon(lam.codes))
            for lam in sampled_functionals(4, q, 6, seed=300 + q)]
    for mode in ("left", "right", "two_sided"):
        moves = oracle._functional_moves("alternating", 4, q, mode)
        actions = ("left", "right") if mode == "two_sided" else (mode,)
        for lam in lams:
            got = [oracle._apply(lam.codes, m, field.add_table) for m in moves]
            want = [canon(linalg.act(action, g, lam).codes) for action in actions for g in gens]
            assert got == want, (lam.codes, mode)


# ---------------------------------------------------- conjugacy classes
def brute_force_classes(elements, conjugate):
    """(least representative, size) of every class, conjugating by every
    element of the group."""
    seen, out = set(), []
    for x in sorted(elements):
        if x not in seen:
            cls = {conjugate(g, x) for g in elements}
            seen |= cls
            out.append((x, len(cls)))
    return out


@pytest.mark.parametrize("group,n,q", [
    ("truncated", 4, 3), ("truncated", 5, 2), ("truncated", 3, 4),
    ("truncated_alternating", 4, 3), ("truncated_alternating", 5, 2),
    ("truncated_alternating", 3, 4),
])
def test_conjugacy_classes_match_full_conjugation(group, n, q):
    # quotient elements are read d1 then d2 and conjugated as full
    # matrices of U_n; the kernel 1 + n^3 never shows in that reading
    field = gf.field_make(q)
    near = [(i, i + 1) for i in range(1, n)] + [(i, i + 2) for i in range(1, n - 1)]

    def wrap(codes):
        return UnitriangularElement.from_above(
            StrictUpperMatrix.from_dict(n, field, dict(zip(near, codes))))

    def truncate(g):
        return tuple(g.entry(i, j) for i, j in near)

    def conjugate(g, x):
        gm = wrap(g)
        return truncate(linalg.group_mul(linalg.group_mul(gm, wrap(x)), linalg.group_inv(gm)))

    elements = [c for c in itertools.product(range(q), repeat=len(near))
                if group == "truncated" or not linalg.sigma(wrap(c))]
    census = oracle.conjugacy_classes(group, n, q)
    assert census.total == len(elements)
    for rep, _ in census.orbits:
        assert rep.above == wrap(truncate(rep)).above
    assert [(truncate(r), size) for r, size in census.orbits] == \
        brute_force_classes(elements, conjugate)


# ---------------------------------------------------------- census flags
def translate(codes, t, direction, field):
    return tuple(field.add_code(a, field.mul_code(t, g)) for a, g in zip(codes, direction))


def h_orbit(n, codes, field, actions):
    """The ker(sigma)-orbit of the class of codes in h* = n* / F_q gamma:
    the closure under linalg.act by the generators of ker(sigma) for
    every t in F_q^x, with each class held by its member whose (1,2)
    coordinate is zero."""
    gamma = linalg.gamma(n, field).codes
    gens = kernel_generators(n, field)
    assert all(linalg.sigma(g) == 0 for g in gens)

    def canon(mu):
        return translate(mu, field.neg_code(mu[0]), gamma, field)

    start = canon(codes)
    seen, frontier = {start}, [start]
    while frontier:
        new = []
        for mu in frontier:
            lam = Functional.from_codes(n, field, mu)
            for g in gens:
                for action in actions:
                    nu = canon(linalg.act(action, g, lam).codes)
                    if nu not in seen:
                        seen.add(nu)
                        new.append(nu)
        frontier = new
    return seen


def assert_orbit_flags(census_orbit, two_sided, left, right, lam, c_invariant):
    # Diaconis-Isaacs: |G lam G| |G lam ∩ lam G| = |G lam| |lam G|
    meet = left & right
    assert census_orbit.rep == min(two_sided)
    assert census_orbit.size == len(two_sided)
    assert len(two_sided) * len(meet) == len(left) * len(right)
    assert census_orbit.irreducible == (len(meet) == 1)
    assert census_orbit.kills_n3 == lam.kills(linalg.ideal_positions(lam.n, 3))
    assert census_orbit.c_invariant == c_invariant


@pytest.mark.parametrize("n,q", [(n, q) for n in (3, 4, 5) for q in (2, 3)])
def test_full_census_flags_match_orbits(n, q):
    field = gf.field_make(q)
    gamma = linalg.gamma(n, field).codes
    census = oracle._two_sided_census("full", n, q)
    assert sum(o.size for o in census) == q ** (n * (n - 1) // 2)
    for o in census:
        lam = Functional.from_codes(n, field, o.rep)
        two_sided, left, right = ({mu.codes for mu in oracle.orbit(lam, mode)}
                                  for mode in ("two_sided", "left", "right"))
        c_invariant = all(translate(o.rep, t, gamma, field) in two_sided for t in range(1, q))
        assert_orbit_flags(o, two_sided, left, right, lam, c_invariant)


@pytest.mark.parametrize("n,q", list(itertools.product(*checks.DEFAULT_SWEEPS["alt-thm"])))
def test_alternating_census_flags_match_orbits(n, q):
    field = gf.field_make(q)
    census = oracle._two_sided_census("alternating", n, q)
    assert sum(o.size for o in census) == q ** (n * (n - 1) // 2 - 1)
    for o in census:
        two_sided, left, right = (h_orbit(n, o.rep, field, actions) for actions in
                                  (("left", "right"), ("left",), ("right",)))
        assert_orbit_flags(o, two_sided, left, right, Functional.from_codes(n, field, o.rep),
                           False)


# ------------------------------------------------------------ l/s chains
def reference_pairing_restrict(lam, s_basis, t_basis):
    """The matrix-product route: build every X Y with matmul and
    evaluate lam on it."""
    n, field = lam.n, lam.field
    if not s_basis:
        return ()
    if not t_basis:
        return s_basis
    constraints = [[lam.evaluate(StrictUpperMatrix(n, field, x).matmul(
                        StrictUpperMatrix(n, field, y))) for x in s_basis]
                   for y in t_basis]
    vectors = []
    for coeffs in linalg.null_space(constraints, field, len(s_basis)):
        vec = [0] * len(s_basis[0])
        for c, x in zip(coeffs, s_basis):
            vec = [field.add_code(v, field.mul_code(c, u)) for v, u in zip(vec, x)]
        vectors.append(vec)
    return tuple(tuple(r) for r in linalg.row_reduce(vectors, field))


def reference_ls_chain(lam):
    npos = lam.n * (lam.n - 1) // 2
    l_chain = [()]
    s_chain = [tuple(tuple(int(a == b) for b in range(npos)) for a in range(npos))]
    while True:
        l_next = reference_pairing_restrict(lam, s_chain[-1], s_chain[-1])
        s_next = reference_pairing_restrict(lam, s_chain[-1], l_next)
        if l_next == l_chain[-1] and s_next == s_chain[-1]:
            return tuple(l_chain), tuple(s_chain)
        l_chain.append(l_next)
        s_chain.append(s_next)


@pytest.mark.parametrize("n,q,sample", [
    (3, 3, None), (4, 2, None), (5, 3, 12), (4, 4, 12), (5, 5, 12),
])
def test_ls_chain_matches_matrix_product_route(n, q, sample):
    lams = (all_functionals(n, q) if sample is None
            else sampled_functionals(n, q, sample, seed=n * 10 + q))
    for lam in lams:
        chains = oracle.ls_chain(lam)
        assert (chains.l_chain, chains.s_chain) == reference_ls_chain(lam), lam.codes


# ------------------------------------------------------- tangent spaces
@pytest.mark.parametrize("n,q", [(4, 3), (5, 2), (4, 4)])
def test_tangent_matches_matrix_commutators(n, q):
    # the vectors X -> lam([X, e_a]), read off the Gram form, against
    # lam(e_x e_a - e_a e_x) built with matmul
    field = gf.field_make(q)
    basis = [StrictUpperMatrix.basis_element(n, field, i, j)
             for i, j in linalg.triangle_positions(n)]
    for lam in sampled_functionals(n, q, 6, seed=200 + n * 10 + q):
        want = []
        for ea in basis:
            vec = tuple(lam.evaluate(ex.matmul(ea).add(ea.matmul(ex).neg())) for ex in basis)
            if any(vec):
                want.append(vec)
        assert oracle.tangent(lam) == tuple(want), lam.codes


# ---------------------------------------------------------- independence
def package_imports(module):
    """Modules of the package that ``heischar.<module>`` reaches through
    its own import statements (including imports inside functions),
    transitively; the package ``__init__`` is not followed."""
    root = Path(heischar.__file__).parent
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("heischar"):
                rest = node.module.split(".")[1:]
                targets = rest[:1] or [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                targets = [a.name.split(".")[1] for a in node.names
                           if a.name.startswith("heischar.")]
            else:
                continue
            todo.extend(t.split(".")[0] for t in targets
                        if (root / f"{t.split('.')[0]}.py").exists())
    return seen


def test_oracle_is_independent_of_the_formulas():
    assert package_imports("oracle").isdisjoint({"counting", "combinat", "bijections"})
    # the walk itself sees through from-imports and package imports
    assert {"counting", "combinat", "bijections", "oracle"} <= package_imports("checks")
