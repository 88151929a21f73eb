"""Brute-force orbit/census oracles and their agreement with the formulas."""

import hashlib
import itertools
import random
import sys

import pytest

from heischar import bijections, checks, counting, gf, linalg, oracle
from heischar.bijections import heis_degree_exponent, path_to_functional
from heischar.combinat import enumerate_partitions, enumerate_paths, partition_to_functional
from heischar.errors import SpaceTooLarge, UnknownFamily
from heischar.oracle import (
    XiStats,
    conjugacy_classes,
    count_c_invariant,
    count_heisenberg_characters,
    count_supercharacter_families,
    ls_chain,
    orbit,
    tech_lem1_bruteforce,
    xi_stats,
)

F2 = gf.field_make(2)
F3 = gf.field_make(3)


def all_functionals(n, q):
    field = gf.field_make(q)
    npos = n * (n - 1) // 2
    for codes in itertools.product(range(q), repeat=npos):
        yield linalg.Functional.from_codes(n, field, tuple(codes))


def in_row_space(rows, vec, field):
    if not rows:
        return all(v == 0 for v in vec)
    cols = [list(col) for col in zip(*rows)]
    return linalg.solve_consistent(cols, list(vec), field)


def span_codes(rows, field):
    """All vectors in the row space (the field must be small)."""
    out = set()
    for coeffs in itertools.product(range(field.q), repeat=len(rows)):
        vec = [0] * (len(rows[0]) if rows else 0)
        for c, row in zip(coeffs, rows):
            if c:
                vec = [field.add_code(v, field.mul_code(c, r))
                       for v, r in zip(vec, row)]
        out.add(tuple(vec))
    return out


def translate(lam, t, direction):
    field = lam.field
    codes = tuple(field.add_code(a, field.mul_code(t, b))
                  for a, b in zip(lam.codes, direction.codes))
    return linalg.Functional.from_codes(lam.n, field, codes)


# --------------------------------------------------------------------- orbits
def test_orbit_pinned():
    zero = linalg.Functional.zero(4, F2)
    for mode in oracle.ORBIT_MODES:
        assert orbit(zero, mode) == {zero}
    # second-superdiagonal functional: the two-sided orbit is exactly the
    # set of translates by first-superdiagonal functionals
    lam = linalg.Functional.from_dict(5, F2, {(1, 3): 1, (2, 4): 1, (3, 5): 1})
    two_sided = orbit(lam, "two_sided")
    gam = linalg.gamma(5, F2)
    translates = set()
    for ts in itertools.product(range(2), repeat=4):
        mu = lam
        for i, t in enumerate(ts, start=1):
            if t:
                mu = translate(mu, t, linalg.e_star(5, F2, i, i + 1))
        translates.add(mu)
    assert len(two_sided) == 16
    assert two_sided == translates
    mu = linalg.Functional.from_dict(4, F3, {(1, 3): 1, (2, 4): 2})
    assert len(orbit(mu, "coadjoint")) == 9
    with pytest.raises(UnknownFamily):
        orbit(zero, "diagonal")
    with pytest.raises(SpaceTooLarge):
        orbit(linalg.e_star(3, F2, 1, 3), "coadjoint", limit=1)


def test_orbit_guard_names_what_it_reached():
    # the BFS guard reports the size it reached, a lower bound on the
    # 9-point orbit, and where it ran
    lam = linalg.e_star(4, F3, 1, 3)
    with pytest.raises(SpaceTooLarge) as info:
        orbit(lam, "coadjoint", limit=5)
    assert info.value.bound == 5
    assert info.value.needed == 6
    assert str(info.value).startswith(
        "coadjoint orbit in u_4(F_3)* exceeds the size guard of 5 (needs at least 6)")


def test_orbit_in_a_space_no_bytearray_could_mark():
    # u_8(F_3)* has 3^28 points, but a single orbit marks only the points
    # it reaches: the left orbit of e*_{2,5} is e*_{2,5} + a e*_{3,5} +
    # b e*_{4,5}, since (g^{-1} X)_{25} = X_25 + sum_{k>2} g^{-1}_{2k} X_k5
    lam = linalg.e_star(8, F3, 2, 5)
    assert orbit(lam, "left") == {
        linalg.Functional.from_dict(8, F3, {(2, 5): 1, (3, 5): a, (4, 5): b})
        for a in range(3) for b in range(3)}
    with pytest.raises(SpaceTooLarge, match=r"^left orbit in u_8\(F_3\)\* exceeds the "
                                            r"size guard of 8 \(needs at least 9\)"):
        orbit(lam, "left", limit=8)


def test_orbit_modes_consistency():
    rng = random.Random(7)
    for _ in range(10):
        codes = tuple(rng.randrange(3) for _ in range(6))
        lam = linalg.Functional.from_codes(4, F3, codes)
        left = orbit(lam, "left")
        right = orbit(lam, "right")
        two = orbit(lam, "two_sided")
        co = orbit(lam, "coadjoint")
        assert lam in left and lam in right and lam in two and lam in co
        assert left <= two and right <= two and co <= two
        assert len(left) == len(right)
        # orbit sizes divide the group order and are powers of q
        for size in (len(left), len(two), len(co)):
            while size % 3 == 0:
                size //= 3
            assert size == 1


# ------------------------------------------------------------------ ls chains
def test_ls_chain_pinned():
    zero = ls_chain(linalg.Functional.zero(4, F2))
    assert (zero.l_dims, zero.s_dims) == ((0, 6), (6, 6))
    mid = ls_chain(linalg.Functional.from_dict(4, F3, {(1, 3): 1, (2, 4): 2}))
    assert (mid.l_dims, mid.s_dims) == ((0, 4, 5), (6, 5, 5))
    big = ls_chain(linalg.Functional.from_dict(
        5, F2, {(1, 3): 1, (2, 4): 1, (3, 5): 1}))
    assert (big.l_dims, big.s_dims) == ((0, 7, 8), (10, 9, 8))
    assert len(big.l_bar) == len(big.s_bar) == 8


def test_ls_chain_first_members_brute_force():
    # l^1 = {X : lam(XY) = 0 for all Y}, s^1 = {X : lam(XY) = 0 for Y in l^1},
    # recomputed here by scanning all 2^10 matrices of u_5(F_2)
    lam = linalg.Functional.from_dict(5, F2, {(1, 3): 1, (2, 4): 1, (3, 5): 1})
    chains = ls_chain(lam)
    basis = [linalg.StrictUpperMatrix.basis_element(5, F2, i, j)
             for i, j in linalg.triangle_positions(5)]
    space = [linalg.StrictUpperMatrix(5, F2, codes)
             for codes in itertools.product(range(2), repeat=10)]
    l1 = {x.codes for x in space
          if all(lam.evaluate(x.matmul(y)) == 0 for y in basis)}
    assert l1 == span_codes(chains.l_chain[1], F2)
    l1_mats = [linalg.StrictUpperMatrix(5, F2, codes) for codes in l1]
    s1 = {x.codes for x in space
          if all(lam.evaluate(x.matmul(y)) == 0 for y in l1_mats)}
    assert s1 == span_codes(chains.s_chain[1], F2)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_chain_sweep(n, q):
    field = gf.field_make(q)
    npos = n * (n - 1) // 2
    for lam in all_functionals(n, q):
        chains = ls_chain(lam)
        left = orbit(lam, "left")
        right = orbit(lam, "right")
        two = orbit(lam, "two_sided")
        meet = left & right
        # orbit sizes against chain dimensions
        assert len(left) == q ** (npos - chains.l_dims[1])
        assert len(right) == len(left)
        assert len(meet) == q ** (chains.s_dims[1] - chains.l_dims[1])
        assert len(two) * len(meet) == len(left) * len(right)
        # nesting: l^1 <= ... <= l_bar <= s_bar <= ... <= s^1 <= s^0
        members = list(chains.l_chain) + list(reversed(chains.s_chain))
        for smaller, larger in zip(members, members[1:]):
            for row in smaller:
                assert in_row_space(larger, row, field)
        # every chain member is multiplicatively closed
        for member in chains.l_chain + chains.s_chain:
            for a in member:
                for b in member:
                    prod = linalg.StrictUpperMatrix(n, field, a).matmul(
                        linalg.StrictUpperMatrix(n, field, b)).codes
                    assert in_row_space(member, prod, field)


def test_xi_stats_pinned():
    assert xi_stats(linalg.e_star(3, F2, 1, 3)) == XiStats(1, True, 2, 2)
    assert xi_stats(linalg.Functional.zero(4, F2)) == XiStats(0, True, 6, 6)


def test_xi_degree_matches_path_exponent():
    for path in enumerate_paths("heis_tilde", 5, 2):
        stats = xi_stats(path_to_functional(path))
        assert stats.irreducible
        assert stats.degree_exponent == heis_degree_exponent(path)


# ----------------------------------------------------------- truncated group
def truncate(g):
    """The image of g in U_n / (1 + n^3): its first two superdiagonals."""
    return (tuple(g.entry(i, i + 1) for i in range(1, g.n))
            + tuple(g.entry(i, i + 2) for i in range(1, g.n - 1)))


def test_truncation_is_a_homomorphism():
    # 1 + n^3 is normal, so the first two superdiagonals of a product, an
    # inverse or a conjugate depend only on those of the factors; the
    # conjugacy census of the quotient relies on this
    n, rng = 5, random.Random(31)
    positions = linalg.triangle_positions(n)

    def random_element(far_only=False):
        return linalg.UnitriangularElement.from_above(linalg.StrictUpperMatrix(
            n, F3, tuple(rng.randrange(3) if j - i >= 3 or not far_only else 0
                         for i, j in positions)))

    for _ in range(30):
        g, h = random_element(), random_element()
        g2 = linalg.group_mul(g, random_element(far_only=True))
        h2 = linalg.group_mul(random_element(far_only=True), h)
        assert truncate(g2) == truncate(g) and truncate(h2) == truncate(h)
        assert truncate(linalg.group_mul(g, h)) == truncate(linalg.group_mul(g2, h2))
        assert truncate(linalg.group_inv(g)) == truncate(linalg.group_inv(g2))
        assert (truncate(linalg.group_mul(linalg.group_mul(g, h), linalg.group_inv(g)))
                == truncate(linalg.group_mul(linalg.group_mul(g2, h2), linalg.group_inv(g2))))
        assert linalg.sigma(g) == linalg.sigma(g2)


# ------------------------------------------------------------------ censuses
def test_conjugacy_pinned():
    cases = [
        ("truncated", 3, 2, 5, 8),
        ("truncated", 5, 2, 38, 128),
        ("truncated_alternating", 4, 3, 33, 81),
    ]
    for group, n, q, classes, total in cases:
        census = conjugacy_classes(group, n, q)
        assert len(census.orbits) == classes, (group, n, q)
        assert census.total == total
        assert sum(size for _, size in census.orbits) == total
    for group in ("borel", "unitriangular"):
        with pytest.raises(UnknownFamily):
            conjugacy_classes(group, 3, 2)
    with pytest.raises(SpaceTooLarge):
        conjugacy_classes("truncated", 4, 2, limit=10)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_counts_match_polynomials(n, q):
    x = q - 1
    by_quotient = count_heisenberg_characters(n, q, "quotient_classes")
    by_xi = count_heisenberg_characters(n, q, "xi_census")
    assert by_quotient.count == by_xi.count == counting.poly("he", n)(x)
    assert by_xi.histogram == bijections.heis_degree_histogram(n, q)
    families = count_supercharacter_families(n, q)
    assert families.supercharacters == counting.poly("bell", n)(x)
    assert families.irreducible_supercharacters == counting.poly("cat", n)(x)
    assert families.heisenberg_supercharacters == counting.poly("del", n)(x)


def test_heisenberg_histogram_pinned():
    result = count_heisenberg_characters(4, 2, "xi_census")
    assert result.count == 14
    assert result.histogram == {0: 8, 1: 6}


def test_count_c_invariant_pinned():
    assert count_c_invariant(5, 2, "supercharacters") == 4
    assert count_c_invariant(4, 3, "supercharacters") == 4
    assert count_c_invariant(5, 3, "irreducible_supercharacters") == 8
    assert count_c_invariant(4, 2, "heisenberg_characters") == 2
    assert count_c_invariant(4, 3, "heisenberg_characters") == 6
    assert count_c_invariant(5, 2, "heisenberg_characters") == 2
    with pytest.raises(UnknownFamily):
        count_c_invariant(3, 2, "linear_characters")


def test_census_errors():
    with pytest.raises(UnknownFamily):
        count_heisenberg_characters(3, 2, "character_table")
    with pytest.raises(UnknownFamily):
        count_heisenberg_characters(3, 2, "xi_census", group="alternating")
    with pytest.raises(UnknownFamily):
        count_supercharacter_families(3, 2, group="parabolic")


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_two_sided_translation_stabilizers(n, q):
    # labeled set partitions give one representative per two-sided orbit;
    # the translates lambda + t*gamma meeting the orbit number 1 or q, and
    # the full-stabilizer census recovers the C-invariant count
    gam = linalg.gamma(n, gf.field_make(q))
    fixed = 0
    for part in enumerate_partitions(n, q, "all"):
        lam = partition_to_functional(part)
        orb = orbit(lam, "two_sided")
        stab = sum(1 for t in range(q) if translate(lam, t, gam) in orb)
        assert stab in (1, q)
        fixed += stab == q
    assert fixed == counting.poly("fe", n - 1)(q - 1)
    assert fixed == count_c_invariant(n, q, "supercharacters")


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2)])
def test_coadjoint_translation_stabilizers(n, q):
    gam = linalg.gamma(n, gf.field_make(q))
    fixed = 0
    for path in enumerate_paths("heis_tilde", n, q):
        lam = path_to_functional(path)
        orb = orbit(lam, "coadjoint")
        stab = sum(1 for t in range(q) if translate(lam, t, gam) in orb)
        assert stab in (1, q)
        fixed += stab == q
    assert fixed == counting.poly("inv", n - 1)(q - 1)
    assert fixed == count_c_invariant(n, q, "heisenberg_characters")


@pytest.mark.parametrize("n", range(2, 6))
def test_superdiagonal_translates_meet_orbit_in_power_of_q(n):
    # the coadjoint orbit of a path functional meets its translates by
    # first-superdiagonal functionals in exactly q^(2e) points, e the
    # degree exponent
    for path in enumerate_paths("heis_tilde", n, 2):
        lam = path_to_functional(path)
        orb = orbit(lam, "coadjoint")
        count = 0
        for ts in itertools.product(range(2), repeat=n - 1):
            mu = lam
            for i, t in enumerate(ts, start=1):
                if t:
                    mu = translate(mu, t, linalg.e_star(n, F2, i, i + 1))
            count += mu in orb
        assert count == 2 ** (2 * heis_degree_exponent(path))


# ------------------------------------------------------ alternating subgroup
@pytest.mark.parametrize("n,q,expected", [
    (3, 2, (3, 2, 2, 4)),
    (3, 3, (5, 3, 3, 9)),
    (4, 2, (8, 7, 6, 10)),
])
def test_alternating_censuses(n, q, expected):
    x = q - 1
    families = count_supercharacter_families(n, q, group="alternating")
    heis = count_heisenberg_characters(n, q, "quotient_classes", "alternating")
    got = (families.supercharacters, families.irreducible_supercharacters,
           families.heisenberg_supercharacters, heis.count)
    assert got == expected
    assert got == (counting.poly("alt_bell", n)(x), counting.poly("alt_cat", n)(x),
                   counting.poly("alt_del", n)(x), counting.poly("alt_he", n)(x))
    # restriction bookkeeping: orbits either stay C-invariant or fuse in
    # groups of q, so the subgroup census splits as fixed + (rest / q)
    full = count_supercharacter_families(n, q).supercharacters
    fixed = count_c_invariant(n, q, "supercharacters")
    assert families.supercharacters == fixed + (full - fixed) // q
    assert (full - fixed) % q == 0


def test_size_guard_reports_a_needed_size_past_the_digit_limit():
    # u_200(F_2)* has 2^19900 functionals, a 5991-digit size: the guard
    # still raises SpaceTooLarge with the exact size, under the interpreter's
    # default int-to-str digit limit, and leaves that limit as it found it
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SpaceTooLarge) as info:
            count_supercharacter_families(200, 2)
        assert info.value.needed == 2 ** 19900
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)


def test_tech_lem1_guard_refuses_the_tuples_unbuilt(monkeypatch):
    def refuse(*args):
        raise AssertionError("a label tuple was tried")

    monkeypatch.setattr(oracle, "tangent", refuse)
    with pytest.raises(SpaceTooLarge) as info:
        tech_lem1_bruteforce(5, 9, limit=3000)
    assert (info.value.bound, info.value.needed) == (3000, 8 ** 10)
    assert str(info.value).startswith("label tuples (F_9^x)^10 exceeds the size guard of 3000")


def test_tech_lem1_bruteforce_small():
    assert tech_lem1_bruteforce(1, 2) == 1
    assert tech_lem1_bruteforce(1, 3) == 2
    assert tech_lem1_bruteforce(2, 2) == 0
    for d, q in [(1, 2), (1, 3), (2, 2)]:
        assert tech_lem1_bruteforce(d, q) == counting.tech_lem_count(d, q)


@pytest.mark.parametrize("d,q", [(1, 4), (1, 8), (1, 9), (2, 4)])
def test_tech_lem1_bruteforce_prime_powers(d, q):
    # fields with k > 1, where the generator basis has several elements
    assert tech_lem1_bruteforce(d, q) == counting.tech_lem_count(d, q)


@pytest.mark.slow
@pytest.mark.parametrize("d,q", [(3, 5), (3, 7)])
def test_tech_lem1_bruteforce_frontier(d, q):
    count = tech_lem1_bruteforce(d, q)
    assert count == counting.tech_lem_count(d, q)
    assert (d, q) != (3, 5) or count == 832


# ---------------------------------------------- class-2 orbits as tangent spaces
def kernel_functionals(n, q):
    """Every functional killing n^3: any codes on the first two
    superdiagonals, zero beyond."""
    field = gf.field_make(q)
    positions = linalg.triangle_positions(n)
    near = [a for a, (i, j) in enumerate(positions) if j - i <= 2]
    for values in itertools.product(range(q), repeat=len(near)):
        codes = [0] * len(positions)
        for a, v in zip(near, values):
            codes[a] = v
        yield linalg.Functional.from_codes(n, field, tuple(codes))


@pytest.mark.parametrize("n,q", [(4, 3), (5, 2)])
def test_coadjoint_orbit_is_lambda_plus_tangent_space(n, q):
    field = gf.field_make(q)
    for lam in kernel_functionals(n, q):
        basis = linalg.row_reduce(oracle.tangent(lam), field)
        span = span_codes(basis, field) if basis else {(0,) * len(lam.codes)}
        affine = {tuple(field.add_code(a, t) for a, t in zip(lam.codes, vec)) for vec in span}
        orb = {mu.codes for mu in orbit(lam, "coadjoint")}
        assert len(orb) == q ** len(basis), lam.codes
        assert orb == affine, lam.codes


@pytest.mark.parametrize("d,q", [(1, 2), (1, 3), (1, 4), (1, 9), (2, 3), (2, 4)])
def test_tech_lem1_rank_route_matches_bfs_per_tuple(d, q):
    # gamma in T_lam (one rank test) against lam + gamma in the BFS orbit
    n = 2 * d + 2
    field = gf.field_make(q)
    gam = linalg.gamma(n, field)
    count = 0
    for ts in itertools.product(range(1, q), repeat=2 * d):
        lam = linalg.Functional.from_dict(
            n, field, {(i, i + 2): t for i, t in enumerate(ts, start=1)})
        by_rank = oracle._in_span(oracle.tangent(lam), gam.codes, field)
        assert by_rank == (translate(lam, 1, gam) in orbit(lam, "coadjoint")), ts
        count += by_rank
    assert count == tech_lem1_bruteforce(d, q)


# the default census points of the checks: tech-lem1 sweeps d, not n, and
# poly-forms runs no census
DEFAULT_POINTS = sorted({(n, q) for name, check in checks.CHECKS.items()
                         if name not in ("tech-lem1", "poly-forms")
                         for n in check.sweep[0] for q in check.sweep[1]})


@pytest.mark.parametrize("n,q", DEFAULT_POINTS)
def test_xi_census_orbits_are_irreducible_affine_spaces(n, q):
    # what the census no longer computes: every coadjoint orbit killing
    # n^3 carries an irreducible xi of degree q^e with |O| = q^{2e}, and
    # its C-flag is gamma in T_lam
    field = gf.field_make(q)
    gam = linalg.gamma(n, field).codes
    census = oracle._xi_census(n, q)
    assert sum(size for _, size, _ in census) == q ** (2 * n - 3)
    for codes, size, c_inv in census:
        lam = linalg.Functional.from_codes(n, field, codes)
        stats = xi_stats(lam)
        assert stats.irreducible, codes
        assert size == q ** (2 * stats.degree_exponent), codes
        assert c_inv == oracle._in_span(oracle.tangent(lam), gam, field), codes


@pytest.mark.slow
@pytest.mark.parametrize("n", [8, 9])
def test_c_invariant_heisenberg_characters_frontier(n):
    assert count_c_invariant(n, 2, "heisenberg_characters") == counting.poly("inv", n - 1)(1)


def test_census_caches_are_shared_across_limits():
    # the guard is checked before the cached call, so every limit that
    # admits the whole space reads one census
    oracle._two_sided_census.cache_clear()
    oracle._xi_census.cache_clear()
    first = count_supercharacter_families(4, 2, limit=64)
    assert count_supercharacter_families(4, 2, limit=10 ** 6) == first
    count_c_invariant(4, 2, "supercharacters", limit=100)
    assert oracle._two_sided_census.cache_info()[:2] == (2, 1)
    first = count_heisenberg_characters(4, 2, limit=32)
    assert count_heisenberg_characters(4, 2, limit=1000) == first
    count_c_invariant(4, 2, "heisenberg_characters", limit=40)
    assert oracle._xi_census.cache_info()[:2] == (2, 1)
    # a limit below the whole space still refuses, cached or not
    with pytest.raises(SpaceTooLarge, match=r"^functional space u_4\(F_2\)\* exceeds "
                                            r"the size guard of 63 \(needs 64\)"):
        count_supercharacter_families(4, 2, limit=63)
    with pytest.raises(SpaceTooLarge, match=r"^kernel-restricted u_4\(F_2\)\* exceeds "
                                            r"the size guard of 31 \(needs 32\)"):
        count_heisenberg_characters(4, 2, limit=31)


# sha256 of every census's (least representative, size, flags) at points
# past the brute-force references, recorded before ker(sigma)'s moves were
# composed onto h* inside _moves: a change of move tables must keep every
# representative.  ORBIT_DIGEST continues it over the four orbit modes.
CENSUS_DIGEST = "0b2cadf679dc97fcd4b0a533dfecd16358820fb48fccbb09fa4d6892c5ab9630"
ORBIT_DIGEST = "175aca58ca21f8f0bb5a00a01e03a0b7cd201567fe145760cb13b109dc4b8ccd"


def test_census_representatives_are_pinned():
    digest = hashlib.sha256()
    for group in oracle.GROUPS:
        for n, q in ((6, 2), (5, 3), (4, 4), (3, 8), (3, 9)):
            for o in oracle._two_sided_census(group, n, q):
                digest.update(repr((o.rep, o.size, o.irreducible, o.kills_n3,
                                    o.c_invariant)).encode())
    for n, q in ((7, 2), (5, 3), (4, 4)):
        digest.update(repr(oracle._xi_census(n, q)).encode())
    for group in oracle.CONJUGACY_GROUPS:
        for n, q in ((7, 2), (4, 5)):
            census = conjugacy_classes(group, n, q)
            digest.update(repr([(g.above.codes, size) for g, size in census.orbits]).encode())
    assert digest.hexdigest() == CENSUS_DIGEST
    for n, q in ((5, 2), (4, 3)):
        lam = linalg.Functional.from_dict(n, gf.field_make(q),
                                          {(1, 2): 1, (2, 4): q - 1, (3, n): 1})
        for mode in oracle.ORBIT_MODES:
            digest.update(repr(sorted(mu.codes for mu in orbit(lam, mode))).encode())
    assert digest.hexdigest() == ORBIT_DIGEST
