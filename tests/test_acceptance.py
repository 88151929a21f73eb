"""Acceptance gate: one test per advertised guarantee, all exact.

Each test prints a single PASS line on success (visible with -s or in
the captured-output section); any mismatch fails the assertion with the
offending case in the message.  Everything here is integer arithmetic,
zero tolerance.
"""

import itertools

from heischar import bijections, checks, counting, gf, linalg, oracle
from heischar.bijections import (
    CLASS_X,
    CLASS_Y,
    classify_functional,
    functional_to_path,
    heis_degree_exponent,
    path_to_functional,
    pell_path_to_partition,
)
from heischar.combinat import (
    enumerate_partitions,
    enumerate_paths,
    is_noncrossing,
    partition_to_functional,
)
from heischar.counting import poly

ORACLE_PAIRS = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2))


def all_functionals(n, q):
    field = gf.field_make(q)
    npos = n * (n - 1) // 2
    for codes in itertools.product(range(q), repeat=npos):
        yield linalg.Functional.from_codes(n, field, tuple(codes))


def assert_all_passed(cases):
    failed = [c for c in cases if not c.passed]
    assert not failed, failed
    assert cases


def in_row_space(rows, vec, field):
    if not rows:
        return all(v == 0 for v in vec)
    cols = [list(col) for col in zip(*rows)]
    return linalg.solve_consistent(cols, list(vec), field)


def translate(lam, t, direction):
    field = lam.field
    codes = tuple(field.add_code(a, field.mul_code(t, b))
                  for a, b in zip(lam.codes, direction.codes))
    return linalg.Functional.from_codes(lam.n, field, codes)


def test_criterion_1_sequence_reproduction():
    assert [poly("he", n)(1) for n in range(1, 8)] == [1, 2, 5, 14, 38, 104, 284]
    assert [poly("del", n)(1) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]
    assert [poly("del", n)(2) for n in range(7)] == [0, 1, 3, 11, 39, 139, 495]
    assert [poly("fe", n)(1) for n in range(7)] == [1, 0, 1, 1, 4, 11, 41]
    dp = [counting.delannoy("Dp", 1, n) for n in range(7)]
    assert dp == [1, 3, 7, 15, 30, 58, 109]
    diffs = [counting.delannoy("Dp", 1, n) - counting.delannoy("Dp", 1, n - 2)
             for n in range(7)]
    assert diffs == [1, 3, 6, 12, 23, 43, 79]
    assert [poly("alt_cat", n)(1) for n in range(2, 9)] == [1, 2, 7, 20, 66, 212, 715]
    assert [poly("alt_del", n)(1) for n in range(1, 8)] == [0, 1, 2, 6, 14, 35, 84]
    even = [poly("alt_bell", n)(1) - poly("bell", n - 1)(1) for n in range(2, 9)]
    odd = [poly("bell", n)(1) - poly("alt_bell", n)(1) for n in range(2, 9)]
    assert even == [0, 1, 3, 13, 55, 256, 1274]
    assert odd == [1, 2, 7, 24, 96, 418, 1989]
    print("PASS: criterion 1 — named sequence values reproduced exactly")


def test_criterion_2_enumeration_matches_polynomials():
    path_families = {"pell": "del", "heis": "pre_he", "heis_tilde": "he",
                     "inv": "pre_in", "inv_tilde": "inv"}
    filters = {"all": "bell", "noncrossing": "cat", "feasible": "fe"}
    for q in (2, 3, 4):
        x = q - 1
        for family, pfam in path_families.items():
            for n in range(8):
                count = sum(1 for _ in enumerate_paths(family, n, q))
                assert count == poly(pfam, n)(x), (family, n, q)
        for filt, pfam in filters.items():
            for n in range(7):
                count = sum(1 for _ in enumerate_partitions(n, q, filt))
                assert count == poly(pfam, n)(x), (filt, n, q)
    print("PASS: criterion 2 — stream cardinalities equal polynomials, "
          "paths n<=7 / partitions n<=6, q in {2,3,4}")


def test_criterion_3_bijection_round_trips():
    for q in (2, 3):
        for n in range(1, 6):
            paths = list(enumerate_paths("heis_tilde", n, q))
            image = set()
            for path in paths:
                lam = path_to_functional(path)
                assert functional_to_path(lam) == path, path
                image.add(lam.codes)
            assert len(image) == len(paths)
            classified = set()
            for lam in all_functionals(n, q):
                if classify_functional(lam).classification in (CLASS_X, CLASS_Y):
                    classified.add(lam.codes)
                    assert path_to_functional(functional_to_path(lam)) == lam
            assert image == classified, (n, q)
            seen = set()
            for path in enumerate_paths("pell", n, q):
                part = pell_path_to_partition(path)
                assert is_noncrossing(part)
                assert all(j - i <= 2 for i, j in part.arc_pairs())
                assert partition_to_functional(part) == path_to_functional(path)
                seen.add(part.arcs)
            assert len(seen) == poly("del", n)(q - 1)
    print("PASS: criterion 3 — round trips both ways on n<=5, q in {2,3}; "
          "Pell paths land on noncrossing short-arc partitions")


def test_criterion_4_oracle_counts_match_theorems():
    expected = {
        # (n, q): (heisenberg chars, heis supers, supers, irreducible supers)
        (3, 2): (5, 5, 5, 5),
        (3, 3): (11, 11, 11, 11),
        (4, 2): (14, 12, 15, 14),
        (4, 3): (51, 39, 49, 45),
        (5, 2): (38, 29, 52, 42),
    }
    for (n, q), (he, dl, bell, cat) in expected.items():
        x = q - 1
        quotient = oracle.count_heisenberg_characters(n, q, "quotient_classes")
        xi = oracle.count_heisenberg_characters(n, q, "xi_census")
        assert quotient.count == xi.count == he == poly("he", n)(x), (n, q)
        fam = oracle.count_supercharacter_families(n, q)
        assert fam.heisenberg_supercharacters == dl == poly("del", n)(x), (n, q)
        assert fam.supercharacters == bell == poly("bell", n)(x), (n, q)
        assert fam.irreducible_supercharacters == cat == poly("cat", n)(x), (n, q)
    print("PASS: criterion 4 — brute-force censuses equal He/Del/Bell/Cat "
          "at (3,2),(3,3),(4,2),(4,3),(5,2)")


def test_criterion_5_degree_distribution():
    assert_all_passed(checks.run_check("deg-cor", (2, 3, 4, 5), (2, 3)))
    frozen = {
        (2, 2): {0: 2}, (2, 3): {0: 3},
        (3, 2): {0: 4, 1: 1}, (3, 3): {0: 9, 1: 2},
        (4, 2): {0: 8, 1: 6}, (4, 3): {0: 27, 1: 24},
        (5, 2): {0: 16, 1: 20, 2: 2}, (5, 3): {0: 81, 1: 126, 2: 12},
    }
    for (n, q), hist in frozen.items():
        assert bijections.heis_degree_histogram(n, q) == hist, (n, q)
    for n in range(1, 11):
        assert poly("he", n + 1).leading == counting.fibonacci(n), n
    print("PASS: criterion 5 — degree histograms agree three ways for "
          "n<=5, q in {2,3}; leading coefficients are Fibonacci for n<=10")


def test_criterion_6_c_invariance_suite():
    assert_all_passed(checks.run_check("fe-thm", (2, 3, 4, 5), (2, 3)))
    assert_all_passed(checks.run_check("c-irr-thm", (2, 3, 4, 5), (2, 3)))
    assert_all_passed(checks.run_check("c-heis-thm", (3, 4, 5), (2, 3)))
    for q in (2, 3, 4, 5):
        for n in range(1, 11):
            values = {counting.c_invariant_heis_count(n, q, m)
                      for m in ("compositions", "recurrence")}
            assert values == {poly("inv", n)(q - 1)}, (n, q)
    print("PASS: criterion 6 — C-invariant counts (Fe, c-irr closed forms, "
          "In three ways) agree for n<=4 oracle / n<=10 formulas")


def test_criterion_7_translation_absorbing_tuples():
    for d, q, value in ((1, 2, 1), (1, 3, 2), (2, 2, 0), (2, 3, 4), (3, 2, 1)):
        closed = ((q - 1) ** (2 * d) - (-1) ** d * (q - 1) ** d) // q
        assert closed == value
        assert counting.tech_lem_count(d, q) == value
        assert oracle.tech_lem1_bruteforce(d, q) == value, (d, q)
    print("PASS: criterion 7 — brute-forced translation-absorbing label "
          "tuples equal the closed form at all five (d, q) pairs")


def test_criterion_8_alternating_subgroup():
    for family in ("alt_bell", "alt_cat", "alt_del", "alt_he"):
        start = 2 if family == "alt_he" else 1
        for n in range(start, 13):
            coeffs = poly(family, n).coeffs  # construction divides exactly
            assert all(isinstance(c, int) and c >= 0 for c in coeffs), (family, n)
    assert_all_passed(checks.run_check("alt-thm"))
    fam = oracle.count_supercharacter_families(4, 3, "alternating")
    heis = oracle.count_heisenberg_characters(4, 3, "quotient_classes", "alternating")
    assert (fam.supercharacters, fam.irreducible_supercharacters,
            fam.heisenberg_supercharacters, heis.count) == (19, 15, 13, 33)
    print("PASS: criterion 8 — alternating polynomials have nonnegative "
          "integer coefficients (n<=12) and match subgroup censuses")


# every check at prime powers, where the F_p-basis of F_q has more than
# one element (the default sweeps cover only q = 2 and 3)
PRIME_POWER_POINTS = (
    ("bell-thm", 4, 5), ("heis-thm", 4, 7), ("del-thm", 4, 4), ("deg-cor", 4, 4),
    ("fe-thm", 4, 4), ("c-irr-thm", 4, 4), ("c-heis-thm", 5, 4), ("tech-lem1", 2, 4),
    ("tech-lem1", 1, 9), ("alt-thm", 4, 4), ("alt-thm", 3, 8), ("poly-forms", 13, 4),
    ("poly-forms", 21, 9),
)


def test_every_check_passes_at_prime_powers():
    assert {name for name, _, _ in PRIME_POWER_POINTS} == set(checks.CHECKS)
    for name, n, q in PRIME_POWER_POINTS:
        assert_all_passed(checks.run_check(name, (n,), (q,)))
    print("PASS: all ten checks at prime-power points with q in {4,5,7,8,9}")


def test_criterion_9_structural_properties():
    # chain inclusions, multiplicative closure and the orbit-size identity
    for n, q in ((3, 2), (3, 3), (4, 2)):
        field = gf.field_make(q)
        npos = n * (n - 1) // 2
        for lam in all_functionals(n, q):
            chains = oracle.ls_chain(lam)
            left = oracle.orbit(lam, "left")
            right = oracle.orbit(lam, "right")
            two = oracle.orbit(lam, "two_sided")
            meet = left & right
            assert len(left) == q ** (npos - chains.l_dims[1])
            assert len(meet) == q ** (chains.s_dims[1] - chains.l_dims[1])
            assert len(two) * len(meet) == len(left) * len(right)
            members = list(chains.l_chain) + list(reversed(chains.s_chain))
            for smaller, larger in zip(members, members[1:]):
                assert all(in_row_space(larger, row, field) for row in smaller)
            for member in chains.l_chain + chains.s_chain:
                for a in member:
                    for b in member:
                        prod = linalg.StrictUpperMatrix(n, field, a).matmul(
                            linalg.StrictUpperMatrix(n, field, b)).codes
                        assert in_row_space(member, prod, field)
    # palindromicity and the two alternating-sum identities
    for n in range(1, 11):
        for family in ("cat", "del", "alt_cat", "alt_del"):
            assert poly(family, n).is_palindromic(), (family, n)
    for n in range(11):
        bell = counting.IntPolynomial.zero()
        cat = counting.IntPolynomial.zero()
        for k in range(n + 1):
            bell = bell + (poly("fe", k).scale(counting.binom(n, k))
                           * counting._one_plus_x_pow(n - k))
            if 2 * k <= n:
                cat = cat + (counting.IntPolynomial.x_power(
                    k, counting.catalan(k) * counting.binom(n, 2 * k))
                    * counting._one_plus_x_pow(n - 2 * k))
        assert poly("bell", n + 1) == bell, n
        assert poly("cat", n + 1) == cat, n
    # the C-translates of an orbit representative meet its orbit in 1 or q points
    for n, q in ((3, 2), (3, 3), (4, 2)):
        gam = linalg.gamma(n, gf.field_make(q))
        for part in enumerate_partitions(n, q, "all"):
            lam = partition_to_functional(part)
            orb = oracle.orbit(lam, "two_sided")
            stab = sum(1 for t in range(q) if translate(lam, t, gam) in orb)
            assert stab in (1, q), (n, q, part.arcs)
    for n, q in ((4, 2), (5, 2)):
        gam = linalg.gamma(n, gf.field_make(q))
        for path in enumerate_paths("heis_tilde", n, q):
            lam = path_to_functional(path)
            orb = oracle.orbit(lam, "coadjoint")
            stab = sum(1 for t in range(q) if translate(lam, t, gam) in orb)
            assert stab in (1, q), (n, q)
    print("PASS: criterion 9 — chain nesting/closure, orbit-size identity, "
          "palindromicity, alternating-sum identities, C-orbit sizes in {1,q}")
