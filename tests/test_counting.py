"""Counting polynomials, closed forms, recurrences and named sequences."""

import itertools
import os
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from heischar import counting
from heischar.counting import (
    IntPolynomial,
    binom,
    c_invariant_heis_count,
    catalan,
    closed_form,
    degree_count,
    delannoy,
    fibonacci,
    poly,
    sequence_values,
    series_coeffs,
    tech_lem_count,
)
from heischar.errors import NonIntegralDivision, SpaceTooLarge, UnknownFamily

X = IntPolynomial.from_list([0, 1])
ONE_PLUS_X = IntPolynomial.from_list([1, 1])

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPolynomial.from_list)


# ---------------------------------------------------------------- polynomials
def test_polynomial_normalization():
    with pytest.raises(ValueError):
        IntPolynomial((1, 2, 0))
    assert IntPolynomial.from_list([1, 2, 0, 0]) == IntPolynomial((1, 2))
    assert IntPolynomial.from_list([]) == IntPolynomial.zero()
    assert IntPolynomial.const(0) == IntPolynomial.zero()
    assert IntPolynomial.x_power(3, 2).coeffs == (0, 0, 0, 2)
    assert IntPolynomial.x_power(2, 0) == IntPolynomial.zero()


def test_polynomial_degree_and_leading():
    assert IntPolynomial.zero().degree == -1
    assert IntPolynomial.zero().leading == 0
    assert IntPolynomial.const(5).degree == 0
    p = IntPolynomial.from_list([1, 0, 7])
    assert p.degree == 2 and p.leading == 7


def test_polynomial_arithmetic():
    p = IntPolynomial.from_list([1, 2])
    q = IntPolynomial.from_list([-1, -2])
    assert p + q == IntPolynomial.zero()
    assert p - p == IntPolynomial.zero()
    assert (p * p).coeffs == (1, 4, 4)
    assert p.scale(3).coeffs == (3, 6)
    assert p.scale(0) == IntPolynomial.zero()
    assert p.shift_mul(2).coeffs == (0, 0, 1, 2)
    assert IntPolynomial.zero().shift_mul(4) == IntPolynomial.zero()
    assert p(10) == 21
    assert IntPolynomial.zero()(99) == 0


@given(small_polys, small_polys, small_polys, st.integers(-5, 5))
def test_polynomial_ring_axioms(p, q, r, x):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


def test_divexact_x_plus_1():
    p = ONE_PLUS_X * IntPolynomial.from_list([3, 0, 5])
    assert p.divexact_x_plus_1().coeffs == (3, 0, 5)
    assert IntPolynomial.zero().divexact_x_plus_1() == IntPolynomial.zero()
    with pytest.raises(NonIntegralDivision):
        IntPolynomial.from_list([1, 1, 1]).divexact_x_plus_1()


def test_is_palindromic():
    assert IntPolynomial.from_list([1, 5, 5, 1]).is_palindromic()
    assert not IntPolynomial.from_list([1, 5, 6, 2]).is_palindromic()
    assert IntPolynomial.zero().is_palindromic()


# --------------------------------------------------------- small combinatorics
def test_binom_extension():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 4) == 0
    assert binom(-1, 0) == 0


def narayana(n, k):
    """Narayana numbers N(n, k) = C(n,k) C(n,k-1) / n for n > 0."""
    if n == 0:
        return 1 if k == 0 else 0
    return binom(n, k) * binom(n, k - 1) // n


def test_auxiliary_numbers():
    assert counting.stirling2(4, 2) == 7
    assert counting.assoc_stirling2(4, 2) == 3
    assert counting.assoc_stirling2(4, 4) == 0
    assert narayana(0, 0) == 1
    assert narayana(4, 2) == 6
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert narayana(n, k) == binom(n, k) * binom(n, k - 1) // n
        assert sum(narayana(n, k) for k in range(n + 1)) == catalan(n)
        assert poly("cat", n)(1) == catalan(n)
    assert [fibonacci(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_cat_row_is_narayana():
    # coefficient k of cat at n is N(n, n-k), built by the ratio recurrence
    for n in range(151):
        assert poly("cat", n).coeffs \
            == IntPolynomial.from_list([narayana(n, n - k) for k in range(n + 1)]).coeffs, n
    assert poly("cat", -1) == IntPolynomial.zero()


def test_delannoy_pinned():
    assert delannoy("D", 1, 1) == 3
    assert delannoy("D", 2, 2) == 13
    assert delannoy("Dp", 1, 3) == 15
    assert delannoy("Dpp", 2, 2) == 2
    for a in range(6):
        assert delannoy("D", a, 0) == 1
        assert delannoy("D", 0, a) == 1
    assert delannoy("D", -1, 2) == 0
    assert delannoy("Dp", 2, -1) == 0
    with pytest.raises(UnknownFamily):
        delannoy("E", 1, 1)


def test_delannoy_recurrence_and_symmetry():
    for a in range(1, 7):
        for b in range(1, 7):
            assert delannoy("D", a, b) == (delannoy("D", a - 1, b)
                                           + delannoy("D", a, b - 1)
                                           + delannoy("D", a - 1, b - 1))
            assert delannoy("D", a, b) == delannoy("D", b, a)
    assert [delannoy("Dp", 1, k) for k in range(7)] == [1, 3, 7, 15, 30, 58, 109]


# Closed-form binomial sums of the three Delannoy-type path counts.
DELANNOY_CLOSED = {
    "D": lambda a, b: sum(binom(a + b - k, k) * binom(a + b - 2 * k, b - k)
                          for k in range(0, min(a, b) + 1)),
    "Dp": lambda a, b: sum(binom(k, a + b - k) * binom(k, a)
                           for k in range(0, a + b + 1)),
    "Dpp": lambda a, b: sum(binom(a + b - 2 * k, k) * binom(k, a - k)
                            for k in range(0, a + b + 1)),
}


@pytest.mark.parametrize("kind", sorted(DELANNOY_CLOSED))
def test_delannoy_matches_closed_form(kind):
    for s in range(81):
        for b in range(s + 1):
            assert delannoy(kind, s - b, b) == DELANNOY_CLOSED[kind](s - b, b), (kind, s, b)


@lru_cache(maxsize=None)
def _stirling_reference(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k <= 0 or k > n:
        return 0
    return k * _stirling_reference(n - 1, k) + _stirling_reference(n - 1, k - 1)


@lru_cache(maxsize=None)
def _assoc_stirling_reference(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if n < 0 or k <= 0:
        return 0
    return (k * _assoc_stirling_reference(n - 1, k)
            + (n - 1) * _assoc_stirling_reference(n - 2, k - 1))


def test_rows_requested_out_of_order():
    # Each table keeps only its last rows; going back must rebuild, not
    # reuse a stale row.
    for n in (30, 5, 30, 29, -1, 0):
        ks = range(-2, n + 3)
        assert [counting.stirling2(n, k) for k in ks] \
            == [_stirling_reference(n, k) for k in ks], n
        assert [counting.assoc_stirling2(n, k) for k in ks] \
            == [_assoc_stirling_reference(n, k) for k in ks], n
        for kind, closed in DELANNOY_CLOSED.items():
            assert [delannoy(kind, n - b, b) for b in range(n + 1)] \
                == [closed(n - b, b) for b in range(n + 1)], (kind, n)


def test_deep_indices_do_not_recurse():
    f = [fibonacci(n) for n in (2500, 2501, 5000)]
    assert f[2] == f[0] * (2 * f[1] - f[0])  # F(2m) = F(m) (2 F(m+1) - F(m))
    assert delannoy("Dpp", 0, 3000) == 1     # only (0,1) steps stay on a = 0
    assert [counting.stirling2(1500, k) for k in (1, 2, 1499, 1500)] \
        == [1, 2 ** 1499 - 1, binom(1500, 2), 1]
    assert counting.stirling2(1500, 700) > 0


def _cold_cli(*argv):
    """Run the CLI in a fresh ``python -S`` process, so no cache is warm."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(counting.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-S", "-m", "heischar.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_cold_poly_he_330():
    proc = _cold_cli("poly", "--family", "he", "--n", "330")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{list(closed_form('he', 330).coeffs)}\n"


def test_cold_poly_bell_700():
    proc = _cold_cli("poly", "--family", "bell", "--n", "700")
    assert (proc.returncode, proc.stderr) == (0, "")
    row = [1]  # S(n, k) for k = 0..n, one row at a time
    for n in range(1, 701):
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    assert proc.stdout == f"{row[:0:-1]}\n"  # coefficient k is S(700, 700 - k)


# -------------------------------------------------------------- family polys
def test_poly_pinned_coefficients():
    expected = {
        ("he", 3): (1, 3, 1),
        ("he", 4): (1, 5, 6, 2),
        ("inv", 2): (0, 1),
        ("inv", 3): (0, 1, 1),
        ("alt_he", 2): (1,),
        ("alt_he", 3): (1, 2, 1),
        ("del", 4): (1, 5, 5, 1),
        ("cat", 4): (1, 6, 6, 1),
        ("bell", 4): (1, 6, 7, 1),
        ("fe", 4): (0, 0, 3, 1),
        ("alt_bell", 4): (1, 5, 2),
        ("alt_cat", 4): (1, 5, 1),
        ("alt_del", 4): (1, 4, 1),
        ("pre_he", 3): (1, 3, 2),
        ("pre_in", 4): (0, 1, 1, 1),
    }
    for (family, n), coeffs in expected.items():
        assert poly(family, n).coeffs == coeffs, (family, n)


def test_poly_edge_indices_and_errors():
    assert poly("del", 0) == IntPolynomial.zero()
    assert poly("he", 0) == IntPolynomial.zero()
    assert poly("inv", 1) == IntPolynomial.zero()
    assert poly("bell", 0) == IntPolynomial.const(1)
    assert poly("fe", 0) == IntPolynomial.const(1)
    assert poly("fe", 1) == IntPolynomial.zero()
    with pytest.raises(ValueError):
        poly("alt_he", 1)
    with pytest.raises(ValueError):
        poly("alt_bell", 0)
    with pytest.raises(UnknownFamily):
        poly("zeta", 3)


@pytest.mark.parametrize("family", counting.CLOSED_FORM_FAMILIES)
def test_closed_form_matches_poly(family):
    start = 1 if family.startswith("alt_") else 0
    for n in range(start, 13):
        assert closed_form(family, n) == poly(family, n), (family, n)


def _sum(terms):
    out = IntPolynomial.zero()
    for t in terms:
        out = out + t
    return out


def closed_form_by_terms(family, n):
    """Each closed form as its literal binomial sum: every term multiplied
    out with a fresh (1+x)^e row, then added."""
    power = counting._one_plus_x_pow
    if family == "del":
        return _sum(IntPolynomial.x_power(k, binom(n - 1 - k, k)) * power(n - 1 - 2 * k)
                    for k in range((n - 1) // 2 + 1))
    if family == "pre_he":
        return _sum(IntPolynomial.x_power(k, binom(n - 1 - k, k)) * power(n - 1 - k)
                    for k in range((n - 1) // 2 + 1))
    if family == "pre_in":
        return _sum(IntPolynomial.x_power(n - 1 - 2 * k, binom(n - 1 - 2 * k, k)) * power(k)
                    for k in range((n - 1) // 3 + 1))
    if family == "he":
        if n == 1:
            return IntPolynomial.const(1)
        m = n - 1
        return _sum((IntPolynomial.const(binom(m - k, k))
                     + IntPolynomial.x_power(1, binom(m - 1 - k, k)))
                    * IntPolynomial.x_power(k) * power(m - 1 - k)
                    for k in range(m // 2 + 1))
    if family == "inv":
        m = n - 1
        return _sum((IntPolynomial.const(binom(m - 2 * k - 2, k))
                     + IntPolynomial.x_power(1, binom(m - 2 * k - 1, k)))
                    * IntPolynomial.x_power(m - 2 * k - 1) * power(k)
                    for k in range((m - 1) // 3 + 1))
    m = n - 1
    if family == "alt_bell":
        return _sum(poly("fe", m - k).scale(binom(m, k)) * power(k - 1 if k else 0)
                    for k in range(m, -1, -1))
    if family == "alt_cat":
        return _sum(IntPolynomial.x_power(k, catalan(k) * binom(m, 2 * k)) * power(m - 1 - 2 * k)
                    for k in range((m - 1) // 2 + 1))
    assert family == "alt_del"
    return _sum(IntPolynomial.x_power(k, binom(m - k, k)) * power(m - 1 - 2 * k)
                for k in range((m - 1) // 2 + 1))


@pytest.mark.parametrize("family", counting.CLOSED_FORM_FAMILIES)
def test_nested_closed_form_matches_term_sums(family):
    start = 1 if family.startswith("alt_") else 0
    for n in range(start, 61):
        assert closed_form(family, n).coeffs == closed_form_by_terms(family, n).coeffs, n


@pytest.mark.parametrize("family", counting.CLOSED_FORM_FAMILIES)
def test_closed_form_matches_poly_at_large_n(family):
    for n in (200, 400):
        assert closed_form(family, n) == poly(family, n), n


@given(st.lists(st.tuples(st.integers(0, 4), st.lists(st.integers(-9, 9), max_size=4)),
                max_size=5),
       st.integers(0, 4), st.integers(0, 3))
def test_nested_sum_is_the_sum_of_its_terms(terms, base, step):
    # the terms come highest power first: T_j carries (1+x)^(base + step j)
    expected = _sum(IntPolynomial.x_power(a) * IntPolynomial.from_list(coeffs)
                    * counting._one_plus_x_pow(base + step * j)
                    for j, (a, coeffs) in enumerate(reversed(terms)))
    assert counting._nested(iter(terms), base, step) == expected


@pytest.mark.parametrize("family", ("del", "pre_he", "pre_in"))
@pytest.mark.parametrize("x", (1, 2, 3))
def test_series_matches_poly(family, x):
    assert series_coeffs(family, x, 10) == [poly(family, n)(x) for n in range(10)]


def test_series_unknown_family():
    with pytest.raises(UnknownFamily):
        series_coeffs("he", 1, 5)


# ------------------------------------------------------ structural identities
def test_he_and_in_structure():
    x2 = IntPolynomial.x_power(2)
    for n in range(13):
        assert poly("he", n) == poly("pre_he", n) - x2 * poly("pre_he", n - 2)
        assert poly("inv", n) == X * (poly("pre_in", n - 1) + poly("pre_in", n - 2))
    for n in range(4, 13):
        assert poly("inv", n) == (X * poly("inv", n - 1)
                                  + X * ONE_PLUS_X * poly("inv", n - 3))


def test_bell_recurrence():
    for n in range(11):
        total = IntPolynomial.zero()
        for k in range(n + 1):
            total = total + (IntPolynomial.x_power(k, binom(n, k))
                             * poly("bell", n - k))
        assert poly("bell", n + 1) == total


def test_alternating_group_identities():
    for n in range(11):
        bell = IntPolynomial.zero()
        cat = IntPolynomial.zero()
        for k in range(n + 1):
            bell = bell + (poly("fe", k).scale(binom(n, k))
                           * counting._one_plus_x_pow(n - k))
            if 2 * k <= n:
                cat = cat + (IntPolynomial.x_power(k, catalan(k) * binom(n, 2 * k))
                             * counting._one_plus_x_pow(n - 2 * k))
        assert poly("bell", n + 1) == bell
        assert poly("cat", n + 1) == cat


def test_alt_bell_alternate_form():
    for n in range(11):
        total = IntPolynomial.zero()
        for k in range(n + 1):
            numer = IntPolynomial.x_power(k) + X.scale((-1) ** k)
            total = total + (numer.divexact_x_plus_1().scale(binom(n, k))
                             * poly("bell", n - k))
        assert poly("alt_bell", n + 1) == total


def test_closed_form_alt_bell_builds_each_fe_row_once(monkeypatch):
    """closed_form("alt_bell") asks for the fe rows in rising order, so the
    associated-Stirling table never rebuilds a row from row 0."""
    builds = []

    def counted(n, rows):
        builds.append(n)
        return counting._assoc_stirling_row(n, rows)

    monkeypatch.setattr(counting, "_ASSOC_STIRLING", counting._ForwardTable(counted, keep=2))
    poly.cache_clear()
    assert closed_form("alt_bell", 121) == poly("alt_bell", 121)
    assert sorted(builds) == list(range(1, 121))


def test_palindromic_families():
    for n in range(1, 13):
        for family in ("cat", "del", "alt_cat", "alt_del"):
            assert poly(family, n).is_palindromic(), (family, n)


def test_nonnegative_coefficients():
    for n in range(13):
        for family in ("he", "inv"):
            assert all(c >= 0 for c in poly(family, n).coeffs), (family, n)
        for family in ("alt_bell", "alt_cat", "alt_del"):
            if n >= 1:
                assert all(c >= 0 for c in poly(family, n).coeffs), (family, n)
        if n >= 2:
            assert all(c >= 0 for c in poly("alt_he", n).coeffs), n


def test_signed_evaluations():
    # evaluations at x = -1 collapse to signed Catalan / period-four patterns
    assert [poly("cat", n)(-1) for n in range(13)] \
        == [1, 1, 0, -1, 0, 2, 0, -5, 0, 14, 0, -42, 0]
    for n in range(13):
        if n >= 2 and n % 2 == 0:
            assert poly("cat", n)(-1) == 0
            assert poly("del", n)(-1) == 0
        elif n % 2 == 1:
            m = (n - 1) // 2
            assert poly("cat", n)(-1) == (-1) ** m * catalan(m)
            assert poly("del", n)(-1) == (-1) ** m
    # complementary-count identity linking bell and fe at x = -1
    for n in range(1, 13):
        assert poly("bell", n)(-1) == poly("fe", n - 1)(-1)


def test_leading_coefficients_are_fibonacci():
    for n in range(1, 11):
        assert poly("he", n + 1).leading == fibonacci(n)
        assert poly("pre_he", n).leading == fibonacci(n)


# ------------------------------------------------------------ derived counters
def test_degree_counts_sum_to_quotient_order():
    # the irreducible characters of U_n / (1 + n^3) have squared degrees
    # summing to its order: sum_e degree_count(n, e) q^{2e} = q^{2n-3},
    # as polynomials in x = q - 1
    q_powers = [IntPolynomial.const(1)]
    for _ in range(2 * 60):
        q_powers.append(q_powers[-1] * ONE_PLUS_X)
    for n in range(2, 61):
        total = IntPolynomial.zero()
        for e in range(n):
            total = total + degree_count(n, e, as_polynomial=True) * q_powers[2 * e]
        assert total == q_powers[2 * n - 3], n


def test_degree_count_pinned():
    assert degree_count(3, 0, as_polynomial=True).coeffs == (1, 2, 1)
    assert degree_count(3, 1, as_polynomial=True).coeffs == (0, 1)
    assert degree_count(4, 1, as_polynomial=True).coeffs == (0, 2, 3, 1)
    assert degree_count(4, 1, q=2) == 6
    assert degree_count(4, 0, q=2) == 8
    with pytest.raises(ValueError):
        degree_count(1, 0, q=2)
    with pytest.raises(ValueError):
        degree_count(4, -1, q=2)
    with pytest.raises(ValueError):
        degree_count(4, 1)  # needs q when not returning a polynomial


def test_degree_count_sums_to_he():
    for n in range(2, 9):
        total = IntPolynomial.zero()
        for e in range(n):
            total = total + degree_count(n, e, as_polynomial=True)
        assert total == poly("he", n)


C_INVARIANT_QS = (2, 3, 4, 5, 7, 8, 9, 16, 256)


def _compositions_by_product(n, q):
    """Every composition of n from a subset of its n-1 gaps, each product
    built in full: the slow reference for the pruned walk."""
    x = q - 1
    total = 0
    for cuts in itertools.product((0, 1), repeat=n - 1):
        parts = []
        size = 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        prod = 1
        for c in parts:
            s = (0, 1, 0, -1)[c % 4]
            prod *= x ** (c - 1) - (s * x ** ((c - 1) // 2) if s else 0)
            if prod == 0:
                break
        total += prod
    return total


def test_c_invariant_compositions_match_product_enumeration():
    for q in C_INVARIANT_QS:
        for n in range(1, 15):
            assert c_invariant_heis_count(n, q) == _compositions_by_product(n, q), (n, q)


def test_c_invariant_heis_count():
    for q in C_INVARIANT_QS:
        x = q - 1
        assert c_invariant_heis_count(1, q) == 0
        assert c_invariant_heis_count(2, q) == x
        assert c_invariant_heis_count(3, q) == x * (x + 1)
        for n in range(1, 25):
            both = {c_invariant_heis_count(n, q, m)
                    for m in ("compositions", "recurrence")}
            assert both == {poly("inv", n)(x)}, (n, q)
    with pytest.raises(ValueError):
        c_invariant_heis_count(0, 2)
    with pytest.raises(ValueError):
        c_invariant_heis_count(3, 2, "table")


def test_c_invariant_compositions_size_guard(monkeypatch):
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    with pytest.raises(SpaceTooLarge) as info:
        c_invariant_heis_count(26, 2)  # 2^25 compositions, default guard 2^24
    assert info.value.needed == 2 ** 25
    assert c_invariant_heis_count(26, 2, "recurrence") == poly("inv", 26)(1)
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", "16")
    assert c_invariant_heis_count(5, 3) == poly("inv", 5)(2)
    with pytest.raises(SpaceTooLarge, match="needs 32"):
        c_invariant_heis_count(6, 3)


def test_tech_lem_count():
    assert [(d, q, tech_lem_count(d, q)) for d, q in
            [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]] \
        == [(1, 2, 1), (1, 3, 2), (2, 2, 0), (2, 3, 4), (3, 2, 1), (3, 3, 24)]
    with pytest.raises(ValueError):
        tech_lem_count(0, 2)
    for d in range(1, 9):
        for q in (2, 3, 4, 5, 7):
            assert tech_lem_count(d, q) >= 0  # integral and nonnegative


# --------------------------------------------------------------- named tables
def test_sequence_values_pinned():
    expected = {
        "fibonacci": [0, 1, 1, 2, 3, 5, 8, 13],
        "pell": [0, 1, 2, 5, 12, 29, 70, 169],
        "del_q3": [0, 1, 3, 11, 39, 139, 495, 1763],
        "he_q2": [1, 2, 5, 14, 38, 104, 284, 776],
        "dp_row1": [1, 3, 7, 15, 30, 58, 109, 201],
        "dp_row1_diff": [1, 3, 6, 12, 23, 43, 79, 143],
        "bell_q2": [1, 1, 2, 5, 15, 52, 203, 877],
        "catalan_q2": [1, 1, 2, 5, 14, 42, 132, 429],
        "fe_q2": [1, 0, 1, 1, 4, 11, 41, 162],
        "alt_cat_q2": [1, 2, 7, 20, 66, 212, 715, 2424],
        "alt_del_q2": [0, 1, 2, 6, 14, 35, 84, 204],
        "alt_bell_even_diff": [0, 1, 3, 13, 55, 256, 1274, 6791],
        "alt_bell_odd_diff": [1, 2, 7, 24, 96, 418, 1989, 10216],
    }
    assert set(expected) == set(counting.SEQUENCES)
    for name, values in expected.items():
        assert sequence_values(name, 8) == values, name
    with pytest.raises(UnknownFamily):
        sequence_values("lucas", 5)
