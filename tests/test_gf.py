"""Field tables: axioms over every order up to 16, identities and inverses
at the largest orders too, every order's tables pinned by one digest, plus
pinned values."""

import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

from heischar import gf
from heischar.errors import NotPrimePower, TooLarge, ZeroInverse

ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.mark.parametrize("q", ORDERS)
def test_axioms_exhaustive(q):
    f = gf.field_make(q)
    codes = range(q)
    for a, b in itertools.product(codes, repeat=2):
        assert f.add_code(a, b) == f.add_code(b, a)
        assert f.mul_code(a, b) == f.mul_code(b, a)
    for a, b, c in itertools.product(codes, repeat=3):
        assert f.add_code(f.add_code(a, b), c) == f.add_code(a, f.add_code(b, c))
        assert f.mul_code(f.mul_code(a, b), c) == f.mul_code(a, f.mul_code(b, c))
        assert (f.mul_code(a, f.add_code(b, c))
                == f.add_code(f.mul_code(a, b), f.mul_code(a, c)))


@pytest.mark.parametrize("q", ORDERS + (243, 251, 256))
def test_identities_and_inverses(q):
    f = gf.field_make(q)
    for a in range(q):
        assert f.add_code(a, 0) == a
        assert f.mul_code(a, 1) == a
        assert f.mul_code(a, 0) == 0
        assert f.add_code(a, f.neg_code(a)) == 0
        for b in range(q):
            assert f.add_code(f.sub_code(a, b), b) == a
        if a:
            assert f.mul_code(a, f.inv_code(a)) == 1
    assert sorted(f.inv_code(a) for a in range(1, q)) == list(range(1, q))


@pytest.mark.parametrize("q", ORDERS)
def test_frobenius_fixes_everything(q):
    f = gf.field_make(q)
    for a in range(q):
        power = 1
        for _ in range(q):
            power = f.mul_code(power, a)
        # a^q with a^0 = 1; on the zero code the product collapses to 0 = a
        assert power == a


@pytest.mark.parametrize("q", ORDERS)
def test_characteristic(q):
    f = gf.field_make(q)
    for a in range(q):
        total = 0
        for _ in range(f.p):
            total = f.add_code(total, a)
        assert total == 0


def test_tables_of_every_order_are_pinned():
    # one digest over the tables of all 70 prime powers up to 256, in
    # ascending order: a change to any entry of any field shows here
    digest = hashlib.sha256()
    for q in range(2, gf.MAX_ORDER + 1):
        try:
            f = gf.field_make(q)
        except NotPrimePower:
            continue
        digest.update(repr((q, f.p, f.k, f.add_table, f.mul_table, f.inv_table,
                            f.neg_table)).encode())
    assert digest.hexdigest() == (
        "89603294cd7e853d6d2a688e848123ecef0f3d8d8de0dbaef172e56709bb9ff3")


def test_pinned_small_field_values():
    f2 = gf.field_make(2)
    assert f2.add_code(1, 1) == 0
    f4 = gf.field_make(4)
    assert f4.mul_code(2, 2) == 3
    assert f4.mul_code(2, 3) == 1
    assert f4.mul_code(3, 3) == 2
    assert f4.add_code(2, 3) == 1
    f5 = gf.field_make(5)
    assert f5.inv_code(2) == 3
    assert f5.mul_code(2, 4) == 3
    assert f5.sub_code(2, 4) == 3
    f7 = gf.field_make(7)
    assert f7.inv_code(3) == 5


def test_prime_power_decomposition():
    for q in ORDERS:
        f = gf.field_make(q)
        assert f.p ** f.k == q
    assert gf.field_make(9).p == 3
    assert gf.field_make(16).k == 4


def test_field_make_is_cached_and_eq_by_order():
    assert gf.field_make(4) is gf.field_make(4)
    assert gf.field_make(4) == gf.field_make(4)
    assert gf.field_make(4) != gf.field_make(5)


def test_construction_errors():
    for q in (0, 1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            gf.field_make(q)
    with pytest.raises(TooLarge):
        gf.field_make(257)
    with pytest.raises(ValueError):
        gf.field_make(-3)


def _monic(p, k):
    """The monic polynomials of degree k over F_p, coefficients constant
    term first, in lexicographic order of that list."""
    return [lows + (1,) for lows in itertools.product(range(p), repeat=k)]


def _times(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def test_irreducible_table_covers_every_proper_prime_power():
    primes = [p for p in range(2, 17) if all(p % d for d in range(2, p))]
    wanted = {(p, k) for p in primes for k in range(2, 9) if p ** k <= gf.MAX_ORDER}
    assert set(gf._IRREDUCIBLE) == wanted


@pytest.mark.parametrize("p,k", sorted(gf._IRREDUCIBLE))
def test_irreducible_table_holds_the_smallest_irreducible(p, k):
    # the reducible monics of degree k are the products of two monics of
    # lower degree, so the first monic not among them is the smallest
    # irreducible, independently of gf's own divisor test
    reducible = {_times(a, b, p) for d in range(1, k // 2 + 1)
                 for a in _monic(p, d) for b in _monic(p, k - d)}
    smallest = next(m for m in _monic(p, k) if m not in reducible)
    assert gf._IRREDUCIBLE[p, k] == smallest
    assert gf._check_irreducible(smallest, p)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverse):
        gf.field_make(3).inv_code(0)
    with pytest.raises(ZeroInverse):
        gf.field_make(4).inv_code(0)


@given(st.sampled_from(ORDERS), st.data())
def test_multiplicative_group_order(q, data):
    f = gf.field_make(q)
    a = data.draw(st.integers(min_value=1, max_value=q - 1))
    power, steps = a, 1
    while power != 1:
        power = f.mul_code(power, a)
        steps += 1
    assert (q - 1) % steps == 0
