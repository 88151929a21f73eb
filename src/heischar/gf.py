"""Exact arithmetic in small finite fields F_q, q <= 256.

Elements are represented by integer codes 0 .. q-1.  For q = p^k the code
packs the coefficient vector of a polynomial residue base p:
code = c_0 + c_1*p + ... + c_{k-1}*p^{k-1}, reduced modulo a fixed
irreducible polynomial so that codes mean the same thing in every run; a
prime field is the case k = 1, whose code is the residue itself.  Every
field is built the same way: addition digit by digit mod p, and the
multiplication and inverse tables from the powers of a generator, the
least code whose powers reach every nonzero code.  All operations are
table lookups after construction.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotPrimePower, TooLarge, ZeroInverse

MAX_ORDER = 256

# Fixed irreducible polynomial per (p, k), k >= 2: the lexicographically
# smallest monic irreducible, coefficients listed constant term first.
# Verified irreducible again at construction time.  A prime field, k = 1,
# takes the modulus x.
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (1, 3, 1),
}


def _prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    n, k = q, 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, k


def _poly_rem(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    a = list(a)
    while len(a) >= len(m):
        c = a[-1] % p
        if c:
            off = len(a) - len(m)
            for i, mi in enumerate(m):
                a[off + i] = (a[off + i] - c * mi) % p
        a.pop()
    return a


def _check_irreducible(m: tuple[int, ...], p: int) -> bool:
    import itertools
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for lows in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(list(m), tuple(lows) + (1,), p)):
                return False
    return True


class FieldSpec:
    """A finite field of order q with precomputed operation tables.

    Attributes q, p, k describe the order; ``add_table``, ``mul_table`` are
    q x q tuples of codes and ``inv_table`` maps nonzero codes to inverses
    (entry 0 is unused).  Two specs are equal iff they have the same order:
    construction is deterministic, so equal orders mean identical tables.
    """

    def __init__(self, q: int, p: int, k: int,
                 add_table: tuple[tuple[int, ...], ...],
                 mul_table: tuple[tuple[int, ...], ...],
                 inv_table: tuple[int, ...]):
        self.q = q
        self.p = p
        self.k = k
        self.add_table = add_table
        self.mul_table = mul_table
        self.inv_table = inv_table
        # negation: -a is the code b with a + b = 0
        neg = [0] * q
        for a in range(q):
            neg[a] = add_table[a].index(0)
        self.neg_table = tuple(neg)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.q == self.q

    def __hash__(self):
        return hash(("FieldSpec", self.q))

    def __repr__(self):
        return f"FieldSpec(q={self.q})"

    # code-level arithmetic, used by the rest of the package
    def add_code(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub_code(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul_code(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg_code(self, a: int) -> int:
        return self.neg_table[a]

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse(f"0 has no inverse in F_{self.q}")
        return self.inv_table[a]


@lru_cache(maxsize=None)
def field_make(q: int) -> FieldSpec:
    """Construct (and cache) the field of order q.

    Raises TooLarge for q > 256 and NotPrimePower when q has two distinct
    prime factors or q < 2.
    """
    if q > MAX_ORDER:
        raise TooLarge(f"field order {q} exceeds the maximum {MAX_ORDER}")
    p, k = _prime_power(q)
    # F_p is F_p[x]/(x): its codes are the constant polynomials
    modulus = _IRREDUCIBLE.get((p, k), (0, 1))
    if not _check_irreducible(modulus, p):
        raise AssertionError(f"modulus table entry for ({p}, {k}) is reducible")

    # addition is digit-wise mod p; code a*p + d extends code a by the low
    # digit d, so each pass adds one digit to the table of the pass before
    digit = add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
    for _ in range(k - 1):
        add = tuple(tuple(p * s + t for s in high for t in low)
                    for high in add for low in digit)

    def times(a: int, b: int) -> int:
        prod = [0] * (2 * k - 1)
        for i in range(k):
            for j in range(k):
                prod[i + j] += a // p ** i % p * (b // p ** j % p)
        return sum(c % p * p ** i for i, c in enumerate(_poly_rem(prod, modulus, p)))

    # the least code whose powers reach every nonzero code; one exists, and
    # every power loop returns to 1, because the modulus is irreducible
    for g in range(1, q):
        exp = [1]
        while (power := times(exp[-1], g)) != 1:
            exp.append(power)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, a in enumerate(exp):
        log[a] = i
    exp += exp
    mul = ((0,) * q,) + tuple((0,) + tuple(exp[log[a] + log[b]] for b in range(1, q))
                              for a in range(1, q))
    inv = (0,) + tuple(exp[q - 1 - log[a]] for a in range(1, q))
    return FieldSpec(q, p, k, add, mul, inv)
