"""Counting polynomials in x = q - 1 for characters of U_n(F_q).

Twelve polynomial families are supported, all with exact integer
coefficients.  Writing x = q - 1:

=================  =====================================================
family             counts
=================  =====================================================
del                Heisenberg supercharacters of U_n  (labeled Pell paths)
pre_he             paths with steps R, N, U, UU ending on x+y = n-1
pre_in             paths with steps (2,1), (1,2), (0,1) ending there
he                 Heisenberg characters of U_n  (tilde-Heis paths)
inv                C-invariant Heisenberg characters of U_{n+1}
bell               supercharacters of U_n  (labeled set partitions)
cat                irreducible supercharacters  (noncrossing partitions)
fe                 C-invariant supercharacters of U_{n+1}  (feasible)
alt_bell           supercharacters of the subgroup ker(sigma) of U_n
alt_cat            irreducible supercharacters of ker(sigma)
alt_del            Heisenberg supercharacters of ker(sigma)
alt_he             Heisenberg characters of ker(sigma)
=================  =====================================================

Each family can be produced by up to three independent routes: ``poly``
(defining sums over a lattice-point DP), ``closed_form`` (binomial-sum
expressions, nested in (1+x) so that each factor of it is one shift-and-add)
and ``series_coeffs`` (generating-function recurrences at a fixed integer
x); tests and ``verify poly-forms`` require the routes to agree.

The numbers behind ``poly`` come from tables built bottom-up (Delannoy
anti-diagonals, Stirling rows) that keep only their last few rows, so no
index is limited by the recursion depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb
from operator import add, mul

from .errors import NonIntegralDivision, Space, UnknownFamily, guard_space


def binom(n: int, k: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


# ------------------------------------------------------------------ polynomials
@dataclass(frozen=True)
class IntPolynomial:
    """A dense polynomial with integer coefficients, constant term first.

    Normalized so that the coefficient tuple has no trailing zeros; the
    zero polynomial is the empty tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficient tuple has trailing zeros")

    @classmethod
    def from_list(cls, coeffs) -> "IntPolynomial":
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def const(cls, c: int) -> "IntPolynomial":
        return cls.from_list([c])

    @classmethod
    def x_power(cls, k: int, c: int = 1) -> "IntPolynomial":
        return cls.from_list([0] * k + [c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return IntPolynomial.from_list(map(sum, pairs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPolynomial.from_list(out)

    def scale(self, c: int) -> "IntPolynomial":
        if c == 0:
            return IntPolynomial.zero()
        return IntPolynomial(tuple(c * a for a in self.coeffs))

    def shift_mul(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divexact_x_plus_1(self) -> "IntPolynomial":
        """Exact division by (x + 1); NonIntegralDivision on any remainder."""
        r = list(self.coeffs)
        q = [0] * max(len(r) - 1, 0)
        for i in range(len(r) - 1, 0, -1):
            q[i - 1] = r[i]
            r[i - 1] -= r[i]
            r[i] = 0
        if r and r[0] != 0:
            raise NonIntegralDivision(f"remainder {r[0]} dividing {self.coeffs} by (x+1)")
        return IntPolynomial.from_list(q)

    def is_palindromic(self) -> bool:
        c = self.coeffs
        return c == tuple(reversed(c))

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


ONE_PLUS_X = IntPolynomial.from_list([1, 1])


def _one_plus_x_pow(e: int) -> IntPolynomial:
    return IntPolynomial.from_list([binom(e, i) for i in range(e + 1)])


# --------------------------------------------------------- number tables
class _ForwardTable:
    """Rows 0, 1, ... of a number table with row 0 = [1], built forward on
    demand: ``extend(m, rows)`` returns row m from the kept rows before it
    (the last is row m - 1).  Only the last ``keep`` rows are kept, so an
    earlier row is rebuilt from row 0.  Negative rows are empty."""

    def __init__(self, extend, keep: int):
        self._extend, self._keep = extend, keep
        self._rows, self._top = [[1]], 0

    def row(self, m: int) -> list[int]:
        if m < 0:
            return []
        if m <= self._top - len(self._rows):
            self._rows, self._top = [[1]], 0
        while self._top < m:
            self._top += 1
            self._rows.append(self._extend(self._top, self._rows))
            del self._rows[:-self._keep]
        return self._rows[m - self._top - 1]


_DELANNOY_STEPS = {
    "D": ((1, 0), (1, 1), (0, 1)),
    "Dp": ((1, 0), (1, 1), (0, 1), (0, 2)),
    "Dpp": ((2, 1), (1, 2), (0, 1)),
}


def _delannoy_diagonal(steps, s: int, rows) -> list[int]:
    """Anti-diagonal s: entry b counts the paths to (s - b, b).  A step
    (dx, dy) moves entry j of diagonal s - dx - dy to entry j + dy."""
    parts = [[0] * dy + rows[-dx - dy] + [0] * dx
             for dx, dy in steps if dx + dy <= s]
    return list(map(sum, zip(*parts)))


_DELANNOY = {kind: _ForwardTable(partial(_delannoy_diagonal, steps), keep=3)
             for kind, steps in _DELANNOY_STEPS.items()}


def delannoy(kind: str, a: int, b: int) -> int:
    """Number of unlabeled paths from the origin to (a, b).

    kind "D" uses steps (1,0), (1,1), (0,1); "Dp" adds (0,2); "Dpp" uses
    (2,1), (1,2), (0,1).  Read from anti-diagonal a + b of ``_DELANNOY``.
    """
    if kind not in _DELANNOY_STEPS:
        raise UnknownFamily(f"unknown Delannoy kind {kind!r}")
    if a < 0 or b < 0:
        return 0
    return _DELANNOY[kind].row(a + b)[b]


def _stirling_row(n: int, rows) -> list[int]:
    """S(n, k) = k S(n-1, k) + S(n-1, k-1) for k = 0..n."""
    prev = rows[-1]
    return list(map(add, map(mul, range(n + 1), prev + [0]), [0] + prev))


def _assoc_stirling_row(n: int, rows) -> list[int]:
    """A(n, k) = k A(n-1, k) + (n-1) A(n-2, k-1) for k = 0..n."""
    prev, prev2 = rows[-1], rows[-2] if n >= 2 else []
    return list(map(add, map(mul, range(n + 1), prev + [0]),
                    map((n - 1).__mul__, [0] + prev2 + [0])))


_STIRLING = _ForwardTable(_stirling_row, keep=1)
_ASSOC_STIRLING = _ForwardTable(_assoc_stirling_row, keep=2)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind."""
    return _STIRLING.row(n)[k] if 0 <= k <= n else 0


def assoc_stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k blocks all of size >= 2."""
    return _ASSOC_STIRLING.row(n)[k] if 0 <= k <= n else 0


def catalan(n: int) -> int:
    return binom(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """Fibonacci numbers with f_0 = 0, f_1 = f_2 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ------------------------------------------------------------- poly families
_PATH_FAMILY_KIND = {"del": "D", "pre_he": "Dp", "pre_in": "Dpp"}

FAMILIES = ("del", "pre_he", "pre_in", "he", "inv", "bell", "cat", "fe",
            "alt_bell", "alt_cat", "alt_del", "alt_he")


@lru_cache(maxsize=None)
def poly(family: str, n: int) -> IntPolynomial:
    """The family polynomial at index n, from its defining sum.

    Path families accept any n >= 0 (non-positive indices give 0);
    alt_bell/alt_cat/alt_del need n >= 1 and alt_he needs n >= 2.
    """
    if family in _PATH_FAMILY_KIND:
        return IntPolynomial.from_list(_DELANNOY[_PATH_FAMILY_KIND[family]].row(n - 1))
    if family == "he":
        return poly("pre_he", n) - poly("pre_he", n - 2).shift_mul(2)
    if family == "inv":
        return (poly("pre_in", n - 1) + poly("pre_in", n - 2)).shift_mul(1)
    if family == "bell":
        return IntPolynomial.from_list(_STIRLING.row(n)[::-1])
    if family == "cat":
        # coefficient k is N(n, n-k) = N(n, k+1), the Narayana number
        # C(n,k+1) C(n,k) / n, and N(n, k+1) = N(n, k)(n-k)(n-k+1) / (k(k+1))
        row = [1] if n >= 0 else []
        for k in range(1, n):
            row.append(row[-1] * (n - k) * (n - k + 1) // (k * (k + 1)))
        return IntPolynomial.from_list(row)
    if family == "fe":
        return IntPolynomial.from_list(_ASSOC_STIRLING.row(n)[::-1])
    if family == "alt_bell":
        _need(family, n, 1)
        fe = poly("fe", n - 1)
        return (poly("bell", n) - fe).divexact_x_plus_1() + fe
    if family == "alt_cat":
        _need(family, n, 1)
        return _alt_from_sign("cat", n)
    if family == "alt_del":
        _need(family, n, 1)
        return _alt_from_sign("del", n)
    if family == "alt_he":
        _need(family, n, 2)
        inv = poly("inv", n - 1)
        return (poly("he", n) - inv).divexact_x_plus_1() + ONE_PLUS_X * inv
    raise UnknownFamily(f"unknown polynomial family {family!r}")


def _need(family: str, n: int, least: int):
    if n < least:
        raise ValueError(f"family {family!r} is defined for n >= {least}")


def _alt_from_sign(base: str, n: int) -> IntPolynomial:
    """(P_n(x) - (-x)^floor((n-1)/2) P_n(-1)) / (x + 1) for P = cat or del."""
    p = poly(base, n)
    m = (n - 1) // 2
    return (p - IntPolynomial.x_power(m, (-1) ** m * p(-1))).divexact_x_plus_1()


# --------------------------------------------------------------- closed forms
CLOSED_FORM_FAMILIES = ("del", "pre_he", "pre_in", "he", "inv",
                        "alt_bell", "alt_cat", "alt_del")


def closed_form(family: str, n: int) -> IntPolynomial:
    """The family polynomial via its binomial-sum expression.

    An independent route from ``poly``; the two must agree wherever both
    are defined.  Each sum is sum_j T_j (1+x)^(base + step j), computed by
    ``_nested`` from its terms T_j.
    """
    m = n - 1
    if family in ("del", "pre_he"):
        # x^k C(m-k, k) (1+x)^(m-2k) for del, (1+x)^(m-k) for pre_he
        top = m // 2
        step = 2 if family == "del" else 1
        return _nested(((k, [binom(m - k, k)]) for k in range(top + 1)),
                       m - step * top, step)
    if family == "pre_in":
        # x^(m-2k) C(m-2k, k) (1+x)^k
        return _nested(((m - 2 * k, [binom(m - 2 * k, k)]) for k in range(m // 3, -1, -1)),
                       0, 1)
    if family == "he":
        if n == 1:
            return IntPolynomial.const(1)
        # (C(m-k, k) + C(m-1-k, k) x) x^k (1+x)^(m-1-k)
        top = m // 2
        return _nested(((k, [binom(m - k, k), binom(m - 1 - k, k)]) for k in range(top + 1)),
                       m - 1 - top, 1)
    if family == "inv":
        # (C(m-2k-2, k) + C(m-2k-1, k) x) x^(m-2k-1) (1+x)^k
        return _nested(((m - 2 * k - 1, [binom(m - 2 * k - 2, k), binom(m - 2 * k - 1, k)])
                        for k in range((m - 1) // 3, -1, -1)), 0, 1)
    if family == "alt_bell":
        _need(family, n, 1)
        # C(m, k) fe_(m-k) (1+x)^(k-1) for k >= 1, plus fe_m; k falls so
        # that the fe rows are requested in rising order
        head = _nested(((0, [binom(m, k) * c for c in poly("fe", m - k).coeffs])
                        for k in range(m, 0, -1)), 0, 1)
        return head + poly("fe", m)
    if family in ("alt_cat", "alt_del"):
        _need(family, n, 1)
        # x^k c_k (1+x)^(m-1-2k), with c_k = Cat(k) C(m, 2k) or C(m-k, k)
        top = (m - 1) // 2
        coeff = ((lambda k: catalan(k) * binom(m, 2 * k)) if family == "alt_cat" else
                 (lambda k: binom(m - k, k)))
        return _nested(((k, [coeff(k)]) for k in range(top + 1)), m - 1 - 2 * top, 2)
    raise UnknownFamily(f"no closed form for family {family!r}")


def _nested(terms, base: int, step: int) -> IntPolynomial:
    """sum_j T_j (1+x)^(base + step j) from the terms T_J, ..., T_1, T_0 in
    that order, each a pair (a, coeffs) for x^a times the polynomial coeffs,
    by nesting acc = acc (1+x)^step + T_j; each factor (1+x) is one
    shift-and-add."""
    acc = []
    for a, coeffs in terms:
        for _ in range(step):
            acc = list(map(add, acc + [0], [0] + acc))
        if (short := a + len(coeffs) - len(acc)) > 0:
            acc += [0] * short
        acc[a:a + len(coeffs)] = map(add, acc[a:a + len(coeffs)], coeffs)
    for _ in range(base):
        acc = list(map(add, acc + [0], [0] + acc))
    return IntPolynomial.from_list(acc)


# ------------------------------------------------------------- series route
SERIES_FAMILIES = ("del", "pre_he", "pre_in")


def series_coeffs(family: str, x: int, count: int) -> list[int]:
    """First ``count`` values of the family at integer x = q - 1, starting
    at index 0, from the generating-function recurrence:

    del:    c_n = (x+1) c_{n-1} + x c_{n-2}
    pre_he: c_n = (x+1) c_{n-1} + x(x+1) c_{n-2}
    pre_in: c_n = x c_{n-1} + x(x+1) c_{n-3}

    with c_0 = 0 and c_1 = 1 in every family.
    """
    if family not in SERIES_FAMILIES:
        raise UnknownFamily(f"no series recurrence for family {family!r}")
    out = [0, 1][:max(count, 0)]
    for n in range(2, count):
        if family == "del":
            out.append((x + 1) * out[n - 1] + x * out[n - 2])
        elif family == "pre_he":
            out.append((x + 1) * out[n - 1] + x * (x + 1) * out[n - 2])
        else:
            out.append(x * out[n - 1] + x * (x + 1) * (out[n - 3] if n >= 3 else 0))
    return out


# --------------------------------------------------------- derived counters
def degree_count(n: int, e: int, as_polynomial: bool = False, q: int | None = None):
    """Number of Heisenberg characters of U_n with degree q^e.

    The count is q^{n-e-2} (C(n-e-1, e) (q-1)^e + C(n-e-2, e) (q-1)^{e+1});
    a binomial term contributes only when nonzero, which keeps every power
    of q nonnegative.  With as_polynomial=True the result is an
    IntPolynomial in x = q - 1 (q expanded as x + 1); otherwise q must be
    given and the evaluated integer is returned.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if e < 0:
        raise ValueError("e must be >= 0")
    c1, c2 = binom(n - e - 1, e), binom(n - e - 2, e)
    out = ((IntPolynomial.x_power(e, c1) + IntPolynomial.x_power(e + 1, c2))
           * _one_plus_x_pow(n - e - 2))
    if as_polynomial:
        return out
    if q is None:
        raise ValueError("q is required when as_polynomial is false")
    return out(q - 1)


def _sin_quarter(m: int) -> int:
    """sin(m pi / 2) as an exact integer."""
    return (0, 1, 0, -1)[m % 4]


def compositions_space(n: int) -> Space:
    """The 2^(n-1) compositions of n that c_invariant_heis_count sums over;
    the call takes no limit argument."""
    return Space(2 ** (n - 1), f"summing over the compositions of {n}", takes_limit=False)


def c_invariant_heis_count(n: int, q: int, method: str = "compositions") -> int:
    """Number of C-invariant Heisenberg characters of U_{n+1}(F_q),
    which equals In_n(q - 1).

    method "compositions" sums, over compositions (c_1, ..., c_l) of n,
    the product of the part terms (q-1)^{c - 1} - sin(c pi/2) (q-1)^{(c - 1)/2},
    with the sine taken exactly by residue mod 4.  The terms are tabulated
    once, and a depth-first walk extends only prefixes whose product is
    nonzero: a part of size 1 never contributes, and at q = 2 neither does
    a part of size 1 mod 4.  The size guard still counts all 2^(n-1)
    compositions.  Method "recurrence" evaluates In_n at x = q - 1 via
    In_m = x In_{m-1} + x(x+1) In_{m-3}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = q - 1
    if method == "compositions":
        guard_space(compositions_space(n))
        parts = [(c, term) for c in range(1, n + 1)
                 if (term := x ** (c - 1) - _sin_quarter(c) * x ** ((c - 1) // 2))]
        total = 0
        stack = [(n, 1)]  # (remaining size, product of the prefix's terms)
        while stack:
            rest, prod = stack.pop()
            for c, term in parts:
                if c > rest:
                    break
                if c == rest:
                    total += prod * term
                else:
                    stack.append((rest - c, prod * term))
        return total
    if method == "recurrence":
        vals = {0: 0, 1: 0, 2: x, 3: x * (x + 1)}
        for i in range(4, n + 1):
            vals[i] = x * vals[i - 1] + x * (x + 1) * vals[i - 3]
        return vals[n]
    raise ValueError(f"unknown method {method!r}")


def tech_lem_count(d: int, q: int) -> int:
    """f_d(q) = ((q-1)^{2d} - (-1)^d (q-1)^d) / q, checked to be integral."""
    if d < 1:
        raise ValueError("d must be >= 1")
    num = (q - 1) ** (2 * d) - (-1) ** d * (q - 1) ** d
    if num % q:
        raise NonIntegralDivision(f"f_{d}({q}) is not integral")
    return num // q


# ------------------------------------------------------------- sequence table
# Named integer sequences realized by these polynomials.  The provenance
# tag is the OEIS identifier of the sequence (offsets may differ).
SEQUENCES = {
    "fibonacci": ("A000045", "leading coefficient of he at index n+1",
                  lambda k: fibonacci(k)),
    "pell": ("A000129", "del at x=1: Heisenberg supercharacters over F_2",
             lambda k: poly("del", k)(1)),
    "del_q3": ("A007482", "del at x=2: Heisenberg supercharacters over F_3",
               lambda k: poly("del", k)(2)),
    "he_q2": ("A052945", "he at x=1: Heisenberg characters over F_2, from n=1",
              lambda k: poly("he", k + 1)(1)),
    "dp_row1": ("A023610", "D'(1, n): coefficient of x^n in pre_he at n+2",
                lambda k: delannoy("Dp", 1, k)),
    "dp_row1_diff": ("A055244", "D'(1, n) - D'(1, n-2)",
                     lambda k: delannoy("Dp", 1, k) - delannoy("Dp", 1, k - 2)),
    "bell_q2": ("A000110", "bell at x=1: supercharacters over F_2",
                lambda k: poly("bell", k)(1)),
    "catalan_q2": ("A000108", "cat at x=1: irreducible supercharacters over F_2",
                   lambda k: poly("cat", k)(1)),
    "fe_q2": ("A000296", "fe at x=1: C-invariant supercharacters over F_2",
              lambda k: poly("fe", k)(1)),
    "alt_cat_q2": ("A000150", "alt_cat at x=1, from n=2",
                   lambda k: poly("alt_cat", k + 2)(1)),
    "alt_del_q2": ("A105635", "alt_del at x=1, from n=1",
                   lambda k: poly("alt_del", k + 1)(1)),
    "alt_bell_even_diff": ("A102287", "alt_bell - bell(n-1) at x=1, from n=2",
                           lambda k: poly("alt_bell", k + 2)(1) - poly("bell", k + 1)(1)),
    "alt_bell_odd_diff": ("A102286", "bell - alt_bell at x=1, from n=2",
                          lambda k: poly("bell", k + 2)(1) - poly("alt_bell", k + 2)(1)),
}


def sequence_values(name: str, count: int) -> list[int]:
    """First ``count`` values of a named sequence from SEQUENCES."""
    if name not in SEQUENCES:
        raise UnknownFamily(f"unknown sequence {name!r}")
    _, _, fn = SEQUENCES[name]
    return [fn(k) for k in range(count)]
