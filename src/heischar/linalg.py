"""Strictly upper triangular matrices over F_q, the unitriangular group,
and functionals on its Lie algebra.

Conventions, fixed throughout the package:

* indices are 1-based; the strict upper triangle of an n x n matrix is
  stored row-major as positions (1,2), (1,3), ..., (1,n), (2,3), ...;
* a functional lambda is its matrix X, with
  lambda(Y) = sum_{i<j} X_ij * Y_ij: a Functional is a StrictUpperMatrix
  that compares equal only to Functionals;
* group actions on functionals: (g.lam)(X) = lam(g^{-1} X) on the left,
  (lam.g)(X) = lam(X g^{-1}) on the right, and the coadjoint action is
  X |-> lam(g^{-1} X g), i.e. right action by g^{-1} after left by g;
* the upper form of lambda is the (n-1) x (n-1) array U[a][b] = X[a][b+1]
  (rows 1..n-1 and columns 2..n of X); its blocks are cut from the codes.

The definitions ``act``, ``group_mul``, ``sigma``, ``e_star``,
``ideal_positions``, ``Functional.zero``, ``Functional.evaluate``,
``Functional.kills`` and ``UnitriangularElement.mul_matrix_left`` /
``mul_matrix_right`` are reference API: the CLI runs the oracle's compiled
moves and the block kernels instead, and the tests hold those to these
entry-by-entry definitions, so they stay here rather than in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import DimensionMismatch
from .gf import FieldSpec, field_make


@lru_cache(maxsize=None)
def triangle_positions(n: int) -> tuple[tuple[int, int], ...]:
    """Row-major list of strict upper-triangle positions (i, j), 1-based."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def _position_index(n: int) -> dict[tuple[int, int], int]:
    return {ij: a for a, ij in enumerate(triangle_positions(n))}


def ideal_positions(n: int, k: int) -> set[tuple[int, int]]:
    """Positions of the ideal n^k: pairs (i, j) with j >= i + k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return {(i, j) for i, j in triangle_positions(n) if j >= i + k}


def _check_same(a, b):
    if a.n != b.n or a.field.q != b.field.q:
        raise DimensionMismatch(
            f"size {a.n} over F_{a.field.q} vs size {b.n} over F_{b.field.q}")


@dataclass(frozen=True)
class StrictUpperMatrix:
    """An element of u_n: a strictly upper triangular n x n matrix.

    ``codes`` holds the field codes of the entries above the diagonal in
    row-major order (length n(n-1)/2).
    """

    n: int
    field: FieldSpec
    codes: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise DimensionMismatch(f"size {self.n} is negative")
        if len(self.codes) != self.n * (self.n - 1) // 2:
            raise DimensionMismatch(
                f"expected {self.n * (self.n - 1) // 2} entries, got {len(self.codes)}")

    @classmethod
    def zero(cls, n: int, field: FieldSpec) -> "StrictUpperMatrix":
        return cls(n, field, (0,) * (n * (n - 1) // 2))

    @classmethod
    def from_dict(cls, n: int, field: FieldSpec,
                  entries: dict[tuple[int, int], int]) -> "StrictUpperMatrix":
        idx = _position_index(n)
        codes = [0] * (n * (n - 1) // 2)
        for ij, c in entries.items():
            if not 0 <= c < field.q:
                raise ValueError(f"entry code {c} at {ij} is not a code of F_{field.q}")
            codes[idx[ij]] = c
        return cls(n, field, tuple(codes))

    @classmethod
    def basis_element(cls, n: int, field: FieldSpec, i: int, j: int,
                      code: int = 1) -> "StrictUpperMatrix":
        """c * e_{ij} for a single position i < j."""
        return cls.from_dict(n, field, {(i, j): code})

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if j <= i:
            return 0
        return self.codes[_position_index(self.n)[ij]]

    def add(self, other: "StrictUpperMatrix") -> "StrictUpperMatrix":
        _check_same(self, other)
        f = self.field
        return StrictUpperMatrix(
            self.n, f, tuple(f.add_code(a, b) for a, b in zip(self.codes, other.codes)))

    def neg(self) -> "StrictUpperMatrix":
        f = self.field
        return StrictUpperMatrix(self.n, f, tuple(f.neg_code(a) for a in self.codes))

    def matmul(self, other: "StrictUpperMatrix") -> "StrictUpperMatrix":
        """Matrix product; the result is again strictly upper triangular."""
        _check_same(self, other)
        f = self.field
        out = {}
        for (i, j) in triangle_positions(self.n):
            acc = 0
            for k in range(i + 1, j):
                acc = f.add_code(acc, f.mul_code(self[i, k], other[k, j]))
            if acc:
                out[(i, j)] = acc
        return StrictUpperMatrix.from_dict(self.n, self.field, out)


@dataclass(frozen=True)
class UnitriangularElement:
    """An element g = 1 + A of the group U_n(F_q), stored via A in u_n."""

    n: int
    field: FieldSpec
    above: StrictUpperMatrix

    @classmethod
    def one(cls, n: int, field: FieldSpec) -> "UnitriangularElement":
        return cls(n, field, StrictUpperMatrix.zero(n, field))

    @classmethod
    def from_above(cls, above: StrictUpperMatrix) -> "UnitriangularElement":
        return cls(above.n, above.field, above)

    @classmethod
    def elementary(cls, n: int, field: FieldSpec, i: int, j: int,
                   t: int = 1) -> "UnitriangularElement":
        """The elementary element 1 + t*e_{ij}."""
        return cls(n, field, StrictUpperMatrix.basis_element(n, field, i, j, t))

    def entry(self, i: int, j: int) -> int:
        if i == j:
            return 1
        return self.above[i, j]

    def mul_matrix_left(self, x: StrictUpperMatrix) -> StrictUpperMatrix:
        """The product g * x (a strictly upper matrix)."""
        return x.add(self.above.matmul(x))

    def mul_matrix_right(self, x: StrictUpperMatrix) -> StrictUpperMatrix:
        """The product x * g (a strictly upper matrix)."""
        return x.add(x.matmul(self.above))


def group_mul(g: UnitriangularElement, h: UnitriangularElement) -> UnitriangularElement:
    """Product in U_n: (1+A)(1+B) = 1 + A + B + AB."""
    _check_same(g, h)
    a, b = g.above, h.above
    return UnitriangularElement(g.n, g.field, a.add(b).add(a.matmul(b)))


def group_inv(g: UnitriangularElement) -> UnitriangularElement:
    """Inverse in U_n via the Neumann series (1+A)^{-1} = sum (-A)^m."""
    a = g.above
    neg_a = a.neg()
    acc = neg_a
    term = neg_a
    for _ in range(g.n - 2):
        term = term.matmul(neg_a)
        acc = acc.add(term)
    return UnitriangularElement(g.n, g.field, acc)


def sigma(g: UnitriangularElement) -> int:
    """Sum of the superdiagonal entries of g (a field code).

    The kernel of sigma on U_n is the subgroup 1 + h with
    h = {X : sum_i X_{i,i+1} = 0}.
    """
    f = g.field
    acc = 0
    for i in range(1, g.n):
        acc = f.add_code(acc, g.entry(i, i + 1))
    return acc


@dataclass(frozen=True)
class Functional(StrictUpperMatrix):
    """A linear functional on u_n, which is its matrix X:
    lambda(Y) = sum_{i<j} X_ij * Y_ij.  It never equals a
    StrictUpperMatrix with the same codes; ``matrix`` is that view."""

    @classmethod
    def from_codes(cls, n: int, field: FieldSpec, codes: tuple[int, ...]) -> "Functional":
        return cls(n, field, codes)

    @property
    def matrix(self) -> StrictUpperMatrix:
        return StrictUpperMatrix(self.n, self.field, self.codes)

    def evaluate(self, x: StrictUpperMatrix) -> int:
        """lambda(x) as a field code."""
        if x.n != self.n or x.field.q != self.field.q:
            raise DimensionMismatch("functional and matrix sizes differ")
        f = self.field
        acc = 0
        for a, b in zip(self.codes, x.codes):
            if a and b:
                acc = f.add_code(acc, f.mul_code(a, b))
        return acc

    def kills(self, positions: set[tuple[int, int]]) -> bool:
        """True iff the matrix of lambda vanishes on the given positions.

        For an ideal n^k this decides lambda(n^k) = 0, since the e_{ij}
        with (i, j) in ideal_positions(n, k) form a basis of n^k.
        """
        return all(self[ij] == 0 for ij in positions)


def e_star(n: int, field: FieldSpec, i: int, j: int, code: int = 1) -> Functional:
    """The dual basis functional c * e*_{ij}."""
    return Functional.from_dict(n, field, {(i, j): code})


def gamma(n: int, field: FieldSpec) -> Functional:
    """The superdiagonal-sum functional e*_{1,2} + ... + e*_{n-1,n}.

    gamma vanishes on n^2, so it is invariant under the one-sided actions;
    translation by multiples of gamma commutes with everything below.
    """
    return Functional.from_dict(n, field, {(i, i + 1): 1 for i in range(1, n)})


_MODES = ("left", "right", "coadjoint")


def act(mode: str, g: UnitriangularElement, lam: Functional) -> Functional:
    """Apply a group action to a functional.

    mode "left":      (g.lam)(X) = lam(g^{-1} X)
    mode "right":     (lam.g)(X) = lam(X g^{-1})
    mode "coadjoint": lam(g^{-1} X g), the composite of the two.

    Computed by evaluating lam on the transformed basis elements e_{ij};
    one code path serves all modes.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if g.n != lam.n or g.field.q != lam.field.q:
        raise DimensionMismatch("group element and functional sizes differ")
    n, field = lam.n, lam.field
    ginv = group_inv(g)
    out = {}
    for (i, j) in triangle_positions(n):
        e = StrictUpperMatrix.basis_element(n, field, i, j)
        if mode == "left":
            t = ginv.mul_matrix_left(e)
        elif mode == "right":
            t = ginv.mul_matrix_right(e)
        else:
            t = g.mul_matrix_right(ginv.mul_matrix_left(e))
        c = lam.evaluate(t)
        if c:
            out[(i, j)] = c
    return Functional.from_dict(n, field, out)


@lru_cache(maxsize=None)
def row_starts(n: int) -> tuple[int, ...]:
    """Row a of the upper form of a functional on u_n is
    codes[start[a]:start[a + 1]], its diagonal cell first."""
    return tuple(accumulate(range(n - 1, 0, -1), initial=0))


def block_bounds(lam: Functional) -> list[tuple[int, int]]:
    """The rows (a, b) = a..b-1 of each block of block_decomposition.

    A nonzero U[i][j] forbids exactly the cuts i < c <= j, so one pass
    over the rows of codes keeps ``reach``, the largest such j so far,
    and cuts after row c - 1 when reach < c.  Past its first two cells,
    a row is searched for its last nonzero only when it has one.
    """
    codes, start, m = lam.codes, row_starts(lam.n), lam.n - 1
    bounds, a, reach = [], 0, 0
    for c, s, t in zip(range(1, m), start, start[1:]):
        if any(codes[s + 2:t]):
            j = t - 1
            while not codes[j]:
                j -= 1
            reach = max(reach, j - s + c - 1)
        elif codes[s + 1] and reach < c:
            reach = c
        if reach < c:
            bounds.append((a, c))
            a = c
    if m > 0:
        bounds.append((a, m))
    return bounds


def block_decomposition(lam: Functional) -> list[tuple[tuple[int, ...], ...]]:
    """Maximal block-diagonal decomposition of the upper form of lambda.

    A cut after row/column c (1 <= c <= n-2 in the upper form) is valid when
    U[i][j] = 0 whenever exactly one of i, j is <= c.  The decomposition
    cuts at every valid c, so the returned square diagonal blocks
    B_1, ..., B_l are as small as possible and their sizes sum to n-1;
    they are sliced from the codes at their block_bounds.
    """
    codes, start = lam.codes, row_starts(lam.n)
    return [tuple([(0,) * (r - a) + codes[s:s + b - r] for r, s in enumerate(start[a:b], a)])
            if b - a > 1 else (codes[start[a]:start[a] + 1],) for a, b in block_bounds(lam)]


# ------------------------------------------------- linear algebra over F_q
def _eliminate(rows, field: FieldSpec, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of code rows: the reduced row echelon form
    (zero rows dropped) and its pivot columns, in order.

    Every route to an echelon form goes through here.  Arithmetic is by
    indexing rows of the field's tables: a pivot row is scaled by the row
    of mul_table of its pivot's inverse, and each row it clears is rebuilt
    in one comprehension, a - f * p as add[a][mul[-f][p]]."""
    add, mul, inv, neg = field.add_table, field.mul_table, field.inv_table, field.neg_table
    rows = [r for r in rows if any(r)]
    out, pivots = [], []
    for col in range(ncols):
        k = next((k for k, r in enumerate(rows) if r[col]), None)
        if k is None:
            continue
        m = mul[inv[rows[k][col]]]
        p = [m[v] for v in rows.pop(k)]
        for group in (rows, out):
            for i, r in enumerate(group):
                if r[col]:
                    m = mul[neg[r[col]]]
                    group[i] = [add[a][m[b]] for a, b in zip(r, p)]
        out.append(p)
        pivots.append(col)
    return out, pivots


def row_reduce(rows, field: FieldSpec) -> list[list[int]]:
    """Reduced row echelon form of a list of code rows (zero rows dropped)."""
    rows = list(rows)
    return _eliminate(rows, field, len(rows[0]) if rows else 0)[0]


def null_space(rows, field: FieldSpec, ncols: int) -> list[list[int]]:
    """Canonical basis of {x : M x = 0} for the matrix with the given rows:
    one vector per free column f, 1 at f, 0 at the other free columns."""
    red, pivots = _eliminate(rows, field, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [0] * ncols
        vec[fcol] = 1
        for r, p in zip(red, pivots):
            vec[p] = field.neg_table[r[fcol]]
        basis.append(vec)
    return basis


def solve_consistent(rows, rhs, field: FieldSpec) -> bool:
    """Whether M x = rhs has any solution over the field: no pivot of the
    augmented matrix lies in its last column."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    return ncols not in _eliminate(aug, field, ncols + 1)[1]


def functional_to_text(lam: Functional) -> str:
    """Canonical text form: "n q c1 c2 ... cN" (row-major codes)."""
    return " ".join([str(lam.n), str(lam.field.q)] + [str(c) for c in lam.codes])


def functional_from_text(text: str) -> Functional:
    try:
        n, q, *codes = map(int, text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse functional from {text!r}") from None
    field = field_make(q)
    bad = next((c for c in codes if not 0 <= c < q), None)
    if bad is not None:
        raise ValueError(f"cannot parse functional from {text!r}: "
                         f"code {bad} is not in 0..{q - 1}")
    return Functional.from_codes(n, field, tuple(codes))
