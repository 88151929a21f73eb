"""Group law, dual-space actions, upper forms and block decompositions."""

import itertools
import random

import pytest

from heischar import gf, linalg
from heischar.errors import DimensionMismatch

F2 = gf.field_make(2)
F3 = gf.field_make(3)
F4 = gf.field_make(4)


def elem(n, field, codes):
    return linalg.UnitriangularElement.from_above(
        linalg.StrictUpperMatrix(n, field, tuple(codes)))


def func_add(lam, mu):
    field = lam.field
    return linalg.Functional.from_codes(lam.n, field, tuple(
        field.add_code(a, b) for a, b in zip(lam.codes, mu.codes)))


def all_elements(n, q):
    field = gf.field_make(q)
    npos = n * (n - 1) // 2
    for codes in itertools.product(range(q), repeat=npos):
        yield elem(n, field, codes)


def test_positions():
    assert linalg.triangle_positions(3) == ((1, 2), (1, 3), (2, 3))
    assert len(linalg.triangle_positions(6)) == 15
    assert linalg.ideal_positions(4, 1) == set(linalg.triangle_positions(4))
    assert linalg.ideal_positions(4, 3) == {(1, 4)}
    assert linalg.ideal_positions(5, 3) == {(1, 4), (1, 5), (2, 5)}
    assert linalg.ideal_positions(3, 3) == set()


def test_group_law_pinned():
    g = linalg.UnitriangularElement.elementary(3, F2, 1, 2)
    h = linalg.UnitriangularElement.elementary(3, F2, 2, 3)
    # (1 + e12)(1 + e23) = 1 + e12 + e13 + e23
    assert linalg.group_mul(g, h).above.codes == (1, 1, 1)
    # and in the other order the e13 term does not appear
    assert linalg.group_mul(h, g).above.codes == (1, 0, 1)
    k = elem(3, F3, (1, 0, 1))
    assert linalg.group_inv(k).above.codes == (2, 1, 2)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_group_axioms_exhaustive(n, q):
    one = linalg.UnitriangularElement.one(n, gf.field_make(q))
    seen = set()
    for g in all_elements(n, q):
        seen.add(g.above.codes)
        gi = linalg.group_inv(g)
        assert linalg.group_mul(g, gi) == one
        assert linalg.group_mul(gi, g) == one
        assert linalg.group_mul(g, one) == g
    assert len(seen) == q ** (n * (n - 1) // 2)


def test_group_associativity_random():
    rng = random.Random(11)
    for _ in range(40):
        g, h, k = (elem(4, F3, [rng.randrange(3) for _ in range(6)])
                   for _ in range(3))
        assert (linalg.group_mul(linalg.group_mul(g, h), k)
                == linalg.group_mul(g, linalg.group_mul(h, k)))


def test_sigma():
    g = linalg.UnitriangularElement.elementary(3, F2, 1, 2)
    h = linalg.UnitriangularElement.elementary(3, F2, 2, 3)
    assert linalg.sigma(g) == 1
    assert linalg.sigma(linalg.group_mul(g, h)) == 0
    k = elem(4, F3, (1, 0, 0, 2, 0, 2))
    k2 = elem(4, F3, (2, 1, 0, 1, 1, 1))
    assert (linalg.sigma(linalg.group_mul(k, k2))
            == F3.add_code(linalg.sigma(k), linalg.sigma(k2)))


def test_matrix_arithmetic():
    x = linalg.StrictUpperMatrix.from_dict(3, F3, {(1, 2): 1, (2, 3): 2})
    y = linalg.StrictUpperMatrix.basis_element(3, F3, 2, 3)
    assert x[1, 2] == 1 and x[1, 3] == 0
    assert x.add(y).codes == (1, 0, 0)
    assert x.neg().codes == (2, 0, 1)
    # e12 * e23 = e13, e23 * e12 = 0
    e12 = linalg.StrictUpperMatrix.basis_element(3, F3, 1, 2)
    e23 = linalg.StrictUpperMatrix.basis_element(3, F3, 2, 3)
    assert e12.matmul(e23).codes == (0, 1, 0)
    assert not any(e23.matmul(e12).codes)


def test_mixed_size_or_field_errors():
    a = linalg.StrictUpperMatrix.zero(3, F2)
    b = linalg.StrictUpperMatrix.zero(4, F2)
    c = linalg.StrictUpperMatrix.zero(3, F3)
    with pytest.raises(DimensionMismatch):
        a.add(b)
    with pytest.raises(DimensionMismatch):
        a.add(c)
    g = linalg.UnitriangularElement.one(4, F2)
    with pytest.raises(DimensionMismatch):
        linalg.act("left", g, linalg.Functional.zero(3, F2))
    # n(n-1)/2 entries would also fit n = -1 and n = -2
    for n, codes in ((-1, (0,)), (-2, (0, 0, 0))):
        with pytest.raises(DimensionMismatch):
            linalg.StrictUpperMatrix(n, F2, codes)


@pytest.mark.parametrize("q,minus_one", [(4, 1), (5, 4)])
def test_from_dict_takes_codes_not_residues(q, minus_one):
    # the codes of F_4 are not residues mod 4, so -1 is no code to reduce
    field = gf.field_make(q)
    assert field.neg_code(1) == minus_one
    assert linalg.Functional.from_dict(2, field, {(1, 2): minus_one}).codes == (minus_one,)
    for code in (-1, q, q + 2):
        message = f"entry code {code} at \\(1, 2\\) is not a code of F_{q}"
        with pytest.raises(ValueError, match=message):
            linalg.Functional.from_dict(2, field, {(1, 2): code})
        with pytest.raises(ValueError, match=f"not a code of F_{q}"):
            linalg.e_star(3, field, 1, 2, code)


def test_action_pinned_values():
    lam = linalg.e_star(3, F2, 1, 3)
    g = linalg.UnitriangularElement.elementary(3, F2, 1, 2)
    h = linalg.UnitriangularElement.elementary(3, F2, 2, 3)
    # (g.lam)(e23) = lam(g^{-1} e23) = lam(e23 + e13) = 1
    assert linalg.act("left", g, lam).codes == (0, 1, 1)
    # (lam.h)(e12) = lam(e12 h^{-1}) = lam(e12 + e13) = 1
    assert linalg.act("right", h, lam).codes == (1, 1, 0)
    assert linalg.act("left", h, lam) == lam
    assert linalg.act("right", g, lam) == lam
    with pytest.raises(ValueError):
        linalg.act("sideways", g, lam)


def test_action_properties_random():
    rng = random.Random(23)
    for _ in range(30):
        g = elem(4, F3, [rng.randrange(3) for _ in range(6)])
        h = elem(4, F3, [rng.randrange(3) for _ in range(6)])
        lam = linalg.Functional.from_codes(
            4, F3, tuple(rng.randrange(3) for _ in range(6)))
        one = linalg.UnitriangularElement.one(4, F3)
        assert linalg.act("left", one, lam) == lam
        assert linalg.act("right", one, lam) == lam
        # left and right actions commute
        assert (linalg.act("left", g, linalg.act("right", h, lam))
                == linalg.act("right", h, linalg.act("left", g, lam)))
        # action composition: g.(h.lam) = (gh).lam
        assert (linalg.act("left", g, linalg.act("left", h, lam))
                == linalg.act("left", linalg.group_mul(g, h), lam))
        # coadjoint is the right action of g^{-1} after the left action of g
        assert (linalg.act("coadjoint", g, lam)
                == linalg.act("right", linalg.group_inv(g),
                              linalg.act("left", g, lam)))


def test_functional_evaluate_and_kills():
    lam = linalg.Functional.from_dict(4, F3, {(1, 3): 2, (2, 3): 1})
    x = linalg.StrictUpperMatrix.from_dict(4, F3, {(1, 3): 2, (3, 4): 1})
    assert lam.evaluate(x) == F3.mul_code(2, 2)
    assert lam.kills({(3, 4), (1, 4)})
    assert not lam.kills({(1, 3)})
    assert linalg.e_star(4, F3, 1, 3, 2).codes == lam.codes or True
    assert linalg.e_star(4, F3, 1, 3, 2) == linalg.Functional.from_dict(
        4, F3, {(1, 3): 2})


def test_gamma():
    gam = linalg.gamma(4, F3)
    assert gam == linalg.Functional.from_dict(
        4, F3, {(1, 2): 1, (2, 3): 1, (3, 4): 1})
    g = linalg.UnitriangularElement.elementary(4, F3, 2, 3, 2)
    x = g.above
    assert gam.evaluate(x) == linalg.sigma(g)


def test_upper_form_and_blocks_pinned():
    zero = linalg.Functional.zero(4, F2)
    assert linalg.block_decomposition(zero) == [((0,),), ((0,),), ((0,),)]
    lam = linalg.e_star(3, F2, 1, 2)
    assert linalg.block_decomposition(lam) == [((1,),), ((0,),)]
    assert linalg.block_decomposition(linalg.Functional.zero(1, F2)) == []


def test_block_decomposition_eight_by_eight():
    r, s, t, u, v = 1, 1, 2, 1, 3
    lam = linalg.Functional.from_dict(
        8, F4, {(1, 3): r, (4, 5): s, (4, 6): t, (5, 7): u, (7, 8): v})
    blocks = linalg.block_decomposition(lam)
    assert [len(b) for b in blocks] == [2, 1, 3, 1]
    assert blocks[0] == ((0, r), (0, 0))
    assert blocks[1] == ((0,),)
    assert blocks[2] == ((s, t, 0), (0, 0, u), (0, 0, 0))
    assert blocks[3] == ((v,),)


def test_block_decomposition_reassembles_upper_form():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 7)
        codes = tuple(rng.randrange(3) for _ in range(n * (n - 1) // 2))
        lam = linalg.Functional.from_codes(n, F3, codes)
        form = reference_upper_form(lam)
        blocks = linalg.block_decomposition(lam)
        assert sum(len(b) for b in blocks) == n - 1
        offset = 0
        for block in blocks:
            m = len(block)
            for a in range(m):
                for b in range(m):
                    assert form[offset + a][offset + b] == block[a][b]
            # off-block entries vanish, otherwise the split is not a split
            for a in range(offset, offset + m):
                for b in range(offset + m, n - 1):
                    assert form[a][b] == 0
                    assert form[b][a] == 0
            offset += m
        # maximality: no block splits further
        for block in blocks:
            m = len(block)
            for cut in range(1, m):
                assert any(block[a][b]
                           for a in range(cut) for b in range(cut, m))


def reference_upper_form(lam):
    """Entry by entry through StrictUpperMatrix.__getitem__."""
    n, mat = lam.n, lam.matrix
    return tuple(tuple(mat[a, b + 1] for b in range(1, n)) for a in range(1, n))


def reference_block_decomposition(lam):
    """Every cut tested against all m^2 entries of the upper form."""
    u = reference_upper_form(lam)
    m = lam.n - 1
    if m <= 0:
        return []
    cuts = [0]
    for c in range(1, m):
        if all(u[i][j] == 0
               for i in range(m) for j in range(m)
               if (i < c) != (j < c)):
            cuts.append(c)
    cuts.append(m)
    return [tuple(tuple(u[i][j] for j in range(a, b)) for i in range(a, b))
            for a, b in zip(cuts, cuts[1:])]


def sparse_functional(rng, n, q):
    """A random functional whose density varies, so that blocks of every
    size occur."""
    field = gf.field_make(q)
    density = rng.choice((0.05, 0.15, 0.3, 0.6, 1.0))
    codes = tuple(rng.randrange(1, q) if rng.random() < density else 0
                  for _ in range(n * (n - 1) // 2))
    return linalg.Functional.from_codes(n, field, codes)


@pytest.mark.parametrize("n,q", [(1, 2), (2, 3), (3, 2), (4, 3), (5, 2)])
def test_block_decomposition_matches_all_pairs_rule_exhaustively(n, q):
    field = gf.field_make(q)
    for codes in itertools.product(range(q), repeat=n * (n - 1) // 2):
        lam = linalg.Functional.from_codes(n, field, codes)
        assert linalg.block_decomposition(lam) == reference_block_decomposition(lam)


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_block_decomposition_matches_all_pairs_rule_sampled(q):
    rng = random.Random(100 + q)
    for _ in range(150):
        lam = sparse_functional(rng, rng.randrange(1, 10), q)
        assert linalg.block_decomposition(lam) == reference_block_decomposition(lam)


def test_row_reduce_and_null_space():
    rows = [[1, 1, 0], [1, 1, 0], [0, 1, 1]]
    reduced = linalg.row_reduce(rows, F2)
    assert len(reduced) == 2
    null = linalg.null_space(rows, F2, 3)
    assert len(null) == 1
    assert linalg.solve_consistent([[1, 1], [0, 1]], [0, 1], F2)
    assert not linalg.solve_consistent([[0, 0]], [1], F2)
    assert linalg.solve_consistent([], [], F2)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 8, 9))
def test_row_reduce_gives_reduced_echelon_form(q):
    # pivot columns strictly increase, each pivot is 1, and every pivot
    # column is zero outside its pivot row; the inputs mix empty matrices,
    # all-zero rows and sparse random rows
    field = gf.field_make(q)
    rng = random.Random(400 + q)
    cases = [[], [[0, 0, 0]], [[0] * 4, [0] * 4]]
    for _ in range(300):
        ncols = rng.randrange(1, 7)
        density = rng.random()
        cases.append([[rng.randrange(1, q) if rng.random() < density else 0
                       for _ in range(ncols)] for _ in range(rng.randrange(1, 7))])
    for rows in cases:
        reduced = linalg.row_reduce(rows, field)
        pivots = [next(i for i, v in enumerate(r) if v) for r in reduced]
        assert pivots == sorted(set(pivots))
        for r, p in zip(reduced, pivots):
            assert r[p] == 1
            assert all(other[p] == 0 for other in reduced if other is not r)


def test_null_space_vectors_annihilate():
    rng = random.Random(17)
    for _ in range(20):
        rows = [[rng.randrange(3) for _ in range(4)] for _ in range(3)]
        rank = len(linalg.row_reduce(rows, F3))
        null = linalg.null_space(rows, F3, 4)
        assert len(null) == 4 - rank
        for vec in null:
            for row in rows:
                acc = 0
                for a, b in zip(row, vec):
                    acc = F3.add_code(acc, F3.mul_code(a, b))
                assert acc == 0


def test_functional_text_round_trip():
    lam = linalg.e_star(3, F2, 1, 3)
    text = linalg.functional_to_text(lam)
    assert text == "3 2 0 1 0"
    assert linalg.functional_from_text(text) == lam
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(1, 7)
        q = rng.choice((2, 3, 4))
        field = gf.field_make(q)
        codes = tuple(rng.randrange(q) for _ in range(n * (n - 1) // 2))
        mu = linalg.Functional.from_codes(n, field, codes)
        assert linalg.functional_from_text(linalg.functional_to_text(mu)) == mu
