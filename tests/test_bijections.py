"""Path/functional/partition translations and invariance predicates."""

import pytest

from heischar import bijections, counting, gf, linalg, oracle
from heischar.bijections import (
    CLASS_X,
    CLASS_Y,
    NEITHER,
    classify_functional,
    functional_to_path,
    heis_degree_exponent,
    heis_degree_histogram,
    is_c_invariant_heis_path,
    is_c_invariant_partition,
    is_linear_invariant_heis_path,
    path_to_functional,
    pell_path_to_partition,
)
from heischar.combinat import (
    LabeledSetPartition,
    enumerate_partitions,
    enumerate_paths,
    is_noncrossing,
    partition_to_functional,
    path_from_text,
    path_to_text,
    shift,
)
from heischar.errors import NotClassX, NotInFamily

F2 = gf.field_make(2)
F3 = gf.field_make(3)
F4 = gf.field_make(4)


def all_functionals(n, q):
    field = gf.field_make(q)
    npos = n * (n - 1) // 2
    total = q ** npos
    for k in range(total):
        codes = []
        for _ in range(npos):
            k, r = divmod(k, q)
            codes.append(r)
        yield linalg.Functional.from_codes(n, field, tuple(codes))


# ------------------------------------------------------------ path -> lambda
def test_path_to_functional_worked_example():
    path = path_from_text("R N(1) U(1) UU(1,1)", 2)
    lam = path_to_functional(path)
    assert lam.n == 7
    assert lam == linalg.Functional.from_dict(
        7, F2, {(2, 4): 1, (4, 5): 1, (4, 6): 1, (5, 7): 1})


def test_round_trip_worked_example_q4():
    path = path_from_text("N(1) R U(1) UU(2,1) U(3)", 4)
    lam = path_to_functional(path)
    assert lam == linalg.Functional.from_dict(
        8, F4, {(1, 3): 1, (4, 5): 1, (4, 6): 2, (5, 7): 1, (7, 8): 3})
    witness = classify_functional(lam)
    assert witness.classification == CLASS_X
    assert witness.kinds == ("b", "a", "c", "a")
    assert witness.offending_block is None
    assert functional_to_path(lam) == path
    assert heis_degree_exponent(path) == 2


def test_zero_functional_is_all_r():
    zero = linalg.Functional.zero(4, F2)
    witness = classify_functional(zero)
    assert witness.classification == CLASS_Y
    assert witness.kinds == ("a", "a", "a")
    assert path_to_text(functional_to_path(zero)) == "R R R"
    assert path_to_functional(functional_to_path(zero)) == zero


def test_unclassifiable_functional():
    lam = linalg.e_star(5, F2, 1, 4)
    witness = classify_functional(lam)
    assert witness.classification == NEITHER
    assert witness.kinds == (None, "a")
    assert witness.offending_block == 0
    with pytest.raises(NotClassX) as info:
        functional_to_path(lam)
    assert info.value.block_index == 0


def test_family_guards():
    with pytest.raises(NotInFamily, match="cannot start with UU"):
        path_to_functional(path_from_text("UU(1,1)", 2))
    with pytest.raises(NotInFamily, match="step 1 is not a pell step"):
        pell_path_to_partition(path_from_text("R UU(1,1) R", 2))
    with pytest.raises(NotInFamily, match="step 0 is not a heis step"):
        path_to_functional(path_from_text("D21(1)", 2))


def test_family_guard_names_first_offending_step():
    # the message is pinned whole: the first step outside the family,
    # counted from 0, wins over later ones and over a leading UU
    path = path_from_text("R U(1) UU(1,1) R UU(1,1)", 2)
    with pytest.raises(NotInFamily) as info:
        pell_path_to_partition(path)
    assert str(info.value) == "step 2 is not a pell step"
    with pytest.raises(NotInFamily) as info:
        pell_path_to_partition(path_from_text("UU(1,1) D21(1)", 2))
    assert str(info.value) == "step 0 is not a pell step"
    assert heis_degree_exponent(path) == 2


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_round_trip_and_image(n, q):
    paths = list(enumerate_paths("heis_tilde", n, q))
    image = set()
    for path in paths:
        lam = path_to_functional(path)
        assert lam.n == n
        assert functional_to_path(lam) == path
        image.add(lam.codes)
    assert len(image) == len(paths)
    classified = set()
    for lam in all_functionals(n, q):
        witness = classify_functional(lam)
        if witness.classification in (CLASS_X, CLASS_Y):
            classified.add(lam.codes)
            assert path_to_functional(functional_to_path(lam)) == lam
    assert image == classified


# -------------------------------------------------------- pell -> partitions
def test_pell_partition_single_steps():
    one = pell_path_to_partition(path_from_text("U(2)", 3))
    assert (one.n, one.arcs) == (2, ((1, 2, 2),))
    two = pell_path_to_partition(path_from_text("N(2)", 3))
    assert (two.n, two.arcs) == (3, ((1, 3, 2),))
    empty = pell_path_to_partition(path_from_text("R R", 3))
    assert (empty.n, empty.arcs) == (3, ())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("q", (2, 3))
def test_pell_partition_bijection(n, q):
    image = set()
    for path in enumerate_paths("pell", n, q):
        part = pell_path_to_partition(path)
        assert part.n == n
        assert is_noncrossing(part)
        assert all(j - i <= 2 for i, j in part.arc_pairs())
        # the partition carries the same functional as the path
        assert partition_to_functional(part) == path_to_functional(path)
        image.add(part.arcs)
    target = {p.arcs for p in enumerate_partitions(n, q, "heis_support")
              if is_noncrossing(p)}
    assert image == target
    assert len(image) == counting.poly("del", n)(q - 1)


# ------------------------------------------------------------------- degrees
def test_degree_histograms_pinned():
    expected = {
        (2, 2): {0: 2}, (2, 3): {0: 3},
        (3, 2): {0: 4, 1: 1}, (3, 3): {0: 9, 1: 2},
        (4, 2): {0: 8, 1: 6}, (4, 3): {0: 27, 1: 24},
        (5, 2): {0: 16, 1: 20, 2: 2}, (5, 3): {0: 81, 1: 126, 2: 12},
    }
    for (n, q), hist in expected.items():
        assert heis_degree_histogram(n, q) == hist, (n, q)
        for e, count in hist.items():
            assert counting.degree_count(n, e, q=q) == count
        assert sum(hist.values()) == counting.poly("he", n)(q - 1)


# ------------------------------------------------------ invariance predicates
@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("q", (2, 3))
def test_linear_invariant_census(n, q):
    paths = list(enumerate_paths("heis_tilde", n, q))
    census = sum(is_linear_invariant_heis_path(p) for p in paths)
    if n % 2 == 1:
        k = (n - 1) // 2
        assert census == q ** (k - 1) * (q - 1) ** k
    else:
        assert census == 0
    for path in paths:
        if is_linear_invariant_heis_path(path):
            assert all(s in ((1, 1), (0, 2)) for s, _ in path.steps)
            # invariance under all linear characters implies C-invariance
            assert is_c_invariant_heis_path(path)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("q", (2, 3))
def test_c_invariant_path_census(n, q):
    census = sum(is_c_invariant_heis_path(p)
                 for p in enumerate_paths("heis_tilde", n, q))
    assert census == counting.poly("inv", n - 1)(q - 1)
    assert census == counting.c_invariant_heis_count(n - 1, q)


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2), (5, 3), (4, 4), (4, 5)])
def test_c_invariant_path_matches_coadjoint_translation(n, q):
    # path by path, not only in total: the block predicate holds exactly
    # when lam + t gamma lies in the coadjoint orbit of lam for every t
    field = gf.field_make(q)
    gamma = linalg.gamma(n, field).codes
    for path in enumerate_paths("heis_tilde", n, q):
        lam = path_to_functional(path)
        orb = oracle.orbit(lam, "coadjoint")
        translated = all(
            linalg.Functional.from_codes(n, field, tuple(
                field.add_code(a, field.mul_code(t, g)) for a, g in zip(lam.codes, gamma)))
            in orb for t in range(1, q))
        assert is_c_invariant_heis_path(path) == translated, path_to_text(path)


@pytest.mark.parametrize("n,q", [(4, 2), (4, 3), (5, 2), (5, 3), (4, 4), (4, 5)])
def test_c_invariant_partition_matches_two_sided_translation(n, q):
    # partition by partition, not only in total: the arc predicate holds
    # exactly when lam + t gamma lies in the two-sided orbit of lam for
    # every t, lam the partition's functional
    field = gf.field_make(q)
    gamma = linalg.gamma(n, field).codes
    for part in enumerate_partitions(n, q, "all"):
        lam = partition_to_functional(part)
        orb = {mu.codes for mu in oracle.orbit(lam, "two_sided")}
        translated = all(
            tuple(field.add_code(a, field.mul_code(t, g)) for a, g in zip(lam.codes, gamma))
            in orb for t in range(1, q))
        assert is_c_invariant_partition(part) == translated, part.arcs


def test_invariance_notions_diverge():
    paths = list(enumerate_paths("heis_tilde", 7, 2))
    linear = sum(is_linear_invariant_heis_path(p) for p in paths)
    tridiagonal = sum(is_c_invariant_heis_path(p) for p in paths)
    assert (linear, tridiagonal) == (4, 8)
    both12 = list(enumerate_paths("heis_tilde", 5, 3))
    assert sum(is_linear_invariant_heis_path(p) for p in both12) == 12
    assert sum(is_c_invariant_heis_path(p) for p in both12) == 12


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("q", (2, 3))
def test_c_invariant_partition_census(n, q):
    census = sum(is_c_invariant_partition(p)
                 for p in enumerate_partitions(n, q, "all"))
    assert census == counting.poly("fe", n - 1)(q - 1)
    # arc shift carries feasible partitions of [n-1] into the censused set
    if n >= 2:
        shifted = [shift(p) for p in enumerate_partitions(n - 1, q, "feasible")]
        assert all(p.n == n and is_c_invariant_partition(p) for p in shifted)
        assert len({p.arcs for p in shifted}) == census


def test_c_invariant_partition_examples():
    def invariant(arcs):
        return is_c_invariant_partition(LabeledSetPartition(4, 2, arcs))

    assert invariant(((1, 3, 1), (2, 4, 1)))
    assert not invariant(())
    assert not invariant(((1, 2, 1), (3, 4, 1)))
