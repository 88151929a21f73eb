"""Path/functional/partition translations and invariance predicates."""

import random
from collections import Counter
from itertools import product

import pytest

from heischar import bijections, combinat, counting, gf, linalg, oracle
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
from heischar.cli import run
from heischar.combinat import (
    LabeledLatticePath,
    LabeledSetPartition,
    enumerate_partitions,
    enumerate_paths,
    is_noncrossing,
    partition_to_functional,
    path_from_text,
    path_to_text,
    shift,
)
from heischar.errors import NotClassX, NotInFamily, NotPrimePower, SpaceTooLarge, TooLarge

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


# ------------------------------------------------ reference route for blocks
# The route the bijection took before it read blocks off the codes: the
# whole upper form, its blocks cut by a scan of each row from the right,
# each block typed by its set of nonzero cells, and paths read off the
# typed blocks; functionals built from paths through Functional.from_dict.
def reference_upper_form(lam):
    m, codes = lam.n - 1, lam.codes
    rows, start = [], 0
    for a in range(m):
        rows.append((0,) * a + codes[start:start + m - a])
        start += m - a
    return tuple(rows)


def reference_block_decomposition(lam):
    u = reference_upper_form(lam)
    m = len(u)
    if not m:
        return []
    cuts, reach = [0], 0
    for c, row in enumerate(u[:-1], start=1):
        for j in range(m - 1, reach, -1):
            if row[j]:
                reach = j
                break
        if reach < c:
            cuts.append(c)
    cuts.append(m)
    return [tuple(row[a:b] for row in u[a:b]) for a, b in zip(cuts, cuts[1:])]


def reference_block_kind(block):
    m = len(block)
    if m == 1:
        return "a"
    support = {(r, s) for r in range(m) for s in range(m) if block[r][s]}
    superdiag = {(i, i + 1) for i in range(m - 1)}
    if support == superdiag:
        return "b"
    if m % 2 == 1 and support == superdiag | {(0, 0)}:
        return "c"
    return None


def reference_classify(lam):
    blocks = tuple(reference_block_decomposition(lam))
    kinds = tuple(reference_block_kind(b) for b in blocks)
    offending = next((i for i, k in enumerate(kinds) if k is None), None)
    if offending is not None:
        classification = NEITHER
    elif "c" in kinds:
        classification = CLASS_X
    else:
        classification = CLASS_Y
    return bijections.ClassXWitness(classification, blocks, kinds, offending)


def reference_functional_to_path(lam, witness=None):
    if lam.n < 1:
        raise ValueError(f"no path maps to a functional on u_{lam.n}; n must be >= 1")
    witness = witness or reference_classify(lam)
    if witness.offending_block is not None:
        raise NotClassX(witness.offending_block)
    steps = []
    for block, kind in zip(witness.blocks, witness.kinds):
        m = len(block)
        ts = [block[i][i + 1] for i in range(m - 1)]
        if kind == "a":
            value = block[0][0]
            steps.append(((0, 1), (value,)) if value else ((1, 0), ()))
            continue
        if kind == "b" and m % 2 == 1:
            steps.append(((1, 0), ()))
        elif kind == "b":
            steps.append(((1, 1), (ts[0],)))
            ts = ts[1:]
        else:
            steps.append(((0, 1), (block[0][0],)))
        for a in range(0, len(ts), 2):
            steps.append(((0, 2), (ts[a], ts[a + 1])))
    return LabeledLatticePath(lam.field.q, tuple(steps))


def reference_path_to_functional(path):
    entries, d = {}, 0
    for step, labels in path.steps:
        i = d + 1
        if step == (0, 1):
            entries[i, i + 1] = labels[0]
        elif step == (1, 1):
            entries[i, i + 2] = labels[0]
        elif step == (0, 2):
            entries[i - 1, i + 1] = labels[0]
            entries[i, i + 2] = labels[1]
        d += step[0] + step[1]
    return linalg.Functional.from_dict(path.span + 1, gf.field_make(path.q), entries)


def outcome(call, *args):
    """What a call returns, or the type and args of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # the comparison is of the error itself
        return type(exc), exc.args


def assert_matches_reference(lam):
    witness = reference_classify(lam)
    assert classify_functional(lam) == witness, lam.codes
    assert linalg.block_decomposition(lam) == list(witness.blocks), lam.codes
    assert outcome(functional_to_path, lam) == outcome(
        reference_functional_to_path, lam, witness), lam.codes


def sampled_functional(rng, n, q, near=(0.6, 0.6), far=0.08, codes=None):
    """Random codes, nonzero with the given odds on the first two
    superdiagonals and beyond them, so that classes X and Y occur; codes
    are drawn from the given pool, else from the nonzero codes of F_q."""
    pool = codes or range(1, q)
    odds = [*near, far]
    return linalg.Functional.from_codes(n, gf.field_make(q), tuple(
        rng.choice(pool) if rng.random() < odds[min(j - i - 1, 2)] else 0
        for i in range(1, n + 1) for j in range(i + 1, n + 1)))


@pytest.mark.parametrize("n,q", [(n, 2) for n in range(7)] + [(n, 3) for n in range(6)])
def test_block_kernel_matches_reference_exhaustively(n, q):
    field = gf.field_make(q)
    for codes in product(range(q), repeat=n * (n - 1) // 2):
        assert_matches_reference(linalg.Functional.from_codes(n, field, codes))


@pytest.mark.parametrize("q", (4, 5, 8, 9))
def test_block_kernel_matches_reference_sampled(q):
    rng = random.Random(q)
    classes = Counter()
    for _ in range(700):
        lam = sampled_functional(rng, rng.randint(1, 12), q)
        assert_matches_reference(lam)
        classes[classify_functional(lam).classification] += 1
    assert set(classes) == {CLASS_X, CLASS_Y, NEITHER}


def test_functional_to_path_names_the_first_offending_block():
    # blocks 0 and 2 have no type: each is cut around one far cell, U[0][2]
    # from e*_{1,4} and U[4][6] from e*_{5,8}
    lam = linalg.Functional.from_dict(8, F3, {(1, 4): 1, (4, 5): 2, (5, 8): 1})
    assert classify_functional(lam).kinds == (None, "a", None)
    with pytest.raises(NotClassX) as info:
        functional_to_path(lam)
    assert info.value.block_index == 0
    assert info.value.args == ("block 0 has no valid type",)
    # an untyped block wins over an out-of-range label in a block before it
    bad = linalg.Functional.from_codes(5, F3, (7, 0, 0, 0, 0, 0, 1, 0, 0, 0))
    assert classify_functional(bad).kinds == ("a", None)
    with pytest.raises(NotClassX) as info:
        functional_to_path(bad)
    assert info.value.block_index == 1


@pytest.mark.parametrize("q", (2, 3, 5))
def test_out_of_range_codes_raise_as_before(q):
    # Functional.from_codes does not range-check; the path's own check
    # refuses the label, with the message the reference route gives
    lam = linalg.Functional.from_codes(3, gf.field_make(q), (q, 0, 0))
    with pytest.raises(ValueError, match=f"label {q} is not a nonzero code of F_{q}"):
        functional_to_path(lam)
    rng = random.Random(q)
    for _ in range(400):
        lam = sampled_functional(rng, rng.randint(1, 7), q, codes=(1, q - 1, q, q + 3, -1))
        assert_matches_reference(lam)
    with pytest.raises(ValueError, match="u_0"):
        functional_to_path(linalg.Functional.zero(0, gf.field_make(q)))


@pytest.mark.parametrize("n,q", [(n, q) for q in (2, 3, 4) for n in range(1, 9)
                                 if (n, q) != (8, 4)]
                         + [pytest.param(8, 4, marks=pytest.mark.slow)])
def test_path_to_functional_matches_from_dict_route(n, q):
    for path in enumerate_paths("heis_tilde", n, q):
        assert path_to_functional(path).codes == reference_path_to_functional(path).codes


def test_map_output_matches_reference(monkeypatch, capsys):
    # the CLI's map classify and map functional-to-path, on a seeded
    # sample of functionals of every class and of out-of-range codes,
    # print and exit exactly as they do with the reference route
    rng = random.Random(24)
    argvs = []
    for _ in range(60):
        q = rng.choice((2, 3, 4, 5, 8, 9))
        n = rng.randint(0, 8)
        pool = (1, q - 1, q) if rng.random() < 0.2 else None
        lam = sampled_functional(rng, n, q, codes=pool)
        text = linalg.functional_to_text(lam)
        for op in ("classify", "functional-to-path"):
            argvs.append(["map", op, text, *rng.choice(((), ("--format", "json")))])

    def outputs():
        return [(run(argv), *capsys.readouterr()) for argv in argvs]

    ours = outputs()
    monkeypatch.setattr(bijections, "classify_functional", reference_classify)
    monkeypatch.setattr(bijections, "functional_to_path", reference_functional_to_path)
    assert ours == outputs()
    assert {code for code, _, _ in ours} == {0, 2}


# -------------------------------------------------------- pell -> partitions
def test_pell_partition_single_steps():
    one = pell_path_to_partition(path_from_text("U(2)", 3))
    assert (one.n, one.arcs) == (2, ((1, 2, 2),))
    two = pell_path_to_partition(path_from_text("N(2)", 3))
    assert (two.n, two.arcs) == (3, ((1, 3, 2),))
    empty = pell_path_to_partition(path_from_text("R R", 3))
    assert (empty.n, empty.arcs) == (3, ())


def test_pell_partition_checks_the_field():
    # labels below q pass the path's own check; the field is built here
    with pytest.raises(NotPrimePower, match="6 is not a prime power"):
        pell_path_to_partition(path_from_text("U(5) N(3)", 6))
    with pytest.raises(TooLarge, match="field order 300 exceeds the maximum 256"):
        pell_path_to_partition(path_from_text("U(5) N(3)", 300))


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


@pytest.mark.parametrize("cap", (0, 1, 7, combinat._TABLE_CAP))
def test_degree_histogram_counts_every_path(cap, monkeypatch):
    # the per-table counts of tail lengths, shifted per block, add up to the
    # per-path count, whether the paths come from prefixes or tables
    monkeypatch.setattr(combinat, "_TABLE_CAP", cap)
    for n, q in [(n, 2) for n in range(1, 11)] + [(n, 3) for n in range(1, 8)] \
            + [(n, q) for n in range(1, 5) for q in (4, 5, 8, 9)]:
        per_path = Counter(heis_degree_exponent(p) for p in enumerate_paths("heis_tilde", n, q))
        assert heis_degree_histogram(n, q) == dict(sorted(per_path.items())), (n, q)


def test_degree_histogram_keeps_its_guard(monkeypatch):
    size = counting.poly("he", 8)(2)
    with pytest.raises(SpaceTooLarge) as info:
        heis_degree_histogram(8, 3, limit=size - 1)
    assert (info.value.bound, info.value.needed) == (size - 1, size)
    assert sum(heis_degree_histogram(8, 3, limit=size).values()) == size
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", str(size - 1))
    with pytest.raises(SpaceTooLarge):
        heis_degree_histogram(8, 3)


def test_functional_to_path_refuses_u0():
    with pytest.raises(ValueError, match="u_0"):
        functional_to_path(linalg.Functional.zero(0, F2))
    assert functional_to_path(linalg.Functional.zero(1, F2)).steps == ()


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


def c_flag_by_block_decomposition(path):
    """The C-flag by the route through the functional: its upper form's
    block decomposition, then one tridiagonal system per odd block (see
    _odd_block_translation_solvable)."""
    lam = path_to_functional(path)
    field = lam.field
    for block in classify_functional(lam).blocks:
        m = len(block)
        if m == 1:
            return False
        if m % 2 == 0:
            continue
        ts = [block[i][i + 1] for i in range(m - 1)]
        rows = [[0] * m for _ in range(m)]
        for r in range(1, m):
            rows[r][r - 1] = ts[r - 1]
            rows[r - 1][r] = field.neg_code(ts[r - 1])
        if not linalg.solve_consistent(rows, [1] * m, field):
            return False
    return True


@pytest.mark.parametrize("n,q", [(6, 3), (7, 2), (5, 4), (5, 8), (5, 9), (6, 5)])
def test_c_invariant_path_reads_blocks_from_steps(n, q):
    # path by path, the blocks read off the steps give the flag that the
    # functional's block decomposition gives; (6, 5) is the first point
    # where swapping the two labels of a UU step changes some flag
    flags = [(is_c_invariant_heis_path(p), c_flag_by_block_decomposition(p))
             for p in enumerate_paths("heis_tilde", n, q)]
    assert all(a == b for a, b in flags)
    assert {a for a, _ in flags} == {False, True}


@pytest.mark.parametrize("n,q", [(7, 3), (6, 4)])
def test_degree_exponent_is_span_minus_steps(n, q):
    for path in enumerate_paths("heis_tilde", n, q):
        assert heis_degree_exponent(path) == path.span - len(path.steps)


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
