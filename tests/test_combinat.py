"""Labeled set partitions, labeled lattice paths and their streams."""

import itertools
import re

import pytest

from heischar import combinat, counting, gf, linalg
from heischar.combinat import (
    LabeledLatticePath,
    LabeledSetPartition,
    enumerate_partitions,
    enumerate_paths,
    has_heis_support,
    is_feasible,
    is_noncrossing,
    partition_from_text,
    partition_to_functional,
    partition_to_text,
    path_from_text,
    path_to_text,
    shift,
)
from heischar.errors import (
    NotPrimePower,
    SpaceTooLarge,
    UnknownFamily,
    space_limit,
)

STEP_INDEX = {step: k for k, step in enumerate(combinat.STEP_ORDER)}


def path_key(path):
    return tuple((STEP_INDEX[s], labels) for s, labels in path.steps)


def part_key(part):
    return (tuple(part.arc_pairs()), tuple(t for _, _, t in part.arcs))


# ------------------------------------------------------------- set partitions
def test_partition_validation():
    LabeledSetPartition(4, 3, ((1, 3, 2), (3, 4, 1)))
    with pytest.raises(ValueError):
        LabeledSetPartition(4, 3, ((1, 5, 1),))
    with pytest.raises(ValueError):
        LabeledSetPartition(4, 3, ((3, 1, 1),))
    with pytest.raises(ValueError):
        LabeledSetPartition(4, 3, ((1, 2, 1), (1, 3, 1)))  # repeated source
    with pytest.raises(ValueError):
        LabeledSetPartition(4, 3, ((1, 3, 1), (2, 3, 1)))  # repeated target
    with pytest.raises(ValueError):
        LabeledSetPartition(4, 3, ((1, 2, 3),))  # label outside 1..q-1
    with pytest.raises(ValueError):
        LabeledSetPartition(4, 3, ((1, 2, 0),))
    with pytest.raises(ValueError):
        LabeledSetPartition(4, 3, ((2, 3, 1), (1, 2, 1)))  # unsorted
    with pytest.raises(ValueError):
        LabeledSetPartition(-2, 3, ())  # negative size


def test_predicates():
    crossing = LabeledSetPartition(4, 2, ((1, 3, 1), (2, 4, 1)))
    nested = LabeledSetPartition(4, 2, ((1, 4, 1), (2, 3, 1)))
    assert not is_noncrossing(crossing)
    assert is_noncrossing(nested)
    assert is_feasible(crossing)
    assert not is_feasible(LabeledSetPartition(3, 2, ((1, 2, 1),)))
    assert is_feasible(LabeledSetPartition(0, 2, ()))
    assert has_heis_support(LabeledSetPartition(4, 2, ((1, 3, 1), (3, 4, 1))))
    assert not has_heis_support(nested)


def test_shift():
    part = LabeledSetPartition(4, 3, ((1, 2, 2), (2, 4, 1)))
    moved = shift(part)
    assert moved.n == 5
    assert moved.arcs == ((1, 3, 2), (2, 5, 1))
    assert all(j - i >= 2 for i, j, _ in moved.arcs)
    # injective on the feasible stream of [4]
    stream = list(enumerate_partitions(4, 3, "feasible"))
    images = {shift(p).arcs for p in stream}
    assert len(images) == len(stream)


def test_partition_to_functional():
    part = LabeledSetPartition(4, 3, ((1, 3, 2), (3, 4, 1)))
    lam = partition_to_functional(part)
    field = gf.field_make(3)
    assert lam == linalg.Functional.from_dict(4, field, {(1, 3): 2, (3, 4): 1})
    assert partition_to_functional(LabeledSetPartition(3, 2, ())) \
        == linalg.Functional.zero(3, gf.field_make(2))


def test_partition_counts_pinned():
    assert len(list(enumerate_partitions(4, 2, "all"))) == 15
    assert len(list(enumerate_partitions(4, 2, "noncrossing"))) == 14
    assert len(list(enumerate_partitions(5, 2, "feasible"))) == 11
    assert len(list(enumerate_partitions(0, 2, "all"))) == 1
    assert len(list(enumerate_partitions(1, 3, "feasible"))) == 0


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("q", (2, 3))
def test_partition_filters_agree_with_predicates(n, q):
    everything = list(enumerate_partitions(n, q, "all"))
    by_filter = {
        "noncrossing": is_noncrossing,
        "feasible": is_feasible,
        "heis_support": has_heis_support,
    }
    for name, predicate in by_filter.items():
        stream = [p.arcs for p in enumerate_partitions(n, q, name)]
        assert stream == [p.arcs for p in everything if predicate(p)]


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("q", (2, 3))
def test_partition_stream_order_and_count(n, q):
    stream = list(enumerate_partitions(n, q, "all"))
    assert len(stream) == counting.poly("bell", n)(q - 1)
    keys = [part_key(p) for p in stream]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def reference_partitions(n, q, filter):
    """The recursive walker the arc-set walk replaced, kept as a reference:
    every partition checked, and every candidate built for the filter."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = {"noncrossing": is_noncrossing, "feasible": is_feasible,
            "heis_support": has_heis_support}.get(filter)

    def rec(start, chosen, used_src, used_tgt):
        if keep is None or keep(
                LabeledSetPartition(n, q, tuple((i, j, 1) for i, j in chosen))):
            for labels in itertools.product(range(1, q), repeat=len(chosen)):
                yield LabeledSetPartition(
                    n, q, tuple((i, j, t) for (i, j), t in zip(chosen, labels)))
        for a in range(start, len(pairs)):
            i, j = pairs[a]
            if i in used_src or j in used_tgt:
                continue
            chosen.append((i, j))
            yield from rec(a + 1, chosen, used_src | {i}, used_tgt | {j})
            chosen.pop()

    yield from rec(0, [], frozenset(), frozenset())


@pytest.mark.parametrize("filter", combinat.PARTITION_FILTERS)
@pytest.mark.parametrize("q", (2, 3, 4))
def test_partition_walker_matches_recursive_reference(filter, q):
    for n in range(0, 7):
        expected = list(reference_partitions(n, q, filter))
        stream = list(enumerate_partitions(n, q, filter))
        assert [(p.n, p.q, p.arcs) for p in stream] \
            == [(p.n, p.q, p.arcs) for p in expected], (n, q)
        # built unchecked from arcs valid by construction, each partition
        # equals, and hashes like, the partition rebuilt with its checks
        checked = [LabeledSetPartition(p.n, p.q, p.arcs) for p in stream]
        assert {type(p) for p in stream} <= {LabeledSetPartition}
        assert stream == checked
        assert list(map(hash, stream)) == list(map(hash, checked))
        assert list(combinat.enumerate_partition_texts(n, q, filter)) \
            == list(map(partition_to_text, stream)), (n, q)


def test_partition_texts_check_when_called():
    with pytest.raises(UnknownFamily):
        combinat.enumerate_partition_texts(4, 2, "nonnesting")
    with pytest.raises(ValueError, match="n must be"):
        combinat.enumerate_partition_texts(-1, 2)
    with pytest.raises(NotPrimePower):
        combinat.enumerate_partition_texts(4, 6)
    with pytest.raises(SpaceTooLarge):
        combinat.enumerate_partition_texts(3, 2, "all", limit=4)
    assert list(combinat.enumerate_partition_texts(0, 5)) == ["(no arcs)"]
    assert list(combinat.enumerate_partition_texts(1, 3, "feasible")) == []


# --------------------------------------------------------------------- paths
def test_path_validation():
    LabeledLatticePath(3, (((0, 2), (1, 2)), ((1, 0), ())))
    with pytest.raises(ValueError):
        LabeledLatticePath(2, (((3, 3), ()),))
    with pytest.raises(ValueError):
        LabeledLatticePath(2, (((0, 2), (1,)),))
    with pytest.raises(ValueError):
        LabeledLatticePath(2, (((0, 1), (2,)),))
    with pytest.raises(ValueError):
        LabeledLatticePath(2, (((0, 1), (0,)),))


def test_path_geometry():
    path = path_from_text("R N(1) U(1)", 2)
    assert path.endpoint == (2, 2)
    assert path.span == 4
    assert LabeledLatticePath(2, ()).endpoint == (0, 0)


def test_path_stream_pinned():
    pell = [path_to_text(p) for p in enumerate_paths("pell", 4, 2)]
    assert len(pell) == 12
    assert pell[:3] == ["R R R", "R R U(1)", "R N(1)"]
    assert len(set(pell)) == 12
    heis = [path_to_text(p) for p in enumerate_paths("heis", 3, 2)]
    assert "UU(1,1)" in heis
    assert [path_to_text(p) for p in enumerate_paths("inv", 3, 2)] \
        == ["U(1) U(1)"]
    assert [path_to_text(p) for p in enumerate_paths("inv_tilde", 3, 2)] \
        == ["U(1)", "U(1) U(1)"]
    ending = [p for p in enumerate_paths("heis", 4, 2) if p.endpoint == (0, 3)]
    assert len(ending) == 3


def test_tilde_first_step_rules():
    for path in enumerate_paths("heis_tilde", 5, 2):
        assert not path.steps or path.steps[0][0] != (0, 2)
    for path in enumerate_paths("inv_tilde", 5, 3):
        assert path.steps and path.steps[0][0] == (0, 1)
    for path in enumerate_paths("inv", 5, 3):
        assert all(s in ((2, 1), (1, 2), (0, 1)) for s, _ in path.steps)


@pytest.mark.parametrize("family,poly_name", [
    ("pell", "del"), ("heis", "pre_he"), ("heis_tilde", "he"),
    ("inv", "pre_in"), ("inv_tilde", "inv"),
])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("q", (2, 3))
def test_path_stream_order_and_count(family, poly_name, n, q):
    stream = list(enumerate_paths(family, n, q))
    assert len(stream) == counting.poly(poly_name, n)(q - 1)
    keys = [path_key(p) for p in stream]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for path in stream:
        assert all(s in combinat.PATH_FAMILIES[family] for s, _ in path.steps)


def reference_paths(family, n, q):
    """The recursive enumerator the stack walk replaced, kept as a reference."""
    steps = [s for s in combinat.STEP_ORDER if s in combinat.PATH_FAMILIES[family]]
    if family == "inv_tilde":
        targets = {t for t in (n - 1, n - 2) if t >= 1}
        top = max(targets, default=0)
    else:
        targets = {n - 1}
        top = n - 1

    def rec(acc, total):
        if total in targets and (family != "inv_tilde" or acc):
            yield tuple(acc)
        if total >= top:
            return
        first = not acc
        for step in steps:
            if first and family == "heis_tilde" and step == (0, 2):
                continue
            if first and family == "inv_tilde" and step != (0, 1):
                continue
            adv = step[0] + step[1]
            if total + adv > top:
                continue
            for labels in itertools.product(range(1, q), repeat=step[1]):
                acc.append((step, labels))
                yield from rec(acc, total + adv)
                acc.pop()

    if n >= 1 and 0 in targets:
        yield ()
        targets.discard(0)
    if n >= 1:
        yield from rec([], 0)


@pytest.mark.parametrize("family", sorted(combinat.PATH_FAMILIES))
@pytest.mark.parametrize("q", (2, 3, 4))
def test_path_stream_matches_recursive_reference(family, q):
    for n in range(0, 8):
        assert [p.steps for p in enumerate_paths(family, n, q)] \
            == list(reference_paths(family, n, q)), (family, n, q)


def reference_text(steps):
    """A path's text built from its steps alone, without combinat's tokens."""
    return " ".join(combinat.STEP_NAMES[step] + (f"({','.join(map(str, labels))})"
                                                 if labels else "")
                    for step, labels in steps) or "-"


# every (family, n <= 8, q) below with at most this many paths
_BLOCK_CASES = [(family, n, q) for family in sorted(combinat.PATH_FAMILIES)
                for q in (2, 3, 4, 5, 8, 9) for n in range(0, 9)
                if combinat.path_space(family, n, q).size <= 20000]


@pytest.mark.parametrize("family", sorted(combinat.PATH_FAMILIES))
@pytest.mark.parametrize("cap", (0, 1, 7))
def test_block_walker_matches_recursive_reference(family, cap, monkeypatch):
    # small caps leave the long completions to the prefix walk, so both
    # the prefix walk and the suffix tables (cap 0: none at all) run
    monkeypatch.setattr(combinat, "_TABLE_CAP", cap)
    cases = [(n, q) for fam, n, q in _BLOCK_CASES if fam == family]
    assert {q for _, q in cases} == {2, 3, 4, 5, 8, 9}
    for n, q in cases:
        expected = list(reference_paths(family, n, q))
        assert [p.steps for p in enumerate_paths(family, n, q)] == expected, (n, q)
        assert list(combinat.enumerate_path_texts(family, n, q)) \
            == list(map(reference_text, expected)), (n, q)


def test_block_walker_reads_long_streams_in_blocks(monkeypatch):
    # past the cap, a path stream arrives as several blocks whose tables
    # hold at most the cap's number of tails and are shared between blocks
    monkeypatch.setattr(combinat, "_TABLE_CAP", 7)
    blocks = list(combinat.path_blocks("heis", 7, 3))
    assert all(len(tails) <= 7 for _, tails in blocks)
    assert len({id(tails) for _, tails in blocks}) < len(blocks)
    assert sum(len(tails) for _, tails in blocks) == combinat.path_space("heis", 7, 3).size
    texts = list(combinat.path_blocks("heis", 7, 3, text=True))
    assert [len(tails) for _, tails in texts] == [len(tails) for _, tails in blocks]


def test_path_texts_check_when_called():
    with pytest.raises(UnknownFamily):
        combinat.enumerate_path_texts("dyck", 4, 2)
    with pytest.raises(ValueError, match="prime power"):
        combinat.enumerate_path_texts("pell", 4, 6)
    with pytest.raises(SpaceTooLarge):
        combinat.enumerate_path_texts("heis_tilde", 5, 2, limit=10)
    assert list(combinat.enumerate_path_texts("heis", 1, 5)) == ["-"]
    assert list(combinat.enumerate_path_texts("inv_tilde", 1, 5)) == []


def test_enumerators_check_when_called():
    """Guards run at the call, before the first next()."""
    with pytest.raises(UnknownFamily):
        enumerate_paths("dyck", 4, 2)
    with pytest.raises(ValueError, match="prime power"):
        enumerate_paths("pell", 4, 6)
    with pytest.raises(SpaceTooLarge):
        enumerate_paths("heis_tilde", 5, 2, limit=10)
    with pytest.raises(UnknownFamily):
        enumerate_partitions(4, 2, "nonnesting")
    with pytest.raises(ValueError):
        enumerate_partitions(-1, 2, "all")
    with pytest.raises(ValueError, match="prime power"):
        enumerate_partitions(3, 6, "all")
    with pytest.raises(SpaceTooLarge):
        enumerate_partitions(3, 2, "all", limit=1)


@pytest.mark.parametrize("q", (2, 5, 37))
def test_path_validation_messages(q):
    """The check names the first bad entry, with the same exception types
    and messages at every q."""
    cases = [
        ((((3, 3), ()),), "unknown step (3, 3)"),
        ((((0, 2), (1,)),), "step (0, 2) needs 2 labels, got 1"),
        ((((1, 0), ()), ((0, 1), (q,))), f"label {q} is not a nonzero code of F_{q}"),
        ((((1, 1), (0,)),), f"label 0 is not a nonzero code of F_{q}"),
    ]
    for steps, message in cases:
        with pytest.raises(ValueError) as info:
            LabeledLatticePath(q, steps)
        assert str(info.value) == message
    with pytest.raises(TypeError):
        LabeledLatticePath(q, (([0, 1], (1,)),))  # a list is not a step


def test_path_validation_accepts_list_labels():
    path = LabeledLatticePath(3, (((0, 2), [2, 1]), ((1, 0), [])))
    assert path_to_text(path) == "UU(2,1) R"


# ------------------------------------------------------------- serialization
def test_path_text_pinned():
    assert path_to_text(LabeledLatticePath(2, ())) == "-"
    assert path_from_text("-", 2) == LabeledLatticePath(2, ())
    assert path_from_text("", 3) == LabeledLatticePath(3, ())
    path = LabeledLatticePath(3, (((1, 0), ()), ((0, 2), (2, 1))))
    assert path_to_text(path) == "R UU(2,1)"
    assert path_from_text("R UU(2,1)", 3) == path
    with pytest.raises(ValueError, match="cannot parse path token 'Z\\(1\\)'"):
        path_from_text("R Z(1)", 2)
    with pytest.raises(ValueError):
        path_from_text("U(1) U", 2)  # U requires exactly one label


def test_partition_text_pinned():
    assert partition_to_text(LabeledSetPartition(3, 2, ())) == "(no arcs)"
    assert partition_from_text("(no arcs)", 3, 2) == LabeledSetPartition(3, 2, ())
    one = LabeledSetPartition(4, 3, ((1, 3, 2),))
    assert partition_to_text(one) == "arc 1-3:2"
    two = LabeledSetPartition(4, 3, ((1, 3, 2), (3, 4, 1)))
    assert partition_to_text(two) == "arc 1-3:2 arc 3-4:1"
    assert partition_from_text("arc 1-3:2 arc 3-4:1", 4, 3) == two
    with pytest.raises(ValueError):
        partition_from_text("bond 1-3:2", 4, 3)
    with pytest.raises(ValueError):
        partition_from_text("arc 1-3:2 arc", 4, 3)


@pytest.mark.parametrize("family", sorted(combinat.PATH_FAMILIES))
def test_path_text_round_trip(family):
    for q in (2, 3):
        for path in enumerate_paths(family, 5, q):
            assert path_from_text(path_to_text(path), q) == path


@pytest.mark.parametrize("q", (4, 5))
@pytest.mark.parametrize("family", sorted(combinat.PATH_FAMILIES))
def test_path_text_round_trip_larger_fields(family, q):
    def reference_text(path):
        return " ".join(combinat.STEP_NAMES[s] + (f"({','.join(map(str, ls))})" if ls else "")
                        for s, ls in path.steps) or "-"

    for n in range(1, 6):
        for path in enumerate_paths(family, n, q):
            text = path_to_text(path)
            assert text == reference_text(path)
            assert path_from_text(text, q) == path


def test_path_text_at_the_largest_field():
    path = path_from_text("R UU(255,1) N(17) U(3)", 256)
    assert path.steps[1] == ((0, 2), (255, 1))
    assert path_to_text(path) == "R UU(255,1) N(17) U(3)"
    with pytest.raises(ValueError, match="label 256 is not a nonzero code of F_256"):
        path_from_text("U(256)", 256)


@pytest.mark.parametrize("family", sorted(combinat.PATH_FAMILIES))
def test_walked_paths_equal_checked_paths(family):
    # the walker builds its paths unchecked from entries that are valid by
    # construction; each equals, and hashes like, the checked path
    for q in (2, 3, 4, 9):
        for n in range(1, 7):
            paths = list(enumerate_paths(family, n, q))
            checked = [LabeledLatticePath(q, p.steps) for p in paths]
            assert {type(p) for p in paths} <= {LabeledLatticePath}
            assert paths == checked
            assert list(map(hash, paths)) == list(map(hash, checked))


def test_largest_field_paths_print_their_labels():
    paths = list(enumerate_paths("heis", 2, 256))
    assert len(paths) == 256  # R and the 255 labelled U steps; UU overshoots
    assert list(map(path_to_text, paths)) == ["R"] + [f"U({t})" for t in range(1, 256)]


@pytest.mark.parametrize("label", [2.5, 2.0, True])
def test_labels_that_are_not_int_codes_are_refused(label):
    """A label is an int code of F_q, so a float or a bool is refused even
    where it equals one."""
    message = f"label {label} is not a nonzero code of F_7"
    with pytest.raises(ValueError, match=re.escape(message)):
        LabeledLatticePath(7, (((0, 1), (label,)), ((1, 0), ())))
    with pytest.raises(ValueError, match=re.escape(message)):
        LabeledSetPartition(3, 7, ((1, 2, label),))
    assert path_to_text(LabeledLatticePath(7, (((1, 1), (2,)),))) == "N(2)"


def test_path_texts_at_the_largest_field():
    # 130,816 lines: the walker tests above stop at q = 9
    texts = list(combinat.enumerate_path_texts("heis", 3, 256))
    assert len(texts) == combinat.path_space("heis", 3, 256).size == 130816
    assert texts == list(map(path_to_text, enumerate_paths("heis", 3, 256)))


def test_partition_text_round_trip():
    for q in (2, 3):
        for part in enumerate_partitions(5, q, "all"):
            assert partition_from_text(partition_to_text(part), 5, q) == part


def chunks_of(texts, size=1 << 15):
    texts = iter(texts)
    while chunk := list(itertools.islice(texts, size)):
        yield chunk


@pytest.mark.parametrize("n,q", [pytest.param(n, q, marks=pytest.mark.slow)
                                 if (n, q) == (6, 16) else (n, q)
                                 for n in range(7) for q in (2, 3, 4, 16)])
def test_texts_hold_only_the_commas_csv_would_quote(n, q):
    # enumerate's csv lines are formatted without the csv module, quoting an
    # item only when it holds a comma; that is csv's own rule as long as no
    # text holds a quote or a line break, a path text holds one comma per
    # two-label step, UU(a,b) or D12(a,b), and none elsewhere, and a
    # partition text holds none
    for family in combinat.PATH_FAMILIES:
        for chunk in chunks_of(combinat.enumerate_path_texts(family, n, q)):
            body = "".join(chunk)
            assert not any(c in body for c in '"\r\n'), (family, n, q)
            two_labels = "D12(" if family.startswith("inv") else "UU("
            assert list(map(str.count, chunk, itertools.repeat(","))) \
                == list(map(str.count, chunk, itertools.repeat(two_labels))), (family, n, q)
    for filter in combinat.PARTITION_FILTERS:
        for chunk in chunks_of(combinat.enumerate_partition_texts(n, q, filter)):
            body = "".join(chunk)
            assert not any(c in body for c in '",\r\n'), (filter, n, q)


# ---------------------------------------------------------------- size guard
def test_space_limit_resolution(monkeypatch):
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    assert space_limit() == 2 ** 24
    assert space_limit(7) == 7
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", "42")
    assert space_limit() == 42
    assert space_limit(7) == 7  # explicit argument wins over the environment


def test_space_guard_trips(monkeypatch):
    with pytest.raises(SpaceTooLarge) as info:
        list(enumerate_partitions(3, 2, "all", limit=1))
    assert info.value.bound == 1
    # the q^(n-1) partitions with arcs (i, i+1) only already pass the limit
    assert info.value.needed == 4
    assert "(needs at least 4)" in str(info.value)
    with pytest.raises(SpaceTooLarge) as info:
        list(enumerate_partitions(3, 2, "all", limit=4))
    assert info.value.needed == 5
    assert "(needs 5)" in str(info.value)
    with pytest.raises(SpaceTooLarge):
        list(enumerate_paths("heis_tilde", 5, 2, limit=10))
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", "1")
    with pytest.raises(SpaceTooLarge):
        list(enumerate_partitions(3, 2, "all"))
    # a generous explicit limit overrides the restrictive environment
    assert len(list(enumerate_partitions(3, 2, "all", limit=1000))) == 5


def test_unknown_family_errors():
    with pytest.raises(UnknownFamily):
        list(enumerate_paths("dyck", 4, 2))
    with pytest.raises(UnknownFamily):
        list(enumerate_partitions(4, 2, "nonnesting"))
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1, 2, "all"))
