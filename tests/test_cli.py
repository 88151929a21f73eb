"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from heischar import checks, cli, combinat, counting, oracle
from heischar.checks import CheckCase
from heischar.cli import parse_int_list, run
from heischar.errors import DEFAULT_SPACE_LIMIT, SpaceTooLarge


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- helpers
def test_parse_int_list():
    assert parse_int_list("3") == [3]
    assert parse_int_list("2,4") == [2, 4]
    assert parse_int_list("2-5") == [2, 3, 4, 5]
    assert parse_int_list("1,3-5,8") == [1, 3, 4, 5, 8]
    with pytest.raises(ValueError):
        parse_int_list("5-2")
    with pytest.raises(ValueError):
        parse_int_list(",")
    for text in ("-1", "2,-1", "-3-5", "1--2", "x"):
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            parse_int_list(text)


def test_parse_int_list_refuses_huge_lists_unbuilt(monkeypatch):
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    with pytest.raises(SpaceTooLarge) as info:
        parse_int_list("1-10000000000")
    assert (info.value.bound, info.value.needed) == (DEFAULT_SPACE_LIMIT, 10000000000)
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", "100")
    assert parse_int_list("1-100") == list(range(1, 101))
    for text in ("1-101", "1-100,0", "0-50,50-99"):
        with pytest.raises(SpaceTooLarge, match="needs 101"):
            parse_int_list(text)


# ------------------------------------------------------------------ commands
def test_count_single_value(capsys):
    code, out, err = invoke(capsys, "count", "--family", "heis", "--n", "5", "--q", "2")
    assert (code, out, err) == (0, "38\n", "")


def test_count_sweep_text(capsys):
    code, out, _ = invoke(capsys, "count", "--family", "heis", "--n", "3-5", "--q", "2")
    assert code == 0
    assert out == "3 2 5\n4 2 14\n5 2 38\n"


def test_poly_coefficients_and_value(capsys):
    code, out, _ = invoke(capsys, "poly", "--family", "inv", "--n", "3")
    assert (code, out) == (0, "[0, 1, 1]\n")
    code, out, _ = invoke(capsys, "poly", "--family", "del", "--n", "3", "--x", "1")
    assert (code, out) == (0, "5\n")


def test_enumerate_pinned(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--family", "pell", "--n", "4", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[:3] == ["R R R", "R R U(1)", "R N(1)"]
    assert len(set(lines)) == 12


@pytest.mark.parametrize("family", sorted(cli.FAMILIES))
def test_count_agrees_with_enumerate(family, capsys):
    for n in range(1, 7):
        for q in (2, 3):
            code, counted, _ = invoke(capsys, "count", "--family", family,
                                      "--n", str(n), "--q", str(q))
            assert code == 0
            code, streamed, _ = invoke(capsys, "enumerate", "--family", family,
                                       "--n", str(n), "--q", str(q))
            assert code == 0
            got = len(streamed.splitlines())
            assert got == int(counted), (family, n, q)


def test_map_operations(capsys):
    code, out, _ = invoke(capsys, "map", "path-to-functional",
                          "R N(1) U(2) UU(2,1)", "--q", "3")
    assert (code, out) == (0, "7 3 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 2 2 0 0 1 0\n")
    code, back, _ = invoke(capsys, "map", "functional-to-path", out.strip())
    assert (code, back) == (0, "R N(1) U(2) UU(2,1)\n")
    code, out, _ = invoke(capsys, "map", "path-to-partition", "U(1)", "--q", "2")
    assert (code, out) == (0, "arc 1-2:1\n")
    code, out, _ = invoke(capsys, "map", "partition-to-functional",
                          "arc 1-2:1", "--n", "2", "--q", "2")
    assert (code, out) == (0, "2 2 1\n")
    code, out, _ = invoke(capsys, "map", "classify", "5 2 0 0 1 0 0 0 0 0 0 0")
    assert (code, out) == (0, "neither\n")


def test_map_requires_context_flags(capsys):
    code, _, err = invoke(capsys, "map", "path-to-functional", "R N(1)")
    assert code == 2
    assert err == "error: map path-to-functional requires --q\n"


def test_map_round_trip_through_text(capsys):
    for text in ("R R R", "N(1) R U(1) UU(1,1)", "-"):
        code, lam_text, _ = invoke(capsys, "map", "path-to-functional",
                                   text, "--q", "2")
        assert code == 0
        code, back, _ = invoke(capsys, "map", "functional-to-path",
                               lam_text.strip())
        assert code == 0
        assert back.strip() == text


# ------------------------------------------------------------------- formats
def test_csv_format(capsys):
    code, out, _ = invoke(capsys, "count", "--family", "heis", "--n", "3-5",
                          "--q", "2", "--format", "csv")
    assert code == 0
    assert out == "family,n,q,value\nheis,3,2,5\nheis,4,2,14\nheis,5,2,38\n"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["value"]) for r in rows] == [5, 14, 38]


def test_json_format(capsys):
    code, out, _ = invoke(capsys, "count", "--family", "pell", "--n", "4",
                          "--q", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"family": "pell", "n": 4, "q": 2, "value": 12}
    code, out, _ = invoke(capsys, "enumerate", "--family", "inv", "--n", "3",
                          "--q", "2", "--format", "json")
    assert json.loads(out) == {"family": "inv", "n": 3, "q": 2,
                               "items": ["U(1)", "U(1) U(1)"]}
    code, out, _ = invoke(capsys, "map", "classify", "4 2 1 1 0 0 1 0",
                          "--format", "json")
    payload = json.loads(out)
    assert payload["result"] == "class_X"
    assert payload["kinds"] == ["c"]
    assert payload["offending_block"] is None


@pytest.mark.parametrize("fmt", ("text", "json", "csv"))
def test_byte_determinism(fmt, capsys):
    args = ("sequences", "--count", "6", "--format", fmt)
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_output_file_matches_stdout(tmp_path, capsys):
    args = ["enumerate", "--family", "heis", "--n", "4", "--q", "2"]
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    target = tmp_path / "stream.txt"
    code2 = run(args + ["--output", str(target)])
    assert code2 == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == out


# -------------------------------------------------------------------- verify
def whole_body_enumerate(argv):
    """The enumerate output as built before streaming: every item in memory,
    one body, csv through DictWriter."""
    args = cli._build_parser().parse_args(argv)
    kind, efam, _ = cli.FAMILIES[args.family]
    blocks, lines, rows = [], [], []
    for n in parse_int_list(args.n):
        for q in parse_int_list(args.q):
            if kind == "paths":
                items = [combinat.path_to_text(p)
                         for p in combinat.enumerate_paths(efam, n, q, args.limit)]
            else:
                items = [combinat.partition_to_text(p)
                         for p in combinat.enumerate_partitions(n, q, efam, args.limit)]
            blocks.append({"family": args.family, "n": n, "q": q, "items": items})
            lines.extend(items)
            rows.extend({"family": args.family, "n": n, "q": q, "item": it} for it in items)
    if args.format == "json":
        return json.dumps(blocks[0] if len(blocks) == 1 else blocks,
                          indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=("family", "n", "q", "item"),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
@pytest.mark.parametrize("family,n,q", [
    ("heis", "1-7", "2,3"),       # csv items such as UU(1,2) are quoted
    ("heis_all", "6", "3"),
    ("pell", "0-6", "2,4"),       # n = 0 gives an empty block
    ("inv", "1-6", "3"),
    ("partitions", "1-5", "2,3"),
    ("feasible", "6", "2"),
])
def test_streamed_enumerate_matches_whole_body(family, n, q, fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK", 7)  # many chunks even on small streams
    argv = ["enumerate", "--family", family, "--n", n, "--q", q, "--format", fmt]
    expected = whole_body_enumerate(argv)
    assert invoke(capsys, *argv) == (0, expected, "")
    target = tmp_path / "out"
    assert invoke(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode("utf-8")


def whole_body_poly_count(argv):
    """poly or count output as built before streaming: every result, line
    and row in memory, one body."""
    args = cli._build_parser().parse_args(argv)
    results = []
    if args.command == "count":
        pfam = cli.FAMILIES[args.family][2]
        results = [{"family": args.family, "n": n, "q": q,
                    "value": counting.poly(pfam, n)(q - 1)}
                   for n in parse_int_list(args.n) for q in parse_int_list(args.q)]
        lines = ([str(results[0]["value"])] if len(results) == 1
                 else [f"{r['n']} {r['q']} {r['value']}" for r in results])
        fields = ("family", "n", "q", "value")
        rows = [[r[f] for f in fields] for r in results]
    else:
        for n in parse_int_list(args.n):
            p = counting.poly(args.family, n)
            entry = {"family": args.family, "n": n}
            if args.x is None:
                entry["coefficients"] = list(p.coeffs)
            else:
                entry["x"], entry["value"] = args.x, p(args.x)
            results.append(entry)
        key = "coefficients" if args.x is None else "value"
        lines = [str(r[key]) if len(results) == 1 else f"{r['n']} {r[key]}" for r in results]
        fields = ("family", "n", key) if args.x is None else ("family", "n", "x", "value")
        rows = [[" ".join(map(str, r[f])) if f == "coefficients" else r[f] for f in fields]
                for r in results]
    if args.format == "json":
        return json.dumps(results[0] if len(results) == 1 else results,
                          indent=2, sort_keys=True) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([fields, *rows])
        return buf.getvalue()
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
@pytest.mark.parametrize("argv", [
    ("poly", "--family", "alt_bell", "--n", "1-40"),
    ("poly", "--family", "he", "--n", "6"),
    ("poly", "--family", "del", "--n", "0-12", "--x", "3"),
    ("poly", "--family", "inv", "--n", "4", "--x", "2"),
    ("count", "--family", "heis", "--n", "1-12", "--q", "2,3,256"),
    ("count", "--family", "feasible", "--n", "5", "--q", "4"),
])
def test_streamed_poly_and_count_match_whole_body(argv, fmt, tmp_path, capsys):
    argv = [*argv, "--format", fmt]
    expected = whole_body_poly_count(argv)
    assert invoke(capsys, *argv) == (0, expected, "")
    target = tmp_path / "out"
    assert invoke(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
@pytest.mark.parametrize("argv,message", [
    (("count", "--family", "partitions", "--n", "1,2000", "--q", "256"),
     "Exceeds the limit (4300 digits)"),
    (("poly", "--family", "alt_he", "--n", "3,1"), "family 'alt_he' is defined for n >= 2"),
])
def test_poly_and_count_check_every_value_before_writing(argv, message, fmt, capsys):
    # the first result would print; a later one cannot, so nothing is written
    code, out, err = invoke(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
@pytest.mark.parametrize("argv,code,message", [
    (("--family", "heis", "--n", "3,30", "--q", "2"), 3, "path family heis_tilde(30, F_2)"),
    (("--family", "heis", "--n", "3", "--q", "2,6"), 2, "6 is not a prime power"),
    (("--family", "partitions", "--n", "2,12", "--q", "3"), 3, "partitions of [12] over F_3"),
])
def test_enumerate_checks_every_pair_before_writing(argv, code, message, fmt, tmp_path, capsys):
    got, out, err = invoke(capsys, "enumerate", *argv, "--format", fmt)
    assert (got, out) == (code, "")
    assert message in err
    target = tmp_path / "out"
    got, out, _ = invoke(capsys, "enumerate", *argv, "--format", fmt, "--output", str(target))
    assert (got, out) == (code, "")
    assert not target.exists()


def test_size_guard_hint_names_only_what_applies(capsys, monkeypatch):
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    # the call takes a limit (--limit here): both ways are named, the variable first
    _, _, err = invoke(capsys, "enumerate", "--family", "pell", "--n", "30", "--q", "2")
    assert err.endswith("; set HEISCHAR_SPACE_LIMIT or raise the limit argument\n")
    # --limit does not reach the --n/--q lists or the compositions route
    for argv in (("count", "--family", "heis", "--n", "1-20000000", "--q", "2"),
                 ("verify", "c-heis-thm", "--n", "27", "--q", "2", "--limit", "100000000")):
        code, _, err = invoke(capsys, *argv)
        assert code == 3
        assert err.endswith("; set HEISCHAR_SPACE_LIMIT to raise it\n")
        assert "limit argument" not in err


def test_verify_pass(capsys):
    code, out, _ = invoke(capsys, "verify", "tech-lem1", "--n", "1", "--q", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("[PASS] tech-lem1 n=1 q=2")
    assert lines[-1] == "2/2 cases passed"
    code, out, _ = invoke(capsys, "verify", "tech-lem1", "--n", "1",
                          "--q", "2", "--format", "json")
    payload = json.loads(out)
    assert sorted(payload) == ["check", "passed", "report"]
    assert payload["passed"] is True
    assert all(case["passed"] for case in payload["report"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_run_check(name, ns, qs, limit):
        return [CheckCase("tech-lem1", 1, 2, "forced mismatch", 1, 2)]

    monkeypatch.setattr(checks, "run_check", fake_run_check)
    code, out, _ = invoke(capsys, "verify", "tech-lem1")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("[FAIL] tech-lem1")
    assert lines[-1] == "0/1 cases passed"


def test_all_checks_are_exposed(capsys):
    assert sorted(checks.CHECKS) == [
        "alt-thm", "bell-thm", "c-heis-thm", "c-irr-thm", "deg-cor",
        "del-thm", "fe-thm", "heis-thm", "tech-lem1",
    ]


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_verify_outside_domain_exits_2_before_running(name, capsys, monkeypatch):
    def must_not_run(n, q, limit):
        raise AssertionError(f"{name} ran at n={n}, q={q}")

    monkeypatch.setitem(checks.CHECKS, name, must_not_run)
    below = str(checks.MIN_INDEX[name] - 1)
    for sweep in ("0", below, f"3,{below}"):
        code, out, err = invoke(capsys, "verify", name, "--n", sweep, "--q", "2")
        assert (code, out) == (2, ""), sweep
        assert f"{name} is defined for" in err
    for qs in ("6", "2,1", "512"):
        code, out, err = invoke(capsys, "verify", name, "--n", "3", "--q", qs)
        assert (code, out) == (2, ""), qs
        assert err.startswith("error: ")


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_verify_passes_at_domain_edge(name, capsys):
    code, out, _ = invoke(capsys, "verify", name, "--n", str(checks.MIN_INDEX[name]),
                          "--q", "2,3")
    assert code == 0, out


# ----------------------------------------------------------------- sequences
def test_sequences_single(capsys):
    code, out, _ = invoke(capsys, "sequences", "--name", "pell", "--count", "5")
    assert code == 0
    assert out == ("pell (A000129): 0 1 2 5 12"
                   "  -- del at x=1: Heisenberg supercharacters over F_2\n")


def test_sequences_full_listing(capsys):
    code, out, _ = invoke(capsys, "sequences")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(counting.SEQUENCES) == 13
    assert lines == sorted(lines)


def test_sequences_unknown_name(capsys):
    code, _, err = invoke(capsys, "sequences", "--name", "lucas")
    assert code == 2
    assert "unknown sequence 'lucas'" in err


# ---------------------------------------------------------------- exit codes
def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, "count", "--family", "weird", "--n", "3", "--q", "2")[0] == 2
    assert invoke(capsys, "count", "--family", "heis", "--n", "3")[0] == 2
    assert invoke(capsys, "poly", "--family", "alt_he", "--n", "1")[0] == 2
    assert invoke(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("n,q,message", [
    ("0", "6", "6 is not a prime power"),
    ("5", "1", "1 is not a prime power"),
    ("3", "0", "0 is not a prime power"),
    ("3", "2,6", "6 is not a prime power"),
    ("3", "512", "exceeds the maximum 256"),
])
def test_count_rejects_field_orders(n, q, message, capsys):
    code, out, err = invoke(capsys, "count", "--family", "heis", "--n", n, "--q", q)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv", [
    ("verify", "heis-thm", "--n", "-1", "--q", "2"),
    ("count", "--family", "heis", "--n", "-1", "--q", "2"),
    ("count", "--family", "heis", "--n", "3", "--q", "2,-1"),
    ("poly", "--family", "del", "--n", "-1"),
])
def test_negative_index_is_named(argv, capsys):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: '-1' is not an integer >= 0 or a range of them\n"


@pytest.mark.parametrize("argv", [
    ("map", "partition-to-functional", "(no arcs)", "--n", "-2", "--q", "2"),
    ("map", "classify", "-1 2 0"),
    ("map", "functional-to-path", "-2 2 0 0 0"),
])
def test_negative_size_exits_2(argv, capsys):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: size -") and err.endswith(" is negative\n")


def test_huge_range_exits_3_unbuilt(capsys, monkeypatch):
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    code, out, err = invoke(capsys, "count", "--family", "heis",
                            "--n", "1-10000000000", "--q", "2")
    assert (code, out) == (3, "")
    assert "size guard" in err and "(needs 10000000000)" in err


@pytest.mark.parametrize("argv,message", [
    (("sequences", "--count", "-3"), "argument --count: expected an integer >= 0, got -3"),
    (("enumerate", "--family", "pell", "--n", "4", "--q", "2", "--limit", "-1"),
     "argument --limit: expected an integer >= 0, got -1"),
    (("verify", "tech-lem1", "--limit", "-5"),
     "argument --limit: expected an integer >= 0, got -5"),
])
def test_negative_count_and_limit_exit_2_at_parse(argv, message, capsys):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_zero_count_prints_empty_rows(capsys):
    code, out, _ = invoke(capsys, "sequences", "--name", "pell", "--count", "0")
    assert (code, out) == (0, "pell (A000129):   -- del at x=1: Heisenberg "
                              "supercharacters over F_2\n")


# Index, field-order and count values from -5 to 400: single values,
# ranges (which may be empty or reversed) and short lists.
_values = st.integers(-5, 400)
_int_lists = st.one_of(
    _values.map(str),
    st.tuples(_values, _values).map(lambda ab: f"{ab[0]}-{ab[1]}"),
    st.lists(_values, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
)
# enumerate and map at small sizes: indices and field orders from -2 to 9
# (a --limit of at most 3000 keeps every stream short), and map inputs
# built from valid and invalid path tokens, functional codes and arcs.
_small_lists = st.one_of(
    st.integers(-2, 9).map(str),
    st.tuples(st.integers(-2, 9), st.integers(-2, 9)).map(lambda ab: f"{ab[0]}-{ab[1]}"),
    st.lists(st.integers(-2, 9), min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
)
_path_texts = st.lists(st.sampled_from(
    ("R", "N(1)", "N(2)", "U(1)", "U(3)", "UU(1,2)", "UU(1)", "D21(1)", "D12(1,1)",
     "U(0)", "Z", "-")), max_size=5).map(" ".join)
_functional_texts = st.tuples(st.integers(-2, 6), st.integers(-1, 9),
                              st.lists(st.integers(-1, 9), max_size=16)).map(
    lambda t: " ".join(map(str, (t[0], t[1], *t[2]))))
_partition_texts = st.one_of(st.just("(no arcs)"), st.lists(
    st.tuples(st.integers(-1, 7), st.integers(-1, 7), st.integers(-1, 4)), max_size=4).map(
    lambda arcs: " ".join(f"arc {i}-{j}:{t}" for i, j, t in arcs)))
_context = st.lists(st.tuples(st.sampled_from(("--n", "--q")), st.integers(-2, 9).map(str)),
                    max_size=2).map(lambda pairs: tuple(x for pair in pairs for x in pair))
# verify at small sizes: indices (d for tech-lem1) from -1 to 5 as single
# values or ranges, valid and invalid field orders, and a --limit of at
# most 3000, so every census either finishes or trips the guard quickly
_verify_ns = st.one_of(
    st.integers(-1, 5).map(str),
    st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map(lambda ab: f"{ab[0]}-{ab[1]}"),
)
_verify_qs = st.sampled_from(("0", "1", "2", "3", "4", "5", "6", "9", "512"))
_argvs = st.one_of(
    st.tuples(st.just("count"), st.just("--family"), st.sampled_from(sorted(cli.FAMILIES)),
              st.just("--n"), _int_lists, st.just("--q"), _int_lists),
    st.tuples(st.just("poly"), st.just("--family"), st.sampled_from(counting.FAMILIES),
              st.just("--n"), _int_lists),
    st.tuples(st.just("sequences"), st.just("--count"), _values.map(str)),
    st.tuples(st.just("enumerate"), st.just("--family"), st.sampled_from(sorted(cli.FAMILIES)),
              st.just("--n"), _small_lists, st.just("--q"), _small_lists,
              st.just("--limit"), st.integers(0, 3000).map(str),
              st.just("--format"), st.sampled_from(("text", "csv", "json"))),
    st.tuples(st.just("map"), st.sampled_from(cli.MAP_OPS),
              st.one_of(_path_texts, _functional_texts, _partition_texts),
              _context).map(lambda t: (*t[:3], *t[3])),
    st.tuples(st.just("verify"), st.sampled_from(sorted(checks.CHECKS)),
              st.just("--n"), _verify_ns, st.just("--q"), _verify_qs,
              st.just("--limit"), st.integers(0, 3000).map(str)),
)


@settings(max_examples=120, deadline=None)
@given(_argvs)
def test_exit_code_contract(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run(list(argv))
    assert code in (0, 2, 3), (argv, sink.getvalue()[-300:])


def test_space_guard_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", "1")
    code, _, err = invoke(capsys, "enumerate", "--family", "partitions",
                          "--n", "4", "--q", "2")
    assert code == 3
    assert "size guard" in err
    code, _, _ = invoke(capsys, "enumerate", "--family", "partitions",
                        "--n", "4", "--q", "2", "--limit", "1000")
    assert code == 0


def test_orbit_guard_exit_3(capsys, monkeypatch):
    # an orbit outgrowing --limit mid-search exits 3 and names the orbit
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    # (the 4 label tuples fit the limit, the 9-point all-ones orbit does not)
    code, out, err = invoke(capsys, "verify", "tech-lem1", "--n", "1", "--q", "3",
                            "--limit", "4")
    assert code == 3
    assert out == ""
    assert err == ("error: coadjoint orbit in u_4(F_3)* exceeds the size guard of 4 "
                   "(needs at least 5); set HEISCHAR_SPACE_LIMIT or raise the limit "
                   "argument\n")


@pytest.mark.parametrize("d,q,limit,tuples", [("5", "9", "3000", 8 ** 10), ("1", "3", "2", 4)])
def test_tech_lem1_tuple_guard_exits_3_before_any_tuple(d, q, limit, tuples, capsys, monkeypatch):
    # the (q-1)^{2d} label tuples are refused whole, before the first is tried
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)

    def refuse(*args):
        raise AssertionError("a label tuple was tried")

    monkeypatch.setattr(oracle, "tangent", refuse)
    monkeypatch.setattr(oracle, "_bfs", refuse)
    code, out, err = invoke(capsys, "verify", "tech-lem1", "--n", d, "--q", q, "--limit", limit)
    assert (code, out) == (3, "")
    assert err == (f"error: label tuples (F_{q}^x)^{2 * int(d)} exceeds the size guard of "
                   f"{limit} (needs {tuples}); set HEISCHAR_SPACE_LIMIT or raise the limit "
                   "argument\n")


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv",
                        ["heischar", "count", "--family", "pell", "--n", "3", "--q", "2"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 0
    assert capsys.readouterr().out == "5\n"
