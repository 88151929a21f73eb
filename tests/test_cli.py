"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from heischar import checks, cli, combinat, counting, oracle
from heischar.checks import CheckCase
from heischar.cli import parse_int_list, run
from heischar.errors import DEFAULT_SPACE_LIMIT, SpaceTooLarge, exact_ints, guard_space


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


@pytest.mark.parametrize("q,message", (("6", "6 is not a prime power"),
                                       ("300", "field order 300 exceeds the maximum 256")))
def test_map_path_to_partition_checks_the_field(q, message, capsys):
    assert invoke(capsys, "map", "path-to-partition", "U(5) N(3)", "--q", q) \
        == (2, "", f"error: {message}\n")


def test_functional_to_path_refuses_u0(capsys):
    # "-" is the path of u_1, so u_0 has none
    assert invoke(capsys, "map", "path-to-functional", "-", "--q", "2") == (0, "1 2\n", "")
    assert invoke(capsys, "map", "functional-to-path", "1 2") == (0, "-\n", "")
    assert invoke(capsys, "map", "functional-to-path", "0 2") == (
        2, "", "error: no path maps to a functional on u_0; n must be >= 1\n")


@pytest.mark.parametrize("op", ("functional-to-path", "classify"))
@pytest.mark.parametrize("text", ("3 2 1 1 x", "3", "x 2", ""))
def test_malformed_functional_is_named(op, text, capsys):
    assert invoke(capsys, "map", op, text) \
        == (2, "", f"error: cannot parse functional from {text!r}\n")


@pytest.mark.parametrize("op", ("functional-to-path", "classify"))
@pytest.mark.parametrize("text,code,top", (("3 2 1 1 5", 5, 1), ("2 3 -1", -1, 2),
                                           ("3 4 0 4 9", 4, 3)))
def test_out_of_range_code_is_named(op, text, code, top, capsys):
    assert invoke(capsys, "map", op, text) == (
        2, "", f"error: cannot parse functional from {text!r}: code {code} is not in 0..{top}\n")


@pytest.mark.parametrize("text", ("arc 1-2", "arc 1-2:", "arc -2:1", "arc 1-x:1", "arc 1-2:1 arc"))
def test_malformed_arc_is_named(text, capsys):
    assert invoke(capsys, "map", "partition-to-functional", text, "--n", "3", "--q", "2") \
        == (2, "", f"error: cannot parse partition text {text!r}\n")


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


_EVERY_SUBCOMMAND = [
    ("count", "--family", "heis", "--n", "3", "--q", "2"),
    ("poly", "--family", "he", "--n", "3"),
    ("enumerate", "--family", "heis", "--n", "3", "--q", "2"),
    ("map", "functional-to-path", "3 2 1 0 0"),
    ("verify", "heis-thm", "--n", "3", "--q", "2"),
    ("sequences", "--count", "3"),
]


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
def test_unwritable_output_exits_2(argv, fmt, tmp_path, capsys):
    # a missing directory or a directory as the target: exit 2, one error
    # line, no file made
    missing = tmp_path / "missing" / "out.txt"
    assert invoke(capsys, *argv, "--format", fmt, "--output", str(missing)) == (
        2, "", f"error: cannot write {str(missing)!r}: No such file or directory\n")
    assert not missing.parent.exists()
    assert invoke(capsys, *argv, "--format", fmt, "--output", str(tmp_path)) == (
        2, "", f"error: cannot write {str(tmp_path)!r}: Is a directory\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,first", [
    (("enumerate", "--family", "heis", "--n", "10", "--q", "3"), b"R R R R R R R R R\n"),
    (("count", "--family", "heis", "--n", "5", "--q", "2"), None),  # closed before it writes
])
def test_closed_reader_ends_quietly(argv, first):
    # the reader takes the first line, or nothing, and closes the pipe: no
    # traceback, no report at shutdown, and the documented exit code; stdout
    # is block-buffered, as it is by default on a pipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-S", "-m", "heischar", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**env, "PYTHONPATH": src}) as proc:
        if first is not None:
            assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_CLOSED_PIPE == 141
    assert err == b""


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
    ("noncrossing", "0-6", "3"),
    ("inv_all", "1-6", "2,3"),    # D12(a,b) items are quoted
    ("heis", "4", "16"),          # two-digit labels inside UU(a,b)
    ("pell", "5", "9"),
])
def test_streamed_enumerate_matches_whole_body(family, n, q, fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK", 7)  # many chunks even on small streams
    argv = ["enumerate", "--family", family, "--n", n, "--q", q, "--format", fmt]
    expected = whole_body_enumerate(argv)
    # the path walker's table cap is one more parameter, looped here so that
    # the test ids stay those of the cases: below the default cap of a few
    # thousand tails, paths come from both prefixes and suffix tables
    for cap in (combinat._TABLE_CAP, 0, 1, 7):
        monkeypatch.setattr(combinat, "_TABLE_CAP", cap)
        assert invoke(capsys, *argv) == (0, expected, ""), cap
        target = tmp_path / f"out{cap}"
        assert invoke(capsys, *argv, "--output", str(target)) == (0, "", ""), cap
        assert target.read_bytes() == expected.encode("utf-8"), cap


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
    (("poly", "--family", "alt_del", "--n", "2,0", "--x", "3"),
     "family 'alt_del' is defined for n >= 1"),
    (("poly", "--family", "alt_he", "--n", "3,1"), "family 'alt_he' is defined for n >= 2"),
])
def test_poly_and_count_check_every_value_before_writing(argv, message, fmt, capsys):
    # the first result would print; a later one cannot, so nothing is written
    code, out, err = invoke(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert message in err


@contextlib.contextmanager
def int_digit_limit(digits):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("fmt", ("text", "csv", "json"))
def test_count_prints_values_past_the_digit_limit(fmt, capsys):
    # about 8,500 digits, past the interpreter's default limit of 4,300;
    # the caller's own limit is in force again once run returns
    value = counting.poly("bell", 2000)(255)
    with int_digit_limit(4400):
        code, out, err = invoke(capsys, "count", "--family", "partitions", "--n", "2000",
                                "--q", "256", "--format", fmt)
        assert sys.get_int_max_str_digits() == 4400
    assert (code, err) == (0, "")
    with int_digit_limit(0):
        if fmt == "json":
            printed = json.loads(out)["value"]
        elif fmt == "csv":
            printed = int(list(csv.reader(io.StringIO(out)))[1][3])
        else:
            printed = int(out)
        assert printed == value


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


@pytest.mark.parametrize("value", ["-1", "abc", "1e3"])
def test_bad_space_limit_variable_exits_2_naming_it(value, capsys, monkeypatch):
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", value)
    message = f"error: HEISCHAR_SPACE_LIMIT must be an integer >= 0, got {value!r}\n"
    for argv in (("count", "--family", "heis", "--n", "5", "--q", "2"),
                 ("enumerate", "--family", "heis", "--n", "3", "--q", "2", "--limit", "5"),
                 ("verify", "tech-lem1", "--n", "1", "--q", "2", "--limit", "100")):
        assert invoke(capsys, *argv) == (2, "", message), argv
    monkeypatch.setenv("HEISCHAR_SPACE_LIMIT", "")  # empty counts as unset
    assert invoke(capsys, "count", "--family", "heis", "--n", "5", "--q", "2") == (0, "38\n", "")


def test_run_check_defaults_only_for_none(monkeypatch):
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    default = checks.run_check("tech-lem1")
    assert default == checks.run_check("tech-lem1", None, None)
    assert {(c.n, c.q) for c in default} == {(1, 2), (1, 3), (2, 2), (2, 3)}
    # a sweep given as iterators is read once, not exhausted by the checks
    assert checks.run_check("tech-lem1", iter([1, 2]), (q for q in (2, 3))) == default
    for ns, qs in (([], None), (None, []), ((), (2,))):
        with pytest.raises(ValueError, match="at least one index and one field order"):
            checks.run_check("tech-lem1", ns, qs)


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
        "del-thm", "fe-thm", "heis-thm", "poly-forms", "tech-lem1",
    ]


@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_verify_outside_domain_exits_2_before_running(name, capsys, monkeypatch):
    def must_not_run(n, q, limit):
        raise AssertionError(f"{name} built its routes at n={n}, q={q}")

    check = checks.CHECKS[name]
    monkeypatch.setitem(checks.CHECKS, name, dataclasses.replace(check, routes=must_not_run))
    below = str(check.least - 1)
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
    code, out, _ = invoke(capsys, "verify", name, "--n", str(checks.CHECKS[name].least),
                          "--q", "2,3")
    assert code == 0, out


# sha256 of `verify <check>` over its default sweep, in text, json and csv
VERIFY_DIGESTS = {
    "alt-thm": (
        "c485e45c1a7b3adb4455ea46898ba755c0976608dee274012668e8a52a70134b",
        "94442015cbc5787ba9eceebc0b56750a5b434a0b1304077dedfa545a664e79f9",
        "d6e00a7720f0010d142dd61de671a4ef93802f774bd748b16d26692d97c5d477",
    ),
    "bell-thm": (
        "eb2761c4cea29abd0871fd9bddb6279bb27240d1230ba5cfeb253b542011efc3",
        "8b61edc64ffe15fc718fff8c4c78a64593a1fc1a7518dd18ba6613c848a2c2e6",
        "f2b8e495eb31e9395645c9963a39678f044fb88cf41cfd64f886499bd0792717",
    ),
    "c-heis-thm": (
        "ed4f013725514cc05185806cce2954e49e0fa443bcdf12c13b83c1c62182447d",
        "b74a3dfd9a5e8f10883db6375927123721e67ea780986a00a4e3886dfee5dfc6",
        "d000f8986cf9454b838876ca161234c6b5bf8e7389a1d8b55ee47aeb5c78dd07",
    ),
    "c-irr-thm": (
        "a1b835574d5ddf4e0c9ffab4a14a8d4b9745239cb017ca035bae2c6aaeab0c8f",
        "2c9d54be1489ea631422a528b1d4bb7ea9e2772cd78a72292475b82caa77b7a8",
        "990c27882d3bcdc21c793e2a77d0e23efcf0e64c56e1a02916f3a60f390ef197",
    ),
    "deg-cor": (
        "4263a8bfa9c007ff6190040e3c032665adacbfd9e51e8877b5da37805bcf0061",
        "0869a12b78a1db20db9d27b294e86cd83d797081c0010f71766350d067df617a",
        "d37e690f75d372e755f20f712443e1d9c11240a92527283ab71c0445d534ae24",
    ),
    "del-thm": (
        "1c701b5dcc6aec28a7746790a7813fa7d61a07808dceebfdc6531e0eb796ad59",
        "4e5ecdee80a76f5926f3803590995c10f880beff11db98617ddd7c3352a39ce0",
        "6864dfe8adce31cfe392b02eedc7587019f45b6fe75c0db3283b2627b9427a0e",
    ),
    "fe-thm": (
        "bb97cd7d0b7738cfeb203efbae72a2df3d14f2490dd6a9fb07e1d02cf2043dd0",
        "a34962bce07eb8cab732ca2741a93e752faa7d90e54af7d88323a42165bbafc9",
        "013fe88eb1e9669dd291ad9de0465803463ccf756d2539a53ace0bb106505ef3",
    ),
    "heis-thm": (
        "8343525f2d1b298605c1fe14558adde775f44dac404f8094ce76cfb291220285",
        "c8447bc88c690d70249eaa5c3df011d4c2bb589255412eb082abe04007003a9a",
        "ec4144cd66060be49507be89d5c452fc155033e779acc1aa6fee3d9f0bf6ead9",
    ),
    "poly-forms": (
        "fc4d112f56166e35f4b571e6d5d042ce21d842b6216498bceb30ed91ce9e7325",
        "ceec00a403d6f9e5b603e68eb4ec6de7a6989823bd8f209e65ef1c84e2415272",
        "fb22913de997787e0af6ade06d5cace926de4813109bd12fd64d517d1651a25c",
    ),
    "tech-lem1": (
        "b4df19974b63b790da8a5833f94f8350a1c8a8c7828d4953f37fcfa4cd22d0e4",
        "f868c9b1f387a39cded1bb337885b2957a261acb056102230b25eb46c073e23a",
        "20f88e396719b55d52f9e8e71f57948bf7115e99af135078599afd13a73cc0a1",
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_default_sweep_bytes_are_pinned(name, capsys, monkeypatch):
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    assert sorted(VERIFY_DIGESTS) == sorted(checks.CHECKS)
    for fmt, digest in zip(("text", "json", "csv"), VERIFY_DIGESTS[name]):
        code, out, _ = invoke(capsys, "verify", name, "--format", fmt)
        assert code == 0, fmt
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize("route,broken,failures", [
    ("closed_form", lambda family, n: counting.IntPolynomial.const(-1),
     len(counting.CLOSED_FORM_FAMILIES)),
    ("series_coeffs", lambda family, x, count: [-1] * count, len(counting.SERIES_FAMILIES)),
])
def test_poly_forms_reads_the_routes_it_names(route, broken, failures, capsys, monkeypatch):
    monkeypatch.setattr(counting, route, broken)
    code, out, _ = invoke(capsys, "verify", "poly-forms", "--n", "5", "--q", "2")
    assert code == 1
    assert sum(line.startswith("[FAIL]") for line in out.splitlines()) == failures


def verified_pairs(capsys, name, n, q):
    code, out, _ = invoke(capsys, "verify", name, "--n", str(n), "--q", str(q),
                          "--format", "json")
    assert code == 0, out
    return [(case["expected"], case["computed"]) for case in json.loads(out)["report"]]


# the two-sided census of u_6(F_3)* sweeps 3^15 functionals and closes the
# left and right orbit of each of its orbits; the two checks share it
@pytest.mark.slow
def test_verify_fe_thm_at_6_3(capsys):
    fe = counting.poly("fe", 5)(2)
    assert verified_pairs(capsys, "fe-thm", 6, 3) == [(fe, fe)] * 3


# the frontier of the xi census: 2,120 coadjoint orbits of u_9(F_2)*
# killing n^3, each with its l/s chains
@pytest.mark.slow
def test_verify_heis_thm_at_9_2(capsys):
    he = counting.poly("he", 9)(1)
    assert verified_pairs(capsys, "heis-thm", 9, 2) == [(he, he)] * 3


@pytest.mark.slow
def test_verify_c_irr_thm_at_6_3(capsys):
    irr, heis = ((1 - 3) ** 2 * counting.poly(family, 6)(-1) for family in ("cat", "del"))
    assert verified_pairs(capsys, "c-irr-thm", 6, 3) == [(irr, irr)] * 2 + [(heis, heis)] * 2
    # at odd n - 1 both counts are 0, so pin the irreducibility flags by
    # the census's irreducible supercharacters too
    counts = oracle.count_supercharacter_families(6, 3)
    assert counts.irreducible_supercharacters == counting.poly("cat", 6)(2)


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


@pytest.mark.parametrize("argv,message", [
    (("verify", "tech-lem1", "--n", ""), "cannot parse integer list ''"),
    (("verify", "tech-lem1", "--q", ""), "cannot parse integer list ''"),
    (("sequences", "--name", ""), "unknown sequence ''"),
])
def test_empty_option_values_exit_2(argv, message, capsys):
    # an empty value is a value: it neither selects the default sweep nor
    # the whole listing
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [
    ("sequences", "--count", "abc"),
    ("enumerate", "--family", "pell", "--n", "4", "--q", "2", "--limit", "abc"),
    ("verify", "tech-lem1", "--limit", "abc"),
])
def test_non_integer_count_and_limit_exit_2_at_parse(argv, capsys):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {argv[-2]}: expected an integer >= 0, got 'abc'\n")


SUBCOMMANDS = ("count", "poly", "enumerate", "map", "verify", "sequences")


def record_builds(monkeypatch) -> list:
    """The command of every parser that cli builds from now on."""
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command=None: built.append(command) or build(command))
    return built


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_one_subparser_prints_what_the_full_parser_prints(name, capsys, monkeypatch):
    # run builds only the named subcommand's parser; its help, usage errors
    # and parsed arguments are the whole parser's
    build = cli._build_parser
    built = record_builds(monkeypatch)
    for argv in ([name, "--help"], [name, "--format", "xml"]):
        with pytest.raises(SystemExit) as full:
            build().parse_args(argv)
        expected = (full.value.code, *capsys.readouterr())
        assert invoke(capsys, *argv) == expected, argv
        assert expected[0] == (0 if "--help" in argv else 2)
    assert built == [name, name]
    argv = {"count": ["count", "--family", "heis", "--n", "3", "--q", "2"],
            "poly": ["poly", "--family", "he", "--n", "3"],
            "enumerate": ["enumerate", "--family", "pell", "--n", "3", "--q", "2"],
            "map": ["map", "classify", "2 2 1"],
            "verify": ["verify", "tech-lem1"],
            "sequences": ["sequences"]}[name]
    assert vars(build(name).parse_args(argv)) == vars(build().parse_args(argv))


@pytest.mark.parametrize("argv", [[], ["-h"], ["nonsense"], ["--format", "json", "count"]])
def test_argv_without_a_leading_subcommand_gets_the_full_parser(argv, capsys, monkeypatch):
    built = record_builds(monkeypatch)
    code, out, err = invoke(capsys, *argv)
    assert built[-1] is None  # "nonsense" first asks for its own parser
    if argv == ["-h"]:
        assert code == 0 and all(f"\n    {name}" in out for name in SUBCOMMANDS)
    else:
        assert (code, out) == (2, "") and err.startswith("usage: heischar [-h] COMMAND ...")
    if argv == ["nonsense"]:
        choices = ", ".join(map(repr, SUBCOMMANDS))
        assert f"invalid choice: 'nonsense' (choose from {choices})" in err


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
    # an orbit past --limit exits 3 and names the orbit, before its search
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)

    def refuse(*args):
        raise AssertionError("a case was computed")

    monkeypatch.setattr(oracle, "tangent", refuse)
    monkeypatch.setattr(oracle, "_closure", refuse)
    # (the 256 label tuples and 225 tangent cells fit the limit, the
    # 625-point all-ones orbit does not)
    code, out, err = invoke(capsys, "verify", "tech-lem1", "--n", "2", "--q", "5",
                            "--limit", "300")
    assert code == 3
    assert out == ""
    assert err == ("error: coadjoint orbit in u_6(F_5)* exceeds the size guard of 300 "
                   "(needs 625); set HEISCHAR_SPACE_LIMIT or raise the limit "
                   "argument\n")


def capped_run(*argv, address_space=1 << 30):
    """The CLI in a child process with its address space capped and the
    default size guard, so that a guard that fails to refuse ends in a
    MemoryError of the child, not in the machine running out of memory."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "HEISCHAR_SPACE_LIMIT"}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-S", "-m", "heischar", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**env, "PYTHONPATH": src}, preexec_fn=cap)


def test_memory_error_exits_3_naming_the_subcommand(capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_sequences", exhaust)
    assert invoke(capsys, "sequences", "--count", "5") \
        == (3, "", "error: heischar sequences ran out of memory\n")


@pytest.mark.slow
def test_running_out_of_memory_exits_3_without_a_traceback():
    # no guard bounds a sequence's length; its values outgrow a 512 MiB cap
    proc = capped_run("sequences", "--name", "bell_q2", "--count", "2000",
                      address_space=512 << 20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: heischar sequences ran out of memory\n"


@pytest.mark.parametrize("d,error", [
    ("3000", "tangent cells of u_6002(F_2)* exceeds the size guard of 16777216 "
             "(needs 324324117018001)"),
    ("13", "coadjoint orbit in u_28(F_2)* exceeds the size guard of 16777216 "
           "(needs 67108864)")])
def test_tech_lem1_at_q2_is_refused_before_it_allocates(d, error):
    # at q = 2 there is one label tuple for every d; the tangent's cells
    # and the all-ones orbit's q^{2d} states are refused in closed form
    proc = capped_run("verify", "tech-lem1", "--n", d, "--q", "2")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"error: {error}; set HEISCHAR_SPACE_LIMIT or raise the "
                           "limit argument\n")


def test_partition_guard_refuses_by_its_lower_bound_first(capsys, monkeypatch):
    # the 2^2999 partitions of [3000] with arcs (i, i+1) alone are past the
    # guard, so the exact count is never built
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "enumerate", "--family", "partitions",
                            "--n", "3000", "--q", "2")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    with exact_ints():
        assert err == ("error: partitions of [3000] over F_2 exceeds the size guard of "
                       f"16777216 (needs at least {2 ** 2999}); set HEISCHAR_SPACE_LIMIT "
                       "or raise the limit argument\n")
    # where the bound fits, the exact count is refused as before
    code, out, err = invoke(capsys, "enumerate", "--family", "partitions",
                            "--n", "14", "--q", "2")
    assert (code, out) == (3, "")
    assert err == ("error: partitions of [14] over F_2 exceeds the size guard of 16777216 "
                   "(needs 190899322); set HEISCHAR_SPACE_LIMIT or raise the limit "
                   "argument\n")


def test_guard_past_the_digit_limit_exits_3(capsys, monkeypatch):
    # the needed size 2^19900 has more digits than the interpreter prints
    # by default; the guard still exits 3 and prints it whole
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    code, out, err = invoke(capsys, "verify", "bell-thm", "--n", "200", "--q", "2")
    assert (code, out) == (3, "")
    assert err.startswith("error: functional space u_200(F_2)* exceeds the size guard "
                          "of 16777216 (needs ")
    assert err.count("\n") == 1
    with exact_ints():
        assert f"(needs {2 ** 19900});" in err


@pytest.mark.parametrize("d,q,limit,tuples", [("5", "9", "3000", 8 ** 10), ("1", "3", "2", 4)])
def test_tech_lem1_tuple_guard_exits_3_before_any_tuple(d, q, limit, tuples, capsys, monkeypatch):
    # the (q-1)^{2d} label tuples are refused whole, before the first is tried
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)

    def refuse(*args):
        raise AssertionError("a label tuple was tried")

    monkeypatch.setattr(oracle, "tangent", refuse)
    monkeypatch.setattr(oracle, "_closure", refuse)
    code, out, err = invoke(capsys, "verify", "tech-lem1", "--n", d, "--q", q, "--limit", limit)
    assert (code, out) == (3, "")
    assert err == (f"error: label tuples (F_{q}^x)^{2 * int(d)} exceeds the size guard of "
                   f"{limit} (needs {tuples}); set HEISCHAR_SPACE_LIMIT or raise the limit "
                   "argument\n")


def test_tech_lem1_sweep_guards_every_d_before_the_first(capsys, monkeypatch):
    # d = 1 and d = 2 fit, d = 3's 4^6 label tuples do not: nothing is tried
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)

    def refuse(*args):
        raise AssertionError("a case was computed")

    monkeypatch.setattr(oracle, "tangent", refuse)
    monkeypatch.setattr(oracle, "_closure", refuse)
    code, out, err = invoke(capsys, "verify", "tech-lem1", "--n", "1-3", "--q", "5",
                            "--limit", "3000")
    assert (code, out) == (3, "")
    assert err == ("error: label tuples (F_5^x)^6 exceeds the size guard of 3000 "
                   "(needs 4096); set HEISCHAR_SPACE_LIMIT or raise the limit argument\n")


def first_space_error(thunks):
    """The message of the SpaceTooLarge that the thunks raise, called in
    order, or None when none does."""
    try:
        for thunk in thunks:
            thunk()
    except SpaceTooLarge as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("above,q", [(1, 2), (2, 3)])
@pytest.mark.parametrize("name", sorted(checks.CHECKS))
def test_sweep_guard_trips_where_the_cases_would(name, above, q, monkeypatch):
    # at every limit just below a space that a route declares, the route's
    # thunks run alone raise the very error that guarding its declared
    # spaces in order raises, and run_check raises the error of the first
    # route that fails; with room for its largest space each route passes
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    check = checks.CHECKS[name]
    n = check.least + above
    limits = {0}
    for i, (quantity, _, _, spaces) in enumerate(check.routes(n, q, None)):
        sizes = [space(*args).size for space, *args in spaces]
        for limit in sorted({0} | {size - 1 for size in sizes}):
            _, expected, computed, _ = check.routes(n, q, limit)[i]
            declared = first_space_error(partial(guard_space, space(*args), limit)
                                         for space, *args in spaces)
            assert first_space_error((expected, computed)) == declared, (quantity, limit)
            limits.add(limit)
        _, expected, computed, _ = check.routes(n, q, max(sizes, default=0))[i]
        assert expected() == computed(), quantity
    for limit in sorted(limits):
        routes = check.routes(n, q, limit)
        first = first_space_error(
            thunk for _, expected, computed, _ in routes for thunk in (expected, computed))
        if first is None:  # a check whose routes meet no space runs at any limit
            assert not any(spaces for *_, spaces in routes)
            assert all(case.passed for case in checks.run_check(name, [n], [q], limit))
            continue
        with pytest.raises(SpaceTooLarge) as swept:
            checks.run_check(name, [n], [q], limit)
        assert str(swept.value) == first


def test_sweep_guard_sizes_later_spaces_only_when_earlier_fit(monkeypatch):
    # the census of U_40 trips before the partitions of [40] are counted
    monkeypatch.delenv("HEISCHAR_SPACE_LIMIT", raising=False)
    counted, partition_space = [], combinat.partition_space
    monkeypatch.setattr(combinat, "partition_space",
                        lambda n, q: counted.append(n) or partition_space(n, q))
    with pytest.raises(SpaceTooLarge, match="functional space u_40"):
        checks.run_check("bell-thm", [40], [2])
    assert counted == []


def test_python_m_heischar():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

    def module_run(*argv):
        return subprocess.run([sys.executable, "-S", "-m", "heischar", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})

    proc = module_run("count", "--family", "heis", "--n", "5", "--q", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "38\n", "")
    proc = module_run("count", "--family", "heis", "--n", "5", "--q", "6")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "6 is not a prime power" in proc.stderr


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv",
                        ["heischar", "count", "--family", "pell", "--n", "3", "--q", "2"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 0
    assert capsys.readouterr().out == "5\n"
