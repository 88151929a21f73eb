"""Command-line front end.

Subcommands
-----------
count       size of a family at (n, q), from its counting polynomial
poly        coefficients of a counting polynomial, optionally evaluated
enumerate   stream the family members themselves, in lexicographic order
map         convert between functionals, lattice paths and partitions
verify      run a named cross-check and report every case as pass/fail
sequences   the named integer sequences with their catalogue tags

Output formats are text (default), json and csv; identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 failed
verification, 2 usage or data errors, 3 when a size guard would be
exceeded (see HEISCHAR_SPACE_LIMIT).

``count`` evaluates polynomials while ``enumerate`` streams the actual
objects, so piping ``enumerate`` through a line count and comparing with
``count`` cross-checks the two routes.  Text and csv ``enumerate`` output is
written in chunks as it is produced; json is built whole.  The checks of
every (n, q) pair run before the first byte is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import asdict
from functools import partial
from itertools import chain, islice
from operator import itemgetter

from . import bijections, checks, combinat, counting
from .errors import SpaceTooLarge, space_limit
from .gf import field_make
from .linalg import functional_from_text, functional_to_text

# CLI family -> (object kind, enumeration family, polynomial family)
FAMILIES = {
    "pell": ("paths", "pell", "del"),
    "heis": ("paths", "heis_tilde", "he"),
    "heis_all": ("paths", "heis", "pre_he"),
    "inv": ("paths", "inv_tilde", "inv"),
    "inv_all": ("paths", "inv", "pre_in"),
    "partitions": ("partitions", "all", "bell"),
    "noncrossing": ("partitions", "noncrossing", "cat"),
    "feasible": ("partitions", "feasible", "fe"),
}

MAP_OPS = ("path-to-functional", "functional-to-path", "path-to-partition",
           "partition-to-functional", "classify")


_INDEX_RANGE = re.compile(r"(\d+)(?:-(\d+))?", re.ASCII)


def parse_int_list(text: str) -> list[int]:
    """Inclusive comma/dash list of integers >= 0: "3", "2,4", "2-5",
    "1,3-5,8".  A list longer than the size guard is refused unbuilt."""
    out = []
    for chunk in filter(None, map(str.strip, text.split(","))):
        match = _INDEX_RANGE.fullmatch(chunk)
        if not match:
            raise ValueError(f"{chunk!r} is not an integer >= 0 or a range of them")
        lo, hi = int(match[1]), int(match[2] or match[1])
        if hi < lo:
            raise ValueError(f"empty range {chunk!r}")
        if (needed := len(out) + hi - lo + 1) > space_limit():
            raise SpaceTooLarge(space_limit(), needed, f"the integer list {text!r}",
                                limit_arg=False)
        out.extend(range(lo, hi + 1))
    if not out:
        raise ValueError(f"cannot parse integer list {text!r}")
    return out


def _nonnegative(text: str) -> int:
    """argparse type for --count and --limit: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


_CHUNK = 4096  # lines per write when text and csv are streamed


def _text_chunks(lines, per: int):
    lines = iter(lines)
    while chunk := "".join([line + "\n" for line in islice(lines, per)]):
        yield chunk


def _csv_chunks(rows, fields, per: int):
    rows = chain([fields], rows)
    while True:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(islice(rows, per))
        if not (chunk := buf.getvalue()):
            return
        yield chunk


def _emit(args, lines, payload, rows, fields, lines_per_write: int | None = None) -> None:
    """Write lines (text), payload (json; a one-item list as its item) or rows
    (csv; sequences in the order of fields).

    lines and rows may be lazy: text and csv are written lines_per_write
    lines at a time (default a few thousand; one for commands whose lines
    can each be long) as they are produced, while json is written whole.
    """
    per = lines_per_write or _CHUNK
    if args.format == "json":
        if isinstance(payload, list) and len(payload) == 1:
            payload = payload[0]
        chunks = [json.dumps(payload, indent=2, sort_keys=True) + "\n"]
    elif args.format == "csv":
        chunks = _csv_chunks(rows, fields, per)
    else:
        chunks = _text_chunks(lines, per)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _check_printable(numbers) -> None:
    """Raise now, before the first byte, the ValueError that str() raises
    on an int past the interpreter's digit limit: an int of at most
    safe_bits bits has fewer digits than that, and only longer ones are
    converted here."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        safe_bits = int((limit - 1) / math.log10(2))
        for v in numbers:
            if v.bit_length() > safe_bits:
                str(v)


def _cmd_count(args) -> int:
    _, _, pfam = FAMILIES[args.family]
    qs = parse_int_list(args.q)
    for q in qs:
        field_make(q)
    # every value is computed and checked printable before the first byte;
    # text and csv lines are then formatted as they are written
    fields = ("family", "n", "q", "value")
    records = [(args.family, n, q, counting.poly(pfam, n)(q - 1))
               for n in parse_int_list(args.n) for q in qs]
    _check_printable(r[3] for r in records)
    payload = [dict(zip(fields, r)) for r in records] if args.format == "json" else None
    lines = (str(r[3]) if len(records) == 1 else f"{r[1]} {r[2]} {r[3]}" for r in records)
    _emit(args, lines, payload, records, fields, lines_per_write=1)
    return 0


def _cmd_poly(args) -> int:
    # every polynomial is built, and every number checked printable, before
    # the first byte; text and csv lines are then formatted as they are written
    ns = parse_int_list(args.n)
    if args.x is None:
        fields = ("family", "n", "coefficients")
        records = [(args.family, n, list(counting.poly(args.family, n).coeffs)) for n in ns]
        _check_printable(c for r in records for c in r[2])
        rows = ((family, n, " ".join(map(str, coeffs))) for family, n, coeffs in records)
    else:
        fields = ("family", "n", "x", "value")
        records = [(args.family, n, args.x, counting.poly(args.family, n)(args.x)) for n in ns]
        _check_printable(r[3] for r in records)
        rows = records
    payload = [dict(zip(fields, r)) for r in records] if args.format == "json" else None
    lines = (str(r[-1]) if len(records) == 1 else f"{r[1]} {r[-1]}" for r in records)
    _emit(args, lines, payload, rows, fields, lines_per_write=1)
    return 0


def _cmd_enumerate(args) -> int:
    kind, efam, _ = FAMILIES[args.family]
    qs = parse_int_list(args.q)
    # every family, field and size check runs here, before the first byte
    if kind == "paths":
        to_text = combinat.path_to_text
        walk = partial(combinat.enumerate_paths, efam, limit=args.limit)
    else:
        to_text = combinat.partition_to_text
        walk = partial(combinat.enumerate_partitions, filter=efam, limit=args.limit)
    streams = [(n, q, walk(n, q)) for n in parse_int_list(args.n) for q in qs]
    if args.format == "json":
        blocks = [{"family": args.family, "n": n, "q": q, "items": list(map(to_text, items))}
                  for n, q, items in streams]
        _emit(args, (), blocks, (), ())
    else:
        lines = (to_text(item) for _, _, items in streams for item in items)
        rows = ((args.family, n, q, to_text(item)) for n, q, items in streams for item in items)
        _emit(args, lines, None, rows, ("family", "n", "q", "item"))
    return 0


def _require(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise ValueError(f"map {args.op} requires --{flag}")
    return value


def _cmd_map(args) -> int:
    payload = {"op": args.op, "input": args.text}
    if args.op == "path-to-functional":
        path = combinat.path_from_text(args.text, _require(args, "q"))
        result = functional_to_text(bijections.path_to_functional(path))
    elif args.op == "functional-to-path":
        lam = functional_from_text(args.text)
        result = combinat.path_to_text(bijections.functional_to_path(lam))
    elif args.op == "path-to-partition":
        path = combinat.path_from_text(args.text, _require(args, "q"))
        part = bijections.pell_path_to_partition(path)
        payload["n"] = part.n
        payload["q"] = part.q
        result = combinat.partition_to_text(part)
    elif args.op == "partition-to-functional":
        part = combinat.partition_from_text(
            args.text, _require(args, "n"), _require(args, "q"))
        result = functional_to_text(combinat.partition_to_functional(part))
    else:
        witness = bijections.classify_functional(functional_from_text(args.text))
        payload["kinds"] = list(witness.kinds)
        payload["offending_block"] = witness.offending_block
        result = witness.classification
    payload["result"] = result
    row = [",".join("?" if x is None else x for x in v) if isinstance(v, list) else v
           for v in payload.values()]
    _emit(args, [result], payload, [row], tuple(payload))
    return 0


def _cmd_verify(args) -> int:
    ns = parse_int_list(args.n) if args.n else None
    qs = parse_int_list(args.q) if args.q else None
    cases = checks.run_check(args.theorem, ns, qs, args.limit)
    lines, rows = [], []
    for c in cases:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.check} n={c.n} q={c.q} {c.quantity}: "
                     f"expected {c.expected} computed {c.computed}")
        rows.append({**asdict(c), "passed": c.passed})
    passed = sum(c.passed for c in cases)
    lines.append(f"{passed}/{len(cases)} cases passed")
    payload = {"check": args.theorem, "passed": passed == len(cases), "report": rows}
    fields = ("check", "n", "q", "quantity", "expected", "computed", "passed")
    _emit(args, lines, payload, map(itemgetter(*fields), rows), fields)
    return 0 if passed == len(cases) else 1


def _cmd_sequences(args) -> int:
    names = [args.name] if args.name else sorted(counting.SEQUENCES)
    rows, lines = [], []
    for name in names:
        if name not in counting.SEQUENCES:
            raise ValueError(f"unknown sequence {name!r}; known: "
                             + ", ".join(sorted(counting.SEQUENCES)))
        oeis, description, _ = counting.SEQUENCES[name]
        values = counting.sequence_values(name, args.count)
        rows.append({"name": name, "oeis": oeis, "description": description,
                     "values": values})
        lines.append(f"{name} ({oeis}): {' '.join(map(str, values))}"
                     f"  -- {description}")
    csv_rows = [(r["name"], r["oeis"], r["description"], " ".join(map(str, r["values"])))
                for r in rows]
    _emit(args, lines, rows, csv_rows, ("name", "oeis", "description", "values"))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")
    common.add_argument("--output", metavar="PATH",
                        help="write output to PATH instead of stdout")

    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--limit", type=_nonnegative, default=None, metavar="N",
                       help="override the state-space size guard")

    ap = argparse.ArgumentParser(
        prog="heischar",
        description="Counting, enumeration and verification for characters "
                    "of unitriangular groups and their quotients.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("count", parents=[common],
                       help="family size at (n, q) from the counting polynomial")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", required=True, help="index or comma/dash list")
    p.add_argument("--q", required=True, help="field order or comma/dash list")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("poly", parents=[common],
                       help="coefficients of a counting polynomial in x = q-1")
    p.add_argument("--family", required=True, choices=list(counting.FAMILIES))
    p.add_argument("--n", required=True, help="index or comma/dash list")
    p.add_argument("--x", type=int, default=None,
                   help="evaluate at integer x instead of printing coefficients")
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("enumerate", parents=[common, sized],
                       help="stream family members, one per line")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", required=True, help="index or comma/dash list")
    p.add_argument("--q", required=True, help="field order or comma/dash list")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("map", parents=[common],
                       help="convert between functionals, paths and partitions")
    p.add_argument("op", choices=MAP_OPS)
    p.add_argument("text", help="input in the textual form of its kind")
    p.add_argument("--n", type=int, default=None,
                   help="ambient size, for partition input")
    p.add_argument("--q", type=int, default=None,
                   help="field order, for path or partition input")
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("verify", parents=[common, sized],
                       help="cross-check a named counting statement")
    p.add_argument("theorem", choices=sorted(checks.CHECKS))
    p.add_argument("--n", default=None,
                   help="index sweep (d sweep for tech-lem1); default per check")
    p.add_argument("--q", default=None, help="field order sweep; default per check")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sequences", parents=[common],
                       help="named integer sequences with catalogue tags")
    p.add_argument("--name", default=None, help="print a single sequence")
    p.add_argument("--count", type=_nonnegative, default=8, metavar="K",
                   help="number of terms (default 8)")
    p.set_defaults(handler=_cmd_sequences)
    return ap


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except SpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
