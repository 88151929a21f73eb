"""Write expected.json: the exit code and stdout sha256 of every fixed
CLI op in the workloads.

    python3 perfbench/record.py

Run it only at the commit whose output is the reference; every later
commit must print byte-identical output.  The two ops that raise
RecursionError at that commit get their expected output from an
independent route instead: ``closed_form("he", 330)`` and an iterative
Stirling table for ``bell`` at 700.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import ops
import run


def stirling_row(n: int) -> list[int]:
    """S(n, 0), ..., S(n, n) by the recurrence S(m, k) = k S(m-1, k) +
    S(m-1, k-1), one row at a time."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
    return row


def poly_text(coeffs) -> str:
    """`heischar poly --family F --n N` output for one polynomial."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return f"{coeffs}\n"


def independent_text(argv) -> str:
    family, n = argv[2], int(argv[4])
    if family == "he":
        sys.path.insert(0, run.SRC)
        from heischar import counting
        return poly_text(counting.closed_form("he", n).coeffs)
    if family == "bell":
        row = stirling_row(n)
        return poly_text(row[n - k] for k in range(n + 1))
    raise ValueError(f"no independent route for {argv}")


def main() -> int:
    specs = {spec["id"]: spec
             for workload in ops.WORKLOADS for spec in ops.workload_ops(workload, 0)
             if spec["kind"] == "cli"}
    expected = {}
    for op_id, spec in sorted(specs.items()):
        if tuple(spec["argv"]) in ops.KNOWN_SEED_FAILURES:
            text = independent_text(spec["argv"])
            expected[op_id] = {"exit": 0,
                               "sha256": hashlib.sha256(text.encode()).hexdigest()}
            continue
        rec = run.run_op(spec, "plain", {op_id: {"exit": None, "sha256": ""}})
        if rec.get("error"):
            print(f"error: {op_id}: {rec['error']}", file=sys.stderr)
            return 1
        expected[op_id] = {"exit": rec["exit"], "sha256": rec["sha256"]}
        print(f"{rec['exit']} {rec['sha256'][:12]} {op_id}")
    with open(ops.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
