"""Cold-process benchmark for heischar.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Every op (one ``heischar`` CLI invocation or one library call, see
ops.py) runs in its own fresh ``python`` child, started one at a time
from this process, because the package's ``lru_cache``s and its
recursion depth make a warm process unlike the cold one a CLI user pays
for.

With ``--trace 0`` it repeats the workload's op list, in a seeded order,
until ``--seconds`` have passed (at least once) and prints the
end-to-end metrics:

  wall_s          sum over ops of the op's median in-child call time
  setup_s         median over children of spawn -> ``import heischar.cli`` done;
                  besides the op children, SETUP_PROBES children per op
                  only set up
  peak_rss_mb     largest child max RSS
  first_output_s  sum over CLI ops of the median time from call start to
                  the first byte on stdout (the call time if none)
  success_rate    ops that passed / ops attempted

With ``--trace 1`` it runs the op list three times -- untraced, with
spans (tracer.py) and under cProfile -- and prints the per-layer table,
the tracing overhead and the cProfile top 5.  The last stdout line is
always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``correct`` is false when an op printed or returned a
wrong result, when an op was not cold, or when tracing changed which ops
fail; an op that raises or times out counts in ``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OP_TIMEOUT = 60.0

# extra children per op that only set up (spawn, ``import heischar.cli``)
# and exit, so that setup_s is a median over many more children than ops
SETUP_PROBES = 2
SPAN_FIELDS = {"calls": 0, "self_s": 1, "items": 2}


def load_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and of the per-layer metrics, by name, as
    BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def child_env() -> dict:
    """This process's environment without settings that would change what
    the program under test loads or how large its size guard is."""
    env = dict(os.environ)
    for key in ("PYTHONPATH", "PYTHONSTARTUP", "HEISCHAR_SPACE_LIMIT"):
        env.pop(key, None)
    return env


def run_op(spec: dict, mode: str, expected: dict) -> dict:
    """Run one op in a fresh child and return its report, with the
    parent-side spawn time and a ``duration`` in seconds."""
    payload = dict(spec, mode=mode)
    if spec["kind"] == "cli":
        payload.update(expected[spec["id"]])
    t_spawn = time.perf_counter()
    # -S: no site-packages; heischar needs only the standard library
    proc = subprocess.Popen([sys.executable, "-S", CHILD, json.dumps(payload)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"id": spec["id"], "error": f"timeout after {OP_TIMEOUT:.0f} s",
                "wrong": None, "duration": OP_TIMEOUT, "t_spawn": t_spawn}
    t_end = time.perf_counter()
    try:
        report = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError):
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return {"id": spec["id"], "wrong": None, "duration": t_end - t_spawn,
                "t_spawn": t_spawn,
                "error": f"child exit {proc.returncode}: {' '.join(tail)}"}
    report["t_spawn"] = t_spawn
    report["duration"] = report["t1"] - report["t0"]
    return report


def probe_setup() -> dict | None:
    """Start a child that only sets up, and return its report with the
    spawn time, or None if it could not set up."""
    t_spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, "-S", CHILD, json.dumps({"mode": "setup"})],
                          capture_output=True, cwd=ROOT, env=child_env(),
                          timeout=OP_TIMEOUT)
    try:
        report = json.loads(proc.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    report["t_spawn"] = t_spawn
    return report


def run_pass(op_list, mode: str, expected: dict) -> list[dict]:
    return [run_op(spec, mode, expected) for spec in op_list]


def failed(rec: dict) -> bool:
    return bool(rec.get("error") or rec.get("wrong"))


def isolation_problems(records) -> list[str]:
    """Ways in which some op was not run cold in a child of its own."""
    problems = []
    pids = [r["pid"] for r in records if "pid" in r]
    if len(set(pids)) != len(pids):
        problems.append("two ops shared a child process")
    for r in records:
        if r.get("preloaded"):
            problems.append(f"{r['id']}: heischar was loaded before set-up")
        if r.get("warm_entries"):
            problems.append(f"{r['id']}: {r['warm_entries']} cache entries before the call")
    return problems


def _first_output(rec: dict) -> float:
    if rec.get("first_output") is None:
        return rec["duration"]
    return rec["first_output"] - rec["t0"]


def end_to_end(records, probes, kinds: dict) -> dict:
    durations, firsts = defaultdict(list), defaultdict(list)
    for r in records:
        durations[r["id"]].append(r["duration"])
        if kinds[r["id"]].startswith("cli"):
            firsts[r["id"]].append(_first_output(r) if "t0" in r else r["duration"])
    ready = [r["t_ready"] - r["t_spawn"] for r in records + probes if "t_ready" in r]
    rss = [r["rss_kb"] for r in records if "rss_kb" in r]
    return {
        "wall_s": sum(statistics.median(v) for v in durations.values()),
        "setup_s": statistics.median(ready) if ready else float("nan"),
        "peak_rss_mb": max(rss) / 1024 if rss else float("nan"),
        "first_output_s": sum(statistics.median(v) for v in firsts.values()),
        "success_rate": 1 - sum(map(failed, records)) / len(records),
    }


def per_layer(names, plain, traced, profiled) -> tuple[dict, list]:
    spans = defaultdict(lambda: [0, 0.0, 0])
    for r in traced:
        for name, (calls, self_s, items) in r.get("spans", {}).items():
            entry = spans[name]
            entry[0] += calls
            entry[1] += self_s
            entry[2] += items
    rows = defaultdict(lambda: [0, 0.0])
    for r in profiled:
        for label, calls, tottime in r.get("profile", ()):
            rows[label][0] += calls
            rows[label][1] += tottime
    gen_items = sum(spans[f"combinat.{g}"][2] for g in ("enumerate_paths", "enumerate_partitions"))
    gen_self = sum(spans[f"combinat.{g}"][1] for g in ("enumerate_paths", "enumerate_partitions"))
    ok = [r for r in plain if "t_ready" in r]
    special = {
        "gf.code_ops": sum(r.get("code_ops", 0) for r in profiled),
        "linalg.getitem.calls": sum(r.get("getitem", 0) for r in profiled),
        "combinat.items_per_s": gen_items / gen_self if gen_self else 0.0,
        "checks.cases": spans["checks.run_check"][2],
        "cli.bytes_out": sum(r.get("bytes_out", 0) for r in plain),
        "proc.spawn_s": statistics.median(r["t_import"] - r["t_spawn"] for r in ok),
        "proc.import_s": statistics.median(r["t_ready"] - r["t_import"] for r in ok),
        "trace.overhead_s": (sum(r["duration"] for r in traced)
                             - sum(r["duration"] for r in plain)),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
        else:
            span, _, field = name.rpartition(".")
            values[name] = spans[span][SPAN_FIELDS[field]]
    top = sorted(rows.items(), key=lambda kv: kv[1][1], reverse=True)[:5]
    total = sum(t for _, t in rows.values()) or 1.0
    return values, [(label, calls, t, t / total) for label, (calls, t) in top]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "heischar", "__init__.py")):
        print(f"error: no heischar package under {SRC}", file=sys.stderr)
        return 2
    # the first op must not pay for byte-compiling the package
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metrics()
    expected = ops.load_expected()
    op_list = ops.workload_ops(args.workload, args.seed)
    kinds = {spec["id"]: spec["kind"] for spec in op_list}

    if args.trace:
        passes = {mode: run_pass(op_list, mode, expected)
                  for mode in ("plain", "trace", "profile")}
        records = [r for recs in passes.values() for r in recs]
        fail_sets = {mode: sorted(r["id"] for r in recs if failed(r))
                     for mode, recs in passes.items()}
        values, top = per_layer(layer_units, passes["plain"], passes["trace"],
                                passes["profile"])
        units = layer_units
        for name, unit in units.items():
            print(f"{name:45s} {values[name]:>16.6g} {unit}")
        print(f"cProfile top 5 by self time, workload {args.workload}:")
        for label, calls, t, share in top:
            print(f"  {t:9.3f} s {share:6.1%} {calls:>12d} calls  {label}")
        problems = isolation_problems(records)
        if len({tuple(v) for v in fail_sets.values()}) != 1:
            problems.append(f"tracing changed which ops fail: {fail_sets}")
    else:
        deadline = time.perf_counter() + args.seconds
        records, probes, order, rounds = [], [], list(op_list), 0
        while not records or time.perf_counter() < deadline:
            for spec in order:
                records.append(run_op(spec, "plain", expected))
                probes += [probe_setup() for _ in range(SETUP_PROBES)]
            rounds += 1
            order = list(op_list)
            random.Random(f"{args.seed}:{rounds}").shuffle(order)
        probes = [p for p in probes if p]
        values = end_to_end(records, probes, kinds)
        units = e2e_units
        print(f"workload {args.workload}, seed {args.seed}: {len(op_list)} ops x {rounds} rounds, "
              f"{len(probes)} set-up probes")
        for name, unit in units.items():
            print(f"{name:16s} {values[name]:>14.6f} {unit}")
        problems = isolation_problems(records + probes)

    for r in records:
        if failed(r):
            print(f"FAILED {r['id']}: {r.get('error') or r.get('wrong')}", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    result = {
        "correct": not problems and not any(r.get("wrong") for r in records),
        "attempted": len(records),
        "failed": sum(map(failed, records)),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
