"""Self-tests of the benchmark: cold isolation, the tracer's self-time
arithmetic, the independent expected outputs and BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import io
import json
import os
import sys

import child
import ops
import record
import run
import tracer

COLD_OPS = [spec for spec in ops.workload_ops("formulas", 0)
            if spec["id"] in ("poly --family cat --n 400", "sequences --count 200",
                              "lib:c_invariant_routes(n=20,q=3)")]


def test_every_op_runs_cold_in_its_own_child():
    assert len(COLD_OPS) == 3
    records = run.run_pass(COLD_OPS * 2, "plain", ops.load_expected())
    assert not [r for r in records if run.failed(r)]
    children = records + [run.probe_setup(), run.probe_setup()]
    # a distinct child pid per op and set-up probe, none of them this process
    pids = [r["pid"] for r in children]
    assert len(set(pids)) == len(pids) and os.getpid() not in pids
    # heischar absent from sys.modules before each child's set-up
    assert not any(r["preloaded"] for r in children)
    # no lru_cache entry left by anything before the timed call
    assert all(r["warm_entries"] == 0 for r in children)
    # set-up starts after the spawn; the timed call starts after set-up
    assert all(r["t_spawn"] < r["t_import"] < r["t_ready"] for r in children)
    assert all(r["t_ready"] <= r["t0"] < r["t1"] for r in records)
    assert run.isolation_problems(children) == []


def test_isolation_check_sees_warm_caches_and_shared_pids():
    sys.path.insert(0, run.SRC)
    try:
        from heischar import counting
        counting.poly("del", 5)
        assert child.cached_entries() > 0
    finally:
        sys.path.remove(run.SRC)
    shared = [{"id": "a", "pid": 7}, {"id": "b", "pid": 7, "warm_entries": 3}]
    problems = run.isolation_problems(shared)
    assert len(problems) == 2


def test_tracer_self_time_excludes_child_spans():
    now = [0.0]
    spans = tracer.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2

    def outer():
        now[0] += 1
        inner()
        inner()

    def gen(k):
        for i in range(k):
            inner()
            yield i

    inner = spans.wrap("inner", inner)
    outer = spans.wrap("outer", outer)
    gen = spans.wrap_generator("gen", gen)
    outer()
    items = []
    for i in gen(3):
        now[0] += 4  # the consumer's time, not the generator's
        items.append(i)
    assert items == [0, 1, 2]
    assert spans.totals["inner"] == [5, 10.0, 0]
    assert spans.totals["outer"] == [1, 1.0, 0]
    assert spans.totals["gen"] == [1, 0.0, 3]
    assert spans.stack == [[None, 0.0, 11.0]]


def test_independent_routes_match_the_cli_where_it_works():
    sys.path.insert(0, run.SRC)
    try:
        from heischar import cli
        for family, n in (("he", 60), ("bell", 60)):
            argv = ["poly", "--family", family, "--n", str(n)]
            out, real = io.StringIO(), sys.stdout
            sys.stdout = out
            try:
                assert cli.run(argv) == 0
            finally:
                sys.stdout = real
            assert record.independent_text(argv) == out.getvalue()
    finally:
        sys.path.remove(run.SRC)


def test_sampled_inputs_follow_the_seed():
    a, b = ops.workload_ops("paths", 5), ops.workload_ops("paths", 5)
    assert a == b and a != ops.workload_ops("paths", 6)
    assert sorted(s["id"] for s in ops.workload_ops("verify", 1)) == \
        sorted(s["id"] for s in ops.workload_ops("verify", 2))


def test_refuses_to_run_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(run.HERE, "no-such-dir"))
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""


def test_benchmark_json_and_expected_outputs_match_the_op_lists():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert set(ops.load_expected()) == {
        s["id"] for w in ops.WORKLOADS for s in ops.workload_ops(w, 0) if s["kind"] == "cli"}
