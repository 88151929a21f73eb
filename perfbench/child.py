"""Run one benchmark op cold, in this fresh interpreter, and report.

Usage: python3 perfbench/child.py '<json>' where the JSON holds the op
spec (see ops.py), the expected results for CLI ops, and the mode:
"plain" (timing only), "trace" (spans, see tracer.py) or "profile"
(cProfile, for per-element call counts and the profile top list).  In
mode "setup" the child reports its set-up and calls nothing.

The timer covers only the call.  stdout is replaced during the call by a
sink that hashes and timestamps what the CLI writes; the report is one
JSON line on the real stdout.  Times are perf_counter values, which on
Linux read the system-wide monotonic clock, so the parent (run.py) can
subtract its own spawn time from them.
"""

# Only these small modules load before the timed ``import heischar.cli``;
# the rest of the harness loads after it, so that set-up covers the
# interpreter and the program, not this harness.
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# per-element functions counted in the profiled pass
CODE_OPS = {"add_code", "sub_code", "mul_code", "neg_code", "inv_code"}


class Sink(io.TextIOBase):
    """A write-only text stream that keeps a sha256 of the UTF-8 bytes
    written, their count and the time of the first non-empty write.
    With keep set it also holds the text until take() is called."""

    def __init__(self, keep: bool = False):
        import hashlib

        self.digest = hashlib.sha256()
        self.bytes = 0
        self.first = None
        self.kept = [] if keep else None

    def write(self, text):
        if text and self.first is None:
            self.first = time.perf_counter()
        data = text.encode("utf-8")
        self.digest.update(data)
        self.bytes += len(data)
        if self.kept is not None:
            self.kept.append(text)
        return len(text)

    def take(self) -> str:
        text = "".join(self.kept)
        self.kept.clear()
        return text


def cached_entries() -> int:
    """Entries held by every lru_cache in the loaded heischar modules."""
    total = 0
    for key, mod in list(sys.modules.items()):
        if key == "heischar" or key.startswith("heischar."):
            for value in vars(mod).values():
                info = getattr(value, "cache_info", None)
                if callable(info):
                    total += info().currsize
    return total


def make_call(spec, sink):
    """The op as a zero-argument callable, and a check of its result
    returning None when right or a one-line reason when wrong."""
    import ops
    from heischar import cli

    kind = spec["kind"]
    if kind == "cli":
        def check(code):
            if code != spec["exit"]:
                return f"exit {code}, expected {spec['exit']}"
            if sink.digest.hexdigest() != spec["sha256"]:
                return "stdout digest differs"
            return None
        return lambda: cli.run(spec["argv"]), check
    if kind == "cli_batch":
        def batch():
            return [(cli.run(item["argv"]), sink.take()) for item in spec["items"]]

        def check(result):
            for (code, text), item in zip(result, spec["items"]):
                if code != 0 or text != item["stdout"]:
                    return f"map {item['argv'][1]} {item['argv'][2]!r}: exit {code}"
            return None if len(result) == len(spec["items"]) else "missing results"
        return batch, check
    call, good = ops.LIB_OPS[spec["fn"]]
    args = spec["args"]
    return (lambda: call(**args),
            lambda result: None if good(result, args) else "independent check failed")


def profile_rows(prof):
    """(label, calls, self seconds) per profiled function, plus the
    per-element counts."""
    import pstats

    rows, code_ops, getitem = [], 0, 0
    for (path, line, func), (_, calls, tottime, _, _) in pstats.Stats(prof).stats.items():
        base = os.path.basename(path)
        in_pkg = os.path.basename(os.path.dirname(path)) == "heischar"
        if in_pkg and base == "gf.py" and func in CODE_OPS:
            code_ops += calls
        if in_pkg and base == "linalg.py" and func == "__getitem__":
            getitem += calls
        label = f"{base}:{line}({func})" if line else func
        rows.append((label, calls, tottime))
    return rows, code_ops, getitem


def main() -> None:
    preloaded = "heischar" in sys.modules
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t_import = time.perf_counter()
    import heischar.cli  # noqa: F401  (what the heischar command loads)
    t_ready = time.perf_counter()
    warm = cached_entries()

    import json
    import resource

    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    report = {"id": "set-up probe", "pid": os.getpid(), "preloaded": preloaded,
              "warm_entries": warm, "t_import": t_import, "t_ready": t_ready}
    if mode == "setup":
        sys.stdout.write(json.dumps(report) + "\n")
        return

    sink = Sink(keep=spec["kind"] == "cli_batch")
    call, check = make_call(spec, sink)
    spans = profiler = None
    if mode == "trace":
        import tracer
        spans = tracer.Tracer()
        tracer.install(spans)
    elif mode == "profile":
        import cProfile
        profiler = cProfile.Profile()

    real_stdout, sys.stdout = sys.stdout, sink
    error = result = None
    try:
        if profiler:
            profiler.enable()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the op's failure is data, not a crash
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        t1 = time.perf_counter()
        if profiler:
            profiler.disable()
    finally:
        sys.stdout = real_stdout

    report.update({
        "id": spec["id"], "t0": t0, "t1": t1, "first_output": sink.first,
        "bytes_out": sink.bytes, "sha256": sink.digest.hexdigest(),
        "exit": result if spec["kind"] == "cli" else None, "error": error,
        "wrong": None if error else check(result),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if spans:
        report["spans"] = spans.totals
    if profiler:
        report["profile"], report["code_ops"], report["getitem"] = profile_rows(profiler)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
