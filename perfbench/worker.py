"""Child process of the benchmark: one library pass, or one in-process CLI call.

    python3 perfbench/worker.py RESULT lib WORKLOAD SEED MODE
    python3 perfbench/worker.py RESULT cli MODE [ARGV...]

MODE is ``plain`` (no tracing), ``trace`` (spans) or ``alloc`` (spans with
tracemalloc peaks). The result is written to RESULT as JSON. Each pass runs
in a fresh interpreter, so no cache inside quswap carries over from one pass
to the next. Only the standard library is imported before ``import quswap``,
so the CLI mode can time that import.
"""

from __future__ import annotations

import json
import sys
import time


def _tracer(mode: str):
    if mode == "plain":
        return None
    import tracemalloc

    import tracing

    if mode == "alloc":
        tracemalloc.start()
    tracer = tracing.Tracer(alloc=mode == "alloc")
    tracer.install()
    return tracer


def run_lib(workload: str, seed: int, mode: str) -> dict:
    """Time each library call of the workload; check its output outside the timing."""
    import quswap  # noqa: F401  (the import is not part of lib_session_s)

    import workloads

    ops = workloads.lib_ops(workload, seed)
    tracer = _tracer(mode)
    total, problems, failed = 0.0, [], 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = f"lib:{i}"
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed call is counted and the pass goes on
            total += time.perf_counter() - t0
            found = [f"{op.name} raised {exc!r}"]
        else:
            total += time.perf_counter() - t0
            found = op.check(out)
        if found:
            failed += 1
            problems.append(found[0])
    return {"attempted": len(ops), "failed": failed, "problems": problems[:5],
            "lib_session_s": total, "spans": tracer.spans if tracer else []}


def run_cli(mode: str, argv: list[str]) -> dict:
    """Import quswap (timed), then run ``quswap.cli.main(argv)`` in this process."""
    t0 = time.perf_counter()
    import quswap.cli

    import_s = time.perf_counter() - t0
    if not argv:
        return {"rc": 0, "import_s": import_s, "spans": []}
    tracer = _tracer(mode)
    tracer.op = "cli"
    rc = quswap.cli.main(argv)
    return {"rc": rc, "import_s": import_s, "spans": tracer.spans}


def main(args: list[str]) -> int:
    result_path, kind = args[:2]
    if kind == "lib":
        workload, seed, mode = args[2:5]
        result = run_lib(workload, int(seed), mode)
    else:
        result = run_cli(args[2], args[3:])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
