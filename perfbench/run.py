"""Benchmark for quswap: CLI invocations and library calls as closed loops.

    python3 perfbench/run.py --workload {qudit,fock,small} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; quswap is imported from ``src/``. With
``--trace 0`` the benchmark reports the end-to-end metrics: it times
``import quswap`` in fresh processes, then runs passes over the workload's
CLI invocations (each a fresh ``python -m quswap.cli`` process) and library
calls (a fresh interpreter per pass) until ``--seconds`` are used, and
reports medians over passes. With ``--trace 1`` it instead runs each
operation once with spans around quswap's public functions, once more with
tracemalloc, and reports per-layer metrics. Every output is checked by
``checks.py``. The last line of standard output is the result as JSON; each
result is also appended to ``.perfbench/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150
IMPORT_CMD = [sys.executable, "-c", "import quswap"]
IMPORT_METRICS = ("import.calls", "import.self_s", "import.quswap_ms", "import.scipy_stats_ms",
                  "import.scipy_linalg_ms", "import.numpy_ms")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {  # name -> unit
    "setup_s": "s", "cli_session_s": "s", "lib_session_s": "s", "cli_cpu_s": "s",
    "peak_rss_mb": "MB", "success_ratio": "ratio",
}


@dataclass
class Tally:
    """Operations attempted and failed, with the first problem of each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {problems[0]}")

    def add(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def spawn(cmd: list[str], work: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run ``cmd`` to completion; return its wall seconds, exit code and own rusage.

    ``os.wait4`` gives the rusage of this child alone; RUSAGE_CHILDREN would
    report the largest peak RSS of every child reaped so far.
    """
    out_flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(work / "stdout.txt"), out_flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(work / "stderr.txt"), out_flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, child_env(), file_actions=actions)
    timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage


def _stderr_tail(work: Path) -> str:
    lines = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _checked(check) -> list:
    try:
        return check()
    except Exception as exc:  # unreadable or malformed output is a failed operation
        return [f"output check raised {exc!r}"]


def invoke(cmd: list[str], work: Path, tally: Tally, label: str, check=list):
    """Run one invocation, check it, and return (wall s, CPU s, peak RSS MB)."""
    wall, rc, usage = spawn(cmd, work)
    problems = [f"exit code {rc}: {_stderr_tail(work)}"] if rc != 0 else _checked(check)
    tally.record(label, problems)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def cli_cmd(op: dict) -> list[str]:
    return [sys.executable, "-m", "quswap.cli", *op["argv"]] if op["argv"] else IMPORT_CMD


def _label(op: dict) -> str:
    return op["argv"][0] if op["argv"] else "import"


def worker(args: list[str], work: Path, tally: Tally, label: str):
    """Run perfbench/worker.py with ``args``; return (its JSON result or None, wall seconds)."""
    result_path = work / "worker.json"
    result_path.unlink(missing_ok=True)
    wall, rc, _ = spawn([sys.executable, str(HERE / "worker.py"), str(result_path), *args], work)
    if rc != 0 and not result_path.exists():
        tally.record(label, [f"worker exit code {rc}: {_stderr_tail(work)}"])
        return None, wall
    return json.loads(result_path.read_text()), wall


def lib_pass(workload: str, seed: int, mode: str, work: Path, tally: Tally):
    result, _ = worker(["lib", workload, str(seed), mode], work, tally, f"lib pass ({mode})")
    if result is not None:
        tally.add(result)
    return result


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """Samples of every end-to-end metric; one sample per pass (per probe for setup_s)."""
    start = time.perf_counter()
    samples = defaultdict(list)
    for _ in range(SETUP_PROBES):
        samples["setup_s"].append(invoke(IMPORT_CMD, work, tally, "setup")[0])
    ops = workloads.cli_ops(workload, seed, work)
    workloads.write_inputs(ops)
    last = 0.0
    # a pass starts only while a pass as long as the last one still fits in the window
    while not samples["cli_session_s"] or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        runs = [invoke(cli_cmd(op), work, tally, _label(op), lambda op=op: checks.cli_problems(op))
                for op in ops]
        samples["cli_session_s"].append(sum(r[0] for r in runs))
        samples["cli_cpu_s"].append(sum(r[1] for r in runs))
        samples["peak_rss_mb"].append(max(r[2] for r in runs))
        result = lib_pass(workload, seed, "plain", work, tally)
        if result is not None:
            samples["lib_session_s"].append(result["lib_session_s"])
        last = time.perf_counter() - t0
    return samples


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def parse_importtime(text: str) -> dict:
    """Module -> (self us, cumulative us) from ``python -X importtime`` output."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            self_us, cum_us, name = line[len("import time:"):].split("|")
            rows.setdefault(name.strip(), (int(self_us), int(cum_us)))
    return rows


def import_metrics(work: Path, tally: Tally) -> dict:
    probe = [sys.executable, "-X", "importtime", "-c",
             "import sys; n = len(sys.modules); import quswap; print(len(sys.modules) - n)"]
    samples = defaultdict(list)
    errors = 0
    for _ in range(IMPORTTIME_PROBES):
        _, rc, _ = spawn(probe, work)
        tally.record("importtime", [f"exit code {rc}"] if rc else [])
        if rc:
            errors += 1
            continue
        rows = parse_importtime((work / "stderr.txt").read_text())
        samples["import.calls"].append(int((work / "stdout.txt").read_text()))
        samples["import.self_s"].append(rows["quswap"][1] / 1e6)
        for module in ("quswap", "scipy.stats", "scipy.linalg", "numpy"):
            us = rows.get(module, (0, 0))[1]
            samples[f"import.{module.replace('.', '_')}_ms"].append(us / 1e3)
    m = {name: statistics.median(samples[name]) if samples[name] else 0.0 for name in IMPORT_METRICS}
    m["import.errors"] = errors
    return m


def measure_traced(workload: str, seed: int, work: Path, tally: Tally) -> dict:
    """Per-layer metrics from one traced pass, one untraced and one tracemalloc pass.

    The tracemalloc pass runs the library calls and the ``verify``
    invocations; the other invocations call the same builders at the same
    sizes as the library calls, so running them again would add no peak.
    """
    m = import_metrics(work, tally)
    ops = workloads.cli_ops(workload, seed, work)
    workloads.write_inputs(ops)
    traced, allocs, shares, out_bytes = [], [], [], 0
    for i, op in enumerate(ops):
        for mode in ("trace", "alloc") if op["kind"] == "verify" else ("trace",):
            label = f"{_label(op)} ({mode})"
            result, wall = worker(["cli", mode, *op["argv"]], work, tally, label)
            if result is None:
                continue
            problems = [f"exit code {result['rc']}"] if result["rc"] else _checked(
                lambda: checks.cli_problems(op))
            tally.record(label, problems)
            for span in result["spans"]:
                span[tracing.OP] = f"cli:{i}"
            if mode == "alloc":
                allocs.append(result["spans"])
                continue
            traced.append(result["spans"])
            shares.append(result["import_s"] / wall)
            if op["argv"]:
                out_bytes += os.path.getsize(op["out"])
    lib = {mode: lib_pass(workload, seed, mode, work, tally) or {"spans": [], "lib_session_s": 0.0}
           for mode in ("trace", "plain", "alloc")}
    traced.append(lib["trace"]["spans"])
    allocs.append(lib["alloc"]["spans"])
    traced_s, plain_s = lib["trace"]["lib_session_s"], lib["plain"]["lib_session_s"]
    m.update(tracing.layer_metrics(traced, allocs, traced_s))
    m["import.cli_share"] = statistics.median(shares) if shares else 0.0
    m["cli.out_mb"] = out_bytes / 2**20
    m["trace.lib_session_s"] = traced_s
    m["trace.lib_session_untraced_s"] = plain_s
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.spans"] = sum(len(spans) for spans in traced)
    return m


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def _blas(module) -> str:
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{info.get('name')} {info.get('version')}"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except FileNotFoundError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "blas_threads": {name: os.environ.get(name, "unset (library default)") for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def per_layer_unit(name: str) -> str:
    stat = name.replace("_", ".").rsplit(".", 1)[-1]
    return {"ms": "ms", "s": "s", "mb": "MB", "share": "ratio"}.get(stat, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quswap" / "__init__.py").is_file():
        print(f"error: no quswap sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        env = environment(args.seed)
        if args.trace:
            samples = {}
            metrics = measure_traced(args.workload, args.seed, work, tally)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            samples = measure(args.workload, args.seed, args.seconds, work, tally)
            metrics = {name: statistics.median(samples[name]) if samples[name] else 0.0
                       for name in END_TO_END if name != "success_ratio"}
            metrics["success_ratio"] = (tally.attempted - tally.failed) / tally.attempted
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"# environment {json.dumps(env)}")
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    print(f"# fail_ratio = {tally.failed / tally.attempted!r} "
          f"({tally.failed} failed of {tally.attempted} operations)")
    for name in sorted(metrics):
        count = f"  ({len(samples[name])} samples)" if name in samples else ""
        print(f"# {name} = {metrics[name]!r} {units[name]}{count}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "samples": samples,
              "problems": tally.problems, **result}
    with open(out_dir / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
