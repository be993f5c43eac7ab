"""The benchmark's own correctness checks for quswap outputs.

Every expected value here is rebuilt from index arithmetic or from the
closed formulas of the paper with plain numpy, never with quswap itself, so
a defect in the library cannot vouch for its own output. Overlaps and norms
are computed with numpy: ``quswap.fidelity`` clips into [0, 1] and would
accept an output scaled by 2.

Each ``*_problems`` function returns a list of human-readable problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import functools
import json
import math

import numpy as np

FIDELITY_MIN = 1 - 1e-8  # pinned fidelity threshold of the exchange and clone protocols
NORM_TOL = 1e-10  # pinned closed-form norm tolerance
WEIGHT_RTOL = 1e-6  # truncation weights are tail sums; only their size matters

QUDIT_CHECKS = (
    "weyl-commutation", "shift-adjoint-power", "clock-adjoint-power",
    "swap-decomposition", "swap-conjugation", "basis-cloning", "permutation-structure",
)
FOCK_CHECKS = (
    "ladder-commutators", "number-basis-orthonormality", "beamsplitter-number-conservation",
    "exchange-convergence", "clone-closed-form-norm", "clone-oracle-equivalence",
    "clone-coherent-marginal",
)


def permutation(name: str, d: int) -> np.ndarray:
    """0/1 matrix of a permutation gate, from the index map of its definition."""
    a, b = np.divmod(np.arange(d * d), d)
    one = np.arange(d)
    targets = {
        "sigma1": lambda: (one + 1) % d,
        "k": lambda: (d - one) % d,
        "cshift": lambda: a * d + (a + b) % d,
        "cshift-rev": lambda: ((a + b) % d) * d + b,
        "swap": lambda: b * d + a,
        "swap-composed": lambda: b * d + a,
    }
    rows = targets[name]()
    m = np.zeros((len(rows), len(rows)))
    m[rows, np.arange(len(rows))] = 1.0
    return m


def clock(d: int) -> np.ndarray:
    """Clock gate diag(zeta^a), zeta = exp(2 pi i / d)."""
    return np.diag([complex(math.cos(2 * math.pi * a / d), math.sin(2 * math.pi * a / d))
                    for a in range(d)])


def coherent(z: complex, n_max: int) -> np.ndarray:
    """Coherent-state amplitudes z^n / sqrt(n!) on |0>..|n_max>, renormalized."""
    amp = np.ones(n_max + 1, dtype=complex)
    for n in range(1, n_max + 1):
        amp[n] = amp[n - 1] * z / math.sqrt(n)
    return amp / np.linalg.norm(amp)


def poisson_tail(mu: float, n_max: int) -> float:
    """Weight of a coherent state with |z|^2 = mu above level n_max."""
    term = math.exp(-mu)
    for n in range(1, n_max + 1):
        term *= mu / n
    tail, n = 0.0, n_max
    while True:
        n += 1
        term *= mu / n
        tail += term
        if term <= tail * 1e-17 or term == 0.0:
            return tail


def clone_amplitudes(x, t_abs: float, n_max: int) -> np.ndarray:
    """Split of sum_n x_n |n> on |n> (x) |m>: sqrt(C(n+m, n)) cos^n sin^m x_{n+m}."""
    x = np.asarray(x, dtype=complex)
    dim = n_max + 1
    out = np.zeros(dim * dim, dtype=complex)
    cos_t, sin_t = math.cos(t_abs), math.sin(t_abs)
    for n in range(dim):
        for m in range(dim - n):
            if n + m < len(x):
                out[n * dim + m] = math.sqrt(math.comb(n + m, n)) * cos_t**n * sin_t**m * x[n + m]
    return out


def matrix_problems(label: str, got, want: np.ndarray) -> list[str]:
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = np.argwhere(got != want)
    return [f"{label}: {len(bad)} entries differ, first at {tuple(bad[0])}"] if len(bad) else []


def diagonal_problems(label: str, got, want: np.ndarray, tol: float = 1e-13) -> list[str]:
    """Root-of-unity diagonal: off-diagonal entries exactly 0, diagonal within tol."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    off = got - np.diag(np.diag(got))
    dev = float(np.max(np.abs(np.diag(got) - np.diag(want))))
    if np.any(off != 0) or dev > tol:
        return [f"{label}: clock deviates by {dev:.3e}"]
    return []


def state_problems(label: str, got, want: np.ndarray) -> list[str]:
    """Unit norm within NORM_TOL and |<want|got>|^2 >= FIDELITY_MIN (want is normalized)."""
    got = np.asarray(got, dtype=complex)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    norm = float(np.linalg.norm(got))
    overlap = abs(np.vdot(want, got)) ** 2
    problems = []
    if not abs(norm - 1.0) <= NORM_TOL:
        problems.append(f"{label}: norm {norm!r}")
    if not overlap >= FIDELITY_MIN:
        problems.append(f"{label}: overlap {overlap!r}")
    return problems


def reports_problems(reports: list[dict], names: tuple, count: int) -> list[str]:
    """Every report passed, consistently with its own metric, and none is missing."""
    problems = []
    if len(reports) != count:
        problems.append(f"{len(reports)} reports, expected {count}")
    if {r["check"] for r in reports} != set(names):
        problems.append(f"checks {sorted({r['check'] for r in reports})}")
    for r in reports:
        ok = r["metric"] <= r["tolerance"] if r["kind"] == "deviation" else r["metric"] >= r["tolerance"]
        if r["passed"] is not True or not ok:
            problems.append(f"{r['check']} {r['params']} failed: metric {r['metric']!r}")
    return problems


def expected_reports(suite: str, d_max: int) -> tuple[tuple, int]:
    """Check names and report count of a suite; the Fock suite runs once per cutoff."""
    names, count = (), 0
    if suite in ("qudit", "all"):
        names, count = names + QUDIT_CHECKS, count + len(QUDIT_CHECKS) * (d_max - 1)
    if suite in ("fock", "all"):
        names, count = names + FOCK_CHECKS, count + len(FOCK_CHECKS)
    return names, count


def _entries(payload: dict) -> np.ndarray:
    arr = np.asarray(payload["entries"], dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


@functools.lru_cache(maxsize=8)
def _dump_text(name: str, d: int, fmt: str) -> str:
    """The CLI's serialization of a permutation gate, to skip parsing a correct dump."""
    want = permutation(name, d)
    if fmt == "csv":
        cells = np.where(want == 1, "1+0i", "0+0i")
        return "".join(",".join(row) + "\n" for row in cells)
    cells = np.where(want.ravel() == 1, "[1.0, 0.0]", "[0.0, 0.0]")
    return f'{{"gate": "{name}", "d": {d}, "dim": {len(want)}, "entries": [{", ".join(cells)}]}}\n'


def gate_dump_problems(path: str, name: str, d: int, fmt: str) -> list[str]:
    """A gate dump equals, exactly, the permutation built from index arithmetic.

    A dump that reads as the expected text passes without being parsed; any
    other dump is parsed and compared entry by entry.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text == _dump_text(name, d, fmt):
        return []
    want = permutation(name, d)
    if fmt == "csv":
        rows = [[complex(cell[:-1] + "j") for cell in row] for row in csv.reader(text.splitlines())]
        return matrix_problems(f"gate {name} d={d} csv", np.array(rows), want)
    payload = json.loads(text)
    if (payload.get("gate"), payload.get("d"), payload.get("dim")) != (name, d, len(want)):
        return [f"gate header {payload.get('gate')!r} d={payload.get('d')} dim={payload.get('dim')}"]
    return matrix_problems(f"gate {name} d={d}", _entries(payload).reshape(want.shape), want)


def verify_problems(path: str, suite: str, d_max: int, n_max: int) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = [] if payload.get("all_passed") is True else ["all_passed is not true"]
    if (payload.get("suite"), payload.get("d_max"), payload.get("n_max")) != (suite, d_max, n_max):
        problems.append("suite parameters not echoed")
    return problems + reports_problems(payload.get("reports", []), *expected_reports(suite, d_max))


def exchange_problems(path: str, z1: complex, z2: complex, theta: float, n_max: int) -> list[str]:
    """The exchange payload carries no state, so check its fidelity, echo and tail weights."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    problems = []
    if (payload.get("z1"), payload.get("z2"), payload.get("theta"), payload.get("n_max")) != (
            [z1.real, z1.imag], [z2.real, z2.imag], theta, n_max):
        problems.append("exchange inputs not echoed")
    fid = payload.get("fidelity")
    if not (isinstance(fid, float) and FIDELITY_MIN <= fid <= 1.0):
        problems.append(f"exchange fidelity {fid!r}")
    for label, z in (("z1", z1), ("z2", z2)):
        want = poisson_tail(abs(z) ** 2, n_max)
        got = payload.get("truncation_weight", {}).get(label)
        if not (isinstance(got, float) and abs(got - want) <= 1e-15 + WEIGHT_RTOL * want):
            problems.append(f"truncation weight {label} {got!r}, expected {want!r}")
    return problems


def clone_problems(path: str, x, t_abs: float, n_max: int) -> list[str]:
    """Both routes of the clone match the closed formula, with unit norm."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    want = clone_amplitudes(x, t_abs, n_max)
    problems = []
    for key in ("numeric", "closed_form"):
        problems += state_problems(f"clone {key}", _entries(payload[key]), want)
    fid = payload.get("oracle_fidelity")
    if not (isinstance(fid, float) and fid >= FIDELITY_MIN):
        problems.append(f"clone oracle_fidelity {fid!r}")
    return problems


def cli_problems(op: dict) -> list[str]:
    """Check the output file of one CLI invocation described by a workload op."""
    kind, out = op["kind"], op.get("out")
    if kind == "import":
        return []
    if kind == "gate":
        return gate_dump_problems(out, op["name"], op["d"], op["format"])
    if kind == "verify":
        return verify_problems(out, op["suite"], op["d_max"], op["n_max"])
    if kind == "exchange":
        return exchange_problems(out, op["z1"], op["z2"], op["theta"], op["n_max"])
    if kind == "clone":
        return clone_problems(out, op["x"], op["t_abs"], op["n_max"])
    raise ValueError(f"unknown op kind {kind!r}")
