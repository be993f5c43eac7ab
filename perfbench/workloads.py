"""The benchmark's workloads, generated from a seed.

Each workload is a list of CLI invocations and a list of library calls, run
as closed loops by one client: the next operation starts when the previous
one has finished. The same seed gives the same inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "qudit": "dense d^2 x d^2 gate products and 12.6 MB gate dumps at d = 32; "
             "no Fock work, so it is the no-change control for Fock changes",
    "fock": "dense (n_max+1)^2 expm at the CLI default cutoff n_max = 32 dominates, "
            "where BLAS threads help; no gate work",
    "small": "short invocations and a few hundred calls at n_max <= 8 and d <= 8, "
             "where import and per-call overhead dominate",
}

GATE_BUILDERS = {  # CLI gate name -> quswap.gates function
    "sigma1": "sigma1", "sigma3": "sigma3", "k": "reverse_gate", "cshift": "controlled_shift",
    "cshift-rev": "controlled_shift_reversed", "swap": "swap_direct", "swap-composed": "swap_composed",
}


@dataclass
class LibOp:
    """One library call: ``call`` is timed, ``check`` is not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _disc(rng: np.random.Generator, radius: float) -> complex:
    """Uniform point in the disc |z| <= radius, rounded so it prints exactly."""
    r, phi = radius * math.sqrt(rng.random()), 2 * math.pi * rng.random()
    return complex(round(r * math.cos(phi), 6), round(r * math.sin(phi), 6))


def _unit_vector(rng: np.random.Generator, length: int) -> np.ndarray:
    v = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return v / np.linalg.norm(v)


def _z_arg(flag: str, z: complex) -> str:
    return f"--{flag}={z.real!r}{z.imag:+.17g}i"


# ---------------------------------------------------------------------------
# CLI invocations
# ---------------------------------------------------------------------------

def _gate(name: str, d: int, fmt: str = "json") -> dict:
    return {"kind": "gate", "argv": ["gate", "--name", name, "--d", str(d), "--format", fmt],
            "name": name, "d": d, "format": fmt}


def _verify(suite: str, d_max: int = 8, n_max: int = 32) -> dict:
    return {"kind": "verify", "suite": suite, "d_max": d_max, "n_max": n_max,
            "argv": ["verify", "--suite", suite, "--d-max", str(d_max), "--n-max", str(n_max)]}


def _exchange(rng: np.random.Generator, n_max: int, radius: float) -> dict:
    z1, z2 = _disc(rng, radius), _disc(rng, radius)
    theta = round(2 * math.pi * rng.random(), 6)
    return {"kind": "exchange", "z1": z1, "z2": z2, "theta": theta, "n_max": n_max,
            "argv": ["exchange", _z_arg("z1", z1), _z_arg("z2", z2), f"--theta={theta!r}",
                     "--n-max", str(n_max)]}


def _clone_coherent(rng: np.random.Generator, n_max: int, radius: float) -> dict:
    z, t_abs = _disc(rng, radius), round(0.2 + 1.1 * rng.random(), 6)
    return {"kind": "clone", "x": checks.coherent(z, n_max), "t_abs": t_abs, "n_max": n_max,
            "argv": ["clone", _z_arg("z", z), f"--t-abs={t_abs!r}", "--n-max", str(n_max)]}


def _clone_file(rng: np.random.Generator, n_max: int, path: Path) -> dict:
    x = _unit_vector(rng, n_max // 2 + 1)
    t_abs = round(0.2 + 1.1 * rng.random(), 6)
    return {"kind": "clone", "x": x, "t_abs": t_abs, "n_max": n_max, "input": str(path),
            "input_data": [[float(v.real), float(v.imag)] for v in x],
            "argv": ["clone", "--input", str(path), f"--t-abs={t_abs!r}", "--n-max", str(n_max)]}


def cli_ops(workload: str, seed: int, work: Path) -> list[dict]:
    """CLI invocations of one pass; each writes its output to a file in ``work``.

    ``argv`` follows ``python -m quswap.cli``; the ``import`` op is a bare
    ``python -c "import quswap"``. Input files an op needs are listed in
    ``input``/``input_data`` and written by ``write_inputs``.
    """
    rng = _rng(seed, 1)
    if workload == "qudit":
        ops = [_verify("qudit", d_max=16), _gate("swap-composed", 32), _gate("swap", 32),
               _gate("cshift", 32, "csv")]
    elif workload == "fock":
        # |z| <= 1 stays inside the advisory bound sqrt(32)/4
        ops = [_verify("fock", n_max=32), _exchange(rng, 32, 1.0), _clone_coherent(rng, 32, 1.0)]
    elif workload == "small":
        # |z| <= 0.25 keeps the weight above total photon number 8 below 1e-10
        ops = [{"kind": "import", "argv": []}, _gate("cshift", 2),
               _verify("qudit", d_max=4), _verify("fock", n_max=6),
               _exchange(rng, 8, 0.25), _clone_file(rng, 8, work / "clone-input.json")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, op in enumerate(ops):
        if op["argv"]:
            op["out"] = str(work / f"cli{i}.{op.get('format', 'json')}")
            op["argv"] = op["argv"] + ["--out", op["out"]]
    return ops


def write_inputs(ops: list[dict]) -> None:
    for op in ops:
        if "input" in op:
            Path(op["input"]).write_text(json.dumps(op["input_data"]), encoding="utf-8")


# ---------------------------------------------------------------------------
# library calls
# ---------------------------------------------------------------------------

def _gate_ops(gates, d: int) -> list[LibOp]:
    ops = []
    for name, fn_name in GATE_BUILDERS.items():
        want = checks.clock(d) if name == "sigma3" else checks.permutation(name, d)
        compare = checks.diagonal_problems if name == "sigma3" else checks.matrix_problems
        ops.append(LibOp(
            f"gates.{fn_name}",
            lambda fn_name=fn_name: getattr(gates, fn_name)(d),
            lambda g, name=name, want=want, compare=compare: compare(f"{name} d={d}", g.matrix, want),
        ))
    return ops


def _coherent_op(fock, z: complex, n_max: int) -> LibOp:
    want = checks.coherent(z, n_max)
    return LibOp("fock.coherent_state", lambda: fock.coherent_state(z, n_max),
                 lambda v: checks.state_problems(f"coherent z={z} n={n_max}", v, want))


def _beamsplitter_op(fock, t: complex, z: complex, n_max: int) -> LibOp:
    # U_J(t) |z> (x) |0> = |cos|t| z> (x) |-e^(-i theta) sin|t| z>
    vac = np.eye(n_max + 1)[0].astype(complex)
    inp = np.kron(checks.coherent(z, n_max), vac)
    theta = math.atan2(t.imag, t.real)
    want = np.kron(checks.coherent(math.cos(abs(t)) * z, n_max),
                   checks.coherent(-np.exp(-1j * theta) * math.sin(abs(t)) * z, n_max))
    return LibOp("fock.beamsplitter", lambda: fock.beamsplitter(t, n_max).apply(inp),
                 lambda v: checks.state_problems(f"beamsplitter t={t} n={n_max}", v, want))


def _exchange_op(fock, theta: float, z1: complex, z2: complex, n_max: int) -> LibOp:
    c1, c2 = checks.coherent(z1, n_max), checks.coherent(z2, n_max)
    inp, want = np.kron(c1, c2), np.kron(c2, c1)
    return LibOp("fock.exchange_protocol",
                 lambda: fock.exchange_protocol(theta, n_max).apply(inp),
                 lambda v: checks.state_problems(f"exchange theta={theta} n={n_max}", v, want))


def _clone_ops(fock, x: np.ndarray, t: complex, n_max: int) -> list[LibOp]:
    want = checks.clone_amplitudes(x, abs(t), n_max)
    check = lambda v, route: checks.state_problems(f"clone {route} t={t} n={n_max}", v, want)  # noqa: E731
    return [
        LibOp("fock.imperfect_clone_numeric", lambda: fock.imperfect_clone_numeric(x, t, n_max),
              lambda v: check(v, "numeric")),
        LibOp("fock.imperfect_clone_closed_form",
              lambda: fock.imperfect_clone_closed_form(x, t, n_max),
              lambda v: check(v, "closed_form")),
    ]


def _param(rng: np.random.Generator) -> complex:
    """Beamsplitter strength with |t| in [0.2, 1.3] and a random phase."""
    return (0.2 + 1.1 * rng.random()) * complex(np.exp(2j * math.pi * rng.random()))


def lib_ops(workload: str, seed: int) -> list[LibOp]:
    """Library calls of one pass. Imports quswap, so call it after timing the import."""
    from quswap import fock, gates, verify

    rng = _rng(seed, 2)
    ops: list[LibOp] = []
    if workload == "qudit":
        for d in (8, 16, 32):
            ops += _gate_ops(gates, d)
        order = rng.permutation(len(ops))
        ops = [ops[i] for i in order]
        names, count = checks.expected_reports("qudit", 16)
        ops.append(LibOp("verify.qudit_checks", lambda: verify.qudit_checks(16),
                         lambda reports: checks.reports_problems(
                             [r.to_dict() for r in reports], names, count)))
    elif workload == "fock":
        for n_max in (16, 32):
            z1, z2 = _disc(rng, 1.0), _disc(rng, 1.0)
            x = _unit_vector(rng, n_max // 2 + 1)
            ops += [_coherent_op(fock, z1, n_max), _coherent_op(fock, z2, n_max),
                    _beamsplitter_op(fock, _param(rng), z1, n_max),
                    _exchange_op(fock, 2 * math.pi * rng.random(), z1, z2, n_max),
                    *_clone_ops(fock, x, _param(rng), n_max)]
    elif workload == "small":
        for _ in range(60):
            n_max = int(rng.integers(6, 9))
            ops.append(_exchange_op(fock, 2 * math.pi * rng.random(),
                                    _disc(rng, 0.25), _disc(rng, 0.25), n_max))
            n_max = int(rng.integers(4, 9))
            ops += _clone_ops(fock, _unit_vector(rng, n_max // 2 + 1), _param(rng), n_max)
            for _ in range(2):
                d = int(rng.integers(2, 9))
                ops.append(LibOp("gates.swap_composed", lambda d=d: gates.swap_composed(d),
                                 lambda g, d=d: checks.matrix_problems(
                                     f"swap-composed d={d}", g.matrix,
                                     checks.permutation("swap-composed", d))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
