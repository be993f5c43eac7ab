"""Machine-checkable invariants behind the ``verify`` CLI command.

Each check builds the operators fresh from the library, measures a single
scalar metric and wraps it into a :class:`VerificationReport`. Deviation
metrics pass when metric <= tolerance; fidelity metrics pass when
metric >= tolerance (the tolerance then being the minimum acceptable
fidelity). All randomness is seeded, so two runs produce identical reports
except for the wall-time field.

Checks whose tolerance is the analytic default of 1e-10 honor the
``QUSWAP_TOL`` environment variable; exact integer checks (tolerance 0)
never do.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import core, fock, gates

__all__ = ["VerificationReport", "analytic_tol", "fock_checks", "qudit_checks", "run_suite"]

EXCHANGE_CUTOFF_LADDER = (8, 16, 32)
MONOTONE_JITTER = 1e-12  # double-precision slack between fidelities at different cutoffs


def analytic_tol() -> float:
    """Default tolerance for analytic (non-integer) identities; env-overridable.

    Raises ValueError unless ``QUSWAP_TOL`` is a finite positive number.
    """
    raw = os.environ.get("QUSWAP_TOL", "1e-10")
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"QUSWAP_TOL must be a finite positive number, got {raw!r}")
    return tol


@dataclass
class VerificationReport:
    """One pass/fail record: check name, parameters, metric and timing."""

    check: str
    params: dict
    kind: str  # "deviation" or "fidelity"
    metric: float
    tolerance: float
    passed: bool
    wall_ms: float

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "kind": self.kind,
            "metric": self.metric,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "wall_ms": self.wall_ms,
        }


def _deviation(check: str, params: dict, metric: float, tol: float,
               t0: float) -> VerificationReport:
    return VerificationReport(check, params, "deviation", float(metric), tol,
                              float(metric) <= tol,
                              (time.perf_counter() - t0) * 1e3)


def _fidelity(check: str, params: dict, metric: float, min_fid: float,
              t0: float) -> VerificationReport:
    return VerificationReport(check, params, "fidelity", float(metric), min_fid,
                              float(metric) >= min_fid,
                              (time.perf_counter() - t0) * 1e3)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _random_states(rng: np.random.Generator, count: int, support: int,
                   dim: int) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        v = np.zeros(dim, dtype=complex)
        v[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(support + 1)
        out.append(v / np.linalg.norm(v))
    return out


# ---------------------------------------------------------------------------
# qudit suite
# ---------------------------------------------------------------------------

def check_weyl_commutation(d: int) -> VerificationReport:
    """Sigma3 Sigma1 = zeta Sigma1 Sigma3."""
    t0 = time.perf_counter()
    s1 = gates.sigma1(d).matrix
    s3 = gates.sigma3(d).matrix
    zeta = core.QuditDim(d).zeta
    dev = core.max_abs(s3 @ s1 - zeta * s1 @ s3)
    return _deviation("weyl-commutation", {"d": d}, dev, 1e-13, t0)


def check_shift_adjoint_power(d: int) -> VerificationReport:
    """Sigma1^dag = Sigma1^(d-1), exact on 0/1 entries."""
    t0 = time.perf_counter()
    s1 = gates.sigma1(d).matrix
    dev = core.max_abs(core.adjoint(s1) - core.matpow(s1, d - 1))
    return _deviation("shift-adjoint-power", {"d": d}, dev, 0.0, t0)


def check_clock_adjoint_power(d: int) -> VerificationReport:
    """Sigma3^dag = Sigma3^(d-1) on the root-of-unity diagonal."""
    t0 = time.perf_counter()
    s3 = gates.sigma3(d).matrix
    dev = core.max_abs(core.adjoint(s3) - core.matpow(s3, d - 1))
    return _deviation("clock-adjoint-power", {"d": d}, dev, 1e-13, t0)


def check_swap_decomposition(d: int) -> VerificationReport:
    """The six-gate product equals the directly built swap, entrywise exactly."""
    t0 = time.perf_counter()
    dev = core.max_abs(gates.swap_composed(d).matrix - gates.swap_direct(d).matrix)
    return _deviation("swap-decomposition", {"d": d}, dev, 0.0, t0)


def check_swap_conjugation(d: int) -> VerificationReport:
    """S (1 x K) S = K x 1: the swap exchanges which qudit a local gate acts on."""
    t0 = time.perf_counter()
    s = gates.swap_direct(d).matrix
    k = gates.reverse_gate(d).matrix
    eye = np.eye(d)
    dev = core.max_abs(s @ core.tensor_op(eye, k) @ s - core.tensor_op(k, eye))
    return _deviation("swap-conjugation", {"d": d}, dev, 0.0, t0)


def check_basis_cloning(d: int) -> VerificationReport:
    """C_Sigma (|a> (x) |0>) = |a> (x) |a> for every a."""
    t0 = time.perf_counter()
    cs = gates.controlled_shift(d).matrix
    dev = 0.0
    for a in range(d):
        got = cs @ core.tensor_state(core.basis_state(a, d), core.basis_state(0, d))
        want = core.tensor_state(core.basis_state(a, d), core.basis_state(a, d))
        dev = max(dev, core.max_abs(got - want))
    return _deviation("basis-cloning", {"d": d}, dev, 0.0, t0)


def check_permutation_structure(d: int) -> VerificationReport:
    """Sigma1, K, C_Sigma, C~_Sigma and S are exact 0/1 permutation matrices."""
    t0 = time.perf_counter()
    dev = 0.0
    for gate in (gates.sigma1(d), gates.reverse_gate(d), gates.controlled_shift(d),
                 gates.controlled_shift_reversed(d), gates.swap_direct(d)):
        m = gate.matrix
        ok = (
            np.all((m == 0) | (m == 1))
            and np.all(m.sum(axis=0) == 1)
            and np.all(m.sum(axis=1) == 1)
        )
        if not ok:
            dev = max(dev, 1.0)
    return _deviation("permutation-structure", {"d": d}, dev, 0.0, t0)


def qudit_checks(d_max: int = 8) -> list[VerificationReport]:
    """All qudit-gate invariants for every d in 2..d_max."""
    reports = []
    for d in range(2, d_max + 1):
        reports += [
            check_weyl_commutation(d),
            check_shift_adjoint_power(d),
            check_clock_adjoint_power(d),
            check_swap_decomposition(d),
            check_swap_conjugation(d),
            check_basis_cloning(d),
            check_permutation_structure(d),
        ]
    return reports


# ---------------------------------------------------------------------------
# fock suite
# ---------------------------------------------------------------------------

def check_ladder_commutators(n_max: int) -> VerificationReport:
    """[N, a^dag] = a^dag and [N, a] = -a everywhere; [a, a^dag] = 1 below the boundary."""
    t0 = time.perf_counter()
    a = fock.annihilation(n_max).matrix
    adag = fock.creation(n_max).matrix
    n_op = fock.number(n_max).matrix
    interior = fock.level_projector(n_max, n_max - 1)
    dev = max(
        core.max_abs(core.commutator(n_op, adag) - adag),
        core.max_abs(core.commutator(n_op, a) + a),
        core.max_abs((core.commutator(a, adag) - np.eye(n_max + 1)) @ interior),
    )
    return _deviation("ladder-commutators", {"n_max": n_max}, dev, 1e-13, t0)


def check_number_basis(n_max: int) -> VerificationReport:
    """The truncated number basis is exactly orthonormal and complete."""
    t0 = time.perf_counter()
    dim = n_max + 1
    basis = [core.basis_state(j, dim) for j in range(dim)]
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    resolution = sum(np.outer(v, v.conj()) for v in basis)
    dev = max(core.max_abs(gram - np.eye(dim)), core.max_abs(resolution - np.eye(dim)))
    return _deviation("number-basis-orthonormality", {"n_max": n_max}, dev, 0.0, t0)


def check_beamsplitter_number_conservation(n_max: int) -> VerificationReport:
    """[U_J(t), N1 + N2] = 0: the beamsplitter is block-diagonal in total number."""
    t0 = time.perf_counter()
    n = np.diag(fock.number(n_max).matrix).real
    n_tot = np.add.outer(n, n).ravel()
    dev = 0.0
    for t in (0.9, 0.5 * np.exp(1j * math.pi / 3), (math.pi / 2) * np.exp(-1j * math.pi / 5)):
        u = fock.beamsplitter(complex(t), n_max).matrix
        # N1 + N2 is diagonal, so [U, N1 + N2]_ij = U_ij (n_j - n_i)
        dev = max(dev, core.max_abs(u * (n_tot[None, :] - n_tot[:, None])))
    return _deviation("beamsplitter-number-conservation", {"n_max": n_max}, dev, 1e-12, t0)


def check_exchange_convergence(n_max: int) -> VerificationReport:
    """Exchange fidelity is non-decreasing in the cutoff for fixed coherent inputs."""
    t0 = time.perf_counter()
    ladder = [c for c in EXCHANGE_CUTOFF_LADDER if c <= n_max] or [n_max]
    pairs = [(0.7 + 0j, -0.4 + 0.3j), (1.0 + 0j, 0.5j)]
    violation = 0.0
    for z1, z2 in pairs:
        fids = []
        for cut in ladder:
            e = fock.exchange_protocol(0.0, cut)
            with warnings.catch_warnings():
                # small cutoffs are probed on purpose
                warnings.simplefilter("ignore", fock.TruncationWarning)
                inp = core.tensor_state(fock.coherent_state(z1, cut),
                                        fock.coherent_state(z2, cut))
                tgt = core.tensor_state(fock.coherent_state(z2, cut),
                                        fock.coherent_state(z1, cut))
            fids.append(core.fidelity(tgt, e.apply(inp)))
        for lo, hi in zip(fids, fids[1:]):
            violation = max(violation, lo - hi)
    return _deviation(
        "exchange-convergence",
        {"cutoffs": ladder, "pairs": [[_pair(z1), _pair(z2)] for z1, z2 in pairs]},
        violation, MONOTONE_JITTER, t0,
    )


def check_clone_closed_form_norm(n_max: int) -> VerificationReport:
    """The closed-form split of a normalized state is normalized."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    dev = 0.0
    for x in _random_states(rng, 20, n_max, n_max + 1):
        for t_abs in (0.3, math.pi / 4, 1.2):
            out = fock.imperfect_clone_closed_form(x, t_abs, n_max)
            dev = max(dev, abs(np.linalg.norm(out) - 1.0))
    return _deviation("clone-closed-form-norm", {"n_max": n_max, "seed": 20240601,
                                                 "trials": 20}, dev, analytic_tol(), t0)


def check_clone_oracle_equivalence(n_max: int) -> VerificationReport:
    """Beamsplitter route and closed-form amplitudes agree on random inputs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240602)
    t = 0.7 * np.exp(0.4j)
    worst = 1.0
    for x in _random_states(rng, 100, n_max // 2, n_max + 1):
        got = fock.imperfect_clone_numeric(x, t, n_max)
        want = fock.imperfect_clone_closed_form(x, t, n_max)
        worst = min(worst, core.fidelity(want, got))
    return _fidelity("clone-oracle-equivalence",
                     {"n_max": n_max, "seed": 20240602, "trials": 100, "t": _pair(complex(t))},
                     worst, 1 - 1e-8, t0)


def check_clone_coherent_marginal(n_max: int) -> VerificationReport:
    """Second-mode marginal of a cloned coherent state is the coherent state sin|t| z."""
    t0 = time.perf_counter()
    # largest probe z whose truncated tail stays well below the fidelity
    # margin at this cutoff
    z = next(
        (c for c in (0.8, 0.5, 0.2, 0.05)
         if fock.coherent_truncation_weight(c, n_max) <= 1e-10),
        0.01,
    )
    t_abs = math.pi / 4
    with warnings.catch_warnings():
        # small cutoffs are probed on purpose
        warnings.simplefilter("ignore", fock.TruncationWarning)
        out = fock.imperfect_clone_numeric(fock.coherent_state(z, n_max), t_abs, n_max)
    rho2 = fock.mode2_marginal(out, n_max)
    target = fock.coherent_state(math.sin(t_abs) * z, n_max)
    overlap = float(np.real(np.vdot(target, rho2 @ target)))
    return _fidelity("clone-coherent-marginal",
                     {"n_max": n_max, "z": _pair(complex(z)), "t_abs": t_abs},
                     overlap, 1 - 1e-8, t0)


def fock_checks(n_max: int = 32) -> list[VerificationReport]:
    """All Fock-space invariants at the requested cutoff."""
    return [
        check_ladder_commutators(n_max),
        check_number_basis(n_max),
        check_beamsplitter_number_conservation(n_max),
        check_exchange_convergence(n_max),
        check_clone_closed_form_norm(n_max),
        check_clone_oracle_equivalence(n_max),
        check_clone_coherent_marginal(n_max),
    ]


def run_suite(suite: str, d_max: int = 8, n_max: int = 32) -> list[VerificationReport]:
    """Run the requested invariant suite, reports sorted by check name then params."""
    if suite not in ("qudit", "fock", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    reports: list[VerificationReport] = []
    if suite in ("qudit", "all"):
        reports += qudit_checks(d_max)
    if suite in ("fock", "all"):
        reports += fock_checks(n_max)
    reports.sort(key=lambda r: (r.check, json.dumps(r.to_dict()["params"])))
    return reports
