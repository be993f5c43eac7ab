"""Machine-checkable invariants behind the ``verify`` CLI command.

Each check builds the operators fresh from the library and measures a
single scalar metric. Checks are registered with ``_check``, which times
them and builds their :class:`VerificationReport`. Deviation metrics pass
when metric <= tolerance; fidelity metrics pass when metric >= tolerance
(the tolerance then being the minimum acceptable fidelity). All
randomness is seeded, so two runs produce identical reports except for
the wall-time field.

Checks whose tolerance is the analytic default of 1e-10 honor the
``QUSWAP_TOL`` environment variable; exact integer checks (tolerance 0)
never do.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import core, gates

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
        return {**asdict(self), "params": dict(sorted(self.params.items()))}


# (suite, check name) -> registered check, in definition order. A flat dict of
# the public functions, so that perfbench's tracer, which wraps module functions
# and the dict values that hold them, also times each check the suites run.
_CHECKS: dict[tuple[str, str], Callable[[int], VerificationReport]] = {}


def _check(suite: str, name: str, kind: str, tol: float | Callable[[], float]):
    """Register a check of ``suite`` whose body returns ``(params, metric)``.

    The registered function takes the body's argument and returns the
    :class:`VerificationReport`: it times the body, ignores
    ``TruncationWarning`` (small cutoffs are probed on purpose), reads
    ``tol`` (a number, or ``analytic_tol``) and compares the metric with it
    as ``kind`` says.
    """
    def register(body: Callable[[int], tuple[dict, float]]) -> Callable[[int], VerificationReport]:
        @functools.wraps(body)
        def run(*args, **kwargs) -> VerificationReport:
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", core.TruncationWarning)
                params, metric = body(*args, **kwargs)
            metric, tolerance = float(metric), tol() if callable(tol) else tol
            passed = metric <= tolerance if kind == "deviation" else metric >= tolerance
            return VerificationReport(name, params, kind, metric, tolerance, passed,
                                      (time.perf_counter() - t0) * 1e3)
        _CHECKS[suite, name] = run
        return run
    return register


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

@_check("qudit", "weyl-commutation", "deviation", 1e-13)
def check_weyl_commutation(d: int) -> tuple[dict, float]:
    """Sigma3 Sigma1 = zeta Sigma1 Sigma3."""
    s1 = gates.sigma1(d).matrix
    s3 = gates.sigma3(d).matrix
    zeta = core.QuditDim(d).zeta
    return {"d": d}, core.max_abs(s3 @ s1 - zeta * s1 @ s3)


@_check("qudit", "shift-adjoint-power", "deviation", 0.0)
def check_shift_adjoint_power(d: int) -> tuple[dict, float]:
    """Sigma1^dag = Sigma1^(d-1), exact on 0/1 entries."""
    s1 = gates.sigma1(d).matrix
    return {"d": d}, core.max_abs(core.adjoint(s1) - core.matpow(s1, d - 1))


@_check("qudit", "clock-adjoint-power", "deviation", 1e-13)
def check_clock_adjoint_power(d: int) -> tuple[dict, float]:
    """Sigma3^dag = Sigma3^(d-1) on the root-of-unity diagonal."""
    s3 = gates.sigma3(d).matrix
    return {"d": d}, core.max_abs(core.adjoint(s3) - core.matpow(s3, d - 1))


@_check("qudit", "swap-decomposition", "deviation", 0.0)
def check_swap_decomposition(d: int) -> tuple[dict, float]:
    """The six-gate product equals the directly built swap, entrywise exactly."""
    return {"d": d}, core.max_abs(gates.swap_composed(d).matrix - gates.swap_direct(d).matrix)


@_check("qudit", "swap-conjugation", "deviation", 0.0)
def check_swap_conjugation(d: int) -> tuple[dict, float]:
    """S (1 x K) S = K x 1: the swap exchanges which qudit a local gate acts on."""
    s = gates.swap_direct(d).matrix
    k = gates.reverse_gate(d).matrix
    eye = np.eye(d)
    return {"d": d}, core.max_abs(s @ core.tensor_op(eye, k) @ s - core.tensor_op(k, eye))


@_check("qudit", "basis-cloning", "deviation", 0.0)
def check_basis_cloning(d: int) -> tuple[dict, float]:
    """C_Sigma (|a> (x) |0>) = |a> (x) |a> for every a."""
    cs = gates.controlled_shift(d).matrix
    dev = 0.0
    for a in range(d):
        got = cs @ core.tensor_state(core.basis_state(a, d), core.basis_state(0, d))
        want = core.tensor_state(core.basis_state(a, d), core.basis_state(a, d))
        dev = max(dev, core.max_abs(got - want))
    return {"d": d}, dev


@_check("qudit", "permutation-structure", "deviation", 0.0)
def check_permutation_structure(d: int) -> tuple[dict, float]:
    """Sigma1, K, C_Sigma, C~_Sigma and S are exact 0/1 permutation matrices."""
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
    return {"d": d}, dev


def _suite(suite: str, size: int) -> list[VerificationReport]:
    return [check(size) for (s, _), check in _CHECKS.items() if s == suite]


def qudit_checks(d_max: int = 8) -> list[VerificationReport]:
    """All qudit-gate invariants for every d in 2..d_max."""
    return [report for d in range(2, d_max + 1) for report in _suite("qudit", d)]


# ---------------------------------------------------------------------------
# fock suite
# ---------------------------------------------------------------------------
# Each body imports ``fock`` itself: the qudit suite then never loads it, and
# a check called directly still finds it.

@_check("fock", "ladder-commutators", "deviation", 1e-13)
def check_ladder_commutators(n_max: int) -> tuple[dict, float]:
    """[N, a^dag] = a^dag and [N, a] = -a everywhere; [a, a^dag] = 1 below the boundary."""
    from . import fock

    a = fock.annihilation(n_max).matrix
    adag = fock.creation(n_max).matrix
    n_op = fock.number(n_max).matrix
    interior = fock.level_projector(n_max, n_max - 1)
    dev = max(
        core.max_abs(core.commutator(n_op, adag) - adag),
        core.max_abs(core.commutator(n_op, a) + a),
        core.max_abs((core.commutator(a, adag) - np.eye(n_max + 1)) @ interior),
    )
    return {"n_max": n_max}, dev


@_check("fock", "number-basis-orthonormality", "deviation", 0.0)
def check_number_basis(n_max: int) -> tuple[dict, float]:
    """The truncated number basis is exactly orthonormal and complete."""
    dim = n_max + 1
    basis = [core.basis_state(j, dim) for j in range(dim)]
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    resolution = sum(np.outer(v, v.conj()) for v in basis)
    dev = max(core.max_abs(gram - np.eye(dim)), core.max_abs(resolution - np.eye(dim)))
    return {"n_max": n_max}, dev


@_check("fock", "beamsplitter-number-conservation", "deviation", 1e-12)
def check_beamsplitter_number_conservation(n_max: int) -> tuple[dict, float]:
    """[U_J(t), N1 + N2] = 0: the beamsplitter is block-diagonal in total number."""
    from . import fock

    n = np.diag(fock.number(n_max).matrix).real
    n_tot = np.add.outer(n, n).ravel()
    dev = 0.0
    for t in (0.9, 0.5 * np.exp(1j * math.pi / 3), (math.pi / 2) * np.exp(-1j * math.pi / 5)):
        # N1 + N2 is diagonal, so [U, N1 + N2]_ij = U_ij (n_j - n_i), and U is
        # zero outside its (indices, block) pairs
        for idx, block in fock.beamsplitter(complex(t), n_max)._blocks:
            dev = max(dev, core.max_abs(block * (n_tot[idx] - n_tot[idx][:, None])))
    return {"n_max": n_max}, dev


@_check("fock", "exchange-convergence", "deviation", MONOTONE_JITTER)
def check_exchange_convergence(n_max: int) -> tuple[dict, float]:
    """Exchange fidelity is non-decreasing in the cutoff for fixed coherent inputs."""
    from . import fock

    ladder = [c for c in EXCHANGE_CUTOFF_LADDER if c <= n_max] or [n_max]
    pairs = [(0.7 + 0j, -0.4 + 0.3j), (1.0 + 0j, 0.5j)]
    exchanges = {cut: fock.exchange_protocol(0.0, cut) for cut in ladder}
    violation = 0.0
    for z1, z2 in pairs:
        fids = []
        for cut, e in exchanges.items():
            inp = core.tensor_state(fock.coherent_state(z1, cut), fock.coherent_state(z2, cut))
            tgt = core.tensor_state(fock.coherent_state(z2, cut), fock.coherent_state(z1, cut))
            fids.append(core.fidelity(tgt, e.apply(inp)))
        for lo, hi in zip(fids, fids[1:]):
            violation = max(violation, lo - hi)
    params = {"cutoffs": ladder, "pairs": [[_pair(z1), _pair(z2)] for z1, z2 in pairs]}
    return params, violation


@_check("fock", "clone-closed-form-norm", "deviation", analytic_tol)
def check_clone_closed_form_norm(n_max: int) -> tuple[dict, float]:
    """The closed-form split of a normalized state is normalized."""
    from . import fock

    rng = np.random.default_rng(20240601)
    dev = 0.0
    for x in _random_states(rng, 20, n_max, n_max + 1):
        for t_abs in (0.3, math.pi / 4, 1.2):
            out = fock.imperfect_clone_closed_form(x, t_abs, n_max)
            dev = max(dev, abs(np.linalg.norm(out) - 1.0))
    return {"n_max": n_max, "seed": 20240601, "trials": 20}, dev


@_check("fock", "clone-oracle-equivalence", "fidelity", 1 - 1e-8)
def check_clone_oracle_equivalence(n_max: int) -> tuple[dict, float]:
    """Beamsplitter route and closed-form amplitudes agree on random inputs."""
    from . import fock

    rng = np.random.default_rng(20240602)
    t = 0.7 * np.exp(0.4j)
    worst = 1.0
    for x in _random_states(rng, 100, n_max // 2, n_max + 1):
        got = fock.imperfect_clone_numeric(x, t, n_max)
        want = fock.imperfect_clone_closed_form(x, t, n_max)
        worst = min(worst, core.fidelity(want, got))
    return {"n_max": n_max, "seed": 20240602, "trials": 100, "t": _pair(complex(t))}, worst


@_check("fock", "clone-coherent-marginal", "fidelity", 1 - 1e-8)
def check_clone_coherent_marginal(n_max: int) -> tuple[dict, float]:
    """Second-mode marginal of a cloned coherent state is the coherent state sin|t| z."""
    from . import fock

    # largest probe z whose truncated tail stays well below the fidelity
    # margin at this cutoff
    z = next(
        (c for c in (0.8, 0.5, 0.2, 0.05)
         if fock.coherent_truncation_weight(c, n_max) <= 1e-10),
        0.01,
    )
    t_abs = math.pi / 4
    out = fock.imperfect_clone_numeric(fock.coherent_state(z, n_max), t_abs, n_max)
    rho2 = fock.mode2_marginal(out, n_max)
    target = fock.coherent_state(math.sin(t_abs) * z, n_max)
    overlap = float(np.real(np.vdot(target, rho2 @ target)))
    return {"n_max": n_max, "z": _pair(complex(z)), "t_abs": t_abs}, overlap


def fock_checks(n_max: int = 32) -> list[VerificationReport]:
    """All Fock-space invariants at the requested cutoff."""
    return _suite("fock", n_max)


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
