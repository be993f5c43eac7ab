"""Machine-checkable invariants behind the ``verify`` CLI command.

Each check measures a single scalar metric on operators from the library. The qudit suite
builds each gate of ``gates.GATES`` once per d, into one record that every qudit check of
that d reads, so a qudit report's wall time is that of its check alone. Each Fock check
builds its own operators; the library keeps nothing between calls but the
strength-independent eigenpairs of its tridiagonal generators (the beamsplitter blocks and
the displacement and squeeze chains) and the exchange's half-wave block cores
(``fock._exchange_cores``). Checks are registered with ``_check``, which times them and
builds their :class:`VerificationReport`; only the Fock suite's checks silence
``TruncationWarning``, as they probe small cutoffs on purpose. Deviation metrics pass when
metric <= tolerance; fidelity metrics pass when metric >= tolerance (the tolerance then
being the minimum acceptable fidelity). A check whose body raises is a failed report, and
the suite runs on: its metric is ``None`` (JSON ``null``), its params are the suite's size
plus an ``error`` naming the exception and its first message line, and ``quswap verify``
exits 1. All randomness is seeded, so two runs produce identical reports except for the
wall-time field. Each check's tolerance is a fixed number, given where the check is
registered.
"""

from __future__ import annotations

import functools
import json
import math
import time
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import core, fock, gates

__all__ = ["VerificationReport", "fock_checks", "qudit_checks", "run_suite"]

EXCHANGE_CUTOFF_LADDER = (8, 16, 32)
MONOTONE_JITTER = 1e-12  # double-precision slack between fidelities at different cutoffs


@dataclass
class VerificationReport:
    """One pass/fail record: check name, parameters, metric and timing."""

    check: str
    params: dict
    kind: str  # "deviation" or "fidelity"
    metric: float | None  # None when the check raised; params["error"] then says what
    tolerance: float
    passed: bool
    wall_ms: float

    def to_dict(self) -> dict:
        return {**vars(self), "params": dict(sorted(self.params.items()))}


# (suite, check name) -> registered check, in definition order. A flat dict of
# the public functions, so that perfbench's tracer, which wraps module functions
# and the dict values that hold them, also times each check the suites run.
_CHECKS: dict[tuple[str, str], Callable[..., VerificationReport]] = {}


def _check(suite: str, name: str, kind: str, tol: float):
    """Register a check of ``suite`` whose body returns ``(params, metric)``.

    The registered function times the body, compares its metric with ``tol`` as ``kind``
    says and returns the :class:`VerificationReport`, a failed one if the body raises. Only
    a ``fock`` body runs with ``TruncationWarning`` ignored, as small cutoffs are probed on
    purpose."""
    def register(body: Callable[..., tuple[dict, float]]) -> Callable[..., VerificationReport]:
        measure = body
        if suite == "fock":
            def measure(arg) -> tuple[dict, float]:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", core.TruncationWarning)
                    return body(arg)

        @functools.wraps(body)
        def run(arg) -> VerificationReport:
            t0 = time.perf_counter()
            try:
                params, metric = measure(arg)
                metric = float(metric)
                passed = metric <= tol if kind == "deviation" else metric >= tol
            except Exception as exc:  # the library's fault: the sizes were read before any check
                params = {"d": arg.d} if suite == "qudit" else {"n_max": arg}
                params["error"] = type(exc).__name__ + ": " + str(exc).partition("\n")[0]
                metric, passed = None, False
            return VerificationReport(name, params, kind, metric, tol, passed,
                                      (time.perf_counter() - t0) * 1e3)
        _CHECKS[suite, name] = run
        return run
    return register


def _random_states(rng: np.random.Generator, count: int, support: int, dim: int) -> np.ndarray:
    """``count`` seeded unit states on levels 0..support, as the columns of a (dim, count) stack."""
    states = np.empty((dim, count), dtype=complex)
    for j in range(count):
        v = np.zeros(dim, dtype=complex)
        v[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(support + 1)
        states[:, j] = v / np.linalg.norm(v)
    return states


def _columns(stack: np.ndarray) -> Iterator[np.ndarray]:
    """Each column of ``stack`` in turn, as its own contiguous vector.

    A column read in place has a stride, and BLAS then sums ``vdot`` and
    ``norm`` in another order, which can move their last bit."""
    return (col.copy() for col in stack.T)


# ---------------------------------------------------------------------------
# qudit suite
# ---------------------------------------------------------------------------

class _Qudit(dict):
    """The gates of ``gates.GATES`` at one d, keyed by their labels, built once per d.

    Each qudit check takes the record as its ``d`` argument, as a gate builder takes a
    ``QuditDim``, so perfbench's tracer still labels a check's span with the record's d.
    The table is read at call time, so a patched table or module reaches every check."""

    __slots__ = ("d",)

    def __init__(self, d: int) -> None:
        super().__init__((label, build(d)) for label, build in gates.GATES.items())
        self.d = d


@_check("qudit", "weyl-commutation", "deviation", 1e-13)
def check_weyl_commutation(d: _Qudit) -> tuple[dict, float]:
    """Sigma3 Sigma1 = zeta Sigma1 Sigma3."""
    s1, s3, d = d["sigma1"].matrix, d["sigma3"].matrix, d.d
    zeta = core.QuditDim(d).zeta
    return {"d": d}, core.max_abs(s3 @ s1 - zeta * s1 @ s3)


@_check("qudit", "shift-adjoint-power", "deviation", 0.0)
def check_shift_adjoint_power(d: _Qudit) -> tuple[dict, float]:
    """Sigma1^dag = Sigma1^(d-1), exact on 0/1 entries."""
    s1, d = d["sigma1"].matrix, d.d
    return {"d": d}, core.max_abs(core.adjoint(s1) - core.matpow(s1, d - 1))


@_check("qudit", "clock-adjoint-power", "deviation", 1e-13)
def check_clock_adjoint_power(d: _Qudit) -> tuple[dict, float]:
    """Sigma3^dag = Sigma3^(d-1) on the root-of-unity diagonal."""
    s3, d = d["sigma3"].matrix, d.d
    return {"d": d}, core.max_abs(core.adjoint(s3) - core.matpow(s3, d - 1))


@_check("qudit", "swap-decomposition", "deviation", 0.0)
def check_swap_decomposition(d: _Qudit) -> tuple[dict, float]:
    """The six-gate product equals the direct swap exactly, on a probe of distinct entries."""
    composed, direct, d = d["swap-composed"], d["swap"], d.d
    probe = np.arange(d * d)
    return {"d": d}, core.max_abs(composed.apply(probe) - direct.apply(probe))


@_check("qudit", "swap-conjugation", "deviation", 0.0)
def check_swap_conjugation(d: _Qudit) -> tuple[dict, float]:
    """S (1 x K) S = K x 1: the swap exchanges which qudit a local gate acts on."""
    s, k, d = d["swap"], d["k"], d.d
    probe = np.arange(d * d)
    # axis 0 of a (d, d)-reshaped state is the first qudit: K x 1 acts along it, 1 x K along axis 1
    lhs = s.apply(k.apply(s.apply(probe).reshape(d, d).T).T.ravel())
    rhs = k.apply(probe.reshape(d, d)).ravel()
    return {"d": d}, core.max_abs(lhs - rhs)


@_check("qudit", "basis-cloning", "deviation", 0.0)
def check_basis_cloning(d: _Qudit) -> tuple[dict, float]:
    """C_Sigma (|a> (x) |0>) = |a> (x) |a> for every a, on one probe: a + 1 at |a> (x) |0>."""
    cshift, d = d["cshift"], d.d
    a = np.arange(d)
    probe, want = np.zeros((2, d * d))
    probe[a * d], want[a * d + a] = a + 1, a + 1
    return {"d": d}, core.max_abs(cshift.apply(probe) - want)


@_check("qudit", "permutation-structure", "deviation", 0.0)
def check_permutation_structure(d: _Qudit) -> tuple[dict, float]:
    """Sigma1, K, C_Sigma, C~_Sigma and both swaps are each kept as one index map of exact ones."""
    # every gate but sigma3, the one-qudit gates first, in the table's order
    stores = [gate._groups for label, gate in d.items() if label != "sigma3"]
    d = d.d
    ok = all(len(store) == 1 and store[0][2].ndim == 1 and len(store[0][0]) == len(store[0][1]) == n
             for store, n in zip(stores, (d, d) + (d * d,) * 4))
    if ok:  # one sort of the one-qudit gates' rows and cols, one of the two-qudit gates'
        rows, cols, values = zip(*(store[0] for store in stores))
        ok = ((np.sort(rows[:2] + cols[:2], axis=1) == np.arange(d)).all()
              and (np.sort(rows[2:] + cols[2:], axis=1) == np.arange(d * d)).all()
              and (np.concatenate(values) == 1).all())
    return {"d": d}, 0.0 if ok else 1.0


def _suite(suite: str, arg) -> list[VerificationReport]:
    """Every check of ``suite`` on ``arg``: a ``_Qudit`` record, or a Fock cutoff."""
    return [check(arg) for (s, _), check in _CHECKS.items() if s == suite]


def _d_max(d_max) -> int:
    return core._size(d_max, "d_max", 2, "the two-qudit dimension d_max^2")


def qudit_checks(d_max: int = 8) -> list[VerificationReport]:
    """All qudit-gate invariants for every d in 2..d_max, on each d's gates built once."""
    return [report for d in range(2, _d_max(d_max) + 1)
            for report in _suite("qudit", _Qudit(d))]


# ---------------------------------------------------------------------------
# fock suite
# ---------------------------------------------------------------------------

@_check("fock", "ladder-commutators", "deviation", 1e-13)
def check_ladder_commutators(n_max: int) -> tuple[dict, float]:
    """[N, a^dag] = a^dag and [N, a] = -a everywhere; [a, a^dag] = 1 below the boundary."""
    a = fock.annihilation(n_max).matrix
    adag = fock.creation(n_max).matrix
    n_op = fock.number(n_max).matrix
    dev = max(
        core.max_abs(core.commutator(n_op, adag) - adag),
        core.max_abs(core.commutator(n_op, a) + a),
        core.max_abs((core.commutator(a, adag) - np.eye(n_max + 1))[:, :n_max]),
    )
    return {"n_max": n_max}, dev


@_check("fock", "number-basis-orthonormality", "deviation", 0.0)
def check_number_basis(n_max: int) -> tuple[dict, float]:
    """The truncated number basis is exactly orthonormal and complete."""
    dim = n_max + 1
    basis = np.array([core.basis_state(j, dim) for j in range(dim)])  # row j is |j>
    gram, resolution = basis.conj() @ basis.T, basis.T @ basis.conj()
    dev = max(core.max_abs(gram - np.eye(dim)), core.max_abs(resolution - np.eye(dim)))
    return {"n_max": n_max}, dev


@_check("fock", "beamsplitter-number-conservation", "deviation", 1e-12)
def check_beamsplitter_number_conservation(n_max: int) -> tuple[dict, float]:
    """[U_J(t), N1 + N2] = 0: the beamsplitter is block-diagonal in total number."""
    n = np.diag(fock.number(n_max).matrix).real
    n_tot = np.add.outer(n, n).ravel()
    dev = 0.0
    for t in (0.9, 0.5 * np.exp(1j * math.pi / 3), (math.pi / 2) * np.exp(-1j * math.pi / 5)):
        # N1 + N2 is diagonal, so [U, N1 + N2]_ij = U_ij (n_j - n_i), and U is
        # zero outside its (rows, cols, block) groups
        for rows, cols, block in fock.beamsplitter(complex(t), n_max)._groups:
            dev = max(dev, core.max_abs(block * (n_tot[cols] - n_tot[rows][:, None])))
    return {"n_max": n_max}, dev


@_check("fock", "exchange-convergence", "deviation", MONOTONE_JITTER)
def check_exchange_convergence(n_max: int) -> tuple[dict, float]:
    """Exchange fidelity is non-decreasing in the cutoff for fixed coherent inputs."""
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
    params = {"cutoffs": ladder, "pairs": [[core._pair(z1), core._pair(z2)] for z1, z2 in pairs]}
    return params, violation


@_check("fock", "clone-closed-form-norm", "deviation", 1e-10)
def check_clone_closed_form_norm(n_max: int) -> tuple[dict, float]:
    """The closed-form split of a normalized state is normalized."""
    rng = np.random.default_rng(20240601)
    states = _random_states(rng, 20, n_max, n_max + 1)
    dev = 0.0
    for t_abs in (0.3, math.pi / 4, 1.2):
        for out in _columns(fock.imperfect_clone_closed_form(states, t_abs, n_max)):
            dev = max(dev, abs(np.linalg.norm(out) - 1.0))
    return {"n_max": n_max, "seed": 20240601, "trials": 20}, dev


@_check("fock", "clone-oracle-equivalence", "fidelity", 1 - 1e-8)
def check_clone_oracle_equivalence(n_max: int) -> tuple[dict, float]:
    """Beamsplitter route and closed-form amplitudes agree on random inputs."""
    rng = np.random.default_rng(20240602)
    t = 0.7 * np.exp(0.4j)
    states = _random_states(rng, 100, n_max // 2, n_max + 1)
    worst = 1.0
    # four stacks of 25: one stack of 100 outputs would hold 13 MB at n_max 64
    for part in np.split(states, 4, axis=1):
        got = _columns(fock.imperfect_clone_numeric(part, t, n_max))
        want = _columns(fock.imperfect_clone_closed_form(part, t, n_max))
        worst = min([worst, *map(core.fidelity, want, got)])
    return {"n_max": n_max, "seed": 20240602, "trials": 100, "t": core._pair(complex(t))}, worst


@_check("fock", "clone-coherent-marginal", "fidelity", 1 - 1e-8)
def check_clone_coherent_marginal(n_max: int) -> tuple[dict, float]:
    """Second-mode marginal of a cloned coherent state is the coherent state sin|t| z."""
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
    return {"n_max": n_max, "z": core._pair(complex(z)), "t_abs": t_abs}, overlap


def fock_checks(n_max: int = 32) -> list[VerificationReport]:
    """All Fock-space invariants at the requested cutoff."""
    import numpy.random  # before the first check's timer, so no wall_ms pays for the import
    return _suite("fock", fock.FockCutoff(n_max).n_max)


def run_suite(suite: str, d_max: int = 8, n_max: int = 32) -> list[VerificationReport]:
    """Run the requested invariant suite, reports sorted by check name then params."""
    if suite not in ("qudit", "fock", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    # both sizes are read for every suite, before any check runs
    d_max, n_max = _d_max(d_max), fock.FockCutoff(n_max).n_max
    reports: list[VerificationReport] = []
    if suite in ("qudit", "all"):
        reports += qudit_checks(d_max)
    if suite in ("fock", "all"):
        reports += fock_checks(n_max)
    reports.sort(key=lambda r: (r.check, json.dumps(dict(sorted(r.params.items())))))
    return reports
