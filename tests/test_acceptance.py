"""Acceptance suite: every headline identity at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a red test still reports its criterion. Criteria with runtime
bounds are timed.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.stats

from quswap import core, fock, gates

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
CNOT_REVERSED = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
SWAP2 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def record(criterion, ok, detail=""):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed {detail}"


def test_01_swap_decomposition_exact():
    t0 = time.perf_counter()
    exact = all(
        np.array_equal(gates.swap_composed(d).matrix, gates.swap_direct(d).matrix)
        for d in range(2, 17)
    )
    elapsed = time.perf_counter() - t0
    record(
        "criterion 01 swap decomposition d=2..16 entrywise exact",
        exact and elapsed < 1.0,
        f"(runtime {elapsed:.3f}s)",
    )


def test_02_qubit_degeneration():
    composed = CNOT @ CNOT_REVERSED @ CNOT
    ok = np.array_equal(gates.swap_composed(2).matrix, composed) and np.array_equal(
        composed, SWAP2
    )
    record("criterion 02 d=2 reduces to three controlled-NOTs", ok)


def test_03_matrix_regressions():
    ok = np.array_equal(gates.controlled_shift(2).matrix, CNOT) and np.array_equal(
        gates.controlled_shift_reversed(2).matrix, CNOT_REVERSED
    )
    record("criterion 03 controlled-shift regression matrices at d=2", ok)


def test_04_conjugation_identity_random_unitaries():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(2, 9):
        s = gates.swap_direct(d).matrix
        for trial in range(20):
            u = scipy.stats.unitary_group.rvs(
                d, random_state=np.random.default_rng(97 * d + trial)
            )
            cu = gates.controlled_unitary(u, d).matrix
            direct = np.zeros((d * d, d * d), dtype=complex)
            power = np.eye(d, dtype=complex)
            for b in range(d):
                direct[b::d, b::d] = power
                power = u @ power
            worst = max(worst, core.max_abs(s @ cu @ s - direct))
    elapsed = time.perf_counter() - t0
    record(
        "criterion 04 S C_U S retargets control, 20 unitaries per d=2..8",
        worst <= 1e-12 and elapsed < 5.0,
        f"(max dev {worst:.2e}, runtime {elapsed:.2f}s)",
    )


def test_05_clock_shift_relations():
    worst = 0.0
    for d in range(2, 17):
        s1, s3 = gates.sigma1(d).matrix, gates.sigma3(d).matrix
        zeta = core.QuditDim(d).zeta
        worst = max(worst, core.max_abs(s3 @ s1 - zeta * s1 @ s3))
        worst = max(worst, core.max_abs(core.adjoint(s1) - core.matpow(s1, d - 1)))
        worst = max(worst, core.max_abs(core.adjoint(s3) - core.matpow(s3, d - 1)))
    record(
        "criterion 05 clock/shift commutation and adjoint powers d=2..16",
        worst <= 1e-13,
        f"(max dev {worst:.2e})",
    )


def test_06_algebra_relations_at_cutoff():
    n_max = 16
    kp, km, k3 = (g.matrix for g in fock.su11_generators(n_max))
    interior = fock.level_projector(n_max, n_max - 2)
    worst = max(
        core.max_abs((core.commutator(k3, kp) - kp) @ interior),
        core.max_abs((core.commutator(k3, km) + km) @ interior),
        core.max_abs((core.commutator(kp, km) + 2 * k3) @ interior),
    )
    jp, jm, j3 = (g.matrix for g in fock.schwinger_su2(n_max))
    bounded = fock.total_number_projector(n_max, n_max)
    worst = max(
        worst,
        core.max_abs((core.commutator(j3, jp) - jp) @ bounded),
        core.max_abs((core.commutator(j3, jm) + jm) @ bounded),
        core.max_abs((core.commutator(jp, jm) - 2 * j3) @ bounded),
    )
    record(
        "criterion 06 su(1,1) and su(2) commutators at n_max=16",
        worst <= 1e-12,
        f"(max dev {worst:.2e})",
    )


def test_07_vacuum_invariance():
    n_max = 16
    rng = np.random.default_rng(20240607)
    vac = core.basis_state(0, (n_max + 1) ** 2)
    worst = 0.0
    for _ in range(20):
        t = rng.uniform(0.05, math.pi) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        u = fock.beamsplitter(t, n_max).matrix
        worst = max(worst, float(np.linalg.norm(u @ vac - vac)))
    record(
        "criterion 07 beamsplitter keeps the vacuum, 20 random t",
        worst <= 1e-12,
        f"(max dev {worst:.2e})",
    )


def test_08_heisenberg_rotations(mode_pair):
    n_max = 16
    rng = np.random.default_rng(20240608)
    a1, a2 = mode_pair(n_max)
    bounded = fock.total_number_projector(n_max, n_max - 1)
    worst = 0.0
    for _ in range(10):
        t = rng.uniform(0.05, math.pi) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        abs_t, phase = abs(t), t / abs(t)
        u = fock.beamsplitter(t, n_max).matrix
        udag = u.conj().T
        rhs1 = math.cos(abs_t) * a1 - phase * math.sin(abs_t) * a2
        rhs2 = math.cos(abs_t) * a2 + np.conj(phase) * math.sin(abs_t) * a1
        worst = max(
            worst,
            core.max_abs((u @ a1 @ udag - rhs1) @ bounded),
            core.max_abs((u @ a2 @ udag - rhs2) @ bounded),
        )
    record(
        "criterion 08 beamsplitter mode rotations, 10 random t",
        worst <= 1e-10,
        f"(max dev {worst:.2e})",
    )


def test_09_coherent_exchange_grid():
    t0 = time.perf_counter()
    z1s = [0.0 + 0j, 0.7 + 0j, -0.5 + 0.5j]
    z2s = [0.4j, 1.0 + 0j, -0.3 - 0.4j]
    thetas = [0.0, math.pi / 3, -math.pi / 4]
    cutoffs = (8, 16, 32)
    min_fid_at_32 = 1.0
    monotone = True
    for z1 in z1s:
        for z2 in z2s:
            for theta in thetas:
                fids = []
                for n_max in cutoffs:
                    e = fock.exchange_protocol(theta, n_max).matrix
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", fock.TruncationWarning)
                        inp = core.tensor_state(
                            fock.coherent_state(z1, n_max),
                            fock.coherent_state(z2, n_max),
                        )
                        tgt = core.tensor_state(
                            fock.coherent_state(z2, n_max),
                            fock.coherent_state(z1, n_max),
                        )
                    fids.append(core.fidelity(tgt, e @ inp))
                min_fid_at_32 = min(min_fid_at_32, fids[-1])
                # non-decreasing up to double-precision jitter
                monotone = monotone and all(
                    lo <= hi + 1e-12 for lo, hi in zip(fids, fids[1:])
                )
    elapsed = time.perf_counter() - t0
    record(
        "criterion 09 coherent exchange grid, fidelity and convergence",
        min_fid_at_32 >= 1 - 1e-8 and monotone and elapsed < 30.0,
        f"(min fidelity {min_fid_at_32:.12f}, runtime {elapsed:.1f}s)",
    )


def test_10_arbitrary_state_exchange(random_mode_state):
    n_max = 32
    e = fock.exchange_protocol(0.0, n_max).matrix
    rng = np.random.default_rng(20240610)
    worst = 1.0
    for _ in range(50):
        x = random_mode_state(rng, 16, n_max + 1)
        y = random_mode_state(rng, 16, n_max + 1)
        got = e @ core.tensor_state(x, y)
        worst = min(worst, core.fidelity(core.tensor_state(y, x), got))
    record(
        "criterion 10 exchange of 50 random product states",
        worst >= 1 - 1e-8,
        f"(min fidelity {worst:.12f})",
    )


def test_11_imperfect_clone_oracle_equivalence(random_mode_state):
    n_max = 16
    dim = n_max + 1
    rng = np.random.default_rng(20240611)
    t = 0.9 * np.exp(0.7j)
    worst = 1.0
    for _ in range(100):
        x = random_mode_state(rng, n_max // 2, dim)
        got = fock.imperfect_clone_numeric(x, t, n_max)
        worst = min(worst, core.fidelity(fock.imperfect_clone_closed_form(x, t, n_max), got))
    # coherent inputs through the same beamsplitter
    for z in (0.5, -0.3 + 0.4j):
        x = fock.coherent_state(z, n_max)
        got = fock.imperfect_clone_numeric(x, t, n_max)
        worst = min(worst, core.fidelity(fock.imperfect_clone_closed_form(x, t, n_max), got))

    # balanced specialization: amplitudes sqrt((n+m)!/(n!m!)) 2^-(n+m)/2 x_{n+m}
    x = random_mode_state(np.random.default_rng(20240612), n_max // 2, dim)
    got_balanced = fock.imperfect_clone_closed_form(x, math.pi / 4, n_max)
    expected = np.zeros(dim * dim, dtype=complex)
    for n in range(dim):
        for m in range(dim - n):
            expected[n * dim + m] = (
                math.sqrt(math.factorial(n + m) / (math.factorial(n) * math.factorial(m)))
                * 2 ** (-(n + m) / 2)
                * x[n + m]
            )
    balanced_dev = core.max_abs(got_balanced - expected)
    record(
        "criterion 11 clone matrix route vs closed form",
        worst >= 1 - 1e-8 and balanced_dev <= 1e-10,
        f"(min fidelity {worst:.12f}, balanced dev {balanced_dev:.2e})",
    )


def test_12_beamsplitter_construction_crosscheck(dense_beamsplitter):
    n_max = 16
    worst = 0.0
    for t in (0.9, 1.3 * np.exp(0.8j), (math.pi / 2) * np.exp(-2.1j)):
        # every block, those above the cutoff included
        blockwise = fock.beamsplitter(t, n_max).matrix
        worst = max(worst, core.max_abs(dense_beamsplitter(t, n_max) - blockwise))
    record(
        "criterion 12 dense vs blockwise beamsplitter at n_max=16",
        worst <= 1e-10,
        f"(max dev {worst:.2e})",
    )
