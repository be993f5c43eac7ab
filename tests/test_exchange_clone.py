"""Exchange protocol and imperfect-clone checks against their oracles."""

import math
import warnings

import numpy as np
import pytest

from quswap import core, fock, gates


def random_mode_state(rng, support, dim):
    v = np.zeros(dim, dtype=complex)
    v[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(
        support + 1
    )
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# exchange protocol
# ---------------------------------------------------------------------------

def test_exchange_keeps_vacuum():
    e = fock.exchange_protocol(0.0, 8)
    vac = core.basis_state(0, 81)
    assert np.linalg.norm(e.apply(vac) - vac) <= 1e-12


def test_exchange_is_unitary():
    assert core.is_unitary(fock.exchange_protocol(0.4, 12).matrix, 1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi / 3, -0.7])
def test_exchange_swaps_coherent_pair(theta):
    n_max = 32
    z1, z2 = 0.7, -0.4 + 0.3j
    e = fock.exchange_protocol(theta, n_max).matrix
    inp = core.tensor_state(
        fock.coherent_state(z1, n_max), fock.coherent_state(z2, n_max)
    )
    want = core.tensor_state(
        fock.coherent_state(z2, n_max), fock.coherent_state(z1, n_max)
    )
    assert core.fidelity(want, e @ inp) >= 1 - 1e-8


@pytest.mark.parametrize("theta", [1e8, 1e16, 1e300, -1e300])
def test_exchange_swaps_coherent_pair_at_large_theta(theta):
    # the phase rotations multiply theta by occupation numbers, which loses
    # the cancellation against the beamsplitter unless theta is reduced first
    n_max = 8
    s1, s2 = fock.coherent_state(0.5, n_max), fock.coherent_state(0.2, n_max)
    out = fock.exchange_protocol(theta, n_max).apply(core.tensor_state(s1, s2))
    assert core.fidelity(core.tensor_state(s2, s1), out) >= 1 - 1e-8


def test_exchange_does_not_depend_on_inputs():
    # one fixed matrix serves every pair
    n_max = 16
    e = fock.exchange_protocol(0.0, n_max).matrix
    for z1, z2 in [(0.2, 0.9j), (-0.5 + 0.1j, 0.3)]:
        inp = core.tensor_state(
            fock.coherent_state(z1, n_max), fock.coherent_state(z2, n_max)
        )
        want = core.tensor_state(
            fock.coherent_state(z2, n_max), fock.coherent_state(z1, n_max)
        )
        assert core.fidelity(want, e @ inp) >= 1 - 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_exchange_swaps_arbitrary_product_states(seed):
    n_max = 32
    rng = np.random.default_rng(7000 + seed)
    x = random_mode_state(rng, n_max // 2, n_max + 1)
    y = random_mode_state(rng, n_max // 2, n_max + 1)
    e = fock.exchange_protocol(0.0, n_max).matrix
    got = e @ core.tensor_state(x, y)
    assert core.fidelity(core.tensor_state(y, x), got) >= 1 - 1e-8


def test_exchange_matches_index_swap_on_safe_blocks():
    # on total photon number <= n_max/2 the protocol is the literal swap
    # permutation, global phase included
    n_max = 16
    dim = n_max + 1
    e = fock.exchange_protocol(0.3, n_max).matrix
    swap = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            swap[j * dim + i, i * dim + j] = 1.0
    safe = fock.total_number_projector(n_max, n_max // 2)
    ref = core.basis_state(1 * dim + 2, dim * dim)
    phase = np.vdot(swap @ ref, e @ ref)
    phase /= abs(phase)
    assert core.max_abs((e - phase * swap) @ safe) <= 1e-10
    # the protocol's conventions leave no phase at all
    assert abs(phase - 1.0) <= 1e-10


def test_exchange_agrees_with_qudit_swap_matrix():
    # same permutation as the gate-built swap on the truncated double mode
    n_max = 6
    e = fock.exchange_protocol(0.0, n_max).matrix
    s = gates.swap_direct(n_max + 1).matrix
    safe = fock.total_number_projector(n_max, n_max // 2)
    assert core.max_abs((e - s) @ safe) <= 1e-10


def test_exchange_fidelity_converges_with_cutoff():
    z1, z2 = 0.9, -0.6 + 0.5j
    fids = []
    for n_max in (8, 16, 32):
        e = fock.exchange_protocol(0.0, n_max).matrix
        with warnings.catch_warnings():
            # probing small cutoffs on purpose
            warnings.simplefilter("ignore", fock.TruncationWarning)
            inp = core.tensor_state(
                fock.coherent_state(z1, n_max), fock.coherent_state(z2, n_max)
            )
            want = core.tensor_state(
                fock.coherent_state(z2, n_max), fock.coherent_state(z1, n_max)
            )
        fids.append(core.fidelity(want, e @ inp))
    # non-decreasing up to double-precision jitter
    assert fids[0] <= fids[1] + 1e-12
    assert fids[1] <= fids[2] + 1e-12
    assert fids[2] >= 1 - 1e-8


# ---------------------------------------------------------------------------
# imperfect clone
# ---------------------------------------------------------------------------

def test_clone_of_vacuum_is_double_vacuum():
    n_max = 8
    for t_abs in (0.0, 0.4, math.pi / 4):
        out = fock.imperfect_clone_numeric(core.basis_state(0, n_max + 1), t_abs, n_max)
        assert core.max_abs(out - core.basis_state(0, (n_max + 1) ** 2)) <= 1e-12


def test_clone_with_closed_beamsplitter_is_identity():
    n_max = 8
    rng = np.random.default_rng(3)
    x = random_mode_state(rng, 4, n_max + 1)
    out = fock.imperfect_clone_numeric(x, 0.0, n_max)
    want = core.tensor_state(x, core.basis_state(0, n_max + 1))
    assert core.max_abs(out - want) <= 1e-12


def test_clone_single_photon_balanced_split():
    # |1> at the balanced point splits into (|1,0> + |0,1>)/sqrt(2)
    n_max = 8
    dim = n_max + 1
    out = fock.imperfect_clone_closed_form(
        core.basis_state(1, dim), math.pi / 4, n_max
    )
    want = np.zeros(dim * dim, dtype=complex)
    want[1 * dim + 0] = 1 / math.sqrt(2)
    want[0 * dim + 1] = 1 / math.sqrt(2)
    assert core.max_abs(out - want) <= 1e-12
    numeric = fock.imperfect_clone_numeric(core.basis_state(1, dim), math.pi / 4, n_max)
    assert core.max_abs(numeric - want) <= 1e-10


def test_clone_two_photon_amplitudes():
    # |2> at |t|=pi/4: amplitudes 1/2, 1/sqrt(2), 1/2 on |2,0>, |1,1>, |0,2>
    n_max = 8
    dim = n_max + 1
    out = fock.imperfect_clone_closed_form(core.basis_state(2, dim), math.pi / 4, n_max)
    assert out[2 * dim + 0] == pytest.approx(0.5, abs=1e-12)
    assert out[1 * dim + 1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert out[0 * dim + 2] == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t_abs", [0.3, math.pi / 4, 1.1])
def test_clone_splits_coherent_state(t_abs):
    n_max = 32
    z = 0.8 - 0.5j
    out = fock.imperfect_clone_numeric(fock.coherent_state(z, n_max), t_abs, n_max)
    want = core.tensor_state(
        fock.coherent_state(math.cos(t_abs) * z, n_max),
        fock.coherent_state(math.sin(t_abs) * z, n_max),
    )
    assert core.fidelity(want, out) >= 1 - 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_clone_numeric_matches_closed_form(seed):
    n_max = 16
    rng = np.random.default_rng(9000 + seed)
    x = random_mode_state(rng, n_max // 2, n_max + 1)
    t = 0.7 * np.exp(0.4j)
    got = fock.imperfect_clone_numeric(x, t, n_max)
    want = fock.imperfect_clone_closed_form(x, t, n_max)
    assert core.fidelity(want, got) >= 1 - 1e-8


def test_clone_numeric_matches_closed_form_at_largest_cutoff():
    n_max = 64
    rng = np.random.default_rng(9100)
    x = random_mode_state(rng, n_max // 2, n_max + 1)
    t = 1.1 * np.exp(-2.3j)
    got = fock.imperfect_clone_numeric(x, t, n_max)
    want = fock.imperfect_clone_closed_form(x, t, n_max)
    assert core.fidelity(want, got) >= 1 - 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_clone_closed_form_preserves_norm(seed):
    n_max = 16
    rng = np.random.default_rng(500 + seed)
    x = random_mode_state(rng, n_max, n_max + 1)
    out = fock.imperfect_clone_closed_form(x, 0.9, n_max)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_clone_mode2_marginal_is_pure_coherent():
    n_max = 24
    z, t_abs = 0.9, math.pi / 4
    out = fock.imperfect_clone_numeric(fock.coherent_state(z, n_max), t_abs, n_max)
    rho2 = fock.mode2_marginal(out, n_max)
    target = fock.coherent_state(math.sin(t_abs) * z, n_max)
    overlap = float(np.real(np.vdot(target, rho2 @ target)))
    assert overlap >= 1 - 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_mode2_marginal_of_complex_states(seed):
    # a complex state tells the marginal from its transpose, which a real
    # state does not
    n_max = 6
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_max + 1, n_max + 1)) + 1j * rng.normal(size=(n_max + 1, n_max + 1))
    v /= np.linalg.norm(v)
    want = np.einsum("nm,nk->mk", v, v.conj())
    assert core.max_abs(fock.mode2_marginal(v.ravel(), n_max) - want) <= 1e-15
    assert core.max_abs(want - want.T) > 1e-3


def test_clone_warns_on_top_heavy_input():
    n_max = 8
    x = core.basis_state(7, n_max + 1)
    with pytest.warns(fock.TruncationWarning):
        fock.imperfect_clone_numeric(x, 0.5, n_max)


def test_clone_rejects_oversized_input():
    with pytest.raises(ValueError):
        fock.imperfect_clone_numeric(np.ones(12) / math.sqrt(12), 0.5, 8)
    with pytest.raises(ValueError):
        fock.imperfect_clone_closed_form(np.ones(12) / math.sqrt(12), 0.5, 8)


def test_clone_accepts_short_coefficient_vectors():
    n_max = 8
    short = np.array([1.0, 0.0, 0.0]) / 1.0
    out = fock.imperfect_clone_closed_form(short, 0.5, n_max)
    assert out.shape == ((n_max + 1) ** 2,)
    assert out[0] == pytest.approx(1.0)
