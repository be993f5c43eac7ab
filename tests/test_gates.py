import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from quswap import core, gates


# regression matrices for the d=2 controlled shifts and the qubit swap
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
CNOT_REVERSED = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
SWAP2 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

PERMUTATION_GATES = [
    gates.sigma1,
    gates.reverse_gate,
    gates.controlled_shift,
    gates.controlled_shift_reversed,
    gates.swap_direct,
    gates.swap_composed,
]


def haar_unitary(d, seed):
    return scipy.stats.unitary_group.rvs(d, random_state=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# single-qudit gates
# ---------------------------------------------------------------------------

def test_sigma1_is_pauli_x_at_d2():
    assert np.array_equal(gates.sigma1(2).matrix, [[0, 1], [1, 0]])


def test_sigma1_wraps_top_level():
    out = gates.sigma1(3).apply(core.basis_state(2, 3))
    assert np.array_equal(out, core.basis_state(0, 3))


@pytest.mark.parametrize("d", range(2, 17))
def test_sigma1_order_d(d):
    assert np.array_equal(core.matpow(gates.sigma1(d).matrix, d), np.eye(d))


def test_sigma3_is_pauli_z_at_d2():
    assert core.max_abs(gates.sigma3(2).matrix - np.diag([1, -1])) <= 1e-15


def test_sigma3_entry_at_d4():
    # zeta = i, so the (3,3) entry is i^3 = -i
    assert gates.sigma3(4).matrix[3, 3] == pytest.approx(-1j, abs=1e-15)


@pytest.mark.parametrize("d", range(2, 17))
def test_sigma3_order_d(d):
    assert core.max_abs(core.matpow(gates.sigma3(d).matrix, d) - np.eye(d)) <= 1e-13


@pytest.mark.parametrize("d", range(2, 17))
def test_weyl_commutation(d):
    s1, s3 = gates.sigma1(d).matrix, gates.sigma3(d).matrix
    zeta = core.QuditDim(d).zeta
    assert core.max_abs(s3 @ s1 - zeta * s1 @ s3) <= 1e-13


@pytest.mark.parametrize("d", range(2, 17))
def test_shift_and_clock_adjoint_powers(d):
    s1, s3 = gates.sigma1(d).matrix, gates.sigma3(d).matrix
    assert np.array_equal(core.adjoint(s1), core.matpow(s1, d - 1))
    assert core.max_abs(core.adjoint(s3) - core.matpow(s3, d - 1)) <= 1e-13


def test_reverse_gate_is_identity_at_d2():
    assert np.array_equal(gates.reverse_gate(2).matrix, np.eye(2))


def test_reverse_gate_action():
    out = gates.reverse_gate(5).apply(core.basis_state(2, 5))
    assert np.array_equal(out, core.basis_state(3, 5))


@pytest.mark.parametrize("d", range(2, 17))
def test_reverse_gate_is_involution(d):
    k = gates.reverse_gate(d).matrix
    assert np.array_equal(k @ k, np.eye(d))


@pytest.mark.parametrize("d", range(2, 10))
def test_reverse_gate_matches_repeated_addition(d):
    # oracle: fold a with itself d-2 times under addition mod d
    k = gates.reverse_gate(d).matrix
    for a in range(d):
        target = a
        for _ in range(d - 2):
            target = core.mod_add(target, a, d)
        assert np.array_equal(k @ core.basis_state(a, d), core.basis_state(target, d))


# ---------------------------------------------------------------------------
# controlled shifts
# ---------------------------------------------------------------------------

def test_controlled_shift_matches_cnot_at_d2():
    assert np.array_equal(gates.controlled_shift(2).matrix, CNOT)


def test_controlled_shift_reversed_matches_regression_at_d2():
    assert np.array_equal(gates.controlled_shift_reversed(2).matrix, CNOT_REVERSED)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_controlled_shift_clones_basis(d):
    cs = gates.controlled_shift(d)
    for a in range(d):
        inp = core.tensor_state(core.basis_state(a, d), core.basis_state(0, d))
        want = core.tensor_state(core.basis_state(a, d), core.basis_state(a, d))
        assert np.array_equal(cs.apply(inp), want)


def test_controlled_shift_wraps():
    # |2> (x) |2> -> |2> (x) |1> at d=3
    inp = core.tensor_state(core.basis_state(2, 3), core.basis_state(2, 3))
    want = core.tensor_state(core.basis_state(2, 3), core.basis_state(1, 3))
    assert np.array_equal(gates.controlled_shift(3).apply(inp), want)


def test_controlled_shift_reversed_action():
    inp = core.tensor_state(core.basis_state(1, 4), core.basis_state(3, 4))
    want = core.tensor_state(core.basis_state(0, 4), core.basis_state(3, 4))
    assert np.array_equal(gates.controlled_shift_reversed(4).apply(inp), want)
    for b in range(4):
        inp = core.tensor_state(core.basis_state(0, 4), core.basis_state(b, 4))
        want = core.tensor_state(core.basis_state(b, 4), core.basis_state(b, 4))
        assert np.array_equal(gates.controlled_shift_reversed(4).apply(inp), want)


# ---------------------------------------------------------------------------
# swap gate
# ---------------------------------------------------------------------------

def test_swap_direct_matrix_at_d2():
    assert np.array_equal(gates.swap_direct(2).matrix, SWAP2)


@pytest.mark.parametrize("d", range(2, 10))
def test_swap_is_involution(d):
    s = gates.swap_direct(d).matrix
    assert np.array_equal(s @ s, np.eye(d * d))


def test_swap_conjugation_swaps_tensor_factors():
    rng = np.random.default_rng(11)
    s = gates.swap_direct(3).matrix
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert core.max_abs(s @ core.tensor_op(a, b) @ s - core.tensor_op(b, a)) <= 1e-12


@pytest.mark.parametrize("d", [*range(2, 17), 64])  # 64 is the largest d the CLI accepts
def test_swap_composed_equals_direct(d):
    assert np.array_equal(gates.swap_composed(d).matrix, gates.swap_direct(d).matrix)


def dense_six_factor_product(d):
    # oracle: C_Sigma (K x 1) C~_Sigma (K x 1) C_Sigma (1 x K) as dense
    # matrix products of the built gates, rightmost factor first
    cs = gates.controlled_shift(d).matrix
    csr = gates.controlled_shift_reversed(d).matrix
    k = gates.reverse_gate(d).matrix
    eye = np.eye(d)
    k1 = core.tensor_op(k, eye)
    return cs @ k1 @ csr @ k1 @ cs @ core.tensor_op(eye, k)


@pytest.mark.parametrize("d", range(2, 9))
def test_swap_composed_matches_dense_six_factor_product(d):
    assert np.array_equal(gates.swap_composed(d).matrix, dense_six_factor_product(d))


def test_swap_composed_reduces_to_three_cnots_at_d2():
    # K is the identity at d=2, so only the controlled shifts survive
    product = CNOT @ CNOT_REVERSED @ CNOT
    assert np.array_equal(gates.swap_composed(2).matrix, product)
    assert np.array_equal(product, SWAP2)


def test_swap_composed_basis_trace_d3():
    # hand trace of the six-gate sequence on |1> (x) |2>:
    # (1xK): |1,1>  C: |1,0>... final state must be |2> (x) |1>
    inp = core.tensor_state(core.basis_state(1, 3), core.basis_state(2, 3))
    want = core.tensor_state(core.basis_state(2, 3), core.basis_state(1, 3))
    assert np.array_equal(gates.swap_composed(3).apply(inp), want)


@pytest.mark.parametrize("d", range(2, 9))
def test_swap_moves_local_gate_to_other_qudit(d):
    s = gates.swap_direct(d).matrix
    k = gates.reverse_gate(d).matrix
    eye = np.eye(d)
    assert np.array_equal(
        s @ core.tensor_op(eye, k) @ s, core.tensor_op(k, eye)
    )


# ---------------------------------------------------------------------------
# controlled unitaries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_controlled_unitary_specializes_to_controlled_shift(d):
    cu = gates.controlled_unitary(gates.sigma1(d).matrix, d)
    assert np.array_equal(cu.matrix, gates.controlled_shift(d).matrix)


def test_controlled_identity_is_identity():
    assert np.array_equal(gates.controlled_unitary(np.eye(4), 4).matrix, np.eye(16))


def test_controlled_unitary_zero_block_is_identity():
    u = haar_unitary(3, seed=5)
    cu = gates.controlled_unitary(u, 3).matrix
    assert np.array_equal(cu[:3, :3], np.eye(3))


def test_controlled_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        gates.controlled_unitary(np.ones((3, 3)), 3)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_conjugated_controlled_shift_is_reversed_shift(d):
    got = gates.conjugated_controlled_unitary(gates.sigma1(d).matrix, d)
    assert core.max_abs(got.matrix - gates.controlled_shift_reversed(d).matrix) <= 1e-12


def test_conjugated_controlled_identity_is_identity():
    got = gates.conjugated_controlled_unitary(np.eye(3), 3)
    assert core.max_abs(got.matrix - np.eye(9)) <= 1e-12


def test_conjugated_controlled_z_at_d2():
    # explicit 4x4: sigma3^b on the first qubit is diagonal with a single -1
    got = gates.conjugated_controlled_unitary(np.diag([1, -1]).astype(complex), 2)
    assert core.max_abs(got.matrix - np.diag([1, 1, 1, -1])) <= 1e-14


@pytest.mark.parametrize("d", range(2, 9))
def test_conjugation_identity_random_unitaries(d):
    # S C_U S acts as |a>(x)|b> -> U^b|a>(x)|b>: block (b, b) of the
    # strided layout is U^b
    for seed in range(5):
        u = haar_unitary(d, seed=1000 * d + seed)
        gate = gates.conjugated_controlled_unitary(u, d)
        direct = np.zeros((d * d, d * d), dtype=complex)
        power = np.eye(d, dtype=complex)
        for b in range(d):
            direct[b::d, b::d] = power
            power = u @ power
        assert core.max_abs(gate.matrix - direct) <= 1e-12


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3, 5, 8, 13])
@pytest.mark.parametrize("builder", PERMUTATION_GATES)
def test_permutation_structure(builder, d):
    m = builder(d).matrix
    assert np.all((m == 0) | (m == 1))
    assert np.all(m.sum(axis=0) == 1)
    assert np.all(m.sum(axis=1) == 1)


@st.composite
def level_and_digits(draw):
    d = draw(st.integers(2, 24))
    return d, draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))


@settings(max_examples=30, deadline=None)
@given(level_and_digits())
def test_permutation_gates_map_basis_states_by_definition(dab):
    d, a, b = dab

    def ket(*digits):
        out = np.ones(1, dtype=complex)
        for x in digits:
            out = core.tensor_state(out, core.basis_state(x, d))
        return out

    cases = [
        (gates.sigma1, ket(a), ket((a + 1) % d)),
        (gates.reverse_gate, ket(a), ket((d - a) % d)),
        (gates.controlled_shift, ket(a, b), ket(a, (a + b) % d)),
        (gates.controlled_shift_reversed, ket(a, b), ket((a + b) % d, b)),
        (gates.swap_direct, ket(a, b), ket(b, a)),
        (gates.swap_composed, ket(a, b), ket(b, a)),
    ]
    for builder, inp, want in cases:
        assert np.array_equal(builder(d).apply(inp), want), builder.__name__


@pytest.mark.parametrize("build", [
    gates.sigma3,
    gates.swap_composed,
    lambda d: gates.conjugated_controlled_unitary(haar_unitary(d, 7)),
    lambda d: gates.QuditGate(d, np.arange(d * d).reshape(d, d), "dense"),
], ids=["sigma3", "swap_composed", "conjugated_controlled_unitary", "dense"])
def test_apply_matches_the_matrix_on_state_columns(build):
    gate = build(3)
    rng = np.random.default_rng(3)
    states = rng.standard_normal((gate.dim, 4)) + 1j * rng.standard_normal((gate.dim, 4))
    assert core.max_abs(gate.apply(states) - gate.matrix @ states) <= 1e-12
    assert core.max_abs(gate.apply(states[:, 0]) - gate.matrix @ states[:, 0]) <= 1e-12
    with pytest.raises(ValueError, match="does not fit"):
        gate.apply(np.ones(gate.dim + 1))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_all_gates_unitary(d):
    for builder in PERMUTATION_GATES + [gates.sigma3]:
        assert core.is_unitary(builder(d).matrix, 1e-12), builder.__name__


def test_gate_rejects_bad_dim():
    with pytest.raises(ValueError):
        gates.QuditGate(3, np.eye(4), "bad")
    with pytest.raises(ValueError):
        gates.sigma1(1)
    with pytest.raises(ValueError):
        gates.controlled_unitary(np.eye(1))
    with pytest.raises(ValueError):
        gates.controlled_unitary(5)
