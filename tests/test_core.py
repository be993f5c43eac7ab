import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quswap import core, fock, gates, verify


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_complex_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# mod_add / basis_state
# ---------------------------------------------------------------------------

def test_mod_add_qubit_table():
    # the full Z_2 addition table
    assert core.mod_add(0, 0, 2) == 0
    assert core.mod_add(0, 1, 2) == 1
    assert core.mod_add(1, 0, 2) == 1
    assert core.mod_add(1, 1, 2) == 0


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_mod_add_identity_element(d):
    for b in range(d):
        assert core.mod_add(0, b, d) == b


def test_mod_add_wraparound():
    assert core.mod_add(2, 2, 3) == 1


def test_mod_add_rejects_out_of_range():
    with pytest.raises(ValueError):
        core.mod_add(3, 0, 3)
    with pytest.raises(ValueError):
        core.mod_add(0, -1, 3)
    # an int past the index range takes the full check, not the fast path, which returned 2
    with pytest.raises(ValueError, match="qudit dimension .* is too large"):
        core.mod_add(1, 1, 10**400)


@pytest.mark.parametrize("bad", [(0.5, 1), (1, 0.5), (math.nan, 0), (0, math.inf), ("1", 0)])
def test_mod_add_rejects_non_integral_indices(bad):
    # unchecked, mod_add(0.5, 1, 3) returned 1.5
    with pytest.raises(ValueError, match="must be an integer"):
        core.mod_add(*bad, 3)


def test_mod_add_takes_integral_floats_as_ints():
    result = core.mod_add(2.0, np.int64(1), 3)
    assert result == 0 and type(result) is int


def test_basis_state_qubits():
    assert np.array_equal(core.basis_state(0, 2), [1, 0])
    assert np.array_equal(core.basis_state(1, 2), [0, 1])
    assert np.array_equal(core.basis_state(2, 3), [0, 0, 1])


def test_basis_state_rejects_out_of_range():
    with pytest.raises(ValueError):
        core.basis_state(2, 2)


@pytest.mark.parametrize("j", [0.5, math.nan, "1"], ids=repr)
def test_basis_state_rejects_non_integral_index(j):
    # unchecked, a fractional index raised IndexError; the dim is checked with the sizes below
    with pytest.raises(ValueError, match="must be an integer"):
        core.basis_state(j, 3)


def test_basis_state_takes_an_integral_float_index():
    assert np.array_equal(core.basis_state(1.0, 3), core.basis_state(1, 3))


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_op_identity():
    assert np.array_equal(core.tensor_op(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_state_basis_ordering():
    # |a> (x) |b> must land at index a*dim(B)+b, matching the displayed
    # 4-vectors for qubits
    zero, one = core.basis_state(0, 2), core.basis_state(1, 2)
    assert np.array_equal(core.tensor_state(zero, one), [0, 1, 0, 0])
    assert np.array_equal(core.tensor_state(one, zero), [0, 0, 1, 0])
    assert np.array_equal(core.tensor_state(one, one), [0, 0, 0, 1])


def test_tensor_op_acts_on_first_factor():
    state = core.tensor_state(core.basis_state(0, 2), core.basis_state(0, 2))
    flipped = core.tensor_op(SIGMA_X, np.eye(2)) @ state
    assert np.array_equal(
        flipped, core.tensor_state(core.basis_state(1, 2), core.basis_state(0, 2))
    )


def test_vacuum_tensor_vacuum():
    n_max = 5
    vac = core.basis_state(0, n_max + 1)
    assert np.array_equal(
        core.tensor_state(vac, vac), core.basis_state(0, (n_max + 1) ** 2)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_tensor_mixed_product_property(n, m, seed):
    # (A (x) B)(C (x) D) = (AC) (x) (BD)
    rng = np.random.default_rng(seed)
    a, c = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
    b, d = random_complex_matrix(rng, m), random_complex_matrix(rng, m)
    lhs = core.tensor_op(a, b) @ core.tensor_op(c, d)
    rhs = core.tensor_op(a @ c, b @ d)
    assert core.max_abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# matmul / adjoint
# ---------------------------------------------------------------------------

def test_matmul_identity_and_involution():
    rng = np.random.default_rng(7)
    a = random_complex_matrix(rng, 4)
    assert np.array_equal(core.matmul(a, np.eye(4)), a)
    assert np.array_equal(core.matmul(SIGMA_X, SIGMA_X), np.eye(2))


def test_matmul_cnot_squares_to_identity():
    # oracle: direct multiplication of the regression matrix with itself
    assert np.array_equal(core.matmul(CNOT, CNOT), np.eye(4))


def test_matpow_of_a_shift():
    shift = np.roll(np.eye(3), 1, axis=0)
    assert np.array_equal(core.matpow(shift, 0), np.eye(3))
    assert np.array_equal(core.matpow(shift, 3), np.eye(3))
    assert np.array_equal(core.matpow(shift, 2.0), core.matpow(shift, 2))


@pytest.mark.parametrize("k", [-1, -2.0, 1.5, math.nan, math.inf, "2"], ids=repr)
def test_matpow_rejects_negative_or_non_integral_powers(k):
    # unchecked, -1 returned the inverse (or raised LinAlgError) and 1.5 raised TypeError
    with pytest.raises(ValueError, match="power"):
        core.matpow(np.eye(2), k)


def test_matmul_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        core.matmul(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="expected a square matrix"):
        core.matmul(np.eye(2), np.ones((2, 3)))
    # numpy's "matmul: Input operand 1 has a mismatch in its core dimension" came through
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
        core.commutator(np.eye(2), np.eye(3))


def test_apply_leaves_a_row_that_no_group_writes_zero():
    # two entries in row 0 and none in row 1, as a faulty index map gives; row 1 read
    # whatever the memory held
    op = core._Operator([(np.array([0, 0]), np.array([0, 1]), np.ones(2))], "x")
    for _ in range(3):
        np.full(2, np.nan, dtype=complex)  # leaves nan in memory that a new array may reuse
        assert op.apply(np.ones(2))[1] == 0


def test_adjoint_of_identity():
    assert np.array_equal(core.adjoint(np.eye(3)), np.eye(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_adjoint_involution_exact(n, seed):
    a = random_complex_matrix(np.random.default_rng(seed), n)
    assert np.array_equal(core.adjoint(core.adjoint(a)), a)


# ---------------------------------------------------------------------------
# is_unitary
# ---------------------------------------------------------------------------

def test_is_unitary_identity():
    assert core.is_unitary(np.eye(5), 1e-14)


def test_is_unitary_permutation():
    shift = np.roll(np.eye(5), 1, axis=0)
    assert core.is_unitary(shift, 1e-14)


def test_is_unitary_rejects_truncated_creation():
    # a^dag at finite cutoff kills the top level, so its columns cannot all
    # be orthonormal
    n_max = 6
    adag = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=-1).astype(complex)
    assert not core.is_unitary(adag, 1e-12)
    # the two orderings of a a^dag differ exactly at the boundary
    a = adag.conj().T
    assert not np.allclose(a @ adag, adag @ a)


def test_is_unitary_requires_positive_tol():
    # an infinite tolerance would pass any matrix, a NaN one fail every matrix silently
    # a string, None, bytes, a list or a complex number raised numpy's TypeError instead
    for tol in (0.0, math.inf, math.nan, "1e-3", None, b"1", [1e-3], 1j):
        with pytest.raises(ValueError, match="finite positive"):
            core.is_unitary(5 * np.eye(2), tol)


# ---------------------------------------------------------------------------
# mat_exp
# ---------------------------------------------------------------------------

def taylor_exp(a, terms=60):
    """Independent oracle: plain Taylor series of the matrix exponential."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def random_antihermitian(rng, n, max_norm):
    h = random_complex_matrix(rng, n)
    h = (h + h.conj().T) / 2
    h *= max_norm * rng.uniform(0.2, 1.0) / max(1e-12, np.linalg.norm(h, 2))
    return 1j * h


def test_mat_exp_of_zero():
    assert np.array_equal(core.mat_exp(np.zeros((4, 4))), np.eye(4))


def test_mat_exp_diagonal_number_operator():
    theta = 0.731
    n = np.diag(np.arange(6)).astype(complex)
    expected = np.diag(np.exp(1j * theta * np.arange(6)))
    assert core.max_abs(core.mat_exp(1j * theta * n) - expected) <= 1e-13


@pytest.mark.parametrize("seed", range(8))
def test_mat_exp_matches_taylor_oracle(seed):
    a = random_antihermitian(np.random.default_rng(seed), 8, 3.0)
    assert core.max_abs(core.mat_exp(a) - taylor_exp(a)) <= 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_mat_exp_antihermitian_is_unitary(seed):
    a = random_antihermitian(np.random.default_rng(100 + seed), 8, 10.0)
    assert core.is_unitary(core.mat_exp(a), 1e-12)


def test_mat_exp_accurate_at_large_norm():
    # top of the working norm range: exp(A) exp(-A) = 1 and unitarity both
    # probe the accumulated error of scaling and squaring
    a = random_antihermitian(np.random.default_rng(42), 12, 1.0)
    a *= 50.0 / np.linalg.norm(a, 2)
    e = core.mat_exp(a)
    assert core.is_unitary(e, 1e-12)
    assert core.max_abs(e @ core.mat_exp(-a) - np.eye(12)) <= 1e-11


def test_mat_exp_rejects_non_finite():
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        core.mat_exp(bad)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def test_fidelity_self_and_orthogonal():
    x = core.basis_state(0, 4)
    y = core.basis_state(1, 4)
    assert core.fidelity(x, x) == 1.0
    assert core.fidelity(x, y) == 0.0


def test_fidelity_rejects_unnormalized_inputs():
    # a clip into [0, 1] would report a state scaled by 2 as a perfect overlap
    v = core.basis_state(0, 4)
    with pytest.raises(ValueError):
        core.fidelity(v, 2 * v)
    with pytest.raises(ValueError):
        core.fidelity(0.5 * v, v)
    assert core.fidelity(v, v) == 1.0


def test_fidelity_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        core.fidelity(core.basis_state(0, 2), core.basis_state(0, 3))


NOT_VECTORS = {
    # matrices were read as their flattened vectors: fidelity gave 0.9999999999999996
    # and tensor_state a (2, 4) matrix
    "matrix": np.eye(2) / math.sqrt(2),
    "scalar": np.array(1.0),
    "column": np.array([[1.0], [0.0]]),
    "stack": np.zeros((1, 1, 2)),
}


@pytest.mark.parametrize("bad", NOT_VECTORS.values(), ids=NOT_VECTORS.keys())
@pytest.mark.parametrize("call", [
    lambda x: core.fidelity(x, x),
    lambda x: core.fidelity(core.basis_state(0, 2), x),
    lambda x: core.fidelity(x, core.basis_state(0, 2)),
    lambda x: core.tensor_state([1, 0], x),
    lambda x: core.tensor_state(x, [1, 0]),
    lambda x: fock.mode2_marginal(x, 1),
], ids=["fidelity-both", "fidelity-second", "fidelity-first", "tensor-second", "tensor-first",
        "mode2_marginal"])
def test_state_functions_reject_inputs_that_are_not_vectors(call, bad):
    with pytest.raises(ValueError, match="must be a vector"):
        call(bad)


def test_fidelity_of_coherent_pair_matches_gaussian_overlap():
    # for untruncated coherent states |<z|w>|^2 = exp(-|z-w|^2); at cutoff 40
    # the tail is negligible for |z|,|w| <= 1.5
    from quswap import fock

    for z, w in [(0.5, -0.3 + 1.1j), (1.5, 0.2j), (-1.0 + 0.5j, 1.2 - 0.4j)]:
        got = core.fidelity(fock.coherent_state(z, 40), fock.coherent_state(w, 40))
        assert got == pytest.approx(math.exp(-abs(z - w) ** 2), abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-math.pi, math.pi))
def test_fidelity_symmetric_and_phase_invariant(seed, phase):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    f = core.fidelity(x, y)
    assert abs(f - core.fidelity(y, x)) <= 1e-14
    assert abs(f - core.fidelity(np.exp(1j * phase) * x, y)) <= 1e-14
    assert abs(f - core.fidelity(x, np.exp(1j * phase) * y)) <= 1e-14


# ---------------------------------------------------------------------------
# QuditDim
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(2, 17))
def test_root_of_unity_closes(d):
    assert abs(core.QuditDim(d).zeta ** d - 1) <= 1e-14


def test_qudit_dim_rejects_small_d():
    with pytest.raises(ValueError):
        core.QuditDim(1)


# each sized constructor with a reader of the size it was given
SIZED = [
    (core.QuditDim, lambda q: q.d),
    (gates.sigma1, lambda g: g.d),
    (fock.FockCutoff, lambda c: c.n_max),
    (lambda n: core.basis_state(0, n), len),
    (lambda n: fock.coherent_state(0.5, n), lambda v: len(v) - 1),
    (lambda n: gates.QuditGate(n, np.eye(8), "x"), lambda g: g.d),
    (lambda n: fock.ModeOperator(n, np.eye(9), "x"), lambda op: op.cutoff.n_max),
]
SIZED_IDS = ["QuditDim", "sigma1", "FockCutoff", "basis_state", "coherent_state", "QuditGate",
             "ModeOperator"]


@pytest.mark.parametrize("build, size", SIZED, ids=SIZED_IDS)
@pytest.mark.parametrize("bad", [2.5, 8.9, math.inf, math.nan, "8", None, [3], 3 + 0j])
def test_non_integral_sizes_are_rejected(build, size, bad):
    # None, [3] and 3+0j raised TypeError from float()
    with pytest.raises(ValueError, match="must be an integer") as caught:
        build(bad)
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("build, size", SIZED, ids=SIZED_IDS)
@pytest.mark.parametrize("bad", [10**400, 10**5000, 1e308], ids=["10**400", "10**5000", "1e308"])
def test_sizes_beyond_numpy_index_range_are_rejected(build, size, bad):
    # each is rejected before anything is allocated; 10**400 raised OverflowError from
    # float(), a qudit size of 1e308 numpy's "Maximum allowed size exceeded", and 10**5000
    # Python's "Exceeds the limit (4300 digits) for integer string conversion"
    with pytest.raises(ValueError, match="is too large: .* exceeds numpy's index range") as caught:
        build(bad)
    assert "\n" not in str(caught.value)


# the decimal repr of 10**5000 is beyond Python's 4300-digit limit for int-to-str conversion
TOO_LONG = "<int too long to print>"


@pytest.mark.parametrize("build, message", [
    (lambda: fock.FockCutoff(-10**5000), f"cutoff must be >= 1, got {TOO_LONG}"),
    (lambda: fock.FockCutoff(fractions.Fraction(10**5000, 3)),
     "cutoff must be an integer, got <Fraction too long to print>"),
    (lambda: core.QuditDim(-10**5000), f"qudit dimension must be >= 2, got {TOO_LONG}"),
    (lambda: gates.sigma1(-10**5000), f"qudit dimension must be >= 2, got {TOO_LONG}"),
    (lambda: verify.qudit_checks(10**5000), f"d_max {TOO_LONG} is too large: the two-qudit "
     "dimension d_max^2 exceeds numpy's index range"),
    (lambda: core.basis_state(10**5000, 4), f"basis index {TOO_LONG} out of range for dim=4"),
    (lambda: core.mod_add(10**5000, 0, 3), f"indices ({TOO_LONG}, 0) out of range for d=3"),
], ids=["FockCutoff-negative", "FockCutoff-Fraction", "QuditDim", "sigma1", "qudit_checks",
        "basis_state", "mod_add"])
def test_values_too_long_to_print_are_named_by_their_type(build, message):
    # each raised Python's "Exceeds the limit (4300 digits) for integer string conversion"
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("build, size", SIZED, ids=SIZED_IDS)
@pytest.mark.parametrize("good", [8, np.int64(8), 8.0, np.float64(8.0)],
                         ids=["int", "numpy-int", "float", "numpy-float"])
def test_integral_sizes_are_accepted(build, size, good):
    n = size(build(good))
    assert n == 8 and type(n) is int
