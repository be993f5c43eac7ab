import cmath
import fractions
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special
import scipy.stats

from quswap import _igam, core, fock


N_MAX = 16
CUT = fock.FockCutoff(N_MAX)


def dense_beamsplitter(t, cutoff):
    """Oracle: one dense exponential of the whole truncated two-mode generator."""
    jp, jm, _ = fock.schwinger_su2(cutoff)
    return core.mat_exp(t * jp.matrix - np.conj(t) * jm.matrix)


def rand_t(seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, math.pi) * np.exp(1j * rng.uniform(-math.pi, math.pi))


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def test_annihilation_kills_vacuum():
    out = fock.annihilation(CUT).apply(core.basis_state(0, CUT.dim))
    assert np.array_equal(out, np.zeros(CUT.dim))


def test_creation_matrix_elements():
    # adag|3> = 2|4>
    out = fock.creation(CUT).apply(core.basis_state(3, CUT.dim))
    assert np.array_equal(out, 2.0 * core.basis_state(4, CUT.dim))


def test_creation_truncates_top_level():
    out = fock.creation(CUT).apply(core.basis_state(N_MAX, CUT.dim))
    assert np.array_equal(out, np.zeros(CUT.dim))


def test_ladder_operators_are_exact_transposes():
    a = fock.annihilation(CUT).matrix
    adag = fock.creation(CUT).matrix
    assert np.array_equal(a.T, adag)
    assert np.array_equal(a.imag, np.zeros_like(a.imag))


def test_number_operator_is_exact_diagonal():
    n = fock.number(CUT).matrix
    assert np.array_equal(n, np.diag(np.arange(CUT.dim)))


def test_number_ladder_commutators():
    a = fock.annihilation(CUT).matrix
    adag = fock.creation(CUT).matrix
    n = fock.number(CUT).matrix
    assert core.max_abs(core.commutator(n, adag) - adag) <= 1e-13
    assert core.max_abs(core.commutator(n, a) + a) <= 1e-13


def test_canonical_commutator_interior_and_boundary():
    a = fock.annihilation(CUT).matrix
    adag = fock.creation(CUT).matrix
    comm = core.commutator(a, adag)
    interior = fock.level_projector(CUT, N_MAX - 1)
    assert core.max_abs((comm - np.eye(CUT.dim)) @ interior) <= 1e-13
    # the boundary level feels the cutoff: [a, adag]|n_max> = -n_max |n_max>
    top = comm @ core.basis_state(N_MAX, CUT.dim)
    assert top[N_MAX] == pytest.approx(-N_MAX, abs=1e-12)


def test_number_basis_is_orthonormal_and_complete():
    basis = [core.basis_state(j, CUT.dim) for j in range(CUT.dim)]
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    assert np.array_equal(gram, np.eye(CUT.dim))
    assert np.array_equal(
        sum(np.outer(v, v.conj()) for v in basis), np.eye(CUT.dim)
    )


# ---------------------------------------------------------------------------
# coherent states and displacement
# ---------------------------------------------------------------------------

def test_coherent_vacuum():
    assert np.array_equal(fock.coherent_state(0, CUT), core.basis_state(0, CUT.dim))


def test_coherent_ground_amplitude():
    # before renormalization the n=0 amplitude is e^(-1/2); at this cutoff the
    # discarded tail is far below double precision, so it survives unchanged
    state = fock.coherent_state(1.0, 32)
    assert state[0] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_coherent_amplitude_series():
    z = 0.6 - 0.4j
    state = fock.coherent_state(z, 32)
    expected = np.array(
        [math.exp(-abs(z) ** 2 / 2) * z**n / math.sqrt(math.factorial(n))
         for n in range(33)]
    )
    assert core.max_abs(state - expected / np.linalg.norm(expected)) <= 1e-12


@pytest.mark.parametrize("z", [0.5, 1.5, -0.8 + 0.9j])
def test_coherent_matches_displaced_vacuum(z):
    via_series = fock.coherent_state(z, 32)
    via_exp = fock.displacement(z, 32).apply(core.basis_state(0, 33))
    assert core.max_abs(via_series - via_exp) <= 1e-10


def test_coherent_state_is_annihilation_eigenvector():
    z = 0.7 + 0.2j
    state = fock.coherent_state(z, 40)
    out = fock.annihilation(40).apply(state)
    assert core.max_abs(out - z * state) <= 1e-10


def test_coherent_warns_beyond_adequacy():
    with pytest.warns(fock.TruncationWarning):
        fock.coherent_state(2.0, 4)


@pytest.mark.parametrize("z", [float("nan"), float("inf"), complex(0.5, float("-inf"))])
def test_coherent_rejects_non_finite_parameter(z):
    with pytest.raises(ValueError, match="finite"):
        fock.coherent_state(z, 4)


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(0, math.inf)])
def test_truncation_weight_rejects_non_finite_parameter(z):
    # unchecked, nan gave a nan weight and inf a weight of 1.0
    with pytest.raises(ValueError, match="finite"):
        fock.coherent_truncation_weight(z, 8)


@pytest.mark.parametrize("z", [1e200, 1e200j, complex(1e308, 1e308)])
def test_coherent_rejects_parameter_whose_square_overflows(z):
    # finite, but |z|^2 is beyond float range
    with pytest.raises(ValueError, match="overflows"):
        fock.coherent_state(z, 8)
    with pytest.raises(ValueError, match="overflows"):
        fock.coherent_truncation_weight(z, 8)


@pytest.mark.parametrize("project", [fock.level_projector, fock.total_number_projector])
def test_projectors_take_integral_levels_only(project):
    # a fractional level kept the levels below it, and nan gave the zero projector
    for level in (2.5, math.nan, "3", None, 3 + 0j):
        with pytest.raises(ValueError, match="must be an integer"):
            project(8, level)
    assert np.array_equal(project(8, 3.0), project(8, 3))
    # a level beyond float range keeps every level; it raised OverflowError
    assert np.array_equal(project(8, 10**400), project(8, 16))


def test_truncation_weight_matches_poisson_tail():
    z, n_max = 1.3, 6
    lam = abs(z) ** 2
    tail = sum(
        math.exp(-lam) * lam**n / math.factorial(n) for n in range(n_max + 1)
    )
    assert fock.coherent_truncation_weight(z, n_max) == pytest.approx(
        1 - tail, abs=1e-12
    )


@pytest.mark.parametrize("z", [0.01, 0.3, 0.5 + 0.5j, 1.0, 1.7, -2.2j, 3.0, 4.5, 6.0, 8.0])
def test_truncation_weight_is_poisson_survival_function(z):
    # the incomplete-gamma form is scipy's Poisson tail, bit for bit
    mu = abs(z) ** 2
    got = [fock.coherent_truncation_weight(z, k) for k in range(1, 65)]
    assert got == [float(scipy.stats.poisson.sf(k, mu)) for k in range(1, 65)]


def _truncation_weight_grid():
    """(a, x) pairs through every branch of the cephes igam route, for integer a."""
    specials = [0.0, 1e-320, 1e300, math.nan]
    for a in range(2, 66):
        # series below a, continued fraction above it, Temme's expansion for
        # 20 < a < 200 and |x - a|/a < 0.3, both branches of igam_fac
        xs = np.concatenate([np.geomspace(1e-8, 5 * a + 50, 150),
                             a * (1 + np.linspace(-0.45, 0.45, 91))])
        yield a, [*specials, *xs.tolist()]
    # the edges of Temme's regime at its smallest a, 21: sigma -> +-0.3 from either side
    edges = [21 * (1 + s) for s in (-0.3, 0.3)]
    yield 21, [x for e in edges for x in (math.nextafter(e, 0), e, math.nextafter(e, 100))]
    # large a: the expansion within 4.5/sqrt(a) of x = a, the Lanczos
    # log1pmx form of igam_fac, and lgam past 1000 and past 1e8
    for a in [199, 200, 201, 999, 1000, 1001, 4096, 31623, 10**6, 10**9]:
        s = 4.5 / math.sqrt(a)
        xs = np.concatenate([a * (1 + np.linspace(-1.5 * s, 1.5 * s, 61)),
                             np.geomspace(1e-3, 10 * a, 60)])
        yield a, [*specials, *xs.tolist()]


def test_truncation_weight_port_is_scipy_gammainc_bit_for_bit():
    mismatches = []
    for a, xs in _truncation_weight_grid():
        want = scipy.special.gammainc(a, np.array(xs)).tolist()
        got = [_igam.igam(a, x) for x in xs]
        mismatches += [(a, x, g, w) for x, g, w in zip(xs, got, want)
                       if not (g == w or (math.isnan(g) and math.isnan(w)))]
    assert mismatches == []


def test_truncation_weight_port_rejects_shapes_off_its_route():
    for a in (1, 2.5, 0):
        with pytest.raises(ValueError, match="integer >= 2"):
            _igam.igam(a, 1.0)


@pytest.mark.parametrize("z", [0.7 - 0.3j, -1.2 + 0.5j])
def test_displacement_matches_dense_exponential(z):
    # the spectral route against the dense oracle, max deviation 1.7e-14
    for n_max in range(1, 65):
        a = fock.annihilation(n_max).matrix
        dense = core.mat_exp(z * a.conj().T - np.conj(z) * a)
        assert core.max_abs(fock.displacement(z, n_max).matrix - dense) <= 5e-14


@pytest.mark.parametrize("w", [0.4 - 0.2j, 0.9])
def test_squeeze_matches_dense_exponential(w):
    # the even and odd chains against the dense oracle, max deviation 1.4e-14
    for n_max in range(1, 65):
        kp, km, _ = fock.su11_generators(n_max)
        dense = core.mat_exp(w * kp.matrix - np.conj(w) * km.matrix)
        assert core.max_abs(fock.squeeze(w, n_max).matrix - dense) <= 5e-14


@pytest.mark.parametrize("build", [fock.displacement, fock.squeeze])
@pytest.mark.parametrize("z", [math.inf, complex(0, math.nan), complex(-math.inf, 1)])
def test_spectral_builders_reject_non_finite_parameters(build, z):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        with pytest.raises(ValueError, match="^(displacement|squeeze) parameter must be finite, "
                                             "got "):
            build(z, 8)


TOO_LARGE_CUTOFF = "^cutoff 1e\\+308 is too large: the two-mode dimension"


@pytest.mark.parametrize("build,message", [
    (lambda: fock.beamsplitter(1e308, 8), "non-finite"),
    (lambda: fock.displacement(1e308, 8), "non-finite"),
    (lambda: fock.squeeze(1e308j, 8), "non-finite"),
    (lambda: fock.phase_op(1e308, 1, 4), "^theta \\* n_max must be finite, got theta 1e\\+308$"),
    (lambda: fock.phase_op(-1e308, 2, 4), "^theta \\* n_max must be finite, got theta -1e\\+308$"),
    (lambda: fock.beamsplitter(0.3, 1e308), TOO_LARGE_CUTOFF),
    (lambda: fock.exchange_protocol(0.3, 1e308), TOO_LARGE_CUTOFF),
    (lambda: fock.squeeze(0.3, 1e308), TOO_LARGE_CUTOFF),
    (lambda: fock.annihilation(1e308), TOO_LARGE_CUTOFF),
], ids=["beamsplitter", "displacement", "squeeze", "phase_op-1", "phase_op-2",
        "beamsplitter-cutoff", "exchange_protocol-cutoff", "squeeze-cutoff", "annihilation-cutoff"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::quswap.fock.TruncationWarning")
def test_finite_parameters_whose_exponent_overflows_are_rejected(build, message):
    # each parameter is finite, but its product with the largest level or eigenvalue is not,
    # or, for a cutoff, its two-mode dimension is beyond numpy's index range; unchecked, the
    # builders returned NaN entries, and the beamsplitter raised OverflowError on the cutoff
    with pytest.raises(ValueError, match=message) as caught:
        build()
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("build", [
    lambda: fock.beamsplitter(1e300, 8),
    lambda: fock.beamsplitter(1e307, 8),
    lambda: fock.exchange_protocol(1e308, 8),
    lambda: fock.phase_op(1e307, 1, 8),
], ids=["beamsplitter-1e300", "beamsplitter-1e307", "exchange_protocol-1e308", "phase_op-1e307"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_parameters_below_overflow_stay_finite(build):
    # exchange_protocol takes theta modulo 2 pi before any phase is formed
    assert np.all(np.isfinite(build().matrix))


def test_displacement_identity_and_inverse():
    assert core.max_abs(fock.displacement(0, CUT).matrix - np.eye(CUT.dim)) <= 1e-14
    z = 0.8 - 0.3j
    prod = fock.displacement(z, CUT).matrix @ fock.displacement(-z, CUT).matrix
    assert core.max_abs(prod - np.eye(CUT.dim)) <= 1e-9


def test_displacement_unitary():
    z = math.sqrt(N_MAX) / 4
    assert core.is_unitary(fock.displacement(z, CUT).matrix, 1e-10)


# ---------------------------------------------------------------------------
# squeeze and su(1,1)
# ---------------------------------------------------------------------------

def test_squeeze_identity():
    assert core.max_abs(fock.squeeze(0, CUT).matrix - np.eye(CUT.dim)) <= 1e-14


def test_squeezed_vacuum_has_even_support():
    state = fock.squeeze(0.4, 32).apply(core.basis_state(0, 33))
    assert core.max_abs(state[1::2]) <= 1e-12
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def test_squeezed_coherent_state_normalized():
    state = fock.squeeze(0.3, 32).apply(
        fock.displacement(0.5, 32).apply(core.basis_state(0, 33))
    )
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-8)


def test_squeeze_warns_beyond_adequacy():
    with pytest.warns(fock.TruncationWarning):
        fock.squeeze(1.5, CUT)


def test_su11_commutators_on_interior():
    kp, km, k3 = (g.matrix for g in fock.su11_generators(CUT))
    interior = fock.level_projector(CUT, N_MAX - 2)
    assert core.max_abs((core.commutator(k3, kp) - kp) @ interior) <= 1e-12
    assert core.max_abs((core.commutator(k3, km) + km) @ interior) <= 1e-12
    assert core.max_abs((core.commutator(kp, km) + 2 * k3) @ interior) <= 1e-12


@pytest.mark.parametrize("n_max", [1, 2, 4, 16])
def test_su11_generators_match_ladder_products(n_max):
    # the dense oracle of test_squeeze_matches_dense_exponential, pinned to the products of
    # the public ladder matrices bit for bit
    a = fock.annihilation(n_max).matrix
    adag = a.conj().T
    kp, km, k3 = (g.matrix for g in fock.su11_generators(n_max))
    assert np.array_equal(kp, adag @ adag / 2)
    assert np.array_equal(km, a @ a / 2)
    assert np.array_equal(k3, (adag @ a + np.eye(n_max + 1) / 2) / 2)


def test_su11_k3_vacuum_eigenvalue():
    _, _, k3 = fock.su11_generators(CUT)
    out = k3.apply(core.basis_state(0, CUT.dim))
    assert np.array_equal(out, 0.25 * core.basis_state(0, CUT.dim))


# ---------------------------------------------------------------------------
# two modes: Schwinger su(2) and the beamsplitter
# ---------------------------------------------------------------------------

def test_schwinger_su2_commutators_on_bounded_totals():
    jp, jm, j3 = (g.matrix for g in fock.schwinger_su2(CUT))
    bounded = fock.total_number_projector(CUT, N_MAX)
    assert core.max_abs((core.commutator(j3, jp) - jp) @ bounded) <= 1e-12
    assert core.max_abs((core.commutator(j3, jm) + jm) @ bounded) <= 1e-12
    assert core.max_abs((core.commutator(jp, jm) - 2 * j3) @ bounded) <= 1e-12


def test_schwinger_raising_moves_photon():
    jp, _, _ = fock.schwinger_su2(CUT)
    inp = core.tensor_state(core.basis_state(0, CUT.dim), core.basis_state(1, CUT.dim))
    want = core.tensor_state(core.basis_state(1, CUT.dim), core.basis_state(0, CUT.dim))
    assert core.max_abs(jp.apply(inp) - want) <= 1e-15


@pytest.mark.parametrize("n_max", [1, 4, 16])
def test_schwinger_su2_matches_mode_pair_products(n_max, mode_pair):
    # oracle: the generators as products of the two-mode ladder operators
    a1, a2 = mode_pair(n_max)
    a1dag, a2dag = a1.conj().T, a2.conj().T
    jp, jm, j3 = (g.matrix for g in fock.schwinger_su2(n_max))
    assert np.array_equal(jp, a1dag @ a2)
    assert np.array_equal(jm, a2dag @ a1)
    assert core.max_abs(j3 - (a1dag @ a1 - a2dag @ a2) / 2) <= 1e-14


def test_generators_keep_one_entry_per_row():
    # built as dense products, the six generators at n_max 32 peaked at 90.5 MB
    tracemalloc.start()
    try:
        generators = (*fock.schwinger_su2(32), *fock.su11_generators(32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [g.dim for g in generators] == [33**2] * 3 + [33] * 3


@pytest.mark.parametrize("seed", range(5))
def test_beamsplitter_keeps_vacuum(seed):
    t = rand_t(seed)
    vac = core.basis_state(0, CUT.dim2)
    assert np.linalg.norm(fock.beamsplitter(t, CUT).apply(vac) - vac) <= 1e-12


def test_beamsplitter_conserves_total_number(mode_pair):
    u = fock.beamsplitter(0.6 * np.exp(0.9j), CUT).matrix
    a1, a2 = mode_pair(CUT)
    n_tot = a1.conj().T @ a1 + a2.conj().T @ a2
    assert core.max_abs(core.commutator(u, n_tot)) <= 1e-12


def test_beamsplitter_is_unitary():
    assert core.is_unitary(fock.beamsplitter(rand_t(3), CUT).matrix, 1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_heisenberg_rotation_of_modes(seed, mode_pair):
    t = rand_t(30 + seed)
    abs_t, phase = abs(t), t / abs(t)
    u = fock.beamsplitter(t, CUT).matrix
    a1, a2 = mode_pair(CUT)
    bounded = fock.total_number_projector(CUT, N_MAX - 1)
    lhs1 = u @ a1 @ u.conj().T
    rhs1 = math.cos(abs_t) * a1 - phase * math.sin(abs_t) * a2
    assert core.max_abs((lhs1 - rhs1) @ bounded) <= 1e-10
    lhs2 = u @ a2 @ u.conj().T
    rhs2 = math.cos(abs_t) * a2 + np.conj(phase) * math.sin(abs_t) * a1
    assert core.max_abs((lhs2 - rhs2) @ bounded) <= 1e-10


def test_beamsplitter_splits_coherent_state():
    # U_J sends |z> (x) |0> to |c z> (x) |-e^(-i theta) s z>
    z, t = 0.9, 0.7 * np.exp(0.5j)
    c, s, theta = math.cos(abs(t)), math.sin(abs(t)), np.angle(t)
    out = fock.beamsplitter(t, 32).apply(
        core.tensor_state(fock.coherent_state(z, 32), core.basis_state(0, 33))
    )
    want = core.tensor_state(
        fock.coherent_state(c * z, 32),
        fock.coherent_state(-np.exp(-1j * theta) * s * z, 32),
    )
    assert core.fidelity(want, out) >= 1 - 1e-10


# ---------------------------------------------------------------------------
# beamsplitter blocks, against the dense-exponential oracle
# ---------------------------------------------------------------------------

def _chains(n_max):
    """Every chain of the spectrum table at n_max, with its levels, steps and off-diagonal."""
    for n in range(2 * n_max + 1):
        n1 = np.arange(max(0, n - n_max), min(n, n_max) + 1)
        off = np.sqrt((n1[:-1] + 1) * (n - n1[:-1]))
        yield ("beamsplitter", n), n1 * (n_max + 1) + n - n1, n1, off
    levels = np.arange(n_max + 1)
    yield ("displacement", 0), levels, levels, np.sqrt(levels[1:])
    for parity in (0, 1):
        levels = np.arange(parity, n_max + 1, 2)
        off = np.sqrt((levels[:-1] + 1) * (levels[:-1] + 2)) / 2
        yield ("squeeze", parity), levels, np.arange(len(levels)), off


def test_beamsplitter_eigenpairs_equal_scipy_eigh_tridiagonal():
    # numpy's eigh of the dense tridiagonal generator reaches the LAPACK
    # routine that eigh_tridiagonal calls; a BLAS/LAPACK build that breaks
    # this identity moves the bytes of verify and clone. The displacement and
    # squeeze chains share the table and are held to the same identity.
    for n_max in range(1, 65):
        for key, want_idx, want_steps, off in _chains(n_max):
            idx, steps, w, v = fock._chain_spectrum(*key, n_max)
            assert np.array_equal(idx, want_idx) and np.array_equal(steps, want_steps)
            w_ref, v_ref = scipy.linalg.eigh_tridiagonal(np.zeros(len(idx)), off)
            assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref), (n_max, key)


def _count_eigh(monkeypatch) -> list[int]:
    """Empty the spectrum table and record the size of every later eigh call."""
    fock._chain_spectrum.cache_clear()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    return calls


def test_block_table_diagonalizes_each_block_once_per_process(monkeypatch):
    # the eigenpairs depend on (n, n_max) only: three strengths, the exchange and
    # a clone of every level at n_max 32 share the 65 blocks' one eigh call each
    calls = _count_eigh(monkeypatch)
    for t in (0.3, 0.7 - 0.4j, (math.pi / 2) * 1j):
        fock.beamsplitter(t, 32)
    fock.exchange_protocol(0.4, 32)
    x = np.random.default_rng(7).normal(size=(33, 3)) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        fock.imperfect_clone_numeric(x, 0.6, 32)
    # block n holds min(n, 64 - n) + 1 occupations
    assert len(calls) == 65
    assert sorted(calls) == sorted(min(n, 64 - n) + 1 for n in range(65))


def test_displacement_and_squeeze_diagonalize_each_chain_once_per_process(monkeypatch):
    # their generators depend on the cutoff (and parity) only, not on z or w
    calls = _count_eigh(monkeypatch)
    fock.displacement(0.3, 8)
    fock.displacement(-0.5 + 0.2j, 8)
    assert calls == [9]
    fock.squeeze(0.2, 8)
    fock.squeeze(0.4j, 8)
    assert calls == [9, 5, 4]  # levels 0, 2, .., 8 and 1, 3, .., 7


@pytest.mark.parametrize("builder,s", [(fock.displacement, 0.6 - 0.3j), (fock.squeeze, 0.4j)],
                         ids=["displacement", "squeeze"])
def test_chain_operators_equal_on_a_cold_and_a_warm_table(builder, s):
    fock._chain_spectrum.cache_clear()
    cold = builder(s, 16).matrix
    assert np.array_equal(builder(s, 16).matrix, cold)


@pytest.mark.parametrize("part", range(4), ids=["idx", "n1", "w", "v"])
def test_block_table_arrays_are_read_only(part):
    # a caller that writes into a kept array would change every later beamsplitter;
    # the steps along a beamsplitter block are its first-mode occupations n1
    array = fock._chain_spectrum("beamsplitter", 5, 8)[part]
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 0


def test_blockwise_vacuum_block_is_trivial():
    u = fock.beamsplitter_blockwise(rand_t(8), CUT).matrix
    assert u[0, 0] == 1.0


def test_blockwise_single_photon_block_is_rotation():
    # basis within the block ordered by rising first-mode occupation:
    # [(0,1), (1,0)]; columns follow from the mode rotation identities
    t = 0.8
    u = fock.beamsplitter_blockwise(t, CUT).matrix
    i01, i10 = 1, CUT.dim
    block = np.array([[u[i01, i01], u[i01, i10]], [u[i10, i01], u[i10, i10]]])
    want = np.array(
        [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    )
    assert core.max_abs(block - want) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_blockwise_matches_dense_exponential(seed):
    # every block, those above the cutoff included
    t = rand_t(50 + seed)
    blocks = fock.beamsplitter(t, CUT).matrix
    assert core.max_abs(dense_beamsplitter(t, CUT) - blocks) <= 1e-10


def test_blockwise_blocks_are_unitary():
    assert core.is_unitary(fock.beamsplitter_blockwise(rand_t(9), CUT).matrix, 1e-12)


@pytest.mark.filterwarnings("ignore::quswap.fock.TruncationWarning")
@pytest.mark.parametrize("n_max", [2, 8, 16])
def test_clone_numeric_matches_dense_oracle(n_max):
    # one column per block against the dense exponential applied to x (x) |0>;
    # x fills every level, the top ones included
    rng = np.random.default_rng(700 + n_max)
    x = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    x /= np.linalg.norm(x)
    t = rand_t(60 + n_max)
    inp = core.tensor_state(x, core.basis_state(0, n_max + 1))
    phase = fock.phase_op(np.angle(t) + math.pi, 2, n_max).matrix
    want = phase @ dense_beamsplitter(t, n_max) @ inp
    got = fock.imperfect_clone_numeric(x, t, n_max)
    assert core.max_abs(got - want) <= 1e-12


def _rotation_per_block(chain: str, n: int, n_max: int, modulus: float, phase: float):
    """The group of one chain with its own phase vector and eigenphase call, each block
    multiplied out as ``fock._rotations`` does: the reference for sharing those two calls."""
    idx, steps, w, v = fock._chain_spectrum(chain, n, n_max)
    phases = np.exp(1j * (phase + math.pi / 2) * steps)
    rotation = (v * np.exp(-1j * modulus * w)) @ v.T
    return idx, idx, phases[:, None] * rotation * phases.conj()


def _reference_beamsplitter_groups(t, n_max: int) -> list:
    p = fock.BeamsplitterParam(t)
    return [_rotation_per_block("beamsplitter", n, n_max, p.modulus, p.phase)
            for n in range(2 * n_max + 1)]


def _phase_diagonal(theta: float, mode: int, n_max: int) -> np.ndarray:
    """The diagonal of V_mode(theta) = exp(i theta N_mode) on the whole two-mode basis."""
    phases, ones = np.exp(1j * theta * np.arange(n_max + 1)), np.ones(n_max + 1)
    return (phases[:, None] * ones if mode == 1 else ones[:, None] * phases).ravel()


def _reference_exchange_groups(theta: float, n_max: int) -> list:
    theta = math.fmod(theta, math.tau)
    t = (math.pi / 2) * complex(math.cos(theta), math.sin(theta))
    phases = _phase_diagonal(-theta, 1, n_max) * _phase_diagonal(theta + math.pi, 2, n_max)
    return [(idx, idx, phases[idx, None] * b)
            for idx, _, b in _reference_beamsplitter_groups(t, n_max)]


def _reference_clone(x, t, n_max: int) -> np.ndarray:
    c = fock.FockCutoff(n_max)
    p = fock.BeamsplitterParam(t)
    x = np.asarray(x, dtype=complex)
    v2 = _phase_diagonal(p.phase + math.pi, 2, n_max)
    down = (slice(None),) + (None,) * (x.ndim - 1)
    out = np.zeros((c.dim2, *x.shape[1:]), dtype=complex)
    for n in np.flatnonzero(x if x.ndim == 1 else x.any(axis=1)).tolist():
        idx, _, block = _rotation_per_block("beamsplitter", n, n_max, p.modulus, p.phase)
        out[idx] = x[n] * v2[idx][down] * block[:, -1][down]
    return out


def _bytes(groups: list) -> bytes:
    """The bytes of every stored array and, up to the 1089-square of n_max 32, of the
    assembled ``.matrix`` (the 4225-square of n_max 64 would take 285 MB)."""
    op = core._Operator(groups, "reference")
    return b"".join([a.tobytes() for group in groups for a in group]
                    + ([op.matrix.tobytes()] if op.dim <= 33 ** 2 else []))


ROTATION_N_MAX = [1, 2, 7, 8, 16, 32, 64]
# t = 0, |t| = pi/2, a generic strength, and a theta beyond 2 pi
STRENGTHS = [0, math.pi / 2, 0.3 - 0.4j, (math.pi / 2) * np.exp(2.2j), 0.8 * np.exp(7.5j)]


@pytest.mark.filterwarnings("ignore::quswap.fock.TruncationWarning")
@pytest.mark.parametrize("n_max", ROTATION_N_MAX)
def test_fock_operators_keep_the_bytes_of_one_rotation_per_block(n_max):
    # tobytes() compares signed zeros too, which array_equal does not
    cases = []
    for t in STRENGTHS:
        z = complex(t)
        cases += [
            (fock.beamsplitter(t, n_max), _reference_beamsplitter_groups(t, n_max)),
            (fock.displacement(z, n_max),
             [_rotation_per_block("displacement", 0, n_max, abs(z), cmath.phase(z))]),
            (fock.squeeze(z, n_max),
             [_rotation_per_block("squeeze", r, n_max, abs(z), cmath.phase(z)) for r in (0, 1)]),
        ]
    for theta in [0.0, 0.4, -1.9, 2 * math.pi + 0.5, 1e5]:
        cases.append((fock.exchange_protocol(theta, n_max),
                      _reference_exchange_groups(theta, n_max)))
    for op, want in cases:
        assert _bytes(op._groups) == _bytes(want), op.label


# |(pi/2) e^(i theta)| is pi/2, pi/2 - 2.2e-16 and pi/2 + 2.2e-16 at these theta
MEMO_THETAS = [0.01, 0.02, 0.08]


def _exchange_modulus(theta: float) -> float:
    """|t| of the exchange's half-wave beamsplitter, formed as ``exchange_protocol`` forms it."""
    return fock.BeamsplitterParam((math.pi / 2) * complex(math.cos(theta), math.sin(theta))).modulus


@pytest.mark.parametrize("n_max", [1, 8, 32, 64])
def test_exchange_keeps_its_bytes_on_a_cold_and_a_warm_core_memo(n_max):
    fock._exchange_cores.cache_clear()
    for _ in ("cold", "warm"):
        for theta in MEMO_THETAS:
            assert (_bytes(fock.exchange_protocol(theta, n_max)._groups)
                    == _bytes(_reference_exchange_groups(theta, n_max))), theta
    moduli = sorted({_exchange_modulus(theta) for theta in MEMO_THETAS})
    assert len(moduli) == 3  # so every modulus the half-wave strength takes is covered
    info = fock._exchange_cores.cache_info()
    assert (info.misses, info.hits) == (3, 3)
    cached = []
    for modulus in moduli:
        steps, idx, cores = fock._exchange_cores(n_max, modulus)
        assert not any(a.flags.writeable for a in (steps, idx, *(core for _, _, core in cores)))
        # each entry holds the cores of its own modulus, multiplied out block by block
        for n, (_, _, core) in enumerate(cores):
            _, _, w, v = fock._chain_spectrum("beamsplitter", n, n_max)
            assert core.tobytes() == ((v * np.exp(-1j * modulus * w)) @ v.T).tobytes()
        cached.append(b"".join(core.tobytes() for _, _, core in cores))
    assert len(set(cached)) == 3  # the three moduli give three sets of bytes


@pytest.mark.filterwarnings("ignore::quswap.fock.TruncationWarning")
@pytest.mark.parametrize("n_max", ROTATION_N_MAX)
def test_clone_keeps_the_bytes_of_one_rotation_per_block(n_max):
    rng = np.random.default_rng(90 + n_max)
    half = n_max // 2 + 1
    inputs = [np.zeros(half), np.zeros((n_max + 1, 2)),  # no occupied level
              rng.standard_normal(half) + 1j * rng.standard_normal(half),
              rng.standard_normal((n_max + 1, 3)) + 1j * rng.standard_normal((n_max + 1, 3))]
    for t in STRENGTHS:
        for x in inputs:
            got = fock.imperfect_clone_numeric(x, t, n_max)
            assert got.tobytes() == _reference_clone(x, t, n_max).tobytes()


@pytest.mark.parametrize("n_max", [1, 2, 8, 32])
@pytest.mark.parametrize("build", [
    lambda n_max: fock.beamsplitter(rand_t(70 + n_max), n_max),
    lambda n_max: fock.exchange_protocol(0.3 * n_max, n_max),
    lambda n_max: fock.annihilation(n_max),
    lambda n_max: fock.creation(n_max),
    lambda n_max: fock.number(n_max),
    lambda n_max: fock.su11_generators(n_max)[0],
    lambda n_max: fock.su11_generators(n_max)[1],
    lambda n_max: fock.su11_generators(n_max)[2],
    lambda n_max: fock.schwinger_su2(n_max)[0],
    lambda n_max: fock.schwinger_su2(n_max)[1],
    lambda n_max: fock.schwinger_su2(n_max)[2],
    lambda n_max: fock.phase_op(0.3 * n_max, 2, n_max),
], ids=["beamsplitter", "exchange", "annihilation", "creation", "number", "K+", "K-", "K3",
        "J+", "J-", "J3", "phase"])
def test_block_apply_matches_matrix(build, n_max):
    op = build(n_max)
    rng = np.random.default_rng(80 + n_max)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    got = op.apply(v)
    assert core.max_abs(got - op.matrix @ v) <= 1e-13
    with pytest.raises(ValueError):
        op.apply(v[:-1])


# ---------------------------------------------------------------------------
# phase operators
# ---------------------------------------------------------------------------

def test_phase_op_identity_and_period():
    assert np.array_equal(fock.phase_op(0.0, 1, CUT).matrix, np.eye(CUT.dim2))
    full_turn = fock.phase_op(2 * math.pi, 2, CUT).matrix
    assert core.max_abs(full_turn - np.eye(CUT.dim2)) <= 1e-12


def test_phase_op_equals_exponential_of_number(mode_pair):
    theta = 0.37
    a1, a2 = mode_pair(CUT)
    for mode, aj in ((1, a1), (2, a2)):
        direct = fock.phase_op(theta, mode, CUT).matrix
        via_exp = core.mat_exp(1j * theta * aj.conj().T @ aj)
        assert core.max_abs(direct - via_exp) <= 1e-12


def test_phase_op_rotates_coherent_parameter():
    theta, alpha = 1.1, 0.8 - 0.2j
    spectator = fock.coherent_state(0.3, 32)
    inp = core.tensor_state(fock.coherent_state(alpha, 32), spectator)
    # kept as its diagonal: the dense 1089-square operator alone would take 19 MB
    tracemalloc.start()
    try:
        out = fock.phase_op(theta, 1, 32).apply(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    want = core.tensor_state(
        fock.coherent_state(np.exp(1j * theta) * alpha, 32), spectator
    )
    assert core.max_abs(out - want) <= 1e-10


def test_phase_op_rejects_bad_mode():
    for mode in (3, 0, -1, 2**70):
        with pytest.raises(ValueError, match=f"^mode must be 1 or 2, got {mode}$"):
            fock.phase_op(0.1, mode, CUT)
    for mode in (1.5, math.nan, "1", None, [1], 1j):
        with pytest.raises(ValueError, match="^mode must be an integer, got "):
            fock.phase_op(0.1, mode, CUT)


@pytest.mark.parametrize("mode,want", [(True, 1), (1.0, 1), (np.int64(2), 2), (2.0, 2)])
def test_phase_op_reads_an_integral_mode_as_its_integer(mode, want):
    # the label read "phase-modeTrue" and "phase-mode1.0"
    op = fock.phase_op(0.1, mode, 8)
    assert op.label == f"phase-mode{want}"
    assert op.matrix.tobytes() == fock.phase_op(0.1, want, 8).matrix.tobytes()


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", [
    lambda theta: fock.exchange_protocol(theta, CUT),
    lambda theta: fock.phase_op(theta, 1, CUT),
], ids=["exchange_protocol", "phase_op"])
def test_non_finite_theta_is_rejected(build, theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        build(theta)


# ---------------------------------------------------------------------------
# unitarity of every unitary constructor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: fock.displacement(0.9 - 0.4j, CUT),
        lambda: fock.squeeze(0.45j, CUT),
        lambda: fock.beamsplitter(1.2 * np.exp(0.8j), CUT),
        lambda: fock.beamsplitter_blockwise(1.2 * np.exp(0.8j), CUT),
        lambda: fock.phase_op(2.3, 1, CUT),
        lambda: fock.phase_op(-0.7, 2, CUT),
        lambda: fock.exchange_protocol(0.9, CUT),
    ],
)
def test_unitary_constructors_are_unitary(build):
    op = build()
    assert core.is_unitary(op.matrix, 1e-12), op.label


# ---------------------------------------------------------------------------
# type guards
# ---------------------------------------------------------------------------

def test_cutoff_validation():
    with pytest.raises(ValueError):
        fock.FockCutoff(0)
    # the largest two-mode basis index, (n_max + 1)^2 - 1, is at most numpy's intp maximum
    largest = math.isqrt(np.iinfo(np.intp).max + 1) - 1
    assert fock.FockCutoff(largest).n_max == largest
    with pytest.raises(ValueError, match=f"cutoff {largest + 1} is too large"):
        fock.FockCutoff(largest + 1)
    assert fock.FockCutoff(4).dim == 5
    assert fock.FockCutoff(4).dim2 == 25


# every strength (t, z, w) and every angle (theta) argument, the others valid
STRENGTH_ARGUMENTS = {
    "beamsplitter": lambda t: fock.beamsplitter(t, 4),
    "BeamsplitterParam": fock.BeamsplitterParam,
    "displacement": lambda z: fock.displacement(z, 4),
    "squeeze": lambda w: fock.squeeze(w, 4),
    "coherent_state": lambda z: fock.coherent_state(z, 4),
    "coherent_truncation_weight": lambda z: fock.coherent_truncation_weight(z, 4),
    "clone-numeric": lambda t: fock.imperfect_clone_numeric([1, 0], t, 4),
    "clone-closed-form": lambda t: fock.imperfect_clone_closed_form([1, 0], t, 4),
}
ANGLE_ARGUMENTS = {
    "exchange_protocol": lambda theta: fock.exchange_protocol(theta, 4),
    "phase_op": lambda theta: fock.phase_op(theta, 1, 4),
}
NOT_NUMBERS = {"None": None, "list": [0.3], "bytes": b"1", "str": "0.3", "0-d-array": np.array(0.3)}
NOT_REALS = {**NOT_NUMBERS, "complex": 0.3j}


@pytest.mark.parametrize("bad", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("build", STRENGTH_ARGUMENTS.values(), ids=STRENGTH_ARGUMENTS.keys())
def test_strengths_that_are_not_numbers_are_rejected(build, bad):
    # None, [0.3] and b"1" raised TypeError from complex(); "0.3" was parsed by complex(),
    # except in squeeze, whose abs(w) came first
    with pytest.raises(ValueError, match=" must be a complex number, got ") as caught:
        build(bad)
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("bad", NOT_REALS.values(), ids=NOT_REALS.keys())
@pytest.mark.parametrize("build", ANGLE_ARGUMENTS.values(), ids=ANGLE_ARGUMENTS.keys())
def test_angles_that_are_not_real_numbers_are_rejected(build, bad):
    with pytest.raises(ValueError, match="^theta must be a real number, got ") as caught:
        build(bad)
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("build", [*STRENGTH_ARGUMENTS.values(), *ANGLE_ARGUMENTS.values()],
                         ids=[*STRENGTH_ARGUMENTS, *ANGLE_ARGUMENTS])
def test_scalars_beyond_float_range_are_rejected(build):
    # complex() and float() raised OverflowError
    for big in (10**400, 10**5000):  # the repr of 10**5000 is beyond Python's digit limit
        with pytest.raises(ValueError, match="must be a (complex|real) number within float range$"):
            build(big)


@pytest.mark.parametrize("build", [*STRENGTH_ARGUMENTS.values(), *ANGLE_ARGUMENTS.values()],
                         ids=[*STRENGTH_ARGUMENTS, *ANGLE_ARGUMENTS])
def test_non_finite_scalars_are_rejected_by_one_rule(build):
    # each builder checked finiteness on its own, with its own message or none; displacement
    # and squeeze said "exponential of a non-finite generator"
    angle = build in ANGLE_ARGUMENTS.values()
    for bad in (math.inf, -math.inf, math.nan, *(() if angle else [complex(0, math.nan)])):
        value = repr(float(bad) if angle else complex(bad))
        what = "theta" if angle else "(beamsplitter|displacement|squeeze|coherent) parameter"
        with pytest.raises(ValueError, match=f"^{what} must be finite, got {re.escape(value)}$"):
            build(bad)


HALVES = [np.float64(0.5), np.float32(0.5), fractions.Fraction(1, 2)]


@pytest.mark.filterwarnings("ignore::quswap.fock.TruncationWarning")
@pytest.mark.parametrize("build,halves", [
    *[(build, [*HALVES, 0.5 + 0j, np.complex128(0.5)]) for build in STRENGTH_ARGUMENTS.values()],
    *[(build, HALVES) for build in ANGLE_ARGUMENTS.values()],
], ids=[*STRENGTH_ARGUMENTS, *ANGLE_ARGUMENTS])
def test_numbers_of_every_numeric_type_give_the_bytes_of_their_value(build, halves):
    def result(x) -> bytes:
        r = build(x)
        return np.asarray(r.matrix if hasattr(r, "matrix") else getattr(r, "t", r)).tobytes()

    assert [result(x) for x in halves] == [result(0.5)] * len(halves)
    assert result(np.int64(2)) == result(2)


def test_beamsplitter_param():
    p = fock.BeamsplitterParam(0.5 * np.exp(1j * 0.25))
    assert p.modulus == pytest.approx(0.5)
    assert p.phase == pytest.approx(0.25)
    assert fock.BeamsplitterParam(-2.0).phase == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        fock.BeamsplitterParam(complex("inf"))


def test_mode_operator_validates_shape():
    with pytest.raises(ValueError):
        fock.ModeOperator(fock.FockCutoff(3), np.eye(5), "bad")
    # an int cutoff is accepted and checked, as by every other Fock entry point
    with pytest.raises(ValueError, match="fits neither one nor two modes at n_max=8"):
        fock.ModeOperator(8, np.eye(10), "bad")
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        fock.ModeOperator(0, np.eye(1), "bad")
    assert fock.ModeOperator(8, np.eye(81), "ok").cutoff == fock.FockCutoff(8)
