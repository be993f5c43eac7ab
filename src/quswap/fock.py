"""Truncated two-mode Fock-space simulator.

A single oscillator mode is truncated to the number basis
|0>, ..., |n_max>; two modes live on the (n_max+1)^2 Kronecker product
with |n1> (x) |n2> at index n1*(n_max+1) + n2. The annihilation operator
keeps its exact matrix elements sqrt(n) and the creation operator is its
exact transpose, so a^dag |n_max> = 0 under truncation. Consequences of
the cutoff (commutators failing on the boundary row, coherent states
losing tail weight) are quantified rather than hidden: identities are
checked on documented interior subspaces and truncated coherent states
are renormalized with the removed weight reported.

The naive label shift |n> -> |n+1> on this basis is not unitary (its
matrix has a zero column), so there is no direct analog of the qudit
controlled-shift construction here. Instead the exchange of two modes is
realized with quantum-optics elements: the number-conserving beamsplitter

    U_J(t) = exp(t a1^dag a2 - conj(t) a2^dag a1),  t = |t| e^(i theta),

which at |t| = pi/2 maps |z1> (x) |z2> to |e^(i theta) z2> (x)
|e^(-i(theta+pi)) z1>, followed by the phase rotations V1(-theta) and
V2(theta+pi) that strip the leftover phases. The resulting fixed unitary
exchanges arbitrary coherent-state pairs, hence by linearity arbitrary
states. A partially open beamsplitter instead splits |z> (x) |0> into
|cos|t| z> (x) |sin|t| z> ("imperfect clone"); its action on a general
first-mode state has the closed form implemented in
``imperfect_clone_closed_form``, which serves as an independent oracle
for the matrix route.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _igam
from .core import TruncationWarning, _integer, tensor_op

__all__ = [
    "BeamsplitterParam",
    "FockCutoff",
    "ModeOperator",
    "TruncationWarning",
    "annihilation",
    "beamsplitter",
    "beamsplitter_blockwise",
    "coherent_state",
    "coherent_truncation_weight",
    "creation",
    "displacement",
    "exchange_protocol",
    "imperfect_clone_closed_form",
    "imperfect_clone_numeric",
    "level_projector",
    "mode2_marginal",
    "number",
    "phase_op",
    "schwinger_su2",
    "squeeze",
    "su11_generators",
    "total_number_projector",
]


@dataclass(frozen=True)
class FockCutoff:
    """Truncation level: single-mode basis |0>..|n_max>, two-mode dim (n_max+1)^2."""

    n_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", _integer(self.n_max, "cutoff"))
        if self.n_max < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def dim2(self) -> int:
        return (self.n_max + 1) ** 2


def _cutoff(c) -> FockCutoff:
    return c if isinstance(c, FockCutoff) else FockCutoff(c)


class ModeOperator:
    """A labeled operator on the truncated one- or two-mode space.

    Kept as (indices, block) pairs whose index arrays partition the basis.
    A dense matrix becomes one block over every index; the two-mode
    operators that conserve total photon number keep one block per total,
    and the squeeze one block per parity (see ``_from_blocks``). ``apply``
    multiplies a state block by block, and ``matrix`` is assembled from the
    blocks on each read.
    """

    def __init__(self, cutoff: FockCutoff, matrix, label: str) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.shape not in ((cutoff.dim, cutoff.dim), (cutoff.dim2, cutoff.dim2)):
            raise ValueError(
                f"operator shape {m.shape} fits neither one nor two modes "
                f"at n_max={cutoff.n_max}"
            )
        self.cutoff = cutoff
        self.label = label
        self._blocks = [(np.arange(len(m)), m)]

    @classmethod
    def _from_blocks(cls, cutoff: FockCutoff, blocks, label: str) -> ModeOperator:
        """Operator from (indices, block) pairs whose indices partition the basis."""
        op = cls.__new__(cls)
        op.cutoff = cutoff
        op.label = label
        op._blocks = blocks
        return op

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for idx, block in self._blocks:
            m[np.ix_(idx, idx)] = block
        return m

    @property
    def dim(self) -> int:
        return sum(len(idx) for idx, _ in self._blocks)

    def apply(self, state) -> np.ndarray:
        state = np.asarray(state, dtype=complex)
        if state.shape[:1] != (self.dim,):
            raise ValueError(f"state of shape {state.shape} does not fit dimension {self.dim}")
        out = np.empty_like(state)
        for idx, block in self._blocks:
            out[idx] = block @ state[idx]
        return out


@dataclass(frozen=True)
class BeamsplitterParam:
    """Complex beamsplitter strength t = |t| e^(i theta); |t| is in radians."""

    t: complex

    def __post_init__(self) -> None:
        t = complex(self.t)
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise ValueError("beamsplitter parameter must be finite")
        object.__setattr__(self, "t", t)

    @property
    def modulus(self) -> float:
        return abs(self.t)

    @property
    def phase(self) -> float:
        return float(np.angle(self.t)) if self.t != 0 else 0.0


def _param(t) -> BeamsplitterParam:
    return t if isinstance(t, BeamsplitterParam) else BeamsplitterParam(complex(t))


def annihilation(cutoff) -> ModeOperator:
    """a|n> = sqrt(n)|n-1>; superdiagonal sqrt(1..n_max)."""
    c = _cutoff(cutoff)
    return ModeOperator(c, np.diag(np.sqrt(np.arange(1, c.dim)), k=1), "a")


def creation(cutoff) -> ModeOperator:
    """a^dag|n> = sqrt(n+1)|n+1>, truncated so a^dag|n_max> = 0.

    The exact transpose of ``annihilation``; not unitary, and not a
    substitute for the qudit shift gate.
    """
    c = _cutoff(cutoff)
    return ModeOperator(c, np.diag(np.sqrt(np.arange(1, c.dim)), k=-1), "adag")


def number(cutoff) -> ModeOperator:
    """N = a^dag a = diag(0, 1, ..., n_max), exactly."""
    c = _cutoff(cutoff)
    return ModeOperator(c, np.diag(np.arange(c.dim)).astype(complex), "n")


def coherent_truncation_weight(z: complex, cutoff) -> float:
    """Probability weight of |z> above the cutoff: 1 - sum_{n<=n_max} e^-|z|^2 |z|^2n / n!.

    Computed as a Poisson tail, the regularized lower incomplete gamma
    function P(n_max + 1, |z|^2), so that tiny weights are not lost to
    cancellation; ``_igam`` ports the cephes ``igam`` for it, bit for bit.
    Raises ValueError when |z|^2 overflows a float.
    """
    c = _cutoff(cutoff)
    try:
        mean = abs(z) ** 2
    except OverflowError:
        raise ValueError(f"|z|^2 overflows a float for z={z}") from None
    return _igam.igam(c.n_max + 1, mean)


def coherent_state(z: complex, cutoff) -> np.ndarray:
    """Truncated coherent state with amplitudes e^(-|z|^2/2) z^n / sqrt(n!).

    Renormalized to unit norm after truncation. Warns (TruncationWarning)
    when |z|^2 exceeds n_max/4 or when the discarded tail weight exceeds
    1e-8; use ``coherent_truncation_weight`` to inspect the tail. A z that
    is not finite, or whose |z|^2 overflows a float, raises ValueError.
    """
    c = _cutoff(cutoff)
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"coherent parameter must be finite, got {z}")
    weight = coherent_truncation_weight(z, c)
    if abs(z) ** 2 > c.n_max / 4 or weight > 1e-8:
        warnings.warn(
            f"coherent state z={z} at n_max={c.n_max} loses weight "
            f"{weight:.3e} to truncation",
            TruncationWarning,
            stacklevel=2,
        )
    amp = np.zeros(c.dim, dtype=complex)
    amp[0] = math.exp(-abs(z) ** 2 / 2)
    for n in range(1, c.dim):
        amp[n] = amp[n - 1] * z / math.sqrt(n)
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        # entire state above the cutoff; the vacuum coefficient underflowed
        raise ValueError(f"coherent amplitude underflow for z={z}")
    return amp / norm


def displacement(z: complex, cutoff) -> ModeOperator:
    """D(z) = exp(z a^dag - conj(z) a); D(z)|0> is the coherent state |z>.

    The truncated generator is exactly antihermitian, so D(z) is unitary on
    the whole truncated space. It equals -i|z| P R P* with R the real
    tridiagonal matrix of off-diagonal sqrt(n) and P = diag((i z/|z|)^n),
    and is exponentiated through the spectrum of R (``_spectral_exp``).
    """
    c = _cutoff(cutoff)
    z = complex(z)
    levels = np.arange(c.dim)
    block = _spectral_exp(np.sqrt(levels[1:]), abs(z), cmath.phase(z), levels)
    return ModeOperator(c, block, "displacement")


def su11_generators(cutoff) -> tuple[ModeOperator, ModeOperator, ModeOperator]:
    """Single-mode su(1,1) triple K+ = (a^dag)^2/2, K- = a^2/2, K3 = (a^dag a + 1/2)/2.

    The relations [K3, K+-] = +-K+- and [K+, K-] = -2 K3 hold exactly on
    the interior levels n <= n_max - 2.
    """
    c = _cutoff(cutoff)
    a = annihilation(c).matrix
    adag = a.conj().T
    kp = adag @ adag / 2
    km = a @ a / 2
    k3 = (adag @ a + np.eye(c.dim) / 2) / 2
    return (
        ModeOperator(c, kp, "K+"),
        ModeOperator(c, km, "K-"),
        ModeOperator(c, k3, "K3"),
    )


def squeeze(w: complex, cutoff) -> ModeOperator:
    """Squeeze operator S(w) = exp(w K+ - conj(w) K-).

    Acting on the vacuum it populates even levels only. Warns when |w| > 1,
    where the truncated matrix no longer approximates the untruncated one
    well. The generator couples n to n + 2 only, so S(w) is kept as two
    blocks, the even and the odd levels. On the chain of levels n = 2k + r
    it equals -i|w| P R P* with R real tridiagonal, off-diagonal
    sqrt((n + 1)(n + 2))/2, and P = diag((i w/|w|)^k), and is exponentiated
    through the spectrum of R (``_spectral_exp``).
    """
    c = _cutoff(cutoff)
    if abs(w) > 1:
        warnings.warn(
            f"squeeze parameter |w|={abs(w):.3f} > 1 is poorly represented "
            f"at finite cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    w = complex(w)
    blocks = []
    for levels in (np.arange(0, c.dim, 2), np.arange(1, c.dim, 2)):
        off = np.sqrt((levels[:-1] + 1) * (levels[:-1] + 2)) / 2
        steps = np.arange(len(levels))
        blocks.append((levels, _spectral_exp(off, abs(w), cmath.phase(w), steps)))
    return ModeOperator._from_blocks(c, blocks, "squeeze")


def schwinger_su2(cutoff) -> tuple[ModeOperator, ModeOperator, ModeOperator]:
    """Two-mode su(2) triple J+ = a1^dag a2, J- = a2^dag a1, J3 = (N1 - N2)/2.

    With a1 = a (x) 1 and a2 = 1 (x) a the mixed-product identity gives the
    Kronecker forms J+ = a^dag (x) a, J- = a (x) a^dag and
    J3 = (N (x) 1 - 1 (x) N)/2, so J3 is exact. The su(2) relations hold
    exactly on the subspace of total photon number <= n_max.
    """
    c = _cutoff(cutoff)
    a, adag, n, eye = annihilation(c).matrix, creation(c).matrix, number(c).matrix, np.eye(c.dim)
    jp = tensor_op(adag, a)
    jm = tensor_op(a, adag)
    j3 = (tensor_op(n, eye) - tensor_op(eye, n)) / 2
    return (
        ModeOperator(c, jp, "J+"),
        ModeOperator(c, jm, "J-"),
        ModeOperator(c, j3, "J3"),
    )


def _spectral_exp(off: np.ndarray, modulus: float, phase: float,
                  steps: np.ndarray) -> np.ndarray:
    """exp(-i modulus P R P*) = P v e^(-i modulus w) v^T P*.

    R = v diag(w) v^T is the real symmetric tridiagonal matrix with zero
    diagonal and off-diagonal ``off``, and P = diag(e^(i(phase + pi/2) steps)).
    Every su(2), su(1,1) and displacement block here has this form. A
    modulus that is not finite raises ValueError.
    """
    if not math.isfinite(modulus):
        raise ValueError(f"exponential of a non-finite generator (modulus {modulus})")
    # eigh reads the lower triangle only
    w, v = np.linalg.eigh(np.diag(off, -1))
    phases = np.exp(1j * (phase + math.pi / 2) * steps)
    rotation = (v * np.exp(-1j * modulus * w)) @ v.T
    return phases[:, None] * rotation * phases.conj()


def _beamsplitter_block(n: int, c: FockCutoff,
                        p: BeamsplitterParam) -> tuple[np.ndarray, np.ndarray]:
    """Block of U_J(t) on total photon number n, as (indices, block).

    The block spans the first-mode occupations n1 that the cutoff keeps, in
    rising order. There the generator t a1^dag a2 - conj(t) a2^dag a1 equals
    -i|t| P R P* with P = diag(e^(i(theta + pi/2) n1)) and R the real
    tridiagonal matrix of a1^dag a2, off-diagonal sqrt((n1 + 1)(n - n1)).
    """
    n1 = np.arange(max(0, n - c.n_max), min(n, c.n_max) + 1)
    off = np.sqrt((n1[:-1] + 1) * (n - n1[:-1]))
    return n1 * c.dim + (n - n1), _spectral_exp(off, p.modulus, p.phase, n1)


def beamsplitter(t, cutoff) -> ModeOperator:
    """Two-mode beamsplitter U_J(t) = exp(t a1^dag a2 - conj(t) a2^dag a1).

    Conserves total photon number (exactly block-diagonal over it), keeps
    the two-mode vacuum invariant, and rotates the mode operators as

        U a1 U^-1 = cos|t| a1 - (t/|t|) sin|t| a2
        U a2 U^-1 = cos|t| a2 + (conj(t)/|t|) sin|t| a1.

    Kept as its blocks of fixed total photon number n: block n carries the
    spin-(n/2) representation of su(2), in which, with m = n1 - n/2, the
    raising element a1^dag a2 has matrix elements
    sqrt((j - m)(j + m + 1)) = sqrt((n1 + 1) n2), and is exponentiated
    through the spectrum of its real tridiagonal generator
    (``_beamsplitter_block``). Blocks with n > n_max keep only occupations
    within the cutoff, exactly as the truncated two-mode generator does: on
    blocks of total number <= n_max the operator agrees with the
    untruncated one, higher blocks are distorted but still unitary.
    """
    c = _cutoff(cutoff)
    p = _param(t)
    blocks = [_beamsplitter_block(n, c, p) for n in range(2 * c.n_max + 1)]
    return ModeOperator._from_blocks(c, blocks, "beamsplitter")


def beamsplitter_blockwise(t, cutoff) -> ModeOperator:
    """Alias of ``beamsplitter``, which is itself assembled block by block."""
    return beamsplitter(t, cutoff)


def _phase_diagonal(theta: float, mode: int, c: FockCutoff) -> np.ndarray:
    """Diagonal of V_mode(theta) = exp(i theta N_mode) on the two-mode space."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    phases = np.exp(1j * theta * np.arange(c.dim))
    ones = np.ones(c.dim)
    return (np.outer(phases, ones) if mode == 1 else np.outer(ones, phases)).ravel()


def phase_op(theta: float, mode: int, cutoff) -> ModeOperator:
    """Two-mode phase rotation V_mode(theta) = exp(i theta N_mode).

    Diagonal with entries e^(i theta n) on the selected mode; sends a
    coherent parameter z to e^(i theta) z.
    """
    c = _cutoff(cutoff)
    return ModeOperator(c, np.diag(_phase_diagonal(theta, mode, c)), f"phase-mode{mode}")


def exchange_protocol(theta: float, cutoff) -> ModeOperator:
    """Fixed two-mode unitary that swaps the modes, built from optics elements.

    E = [V1(-theta) (x) V2(theta + pi)] . U_J(t) with t = (pi/2) e^(i theta):
    the half-wave beamsplitter maps |z1> (x) |z2> to
    |e^(i theta) z2> (x) |e^(-i(theta+pi)) z1> and the phase rotations strip
    the leftover phases, giving |z2> (x) |z1> for every coherent pair -
    and hence, by linearity, swapping arbitrary two-mode states. E does not
    depend on the states being swapped; theta only selects which
    beamsplitter realizes it. theta is taken modulo 2 pi first (``math.fmod``
    is exact), so that the phases theta * n of V1 and V2 keep the precision
    that cancels the beamsplitter's however large theta is.

    At finite cutoff the swap is exact on blocks of total photon number
    <= n_max; inputs with weight above that leak infidelity of the order of
    their truncation weight.
    """
    c = _cutoff(cutoff)
    if not math.isfinite(theta):  # before fmod, which raises a bare "math domain error"
        raise ValueError(f"theta must be finite, got {theta!r}")
    theta = math.fmod(theta, math.tau)
    t = (math.pi / 2) * complex(math.cos(theta), math.sin(theta))
    phases = _phase_diagonal(-theta, 1, c) * _phase_diagonal(theta + math.pi, 2, c)
    blocks = [(idx, phases[idx, None] * block) for idx, block in beamsplitter(t, c)._blocks]
    return ModeOperator._from_blocks(c, blocks, "exchange")


def imperfect_clone_numeric(x, t, cutoff) -> np.ndarray:
    """Split a one-mode state across two modes with a phase-corrected beamsplitter.

    Applies [1 (x) V2(theta + pi)] . U_J(t) to x (x) |0>, which maps the
    coherent state |z> (x) |0> to |cos|t| z> (x) |sin|t| z>. Warns when x
    carries more than 1e-8 weight above n_max/2, where the headroom for the
    split output becomes questionable; the warning reports that weight.
    """
    c = _cutoff(cutoff)
    p = _param(t)
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1 or len(x) > c.dim:
        raise ValueError(f"input state must be a vector of length <= {c.dim}")
    high = float(np.sum(np.abs(x[c.n_max // 2 + 1 :]) ** 2))
    if high > 1e-8:
        warnings.warn(
            f"clone input carries weight {high:.3e} above n_max/2="
            f"{c.n_max // 2}; output may be truncation-limited",
            TruncationWarning,
            stacklevel=2,
        )
    # x (x) |0> has its level-n amplitude on the last basis vector
    # (n1 = n) of block n, so only that column of each occupied block is used
    v2 = _phase_diagonal(p.phase + math.pi, 2, c)
    out = np.zeros(c.dim2, dtype=complex)
    for n in np.flatnonzero(x):
        idx, block = _beamsplitter_block(n, c, p)
        out[idx] = x[n] * v2[idx] * block[:, -1]
    return out


def imperfect_clone_closed_form(x_coeffs, t, cutoff) -> np.ndarray:
    """Closed-form amplitudes of the two-mode split of a one-mode state.

    For input sum_n x_n |n>, the output amplitude on |n> (x) |m> is

        sqrt((n+m)! / (n! m!)) cos^n(|t|) sin^m(|t|) x_{n+m}

    for n + m <= n_max. The binomial identity
    sum_m C(n+m, m) cos^2n sin^2m = 1 per level keeps the output normalized
    whenever the input is. Serves as the independent oracle for
    ``imperfect_clone_numeric``.
    """
    c = _cutoff(cutoff)
    p = _param(t)
    x = np.asarray(x_coeffs, dtype=complex)
    if x.ndim != 1 or len(x) > c.dim:
        raise ValueError(f"coefficients must be a vector of length <= {c.dim}")
    cos_t, sin_t = math.cos(p.modulus), math.sin(p.modulus)
    out = np.zeros(c.dim2, dtype=complex)
    for total in range(min(len(x), c.dim)):
        if x[total] == 0:
            continue
        for n in range(total + 1):
            m = total - n
            coeff = math.sqrt(math.comb(total, n)) * cos_t**n * sin_t**m
            out[n * c.dim + m] = coeff * x[total]
    return out


def level_projector(cutoff, max_level: int) -> np.ndarray:
    """Single-mode diagonal projector onto levels n <= max_level."""
    c = _cutoff(cutoff)
    return np.diag((np.arange(c.dim) <= max_level).astype(complex))


def total_number_projector(cutoff, max_total: int) -> np.ndarray:
    """Two-mode diagonal projector onto total photon number n1 + n2 <= max_total."""
    c = _cutoff(cutoff)
    totals = np.add.outer(np.arange(c.dim), np.arange(c.dim)).ravel()
    return np.diag((totals <= max_total).astype(complex))


def mode2_marginal(state, cutoff) -> np.ndarray:
    """Reduced density matrix of the second mode of a two-mode pure state."""
    c = _cutoff(cutoff)
    v = np.asarray(state, dtype=complex).reshape(c.dim, c.dim)
    return v.T @ v.conj()
