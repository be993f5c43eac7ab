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
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _igam
from .core import TruncationWarning, _integer, _number, _Operator, _size, _vector

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
        object.__setattr__(self, "n_max", _size(self.n_max, "cutoff", 1, "the two-mode "
                                                "dimension (n_max + 1)^2", extra=1))

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def dim2(self) -> int:
        return (self.n_max + 1) ** 2


def _cutoff(c) -> FockCutoff:
    return c if isinstance(c, FockCutoff) else FockCutoff(c)


class ModeOperator(_Operator):
    """A labeled operator on the truncated one- or two-mode space, in the ``core._Operator``
    store: a matrix given here is one block; the ladder operators, the su(1,1) and su(2)
    generators and the phase rotations one entry per row; the beamsplitter and the exchange
    one block per total photon number, and the squeeze one block per parity."""

    def __init__(self, cutoff, matrix, label: str) -> None:
        cutoff = _cutoff(cutoff)
        m = np.asarray(matrix, dtype=complex)
        if m.shape not in ((cutoff.dim, cutoff.dim), (cutoff.dim2, cutoff.dim2)):
            raise ValueError(
                f"operator shape {m.shape} fits neither one nor two modes "
                f"at n_max={cutoff.n_max}"
            )
        every = np.arange(len(m))
        super().__init__([(every, every, m)], label, cutoff=cutoff)


@dataclass(frozen=True)
class BeamsplitterParam:
    """Complex beamsplitter strength t = |t| e^(i theta); |t| is in radians."""

    t: complex

    def __post_init__(self) -> None:
        t = _number(self.t, "beamsplitter parameter")
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
    return t if isinstance(t, BeamsplitterParam) else BeamsplitterParam(t)


def _band(c: FockCutoff, k: int, values, label: str) -> ModeOperator:
    """``values[i]`` in row i, column i + k, as one entry per row; a row whose column leaves
    the basis keeps its value, which must be 0, at a clipped column, so rows stay a partition."""
    rows = np.arange(len(values))
    group = (rows, np.clip(rows + k, 0, len(rows) - 1), np.asarray(values, dtype=complex))
    return ModeOperator._from_groups([group], label, cutoff=c)


def annihilation(cutoff) -> ModeOperator:
    """a|n> = sqrt(n)|n-1>; superdiagonal sqrt(1..n_max)."""
    c = _cutoff(cutoff)
    return _band(c, 1, np.append(np.sqrt(np.arange(1, c.dim)), 0.0), "a")


def creation(cutoff) -> ModeOperator:
    """a^dag|n> = sqrt(n+1)|n+1>, truncated so a^dag|n_max> = 0.

    The exact transpose of ``annihilation``; not unitary, and not a
    substitute for the qudit shift gate.
    """
    c = _cutoff(cutoff)
    return _band(c, -1, np.sqrt(np.arange(c.dim)), "adag")


def number(cutoff) -> ModeOperator:
    """N = a^dag a = diag(0, 1, ..., n_max), exactly."""
    c = _cutoff(cutoff)
    return _band(c, 0, np.arange(c.dim), "n")


def coherent_truncation_weight(z: complex, cutoff) -> float:
    """Probability weight of |z> above the cutoff: 1 - sum_{n<=n_max} e^-|z|^2 |z|^2n / n!.

    Computed as a Poisson tail, the regularized lower incomplete gamma
    function P(n_max + 1, |z|^2), so that tiny weights are not lost to
    cancellation; ``_igam`` ports the cephes ``igam`` for it, bit for bit.
    Raises ValueError when z is not finite or |z|^2 overflows a float.
    """
    c = _cutoff(cutoff)
    z = _number(z, "coherent parameter")
    if not cmath.isfinite(z):
        raise ValueError(f"coherent parameter must be finite, got {z}")
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
    z = _number(z, "coherent parameter")
    weight = coherent_truncation_weight(z, c)  # rejects a non-finite z or an overflowing |z|^2
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
    and is exponentiated through the spectrum of R, which does not depend
    on z and is kept per cutoff (``_rotations``).
    """
    c = _cutoff(cutoff)
    z = _number(z, "displacement parameter")
    blocks = _rotations("displacement", [0], c, abs(z), cmath.phase(z))
    return ModeOperator._from_groups(blocks, "displacement", cutoff=c)


def su11_generators(cutoff) -> tuple[ModeOperator, ModeOperator, ModeOperator]:
    """Single-mode su(1,1) triple K+ = (a^dag)^2/2, K- = a^2/2, K3 = (a^dag a + 1/2)/2.

    Each keeps one entry per row, the bits of these products of the truncated ladder matrices;
    [K3, K+-] = +-K+- and [K+, K-] = -2 K3 hold exactly on the interior levels n <= n_max - 2.
    """
    c = _cutoff(cutoff)
    root = np.sqrt(np.arange(c.dim))
    pair = root[1:-1] * root[2:] / 2  # sqrt(n + 1) sqrt(n + 2) / 2 for n = 0 .. n_max - 2
    return (_band(c, -2, np.append(np.zeros(2), pair), "K+"),
            _band(c, 2, np.append(pair, np.zeros(2)), "K-"),
            _band(c, 0, (root * root + 0.5) / 2, "K3"))


def squeeze(w: complex, cutoff) -> ModeOperator:
    """Squeeze operator S(w) = exp(w K+ - conj(w) K-).

    Acting on the vacuum it populates even levels only. Warns when |w| > 1,
    where the truncated matrix no longer approximates the untruncated one
    well. The generator couples n to n + 2 only, so S(w) is kept as two
    blocks, the even and the odd levels. On the chain of levels n = 2k + r
    it equals -i|w| P R P* with R real tridiagonal, off-diagonal
    sqrt((n + 1)(n + 2))/2, and P = diag((i w/|w|)^k), and is exponentiated
    through the spectrum of R, which does not depend on w and is kept per
    parity and cutoff (``_rotations``).
    """
    c = _cutoff(cutoff)
    w = _number(w, "squeeze parameter")
    if abs(w) > 1:
        warnings.warn(
            f"squeeze parameter |w|={abs(w):.3f} > 1 is poorly represented "
            f"at finite cutoff",
            TruncationWarning,
            stacklevel=2,
        )
    blocks = _rotations("squeeze", (0, 1), c, abs(w), cmath.phase(w))
    return ModeOperator._from_groups(blocks, "squeeze", cutoff=c)


def schwinger_su2(cutoff) -> tuple[ModeOperator, ModeOperator, ModeOperator]:
    """Two-mode su(2) triple J+ = a1^dag a2, J- = a2^dag a1, J3 = (N1 - N2)/2.

    Each keeps one entry per row, with the bits of the Kronecker forms J+ = a^dag (x) a
    and J- = a (x) a^dag, n_max columns left and right of the diagonal; J3 is exact. The
    su(2) relations hold exactly on the subspace of total photon number <= n_max.
    """
    c = _cutoff(cutoff)
    n1, n2 = np.divmod(np.arange(c.dim2), c.dim)
    return (_band(c, -c.n_max, np.where(n2 < c.n_max, np.sqrt(n1) * np.sqrt(n2 + 1), 0.0), "J+"),
            _band(c, c.n_max, np.where(n1 < c.n_max, np.sqrt(n1 + 1) * np.sqrt(n2), 0.0), "J-"),
            _band(c, 0, (n1 - n2) / 2, "J3"))


# the 244 beamsplitter blocks and the 12 displacement and squeeze chains of n_max 64, 32, 16 and 8
_CHAIN_SPECTRA = 256


@functools.lru_cache(maxsize=_CHAIN_SPECTRA)
def _chain_spectrum(chain: str, n: int, n_max: int) -> tuple[np.ndarray, ...]:
    """``(idx, steps, w, v)`` of one chain of levels: their indices, their steps along the
    chain (the powers in P) and the eigenpairs R = v diag(w) v^T of its real tridiagonal
    generator R with zero diagonal. The chain is block n of the ``beamsplitter``, the
    levels of parity n for the ``squeeze``, or every level for the ``displacement``
    (n = 0). None of this depends on the strength, so each chain is computed once per
    process; the arrays are read-only, so that no caller can change what later calls read.
    """
    if chain == "beamsplitter":
        steps = np.arange(max(0, n - n_max), min(n, n_max) + 1)
        idx = steps * (n_max + 1) + (n - steps)
        off = np.sqrt((steps[:-1] + 1) * (n - steps[:-1]))
    elif chain == "displacement":
        idx = steps = np.arange(n_max + 1)
        off = np.sqrt(idx[1:])
    else:
        idx = np.arange(n, n_max + 1, 2)
        steps = np.arange(len(idx))
        off = np.sqrt((idx[:-1] + 1) * (idx[:-1] + 2)) / 2
    # eigh reads the lower triangle only
    w, v = np.linalg.eigh(np.diag(off, -1))
    for a in (idx, steps, w, v):
        a.flags.writeable = False
    return idx, steps, w, v


def _cores(chain: str, ns, c: FockCutoff, modulus: float) -> tuple[np.ndarray, list[tuple]]:
    """The part of exp(-i modulus P R P*) that does not depend on the phase, for the chains
    ``ns`` of ``_chain_spectrum``: their ``steps`` end to end, and for each chain
    ``(idx, part, v e^(-i modulus w) v^T)``, ``part`` being the slice of those steps that is
    its own.

    The eigenphases of every chain are computed in one numpy call; each core is multiplied
    out on its own, since a stack of blocks would move some bits. A modulus whose product
    with a spectrum is not finite raises ValueError.
    """
    spectra = [_chain_spectrum(chain, n, c.n_max) for n in ns]
    if not spectra:  # a zero clone input occupies no chain
        return np.arange(0), []
    # each w is symmetric about 0, so w[-1] is its largest modulus
    if not math.isfinite(modulus * max(float(w[-1]) for _, _, w, _ in spectra)):
        raise ValueError(f"exponential of a non-finite generator (modulus {modulus})")
    eigenphases = np.exp(-1j * modulus * np.concatenate([w for _, _, w, _ in spectra]))
    cores, end = [], 0
    for idx, _, w, v in spectra:
        part = slice(end, end + len(w))
        end = part.stop
        cores.append((idx, part, (v * eigenphases[part]) @ v.T))
    return np.concatenate([steps for _, steps, _, _ in spectra]), cores


def _mode_phases(theta: float, c: FockCutoff) -> np.ndarray:
    """The one-mode diagonal e^(i theta n), n = 0..n_max."""
    return np.exp(1j * theta * np.arange(c.dim))


def _phases(steps: np.ndarray, phase: float, c: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``P[:, None]`` and columns ``conj(P)`` of P = diag(e^(i(phase + pi/2) k)) at the
    chains' ``steps`` of ``_cores``, read out in one call, so that a chain's ``part`` slices
    its own: the phase step of every Fock rotation, ``left[part] * core * right[part]``."""
    p = _mode_phases(phase + math.pi / 2, c)[steps]
    return p[:, None], p.conj()


def _rotations(chain: str, ns, c: FockCutoff, modulus: float, phase: float) -> list[tuple]:
    """The groups (idx, idx, exp(-i modulus P R P*)) of the chains ``ns`` of ``_chain_spectrum``,
    each as P v e^(-i modulus w) v^T P*: ``_cores``, then the phase step of ``_phases``."""
    steps, cores = _cores(chain, ns, c, modulus)
    left, right = _phases(steps, phase, c)
    return [(idx, idx, left[part] * core * right[part]) for idx, part, core in cores]


# The modulus |(pi/2) e^(i theta)| of the half-wave strength takes three values, pi/2 and
# pi/2 -+ 2.2e-16, so one cutoff has at most three entries: nine serve three cutoffs, as a
# session of short calls at n_max 6-8 uses. An entry holds 16 bytes per entry of its blocks:
# 7.8 KB at n_max 8, 384 KB at n_max 32 and 2.9 MB at n_max 64.
_EXCHANGE_CORES = 9


@functools.lru_cache(maxsize=_EXCHANGE_CORES)
def _exchange_cores(n_max: int, modulus: float) -> tuple:
    """``(steps, idx, cores)``: the ``_cores`` of every beamsplitter block at ``modulus`` and
    the blocks' indices end to end. Every array is read-only, so no caller can change what
    later calls read."""
    steps, cores = _cores("beamsplitter", range(2 * n_max + 1), FockCutoff(n_max), modulus)
    idx = np.concatenate([i for i, _, _ in cores])
    for a in (steps, idx, *(core for _, _, core in cores)):
        a.setflags(write=False)
    return steps, idx, tuple(cores)


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
    through the spectrum of its real tridiagonal generator, which does not
    depend on t and is kept per block and cutoff; one ``_rotations`` pass
    turns all 2 n_max + 1 blocks. Blocks
    with n > n_max keep only occupations within the cutoff, exactly as the
    truncated two-mode generator does: on blocks of total number <= n_max
    the operator agrees with the untruncated one, higher blocks are
    distorted but still unitary.
    """
    c = _cutoff(cutoff)
    p = _param(t)
    blocks = _rotations("beamsplitter", range(2 * c.n_max + 1), c, p.modulus, p.phase)
    return ModeOperator._from_groups(blocks, "beamsplitter", cutoff=c)


def beamsplitter_blockwise(t, cutoff) -> ModeOperator:
    """Alias of ``beamsplitter``, which is itself assembled block by block."""
    return beamsplitter(t, cutoff)


def phase_op(theta: float, mode: int, cutoff) -> ModeOperator:
    """Two-mode phase rotation V_mode(theta) = exp(i theta N_mode).

    Diagonal with entries e^(i theta n) on the selected mode, kept as one entry per
    row, on mode 1 or 2; sends a coherent parameter z to e^(i theta) z.
    """
    c = _cutoff(cutoff)
    theta = _number(theta, "theta", real=True)
    if not math.isfinite(theta * c.n_max):  # theta n_max is the largest phase
        raise ValueError(f"theta must be finite, as must theta * n_max; got {theta!r}")
    mode = _integer(mode, "mode")
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    phases, ones = _mode_phases(theta, c), np.ones(c.dim)
    diagonal = phases[:, None] * ones if mode == 1 else ones[:, None] * phases
    return _band(c, 0, diagonal.ravel(), f"phase-mode{mode}")


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
    their truncation weight. The blocks of U_J(t) are the beamsplitter's. Their
    cores v e^(-i|t|w) v^T depend on |t| alone, which takes three values here, pi/2
    and pi/2 -+ 2.2e-16, so they are read from a per-process memo keyed by the cutoff
    and |t| (``_exchange_cores``); each call phases them with ``_phases``, as every
    Fock rotation is phased, and multiplies each block by its rows of V1(-theta) (x)
    V2(theta + pi), the outer product of the two one-mode phase vectors.
    """
    c = _cutoff(cutoff)
    theta = _number(theta, "theta", real=True)
    if not math.isfinite(theta):  # before fmod, which raises a bare "math domain error"
        raise ValueError(f"theta must be finite, got {theta!r}")
    theta = math.fmod(theta, math.tau)
    t = (math.pi / 2) * complex(math.cos(theta), math.sin(theta))
    p = _param(t)
    steps, idx, cores = _exchange_cores(c.n_max, p.modulus)
    left, right = _phases(steps, p.phase, c)
    # the two-mode diagonal of V1(-theta) V2(theta + pi), at the blocks' indices end to end
    rows = (_mode_phases(-theta, c)[:, None] * _mode_phases(theta + math.pi, c)).ravel()
    rows = rows[idx][:, None]
    blocks = [(i, i, rows[part] * (left[part] * core * right[part])) for i, part, core in cores]
    return ModeOperator._from_groups(blocks, "exchange", cutoff=c)


def _clone_input(x, c: FockCutoff, what: str) -> tuple[np.ndarray, list[int]]:
    """``x`` as a complex vector of at most n_max + 1 levels, or a ``(levels, m)`` stack of
    them as columns, and the levels on which some column is nonzero, rising.

    Raises ValueError for any other shape, and for an entry that is not finite.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or len(x) > c.dim:
        raise ValueError(f"{what} must be a vector of length <= {c.dim}, "
                         f"or a stack of them as columns")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x, np.flatnonzero(x if x.ndim == 1 else x.any(axis=1)).tolist()


def imperfect_clone_numeric(x, t, cutoff) -> np.ndarray:
    """Split a one-mode state across two modes with a phase-corrected beamsplitter.

    Applies [1 (x) V2(theta + pi)] . U_J(t) to x (x) |0>, which maps the
    coherent state |z> (x) |0> to |cos|t| z> (x) |sin|t| z>. ``x`` is one
    state of at most n_max + 1 levels, giving a ``(dim2,)`` vector, or a
    ``(levels, m)`` stack of them as columns, giving a ``(dim2, m)`` stack
    whose column j equals, bit for bit, the call on column j alone. Warns when
    a column carries more than 1e-8 weight above n_max/2, where the headroom
    for the split output becomes questionable; the warning reports the largest
    such weight. An entry that is not finite raises ValueError. The core of each
    occupied block of U_J(t) comes from ``_cores`` once per call, as in
    ``beamsplitter``, and ``_phases`` phases only the column that x (x) |0> reads.
    """
    c = _cutoff(cutoff)
    p = _param(t)
    x, levels = _clone_input(x, c, "input state")
    high = float(np.sum(np.abs(x[c.n_max // 2 + 1 :]) ** 2, axis=0).max(initial=0.0))
    if high > 1e-8:
        warnings.warn(
            f"clone input carries weight {high:.3e} above n_max/2="
            f"{c.n_max // 2}; output may be truncation-limited",
            TruncationWarning,
            stacklevel=2,
        )
    # x (x) |0> has its level-n amplitude at n1 = n, the last column of block n: the one read
    modulus, phase = p.modulus, p.phase
    steps, cores = _cores("beamsplitter", levels, c, modulus)
    left, right = _phases(steps, phase, c)
    # block n <= n_max holds n1 = 0..n, so its n2 = n..0 are the last n + 1 levels of V2 reversed
    v2 = _mode_phases(phase + math.pi, c)[::-1].copy()
    down = (slice(None),) + (None,) * (x.ndim - 1)  # a block's factors, broadcast over columns
    out = np.zeros((c.dim2, *x.shape[1:]), dtype=complex)
    for n, (idx, part, core) in zip(levels, cores):
        column = left[part, 0] * core[:, -1] * right[part.stop - 1]
        out[idx] = x[n] * v2[c.n_max - n:][down] * column[down]
    return out


def imperfect_clone_closed_form(x_coeffs, t, cutoff) -> np.ndarray:
    """Closed-form amplitudes of the two-mode split of a one-mode state.

    For input sum_n x_n |n>, the output amplitude on |n> (x) |m> is

        sqrt((n+m)! / (n! m!)) cos^n(|t|) sin^m(|t|) x_{n+m}

    for n + m <= n_max. The binomial identity
    sum_m C(n+m, m) cos^2n sin^2m = 1 per level keeps the output normalized
    whenever the input is. ``x_coeffs`` is one vector or a ``(levels, m)``
    stack of them as columns, as for ``imperfect_clone_numeric``, and each
    coefficient is computed once per call; column j of the stacked result
    equals, bit for bit, the call on column j alone. Serves as the
    independent oracle for ``imperfect_clone_numeric``.
    """
    c = _cutoff(cutoff)
    p = _param(t)
    x, levels = _clone_input(x_coeffs, c, "coefficients")
    cos_t, sin_t = math.cos(p.modulus), math.sin(p.modulus)
    out = np.zeros((c.dim2, *x.shape[1:]), dtype=complex)
    for total in levels:
        for n in range(total + 1):
            m = total - n
            coeff = math.sqrt(math.comb(total, n)) * cos_t**n * sin_t**m
            out[n * c.dim + m] = coeff * x[total]
    return out


def level_projector(cutoff, max_level: int) -> np.ndarray:
    """Single-mode diagonal projector onto levels n <= max_level, an integer."""
    c = _cutoff(cutoff)
    max_level = _integer(max_level, "level")
    return np.diag((np.arange(c.dim) <= max_level).astype(complex))


def total_number_projector(cutoff, max_total: int) -> np.ndarray:
    """Two-mode diagonal projector onto total photon number n1 + n2 <= max_total, an integer."""
    c = _cutoff(cutoff)
    max_total = _integer(max_total, "total photon number")
    totals = np.add.outer(np.arange(c.dim), np.arange(c.dim)).ravel()
    return np.diag((totals <= max_total).astype(complex))


def mode2_marginal(state, cutoff) -> np.ndarray:
    """Reduced density matrix of the second mode of a two-mode pure state, a vector of
    length (n_max + 1)^2; any other shape raises ValueError."""
    c = _cutoff(cutoff)
    v = _vector(state, "two-mode")
    if len(v) != c.dim2:
        raise ValueError(f"two-mode state must have length {c.dim2}, got {len(v)}")
    v = v.reshape(c.dim, c.dim)
    return v.T @ v.conj()
