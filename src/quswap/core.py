"""Linear algebra shared by the qudit and Fock modules, and the operator store of both.

The functions take plain square ``complex128`` arrays and 1-d unit state vectors, and
are pure, so results are safe to share across threads. ``gates.QuditGate`` and
``fock.ModeOperator`` keep their operators in ``_Operator``, by structure.
"""

from __future__ import annotations

import cmath
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuditDim",
    "adjoint",
    "basis_state",
    "commutator",
    "fidelity",
    "is_unitary",
    "mat_exp",
    "matmul",
    "matpow",
    "max_abs",
    "mod_add",
    "tensor_op",
    "tensor_state",
]


class TruncationWarning(UserWarning):
    """Emitted when an input is too large for the requested cutoff.

    Public as ``fock.TruncationWarning``, which re-exports it.
    """


@dataclass(frozen=True)
class QuditDim:
    """Level count d >= 2 of a single qudit.

    Carries the primitive d-th root of unity zeta = exp(2*pi*i/d) that the
    clock gate is built from.
    """

    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _size(self.d, *_QUDIT_SIZE))

    @property
    def zeta(self) -> complex:
        return complex(np.exp(2j * np.pi / self.d))


class _Operator:
    """A labeled square operator kept as groups ``(rows, cols, values)`` whose rows
    partition the basis. A 2-d ``values`` is a dense block on rows x cols; a 1-d one
    holds one entry per row, ``values[i]`` in row ``rows[i]``, column ``cols[i]``.
    ``matrix`` is assembled on each read. ``size`` is the subclass's size attribute,
    ``d=`` or ``cutoff=``.
    """

    def __init__(self, groups: list, label: str, **size) -> None:
        vars(self).update(size)
        self.label, self._groups = label, groups
        self.dim = sum(len(rows) for rows, _, _ in groups)

    @classmethod
    def _from_groups(cls, groups: list, label: str, **size):
        """The operator kept as ``groups``, without the public constructor's checks."""
        op = cls.__new__(cls)
        _Operator.__init__(op, groups, label, **size)
        return op

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for rows, cols, values in self._groups:
            m[np.ix_(rows, cols) if values.ndim == 2 else (rows, cols)] = values
        return m

    def apply(self, state) -> np.ndarray:
        state = np.asarray(state, dtype=complex)
        if state.shape[:1] != (self.dim,):
            raise ValueError(f"state of shape {state.shape} does not fit dimension {self.dim}")
        out = np.zeros_like(state)
        for rows, cols, values in self._groups:
            if values.ndim == 2:
                out[rows] = values @ state[cols]
            else:
                out[rows] = values.reshape((-1,) + (1,) * (state.ndim - 1)) * state[cols]
        return out


def _pair(z: complex) -> list[float]:
    """``[re, im]`` of a complex number, as the JSON payloads write it."""
    return [float(z.real), float(z.imag)]


def _shown(x) -> str:
    """``repr(x)``, or, for a number whose digits pass Python's int-to-str limit, its type."""
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__} too long to print>"


def _integer(x, what: str) -> int:
    """``x`` as an int, exactly: ints of any size, numpy ints and integral reals such as 8.0
    pass; 8.9, inf, nan, "8", None, [3] and 3+0j raise ValueError."""
    try:
        return operator.index(x)
    except TypeError:
        pass
    if isinstance(x, numbers.Real):
        try:
            n = int(x)  # inf raises OverflowError, nan ValueError
        except (OverflowError, ValueError):
            pass
        else:
            if n == x:
                return n
    raise ValueError(f"{what} must be an integer, got {_shown(x)}")


def _number(x, what: str, real: bool = False):
    """``x`` as a finite complex strength, or with ``real`` a finite float angle, the one rule
    for every strength and angle; "0.3", b"1", None, [0.3], an int beyond float range, inf,
    nan and 0.3j as an angle raise ValueError."""
    kind = "a real number" if real else "a complex number"
    if isinstance(x, numbers.Real if real else numbers.Complex):
        try:
            value = float(x) if real else complex(x)
        except OverflowError:  # an int's repr may exceed Python's digit limit, so it is not named
            raise ValueError(f"{what} must be {kind} within float range") from None
        if cmath.isfinite(value):
            return value
        raise ValueError(f"{what} must be finite, got {value!r}")
    raise ValueError(f"{what} must be {kind}, got {x!r}")


def _size(x, what: str, least: int, square: str = "", extra: int = 0) -> int:
    """``x`` as an integral size of at least ``least``, the one rule for every size.

    A size with a ``square`` is that of one of two systems of x + ``extra`` levels each, and
    their joint basis of (x + extra)^2 entries must fit an axis of numpy's index range (intp,
    at most sys.maxsize entries); any other size is itself the length of an axis. Raises
    ValueError naming the size, before anything is allocated.
    """
    n = _integer(x, what)
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {_shown(n)}")
    if (n + extra) ** (2 if square else 1) > sys.maxsize:
        raise ValueError(f"{what} {_shown(x)} is too large: "
                         f"{square or 'an axis of that length'} exceeds numpy's index range")
    return n


# the ``_size`` arguments of a qudit's level count, read by ``QuditDim`` and ``_levels``
_QUDIT_SIZE = ("qudit dimension", 2, "the two-qudit dimension d^2")


def _levels(d) -> int:
    """The level count of a QuditDim, or of an integral ``d`` read as ``QuditDim`` reads it."""
    return d.d if isinstance(d, QuditDim) else _size(d, *_QUDIT_SIZE)


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def mod_add(a: int, b: int, d) -> int:
    """Group operation of Z_d: (a + b) mod d, with integral, range-checked inputs."""
    n = _levels(d)
    a, b = _integer(a, "index"), _integer(b, "index")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"indices ({_shown(a)}, {_shown(b)}) out of range for d={n}")
    return (a + b) % n


def basis_state(j: int, dim: int) -> np.ndarray:
    """Computational basis vector |j> = (0,...,0,1,0,...,0)^T of length dim.

    Raises ValueError unless j and dim are integers with 0 <= j < dim.
    """
    j, dim = _integer(j, "basis index"), _size(dim, "dimension", 1)
    if not (0 <= j < dim):
        raise ValueError(f"basis index {_shown(j)} out of range for dim={dim}")
    state = np.zeros(dim, dtype=complex)
    state[j] = 1.0
    return state


def tensor_op(a, b) -> np.ndarray:
    """Kronecker product; |a> (x) |b> sits at row/column a*dim(B) + b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _vector(x, what: str) -> np.ndarray:
    """``x`` as a complex state vector; any other number of axes raises ValueError."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError(f"{what} state must be a vector, got shape {x.shape}")
    return x


def tensor_state(x, y) -> np.ndarray:
    """Tensor product of state vectors, same index convention as tensor_op.

    Raises ValueError unless both are 1-d.
    """
    return np.kron(_vector(x, "first"), _vector(y, "second"))


def matmul(a, b) -> np.ndarray:
    """Operator composition a @ b; the right factor acts first."""
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def matpow(a, k: int) -> np.ndarray:
    """k-th matrix power; k must be an integer >= 0, else ValueError."""
    k = _integer(k, "power")
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    return np.linalg.matrix_power(_as_square(a), k)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def commutator(a, b) -> np.ndarray:
    """[a, b] = a @ b - b @ a."""
    return matmul(a, b) - matmul(b, a)


def max_abs(a) -> float:
    """Max-norm (largest entrywise modulus); the deviation measure used in checks."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_unitary(a, tol: float = 1e-12) -> bool:
    """True iff max-norm of (a^dag a - I) is at most tol, a finite positive real number."""
    if not (isinstance(tol, numbers.Real) and 0 < tol < np.inf):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    a = _as_square(a)
    return max_abs(a.conj().T @ a - np.eye(a.shape[0])) <= tol


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a finite square matrix.

    Delegates to scipy's scaling-and-squaring Pade implementation; the test
    suite pins its accuracy against a straight Taylor-series evaluation.
    No production route calls it: it stays public as the dense oracle that
    the tests hold the spectral Fock builders to. ``scipy.linalg`` is
    imported on the first call, so no other path needs scipy.
    """
    import scipy.linalg

    a = _as_square(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite entries")
    return scipy.linalg.expm(a)


def fidelity(x, y) -> float:
    """|<x|y>|^2 for normalized state vectors.

    Raises ValueError unless both are 1-d of one length, and when either
    norm differs from 1 by more than 1e-10, so a result off by a scalar
    factor cannot pass as a perfect overlap; the clip into [0, 1] only
    absorbs rounding.
    """
    x, y = _vector(x, "first"), _vector(y, "second")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    for name, v in (("first", x), ("second", y)):
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"{name} state has norm {norm!r}, not 1")
    return min(1.0, max(0.0, abs(np.vdot(x, y)) ** 2))
