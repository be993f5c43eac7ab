"""Linear algebra shared by the qudit and Fock modules, and the operator store of both.

The functions take plain square ``complex128`` arrays and 1-d unit state vectors, and
are pure, so results are safe to share across threads. ``gates.QuditGate`` and
``fock.ModeOperator`` keep their operators in ``_Operator``, by structure.
"""

from __future__ import annotations

import numbers
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
        object.__setattr__(self, "d", _integer(self.d, "qudit dimension"))
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")

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
        out = np.empty_like(state)
        for rows, cols, values in self._groups:
            if values.ndim == 2:
                out[rows] = values @ state[cols]
            else:
                out[rows] = values.reshape((-1,) + (1,) * (state.ndim - 1)) * state[cols]
        return out


def _pair(z: complex) -> list[float]:
    """``[re, im]`` of a complex number, as the JSON payloads write it."""
    return [float(z.real), float(z.imag)]


def _integer(x, what: str) -> int:
    """``x`` as an int: 8, numpy ints and 8.0 pass; 8.9, inf, nan and "8" raise ValueError."""
    if isinstance(x, str) or not float(x).is_integer():
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _levels(d) -> int:
    """Accept either an integral level count or a QuditDim and return the level count."""
    return (d if isinstance(d, QuditDim) else QuditDim(d)).d


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
        raise ValueError(f"indices ({a}, {b}) out of range for d={n}")
    return (a + b) % n


def basis_state(j: int, dim: int) -> np.ndarray:
    """Computational basis vector |j> = (0,...,0,1,0,...,0)^T of length dim.

    Raises ValueError unless j and dim are integers with 0 <= j < dim.
    """
    j, dim = _integer(j, "basis index"), _integer(dim, "dimension")
    if not (0 <= j < dim):
        raise ValueError(f"basis index {j} out of range for dim={dim}")
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
    a, b = _as_square(a), _as_square(b)
    return a @ b - b @ a


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
