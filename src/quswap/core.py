"""Dense complex linear algebra shared by the qudit and Fock modules.

Operators are plain square ``numpy`` arrays of ``complex128``; pure states
are 1-d complex vectors with unit norm. Everything here is a pure function
over immutable inputs, so it is safe to share results across threads.
"""

from __future__ import annotations

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
        if self.d < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.d}")

    @property
    def zeta(self) -> complex:
        return complex(np.exp(2j * np.pi / self.d))


def _levels(d) -> int:
    """Accept either a bare int or a QuditDim and return the level count."""
    return (d if isinstance(d, QuditDim) else QuditDim(int(d))).d


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def mod_add(a: int, b: int, d) -> int:
    """Group operation of Z_d: (a + b) mod d, with range-checked inputs."""
    n = _levels(d)
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"indices ({a}, {b}) out of range for d={n}")
    return (a + b) % n


def basis_state(j: int, dim: int) -> np.ndarray:
    """Computational basis vector |j> = (0,...,0,1,0,...,0)^T of length dim."""
    if not (0 <= j < dim):
        raise ValueError(f"basis index {j} out of range for dim={dim}")
    state = np.zeros(dim, dtype=complex)
    state[j] = 1.0
    return state


def tensor_op(a, b) -> np.ndarray:
    """Kronecker product; |a> (x) |b> sits at row/column a*dim(B) + b."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_state(x, y) -> np.ndarray:
    """Tensor product of state vectors, same index convention as tensor_op."""
    return np.kron(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))


def matmul(a, b) -> np.ndarray:
    """Operator composition a @ b; the right factor acts first."""
    a, b = _as_square(a), _as_square(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def matpow(a, k: int) -> np.ndarray:
    """k-th matrix power (k >= 0)."""
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
    """True iff max-norm of (a^dag a - I) is at most tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
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

    Raises ValueError when either norm differs from 1 by more than 1e-10,
    so a result off by a scalar factor cannot pass as a perfect overlap;
    the clip into [0, 1] only absorbs rounding.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    for name, v in (("first", x), ("second", y)):
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"{name} state has norm {norm!r}, not 1")
    return min(1.0, max(0.0, abs(np.vdot(x, y)) ** 2))
