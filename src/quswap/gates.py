"""Qudit clock/shift gates and the exchange-gate decomposition.

A qudit is a d-level system with computational basis |0>, ..., |d-1>.
The two elementary single-qudit operations are the cyclic shift
``sigma1`` (|a> -> |a+1 mod d|) and the clock ``sigma3``
(|a> -> zeta^a |a>, zeta = exp(2*pi*i/d)); together with the reverse gate
K (|a> -> |d-a mod d>) and the two controlled shifts they generate the
two-qudit exchange (swap) gate:

    S = C_Sigma (K x 1) C~_Sigma (K x 1) C_Sigma (1 x K)

with the rightmost factor applied first. ``swap_composed`` composes the
index maps of the elementary gates and ``swap_direct`` builds S from its
definition; the two agree entrywise, which the verification suite checks
exactly for d up to 16. At d = 2 the reverse gate is the identity and the
product degenerates to the familiar three-controlled-NOT construction.

Two related questions are, to our knowledge, open and out of scope here:
whether single-qudit universality plus controlled shifts suffices to build
every controlled-unitary gate, and whether it generates all of U(d^2).
``controlled_unitary`` is provided only as a building block for exploring
them.

Each permutation gate is built from an integer index map, all written once in
``_index_map``, and the six-gate product composes the builders' own maps, so
it holds exactly.
"""

from __future__ import annotations

import numpy as np

from .core import _levels, is_unitary

__all__ = [
    "QuditGate",
    "controlled_shift",
    "controlled_shift_reversed",
    "controlled_unitary",
    "conjugated_controlled_unitary",
    "reverse_gate",
    "sigma1",
    "sigma3",
    "swap_composed",
    "swap_direct",
]


class QuditGate:
    """A named gate on one or two qudits, kept as its rows: row i holds ``values[i]`` in
    the columns ``cols[i]``, two (dim, k) arrays; ``matrix`` is assembled on each read."""

    def __init__(self, d: int, matrix, label: str) -> None:
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gate matrix must be square, got {m.shape}")
        if m.shape[0] not in (d, d * d):
            raise ValueError(f"gate matrix dim {m.shape[0]} is neither d={d} nor d^2")
        self.d, self.label, self.dim = d, label, len(m)
        self._cols, self._values = np.broadcast_to(np.arange(len(m)), m.shape), m

    @classmethod
    def _from_rows(cls, d: int, cols, values, label: str) -> QuditGate:
        gate = cls.__new__(cls)
        gate.d, gate.label, gate.dim, gate._cols, gate._values = d, label, len(cols), cols, values
        return gate

    @property
    def matrix(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        np.put_along_axis(m, self._cols, self._values, axis=1)
        return m

    def apply(self, state) -> np.ndarray:
        state = np.asarray(state, dtype=complex)
        if state.shape[:1] != (self.dim,):
            raise ValueError(f"state of shape {state.shape} does not fit dimension {self.dim}")
        return np.einsum("ik,ik...->i...", self._values, state[self._cols])


def _index_map(n: int, label: str) -> np.ndarray:
    """Index map of gate ``label`` on n-level qudits: basis index i (a*n + b) goes to map[i]."""
    i = np.arange(n)
    k = -i % n
    a, b = np.divmod(np.arange(n * n), n)  # the two qudits' levels at basis index a*n + b
    match label:
        case "sigma1":
            return (i + 1) % n
        case "k":
            return k
        case "cshift":
            return a * n + (a + b) % n
        case "cshift-rev":
            return (a + b) % n * n + b
        case "swap":
            return b * n + a
        case "k x 1":
            return k[a] * n + b
        case "1 x k":
            return a * n + k[b]
        case "swap-composed":
            # C_Sigma (K x 1) C~_Sigma (K x 1) C_Sigma (1 x K), rightmost factor first
            cs, k1 = _index_map(n, "cshift"), _index_map(n, "k x 1")
            return cs[k1[_index_map(n, "cshift-rev")[k1[cs[_index_map(n, "1 x k")]]]]]
    raise KeyError(label)


def _permutation(d, label: str) -> QuditGate:
    """The 0/1 gate on d-level qudits that sends basis index i to map[i]."""
    n = _levels(d)
    cols = np.argsort(_index_map(n, label))[:, None]  # row map[i] holds its one in column i
    return QuditGate._from_rows(n, cols, np.ones(cols.shape, dtype=complex), label)


def sigma1(d) -> QuditGate:
    """Cyclic shift: |a> -> |a+1 mod d>. Reduces to Pauli X at d=2."""
    return _permutation(d, "sigma1")


def sigma3(d) -> QuditGate:
    """Clock gate diag(1, zeta, ..., zeta^(d-1)). Reduces to Pauli Z at d=2."""
    n = _levels(d)
    k = np.arange(n)[:, None]
    return QuditGate._from_rows(n, k, np.exp(2j * np.pi * k / n), "sigma3")


def reverse_gate(d) -> QuditGate:
    """Reverse gate K: fixes |0> and maps |a> -> |d-a> otherwise.

    An involution; the identity at d=2.
    """
    return _permutation(d, "k")


def controlled_shift(d) -> QuditGate:
    """Controlled shift C_Sigma: |a> (x) |b> -> |a> (x) |a+b mod d>.

    The first qudit controls, the second is the target; setting b=0 clones
    the computational basis. The d=2 case is controlled-NOT.
    """
    return _permutation(d, "cshift")


def controlled_shift_reversed(d) -> QuditGate:
    """Controlled shift with the roles swapped: |a> (x) |b> -> |a+b> (x) |b>."""
    return _permutation(d, "cshift-rev")


def swap_direct(d) -> QuditGate:
    """Exchange gate from its definition: index a*d+b -> b*d+a."""
    return _permutation(d, "swap")


def swap_composed(d) -> QuditGate:
    """Exchange gate assembled from controlled shifts and reverse gates.

    Composes the index maps that the other builders use into
    C_Sigma (K x 1) C~_Sigma (K x 1) C_Sigma (1 x K), rightmost factor acting
    first. The composition is integer arithmetic, so agreement with
    swap_direct is an exact equality, not a floating-point one.
    """
    return _permutation(d, "swap-composed")


def controlled_unitary(u, d=None) -> QuditGate:
    """Controlled-U gate: |a> (x) |b> -> |a> (x) U^a |b> for U in U(d).

    Block-diagonal: row a*d + i is row i of U^a, in block a's columns. Powers
    are built by repeated multiplication. Rejects non-unitary U.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError(f"control matrix must be 2-D, got shape {u.shape}")
    n = _levels(d if d is not None else len(u))
    if u.shape != (n, n):
        raise ValueError(f"control matrix must be {n}x{n}, got {u.shape}")
    if not is_unitary(u, 1e-12):
        raise ValueError("controlled_unitary requires a unitary control matrix")
    values = np.empty((n, n, n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for a in range(n):
        values[a] = power
        power = u @ power
    cols = np.arange(n * n)[:, None] // n * n + np.arange(n)
    return QuditGate._from_rows(n, cols, values.reshape(n * n, n), "controlled-unitary")


def conjugated_controlled_unitary(u, d=None) -> QuditGate:
    """S C_U S, which retargets the control: |a> (x) |b> -> U^b |a> (x) |b>.

    S is a permutation and an involution, so the conjugation relabels C_U by
    the swap's index map p: row i is row p[i], and column c goes to p[c].
    """
    cu = controlled_unitary(u, d)
    p = _index_map(cu.d, "swap")
    label = "conjugated-controlled-unitary"
    return QuditGate._from_rows(cu.d, p[cu._cols[p]], cu._values[p], label)
