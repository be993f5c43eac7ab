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
exactly for d up to 64. At d = 2 the reverse gate is the identity and the
product degenerates to the familiar three-controlled-NOT construction.

Two related questions are, to our knowledge, open and out of scope here:
whether single-qudit universality plus controlled shifts suffices to build
every controlled-unitary gate, and whether it generates all of U(d^2).
``controlled_unitary`` is provided only as a building block for exploring
them.

Each permutation gate is built from an integer index map, all written once in
``_index_map``, and kept as that map, one entry per row. The six-gate product
composes the builders' own maps, so it holds exactly; its four distinct factor
maps are formed from one set of level arrays (k = -i mod d at level i, and the
two qudits' levels a, b), which a single two-qudit map also forms.
"""

from __future__ import annotations

import numpy as np

from .core import _levels, _Operator, is_unitary

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


class QuditGate(_Operator):
    """A named gate on one or two d-level qudits, in the ``core._Operator`` store: the
    permutations and ``sigma3`` keep one entry per row, the controlled-U gates one block
    per control value, and a matrix given here is one block."""

    def __init__(self, d: int, matrix, label: str) -> None:
        d = _levels(d)
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gate matrix must be square, got {m.shape}")
        if m.shape[0] not in (d, d * d):
            raise ValueError(f"gate matrix dim {m.shape[0]} is neither d={d} nor d^2")
        every = np.arange(len(m))
        super().__init__([(every, every, m)], label, d=d)


def _index_map(n: int, label: str, levels: tuple | None = None) -> np.ndarray:
    """Index map of gate ``label`` on n-level qudits: basis index i (a*n + b) goes to map[i].

    ``levels`` is the ``(k, a, b)`` set below, which the six-gate product hands to its
    factors to form it once; a one-qudit map returns before forming what it does not read."""
    if levels is None:
        i = np.arange(n)
        if label == "sigma1":
            return (i + 1) % n
        k = -i % n
        if label == "k":
            return k
        levels = k, *np.divmod(np.arange(n * n), n)  # a, b: the qudits' levels at index a*n + b
    k, a, b = levels
    match label:
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
            cs, k1, rev = (_index_map(n, g, levels) for g in ("cshift", "k x 1", "cshift-rev"))
            return cs[k1[rev[k1[cs[_index_map(n, "1 x k", levels)]]]]]
    raise KeyError(label)


def _permutation(d, label: str) -> QuditGate:
    """The 0/1 gate on d-level qudits that sends basis index i to map[i]."""
    n = _levels(d)
    rows = _index_map(n, label)  # row map[i] holds its one in column i
    ones = np.ones(len(rows), dtype=complex)
    return QuditGate._from_groups([(rows, np.arange(len(rows)), ones)], label, d=n)


def sigma1(d) -> QuditGate:
    """Cyclic shift: |a> -> |a+1 mod d>. Reduces to Pauli X at d=2."""
    return _permutation(d, "sigma1")


def sigma3(d) -> QuditGate:
    """Clock gate diag(1, zeta, ..., zeta^(d-1)). Reduces to Pauli Z at d=2."""
    n = _levels(d)
    k = np.arange(n)
    return QuditGate._from_groups([(k, k, np.exp(2j * np.pi * k / n))], "sigma3", d=n)


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


# the gates that ``quswap gate`` dumps and the qudit suite checks, keyed by their own labels
GATES = {"sigma1": sigma1, "sigma3": sigma3, "k": reverse_gate, "cshift": controlled_shift,
         "cshift-rev": controlled_shift_reversed,
         "swap": swap_direct, "swap-composed": swap_composed}


def controlled_unitary(u, d=None) -> QuditGate:
    """Controlled-U gate: |a> (x) |b> -> |a> (x) U^a |b> for U in U(d).

    Kept as its d blocks: block a is U^a on the indices a*d .. a*d + d - 1.
    Powers are built by repeated multiplication. Rejects non-unitary U.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError(f"control matrix must be 2-D, got shape {u.shape}")
    n = _levels(d if d is not None else len(u))
    if u.shape != (n, n):
        raise ValueError(f"control matrix must be {n}x{n}, got {u.shape}")
    if not is_unitary(u, 1e-12):
        raise ValueError("controlled_unitary requires a unitary control matrix")
    blocks, power = [], np.eye(n, dtype=complex)
    for a in range(n):
        idx = np.arange(a * n, a * n + n)
        blocks.append((idx, idx, power))
        power = u @ power
    return QuditGate._from_groups(blocks, "controlled-unitary", d=n)


def conjugated_controlled_unitary(u, d=None) -> QuditGate:
    """S C_U S, which retargets the control: |a> (x) |b> -> U^b |a> (x) |b>.

    S is a permutation and an involution, so the conjugation relabels C_U by
    the swap's index map p: block a moves from the indices a*d + i to p of them,
    i*d + a.
    """
    cu = controlled_unitary(u, d)
    p = _index_map(cu.d, "swap")
    blocks = [(p[rows], p[cols], block) for rows, cols, block in cu._groups]
    return QuditGate._from_groups(blocks, "conjugated-controlled-unitary", d=cu.d)
