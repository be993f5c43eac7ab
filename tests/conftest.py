"""Fixtures shared by the test modules."""

import inspect
import types

import numpy as np
import pytest

from quswap import core, fock


def _mode_pair(cutoff):
    a = fock.annihilation(cutoff).matrix
    eye = np.eye(len(a))
    return core.tensor_op(a, eye), core.tensor_op(eye, a)


@pytest.fixture
def mode_pair():
    """Builder of the two-mode annihilation pair a1 = a (x) 1, a2 = 1 (x) a at a cutoff,
    from the public one-mode ladder and Kronecker product."""
    return _mode_pair


def _dense_beamsplitter(t, cutoff):
    jp, jm, _ = fock.schwinger_su2(cutoff)
    return core.mat_exp(t * jp.matrix - np.conj(t) * jm.matrix)


@pytest.fixture
def dense_beamsplitter():
    """Oracle builder of the beamsplitter at strength t and a cutoff: one dense exponential
    of the whole truncated two-mode generator."""
    return _dense_beamsplitter


def _random_mode_state(rng, support, dim):
    v = np.zeros(dim, dtype=complex)
    v[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(support + 1)
    return v / np.linalg.norm(v)


@pytest.fixture
def random_mode_state():
    """Builder of a seeded unit state of ``dim`` levels with support on levels 0..support,
    drawn from ``rng``."""
    return _random_mode_state


def _module_with(module, old, new):
    source = inspect.getsource(module)
    assert source.count(old) == 1  # the fault lands on exactly one site
    wrong = types.ModuleType(module.__name__)
    wrong.__package__ = "quswap"
    exec(compile(source.replace(old, new), module.__file__, "exec"), wrong.__dict__)
    return wrong


@pytest.fixture
def module_with():
    """Builder of a fresh copy of a quswap module with ``old`` replaced by ``new`` in its
    source, which must hold ``old`` exactly once."""
    return _module_with
