"""Fixtures shared by the test modules."""

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
