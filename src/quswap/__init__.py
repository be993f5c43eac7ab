"""quswap: qudit exchange-gate decomposition and a truncated Fock simulator.

The ``gates`` module builds the clock/shift family of qudit gates and
verifies that three controlled shifts plus three reverse gates compose to
the two-qudit swap. The ``fock`` module simulates two truncated oscillator
modes and realizes the coherent-state exchange protocol and the
"imperfect clone" splitting, each against an independent closed-form
oracle. ``verify`` packages the identity checks behind the ``quswap``
command line.
"""

from . import core, fock, gates
from .core import *
from .fock import *
from .gates import *
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = sorted(core.__all__ + fock.__all__ + gates.__all__ + ["VerificationReport", "run_suite"])
