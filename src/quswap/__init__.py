"""quswap: qudit exchange-gate decomposition and a truncated Fock simulator.

The ``gates`` module builds the clock/shift family of qudit gates and
verifies that three controlled shifts plus three reverse gates compose to
the two-qudit swap. The ``fock`` module simulates two truncated oscillator
modes and realizes the coherent-state exchange protocol and the
"imperfect clone" splitting, each against an independent closed-form
oracle. ``verify`` packages the identity checks behind the ``quswap``
command line.

``import quswap`` loads numpy only. ``fock``, and scipy with it, is imported
on the first use of ``quswap.fock`` or of one of its names.
"""

import importlib

from . import core, gates
from .core import *
from .core import TruncationWarning
from .gates import *
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

# ``fock.__all__``, kept here so that the package can resolve these names
# without importing fock
_FOCK_ALL = [
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

__all__ = sorted(core.__all__ + _FOCK_ALL + gates.__all__ + ["VerificationReport", "run_suite"])


def __getattr__(name: str):
    if name == "fock" or name in _FOCK_ALL:
        # not ``from . import fock``: its fromlist handling calls
        # hasattr(quswap, "fock"), which would land here again
        fock = importlib.import_module(f"{__name__}.fock")
        return fock if name == "fock" else getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "fock", *_FOCK_ALL})
