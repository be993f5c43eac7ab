"""What each entry point imports: the qudit paths load numpy only, and no
path loads scipy, which only the tests use as an oracle."""

import os
import subprocess
import sys
from pathlib import Path

import quswap
from quswap import fock

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter against src/ and return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_qudit_paths_import_neither_fock_nor_scipy(tmp_path):
    out = run_fresh(f"""
import sys
import quswap
import quswap.cli
quswap.gates.swap_composed(8)
quswap.run_suite("qudit", d_max=4)
assert quswap.cli.main(["gate", "--name", "swap", "--d", "2", "--out", {str(tmp_path / "s.json")!r}]) == 0
print(sorted(m for m in sys.modules if m == "quswap.fock" or m.split(".")[0] == "scipy"))
""")
    assert out == "[]\n"


def test_fock_paths_import_no_scipy(tmp_path):
    coefficients = tmp_path / "x.json"
    coefficients.write_text("[0.6, [0, 0.8]]")
    out = run_fresh(f"""
import sys
import numpy as np
from quswap import fock
# the first timed Fock call must not pay for an import
assert "quswap._igam" in sys.modules
import quswap.cli

x = fock.coherent_state(0.5 - 0.2j, 6)
args = {{
    "BeamsplitterParam": (0.3j,),
    "FockCutoff": (6,),
    "ModeOperator": (fock.FockCutoff(6), np.eye(7), "identity"),
    "annihilation": (6,),
    "beamsplitter": (0.3j, 6),
    "beamsplitter_blockwise": (0.3j, 6),
    "coherent_state": (0.5 - 0.2j, 6),
    "coherent_truncation_weight": (0.5, 6),
    "creation": (6,),
    "displacement": (0.5 - 0.2j, 6),
    "exchange_protocol": (0.4, 6),
    "imperfect_clone_closed_form": (x, 0.7, 6),
    "imperfect_clone_numeric": (x, 0.7, 6),
    "level_projector": (6, 3),
    "mode2_marginal": (np.kron(x, x), 6),
    "number": (6,),
    "phase_op": (0.3, 2, 6),
    "schwinger_su2": (6,),
    "squeeze": (0.3j, 6),
    "su11_generators": (6,),
    "total_number_projector": (6, 4),
}}
assert set(args) == set(fock.__all__) - {{"TruncationWarning"}}
for name, a in args.items():
    result = getattr(fock, name)(*a)
    for op in result if isinstance(result, tuple) else [result]:
        if isinstance(op, fock.ModeOperator):
            op.apply(np.ones(op.dim))
out = {str(tmp_path / "out.json")!r}
for argv in (["exchange", "--z1", "0.7", "--z2=-0.4+0.3i", "--theta", "1.3"],
             ["clone", "--z=0.6-0.2i", "--t-abs", "0.7"],
             ["clone", "--input", {str(coefficients)!r}, "--t-abs", "0.7"],
             ["verify", "--suite", "all", "--d-max", "3", "--n-max", "4"]):
    assert quswap.cli.main([*argv, "--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")
    assert out == "[]\n"


def test_fock_checks_run_when_called_directly():
    # a check body must reach fock itself, not through a global bound by the suite runner
    out = run_fresh("""
import quswap.verify as verify
for (suite, name), check in verify._CHECKS.items():
    if suite == "fock":
        report = check(4)
        print(name, report.passed)
""")
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.endswith(" True") for line in lines)


def test_fock_names_resolve_through_the_package():
    assert quswap.fock is fock
    assert quswap.TruncationWarning is fock.TruncationWarning is quswap.core.TruncationWarning
    assert quswap.beamsplitter is fock.beamsplitter
    assert set(fock.__all__) <= set(dir(quswap)) and "fock" in dir(quswap)
    namespace = {}
    exec("from quswap import *", namespace)
    assert all(namespace[name] is getattr(quswap, name) for name in quswap.__all__)
    assert not hasattr(quswap, "no_such_name")

