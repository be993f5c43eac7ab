"""What each entry point imports: the qudit paths load numpy only, and
``quswap.fock`` brings scipy with it before any of its functions is called."""

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


def test_importing_fock_loads_scipy_before_any_call():
    # the first timed Fock call must not pay for the scipy import
    out = run_fresh("""
import sys
from quswap import fock
print("scipy.linalg" in sys.modules, "scipy.special" in sys.modules)
""")
    assert out == "True True\n"


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

