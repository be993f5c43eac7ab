"""Command-line front end: gate dumps, verification suites, Fock experiments.

Subcommands:

* ``gate``     dump a named qudit gate matrix as JSON or CSV
* ``verify``   run the invariant suites and emit a JSON report
* ``exchange`` swap two coherent states through the fixed exchange unitary
* ``clone``    split a one-mode state across two modes, with oracle comparison

Complex numbers on the command line accept ``i`` or ``j`` suffixes
(``--z2=-0.4+0.3i``); angles are radians, with ``pi`` and fractions such as
``pi/2`` accepted symbolically. Matrices and states are serialized as
``{"dim": n, "entries": [[re, im], ...]}`` row-major; JSON floats use Python's
shortest round-trip form and CSV entries ``%.17g`` (17 digits). Output is
deterministic byte-for-byte except for the wall-time fields in verification
reports. ``gate`` writes its dump from the gate's stored entries, one row at a
time, and never builds the dense d^2-square matrix (~30 MB for the whole
process at d = 64); the gate is built before the first write.

Exit codes: 0 success / all checks passed, 1 verification failure (a check that
raised included: its report has a null metric), 2 usage or input errors,
including a ValueError raised by the library on an invalid input and an
``--out`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import itertools
import json
import math
import re
import sys
import warnings
from collections.abc import Iterator

import numpy as np

from . import fock, gates, verify
from .core import TruncationWarning, _pair, fidelity, tensor_state

__all__ = ["main"]

# inclusive bounds of the integer size flags, checked before anything is built
BOUNDS = {"d": (2, 64), "d_max": (2, 64), "n_max": (1, 64)}

# a coefficient file whose norm is off 1 by more than this is renormalized
_RENORMALIZE_TOL = 1e-12

_ANGLE_RE = re.compile(r"^(-?)pi(?:/(\d+(?:\.\d*)?))?$")


def parse_complex(text: str) -> complex:
    """Parse '0.7', '-0.4+0.3i' or '1j' into a finite complex number."""
    cleaned = text.strip().replace("i", "j").replace("I", "j")
    value = complex(cleaned.replace(" ", ""))
    if not cmath.isfinite(value):
        raise ValueError(f"non-finite complex value: {text!r}")
    return value


def parse_angle(text: str) -> float:
    """Parse a finite angle in radians; accepts 'pi' and fractions like 'pi/4'."""
    cleaned = text.strip().lower()
    m = _ANGLE_RE.match(cleaned)
    if m and m.group(2) and float(m.group(2)) == 0:
        raise ValueError(f"angle divides pi by zero: {text!r}")
    if m:
        value = math.pi / float(m.group(2)) if m.group(2) else math.pi
        value = -value if m.group(1) else value
    else:
        value = float(cleaned)
    if not math.isfinite(value):
        raise ValueError(f"non-finite angle: {text!r}")
    return value


def array_payload(a: np.ndarray) -> dict:
    """``{"dim": n, "entries": [[re, im], ...]}`` of a complex matrix or vector, row-major."""
    a = np.ascontiguousarray(a, dtype=complex)
    return {"dim": a.shape[0], "entries": a.view(np.float64).reshape(-1, 2).tolist()}


def _matrix_rows(gate: gates.QuditGate, zero: str, sep: str, entry) -> Iterator[str]:
    """Each row of ``gate`` as text: ``entry(z)`` for its one stored entry, ``zero`` elsewhere,
    joined by ``sep``; the row of zeros is joined once and sliced around each entry.

    Every dumped gate keeps one entry per row. ``entry(0j)`` is ``zero``; -0.0 keeps its sign.
    """
    (rows, cols, values), = gate._groups
    order = np.argsort(rows)
    zeros = sep.join([zero] * gate.dim)
    width = len(zero) + len(sep)
    for j, z in zip(cols[order].tolist(), values[order].tolist()):
        yield zeros[: j * width] + entry(z) + zeros[j * width + len(zero) :]


def cmd_gate(args: argparse.Namespace) -> tuple[Iterator[str], int]:
    """The dump as text chunks, one per matrix row; the gate is built before the first chunk."""
    gate = gates.GATES[args.name](args.d)
    if args.format == "csv":
        rows = _matrix_rows(gate, "0+0i", ",", lambda z: f"{z.real:.17g}{z.imag:+.17g}i")
        return (row + "\n" for row in rows), 0
    # the JSON of ``array_payload``, written one row of entries at a time
    header = json.dumps({"gate": gate.label, "d": gate.d, "dim": gate.dim, "entries": []})[:-2]
    rows = _matrix_rows(gate, "[0.0, 0.0]", ", ", lambda z: f"[{z.real!r}, {z.imag!r}]")
    chunks = ((", " if i else "") + row for i, row in enumerate(rows))
    return itertools.chain([header], chunks, ["]}\n"]), 0


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    reports = verify.run_suite(args.suite, d_max=args.d_max, n_max=args.n_max)
    all_passed = all(r.passed for r in reports)
    payload = {
        "suite": args.suite,
        "d_max": args.d_max,
        "n_max": args.n_max,
        "all_passed": all_passed,
        "reports": [r.to_dict() for r in reports],
    }
    return payload, 0 if all_passed else 1


def _advise_cutoff(n_max: int, **amplitudes: complex) -> None:
    """Print a warning on stderr for each coherent amplitude above the advisory bound
    sqrt(n_max)/4; the command still runs, with the truncated states."""
    advisory = math.sqrt(n_max) / 4
    for label, z in amplitudes.items():
        if abs(z) > advisory:
            print(f"warning: |{label}|={abs(z):.3f} exceeds the advisory bound "
                  f"sqrt(n_max)/4={advisory:.3f}", file=sys.stderr)


def cmd_exchange(args: argparse.Namespace) -> tuple[dict, int]:
    n_max = args.n_max
    state1 = fock.coherent_state(args.z1, n_max)
    state2 = fock.coherent_state(args.z2, n_max)
    _advise_cutoff(n_max, z1=args.z1, z2=args.z2)
    exchanged = fock.exchange_protocol(args.theta, n_max).apply(tensor_state(state1, state2))
    target = tensor_state(state2, state1)
    w1 = fock.coherent_truncation_weight(args.z1, n_max)
    w2 = fock.coherent_truncation_weight(args.z2, n_max)
    payload = {
        "z1": _pair(args.z1),
        "z2": _pair(args.z2),
        "theta": args.theta,
        "n_max": n_max,
        "fidelity": fidelity(target, exchanged),
        "truncation_weight": {"z1": w1, "z2": w2, "combined": 1 - (1 - w1) * (1 - w2)},
        # equal inputs are swapped to themselves, so they cannot detect a
        # broken protocol
        "non_discriminating": args.z1 == args.z2,
    }
    return payload, 0


def _load_coefficients(path: str, dim: int) -> np.ndarray:
    """The coefficient vector in ``path`` as a unit vector; a zero vector is rejected, and one
    whose norm is off 1 by more than ``_RENORMALIZE_TOL`` is renormalized with a warning."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise ValueError("coefficient file nests too deeply") from None
    if not isinstance(raw, list) or not raw:
        raise ValueError("coefficient file must be a non-empty JSON array")
    def _num(value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"not a number: {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ValueError("integer out of float range") from None

    coeffs = np.zeros(len(raw), dtype=complex)
    for i, item in enumerate(raw):
        if isinstance(item, list) and len(item) == 2:
            coeffs[i] = complex(_num(item[0]), _num(item[1]))
        else:
            coeffs[i] = _num(item)
    if len(coeffs) > dim:
        raise ValueError(f"{len(coeffs)} coefficients exceed the cutoff dimension {dim}")
    # entries below 1/2 are scaled up by a power of two, which is exact, so that
    # their squares cannot underflow ([1e-200] has norm 1e-200); a sum of
    # squares beyond float range still fails
    parts = coeffs.view(np.float64)
    exponent = min(0, math.frexp(float(np.max(np.abs(parts))))[1])
    scaled = np.ldexp(parts, -exponent).view(complex)
    with np.errstate(over="ignore"):
        scaled_norm = float(np.linalg.norm(scaled))
    if not math.isfinite(scaled_norm):  # a non-finite entry, or a sum of squares that overflows
        raise ValueError("coefficients and their norm must be finite")
    norm = math.ldexp(scaled_norm, exponent)
    if norm == 0.0:
        raise ValueError("coefficient vector is zero")
    if abs(norm - 1.0) <= _RENORMALIZE_TOL:
        return coeffs
    print(f"warning: input norm {norm:.6g} != 1; renormalizing", file=sys.stderr)
    return scaled / scaled_norm


def cmd_clone(args: argparse.Namespace) -> tuple[dict, int]:
    n_max = args.n_max
    if (args.input is None) == (args.z is None):
        raise ValueError("provide exactly one of --input or --z")
    if args.z is not None:
        x = fock.coherent_state(args.z, n_max)
        _advise_cutoff(n_max, z=args.z)
        source = {"coherent_z": _pair(args.z)}
    else:
        try:
            x = _load_coefficients(args.input, n_max + 1)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read coefficient file {args.input}: {exc}") from exc
        source = {"coefficient_file": args.input}
    numeric = fock.imperfect_clone_numeric(x, args.t_abs, n_max)
    closed = fock.imperfect_clone_closed_form(x, args.t_abs, n_max)
    payload = {
        **source,
        "t_abs": args.t_abs,
        "n_max": n_max,
        "oracle_fidelity": fidelity(closed, numeric),
        "numeric": array_payload(numeric),
        "closed_form": array_payload(closed),
    }
    return payload, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quswap",
        description="Qudit exchange-gate decomposition and two-mode Fock experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gate = sub.add_parser("gate", help="dump a qudit gate matrix")
    p_gate.add_argument("--name", required=True, choices=sorted(gates.GATES))
    p_gate.add_argument("--d", type=int, required=True, help="levels per qudit (2..64)")
    p_gate.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--suite", choices=("qudit", "fock", "all"), default="all")
    p_verify.add_argument("--d-max", type=int, default=8, help="largest qudit dim (2..64)")

    p_exch = sub.add_parser("exchange", help="swap two coherent states")
    p_exch.add_argument("--z1", type=parse_complex, required=True)
    p_exch.add_argument("--z2", type=parse_complex, required=True)
    p_exch.add_argument("--theta", type=parse_angle, default=0.0,
                        help="beamsplitter phase (radians; accepts pi, pi/2, ...)")

    p_clone = sub.add_parser("clone", help="split a one-mode state across two modes")
    p_clone.add_argument("--input", help="JSON file of coefficients ([re, im] pairs or numbers)")
    p_clone.add_argument("--z", type=parse_complex, help="coherent input parameter")
    p_clone.add_argument("--t-abs", type=parse_angle, required=True,
                         help="beamsplitter strength |t| (radians; accepts pi/4, ...)")

    for p, func in ((p_gate, cmd_gate), (p_verify, cmd_verify),
                    (p_exch, cmd_exchange), (p_clone, cmd_clone)):
        if p is not p_gate:
            p.add_argument("--n-max", type=int, default=32, help="Fock cutoff (1..64)")
        p.add_argument("--out", help="write to file instead of stdout")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # resource bounds are checked before anything is built
        for key, (lo, hi) in BOUNDS.items():
            value = getattr(args, key, None)
            if value is not None and not lo <= value <= hi:
                raise ValueError(f"--{key.replace('_', '-')} must be in {lo}..{hi}, got {value}")
        # --out is opened before the command runs, as shell redirection would be
        with (open(args.out, "w", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as out, warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            payload, code = args.func(args)
            if isinstance(payload, dict):
                out.write(json.dumps(payload, indent=2) + "\n")
            else:
                out.writelines(payload)
        return code
    except (OSError, ValueError) as exc:
        # an out-of-range bound, invalid input found by the library (coherent
        # underflow, overflowing |z|^2, ...) or an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
