"""Tests for the benchmark's own output checks: each bad output must count as a failure.

    python3 -m pytest -q perfbench/test_checks.py

Run from the repository root; the last tests start the real CLI from ``src/``.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import checks
import run
import workloads


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex).ravel()]


def _gate_payload(name: str, d: int) -> dict:
    m = checks.permutation(name, d)
    return {"gate": name, "d": d, "dim": len(m), "entries": _pairs(m)}


def _clone_payload(x, t_abs: float, n_max: int, scale: float = 1.0) -> dict:
    want = checks.clone_amplitudes(x, t_abs, n_max)
    return {"t_abs": t_abs, "n_max": n_max, "oracle_fidelity": 1.0,
            "numeric": {"dim": len(want), "entries": _pairs(scale * want)},
            "closed_form": {"dim": len(want), "entries": _pairs(want)}}


def _verify_payload(d_max: int) -> dict:
    reports = [{"check": name, "params": {"d": d}, "kind": "deviation", "metric": 0.0,
                "tolerance": 0.0, "passed": True, "wall_ms": 0.1}
               for d in range(2, d_max + 1) for name in checks.QUDIT_CHECKS]
    return {"suite": "qudit", "d_max": d_max, "n_max": 32, "all_passed": True, "reports": reports}


def test_gate_dump_with_one_flipped_entry_fails(tmp_path):
    payload = _gate_payload("swap-composed", 4)
    assert checks.gate_dump_problems(_write(tmp_path / "ok.json", payload), "swap-composed", 4, "json") == []
    payload["entries"][5] = [1.0 - payload["entries"][5][0], 0.0]
    assert checks.gate_dump_problems(_write(tmp_path / "bad.json", payload), "swap-composed", 4, "json")


def test_csv_gate_dump_with_one_flipped_entry_fails(tmp_path):
    m = checks.permutation("cshift", 3)
    m[0, 1] = 1.0 - m[0, 1]
    text = "".join(",".join(f"{v:.17g}+0i" for v in row) + "\n" for row in m)
    (tmp_path / "bad.csv").write_text(text, encoding="utf-8")
    assert checks.gate_dump_problems(str(tmp_path / "bad.csv"), "cshift", 3, "csv")


def test_clone_output_scaled_by_two_fails(tmp_path):
    x = np.array([0.6, 0.8j, 0.0])
    ok = _write(tmp_path / "ok.json", _clone_payload(x, 0.7, 6))
    bad = _write(tmp_path / "bad.json", _clone_payload(x, 0.7, 6, scale=2.0))
    assert checks.clone_problems(ok, x, 0.7, 6) == []
    assert any("norm" in p for p in checks.clone_problems(bad, x, 0.7, 6))


def test_state_scaled_by_two_fails_although_fidelity_clips():
    want = checks.coherent(0.5, 8)
    assert checks.state_problems("ok", want, want) == []
    assert checks.state_problems("scaled", 2 * want, want)


def test_verify_report_with_one_failed_check_fails(tmp_path):
    payload = _verify_payload(3)
    assert checks.verify_problems(_write(tmp_path / "ok.json", payload), "qudit", 3, 32) == []
    payload["reports"][4]["passed"] = False
    assert checks.verify_problems(_write(tmp_path / "bad.json", payload), "qudit", 3, 32)


def test_verify_report_missing_a_check_fails(tmp_path):
    payload = _verify_payload(3)
    del payload["reports"][0]
    assert checks.verify_problems(_write(tmp_path / "bad.json", payload), "qudit", 3, 32)


def test_child_exiting_with_code_one_counts_as_failed(tmp_path):
    tally = run.Tally()
    run.invoke([sys.executable, "-c", "raise SystemExit(1)"], tmp_path, tally, "child")
    run.invoke([sys.executable, "-c", "pass"], tmp_path, tally, "child")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "exit code 1" in tally.problems[0]


def test_real_cli_outputs_pass_the_checks(tmp_path):
    tally = run.Tally()
    for op in workloads.cli_ops("small", seed=3, work=tmp_path):
        workloads.write_inputs([op])
        run.invoke(run.cli_cmd(op), tmp_path, tally, op["kind"], lambda op=op: checks.cli_problems(op))
    assert tally.attempted == 6
    assert tally.failed == 0, tally.problems
