import json
import math

import numpy as np
import pytest

from quswap import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,value",
    [
        ("0.7", 0.7 + 0j),
        ("-0.4+0.3i", -0.4 + 0.3j),
        ("-0.4+0.3j", -0.4 + 0.3j),
        ("1j", 1j),
        ("2", 2 + 0j),
    ],
)
def test_parse_complex(text, value):
    assert cli.parse_complex(text) == value


def test_parse_complex_rejects_garbage():
    with pytest.raises(ValueError):
        cli.parse_complex("week 12")
    with pytest.raises(ValueError):
        cli.parse_complex("inf")


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("pi/4", math.pi / 4),
        ("-pi/3", -math.pi / 3),
        ("0.25", 0.25),
        ("-1.5", -1.5),
    ],
)
def test_parse_angle(text, value):
    assert cli.parse_angle(text) == pytest.approx(value)


# ---------------------------------------------------------------------------
# gate command
# ---------------------------------------------------------------------------

def test_gate_cshift_d2_json(capsys):
    code, out, _ = run_cli(capsys, "gate", "--name", "cshift", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    m = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(4, 4)
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert payload["dim"] == 4
    assert np.array_equal(m, expected)


def test_gate_k_is_identity_at_d2(capsys):
    code, out, _ = run_cli(capsys, "gate", "--name", "k", "--d", "2")
    payload = json.loads(out)
    m = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(2, 2)
    assert code == 0
    assert np.array_equal(m, np.eye(2))


def test_gate_swap_d3_permutation(capsys):
    code, out, _ = run_cli(capsys, "gate", "--name", "swap", "--d", "3")
    payload = json.loads(out)
    m = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(9, 9)
    assert code == 0
    for a in range(3):
        for b in range(3):
            assert m[b * 3 + a, a * 3 + b] == 1
    assert m.sum() == 9


def test_gate_csv_format(capsys):
    code, out, _ = run_cli(capsys, "gate", "--name", "sigma1", "--d", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0+0i,1+0i", "1+0i,0+0i"]


def test_gate_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gate", "--name", "frobnicate", "--d", "2"])
    assert exc.value.code != 0


def test_gate_rejects_bad_d(capsys):
    code, _, err = run_cli(capsys, "gate", "--name", "swap", "--d", "1")
    assert code == 2
    assert "d must be" in err
    code, _, err = run_cli(capsys, "gate", "--name", "swap", "--d", "65")
    assert code == 2


def test_gate_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "gate", "--name", "sigma3", "--d", "5")
    _, second, _ = run_cli(capsys, "gate", "--name", "sigma3", "--d", "5")
    assert first == second


def test_gate_writes_file(tmp_path, capsys):
    path = tmp_path / "gate.json"
    code, out, _ = run_cli(capsys, "gate", "--name", "k", "--d", "3",
                           "--out", str(path))
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["dim"] == 3


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_qudit_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "qudit", "--d-max", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    checks = {r["check"] for r in payload["reports"]}
    assert "swap-decomposition" in checks
    assert {r["params"]["d"] for r in payload["reports"]} == set(range(2, 9))


def test_verify_fock_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fock", "--n-max", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    checks = {r["check"] for r in payload["reports"]}
    assert "ladder-commutators" in checks  # boundary-excluded commutators


def test_verify_rejects_out_of_range_params(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "qudit", "--d-max", "17")
    assert code == 2 and "--d-max" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "fock", "--n-max", "65")
    assert code == 2 and "--n-max" in err


def test_verify_all_defaults_exits_zero(capsys):
    # the full default run: --suite all --d-max 8 --n-max 32
    code, out, _ = run_cli(capsys, "verify")
    payload = json.loads(out)
    assert code == 0
    assert payload["all_passed"] is True
    assert payload["d_max"] == 8 and payload["n_max"] == 32


def test_verify_failing_report_exits_one(capsys, monkeypatch):
    from quswap.verify import VerificationReport

    def fake_suite(suite, d_max=8, n_max=32):
        return [VerificationReport("doomed", {"d": 2}, "deviation",
                                   1.0, 0.0, False, 0.1)]

    monkeypatch.setattr(cli.verify, "run_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "qudit")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["reports"][0]["check"] == "doomed"


def test_verify_deterministic_modulo_walltime(capsys):
    def stripped(raw):
        payload = json.loads(raw)
        for r in payload["reports"]:
            r.pop("wall_ms")
        return json.dumps(payload)

    _, first, _ = run_cli(capsys, "verify", "--suite", "qudit", "--d-max", "3")
    _, second, _ = run_cli(capsys, "verify", "--suite", "qudit", "--d-max", "3")
    assert stripped(first) == stripped(second)


# ---------------------------------------------------------------------------
# exchange command
# ---------------------------------------------------------------------------

def test_exchange_vacuum_pair(capsys):
    code, out, _ = run_cli(capsys, "exchange", "--z1", "0", "--z2", "0",
                           "--n-max", "4")
    payload = json.loads(out)
    assert code == 0
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert payload["non_discriminating"] is True


def test_exchange_reference_pair(capsys):
    code, out, _ = run_cli(capsys, "exchange", "--z1", "0.7", "--z2=-0.4+0.3i",
                           "--n-max", "32")
    payload = json.loads(out)
    assert code == 0
    assert payload["fidelity"] >= 1 - 1e-8
    assert payload["non_discriminating"] is False
    assert payload["truncation_weight"]["combined"] < 1e-8


def test_exchange_flags_equal_inputs(capsys):
    # equal inputs swap to themselves whatever the protocol does, so the
    # report must call them out as non-discriminating
    code, out, _ = run_cli(capsys, "exchange", "--z1", "0.5", "--z2", "0.5",
                           "--n-max", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["non_discriminating"] is True
    assert payload["fidelity"] >= 1 - 1e-8


def test_exchange_parse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exchange", "--z1", "bogus", "--z2", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["exchange", "--z1", "0", "--z2", "0", "--theta", "nan"],
        ["exchange", "--z1", "0", "--z2", "0", "--theta", "pi/0"],
        ["exchange", "--z1", "1e400", "--z2", "0"],
        ["clone", "--z", "0", "--t-abs", "inf"],
    ],
)
def test_non_finite_numbers_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "env,argv",
    [
        ({}, ["exchange", "--z1", "0", "--z2", "0", "--n-max", "0"]),
        ({}, ["clone", "--z", "0.1", "--t-abs", "0.5", "--n-max", "0"]),
        ({}, ["exchange", "--z1", "40", "--z2", "0", "--n-max", "8"]),  # coherent underflow
        ({"QUSWAP_TOL": "abc"}, ["verify"]),
    ],
)
def test_invalid_library_input_exits_2(env, argv, capsys, monkeypatch):
    # a ValueError escaping main would fail this test as a traceback
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["exchange", "--z1", "0.1", "--z2", "0", "--n-max", "65"],
    ["clone", "--z", "0.1", "--t-abs", "0.5", "--n-max", "65"],
])
def test_n_max_above_64_exits_2(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--n-max" in err


def test_exchange_accepts_pi_theta(capsys):
    code, out, _ = run_cli(capsys, "exchange", "--z1", "0.3", "--z2", "0.1",
                           "--theta", "pi/2", "--n-max", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["theta"] == pytest.approx(math.pi / 2)
    assert payload["fidelity"] >= 1 - 1e-8


# ---------------------------------------------------------------------------
# clone command
# ---------------------------------------------------------------------------

def test_clone_coherent_split(capsys):
    code, out, _ = run_cli(capsys, "clone", "--z", "0.5", "--t-abs", "pi/4",
                           "--n-max", "16")
    payload = json.loads(out)
    assert code == 0
    assert payload["oracle_fidelity"] >= 1 - 1e-8
    # both marginals carry the coherent parameter 0.5/sqrt(2)
    from quswap import fock

    state = np.array([complex(re, im) for re, im in payload["numeric"]["entries"]])
    rho2 = fock.mode2_marginal(state, 16)
    target = fock.coherent_state(0.5 / math.sqrt(2), 16)
    assert float(np.real(np.vdot(target, rho2 @ target))) >= 1 - 1e-8
    rho1 = fock.mode2_marginal(state.reshape(17, 17).T.ravel(), 16)
    assert float(np.real(np.vdot(target, rho1 @ target))) >= 1 - 1e-8


def test_clone_single_photon_file(tmp_path, capsys):
    path = tmp_path / "one_photon.json"
    path.write_text(json.dumps([[0.0, 0.0], [1.0, 0.0]]))
    code, out, _ = run_cli(capsys, "clone", "--input", str(path),
                           "--t-abs", "pi/4", "--n-max", "8")
    payload = json.loads(out)
    assert code == 0
    state = np.array([complex(re, im) for re, im in payload["numeric"]["entries"]])
    dim = 9
    assert state[1 * dim + 0] == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    assert state[0 * dim + 1] == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_clone_zero_strength_is_identity(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps([0.6, 0.8]))
    code, out, _ = run_cli(capsys, "clone", "--input", str(path),
                           "--t-abs", "0", "--n-max", "4")
    payload = json.loads(out)
    assert code == 0
    state = np.array([complex(re, im) for re, im in payload["numeric"]["entries"]])
    dim = 5
    assert state[0 * dim + 0] == pytest.approx(0.6, abs=1e-12)
    assert state[1 * dim + 0] == pytest.approx(0.8, abs=1e-12)


def test_clone_renormalizes_with_warning(capsys, tmp_path):
    path = tmp_path / "unnormalized.json"
    path.write_text(json.dumps([3.0, 4.0]))
    code, out, err = run_cli(capsys, "clone", "--input", str(path),
                             "--t-abs", "0.3", "--n-max", "4")
    assert code == 0
    assert "renormalizing" in err
    payload = json.loads(out)
    assert payload["oracle_fidelity"] >= 1 - 1e-8


def test_clone_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "clone", "--input", str(path), "--t-abs", "0.3")
    assert code == 2
    path.write_text(json.dumps([[1.0, "x"]]))
    code, _, err = run_cli(capsys, "clone", "--input", str(path), "--t-abs", "0.3")
    assert code == 2


def test_clone_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "clone", "--t-abs", "0.3")
    assert code == 2
    code, _, err = run_cli(capsys, "clone", "--t-abs", "0.3", "--z", "0.1",
                           "--input", "x.json")
    assert code == 2
