import hashlib
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quswap import cli, gates


# a JSON array holding one 400-digit integer, beyond float range
HUGE_INTEGER_FILE = str(Path(__file__).parent / "data" / "huge_integer.json")
# [1e308, 1e308]: finite entries whose norm overflows a float
OVERFLOWING_NORM_FILE = str(Path(__file__).parent / "data" / "overflowing_norm.json")
# [1e-200, 1e-200]: a nonzero vector whose entries square to 0.0
UNDERFLOWING_NORM_FILE = str(Path(__file__).parent / "data" / "underflowing_norm.json")
# [0, 0]: the zero vector, which cannot be normalized
ZERO_VECTOR_FILE = str(Path(__file__).parent / "data" / "zero_vector.json")


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


@settings(max_examples=30, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_parsers_round_trip_repr_of_finite_floats(x):
    assert cli.parse_complex(repr(x)) == complex(x)
    assert cli.parse_angle(repr(x)) == x


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_parse_complex_round_trips_repr_of_finite_complex(z):
    assert cli.parse_complex(repr(z)) == z


@pytest.mark.parametrize(
    "text", ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "nan+1j", "1+infj"])
def test_parsers_reject_non_finite_text(text):
    with pytest.raises(ValueError):
        cli.parse_complex(text)
    with pytest.raises(ValueError):
        cli.parse_angle(text)


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


# sha256 of the stdout of `quswap gate --name NAME --d D --format FORMAT`
GATE_DUMP_SHA256 = {
    ("cshift", 2, "json"): "607f4ee51bda343f6acf20e8d64ed0d200e5031a5bfc47690695c22560e591f6",
    ("cshift", 2, "csv"): "83d32d8ea7fcd9ed3328aa5771fadecddc903ace3dc37ce4ffeae0dc369bbeda",
    ("cshift", 5, "json"): "a952f214b4217b32b90c5b3b67bad9e5af5a75de9dfdd7cb0edd9af01c32c908",
    ("cshift", 5, "csv"): "af813665ff4f83fd069177475c7602c86052c3eaf694c12d3358e13cf917a95d",
    ("cshift", 16, "json"): "28a0d562d2abfcf5e4a29e27545a65da6fd44c47e20e4b2e2e7fb62bc2ed80cb",
    ("cshift", 16, "csv"): "a8dacb6b6889ba5a407a6372015b6ce2c1e3352cae41366849af03bb9920de65",
    ("cshift", 32, "json"): "b273a1256c12ebfce7a20afa22ba7f930972b6f7f93bd953ba4f95b5d414bbc0",
    ("cshift", 32, "csv"): "06e36f4afb5478345c622b0e9a3cf41651b9c220ef0bbb45dd41c294507ce0bc",
    ("cshift-rev", 2, "json"): "a635d6e1cd58b16db58cb1990325125a5a68f2307e4e49d7ec877af00f78886f",
    ("cshift-rev", 2, "csv"): "de9717ac68da0ad8166cb4fd5ae66a8427474907ca0e15efca85f9613ba4ce74",
    ("cshift-rev", 5, "json"): "faeedcfc3cb42b9b2b6fca700e5e70331d5e4562af401f91bc5e111b64b936f7",
    ("cshift-rev", 5, "csv"): "cacb6d53b06be229fdfea9b99cf1553324dc055bb7c22b9a777b004d270643d2",
    ("cshift-rev", 16, "json"): "1f551ceb7fe3f89f11cc8ec2cd5a33855e2454205ad7d61855ef6ca436f4757f",
    ("cshift-rev", 16, "csv"): "0d024bbcd6612fb7ee0f87911faad741adceec89d57074eb4f42183f6f277cc5",
    ("cshift-rev", 32, "json"): "2287458a85a80bbbacf920bac3c2f47ea0446e43000b554f1354525c3460e61f",
    ("cshift-rev", 32, "csv"): "d41b385ac996c7d9c5abb9bea79d4bc4470cd291071cfbf3cda7cf822a8c4d59",
    ("k", 2, "json"): "86c47a166fd661885fbf8dc7c54abf0f13ff88fa4a1668c32825be26bb914aac",
    ("k", 2, "csv"): "c2bb3dd12b78126f1b50f9e6fc053a09546df11bd916f0fcb8fa19bff5e56db6",
    ("k", 5, "json"): "b7750e7d91db296c6d32c4ee6f42ae69c0f1b2cb334e07283c5d00515b0b778b",
    ("k", 5, "csv"): "ae8173ba0c51a77269278039b223a88191fb76970d0fc8a3c19fa4446260e28a",
    ("k", 16, "json"): "2fc74f94bc5f8052bd5472ee6a399595a648629e4c4fefa49c736f222a2e99b1",
    ("k", 16, "csv"): "20a93522f569df595dc3b062ee49d52ce74132240757b0a010d5553ee1ac8fc6",
    ("k", 32, "json"): "e07b77f81ce435eec1141777890e7554fe286b9d28ea9ee56fc208ad1cc768da",
    ("k", 32, "csv"): "1b59f7111419332c6a4de055e13816b3521be3ff644331e1223a1a6c0a8dfd75",
    ("sigma1", 2, "json"): "eca4bfa86fd91ceccc8cca857a1586e00d44d6e57bd84adea7e4bade79f5f20f",
    ("sigma1", 2, "csv"): "cb2f1ed0186a639995c3fc4dc5038693866c2476b107fe33039c34669fbe3609",
    ("sigma1", 5, "json"): "fe70c1091335a3124dc1616b005dc7ef115a00bbdf16f49746096036a3e49cac",
    ("sigma1", 5, "csv"): "4e4f9316345c52adb5609d29813329a257a8a9fe5f8d2a9e0864c2678bc58595",
    ("sigma1", 16, "json"): "07d4cbebc14188664d2a447199491f6b7221f2dac9656bc9ce948015a69a1d9e",
    ("sigma1", 16, "csv"): "f18dc0c966b66a40260e0a8a64120f51b3c58c62af3716a0689c5f5f45aa9905",
    ("sigma1", 32, "json"): "382726f91bc50e8230c3b1d64955b2d738d21b741cfdcea9fcac8b7f7ab3532a",
    ("sigma1", 32, "csv"): "4fc94230783a4e0e2a33995595417a1aa9ed46aceba2f47c7fac2a8230acf944",
    ("sigma3", 2, "json"): "1482e40720362a3b402d1c3e85838937607568c503f54f40ad0776122e4d7fad",
    ("sigma3", 2, "csv"): "fdc0fae4f8053a300c9b4590ccc28c5589b8c64ee800540711a2226abc2b6b3c",
    ("sigma3", 5, "json"): "c0dddc01f81bb77fccb5e94b56d629291782f3d09b54177a84f97c7ab32266ea",
    ("sigma3", 5, "csv"): "e3d3f5d74cf9fa963a9ddc2869ae614c50f6a26fb0650d27613ea554a5272b33",
    ("sigma3", 16, "json"): "a135f3506e7f5c9ffc73681d91f524763922ede610d31cd0c6fade17680a43f5",
    ("sigma3", 16, "csv"): "a5c9115461b80231489263b354b1c79f2ce3a24853b4289664bb4f1c93adcd54",
    ("sigma3", 32, "json"): "7ba5c236444084e6fb997219749eb96dff5688afd45be9dae7387490ca42476c",
    ("sigma3", 32, "csv"): "2711b1e13007afb32f502331e41e4e99b642442da853937e122d5a4bdc216de4",
    ("swap", 2, "json"): "097a2c0cab029b507abb5eb401da7b1c56ac669a3b4c0c01e3999ac920661770",
    ("swap", 2, "csv"): "53eacb2d53a4af2b70168d800857aa99aa774065778a123dd12f3eb94609f7d7",
    ("swap", 5, "json"): "0915665dfef5343b305afc2b111a0c69261911e3223a7cf27e8fd4cc3a5a442b",
    ("swap", 5, "csv"): "a37824a771bd9be0c0f8b092c757b7acd6082cb836e2ebb79ac7edcba53feafa",
    ("swap", 16, "json"): "e555bb50bb0e6197d52259693878c34c1d4f50a3172afb770dd8d43292e775d1",
    ("swap", 16, "csv"): "fb30aebc480a5b78e150892cc2cd4a848cdfa1857b909f616734d5a28f71ec8a",
    ("swap", 32, "json"): "932e34932b6ceaf53feee485da22696c62aee00895965342f65925a2bb730444",
    ("swap", 32, "csv"): "82c622fabaed58d5ae3b6d219108ee117d598fb1b3c7aff996f0468ab2de3668",
    ("swap-composed", 2, "json"): "05f678b2ec0612966e554d311d082ef9d6f1236a25b326f7aa00d30567af40ae",
    ("swap-composed", 2, "csv"): "53eacb2d53a4af2b70168d800857aa99aa774065778a123dd12f3eb94609f7d7",
    ("swap-composed", 5, "json"): "c88e6966d879b6ff552d1c51aff7709440c7c182d916c113d801ccfd490758dd",
    ("swap-composed", 5, "csv"): "a37824a771bd9be0c0f8b092c757b7acd6082cb836e2ebb79ac7edcba53feafa",
    ("swap-composed", 16, "json"): "3b81d55d0151bde1b36217b579b8467ba07a1d794ceeea18cfcc89782141ab06",
    ("swap-composed", 16, "csv"): "fb30aebc480a5b78e150892cc2cd4a848cdfa1857b909f616734d5a28f71ec8a",
    ("swap-composed", 32, "json"): "9be9616fbabc21951da8544785e1ce00953c3ae703a4ced70c58c81e9f8d9d39",
    ("swap-composed", 32, "csv"): "82c622fabaed58d5ae3b6d219108ee117d598fb1b3c7aff996f0468ab2de3668",
}


@pytest.mark.parametrize("name,d,fmt", sorted(GATE_DUMP_SHA256))
def test_gate_output_bytes_are_pinned(name, d, fmt, capsys):
    code, out, _ = run_cli(capsys, "gate", "--name", name, "--d", str(d), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GATE_DUMP_SHA256[name, d, fmt]


# the float64 values a dump must tell apart: -0.0 is not +0.0, and a
# subnormal or a float near the range limit keeps its shortest repr
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(parts=st.integers(1, 6).flatmap(
    lambda n: st.lists(EDGE_FLOATS, min_size=2 * n * n, max_size=2 * n * n)))
def test_gate_writer_matches_whole_payload_serialization(parts):
    m = np.array(parts).view(complex)
    n = math.isqrt(m.size)
    m = m.reshape(n, n)
    gate = gates.QuditGate(n, m, "random")

    def dump(fmt):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(cli.GATE_BUILDERS, "swap", lambda d: gate)
            mp.setattr("sys.stdout", io.StringIO())
            assert cli.main(["gate", "--name", "swap", "--d", "2", "--format", fmt]) == 0
            return sys.stdout.getvalue()

    assert dump("json") == json.dumps({"gate": "random", "d": n, **cli.array_payload(m)}) + "\n"
    assert dump("csv") == "".join(
        ",".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row.tolist()) + "\n" for row in m)


class WriteRecorder(io.StringIO):
    """A text sink that keeps the length of every ``write`` call."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_gate_dump_is_written_one_row_at_a_time(fmt, monkeypatch):
    sink = WriteRecorder()
    monkeypatch.setattr("sys.stdout", sink)
    assert cli.main(["gate", "--name", "swap", "--d", "32", "--format", fmt]) == 0
    out = sink.getvalue()
    assert hashlib.sha256(out.encode()).hexdigest() == GATE_DUMP_SHA256["swap", 32, fmt]
    # each of the 1024 rows of the swap has the same length
    row, header = len(out) // 1024, len('{"gate": "swap", "d": 32, "dim": 1024, "entries": [')
    assert len(sink.lengths) >= 1024
    assert max(sink.lengths) <= row + header


@pytest.mark.parametrize("build", [
    lambda out: cli.main(["gate", "--name", "swap", "--d", "64", "--out", out]),
    lambda out: cli.main(["gate", "--name", "cshift-rev", "--d", "64", "--format", "csv",
                          "--out", out]),
    lambda out: gates.controlled_unitary(np.eye(64)),
    lambda out: gates.conjugated_controlled_unitary(np.eye(64)),
], ids=["swap-json", "cshift-rev-csv", "controlled-unitary", "conjugated-controlled-unitary"])
def test_d64_gates_are_built_without_a_dense_matrix(build, tmp_path):
    # a dense d^2-square complex matrix takes 256 MB at d = 64
    tracemalloc.start()
    try:
        build(str(tmp_path / "gate.out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
        ({}, ["exchange", "--z1", "1e200", "--z2", "0", "--n-max", "8"]),  # |z|^2 overflows
        ({}, ["clone", "--z", "1e200", "--t-abs", "0.5"]),
        ({}, ["clone", "--input", HUGE_INTEGER_FILE, "--t-abs", "0.5"]),
        ({}, ["clone", "--input", OVERFLOWING_NORM_FILE, "--t-abs", "0.3", "--n-max", "4"]),
        ({}, ["clone", "--input", ZERO_VECTOR_FILE, "--t-abs", "0.3", "--n-max", "4"]),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invalid_library_input_exits_2(env, argv, capsys, monkeypatch):
    # a ValueError escaping main would fail this test as a traceback, and so
    # would a numpy RuntimeWarning, which prints lines of its own
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    if "--input" in argv:
        assert argv[argv.index("--input") + 1] in err


@pytest.mark.parametrize("argv", [
    ["gate", "--name", "swap", "--d", "2"],
    ["verify", "--suite", "qudit", "--d-max", "2"],
], ids=["gate", "verify"])
def test_unwritable_out_path_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not path.exists()


def test_verify_out_is_opened_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    def run_suite(*args, **kwargs):
        pytest.fail("the suite ran although --out cannot be written")

    monkeypatch.setattr(cli.verify, "run_suite", run_suite)
    code, out, err = run_cli(capsys, "verify", "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_command_that_exits_2_leaves_out_file_empty(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "exchange", "--z1", "40", "--z2", "0", "--n-max", "8",
                         "--out", str(path))
    assert code == 2
    assert path.read_text() == ""


@pytest.mark.parametrize("argv,message", [
    (["gate", "--name", "swap", "--d", "1"], "--d must be in 2..64, got 1"),
    (["verify", "--d-max", "1"], "--d-max must be in 2..16, got 1"),
    (["clone", "--z", "0", "--t-abs", "0", "--n-max", "0"], "--n-max must be in 1..64, got 0"),
])
def test_bound_errors_name_their_flag(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("argv,advisory", [
    (["clone", "--z", "3", "--t-abs", "pi/4", "--n-max", "8"],
     "warning: |z|=3.000 exceeds the advisory bound sqrt(n_max)/4=0.707\n"),
    (["exchange", "--z1", "3", "--z2", "0.5", "--n-max", "8"],
     "warning: |z1|=3.000 exceeds the advisory bound sqrt(n_max)/4=0.707\n"),
    (["clone", "--z", "1", "--t-abs", "pi/4", "--n-max", "32"], ""),
])
def test_coherent_input_above_the_advisory_bound_warns(argv, advisory, capsys):
    # clone --z 3 at n_max 8 loses 0.544 of the input's weight to the cutoff
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["n_max"] == int(argv[-1])
    assert err == advisory


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_clone_renormalizes_a_norm_whose_squares_underflow(capsys):
    code, out, err = run_cli(capsys, "clone", "--input", UNDERFLOWING_NORM_FILE,
                             "--t-abs", "0.3", "--n-max", "4")
    assert code == 0
    assert err == "warning: input norm 1.41421e-200 != 1; renormalizing\n"
    payload = json.loads(out)
    state = np.array([complex(re, im) for re, im in payload["numeric"]["entries"]])
    x = np.array([1, 1]) / math.sqrt(2)
    from quswap import fock

    expected = fock.imperfect_clone_closed_form(x, 0.3, 4)
    assert np.allclose(state, expected, rtol=0, atol=1e-12)


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
