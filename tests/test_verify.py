import json
import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from quswap import core, fock, gates, verify


@pytest.fixture(scope="module")
def small_suite():
    return verify.run_suite("all", d_max=4, n_max=8)


def test_all_checks_pass(small_suite):
    failed = [r.check for r in small_suite if not r.passed]
    assert failed == []


def test_pass_flag_matches_metric(small_suite):
    for r in small_suite:
        if r.kind == "deviation":
            assert r.passed == (r.metric <= r.tolerance)
        else:
            assert r.passed == (r.metric >= r.tolerance)


def test_reports_are_sorted(small_suite):
    keys = [(r.check, json.dumps(r.to_dict()["params"])) for r in small_suite]
    assert keys == sorted(keys)


def test_report_serialization_matches_asdict(small_suite):
    # to_dict builds its keys directly; asdict, with the params sorted, is the reference.
    # json.dumps keeps key order, which dict equality ignores. The hand-built report has
    # a null metric and unsorted params, as a check that raised gives
    raised = verify.VerificationReport("c", {"n_max": 8, "error": "E: m", "d": 2}, "deviation",
                                       None, 0.0, False, 1.0)
    for r in [*small_suite, raised]:
        want = {**asdict(r), "params": dict(sorted(r.params.items()))}
        assert r.to_dict() == want and json.dumps(r.to_dict()) == json.dumps(want)
    assert '"params": {"d": 2, "error": "E: m", "n_max": 8}' in json.dumps(raised.to_dict())


def test_report_serialization_field_order(small_suite):
    d = small_suite[0].to_dict()
    assert list(d) == [
        "check", "params", "kind", "metric", "tolerance", "passed", "wall_ms",
    ]
    json.dumps(d)  # must be serializable


def test_a_check_that_raises_is_a_failed_report_naming_the_error():
    class Broken:
        @property
        def matrix(self):
            raise RuntimeError("first line\nsecond line")

    record = verify._Qudit(3)
    record["sigma1"] = Broken()
    report = verify.check_weyl_commutation(record)
    assert (report.passed, report.metric) == (False, None)
    assert report.params == {"d": 3, "error": "RuntimeError: first line"}
    # the checks that do not read the broken gate still pass
    assert verify.check_swap_decomposition(record).passed


def _without_wall_time(reports):
    out = []
    for r in reports:
        d = r.to_dict()
        d.pop("wall_ms")
        out.append(d)
    return out


def test_reports_deterministic_modulo_walltime():
    first = _without_wall_time(verify.run_suite("qudit", d_max=5))
    second = _without_wall_time(verify.run_suite("qudit", d_max=5))
    assert json.dumps(first) == json.dumps(second)


def test_fock_reports_equal_on_a_cold_and_a_warm_block_table():
    # the beamsplitter blocks' eigenpairs are kept per process; the second run reads them all
    fock._chain_spectrum.cache_clear()
    cold = _without_wall_time(verify.run_suite("fock", n_max=16))
    assert fock._chain_spectrum.cache_info().currsize > 0
    warm = _without_wall_time(verify.run_suite("fock", n_max=16))
    assert json.dumps(cold) == json.dumps(warm)


def test_suite_selection():
    qudit = verify.run_suite("qudit", d_max=3)
    assert all("n_max" not in r.params for r in qudit)
    fock_only = verify.run_suite("fock", n_max=4)
    assert all("d" not in r.params for r in fock_only)
    with pytest.raises(ValueError):
        verify.run_suite("nope")


@pytest.mark.parametrize("suite", ["qudit", "fock", "all"])
@pytest.mark.parametrize("sizes", [
    {"d_max": "junk"}, {"d_max": 1}, {"d_max": 2.5}, {"d_max": 10**400},
    {"n_max": "junk"}, {"n_max": 0}, {"n_max": 2.5}, {"n_max": 10**400},
], ids=["d-junk", "d-1", "d-2.5", "d-10**400", "n-junk", "n-0", "n-2.5", "n-10**400"])
def test_run_suite_reads_both_sizes_before_any_check(suite, sizes, monkeypatch):
    # a size the suite does not use is still a caller's error, raised before any check runs
    monkeypatch.setattr(verify, "_suite", lambda *args: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match="d_max|cutoff") as caught:
        verify.run_suite(suite, **{"d_max": 3, "n_max": 4, **sizes})
    assert "\n" not in str(caught.value)


@pytest.mark.parametrize("run", [
    lambda: verify.qudit_checks(0),
    lambda: verify.qudit_checks(1),
    lambda: verify.run_suite("qudit", d_max=1),
    lambda: verify.fock_checks(0),
    lambda: verify.qudit_checks(10**400),
    lambda: verify.fock_checks(10**400),
], ids=["qudit-0", "qudit-1", "suite-qudit-1", "fock-0", "qudit-10**400", "fock-10**400"])
def test_a_suite_that_would_check_nothing_is_rejected(run):
    # an empty report list would read as all passed; a size past numpy's index range raised
    # OverflowError
    with pytest.raises(ValueError):
        run()


@pytest.mark.parametrize("run", [
    lambda size: verify.qudit_checks(size),
    lambda size: verify.fock_checks(size),
    lambda size: verify.run_suite("all", d_max=size, n_max=size + 1),
], ids=["qudit", "fock", "suite-all"])
def test_suites_take_integral_float_sizes(run):
    # as every builder does; json.dumps tells 3.0 from 3, so the params must be ints
    def payload(reports):
        return json.dumps([{**r.to_dict(), "wall_ms": None} for r in reports])

    assert payload(run(3.0)) == payload(run(3))


@pytest.mark.parametrize("run", [verify.qudit_checks, verify.fock_checks], ids=["qudit", "fock"])
def test_suites_reject_fractional_sizes(run):
    with pytest.raises(ValueError, match="must be an integer"):
        run(2.5)


def test_exchange_convergence_ladder_respects_cutoff():
    report = verify.check_exchange_convergence(8)
    assert report.params["cutoffs"] == [8]
    assert report.passed


# the tolerance each check registers; the paper's identities are exact, so
# none of these may move
REGISTERED_TOLERANCES = {
    "weyl-commutation": 1e-13,
    "shift-adjoint-power": 0.0,
    "clock-adjoint-power": 1e-13,
    "swap-decomposition": 0.0,
    "swap-conjugation": 0.0,
    "basis-cloning": 0.0,
    "permutation-structure": 0.0,
    "ladder-commutators": 1e-13,
    "number-basis-orthonormality": 0.0,
    "beamsplitter-number-conservation": 1e-12,
    "exchange-convergence": 1e-12,
    "clone-closed-form-norm": 1e-10,
    "clone-oracle-equivalence": 1 - 1e-8,
    "clone-coherent-marginal": 1 - 1e-8,
}


def test_tolerances_are_fixed_in_their_checks(monkeypatch):
    # QUSWAP_TOL once loosened clone-closed-form-norm; no setting of it may change a report
    payloads = []
    for raw in (None, "1.0", "abc"):
        if raw is None:
            monkeypatch.delenv("QUSWAP_TOL", raising=False)
        else:
            monkeypatch.setenv("QUSWAP_TOL", raw)
        reports = verify.run_suite("all", d_max=4, n_max=8)
        assert {r.check for r in reports} == set(REGISTERED_TOLERANCES)
        assert all(r.tolerance == REGISTERED_TOLERANCES[r.check] for r in reports)
        payloads.append([{**r.to_dict(), "wall_ms": None} for r in reports])
    assert payloads[0] == payloads[1] == payloads[2]


def test_suites_run_their_checks_in_registration_order():
    assert [r.check for r in verify.qudit_checks(2)] == [
        "weyl-commutation", "shift-adjoint-power", "clock-adjoint-power",
        "swap-decomposition", "swap-conjugation", "basis-cloning", "permutation-structure",
    ]
    assert [r.check for r in verify.fock_checks(4)] == [
        "ladder-commutators", "number-basis-orthonormality",
        "beamsplitter-number-conservation", "exchange-convergence",
        "clone-closed-form-norm", "clone-oracle-equivalence", "clone-coherent-marginal",
    ]


def test_number_conservation_check_never_builds_the_dense_matrix():
    # the dense (65^2)-square beamsplitter alone would take 285 MB
    tracemalloc.start()
    try:
        report = verify.check_beamsplitter_number_conservation(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.metric == 0.0
    assert peak < 50 * 2**20


def test_qudit_checks_at_d64_never_build_a_two_qudit_matrix():
    # one dense 4096-square gate alone would take 268 MB
    tracemalloc.start()
    try:
        reports = verify._suite("qudit", verify._Qudit(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.check for r in reports if not r.passed] == []
    assert peak < 50 * 2**20


def test_qudit_checks_build_each_gate_once_per_d(monkeypatch):
    # seven checks read the seven gates of a d; rebuilding them per check took 15 builds per d
    calls = dict.fromkeys(gates.GATES, 0)
    for label, build in list(gates.GATES.items()):
        def counted(d, label=label, build=build):
            calls[label] += 1
            return build(d)
        monkeypatch.setitem(gates.GATES, label, counted)
    assert all(r.passed for r in verify.qudit_checks(8))
    assert calls == dict.fromkeys(gates.GATES, 7)  # once for each d in 2..8


def test_number_conservation_check_fails_on_a_block_across_totals(monkeypatch):
    n_max = 2
    cut = fock.FockCutoff(n_max)
    # |0,0> (total 0) and |0,1> (total 1) mixed by one unitary block
    mixing = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    rest = np.arange(2, cut.dim2)
    pair = np.array([0, 1])
    blocks = [(pair, pair, mixing), (rest, rest, np.eye(len(rest)))]
    monkeypatch.setattr(fock, "beamsplitter", lambda t, cutoff: (
        fock.ModeOperator._from_groups(blocks, "mixing", cutoff=cut)))
    report = verify.check_beamsplitter_number_conservation(n_max)
    assert report.passed is False
    assert report.metric == pytest.approx(1 / np.sqrt(2))


# the labels of the six gates kept as one index map: every gate of the table but sigma3
PERMUTATION_BUILDERS = tuple(label for label in gates.GATES if label != "sigma3")


def _per_gate_permutation_structure(d: int) -> bool:
    """``permutation-structure`` as a loop over the gates, one sort per map: the reference."""
    ok = True
    for gate in (gates.GATES[label](d) for label in PERMUTATION_BUILDERS):
        (rows, cols, values), *rest = gate._groups
        every = np.arange(gate.dim)  # rows and cols must each be a permutation of it
        ok = ok and not rest and values.ndim == 1 and bool(np.all(values == 1)) and all(
            np.array_equal(np.sort(ix), every) for ix in (rows, cols))
    return ok


def _repeated(ix: np.ndarray) -> np.ndarray:
    out = ix.copy()
    out[1] = out[0]
    return out


def _dense(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    block = np.zeros((len(rows), len(rows)), dtype=complex)
    block[rows, cols] = values
    return block


def _phased(values: np.ndarray) -> np.ndarray:
    out = values.copy()
    out[-1] = 1j  # unit modulus, so the gate stays unitary
    return out


# each defect turns one gate's (rows, cols, values) store into a wrong store
STORE_DEFECTS = {
    "second-group": lambda r, c, v: [(r[:1], c[:1], v[:1]), (r[1:], c[1:], v[1:])],
    "2d-block": lambda r, c, v: [(c, c, _dense(r, c, v))],  # the same gate, as one block
    "repeated-row": lambda r, c, v: [(_repeated(r), c, v)],
    "repeated-col": lambda r, c, v: [(r, _repeated(c), v)],
    "value-not-one": lambda r, c, v: [(r, c, _phased(v))],
    "one-entry-short": lambda r, c, v: [(r[1:], c[1:], v[1:])],
}


def _with_store(monkeypatch, label: str, defect) -> None:
    """Make ``gates.GATES[label]`` return its gate kept as ``defect`` of its store."""
    build = gates.GATES[label]

    def wrong(d):
        gate = build(d)
        (store,) = gate._groups
        return gates.QuditGate._from_groups(defect(*store), gate.label, d=gate.d)

    monkeypatch.setitem(gates.GATES, label, wrong)


@pytest.mark.parametrize("label", PERMUTATION_BUILDERS,
                         ids=lambda label: gates.GATES[label].__name__)  # the builder's name
@pytest.mark.parametrize("defect", STORE_DEFECTS)
def test_stacked_permutation_check_fails_where_the_per_gate_loop_fails(defect, label, monkeypatch):
    _with_store(monkeypatch, label, STORE_DEFECTS[defect])
    for d in (2, 3, 8):
        assert _per_gate_permutation_structure(d) is False
        assert verify.check_permutation_structure(verify._Qudit(d)).passed is False


def test_stacked_permutation_check_fails_on_a_short_store_that_permutes_its_own_length(
        monkeypatch):
    # the swap sends its last index to itself, so dropping it leaves a permutation of
    # d^2 - 1 indices: the per-gate loop took that length as the gate's and passed it
    _with_store(monkeypatch, "swap", lambda r, c, v: [(r[:-1], c[:-1], v[:-1])])
    assert _per_gate_permutation_structure(5) is True
    assert verify.check_permutation_structure(verify._Qudit(5)).passed is False


def test_stacked_and_per_gate_permutation_checks_pass_at_every_d():
    for d in range(2, 65):
        assert _per_gate_permutation_structure(d) is True
        report = verify.check_permutation_structure(verify._Qudit(d))
        assert report.passed and report.metric == 0.0


def test_only_the_fock_checks_silence_truncation_warnings(monkeypatch):
    fock_checks = [check for (suite, _), check in verify._CHECKS.items() if suite == "fock"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", fock.TruncationWarning)
        for n_max in (1, 2, 8):  # coherent probes at these cutoffs lose weight and warn
            # a warning that escaped a check would be an error, and so a failed report
            assert all(r.passed for r in verify.fock_checks(n_max))
            for check in fock_checks:
                assert check(n_max).passed
    filters = warnings.filters
    before = list(filters)
    verify.qudit_checks(8)
    assert warnings.filters is filters and warnings.filters == before

    # each qudit check hands a warning raised inside its body, here on reading a gate, on to
    # its caller
    class WarningGate:
        def __init__(self, gate):
            self.gate = gate

        def __getattr__(self, name):
            warnings.warn("read", fock.TruncationWarning)
            return getattr(self.gate, name)

    q = verify._Qudit(3)
    q.update({label: WarningGate(gate) for label, gate in q.items()})
    for (suite, _), check in verify._CHECKS.items():
        if suite == "qudit":
            with pytest.warns(fock.TruncationWarning, match="read"):
                assert check(q).passed

    # and the qudit suite hands on a warning from a gate build
    sigma1 = gates.sigma1

    def warning_sigma1(d):
        warnings.warn("probe", fock.TruncationWarning)
        return sigma1(d)

    monkeypatch.setitem(gates.GATES, "sigma1", warning_sigma1)
    with pytest.warns(fock.TruncationWarning, match="probe"):
        verify.qudit_checks(3)


def _clone_metrics_one_state_at_a_time(n_max: int) -> tuple[float, float]:
    """The metrics of the two clone checks, with one clone call per state and strength."""
    def states(seed: int, count: int, support: int):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            v = np.zeros(n_max + 1, dtype=complex)
            v[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(support + 1)
            yield v / np.linalg.norm(v)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        norm = max([0.0, *(abs(np.linalg.norm(fock.imperfect_clone_closed_form(x, t_abs, n_max)) - 1.0)
                           for x in states(20240601, 20, n_max) for t_abs in (0.3, math.pi / 4, 1.2))])
        t = 0.7 * np.exp(0.4j)
        fid = min([1.0, *(core.fidelity(fock.imperfect_clone_closed_form(x, t, n_max),
                                        fock.imperfect_clone_numeric(x, t, n_max))
                          for x in states(20240602, 100, n_max // 2))])
    return norm, fid


@pytest.mark.parametrize("n_max", [1, 2, 3, 6, 8, 16, 32, 64])
def test_clone_check_metrics_keep_the_bits_of_one_call_per_state(n_max):
    # the checks pass their states as stacks; a column read with a stride moves the last bit
    norm, fid = _clone_metrics_one_state_at_a_time(n_max)
    assert verify.check_clone_closed_form_norm(n_max).metric == norm
    assert verify.check_clone_oracle_equivalence(n_max).metric == fid


def test_clone_oracle_check_builds_each_block_once_per_stack(monkeypatch):
    # 100 states on levels 0..16 at n_max 32, in four stacks: one build per state
    # would diagonalize 100 x 17 blocks, the table diagonalizes each of the 17 once
    fock._chain_spectrum.cache_clear()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    assert verify.check_clone_oracle_equivalence(32).passed
    assert len(calls) == 17


def test_clone_oracle_check_memory_at_n_max_64():
    # one stack of all 100 outputs would peak near 13 MB
    tracemalloc.start()
    try:
        report = verify.check_clone_oracle_equivalence(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * 2**20


def test_clone_check_fails_when_the_beamsplitter_blocks_are_wrong(monkeypatch):
    # conjugating t flips theta in the block phases P; the clone phases its column with
    # the same phase step as the beamsplitter's blocks, so the oracle check must see it
    t = 0.7 * np.exp(0.4j)
    right = fock.beamsplitter(t, 4).matrix
    phases = fock._phases
    monkeypatch.setattr(fock, "_phases", lambda steps, phase, c: phases(steps, -phase, c))
    assert not np.allclose(fock.beamsplitter(t, 4).matrix, right)
    assert verify.check_clone_oracle_equivalence(8).passed is False


NO_CHECK_YET = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: no check yet")


def _fault(name: str, old: str, new: str, failing: list[str], **kwargs):
    """A fault of a module's source and the sorted checks it fails, all named in its test id."""
    return pytest.param(old, new, failing, id=":".join([name, *failing]), **kwargs)


# a fault that no check catches yet is an xfail, so that the change that adds
# its check must flip it
FOCK_FAULTS = [
    _fault("exchange-v2-without-pi", "_mode_phases(theta + math.pi, c)",
           "_mode_phases(theta, c)", ["exchange-convergence"]),
    _fault("block-modulus-negated", "np.exp(-1j * modulus * np.concatenate(",
           "np.exp(1j * modulus * np.concatenate(",
           ["clone-coherent-marginal", "clone-oracle-equivalence", "exchange-convergence"]),
    _fault("block-phase-negated", "_mode_phases(phase + math.pi / 2, c)",
           "_mode_phases(-phase + math.pi / 2, c)",
           ["clone-oracle-equivalence"]),
    _fault("clone-v2-without-pi", "_mode_phases(phase + math.pi, c)",
           "_mode_phases(phase, c)", ["clone-coherent-marginal", "clone-oracle-equivalence"]),
    _fault("exchange-v1-theta-sign", "_mode_phases(-theta, c)",
           "_mode_phases(theta, c)", [], marks=NO_CHECK_YET),
    _fault("exchange-not-half-wave", "t = (math.pi / 2) * complex",
           "t = (0.49 * math.pi) * complex", [], marks=NO_CHECK_YET),
    _fault("coherent-state-conjugated", "amp[n - 1] * z / math.sqrt(n)",
           "amp[n - 1] * z.conjugate() / math.sqrt(n)", [], marks=NO_CHECK_YET),
    # test_exchange_clone.py::test_mode2_marginal_of_complex_states catches this one
    _fault("mode2-marginal-transposed", "v.T @ v.conj()", "v.T.conj() @ v", [], marks=NO_CHECK_YET),
    # amp[1] is never written, so every coherent state is the vacuum
    _fault("coherent-state-vacuum", "for n in range(1, c.dim):", "for n in range(2, c.dim):", [],
           marks=NO_CHECK_YET),
    _fault("closed-form-modes-swapped", "cos_t**n * sin_t**m", "sin_t**n * cos_t**m",
           ["clone-oracle-equivalence"]),
    # the two faults below make a check raise, on fidelity's norm guard; its report fails
    _fault("exchange-blocks-divide-core", "rows[part] * (left[part] * core * right[part])",
           "rows[part] * (left[part] / core * right[part])", ["exchange-convergence"]),
    _fault("closed-form-without-sqrt", "math.sqrt(math.comb(total, n))", "math.comb(total, n)",
           ["clone-closed-form-norm", "clone-oracle-equivalence"]),
]


@pytest.mark.parametrize("old,new,failing", FOCK_FAULTS)
def test_fock_checks_catch_a_wrong_fock(old, new, failing, monkeypatch, module_with):
    monkeypatch.setattr(verify, "fock", module_with(fock, old, new))
    caught = sorted(r.check for r in verify.fock_checks(16) if not r.passed)
    assert caught, "no fock check fails"
    assert caught == failing


NO_QUDIT_CHECK_YET = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: no check yet")

QUDIT_FAULTS = [
    _fault("sigma1-backwards", "(i + 1) % n", "(i - 1) % n", ["weyl-commutation"]),
    _fault("clock-conjugated", "np.exp(2j * np.pi * k / n)", "np.exp(-2j * np.pi * k / n)",
           ["weyl-commutation"]),
    _fault("reverse-is-identity", "k = -i % n", "k = i % n", ["swap-decomposition"]),
    _fault("cshift-subtracts", "a * n + (a + b) % n", "a * n + (a - b) % n",
           ["swap-decomposition"]),
    _fault("cshift-rev-subtracts", "(a + b) % n * n + b", "(a - b) % n * n + b",
           ["swap-decomposition"]),
    _fault("swap-composed-without-1xk", '[k1[cs[_index_map(n, "1 x k", levels)]]]', "[k1[cs]]",
           ["swap-decomposition"]),
    _fault("cshift-not-a-bijection", "a * n + (a + b) % n", "a * n + (a * b) % n",
           ["basis-cloning", "permutation-structure", "swap-decomposition"]),
    _fault("permutation-values-negated", "ones = np.ones(", "ones = -np.ones(",
           ["basis-cloning", "permutation-structure", "shift-adjoint-power"]),
    _fault("controlled-u-transposed", "blocks.append((idx, idx, power))",
           "blocks.append((idx, idx, power.T))", [], marks=NO_QUDIT_CHECK_YET),
    _fault("controlled-u-adjoint-powers", "power = u @ power", "power = u.conj().T @ power", [],
           marks=NO_QUDIT_CHECK_YET),
    _fault("conjugated-cols-not-relabelled", "(p[rows], p[cols], block)", "(p[rows], cols, block)",
           [], marks=NO_QUDIT_CHECK_YET),
    _fault("conjugated-block-transposed", "(p[rows], p[cols], block)",
           "(p[rows], p[cols], block.T)", [], marks=NO_QUDIT_CHECK_YET),
]


@pytest.mark.parametrize("old,new,failing", QUDIT_FAULTS)
def test_qudit_checks_catch_a_wrong_gates(old, new, failing, monkeypatch, module_with):
    monkeypatch.setattr(verify, "gates", module_with(gates, old, new))
    # one report per d and check, so a failing check is named once
    caught = sorted({r.check for r in verify.qudit_checks(8) if not r.passed})
    assert caught, "no qudit check fails"
    assert caught == failing
