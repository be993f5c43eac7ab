"""Spans around calls into quswap's public functions, and per-layer metrics from them.

``Tracer.install`` wraps every public function of ``quswap.core``, ``gates``,
``fock``, ``verify`` and ``cli`` in every namespace that binds it: ``fock``
binds ``mat_exp`` and ``cli`` binds ``fidelity`` and ``tensor_state`` through
``from .core import ...``, and ``cli.GATE_BUILDERS`` holds the gate builders,
so wrapping ``quswap.core`` alone would miss those nested calls. Spans stay
in memory and are written out when the process ends.

This module imports only the standard library, so that a traced process
can time ``import quswap`` itself.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("core", "gates", "fock", "verify", "cli")
# Called once per matrix entry while a gate is serialized; a span per entry
# would cost more than the work. Its time stays in the caller's self time.
UNTRACED = {"quswap.cli.complex_pair"}
SIZE_PARAMS = (("d", "d"), ("cutoff", "n"), ("n_max", "n"))  # parameter, label prefix

# span fields
NAME, SIZE, OP, PARENT, START, END, ERROR, PEAK = range(8)


def _size_getter(layer: str, name: str, fn):
    """Return f(args, kwargs) giving the span's size label, or None."""
    if layer == "cli" and name == "main":
        return lambda args, kwargs: args[0][0]  # the subcommand of main(argv)
    if layer == "core" and name == "mat_exp":
        return lambda args, kwargs: len(args[0])
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    for param, prefix in SIZE_PARAMS:
        if param in params:
            pos = params.index(param)

            def size(args, kwargs, pos=pos, param=param, prefix=prefix):
                v = args[pos] if len(args) > pos else kwargs.get(param)
                return f"{prefix}{getattr(v, 'n_max', getattr(v, 'd', v))}"
            return size
    return None


class Tracer:
    """Records spans [name, size, op, parent, start, end, error, peak_bytes].

    With ``alloc`` set, each span also records its tracemalloc peak above
    the allocation level at its start; that pass is kept apart from the
    timed ones because tracemalloc slows every allocation.
    """

    def __init__(self, alloc: bool = False):
        self.spans: list[list] = []
        self.op = None
        self.alloc = alloc
        self._stack: list[int] = []
        self._base: dict[int, int] = {}

    def begin(self, name: str, size=None) -> int:
        idx = len(self.spans)
        if self.alloc:
            self._fold_peak()
            self._base[idx] = tracemalloc.get_traced_memory()[0]
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, size, self.op, parent, time.perf_counter(), None, False, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ERROR] = error
        if self.alloc:
            self._fold_peak()
            del self._base[idx]
        self._stack.pop()

    def _fold_peak(self) -> None:
        """Charge the allocation peak since the last span event to every open span."""
        peak = tracemalloc.get_traced_memory()[1]
        for i in self._stack:
            self.spans[i][PEAK] = max(self.spans[i][PEAK], peak - self._base[i])
        tracemalloc.reset_peak()

    def wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        size_of = _size_getter(layer, name, fn)

        def traced(*args, **kwargs):
            idx = self.begin(span_name, size_of(args, kwargs) if size_of else None)
            error = True
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                self.end(idx, error)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import quswap

        modules = {layer: importlib.import_module(f"quswap.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or f"{mod.__name__}.{name}" in UNTRACED):
                    continue
                wrapped[id(obj)] = self.wrap(layer, name, obj)
        for ns in (quswap, *modules.values()):
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    setattr(ns, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

P50_SPANS = (
    ("gates.swap_composed", "d8"), ("gates.swap_composed", "d16"), ("gates.swap_composed", "d32"),
    ("gates.swap_direct", "d32"), ("gates.controlled_shift", "d32"),
    ("fock.beamsplitter", "n8"), ("fock.beamsplitter", "n16"), ("fock.beamsplitter", "n32"),
    ("fock.exchange_protocol", "n32"), ("fock.imperfect_clone_numeric", "n32"),
    ("fock.imperfect_clone_closed_form", "n32"), ("fock.coherent_state", "n32"),
    ("cli.main", "gate"), ("cli.main", "verify"), ("cli.main", "exchange"), ("cli.main", "clone"),
)
VERIFY_CHECKS = (
    "check_weyl_commutation", "check_shift_adjoint_power", "check_clock_adjoint_power",
    "check_swap_decomposition", "check_swap_conjugation", "check_basis_cloning",
    "check_permutation_structure", "check_ladder_commutators", "check_number_basis",
    "check_beamsplitter_number_conservation", "check_exchange_convergence",
    "check_clone_closed_form_norm", "check_clone_oracle_equivalence",
    "check_clone_coherent_marginal",
)
ALLOC_LAYERS = ("gates", "fock", "verify")


def _ancestors(spans: list, idx: int):
    parent = spans[idx][PARENT]
    while parent is not None:
        yield parent
        parent = spans[parent][PARENT]


def layer_metrics(traced: list[list], allocs: list[list], lib_session_s: float) -> dict:
    """Per-layer metrics from the span lists of traced and allocation-tracked processes.

    A layer's self time is its spans' durations minus the time their child
    spans cover. Ops are named ``lib:<i>`` for library calls and ``cli:<i>``
    for CLI invocations. A metric whose span never ran reads 0.
    """
    tally = {layer: [0, 0.0, 0] for layer in LAYERS}  # calls, self seconds, errors
    durations = defaultdict(list)
    check_ms = defaultdict(lambda: defaultdict(float))
    mat_exp = {"self_s": 0.0, "max_dim": 0, "lib_under_bs_s": 0.0}
    cache = {"calls": 0, "hits": 0}
    for spans in traced:
        own = [s[END] - s[START] for s in spans]
        with_fock_child = set()
        for i, s in enumerate(spans):
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
            if s[NAME].startswith("fock."):
                with_fock_child.update(_ancestors(spans, i))
        for i, s in enumerate(spans):
            name, layer, dur = s[NAME], s[NAME].split(".")[0], s[END] - s[START]
            if layer not in tally:
                continue
            tally[layer][0] += 1
            tally[layer][1] += own[i]
            tally[layer][2] += bool(s[ERROR])
            durations[(name, s[SIZE])].append(dur)
            short = name.split(".", 1)[1]
            if short in VERIFY_CHECKS:
                check_ms[short][s[OP]] += dur * 1e3
            if short.startswith("cached_"):
                cache["calls"] += 1
                cache["hits"] += i not in with_fock_child
            if name == "core.mat_exp":
                mat_exp["self_s"] += own[i]
                mat_exp["max_dim"] = max(mat_exp["max_dim"], s[SIZE])
                if str(s[OP]).startswith("lib") and any(
                        spans[a][NAME] == "fock.beamsplitter" for a in _ancestors(spans, i)):
                    mat_exp["lib_under_bs_s"] += own[i]
    m = {}
    for layer, (calls, self_s, errors) in tally.items():
        m[f"{layer}.calls"], m[f"{layer}.self_s"], m[f"{layer}.errors"] = calls, self_s, errors
    m["core.mat_exp.calls"] = sum(len(v) for (n, _), v in durations.items() if n == "core.mat_exp")
    m["core.mat_exp.self_s"] = mat_exp["self_s"]
    m["core.mat_exp.max_dim"] = mat_exp["max_dim"]
    m["core.mat_exp.lib_share"] = mat_exp["lib_under_bs_s"] / lib_session_s if lib_session_s else 0.0
    for name, size in P50_SPANS:
        samples = durations.get((name, size))
        m[f"{name}.{size}.p50_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
    m["fock.beamsplitter.calls"] = sum(len(v) for (n, _), v in durations.items()
                                       if n == "fock.beamsplitter")
    for check in VERIFY_CHECKS:
        per_op = check_ms.get(check)
        m[f"verify.{check}.ms"] = statistics.median(per_op.values()) if per_op else 0.0
    m["verify.cache_calls"], m["verify.cache_hits"] = cache["calls"], cache["hits"]
    for layer in ALLOC_LAYERS:
        peaks = [s[PEAK] for spans in allocs for s in spans if s[NAME].startswith(layer + ".")]
        m[f"{layer}.peak_alloc_mb"] = max(peaks, default=0) / 2**20
    return m
