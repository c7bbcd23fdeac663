"""Span recording around kreinspec's public functions, installed from outside.

``instrument(tracer)`` replaces every public function of the layer modules,
in every kreinspec namespace that binds it, by a wrapper that records a
span; it also wraps ``scipy.sparse.linalg.splu`` so that sparse LU
factorizations and their triangular solves become spans of their own.
``restore`` puts every original attribute back.  Spans stay in memory
until the run ends; ``layer_metrics`` reduces them to per-layer counts,
busy times and self times.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

import scipy.sparse.linalg

LAYERS = ("krein", "tensorsum", "transversal", "waveguide2d", "realsets", "cli")


class NullTracer:
    """Untraced passes: the same calls as Tracer, recording nothing."""

    def count(self, name, value=1):
        pass

    @contextlib.contextmanager
    def unit_scope(self, unit):
        yield


class Tracer(NullTracer):
    """In-memory span recorder.

    A span is a dict with name, start, end (perf_counter seconds), the
    index of its parent span, the id of the unit it belongs to, and
    optional attributes set by hooks (an error class, argument counts).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._unit = None

    def count(self, name, value=1):
        self.counters[name] += value

    @contextlib.contextmanager
    def unit_scope(self, unit):
        prev, self._unit = self._unit, unit
        try:
            yield
        finally:
            self._unit = prev

    @contextlib.contextmanager
    def span(self, name):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "unit": self._unit}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# Hooks: attributes taken from a call's arguments or result
# ---------------------------------------------------------------------------

def _campaign_totals(fn, args, kwargs, result):
    return {"instances": len(result.instances),
            "dim_max": max((r["dim"] for r in result.instances), default=0),
            "violations": result.total_violations,
            "oracle_failures": result.total_failures,
            "unmatched": result.total_unmatched}


def _riesz_nodes(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"nodes": int(bound.arguments["nodes"])}


# name -> hook(fn, args, kwargs, result) giving attributes for the span
HOOKS = {
    "krein.riesz_projection": _riesz_nodes,
    "krein.classify_spectrum": lambda fn, a, k, result: {"entries": len(result)},
    "tensorsum.run_campaign": _campaign_totals,
    "transversal.secular_roots": lambda fn, a, k, result: {"roots": len(result)},
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            if hook is not None:
                rec.update(hook(fn, args, kwargs, result))
            return result
    return wrapper


class _TracedLU:
    """SuperLU stand-in whose solves are spans; everything else delegates."""

    def __init__(self, tracer: Tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, rhs, trans="N"):
        with self._tracer.span("lu.solve") as rec:
            x = self._lu.solve(rhs, trans=trans)
            # computed, not measured: every stored factor entry (value plus
            # int32 index) is read once, the right-hand side read, x written
            rec["bytes"] = (self._lu.nnz * (x.itemsize + 4)
                            + 2 * x.size * x.itemsize)
            return x

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def span_cost_s() -> float:
    """Seconds one wrapper adds to a call: the median, over seven batches of
    2000 calls, of a wrapped minus a bare call of a no-op, on a throwaway
    tracer."""
    def noop():
        return None

    wrapped = _wrap(Tracer(), "calibration", noop)
    costs = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(2000):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(2000):
            noop()
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / 2000)
    return statistics.median(costs)


def _wrap_splu(tracer: Tracer, splu):
    @functools.wraps(splu)
    def wrapper(*args, **kwargs):
        with tracer.span("lu.factor") as rec:
            lu = splu(*args, **kwargs)
            rec["fill_nnz"] = int(lu.nnz)
        return _TracedLU(tracer, lu)
    return wrapper


def _kreinspec_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "kreinspec" or name.startswith("kreinspec.")]


def instrument(tracer: Tracer) -> list:
    """Wrap the layers' public functions everywhere kreinspec binds them.

    Returns the patch list that ``restore`` undoes.  Callers must reach
    kreinspec through module attributes (``kreinspec.run_campaign``), not
    names imported before this call.
    """
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"kreinspec.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = (fn, _wrap(tracer, f"{layer}.{attr}", fn))
    patches = []
    try:
        for ns in _kreinspec_namespaces():
            for attr, value in list(vars(ns).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((ns, attr, value))
                    setattr(ns, attr, entry[1])
        patches.append((scipy.sparse.linalg, "splu", scipy.sparse.linalg.splu))
        scipy.sparse.linalg.splu = _wrap_splu(tracer, scipy.sparse.linalg.splu)
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list) -> None:
    for ns, attr, value in reversed(patches):
        setattr(ns, attr, value)


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _duration(s):
    return s["end"] - s["start"]


def _tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it;
    the maximum (reported as p100) when there are too few samples."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return 100, max(values, default=0.0)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)} from the recorded spans.

    busy_s sums a function's outermost spans (recursion is not counted
    twice); self_s subtracts the time covered by direct child spans.
    """
    spans = tracer.spans
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _duration(s)

    def ancestors(i):
        p = spans[i]["parent"]
        while p is not None:
            yield spans[p]
            p = spans[p]["parent"]

    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(_duration(spans[i]) for i in by_name[name]
                   if all(a["name"] != name for a in ancestors(i)))

    def self_time(name):
        return sum(_duration(spans[i]) - children[i] for i in by_name[name])

    def ms(name):
        return [1e3 * _duration(spans[i]) for i in by_name[name]]

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls_busy(name):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.busy_s", busy(name), "s")

    # krein
    cp = ms("krein.classify_point")
    put("krein.classify_point.calls", len(cp), "count")
    put("krein.classify_point.busy_s", busy("krein.classify_point"), "s")
    put("krein.classify_point.self_s", self_time("krein.classify_point"), "s")
    put("krein.classify_point.p50_ms", statistics.median(cp) if cp else 0.0, "ms")
    tail_p, tail_v = _tail(cp)
    put("krein.classify_point.tail_ms", tail_v, "ms")
    put("krein.classify_point.tail_pct", tail_p, "%")
    calls_busy("krein.riesz_projection")
    put("krein.riesz_projection.resolvent_solves",
        sum(spans[i].get("nodes", 0) for i in by_name["krein.riesz_projection"]),
        "count")
    classifiers = ("krein.classify_point", "krein.classify_spectrum")
    attempts = sum(1 for i in by_name["krein.riesz_projection"]
                   if any(a["name"] in classifiers for a in ancestors(i)))
    clusters = (sum(1 for i in by_name["krein.classify_point"]
                    if "error" not in spans[i])
                + sum(spans[i].get("entries", 0)
                      for i in by_name["krein.classify_spectrum"]))
    put("krein.contour_attempts_per_cluster",
        attempts / clusters if clusters else 0.0, "ratio")
    for fn in ("classify_spectrum", "definiteness_constants",
               "validate_involution"):
        calls_busy(f"krein.{fn}")

    # tensorsum
    put("tensorsum.run_campaign.busy_s", busy("tensorsum.run_campaign"), "s")
    calls_busy("tensorsum.random_jsa_factor")
    campaign_draws = sum(1 for i in by_name["tensorsum.random_jsa_factor"]
                         if any(a["name"] == "tensorsum.run_campaign"
                                for a in ancestors(i)))
    campaigns = [spans[i] for i in by_name["tensorsum.run_campaign"]
                 if "instances" in spans[i]]
    instances = sum(c["instances"] for c in campaigns)
    # two factors per draw, so one accepted draw per instance reads 1.0
    put("tensorsum.draws_per_instance",
        campaign_draws / (2 * instances) if instances else 0.0, "ratio")
    name = "tensorsum.oracle_classify_and_compare"
    calls_busy(name)
    put(f"{name}.self_s", self_time(name), "s")
    for fn in ("kron_sum", "predict_types", "predict_m_sets", "make_factor_spec"):
        calls_busy(f"tensorsum.{fn}")
    put("tensorsum.sum_dim_max", max((c["dim_max"] for c in campaigns), default=0),
        "count")
    for key in ("violations", "oracle_failures", "unmatched"):
        put(f"tensorsum.{key}", sum(c[key] for c in campaigns), "count")

    # waveguide2d
    for fn in ("assemble_waveguide", "pseudospectrum_map", "eigs_near"):
        calls_busy(f"waveguide2d.{fn}")
    node = ms("waveguide2d.pseudospectrum_map")
    put("waveguide2d.node.p50_ms", statistics.median(node) if node else 0.0, "ms")
    put("waveguide2d.node.max_ms", max(node, default=0.0), "ms")
    solves = by_name["lu.solve"]
    put("waveguide2d.lu.factorizations", calls("lu.factor"), "count")
    put("waveguide2d.lu.factor_busy_s", busy("lu.factor"), "s")
    put("waveguide2d.lu.solves", len(solves), "count")
    put("waveguide2d.lu.solve_busy_s", busy("lu.solve"), "s")
    put("waveguide2d.lu.fill_nnz",
        max((spans[i]["fill_nnz"] for i in by_name["lu.factor"]), default=0),
        "count")
    per_node = Counter()
    for i in solves:
        for a in ancestors(i):
            if a["name"] == "waveguide2d.pseudospectrum_map":
                per_node[id(a)] += 1
                break
    put("waveguide2d.lu.solves_per_node_max", max(per_node.values(), default=0),
        "count")
    put("waveguide2d.lu_solve.bytes_computed",
        sum(spans[i]["bytes"] for i in solves), "B")

    # transversal
    for fn in ("robin_fd", "transversal_modes", "secular_roots", "branch_curves",
               "waveguide_m_sets", "longitudinal_spectrum"):
        calls_busy(f"transversal.{fn}")
    put("transversal.secular_roots.roots",
        sum(spans[i].get("roots", 0) for i in by_name["transversal.secular_roots"]),
        "count")

    # realsets: set_ops are the interval-algebra kernels behind
    # RealLineSet.union/intersect/subtract and canonicalisation
    calls_busy("realsets.minkowski_add_points")
    ops = by_name["realsets.combine"] + by_name["realsets.normalize"]
    put("realsets.set_ops.calls", len(ops), "count")
    put("realsets.set_ops.busy_s",
        sum(_duration(spans[i]) for i in ops
            if all(a["name"] not in ("realsets.combine", "realsets.normalize")
                   for a in ancestors(i))), "s")

    # cli
    calls_busy("cli.main")
    put("cli.main.self_s", self_time("cli.main"), "s")
    for key in ("files_written", "bytes_written", "nonzero_exits"):
        put(f"cli.{key}", tracer.counters[f"cli.{key}"],
            "B" if key == "bytes_written" else "count")
    return out
