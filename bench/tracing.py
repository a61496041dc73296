"""Span tracing of the coopsense layers, installed from outside the package.

:class:`Tracer` replaces the public functions of every coopsense module (and
``mathx.Probability``, ``ReportChannel.pe``, ``scipy.optimize.brentq`` as
``roc`` reaches it, and ``montecarlo.ThreadPoolExecutor``) with wrappers, in
every coopsense module namespace that holds them. A wrapper times its call
and charges the duration to its parent span, so a span's self time is its
duration minus the time covered by its child spans. Counts that the package
does not expose (binomial terms, draws, chunks) are computed from each call's
arguments. ``uninstall`` puts every original object back.

Hot leaf functions run millions of times per round, so only the coarse spans
in ``KEPT_SPANS`` are kept individually (in memory, written at the end);
every span is aggregated into per-name calls, total and self time.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("mathx", "local_sensing", "reporting", "fusion", "roc", "montecarlo", "cli")
KEPT_SPANS = frozenset({
    "cli.main", "roc.analytic_roc", "roc.qm_star", "roc.crossover_table", "roc.optimal_n",
    "montecarlo.run_grid", "montecarlo.run_sim",
})
# binomial terms summed by one call, from its (FusionConfig, ...) arguments
_TAIL_TERMS = {
    "fusion.fused_qf": lambda k, n: k - n + 1,
    "fusion.asymptotic_qf": lambda k, n: k - n + 1,
    "fusion.fused_qm": lambda k, n: n,
    "fusion.asymptotic_qm": lambda k, n: n,
}


class _ModuleProxy:
    """Stands in for a module in one namespace, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op index)
        self.op_index = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _state(self):
        """This thread's (span stack, stats by name, counters by name)."""
        try:
            return self._local.state
        except AttributeError:
            state = ([], defaultdict(lambda: [0, 0.0, 0.0]), defaultdict(float))
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def count(self, name: str, amount: float = 1.0) -> None:
        self._state()[2][name] += amount

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` with a span named ``name``; ``on_call(tracer, args, kwargs)`` runs first."""
        keep = name in KEPT_SPANS
        clock = time.perf_counter
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack, stats, counters = local.state
            except AttributeError:
                stack, stats, counters = tracer._state()
            if on_call is not None:
                on_call(tracer, args, kwargs)
            parent_kept = stack[-1][1] if stack else 0
            span_id = next(tracer._ids) if keep else parent_kept
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                counters[f"{name}.raised.{type(err).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat = stats[name]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    tracer.spans.append((span_id, parent_kept, name, start, end, tracer.op_index))

        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap the layers of an imported coopsense ``package``."""
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        namespaces = [package, *modules]
        reporting, roc, montecarlo = (modules[LAYERS.index(m)] for m in ("reporting", "roc", "montecarlo"))
        hooks = _hooks(montecarlo)
        for layer, module in zip(LAYERS, modules):
            names = getattr(module, "__all__", ["main"])
            for name in names:
                obj = module.__dict__[name]
                if not (inspect.isfunction(obj) or (layer == "mathx" and name == "Probability")):
                    continue
                wrapped = self.wrap(f"{layer}.{name}", obj, hooks.get(f"{layer}.{name}"))
                for ns in namespaces:
                    for attr, value in list(ns.__dict__.items()):
                        if value is obj:
                            self._patch(ns, attr, wrapped)
        channel = reporting.ReportChannel
        self._patch(channel, "pe", property(self.wrap("reporting.pe", channel.__dict__["pe"].fget)))
        self._patch(roc, "optimize", _ModuleProxy(roc.optimize, brentq=self._traced_brentq(roc.optimize.brentq)))
        self._patch(montecarlo, "ThreadPoolExecutor", self._traced_pool(montecarlo.ThreadPoolExecutor))

    def _traced_brentq(self, brentq):
        span = self.wrap("roc.root_find", brentq)

        def traced_brentq(f, *args, **kwargs):
            def counted(x, *fargs):
                self.count("roc.root_find.evals")
                return f(x, *fargs)
            return span(counted, *args, **kwargs)

        return traced_brentq

    def _traced_pool(self, pool_class):
        def traced_pool(*args, **kwargs):
            workers = kwargs.get("max_workers", args[0] if args else None)
            self.count("montecarlo.pools")
            self.count("montecarlo.pool_workers", workers or 0)
            return pool_class(*args, **kwargs)

        return traced_pool

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def not_restored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if owner.__dict__[attr] is not original]

    # -- results ------------------------------------------------------------

    def totals(self):
        """Merged (stats, counters) over every thread that recorded spans."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counters = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for _, thread_stats, thread_counters in states:
            for name, (calls, total, self_s) in thread_stats.items():
                agg = stats[name]
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for name, value in thread_counters.items():
                counters[name] += value
        return stats, counters


def _on_fusion(tracer, args, kwargs, terms):
    cfg = args[0] if args else kwargs["cfg"]
    tracer.count("fusion.tail_terms", terms(cfg.num_radios_k, cfg.vote_threshold_n))


def _hooks(montecarlo) -> dict:
    """Per-call counters, keyed by span name."""
    run_grid = inspect.signature(montecarlo.run_grid)

    def on_run_grid(tracer, args, kwargs):
        bound = run_grid.bind(*args, **kwargs).arguments
        scenario = bound["scenario"]
        trials = scenario.trials
        k, m = scenario.fusion.num_radios_k, scenario.sensing.samples_m
        tracer.count("montecarlo.trials", trials)
        tracer.count("montecarlo.cell_trials", trials * len(bound["lambdas"]) * len(bound["n_values"]))
        tracer.count("montecarlo.chunks", math.ceil(trials / montecarlo.CHUNK_TRIALS))
        # one hypothesis draw per trial; per radio one SNR, 2M sense and one report draw
        tracer.count("montecarlo.draws", trials * (1 + k * (2 * m + 2)))

    hooks = {name: functools.partial(_on_fusion, terms=terms) for name, terms in _TAIL_TERMS.items()}
    hooks["montecarlo.run_grid"] = on_run_grid
    return hooks


def layer_metrics(stats, counters) -> dict:
    """The per-layer metrics of one traced round, as {name: (value, unit)}."""
    def calls(name):
        return stats[name][0] if name in stats else 0

    def total(name):
        return stats[name][1] if name in stats else 0.0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    def layer_self(layer):
        return sum(v[2] for n, v in stats.items() if n.startswith(layer + "."))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    fusion_busy = sum(v[1] for n, v in stats.items() if n.startswith("fusion."))
    grid_s = total("montecarlo.run_grid")
    pools = counters["montecarlo.pools"]
    workers = counters["montecarlo.pool_workers"] / pools if pools else (1.0 if calls("montecarlo.run_grid") else 0.0)
    metrics = {
        "mathx.Probability.calls": (calls("mathx.Probability"), "count"),
        "mathx.Probability.self_s": (self_s("mathx.Probability"), "s"),
        "mathx.log_binomial.calls": (calls("mathx.log_binomial"), "count"),
        "mathx.log_binomial.self_s": (self_s("mathx.log_binomial"), "s"),
        "local_sensing.local_pf.calls": (calls("local_sensing.local_pf"), "count"),
        "local_sensing.local_pd.calls": (calls("local_sensing.local_pd"), "count"),
        "local_sensing.threshold_for_pf.calls": (calls("local_sensing.threshold_for_pf"), "count"),
        "local_sensing.self_s": (layer_self("local_sensing"), "s"),
        "reporting.flip_composition.calls": (calls("reporting.flip_composition"), "count"),
        "reporting.pe.calls": (calls("reporting.pe"), "count"),
        "reporting.self_s": (layer_self("reporting"), "s"),
        "fusion.fused_qf.calls": (calls("fusion.fused_qf"), "count"),
        "fusion.fused_qm.calls": (calls("fusion.fused_qm"), "count"),
        "fusion.asymptotic.calls": (calls("fusion.asymptotic_qf") + calls("fusion.asymptotic_qm"), "count"),
        "fusion.tail_terms": (counters["fusion.tail_terms"], "count"),
        "fusion.self_s": (layer_self("fusion"), "s"),
        "fusion.tail_terms_per_s": (rate(counters["fusion.tail_terms"], fusion_busy), "1/s"),
        "roc.analytic_roc.self_s": (self_s("roc.analytic_roc"), "s"),
        "roc.qm_star.calls": (calls("roc.qm_star"), "count"),
        "roc.qm_star.self_s": (self_s("roc.qm_star"), "s"),
        "roc.qm_star.no_crossover": (counters["roc.qm_star.raised.NoCrossoverError"], "count"),
        "roc.crossover_table.self_s": (self_s("roc.crossover_table"), "s"),
        "roc.optimal_n.self_s": (self_s("roc.optimal_n"), "s"),
        "roc.root_find.calls": (calls("roc.root_find"), "count"),
        "roc.root_find.evals": (counters["roc.root_find.evals"], "count"),
        "montecarlo.run_grid.self_s": (self_s("montecarlo.run_grid"), "s"),
        "montecarlo.chunks": (counters["montecarlo.chunks"], "count"),
        "montecarlo.pool_workers": (workers, "count"),
        "montecarlo.draws": (counters["montecarlo.draws"], "count"),
        "montecarlo.trials_per_s": (rate(counters["montecarlo.trials"], grid_s), "1/s"),
        "montecarlo.cell_trials_per_s": (rate(counters["montecarlo.cell_trials"], grid_s), "1/s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
    return {name: (int(v) if unit == "count" and v == int(v) else v, unit)
            for name, (v, unit) in metrics.items()}
