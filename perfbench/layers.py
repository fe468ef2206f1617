"""Span recorder and the runtime wrappers that time each layer from outside.

Nothing under ``src/`` is edited: :meth:`Recorder.install` replaces the
entry points of each layer (class attributes and module globals) with
thin wrappers that record spans and counters, and :meth:`Recorder.remove`
puts the originals back.  Install before any estimator is constructed:
the fused MA-TARW runner binds its accessors when it is built.

A span is ``[name, start, end, parent, query_id]``.  Parents come from a
per-thread stack; the root spans of the service's worker threads adopt
the ``engine.run`` span that fanned them out, which also carries its
thread count as a sixth field.  Self time is a span's duration minus the
durations of its children; for a fan-out it is the idle thread-time,
threads × duration minus its children.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

clock = time.perf_counter

SELF_TIME_METRICS = {
    # span name -> per-layer metric carrying its self time (seconds)
    "platform.append": "platform.append_s",
    "api": "api.client_s",
    "classify": "classify.s",
    "dp": "dp.s",
    "assembly": "assembly.s",
    "walk": "walk.self_s",
    "analyzer": "analyzer.self_s",
    "interval.select": "interval.select_s",
    "obs.export": "obs.export_s",
    "service.admit": "service.admit_s",
    "service.execute": "service.execute_s",
    "service.query": "service.query_s",
    "service.advance": "service.advance_s",
    "engine.run": "engine.run_s",
}

COUNT_METRICS = (
    "platform.append_posts",
    "api.calls.search",
    "api.calls.connections",
    "api.calls.timeline",
    "api.retry_calls",
    "api.degraded_serves",
    "classify.nodes",
    "dp.evals",
    "assembly.calls",
    "walk.instances",
    "interval.pilot_calls",
    "service.invalidations",
)

PER_LAYER_METRICS = (
    ("platform.build_s", "s"),
    ("platform.append_s", "s"),
    ("platform.append_posts", "count"),
    ("api.calls.search", "count"),
    ("api.calls.connections", "count"),
    ("api.calls.timeline", "count"),
    ("api.cache_hit_ratio", "ratio"),
    ("api.client_s", "s"),
    ("api.retry_calls", "count"),
    ("api.degraded_serves", "count"),
    ("api.fastpath_share", "ratio"),
    ("kernel.resolved_share", "ratio"),
    ("classify.s", "s"),
    ("classify.nodes", "count"),
    ("dp.s", "s"),
    ("dp.evals", "count"),
    ("assembly.s", "s"),
    ("assembly.calls", "count"),
    ("walk.self_s", "s"),
    ("walk.instances", "count"),
    ("analyzer.self_s", "s"),
    ("interval.select_s", "s"),
    ("interval.pilot_calls", "count"),
    ("reuse.interval_hit_ratio", "ratio"),
    ("reuse.column_hit_ratio", "ratio"),
    ("service.result_hit_ratio", "ratio"),
    ("service.invalidations", "count"),
    ("obs.trace_records", "count"),
    ("obs.export_s", "s"),
    ("service.admit_s", "s"),
    ("service.execute_s", "s"),
    ("service.query_s", "s"),
    ("service.advance_s", "s"),
    ("engine.run_s", "s"),
    ("engine.busy_ratio", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the layer saw no work."""
    return numerator / denominator if denominator else 0.0


class Recorder:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._adopt = None
        self._patches = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_query(self, query_id) -> None:
        """Tag the spans this thread opens from now on with *query_id*."""
        self._local.query = query_id

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _patch(self, owner, attr, make) -> None:
        """Set ``owner.attr`` to ``make(original)``; :meth:`remove` undoes it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr, span=None, before=None, after=None, keep=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        *span* names the span recorded around each call (None records
        none).  ``before(args, kwargs)`` returns a token handed to
        ``after(token, args, kwargs, result)`` once the call returns.
        ``keep(token, args)`` decides after the call whether the span is
        kept, so calls that did no work can be dropped.
        """
        local = self._local
        spans = self.spans
        stack_of = self._stack

        def make(original):
            if span is None:
                def wrapper(*args, **kwargs):
                    token = before(args, kwargs) if before is not None else None
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(token, args, kwargs, result)
                    return result
                return wrapper

            def wrapper(*args, **kwargs):
                token = before(args, kwargs) if before is not None else None
                stack = stack_of()
                record = [
                    span, clock(), 0.0,
                    stack[-1] if stack else self._adopt,
                    getattr(local, "query", None),
                ]
                stack.append(record)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                    if keep is None or keep(token, args):
                        spans.append(record)
                if after is not None:
                    after(token, args, kwargs, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def remove(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # the layer table
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        import repro.core.analyzer as analyzer_mod
        import repro.core.graph_builder as graph_builder_mod
        import repro.core.interval as interval_mod
        import repro.platform.simulator as simulator_mod
        import repro.service.service as service_mod
        from repro.api.accounting import RETRIES, CostMeter
        from repro.api.client import CachingClient
        from repro.api.fastpath import FastPathOps
        from repro.api.resilient import ResilientClient
        from repro.core.graph_builder import LevelByLevelOracle
        from repro.core.kernels import KernelOps
        from repro.core.tarw import MATARWEstimator
        from repro.core.walker import BaseWalker, ChainSampleWalker
        from repro.parallel.engine import ExecutionEngine
        from repro.platform.evolve import OverlayStore
        from repro.service.service import EstimationService

        count = self.count

        # repro.platform
        self.wrap(simulator_mod, "build_platform", span="platform.build")
        self.wrap(OverlayStore, "append", span="platform.append",
                  after=lambda _t, _a, _k, stats: count("platform.append_posts", stats.posts))

        # repro.api: charges by kind, cache outcomes, client time, resolution
        def on_charge(args, kwargs):
            kind = args[1] if len(args) > 1 else kwargs["kind"]
            calls = args[2] if len(args) > 2 else kwargs.get("calls", 1)
            count("api.retry_calls" if kind == RETRIES else "api.calls." + kind, calls)

        self.wrap(CostMeter, "charge", before=on_charge)

        def on_cache(args, kwargs):
            count("api.cache." + args[1])

        self.wrap(CachingClient, "_count", before=on_cache)
        self.wrap(KernelOps, "_count_cache", before=on_cache)
        for attr in ("search", "user_connections", "user_timeline", "prepay_timeline",
                     "note_timeline_hit", "connections_via"):
            self.wrap(CachingClient, attr, span="api")
        for attr in ("first_mention_into", "first_mentions_into", "connections"):
            self.wrap(FastPathOps, attr, span="api")
        self.wrap(KernelOps, "resolve_mentions", span="api")
        self.wrap(ResilientClient, "_note_degraded",
                  before=lambda _a, _k: count("api.degraded_serves"))

        def resolution(prefix):
            def after(_token, _args, _kwargs, result):
                count(prefix + ".calls")
                if result is not None:
                    count(prefix + ".resolved")
            return after

        self.wrap(graph_builder_mod, "resolve_fast_path", after=resolution("fastpath"))
        self.wrap(graph_builder_mod, "resolve_kernel", after=resolution("kernel"))

        # repro.core: classification, Eq. 6 DP, assembly, walks, intervals
        self.wrap(LevelByLevelOracle, "_classify", span="classify",
                  before=lambda _a, _k: count("classify.nodes"))
        self.wrap(MATARWEstimator, "_run_dp_if_dirty", span="dp",
                  before=lambda args, _k: args[0]._dp_recomputes,
                  keep=lambda token, args: args[0]._dp_recomputes != token,
                  after=lambda token, args, _k, _r: count(
                      "dp.evals", args[0]._dp_recomputes - token))
        self.wrap(MATARWEstimator, "_recompute_value", span="assembly",
                  before=lambda _a, _k: count("assembly.calls"))
        self.wrap(ChainSampleWalker, "_current_estimate", span="assembly",
                  before=lambda _a, _k: count("assembly.calls"))
        self.wrap(BaseWalker, "estimate", span="walk")
        self.wrap(analyzer_mod.MicroblogAnalyzer, "estimate", span="analyzer")
        self.wrap(MATARWEstimator, "_run_instance",
                  before=lambda _a, _k: count("walk.instances"))

        def counted_fused(original):
            def fused_instance_runner(estimator):
                runner = original(estimator)
                if runner is None:
                    return None

                def run_instance():
                    count("walk.instances")
                    return runner()

                return run_instance
            return fused_instance_runner

        self._patch(MATARWEstimator, "_fused_instance_runner", counted_fused)

        def pilot_before(args, kwargs):
            context = args[0] if args else kwargs["context"]
            meter = context.client.meter
            return meter, meter.query_total

        def pilot_after(token, _args, _kwargs, _result):
            meter, spent = token
            count("interval.pilot_calls", meter.query_total - spent)

        for module in (analyzer_mod, interval_mod):
            self.wrap(module, "select_time_interval", span="interval.select",
                      before=pilot_before, after=pilot_after)

        # repro.obs: trace export as the service ships it
        self.wrap(service_mod, "trace_lines", span="obs.export")

        # repro.service / repro.parallel
        for attr in ("submit", "top_up"):
            self.wrap(EstimationService, attr, span="service.admit")
        self.wrap(EstimationService, "execute_pending", span="service.execute")
        self.wrap(EstimationService, "advance", span="service.advance")
        self.wrap(EstimationService, "invalidate",
                  before=lambda _a, _k: count("service.invalidations"))

        def query_before(args, _kwargs):
            previous = getattr(self._local, "query", None)
            self._local.query = args[1].request_id
            return previous

        def query_after(previous, _args, _kwargs, _result):
            self._local.query = previous

        self.wrap(EstimationService, "_execute_one", span="service.query",
                  before=query_before, after=query_after)

        def fan_out(original):
            # Only pooled runs fan out to other threads; serial engine runs
            # (the pilot grid) stay on the caller's thread, unwrapped.
            def _run_pool(engine, pool_cls, fn, tasks):
                stack = self._stack()
                record = ["engine.run", clock(), 0.0, stack[-1] if stack else None,
                          getattr(self._local, "query", None),
                          min(engine.n_workers, len(tasks))]
                stack.append(record)
                previous, self._adopt = self._adopt, record
                try:
                    return original(engine, pool_cls, fn, tasks)
                finally:
                    self._adopt = previous
                    record[2] = clock()
                    stack.pop()
                    self.spans.append(record)
            return _run_pool

        self._patch(ExecutionEngine, "_run_pool", fan_out)

    # ------------------------------------------------------------------
    def layer_metrics(self, timed_wall: float) -> dict:
        """Per-layer self times, counts and ratios of the recorded pass.

        *timed_wall* is the pass's timed wall on the calling thread; the
        spans must all lie inside it (clear the set-up's).  On the service
        the denominator is thread-seconds: the caller's wall plus, per
        engine fan-out, the extra worker threads' wall.
        """
        children = defaultdict(float)
        for record in self.spans:
            if record[3] is not None:
                children[id(record[3])] += record[2] - record[1]
        self_time = defaultdict(float)
        extra_threads = 0.0  # thread-seconds beyond the caller's wall
        capacity = 0.0
        busy = 0.0
        for record in self.spans:
            name, start, end = record[0], record[1], record[2]
            duration = end - start
            threads = record[5] if len(record) > 5 else 1
            if threads > 1:
                extra_threads += (threads - 1) * duration
                capacity += threads * duration
                busy += children[id(record)]
            self_time[name] += threads * duration - children[id(record)]

        metrics = {metric: self_time.get(span, 0.0)
                   for span, metric in SELF_TIME_METRICS.items()}
        counts = self.counts
        for name in COUNT_METRICS:
            metrics[name] = float(counts.get(name, 0))
        metrics["api.cache_hit_ratio"] = ratio(
            counts.get("api.cache.hits", 0),
            counts.get("api.cache.hits", 0) + counts.get("api.cache.misses", 0))
        metrics["api.fastpath_share"] = ratio(
            counts.get("fastpath.resolved", 0), counts.get("fastpath.calls", 0))
        metrics["kernel.resolved_share"] = ratio(
            counts.get("kernel.resolved", 0), counts.get("kernel.calls", 0))
        metrics["engine.busy_ratio"] = ratio(busy, capacity)
        thread_seconds = timed_wall + extra_threads
        metrics["bench.unattributed_share"] = 1.0 - ratio(sum(self_time.values()),
                                                          thread_seconds)
        return metrics
