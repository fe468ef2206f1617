"""Compiled-kernel tier: the kernel must be invisible except in speed.

Pins the :mod:`repro.core.kernels` contract:

* **Golden-matrix bit-identity** — kernel-on vs kernel-off runs produce
  byte-equal canonical traces (and equal values / CostMeter columns)
  across workers (serial / 3) × fault profile (clean / hostile) ×
  data plane (frozen / mmap).  Hostile stacks never resolve a kernel,
  so those cells double as fallback-degradation checks.
* **Resolution rules** — clean caching stacks resolve (with counters),
  fault stacks, probing contexts and the process-wide switch fall back
  with the documented reason labels.
* **Eq. 6 DP equivalence** — the one row DP, reached through
  ``MATARWEstimator._run_dp_if_dirty``, reproduces an independent dict
  recursion bit for bit: on hypothesis-generated level DAGs evaluated
  in stages (ghost and dead partners, partners that classify after the
  nodes pointing to them, zero-mass nodes, empty seed sets included)
  and on real runs over kernel, layered and intra-edge oracles.
* **Capped first-mention** — the columnar capped-window resolution
  matches the slow per-view answer over random columns (ties, empty
  timelines, absent keywords, multi-keyword extras) and end-to-end on a
  capped platform, detours and charges included.
"""

from __future__ import annotations

import contextlib
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.client import CachingClient, SimulatedMicroblogClient
from repro.api.faults import FAULT_PROFILES, FaultInjectingClient, FaultPlan
from repro.api.resilient import ResilientClient
from repro.core.graph_builder import LevelByLevelOracle, QueryContext
from repro.core.kernels import (
    first_mention_from_columns,
    kernel_enabled,
    set_kernel_enabled,
)
from repro.core.levels import LevelIndex
from repro.core.query import count_users
from repro.core.tarw import MATARWEstimator, TARWConfig
from repro.core.wnw import ProbingContext
from repro.obs import Observability
from repro.obs.export import trace_lines
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingSink
from repro.platform.clock import DAY
from repro.platform.simulator import PlatformConfig, build_platform
from tests.conftest import tiny_keywords
from tests.obs.conftest import GOLDEN_PLATFORM, GOLDEN_WALK_SEED, golden_run

try:  # property tests degrade gracefully without hypothesis
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI always has hypothesis
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.kernels

KEYWORD = "privacy"


@contextlib.contextmanager
def kernel_switch(enabled):
    previous = set_kernel_enabled(enabled)
    try:
        yield
    finally:
        set_kernel_enabled(previous)


def _config(**overrides) -> PlatformConfig:
    base = dict(keywords=tiny_keywords(), background_posts_mean=3.0, **GOLDEN_PLATFORM)
    base.update(overrides)
    return PlatformConfig(**base)


@pytest.fixture(scope="module")
def frozen_platform():
    return build_platform(_config(data_plane="frozen"))


@pytest.fixture(scope="module")
def mmap_platform():
    # Small chunk size: the streaming build crosses many chunk boundaries
    # even on this small platform (same recipe as the outofcore tier).
    return build_platform(_config(data_plane="mmap", build_chunk_rows=911))


def _stack(platform, budget=None):
    client = CachingClient(SimulatedMicroblogClient(platform, budget=budget))
    return client, QueryContext(client, count_users(KEYWORD))


# ----------------------------------------------------------------------
# golden-matrix bit-identity: workers × faults × data planes
# ----------------------------------------------------------------------
def _traced_run(platform, algorithm, n_workers, fault_plan, enabled):
    with kernel_switch(enabled):
        obs = Observability(trace_sink=RecordingSink())
        result = golden_run(
            platform, algorithm, n_workers=n_workers, obs=obs, fault_plan=fault_plan
        )
    return result, "\n".join(trace_lines(obs.trace_records())) + "\n"


@pytest.mark.parametrize("algorithm", ["ma-tarw", "ma-srw"])
@pytest.mark.parametrize("plane", ["frozen", "mmap"])
@pytest.mark.parametrize("n_workers", [None, 3], ids=["serial", "workers3"])
@pytest.mark.parametrize("faults", [None, "hostile"], ids=["clean", "hostile"])
def test_kernel_traces_bit_identical(
    request, algorithm, plane, n_workers, faults
):
    platform = request.getfixturevalue(f"{plane}_platform")
    fault_plan = FAULT_PROFILES[faults] if faults else None
    off_result, off_text = _traced_run(
        platform, algorithm, n_workers, fault_plan, enabled=False
    )
    on_result, on_text = _traced_run(
        platform, algorithm, n_workers, fault_plan, enabled=True
    )
    assert on_result.value == off_result.value
    assert on_result.cost_total == off_result.cost_total
    assert on_result.cost_by_kind == off_result.cost_by_kind
    assert on_text == off_text


@pytest.mark.parametrize("algorithm", ["ma-tarw", "ma-srw"])
@pytest.mark.parametrize("plane", ["frozen", "mmap"])
def test_untraced_kernel_run_matches_interpreted(request, algorithm, plane):
    """Observability-off identity: the only mode where TARW's fused
    instance runner engages (traced runs take the interpreted instance
    path by design), so the golden-trace matrix above cannot cover it.
    """
    platform = request.getfixturevalue(f"{plane}_platform")
    with kernel_switch(False):
        off = golden_run(platform, algorithm)
    with kernel_switch(True):
        on = golden_run(platform, algorithm)
    assert on.value == off.value
    assert on.cost_total == off.cost_total
    assert on.cost_by_kind == off.cost_by_kind
    assert on.trace == off.trace


def test_fused_runner_engages_only_untraced(frozen_platform):
    client, context = _stack(frozen_platform)
    oracle = LevelByLevelOracle(context, LevelIndex(DAY))
    untraced = MATARWEstimator(context, oracle, TARWConfig(), seed=GOLDEN_WALK_SEED)
    assert untraced._kernel is not None
    assert untraced._fused_instance_runner() is not None

    client2, context2 = _stack(frozen_platform)
    obs = Observability(trace_sink=RecordingSink())
    traced = MATARWEstimator(
        context2, LevelByLevelOracle(context2, LevelIndex(DAY)), TARWConfig(),
        seed=GOLDEN_WALK_SEED, obs=obs,
    )
    assert traced._fused_instance_runner() is None  # telemetry on

    client3, context3 = _stack(frozen_platform)
    papered = MATARWEstimator(
        context3, LevelByLevelOracle(context3, LevelIndex(DAY)),
        TARWConfig(combine="paper"), seed=GOLDEN_WALK_SEED,
    )
    assert papered._fused_instance_runner() is None  # paper-path capture


@pytest.mark.parametrize("stack", ["kernel", "layered", "intra-edges"])
def test_dp_tables_match_interpreted_on_real_runs(frozen_platform, stack):
    """After a real run the estimator's DP tables equal the independent
    dict recursion over the same oracle, on every stack: the kernel
    (clean caching) stack, the layered hostile-fault stack and an oracle
    keeping half its intra-level edges."""
    sim = SimulatedMicroblogClient(frozen_platform, budget=1_500)
    if stack == "layered":
        client = CachingClient(
            ResilientClient(FaultInjectingClient(sim, FAULT_PROFILES["hostile"]))
        )
    else:
        client = CachingClient(sim)
    context = QueryContext(client, count_users(KEYWORD))
    oracle = LevelByLevelOracle(
        context, LevelIndex(DAY),
        keep_intra_fraction=0.5 if stack == "intra-edges" else 0.0,
    )
    estimator = MATARWEstimator(
        context, oracle, config=SMALL_TARW, seed=GOLDEN_WALK_SEED
    )
    estimator.estimate()
    assert (context.kernel is not None) == (stack != "layered")
    # The last evaluation's epoch key still holds, so the tables are
    # current: re-dirtying must not re-evaluate, and must not need to.
    recomputes = estimator._dp_recomputes
    estimator._dp_dirty = True
    estimator._run_dp_if_dirty()
    assert estimator._dp_recomputes == recomputes
    assert estimator._dp_graph.total_classified == len(oracle.classified_nodes())
    expected_up, expected_down = interpreted_dp(
        oracle, estimator._seed_set, len(estimator._seeds)
    )
    assert len(expected_up) > 0
    assert estimator._dp_p_up == expected_up  # exact float equality
    assert estimator._dp_p_down == expected_down


# ----------------------------------------------------------------------
# resolution rules + guard counters
# ----------------------------------------------------------------------
class TestResolution:
    def test_clean_stack_resolves_with_counters(self, tiny_platform):
        metrics = MetricsRegistry()
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        context = QueryContext(
            client, count_users(KEYWORD), obs=Observability(metrics=metrics)
        )
        assert context.kernel is not None
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.resolved"] == 1
        assert not any(key.startswith("kernel.fallback") for key in counters)

    def test_switch_disables_resolution(self, tiny_platform):
        metrics = MetricsRegistry()
        with kernel_switch(False):
            client = CachingClient(SimulatedMicroblogClient(tiny_platform))
            context = QueryContext(
                client, count_users(KEYWORD), obs=Observability(metrics=metrics)
            )
        assert context.kernel is None
        assert context.fast is not None  # the fast path itself stays on
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.fallback{reason=disabled}"] == 1

    def test_env_switch_disables(self, tiny_platform, monkeypatch):
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        assert not kernel_enabled()
        _, context = _stack(tiny_platform)
        assert context.kernel is None

    @pytest.mark.chaos
    def test_fault_stack_falls_back(self, tiny_platform):
        metrics = MetricsRegistry()
        sim = SimulatedMicroblogClient(tiny_platform)
        client = CachingClient(
            ResilientClient(FaultInjectingClient(sim, FaultPlan(seed=5)))
        )
        context = QueryContext(
            client, count_users(KEYWORD), obs=Observability(metrics=metrics)
        )
        assert context.fast is None and context.kernel is None
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.fallback{reason=no-fastpath}"] == 1

    def test_probing_context_is_ineligible(self, tiny_platform):
        metrics = MetricsRegistry()
        client = CachingClient(SimulatedMicroblogClient(tiny_platform))
        context = ProbingContext(
            client, count_users(KEYWORD), obs=Observability(metrics=metrics)
        )
        assert context.fast is not None  # fast connections stay available
        assert context.kernel is None
        counters = metrics.snapshot()["counters"]
        assert counters["kernel.fallback{reason=ineligible-context}"] == 1

    def test_mmap_plane_gets_prefetcher(self, mmap_platform, tiny_platform):
        _, mmap_ctx = _stack(mmap_platform)
        _, ram_ctx = _stack(tiny_platform)
        assert mmap_ctx.kernel is not None and mmap_ctx.kernel.prefetcher is not None
        assert ram_ctx.kernel is not None and ram_ctx.kernel.prefetcher is None


# ----------------------------------------------------------------------
# capped timelines: columnar window resolution ≡ slow detour
# ----------------------------------------------------------------------
SMALL_TARW = TARWConfig(
    discovery_instances=100, final_recount_instances=300, max_instances=400,
    stall_instances=50,
)


def _estimate(platform, enabled, budget=1_500):
    with kernel_switch(enabled):
        client, context = _stack(platform, budget=budget)
        oracle = LevelByLevelOracle(context, LevelIndex(interval=DAY))
        estimator = MATARWEstimator(context, oracle, config=SMALL_TARW, seed=3)
        result = estimator.estimate()
    return result, client, context


class TestCappedTimelines:
    def test_capped_run_bit_identical_with_detours(self, tiny_platform):
        capped = tiny_platform.with_profile(
            dataclasses.replace(tiny_platform.profile, timeline_cap=2)
        )
        store = capped.store
        assert any(store.timeline_length(u) > 2 for u in store.user_ids()[:500])
        off, off_client, off_ctx = _estimate(capped, enabled=False)
        on, on_client, on_ctx = _estimate(capped, enabled=True)
        assert off_ctx.kernel is None and on_ctx.kernel is not None
        assert on.value == off.value
        assert on.cost_total == off.cost_total
        assert on.cost_by_kind == off.cost_by_kind
        assert on.trace == off.trace
        assert (on_client.hits, on_client.misses) == (
            off_client.hits, off_client.misses
        )
        # both paths report the same number of capped-resolution detours
        assert on_ctx.fast.slow_timeline_detours > 0
        assert on_ctx.fast.slow_timeline_detours == off_ctx.fast.slow_timeline_detours

    def test_columns_match_view_answers(self, tiny_platform):
        """Sweep: column resolution == the capped TimelineView answer for
        every user × keyword (present, other, absent) × cap."""
        for cap in (None, 1, 3):
            profile = dataclasses.replace(tiny_platform.profile, timeline_cap=cap)
            platform = tiny_platform.with_profile(profile)
            store = platform.store
            client = SimulatedMicroblogClient(platform)
            for keyword in ("privacy", "boston", "absentword"):
                codes = store.matching_keyword_codes(keyword)
                extras = store.matching_extra_post_ids(keyword)
                for user_id in store.user_ids()[:120]:
                    expected = client.user_timeline(user_id).first_mention_time(keyword)
                    got = first_mention_from_columns(store, codes, extras, user_id, cap)
                    assert got == expected, (keyword, user_id, cap)


# ----------------------------------------------------------------------
# Eq. 6 DP: the row DP ≡ an independent dict recursion
# ----------------------------------------------------------------------
class FakeDPOracle:
    """Just enough oracle surface for the DP, classifying in stages.

    ``order`` is the classification order; only its first ``revealed``
    nodes count as classified.  Nodes with level None are classified
    but "dead" (no level).
    """

    def __init__(self, order, levels, up, down):
        self.order = order
        self.revealed = len(order)
        self._levels = levels
        self._up = up
        self._down = down

    def classified_nodes(self):
        return self.order[: self.revealed]

    def level_of(self, user_id):
        return self._levels.get(user_id)

    def up_neighbors(self, user_id):
        return self._up[user_id]

    def down_neighbors(self, user_id):
        return self._down[user_id]


def interpreted_dp(oracle, seed_set, seed_count):
    """Independent reference: Eq. 6 as a dict recursion over the oracle."""
    nodes = [u for u in oracle.classified_nodes() if oracle.level_of(u) is not None]
    classified = set(nodes)
    level = {u: oracle.level_of(u) for u in nodes}
    start = 1.0 / seed_count if seed_count else 0.0
    p_up = {}
    for u in sorted(nodes, key=lambda n: -level[n]):
        value = start if u in seed_set else 0.0
        for v in oracle.down_neighbors(u):
            if v in classified and p_up.get(v, 0.0) > 0.0:
                value += p_up[v] / len(oracle.up_neighbors(v))
        p_up[u] = value
    p_down = {}
    for u in sorted(nodes, key=lambda n: level[n]):
        ups = oracle.up_neighbors(u)
        if not ups:
            p_down[u] = p_up[u]
            continue
        value = 0.0
        for v in ups:
            if v in classified and p_down.get(v, 0.0) > 0.0:
                value += p_down[v] / len(oracle.down_neighbors(v))
        p_down[u] = value
    return p_up, p_down


def _dp_via_estimator(estimator, seeds):
    """Both Eq. 6 tables through the estimator's one DP entry point."""
    seed_set = frozenset(seeds)
    if seed_set != estimator._seed_set:
        estimator._seeds = sorted(seed_set)
        estimator._seed_set = seed_set
        estimator._seed_version += 1
    estimator._dp_dirty = True
    estimator._run_dp_if_dirty()
    return estimator._dp_p_up, estimator._dp_p_down


def _fake_estimator(oracle):
    return MATARWEstimator(SimpleNamespace(), oracle, seed=0)


if HAVE_HYPOTHESIS:

    @st.composite
    def dp_instances(draw):
        n = draw(st.integers(1, 10))
        order = draw(
            st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True)
        )
        levels = {u: draw(st.one_of(st.none(), st.integers(0, 3))) for u in order}
        live = [u for u in order if levels[u] is not None]
        dead = [u for u in order if levels[u] is None]
        up = {u: [] for u in order}
        down = {u: [] for u in order}
        ghost = max(order) + 1
        for i, u in enumerate(live):
            # Edges run both ways, so each node's lists name partners
            # that classify before it and partners that classify after.
            for v in live[i + 1 :]:
                if levels[u] == levels[v] or not draw(st.booleans()):
                    continue
                lo, hi = (u, v) if levels[u] < levels[v] else (v, u)
                down[lo].append(hi)  # hi is at a later (larger) level
                up[hi].append(lo)
            if draw(st.booleans()):
                # an unclassified partner: inflates the degree (the DP
                # divides by *full* list lengths) but carries no mass
                up[u].append(ghost)
                ghost += 1
            if dead and draw(st.booleans()):
                # a partner classified with no level: never resolves
                down[u].append(draw(st.sampled_from(dead)))
        seeds = {u for u in order if draw(st.booleans())}
        stages = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        reseed = draw(st.booleans())
        return order, levels, up, down, seeds, stages, reseed

    @pytest.mark.property
    @settings(max_examples=80, deadline=None)
    @given(instance=dp_instances())
    def test_dp_passes_match_interpreted(instance):
        order, levels, up, down, seeds, stages, reseed = instance
        oracle = FakeDPOracle(order, levels, up, down)
        estimator = _fake_estimator(oracle)
        for revealed in stages + [len(order)]:
            oracle.revealed = revealed
            got = _dp_via_estimator(estimator, seeds)
            assert got == interpreted_dp(oracle, seeds, len(seeds))
        if reseed:
            seeds = set(order[::2])
            got = _dp_via_estimator(estimator, seeds)
            assert got == interpreted_dp(oracle, seeds, len(seeds))

    @pytest.mark.property
    @settings(max_examples=60, deadline=None)
    @given(
        timelines=st.lists(
            st.lists(
                st.tuples(
                    st.floats(0.0, 1e6, allow_nan=False),  # time (ties allowed)
                    st.integers(0, 4),  # keyword code
                ),
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        ),
        match_codes=st.sets(st.integers(0, 4), max_size=3),
        extra_count=st.integers(0, 2),
        cap=st.sampled_from([None, 1, 2, 5]),
    )
    def test_first_mention_from_columns_matches_scan(
        timelines, match_codes, extra_count, cap
    ):
        times, codes, users = [], [], []
        rows_by_user = {}
        for user_id, posts in enumerate(timelines):
            start = len(times)
            for t, code in sorted(posts, key=lambda p: p[0]):
                times.append(t)
                codes.append(code)
                users.append(user_id)
            rows_by_user[user_id] = np.arange(start, len(times), dtype=np.int64)

        class FakeColumnStore:
            post_time = np.asarray(times, dtype=np.float64)
            post_keyword = np.asarray(codes, dtype=np.int64)
            post_id = np.arange(len(times), dtype=np.int64)

            def timeline_rows(self, user_id):
                return rows_by_user[user_id]

        store = FakeColumnStore()
        codes_arr = np.asarray(sorted(match_codes), dtype=np.int64)
        # first extra_count global rows get multi-keyword "extra" status
        extras = np.arange(min(extra_count, len(times)), dtype=np.int64)
        for user_id in rows_by_user:
            rows = rows_by_user[user_id]
            window = rows[-cap:] if cap is not None else rows
            expected = None
            for row in window.tolist():
                if codes[row] in match_codes or row < extra_count:
                    expected = float(times[row])
                    break
            got = first_mention_from_columns(store, codes_arr, extras, user_id, cap)
            assert got == expected, (user_id, cap)


def test_dp_empty_subgraph():
    estimator = _fake_estimator(FakeDPOracle([], {}, {}, {}))
    assert _dp_via_estimator(estimator, set()) == ({}, {})
