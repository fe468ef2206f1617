"""The three workloads: inputs from a seed, set-up, passes and checks.

Every workload is a closed loop of *rounds*.  A round is a fixed mix of
queries, so any whole number of rounds is balanced.  A pass runs whole
rounds: at least ``min_rounds`` of them, and more while fewer than
*seconds* have passed.  Latency, accuracy and cost are read off the
answers of the first ``min_rounds`` rounds (the *fixed set*, the same
queries on every run with a given seed); throughput is read off the
whole timed window.

The program only ever sees the generated inputs: queries, budgets and
walk seeds here, deltas from :func:`repro.platform.evolve.synthesize_delta`.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import struct
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.api.faults import FAULT_PROFILES
from repro.bench import BENCH_PLATFORM_SEED
import repro.platform.simulator as simulator
from repro.core.analyzer import MicroblogAnalyzer
from repro.core.query import (
    FOLLOWERS,
    MATCHING_POST_COUNT,
    avg_of,
    count_users,
    sum_of,
)
from repro.errors import ReproError
from repro.groundtruth import exact_value
from repro.platform.clock import DAY
from repro.platform.evolve import evolve_platform, synthesize_delta
from repro.service.service import EstimationService, QueryRequest
from repro.service.tenants import TenantConfig

clock = time.perf_counter

NUM_USERS = 30_000
KEYWORDS = ("privacy", "tunisia", "simvastatin")
AGGREGATES = {
    "COUNT": count_users,
    "AVG": lambda keyword: avg_of(keyword, FOLLOWERS),
    "SUM": lambda keyword: sum_of(keyword, MATCHING_POST_COUNT),
}
CELLS = [(keyword, aggregate) for keyword in KEYWORDS for aggregate in AGGREGATES]
SETUP_REPEATS = 3

SERVICE_BUDGET = 12_000
"""Per-query budget on service-evolve: covers the pilot interval
selection (``interval="auto"``) plus the walk."""
SERVICE_THREADS = 2
BATCH_TENANT = "batch"
TENANTS = (
    TenantConfig("dashboard"),
    TenantConfig("adhoc"),
    TenantConfig(BATCH_TENANT, budget=SERVICE_BUDGET, admission="queue"),
)
"""The batch tenant's allowance covers one query; it sends two per round,
so one waits in the queue until the top-up after the round."""
TOP_UP = 2 * SERVICE_BUDGET
ROUNDS_PER_EPOCH = 3
"""A delta lands after every third service round."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "walk" or "service"
    budget: int
    min_rounds: int
    trace_rounds: int
    hostile: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("walk-clean", "walk", budget=30_000, min_rounds=6, trace_rounds=1),
        Workload("walk-hostile", "walk", budget=10_000, min_rounds=3, trace_rounds=1,
                 hostile=True),
        Workload("service-evolve", "service", budget=SERVICE_BUDGET, min_rounds=9,
                 trace_rounds=3),
    )
}
"""Why each workload exists is in README.md.  ``min_rounds`` sizes the
fixed set of a timed run; ``trace_rounds`` the passes of a traced run."""


@dataclass
class Answer:
    """One query as the benchmark saw it."""

    key: tuple
    """Identity of the query in the run (comparable across passes)."""
    keyword: str
    aggregate: str
    budget: int
    status: str
    value: Optional[float] = None
    cost_by_kind: Dict[str, int] = field(default_factory=dict)
    cost_total: int = 0
    latency_s: float = 0.0
    fixed: bool = False
    """In the fixed set (the first ``min_rounds`` rounds)."""
    cached: bool = False
    epoch: int = 0
    payload: bytes = b""
    truth: Optional[float] = None

    @property
    def charged(self) -> int:
        """API calls this answer actually charged (retries included)."""
        return 0 if self.cached else sum(self.cost_by_kind.values())

    def identity(self, with_retries: bool = True) -> tuple:
        """Value bits and cost columns, which must repeat bit for bit."""
        bits = None if self.value is None else struct.pack("<d", self.value)
        costs = tuple(sorted(item for item in self.cost_by_kind.items()
                             if with_retries or item[0] != "retries"))
        return bits, costs


@dataclass
class Pass:
    answers: List[Answer]
    timed_s: float
    rounds: int
    attempted: int
    stats: Dict[str, float] = field(default_factory=dict)


class Stopwatch:
    """Wall clock that can exclude the benchmark's own bookkeeping."""

    def __init__(self) -> None:
        self.start = clock()
        self.paused = 0.0
        self._since: Optional[float] = None

    def now(self) -> float:
        """Timed seconds so far (paused stretches excluded)."""
        return clock() - self.start - self.paused

    def pause(self) -> None:
        self._since = clock()

    def resume(self) -> None:
        self.paused += clock() - self._since
        self._since = None


def _done(round_index: int, rounds: int, watch: Stopwatch,
          seconds: Optional[float]) -> bool:
    if round_index + 1 < rounds:
        return False
    return seconds is None or watch.now() >= seconds


def compute_truths(store, answers: List[Answer]) -> None:
    """Exact values for the fixed-set answers, on *store* as it stands."""
    truths: Dict[tuple, float] = {}
    for answer in answers:
        if answer.fixed and answer.status == "ok":
            cell = (answer.keyword, answer.aggregate)
            if cell not in truths:
                truths[cell] = exact_value(store, AGGREGATES[answer.aggregate](answer.keyword))
            answer.truth = truths[cell]


# ----------------------------------------------------------------------
# walk-clean / walk-hostile
# ----------------------------------------------------------------------
def walk_round(seed: int, round_index: int) -> List[tuple]:
    """One round: every (keyword, aggregate) cell once, in seeded order.

    A third of the cells run MA-SRW, the rest MA-TARW; the SRW cells
    form a diagonal (one per keyword and per aggregate) that rotates
    with the round, so every three rounds run each cell on MA-SRW once.
    """
    rng = random.Random(f"perfbench:walk:{seed}:{round_index}")
    aggregates = list(AGGREGATES)
    queries = []
    for k, keyword in enumerate(KEYWORDS):
        for a, aggregate in enumerate(aggregates):
            algorithm = "ma-srw" if (k + a + round_index) % 3 == 0 else "ma-tarw"
            queries.append((keyword, aggregate, algorithm,
                            rng.getrandbits(32), rng.getrandbits(32)))
    rng.shuffle(queries)
    return queries


def build_walk_platform():
    config = simulator.PlatformConfig(num_users=NUM_USERS, seed=BENCH_PLATFORM_SEED)
    return simulator.build_platform(config)


def run_walk_pass(platform, workload: Workload, seed: int, rounds: int,
                  seconds: Optional[float], hostile: Optional[bool] = None,
                  recorder=None) -> Pass:
    """Serial estimates, one analyzer per query, whole rounds."""
    hostile = workload.hostile if hostile is None else hostile
    answers: List[Answer] = []
    watch = Stopwatch()
    round_index = 0
    while True:
        for slot, (keyword, aggregate, algorithm, walk_seed, fault_seed) in enumerate(
            walk_round(seed, round_index)
        ):
            key = (round_index, slot, algorithm)
            if recorder is not None:
                recorder.set_query(key)
            plan = replace(FAULT_PROFILES["hostile"], seed=fault_seed) if hostile else None
            query = AGGREGATES[aggregate](keyword)
            answer = Answer(key, keyword, aggregate, workload.budget, "failed",
                            fixed=round_index < rounds)
            start = clock()
            try:
                analyzer = MicroblogAnalyzer(platform, algorithm=algorithm, interval=DAY,
                                             seed=walk_seed, fault_plan=plan)
                result = analyzer.estimate(query, budget=workload.budget)
            except ReproError:
                result = None
            answer.latency_s = clock() - start
            if result is not None and result.value is not None:
                answer.status = "ok"
                answer.value = result.value
                answer.cost_by_kind = dict(result.cost_by_kind)
                answer.cost_total = result.cost_total
            answers.append(answer)
        if _done(round_index, rounds, watch, seconds):
            break
        round_index += 1
    timed = watch.now()
    return Pass(answers, timed, round_index + 1, attempted=len(answers))


# ----------------------------------------------------------------------
# service-evolve
# ----------------------------------------------------------------------
def service_epoch(seed: int, epoch: int) -> List[List[tuple]]:
    """The rounds of one epoch, each a list of ``(tenant, keyword, aggregate)``.

    The nine cells are split into three rounds of three, one cell per
    keyword and per aggregate in each round (a seeded Latin square), so
    every epoch computes each cell once.  Each round adds one exact
    repeat, one per keyword over the epoch: round one repeats one of its
    own cells (served as a follower in the same batch), later rounds
    repeat a cell of an earlier round (served from the result cache).
    The batch tenant sends two queries a round, the others one each.
    """
    rng = random.Random(f"perfbench:service:{seed}:{epoch}")
    keywords = list(KEYWORDS)
    aggregates = list(AGGREGATES)
    rng.shuffle(keywords)
    rng.shuffle(aggregates)
    rounds = []
    earlier: List[tuple] = []
    for r in range(ROUNDS_PER_EPOCH):
        fresh = [(keyword, aggregates[(k + r) % len(aggregates)])
                 for k, keyword in enumerate(keywords)]
        pool = fresh if r == 0 else earlier
        repeat_keyword = keywords[r]
        repeat = rng.choice([cell for cell in pool if cell[0] == repeat_keyword])
        earlier += fresh
        queries = fresh + [repeat]
        rng.shuffle(queries)
        tenants = [BATCH_TENANT, BATCH_TENANT] + [t.name for t in TENANTS
                                                  if t.name != BATCH_TENANT]
        rng.shuffle(tenants)
        rounds.append([(tenant,) + cell for tenant, cell in zip(tenants, queries)])
    return rounds


def build_service(workdir: str, seed: int):
    """mmap platform in a fresh directory, wrapped to evolve, plus the service."""
    spill = tempfile.mkdtemp(prefix="plane-", dir=workdir)
    config = simulator.PlatformConfig(num_users=NUM_USERS, seed=BENCH_PLATFORM_SEED,
                                      data_plane="mmap", spill_dir=spill)
    platform = evolve_platform(simulator.build_platform(config))
    service = EstimationService(platform, TENANTS, interval="auto",
                                n_threads=SERVICE_THREADS, seed=seed)
    return service, spill


def run_service_pass(service, workload: Workload, seed: int, rounds: int,
                     seconds: Optional[float], with_truth: bool = True) -> Pass:
    """Rounds of batched submissions, a delta after every third round.

    A query's latency runs from its submission until its response, the
    outcome plus its exported trace, is ready.  A queued query waits for
    the top-up after its round and runs with the next batch; the queue
    is drained before each delta, so every query runs in the epoch it
    was sent in.  Generating deltas and exact values is bookkeeping and
    stays out of the timed window.
    """
    platform = service.platform
    answers: List[Answer] = []
    submitted: Dict[int, tuple] = {}
    watch = Stopwatch()
    epoch = 0
    round_index = 0
    pending: List[List[tuple]] = []

    def deliver(outcomes, fixed: bool) -> None:
        for outcome in outcomes:
            submit_time, key, keyword, aggregate = submitted.pop(outcome.request_id)
            result = outcome.result
            ok = outcome.status == "ok" and result is not None and result.value is not None
            answer = Answer(key, keyword, aggregate, outcome.request.budget,
                            "ok" if ok else "failed",
                            fixed=fixed, cached=outcome.cached, epoch=epoch)
            if answer.status == "ok":
                answer.value = result.value
                answer.cost_by_kind = dict(result.cost_by_kind)
                answer.cost_total = result.cost_total
                answer.payload = outcome.trace_bytes()
            answer.latency_s = watch.now() - submit_time
            answers.append(answer)

    while True:
        if not pending:
            pending = service_epoch(seed, epoch)
        for slot, (tenant, keyword, aggregate) in enumerate(pending.pop(0)):
            request = QueryRequest(tenant, AGGREGATES[aggregate](keyword), workload.budget,
                                   tag=f"r{round_index}s{slot}")
            submit_time = watch.now()
            ticket = service.submit(request)
            submitted[ticket.request_id] = (submit_time, (round_index, slot),
                                            keyword, aggregate)
        fixed = round_index < rounds
        deliver(service.execute_pending(), fixed)
        service.top_up(BATCH_TENANT, TOP_UP)
        if not pending:
            deliver(service.execute_pending(), fixed)
            watch.pause()
            if with_truth and fixed:
                compute_truths(platform.store, [a for a in answers if a.epoch == epoch])
            delta = synthesize_delta(platform, seed=seed * 1_000 + epoch)
            watch.resume()
            service.advance(delta)
            epoch += 1
            if _done(round_index, rounds, watch, seconds):
                break
        round_index += 1
    timed = watch.now()
    stats = service.stats()
    return Pass(answers, timed, round_index + 1, attempted=len(answers) + len(submitted),
                stats={key: float(value) for key, value in stats.items()})


# ----------------------------------------------------------------------
# set-up, timed for setup_s
# ----------------------------------------------------------------------
class Plane:
    """The workload's platform (and service), built and torn down."""

    def __init__(self, workload: Workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.platform = None
        self.service = None
        self._spill: Optional[str] = None

    def build(self) -> float:
        """Tear down what exists, build afresh; returns the set-up seconds."""
        self.close()
        start = clock()
        if self.workload.kind == "walk":
            self.platform = build_walk_platform()
        else:
            self.service, self._spill = build_service(self.workdir, self.seed)
            self.platform = self.service.platform
        return clock() - start

    def run(self, rounds: int, seconds: Optional[float] = None, recorder=None,
            hostile=None, with_truth: bool = True) -> Pass:
        """Whole rounds, at least *rounds* and until *seconds* have passed."""
        if self.workload.kind == "walk":
            result = run_walk_pass(self.platform, self.workload, self.seed, rounds,
                                   seconds, hostile=hostile, recorder=recorder)
            if with_truth:
                compute_truths(self.platform.store, result.answers)
            return result
        return run_service_pass(self.service, self.workload, self.seed, rounds,
                                seconds, with_truth=with_truth)

    def close(self) -> None:
        self.platform = None
        self.service = None
        gc.collect()
        if self._spill is not None and os.path.isdir(self._spill):
            shutil.rmtree(self._spill)
        self._spill = None


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def check_answers(answers: List[Answer]) -> List[str]:
    """Budget, cost-column and repeat-identity checks on one pass."""
    problems = []
    computed: Dict[tuple, Answer] = {}
    for answer in answers:
        if answer.status == "ok" and not answer.cached:
            computed.setdefault((answer.epoch, answer.keyword, answer.aggregate,
                                 answer.budget), answer)
    for answer in answers:
        if answer.status != "ok":
            continue
        if not math.isfinite(answer.value):
            problems.append(f"{answer.key}: estimate {answer.value!r} is not finite")
        if answer.cost_total > answer.budget:
            problems.append(f"{answer.key}: cost {answer.cost_total} > budget {answer.budget}")
        columns = sum(calls for kind, calls in answer.cost_by_kind.items() if kind != "retries")
        if columns != answer.cost_total:
            problems.append(f"{answer.key}: cost columns sum to {columns}, "
                            f"total says {answer.cost_total}")
        if answer.cached:
            twin = computed.get((answer.epoch, answer.keyword, answer.aggregate, answer.budget))
            if twin is None:
                problems.append(f"{answer.key}: repeat without a computed twin")
            elif twin.identity() != answer.identity() or twin.payload != answer.payload:
                problems.append(f"{answer.key}: repeat differs from its computed twin")
    return problems


def compare_passes(label: str, reference: Pass, other: Pass,
                   with_retries: bool = True) -> List[str]:
    """Statuses, values and cost columns of *other* must equal *reference*'s."""
    def rows(result: Pass):
        return [(a.key, a.status, a.cached) + a.identity(with_retries)
                for a in result.answers]

    left, right = rows(reference), rows(other)
    if left == right:
        return []
    mismatched = [a[0] for a, b in zip(left, right) if a != b]
    if len(left) != len(right):
        mismatched.append(f"{len(left)} vs {len(right)} answers")
    return [f"{label}: {len(mismatched)} answers differ, first {mismatched[:3]}"]
