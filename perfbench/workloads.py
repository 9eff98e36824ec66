"""The four benchmark workloads and the output checks they share.

Each workload builds its database from :data:`DATA_SEED`, runs one op at a
time (a query, a batch of server requests, or a transaction), times only the
call into the program, and returns one :class:`OpRecord` per op. Checks and
exact answers are computed outside the timed call.

* ``paper-figures``: ``Database.estimate`` over the three Section 5 setups
  (selection, intersection, join) at the paper's geometry, round-robin over
  the shapes in segments and over the d_beta grid, with storage warm.
* ``scan-large``: COUNT selections with random thresholds over one
  50,000-tuple relation, 10,000 blocks against a 4,096-block buffer pool.
* ``server-overload``: Poisson arrivals at 2x service capacity into a
  ``QueryServer`` with the default ``RejectInfeasible`` policy, a new server
  every 1,000 requests.
* ``txn-writes``: ``run_transaction`` with three queries and one append on a
  ``QueryServer(synopses=True)``, in epochs of 200 transactions that each
  start from the loaded data.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import realtime
from repro.core.database import Database
from repro.relational.expression import Intersect, RelationRef, Select, intersect, rel, select
from repro.relational.predicate import Comparison, cmp
from repro.server import Outcome, QueryServer, demo_database, open_loop_requests, selection_mix
from repro.timecontrol import OneAtATimeInterval
from repro.storage.bufferpool import default_pool
from repro.timekeeping import CostCharger, MachineProfile
from repro.workloads import paper
from repro.workloads.generators import paper_schema, selection_relation

DATA_SEED = 0
"""Every workload loads the same data, built from the paper setups' default
seed; ``--seed`` drives the op stream (query parameters, run seeds,
arrivals, written rows). Charged quality metrics then vary across seeds
only with the queries, not with a new data layout each run."""

PAD = "x" * 8
"""Stored pad value of the paper's 200-byte tuples (width is in the schema)."""


@dataclass(frozen=True)
class QueryRecord:
    """Charged outcome of one sampled query run."""

    blocks: int
    overspent: bool
    stages: int
    rel_err: float | None
    """|estimate - exact| / exact, or ``None`` without an answer."""


@dataclass
class OpRecord:
    """One op: whether it met its deadline, its query runs, failed checks."""

    hit: bool
    queries: list[QueryRecord] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def charged(self) -> tuple:
        """Everything that depends only on charged (simulated) execution."""
        return (self.hit, tuple(self.queries))


class Oracle:
    """Exact COUNTs for the benchmark's checks, cheaper than re-evaluation.

    Selections ``a < t`` over a stored relation are counted on a NumPy copy
    of column ``a``; an intersection of two stored relations is counted on
    tuple sets. Anything else falls back to ``Database.count``. The fast
    paths are checked against ``Database.count`` by :meth:`verify`.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self.columns: dict[str, np.ndarray] = {}
        self.tuples: dict[str, set] = {}
        for name in db.catalog.names():
            rows = db.relation(name).all_rows()
            position = db.relation(name).schema.index_of("a")
            self.columns[name] = np.array([row[position] for row in rows])
            self.tuples[name] = set(rows)

    def append(self, name: str, rows: list[tuple]) -> None:
        self.columns[name] = np.concatenate(
            [self.columns[name], np.array([row[1] for row in rows])]
        )
        self.tuples[name].update(rows)

    def count(self, expr) -> int:
        if (
            isinstance(expr, Select)
            and isinstance(expr.child, RelationRef)
            and isinstance(expr.predicate, Comparison)
            and expr.predicate.attr == "a"
            and expr.predicate.op == "<"
        ):
            column = self.columns[expr.child.name]
            return int(np.count_nonzero(column < expr.predicate.value))
        if (
            isinstance(expr, Intersect)
            and isinstance(expr.left, RelationRef)
            and isinstance(expr.right, RelationRef)
        ):
            return len(self.tuples[expr.left.name] & self.tuples[expr.right.name])
        return self.db.count(expr)

    def verify(self, exprs) -> None:
        for expr in exprs:
            fast, slow = self.count(expr), self.db.count(expr)
            if fast != slow:
                raise RuntimeError(
                    f"oracle disagrees with Database.count on {expr}: "
                    f"{fast} != {slow}"
                )


def check_result(result, exact: int, problems: list[str]) -> QueryRecord:
    """Check one ``QueryResult`` against its exact COUNT; return its record."""
    rel_err = None
    estimate = result.estimate
    if estimate is not None:
        value = estimate.value
        if not math.isfinite(value) or value < 0:
            problems.append(f"COUNT estimate {value!r} is not finite and >= 0")
        elif result.exact and value != exact:
            problems.append(f"exact result {value} != Database.count {exact}")
        elif exact > 0:
            rel_err = abs(value - exact) / exact
    return QueryRecord(
        blocks=result.blocks,
        overspent=result.overspent,
        stages=result.stages_attempted,
        rel_err=rel_err,
    )


def next_op(state) -> None:
    """Start a new op id for the spans of a traced run."""
    tracer = state.get("tracer")
    if tracer is not None:
        tracer.op += 1


def counters(dbs) -> tuple[int, ...]:
    """Buffer-pool hits, misses, evictions, invalidations, then synopsis
    hits, misses, invalidations summed over ``dbs``."""
    pool = default_pool().info()
    synopses = [db.synopses.info() for db in dbs]
    return (
        pool.hits,
        pool.misses,
        pool.evictions,
        pool.invalidations,
        sum(s.hits for s in synopses),
        sum(s.misses for s in synopses),
        sum(s.invalidations for s in synopses),
    )


@contextlib.contextmanager
def between_ops(state, dbs=()):
    """Untimed work between ops: no spans, and the counter traffic it
    causes is tallied in ``state["excluded"]`` so the traced run omits it."""
    tracer = state.get("tracer")
    if tracer is not None:
        tracer.paused = True
    before = counters(dbs)
    try:
        yield
    finally:
        excluded = state.setdefault("excluded", [0] * len(before))
        for index, (now, then) in enumerate(zip(counters(dbs), before)):
            excluded[index] += now - then
        if tracer is not None:
            tracer.paused = False


def preload(db: Database) -> None:
    """Read every block of ``db`` into the default buffer pool, uncharged.

    Blocks cached under the same relation names are dropped first, so the
    loads admit into free slots instead of evicting one block per read."""
    pool = default_pool()
    charger = CostCharger(MachineProfile.uniform(0.0))
    for name in db.catalog.names():
        pool.invalidate_relation(name)
    for name in db.catalog.names():
        heap = db.relation(name)
        heap.read_blocks(range(heap.block_count), charger, pool=pool)


def _seeds(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


STRATA = 10


def threshold(rng: np.random.Generator, tuples: int, index: int) -> int:
    """A random ``a < t`` threshold in [tuples/10, tuples), stratified: op
    ``index`` draws from the ``index % STRATA``-th of :data:`STRATA` equal
    slices, so each run covers the range evenly whatever the seed."""
    low = tuples // 10
    width = (tuples - low) / STRATA
    stratum = index % STRATA
    return int(rng.integers(low + int(stratum * width), low + int((stratum + 1) * width)))


class Workload:
    """One benchmark workload. Subclasses fill in the hooks below."""

    name = ""
    min_ops = 0
    """Ops every untraced run completes; the charged metrics cover these."""
    round_ops = 1
    """A run stops only after a whole number of these, so every run sees
    the same mix of op kinds."""
    setup_repeats = 3
    warm_up = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def build(self):
        """Build and load the database(s): the timed set-up. Returns state."""
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed: exact answers for the checks and the op input stream."""
        raise NotImplementedError

    def warmup(self, state) -> None:
        """Untimed: fill lazy imports and compile caches."""

    def step(self, state) -> list[tuple[float, OpRecord]]:
        """Run the next op(s); returns (wall seconds, record) per op."""
        raise NotImplementedError

    def databases(self, state) -> list[Database]:
        raise NotImplementedError

    def server_outcomes(self, state) -> list:
        return []


class PaperFigures(Workload):
    """The Section 5 setups, one shape at a time so its data stays cached.

    The three setups hold 10,000 blocks, more than the 4,096-block default
    buffer pool, but each setup alone (at most 4,000 blocks) fits. So ops
    run in segments of :attr:`segment` queries of one shape, round-robin
    over the shapes, and each segment starts by reading its relations into
    the pool, untimed. Within a segment the queries cycle through the d_beta
    grid; storage stays warm and the controller and operators do the work.
    """

    name = "paper-figures"
    min_ops = 900
    segment = 100
    round_ops = 3 * segment

    def build(self):
        tuples = 1_000 if self.tiny else paper.PAPER_RELATION_TUPLES
        scale = tuples / paper.PAPER_RELATION_TUPLES
        return {
            "setups": [
                paper.make_selection_setup(
                    output_tuples=int(1_000 * scale),
                    tuples=tuples,
                    seed=DATA_SEED,
                    quota=paper.SELECTION_QUOTA * scale,
                ),
                paper.make_intersection_setup(
                    common_tuples=tuples,
                    tuples=tuples,
                    seed=DATA_SEED,
                    quota=paper.INTERSECTION_QUOTA * scale,
                ),
                paper.make_join_setup(
                    tuples=tuples,
                    seed=DATA_SEED,
                    quota=paper.JOIN_QUOTA * scale,
                ),
            ]
        }

    def prepare(self, state) -> None:
        state["exact"] = [setup.database.count(setup.query) for setup in state["setups"]]
        state["rng"] = _seeds(self.seed, 1)
        state["index"] = 0

    def _run(self, state, index: int, query_seed: int) -> tuple[float, OpRecord]:
        shape = (index // self.segment) % len(state["setups"])
        setup = state["setups"][shape]
        if index % self.segment == 0:
            with between_ops(state):
                preload(setup.database)
        strategy = OneAtATimeInterval(d_beta=paper.D_BETA_GRID[index % len(paper.D_BETA_GRID)])
        start = time.perf_counter()
        result = setup.database.estimate(
            setup.query,
            quota=setup.quota,
            strategy=strategy,
            seed=query_seed,
            initial_selectivities=setup.initial_selectivities,
        )
        elapsed = time.perf_counter() - start
        record = OpRecord(hit=result.estimate is not None)
        record.queries.append(check_result(result, state["exact"][shape], record.problems))
        return elapsed, record

    def warmup(self, state) -> None:
        rng = _seeds(self.seed, 2)
        for shape in range(len(state["setups"])):
            for index in range(len(paper.D_BETA_GRID)):
                self._run(state, shape * self.segment + index, int(rng.integers(0, 2**31)))

    def step(self, state):
        next_op(state)
        index = state["index"]
        state["index"] += 1
        return [self._run(state, index, int(state["rng"].integers(0, 2**31)))]

    def databases(self, state):
        return [setup.database for setup in state["setups"]]


class ScanLarge(Workload):
    name = "scan-large"
    min_ops = 250
    round_ops = STRATA
    quota = 40.0
    """Simulated seconds: buys about 300 of the 10,000 blocks per query."""

    def build(self):
        tuples = 2_500 if self.tiny else 50_000
        db = Database(profile=MachineProfile.sun3_60(), seed=DATA_SEED)
        rows = selection_relation(np.random.default_rng(DATA_SEED), tuples=tuples)
        db.create_relation("r1", paper_schema(), rows)
        return {"db": db, "tuples": tuples}

    def prepare(self, state) -> None:
        state["oracle"] = Oracle(state["db"])
        tuples = state["tuples"]
        state["oracle"].verify(
            [select(rel("r1"), cmp("a", "<", t)) for t in (tuples // 10, tuples // 2)]
        )
        state["rng"] = _seeds(self.seed, 1)
        state["index"] = 0

    def _run(self, state, rng, index: int) -> tuple[float, OpRecord]:
        tuples = state["tuples"]
        expr = select(rel("r1"), cmp("a", "<", threshold(rng, tuples, index)))
        query_seed = int(rng.integers(0, 2**31))
        quota = self.quota * tuples / 50_000
        start = time.perf_counter()
        result = state["db"].estimate(expr, quota=quota, seed=query_seed)
        elapsed = time.perf_counter() - start
        record = OpRecord(hit=result.estimate is not None)
        record.queries.append(
            check_result(result, state["oracle"].count(expr), record.problems)
        )
        return elapsed, record

    def warmup(self, state) -> None:
        rng = _seeds(self.seed, 2)
        for index in range(5):
            self._run(state, rng, index)

    def step(self, state):
        next_op(state)
        state["index"] += 1
        return [self._run(state, state["rng"], state["index"] - 1)]

    def databases(self, state):
        return [state["db"]]


class ServerOverload(Workload):
    name = "server-overload"
    min_ops = 4000
    setup_repeats = 5
    batch = 100
    """Requests per ``QueryServer.process`` call."""
    round_ops = 1_000
    """Requests one server serves; then a new server starts, so every run
    averages several independent server histories (the learned cost model
    steers admission)."""
    group = 10
    """Each request's wall time is the mean gap between completions over its
    group of this many consecutive completions. Single gaps split into a
    fast mode (rejections) and a slow one (sampled runs), and a median that
    falls between the modes jumps with small changes in the mix."""
    quota = 2.0
    overload = 2.0

    def build(self):
        tuples = 400 if self.tiny else 2_000
        db = demo_database(seed=DATA_SEED, tuples=tuples)
        return {"db": db, "server": QueryServer(db), "tuples": tuples}

    def prepare(self, state) -> None:
        state["oracle"] = Oracle(state["db"])
        state["oracle"].verify(
            [select(rel("r1"), cmp("a", "<", 1_000)), intersect(rel("r1"), rel("r2"))]
        )
        state["rng"] = _seeds(self.seed, 1)
        state["outcomes"] = []

    def _requests(self, server: QueryServer, tuples: int, rng) -> list:
        offset = server.clock.now()
        requests = open_loop_requests(
            count=self.batch,
            quota=self.quota,
            overload=self.overload,
            make_query=selection_mix(tuples, intersect_fraction=0.2),
            tuples=tuples,
            seed=int(rng.integers(0, 2**31)),
        )
        return [dataclasses.replace(r, arrival=r.arrival + offset) for r in requests]

    def warmup(self, state) -> None:
        server = QueryServer(state["db"])
        server.process(self._requests(server, state["tuples"], _seeds(self.seed, 2)))

    def step(self, state):
        if len(state["server"].outcomes) >= self.round_ops:
            state["server"] = QueryServer(state["db"])
        server = state["server"]
        requests = self._requests(server, state["tuples"], state["rng"])
        stamps: list[float] = []

        def completed(_outcome) -> None:
            stamps.append(time.perf_counter())
            next_op(state)

        next_op(state)
        start = time.perf_counter()
        served = len(server.outcomes)
        outcomes = server.process(requests, on_complete=completed)
        state["outcomes"] += outcomes
        problems = []
        if len(outcomes) != len(requests) or len(stamps) != len(outcomes):
            problems.append(f"{len(outcomes)} outcomes for {len(requests)} requests")
        if sorted(o.request.request_id for o in outcomes) != sorted(
            r.request_id for r in requests
        ):
            problems.append("requests and outcomes do not pair one to one")
        if server.metrics.completed != served + len(requests):
            problems.append(
                f"metrics.completed {server.metrics.completed} != "
                f"{served + len(requests)} attempted"
            )
        chunks = np.array_split(np.diff([start, *stamps]), max(len(stamps) // self.group, 1))
        gaps = np.concatenate([np.full(len(c), c.mean()) for c in chunks]).tolist()
        ops = []
        for index, outcome in enumerate(outcomes):
            record = OpRecord(hit=outcome.answered, problems=list(problems))
            if not isinstance(outcome.outcome, Outcome):
                record.problems.append(f"unknown outcome {outcome.outcome!r}")
            if outcome.result is not None:
                exact = state["oracle"].count(outcome.request.expr)
                query = check_result(outcome.result, exact, record.problems)
                # A late answer is a sampled run, but not an answer.
                if not outcome.answered:
                    query = dataclasses.replace(query, rel_err=None)
                record.queries.append(query)
            ops.append((gaps[index] if index < len(gaps) else 0.0, record))
        return ops

    def databases(self, state):
        return [state["db"]]

    def server_outcomes(self, state):
        return state["outcomes"]


class TxnWrites(Workload):
    name = "txn-writes"
    min_ops = 1600
    setup_repeats = 5
    warm_up = False
    deadline = 6.0
    round_ops = 200
    """Transactions per epoch. Each epoch starts from the loaded ``r1``
    and a new server again (set up untimed), so the relation's growth, and
    the cost of querying it, is the same in every epoch whatever the run's
    length, and a run averages several independent server histories."""

    def build(self):
        tuples = 400 if self.tiny else 2_000
        db = demo_database(seed=DATA_SEED, tuples=tuples)
        return {"db": db, "server": QueryServer(db, synopses=True), "tuples": tuples}

    def prepare(self, state) -> None:
        state["oracle"] = Oracle(state["db"])
        state["oracle"].verify(
            [select(rel("r1"), cmp("a", "<", 1_000)), intersect(rel("r1"), rel("r2"))]
        )
        state["rng"] = _seeds(self.seed, 1)
        state["next_id"] = 3_000_000
        state["loaded"] = state["db"].relation("r1").all_rows()
        state["done"] = 0
        state["outcomes"] = []

    def _restore(self, state) -> None:
        db = state["db"]
        with between_ops(state, [db]):
            db.drop_relation("r1")
            db.create_relation("r1", paper_schema(), state["loaded"])
            state["oracle"] = Oracle(db)
            state["server"] = QueryServer(db, synopses=True)

    def step(self, state):
        index = state["done"]
        if index and index % self.round_ops == 0:
            self._restore(state)
        state["done"] += 1
        next_op(state)
        rng, tuples, oracle = state["rng"], state["tuples"], state["oracle"]
        db = state["db"]
        rows = [
            (state["next_id"] + j, int(rng.integers(0, 10_000)), 0, PAD) for j in range(5)
        ]
        state["next_id"] += len(rows)
        tasks = [
            realtime.QueryTask(
                "count_r1", select(rel("r1"), cmp("a", "<", threshold(rng, tuples, index)))
            ),
            realtime.QueryTask("overlap", intersect(rel("r1"), rel("r2"))),
            realtime.WriteTask("append", "r1", rows=rows),
            realtime.QueryTask(
                "count_r2", select(rel("r2"), cmp("a", "<", threshold(rng, tuples, index + 5)))
            ),
        ]
        exact = {t.name: oracle.count(t.expr) for t in tasks if isinstance(t, realtime.QueryTask)}
        before = db.relation("r1").tuple_count
        query_seed = int(rng.integers(0, 2**31))
        server = state["server"]
        served = len(server.outcomes)
        start = time.perf_counter()
        outcome = realtime.run_transaction(server, tasks, deadline=self.deadline, seed=query_seed)
        elapsed = time.perf_counter() - start
        state["outcomes"] += server.outcomes[served:]
        if db.relation("r1").tuple_count != before:
            oracle.append("r1", rows)
        if not isinstance(outcome, realtime.TransactionResult):
            return [(elapsed, OpRecord(hit=False, problems=[f"returned {outcome!r}"]))]
        record = OpRecord(hit=outcome.met_deadline)
        for name, result in outcome.results.items():
            query = check_result(result, exact[name], record.problems)
            # The query a transaction aborted after may have come too late.
            if name == outcome.aborted_after:
                query = dataclasses.replace(query, rel_err=None)
            record.queries.append(query)
        return [(elapsed, record)]

    def databases(self, state):
        return [state["db"]]

    def server_outcomes(self, state):
        return state["outcomes"]


WORKLOADS = {cls.name: cls for cls in (PaperFigures, ScanLarge, ServerOverload, TxnWrites)}
