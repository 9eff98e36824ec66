"""``Database.lower``: an unbound plan prices exactly like a session's plan.

Admission pricing and ``Database.explain`` lower queries to *unbound*
plans — no RNG stream, no charger, no sampler permutation — instead of
opening sessions they never run. These tests pin that the switch is
invisible: on random select / conjunct / intersect / join / project
queries, with synopses off and on and default and ``hybrid`` selectivity
sources, the unbound plan's minimum stage cost, itemization and explanation equal
those of a ``seed=0`` session's plan bit for bit; a served stream admits
exactly as it would on session prices; and nothing spawns from the
database's master seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryOptions
from repro.errors import EstimationError, ReproError, SchemaError, UnboundPlanError
from repro.estimation.aggregates import sum_of
from repro.observability import RecordingSink
from repro.planner.explain import build_explanation, predicted_stage_costs
from repro.relational.expression import intersect, join, project, rel, select
from repro.relational.predicate import cmp
from repro.server.admission import minimum_stage_cost
from repro.server.events import AdmissionDecided
from repro.server.scheduler import QueryServer
from repro.server.workload import open_loop_requests, selection_mix

NAMES = ("r1", "r2", "r3")
TUPLES = 600


def build_db(synopses: bool = False) -> Database:
    """Three analyzed relations."""
    db = Database(seed=5, block_size=128)
    for index, name in enumerate(NAMES):
        db.create_relation(
            name,
            [("id", "int"), ("a", "int"), ("b", "int")],
            rows=[(i, i % (7 + index), i % 11) for i in range(TUPLES)],
        )
    db.analyze()
    if synopses:
        # Record some answers so lowering warm-starts trackers.
        for seed, query in enumerate(QUERIES):
            db.estimate(query, quota=2.0, seed=seed, synopses=True)
    return db


QUERIES = (
    select(rel("r1"), cmp("a", "<", 3)),
    intersect(rel("r1"), rel("r2")),
    select(join(rel("r2"), rel("r3"), on=["a"]), cmp("a", "<", 2)),
)


@pytest.fixture(scope="module")
def dbs():
    return {False: build_db(), True: build_db(synopses=True)}


@st.composite
def queries(draw):
    names = draw(st.permutations(NAMES))
    threshold = draw(st.integers(0, 9))
    predicate = cmp("a", draw(st.sampled_from(["<", ">=", "=="])), threshold)
    shape = draw(
        st.sampled_from(["select", "conjunct", "intersect", "join", "project"])
    )
    if shape == "select":
        return select(rel(names[0]), predicate)
    if shape == "conjunct":
        return select(rel(names[0]), predicate & cmp("b", "<", draw(st.integers(1, 10))))
    if shape == "intersect":
        return intersect(rel(names[0]), select(rel(names[1]), predicate))
    if shape == "join":
        # Selection above the join: the optimizer pushes it down.
        return select(join(rel(names[0]), rel(names[1]), on=["a"]), predicate)
    return project(select(rel(names[0]), predicate), ("a",))


def same(actual, expected):
    return actual == expected and repr(actual) == repr(expected)


@settings(max_examples=60, deadline=None)
@given(
    # The recorded queries hit the synopsis catalog; random ones mostly miss.
    query=st.one_of(st.sampled_from(QUERIES), queries()),
    synopses=st.booleans(),
    source=st.sampled_from(["runtime", "hybrid"]),
    summed=st.booleans(),
)
def test_unbound_plan_prices_like_a_session_plan(
    dbs, query, synopses, source, summed
):
    db = dbs[synopses]
    aggregate = (
        sum_of("b") if summed and not query.contains_projection() else None
    )
    options = QueryOptions(synopses=synopses, selectivity_source=source)
    before = db._seed_sequence.n_children_spawned

    def session_plan(**overrides):
        return db.open_session(
            query, 1.0, options, aggregate=aggregate, seed=0, **overrides
        ).plan

    plan = db.lower(query, options, aggregate=aggregate)
    reference = session_plan()
    assert not plan.bound and reference.bound
    assert same(minimum_stage_cost(plan), minimum_stage_cost(reference))
    lowered, opened = predicted_stage_costs(plan), predicted_stage_costs(reference)
    assert same(lowered.fraction, opened.fraction)
    assert same(lowered.stage_overhead, opened.stage_overhead)
    assert same(lowered.qcost, opened.qcost)
    assert lowered.nodes == opened.nodes
    assert [repr(n.seconds) for n in lowered.nodes] == [
        repr(n.seconds) for n in opened.nodes
    ]

    db.explain(query, options, aggregate=aggregate)  # warm the plan cache
    explained = db.explain(query, options, aggregate=aggregate)
    expected = build_explanation(
        session_plan(optimize=False), session_plan(optimize=True)
    )
    assert explained == expected
    assert explained.render() == expected.render()
    assert db._seed_sequence.n_children_spawned == before


def test_unbound_plan_skips_permutations_and_cannot_run(dbs):
    db = dbs[False]
    query = intersect(rel("r1"), select(rel("r2"), cmp("a", "<", 4)))
    plan = db.lower(query)
    assert not plan.bound
    for scan in plan.scans:
        assert not scan.sampler.bound
        assert scan.sampler.remaining_blocks == scan.relation.block_count
    with pytest.raises(UnboundPlanError):
        plan.advance_stage(0.1)
    with pytest.raises(UnboundPlanError):
        plan.scans[0].sampler.draw(1)
    assert plan.stages_completed == 0 and plan.history == []
    assert plan.blocks_drawn() == 0
    # The session's plan is bound: permuted samplers.
    session = db.open_session(query, 1.0, seed=0)
    assert session.plan.bound
    assert all(scan.sampler.bound for scan in session.plan.scans)


def test_lower_binds_synopses_like_a_session(dbs):
    db = dbs[True]
    first = db.synopses.info()
    for query in QUERIES:
        start = db.synopses.info()
        plan = db.lower(query, synopses=True)
        lowered = db.synopses.info()
        session = db.open_session(query, 1.0, seed=0, synopses=True)
        opened = db.synopses.info()
        assert lowered.hits - start.hits == opened.hits - lowered.hits
        assert lowered.misses - start.misses == opened.misses - lowered.misses
        priors = [(t.label, t.prior_tuples, t.prior_points) for t in plan.trackers()]
        assert priors == [
            (t.label, t.prior_tuples, t.prior_points)
            for t in session.plan.trackers()
        ]
    assert opened.hits > first.hits  # the catalog did warm-start trackers


def test_lower_keeps_the_session_checks():
    db = Database(seed=1)
    db.create_relation("r", [("a", "int")], rows=[(i,) for i in range(50)])
    with pytest.raises(SchemaError):
        db.lower(select(rel("r"), cmp("missing", "<", 3)))
    with pytest.raises(ReproError):  # hybrid needs prestored statistics
        db.lower(rel("r"), selectivity_source="hybrid")
    with pytest.raises(EstimationError):
        db.lower(project(rel("r"), ("a",)), aggregate=sum_of("a"))


def test_lowering_explaining_and_serving_spawn_nothing():
    db = build_db()
    query = select(rel("r1"), cmp("a", "<", 3))
    spawned = db._seed_sequence.n_children_spawned
    db.lower(query)
    db.explain(query)
    server = QueryServer(db)
    requests = open_loop_requests(
        40, quota=3.0, overload=2.0, tuples=TUPLES, seed=3,
        make_query=selection_mix(TUPLES, intersect_fraction=0.3),
    )
    outcomes = server.process(requests)
    assert len(outcomes) == 40
    assert db._seed_sequence.n_children_spawned == spawned
    db.open_session(query, 1.0)  # an unseeded run does spawn
    assert db._seed_sequence.n_children_spawned == spawned + 1


# ----------------------------------------------------------------------
# Admission decisions are unchanged
# ----------------------------------------------------------------------
def _session_price(server, request):
    """The price admission used to compute: a never-run seed=0 session."""
    session = server.database.open_session(
        request.expr,
        quota=request.quota,
        aggregate=request.aggregate,
        cost_model=server._cost_model,
        seed=0,
        clock=server.clock,
        **server._session_overrides(),
    )
    return minimum_stage_cost(session.plan)


def _serve(requests, synopses, minimum_cost):
    sink = RecordingSink()
    server = QueryServer(build_db(), sink=sink, synopses=synopses)
    server._minimum_cost = lambda request: minimum_cost(server, request)
    server.process(requests)
    return sink.of_kind(AdmissionDecided)


@pytest.mark.parametrize("synopses", [False, True])
def test_admission_decisions_match_session_prices(synopses):
    requests = open_loop_requests(
        300, quota=3.0, overload=2.0, tuples=TUPLES, seed=11,
        make_query=selection_mix(TUPLES, intersect_fraction=0.25),
    )
    priced = []

    def checked(server, request):
        price = QueryServer._minimum_cost(server, request)
        expected = _session_price(server, request)
        assert same(price, expected)
        priced.append(price)
        return price

    decided = _serve(requests, synopses, checked)
    reference = _serve(requests, synopses, _session_price)
    assert len(priced) == len(requests) == len(decided)
    assert decided == reference
    actions = {event.action for event in decided}
    assert "admit" in actions and len(actions) > 1  # both sides exercised

