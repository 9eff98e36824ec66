"""Compiled QCOST is bit-identical to the recursive tree walk it replaced.

``repro.engine.qcost`` lowers a staged plan's cost formulas once per stage
decision into a flat post-order list of steps. This file keeps the
recursive per-node ``predict`` walk the engine used before — a cache per
pass so shared scans are priced once, providers called per node with
``(tracker, candidate points, space points)`` — as a reference model, and
checks on random SJIP plans that every caller of the compiled form gets
exactly the reference's float: the One-at-a-Time ``sel⁺`` bisection, the
Single-Interval mean, bumped and margin costs, and ``explain``'s itemized
cheapest-stage price.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.costmodel import steps as step_names
from repro.costmodel.model import CostModel
from repro.engine.nodes import (
    StagedProject,
    StagedScan,
    StagedSelect,
    _StagedBinary,
)
from repro.engine.plan import StagedPlan
from repro.errors import EstimationError, TimeControlError
from repro.estimation.count_estimators import srs_selectivity_variance
from repro.estimation.selectivity import MEAN_SELECTIVITY
from repro.planner.explain import predicted_stage_costs
from repro.relational.expression import (
    difference,
    intersect,
    join,
    project,
    rel,
    select,
    union,
)
from repro.relational.predicate import cmp
from repro.sampling.sampler import blocks_for_fraction
from repro.timecontrol.strategies import OneAtATimeInterval, SingleInterval
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation

BLOCK_SIZE = 16  # two 8-byte tuples per block: tens of blocks per relation
NAMES = ("r1", "r2", "r3")


def build_catalog() -> Catalog:
    schema = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
    catalog = Catalog()
    # Odd sizes leave each relation's last block part-filled.
    sizes = (51, 45, 37)
    for offset, (name, modulus, size) in enumerate(zip(NAMES, (7, 5, 3), sizes)):
        rows = [(i, i % modulus) for i in range(16 * offset, 16 * offset + size)]
        catalog.register(name, make_relation(name, schema, rows, BLOCK_SIZE))
    return catalog


# ----------------------------------------------------------------------
# The reference: the recursive tree walk, as the engine priced stages
# before compilation.
# ----------------------------------------------------------------------
class RefContext:
    def __init__(self, fraction, sel_provider):
        if fraction <= 0:
            raise TimeControlError(f"candidate fraction must be positive: {fraction}")
        self.fraction = fraction
        self.sel_provider = sel_provider
        self.cache = {}  # id(node) -> (seconds, new_out_tuples, new_points)
        self.total_seconds = 0.0

    def store(self, node, prediction):
        self.cache[id(node)] = prediction
        self.total_seconds += prediction[0]
        return prediction


def _nlogn(n):
    return n * math.log2(n) if n > 1 else 0.0


def ref_new_points(node, ctx):
    scans = node.base_scans()
    news = [ref_predict(s, ctx)[1] for s in scans]
    if node.full_fulfillment:
        after = math.prod(s.cum_tuples + n for s, n in zip(scans, news))
        before = math.prod(s.cum_tuples for s in scans)
        return after - before
    return math.prod(news)


def ref_predict(node, ctx):
    cached = ctx.cache.get(id(node))
    if cached is not None:
        return cached
    model = node.cost_model
    if isinstance(node, StagedScan):
        d = min(
            blocks_for_fraction(node.relation, ctx.fraction),
            node.sampler.remaining_blocks,
        )
        seconds = model.predict(step_names.SCAN_READ, [d, 1.0]) if d else 0.0
        new_tuples = float(d * node.relation.blocking_factor)
        new_tuples = min(new_tuples, node.relation.tuple_count - node.cum_tuples)
        return ctx.store(node, (seconds, new_tuples, new_tuples))
    children = (
        [node.left, node.right] if isinstance(node, _StagedBinary) else [node.child]
    )
    child_out = [ref_predict(child, ctx)[1] for child in children]
    new_points = ref_new_points(node, ctx)
    sel = ctx.sel_provider(node.tracker, max(int(new_points), 1), node.space_points())
    out = sel * new_points
    if isinstance(node, StagedSelect):
        seconds = model.predict(
            step_names.SELECT_OP, [child_out[0], out / node._bf(), 1.0]
        )
    elif isinstance(node, StagedProject):
        n = child_out[0]
        seconds = (
            model.predict(step_names.PROJECT_WRITE, [n, 1.0])
            + model.predict(step_names.PROJECT_SORT, [_nlogn(n), n, 1.0])
            + model.predict(
                step_names.PROJECT_DEDUPE, [n, out / node._bf(), 1.0]
            )
        )
    else:
        n1, n2 = child_out
        s = node.stage + 1
        if node.full_fulfillment:
            reads = node.cum_left_in + node.cum_right_in + s * (n1 + n2)
            merges = 2 * s - 1
        else:
            reads = n1 + n2
            merges = 1
        seconds = (
            model.predict(node.write_step, [n1 + n2, 1.0])
            + model.predict(
                node.sort_step, [_nlogn(n1) + _nlogn(n2), n1 + n2, 1.0]
            )
            + model.predict(node.merge_step, [reads, out, merges])
        )
    return ctx.store(node, (seconds, out, new_points))


def ref_qcost(plan, fraction, sel_provider):
    ctx = RefContext(fraction, sel_provider)
    for term in plan.terms:
        ref_predict(term.root, ctx)
    return ctx.total_seconds


def ref_variance(tracker, candidate_points, space_points):
    remaining = space_points - tracker.total_points
    if remaining <= 1:
        return 0.0
    m_i = min(candidate_points, remaining)
    return srs_selectivity_variance(tracker.effective_sel_prev(), m_i, remaining)


def ref_sel_plus(d_beta):
    def provide(tracker, candidate_points, space_points):
        if tracker.pinned:
            return tracker.initial
        if tracker.stages_observed == 0 and not tracker.has_prior:
            return tracker.initial
        sel = tracker.effective_sel_prev()
        margin = d_beta * ref_variance(tracker, candidate_points, space_points) ** 0.5
        return min(max(sel + margin, 1e-12), 1.0)

    return provide


def ref_mean(tracker, candidate_points, space_points):
    if tracker.stages_observed == 0 and not tracker.has_prior:
        return tracker.initial
    return tracker.effective_sel_prev()


def ref_bumped(bump, step):
    def provide(tracker, candidate_points, space_points):
        base = ref_mean(tracker, candidate_points, space_points)
        return min(base + step, 1.0) if tracker is bump else base

    return provide


def ref_node_of(plan, tracker):
    for term in plan.terms:
        for node in term.root.iter_nodes():
            if node.tracker is tracker:
                return node
    raise AssertionError(tracker.label)


def ref_margin(strategy, plan, fraction):
    step = strategy._gradient_step
    mu = ref_qcost(plan, fraction, ref_mean)
    if strategy.d_alpha == 0:
        return mu
    trackers = plan.trackers()
    grads = [
        (ref_qcost(plan, fraction, ref_bumped(t, step)) - mu) / step
        for t in trackers
    ]
    variance = 0.0
    for u, tu in enumerate(trackers):
        node = ref_node_of(plan, tu)
        points = max(int(ref_new_points(node, RefContext(fraction, ref_mean))), 1)
        var_u = (
            ref_variance(tu, points, node.space_points())
            if tu.stages_observed and points > 0
            else 0.0
        )
        variance += grads[u] * grads[u] * var_u
        for v in range(u + 1, len(trackers)):
            cov = strategy._covariance(tu, trackers[v])
            variance += 2.0 * grads[u] * grads[v] * cov
    variance = max(variance, 0.0)
    return mu + strategy.d_alpha * math.sqrt(variance)


def ref_explain(plan):
    overhead = plan.cost_model.predict(step_names.STAGE_OVERHEAD, [1.0])
    fraction = plan.min_feasible_fraction()
    if fraction <= 0:
        return 0.0, overhead, 0.0, []
    ctx = RefContext(fraction, ref_mean)
    for term in plan.terms:
        ref_predict(term.root, ctx)
    nodes, seen = [], set()
    for term in plan.terms:
        for node in term.root.iter_nodes():
            if id(node) in seen:
                continue
            seen.add(id(node))
            label = (
                f"scan({node.relation.name})"
                if isinstance(node, StagedScan)
                else node.tracker.label
            )
            nodes.append((label, ctx.cache[id(node)][0]))
    return fraction, overhead, ctx.total_seconds, nodes


def same(actual, expected):
    """Bit-identical floats (``repr`` also tells -0.0 from 0.0)."""
    return actual == expected and repr(actual) == repr(expected)


# ----------------------------------------------------------------------
# Random plans
# ----------------------------------------------------------------------
@st.composite
def sjip_query(draw):
    """A random SJIP query over r1–r3, set operations on top.

    Selections may match nothing (``a < 0``), giving zero-selectivity
    trackers; unions and differences expand into several inclusion–
    exclusion terms that share scans.
    """
    names = list(draw(st.permutations(NAMES)))

    def maybe_select(node, attr="a"):
        if draw(st.booleans()):
            op = draw(st.sampled_from(["<", ">=", "=="]))
            return select(node, cmp(attr, op, draw(st.integers(-1, 7))))
        return node

    def base():
        return maybe_select(rel(names.pop()))

    shape = draw(
        st.sampled_from(
            ["single", "join", "join3", "intersect", "intersect3", "union", "difference"]
        )
    )
    if shape == "single":
        node = base()
    elif shape == "join":
        node = maybe_select(join(base(), base(), on=["a"]))
    elif shape == "join3":
        node = join(join(base(), base(), on=["a"]), base(), on=["a"])
    elif shape == "intersect":
        node = maybe_select(intersect(base(), base()))
    elif shape == "intersect3":
        node = intersect(intersect(base(), base()), base())
    else:
        op = union if shape == "union" else difference
        left = base()
        right = intersect(base(), base()) if draw(st.booleans()) else base()
        return op(left, right)
    if draw(st.booleans()):
        node = maybe_select(project(node, ("a",)))
    return node


@st.composite
def staged_plan(draw):
    expr = draw(sjip_query())
    seed = draw(st.integers(0, 2**16))
    hint = draw(st.sampled_from([None, 0.02, 0.3, 1.0]))
    pin = hint is not None and draw(st.booleans())
    rng = np.random.default_rng(seed)
    charger = CostCharger(MachineProfile.uniform(0.01, noise_sigma=0.3), rng=rng)
    plan = StagedPlan(
        expr,
        build_catalog(),
        charger,
        CostModel(adaptive=draw(st.booleans())),
        rng,
        block_size=BLOCK_SIZE,
        full_fulfillment=draw(st.booleans()),
        hint_provider=(lambda e: hint) if hint is not None else None,
        pin_selectivities=pin,
    )
    for tracker in plan.trackers():
        if not tracker.pinned and draw(st.booleans()):
            points = draw(st.integers(1, 400))
            tracker.warm_start(draw(st.integers(0, points)), points)
    for fraction in draw(st.lists(st.floats(0.02, 0.5), max_size=3)):
        if plan.all_exhausted():
            break
        plan.advance_stage(fraction)
    return plan


fractions = st.lists(st.floats(1e-4, 1.0), min_size=1, max_size=6)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    plan=staged_plan(),
    fs=fractions,
    d_beta=st.sampled_from([0.0, 1.5, 12.0, 72.0]),
)
def test_one_at_a_time_cost_matches_tree_walk(plan, fs, d_beta):
    provider = OneAtATimeInterval(d_beta=d_beta).sel_provider()
    compiled = plan.compile_qcost(provider)
    for f in fs:  # one compiled cost serves every bisection step
        expected = ref_qcost(plan, f, ref_sel_plus(d_beta))
        assert same(compiled(f), expected)
        assert same(plan.predict_stage(f, provider), expected)
        # A plain callable (no ``bind``) takes the same path.
        assert same(plan.predict_stage(f, ref_sel_plus(d_beta)), expected)


@settings(max_examples=100, deadline=None)
@given(plan=staged_plan(), fs=fractions, d_alpha=st.sampled_from([0.0, 2.0]))
def test_single_interval_costs_match_tree_walk(plan, fs, d_alpha):
    strategy = SingleInterval(d_alpha=d_alpha)
    mean = plan.compile_qcost(strategy._mean_provider())
    bumped = {
        id(t): plan.compile_qcost(strategy._bumped_provider(t))
        for t in plan.trackers()
    }
    margin = strategy._margin_cost(plan)
    for f in fs:
        assert same(mean(f), ref_qcost(plan, f, ref_mean))
        for tracker in plan.trackers():
            expected = ref_qcost(
                plan, f, ref_bumped(tracker, strategy._gradient_step)
            )
            assert same(bumped[id(tracker)](f), expected)
        assert same(margin(f), ref_margin(strategy, plan, f))


@settings(max_examples=100, deadline=None)
@given(plan=staged_plan())
def test_explain_itemization_matches_tree_walk(plan):
    fraction, overhead, qcost, nodes = ref_explain(plan)
    costs = predicted_stage_costs(plan)
    assert same(costs.fraction, fraction)
    assert same(costs.stage_overhead, overhead)
    assert same(costs.qcost, qcost)
    assert [n.label for n in costs.nodes] == [label for label, _ in nodes]
    for node, (_, seconds) in zip(costs.nodes, nodes):
        assert same(node.seconds, seconds)
    if fraction > 0:
        assert same(
            plan.predict_stage(fraction, MEAN_SELECTIVITY), qcost
        )


def every_provider(plan):
    """One-at-a-Time, Single-Interval mean and bumped, and a plain callable."""
    strategy = SingleInterval()
    providers = [OneAtATimeInterval(d_beta=d).sel_provider() for d in (0.0, 24.0)]
    providers.append(strategy._mean_provider())
    providers.extend(strategy._bumped_provider(t) for t in plan.trackers())
    providers.append(ref_sel_plus(12.0))
    return providers


def count_pricings(compiled):
    """Wrap ``compiled``'s first step; one entry per full pricing."""
    runs = []
    first = compiled._steps[0]

    def step(blocks):
        runs.append(blocks)
        return first(blocks)

    compiled._steps[0] = step
    return runs


@settings(max_examples=60, deadline=None)
@given(plan=staged_plan(), fs=fractions, nudge=st.floats(0.0, 1e-6))
def test_block_vector_memo_is_invisible(plan, fs, nudge):
    # Revisit every fraction, also slightly moved, in another order: the
    # block vectors repeat, and hits interleave with fresh pricings.
    sequence = fs + [f * (1.0 + nudge) for f in reversed(fs)] + fs
    for provider in every_provider(plan):
        compiled = plan.compile_qcost(provider)
        runs = count_pricings(compiled)
        for f in sequence:
            total = compiled(f)
            fresh = plan.compile_qcost(provider)
            assert same(total, fresh(f))
            for node in compiled.nodes:
                assert same(compiled.new_points(node), fresh.new_points(node))
        assert len(runs) < len(sequence)  # the memo answered some calls
        assert len(runs) == len(set(runs))  # each vector priced once


# ----------------------------------------------------------------------
# Hand-picked cases
# ----------------------------------------------------------------------
def fixed_plan(expr, stages=(), full_fulfillment=True):
    rng = np.random.default_rng(3)
    charger = CostCharger(MachineProfile.uniform(0.01), rng=rng)
    plan = StagedPlan(
        expr,
        build_catalog(),
        charger,
        CostModel(),
        rng,
        block_size=BLOCK_SIZE,
        full_fulfillment=full_fulfillment,
    )
    for fraction in stages:
        plan.advance_stage(fraction)
    return plan


def test_shared_scans_are_priced_once_in_post_order():
    plan = fixed_plan(union(rel("r1"), select(rel("r2"), cmp("a", "<", 3))))
    compiled = plan.compile_qcost(MEAN_SELECTIVITY)
    # Terms r1, σ(r2), r1 ∩ σ(r2): the intersect term reuses both scans.
    names = [
        f"scan({n.relation.name})" if isinstance(n, StagedScan) else n.tracker.label
        for n in compiled.nodes
    ]
    assert names == ["scan(r1)", "scan(r2)", "select#1", "select#2", "intersect#3"]
    seconds = compiled.itemize(0.1)
    total = 0.0
    for value in seconds:
        total += value
    assert same(compiled(0.1), total)


def test_explain_itemizes_in_tree_order():
    plan = fixed_plan(
        select(join(rel("r1"), rel("r2"), on=["a"]), cmp("a", "<", 2)), stages=[0.1]
    )
    costs = predicted_stage_costs(plan)
    assert [n.label for n in costs.nodes] == [
        "select#2",
        "join#1",
        "scan(r1)",
        "scan(r2)",
    ]
    assert all(n.seconds >= 0 for n in costs.nodes)


def test_new_points_follow_the_last_evaluation():
    plan = fixed_plan(join(rel("r1"), rel("r2"), on=["a"]), stages=[0.2])
    root = plan.terms[0].root
    compiled = plan.compile_qcost(MEAN_SELECTIVITY)
    for f in (0.3, 0.05):
        compiled(f)
        expected = ref_new_points(root, RefContext(f, ref_mean))
        assert same(compiled.new_points(root), expected)


def test_non_positive_fraction_rejected():
    plan = fixed_plan(select(rel("r1"), cmp("a", "<", 3)))
    compiled = plan.compile_qcost(MEAN_SELECTIVITY)
    for bad in (0.0, -0.1):
        with pytest.raises(TimeControlError):
            compiled(bad)
        with pytest.raises(TimeControlError):
            compiled.itemize(bad)
        with pytest.raises(TimeControlError):
            plan.predict_stage(bad, MEAN_SELECTIVITY)


def test_bound_sel_plus_keeps_its_checks():
    plan = fixed_plan(select(rel("r1"), cmp("a", "<", 3)), stages=[0.1])
    tracker = plan.trackers()[0]
    with pytest.raises(EstimationError):
        tracker.bind_sel_plus(-1.0, 1_000)
    bound = tracker.bind_sel_plus(12.0, 1_000)
    with pytest.raises(EstimationError):
        bound(0)
    assert same(bound(40), ref_sel_plus(12.0)(tracker, 40, 1_000))
