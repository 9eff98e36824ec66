"""Tests for the SUM/AVG extension of the COUNT framework."""

import itertools

import numpy as np
import pytest

from repro.core.database import Database
from repro.errors import EstimationError, ExpressionError
from repro.estimation.aggregates import (
    COUNT,
    AggregateSpec,
    StreamingMoments,
    avg_from_sum_count,
    avg_of,
    srs_sum_estimate,
    sum_of,
)
from repro.estimation.count_estimators import srs_count_estimate
from repro.relational.expression import join, project, rel, select, union
from repro.relational.predicate import cmp
from repro.server import Outcome, QueryRequest, QueryServer
from repro.timekeeping.clock import SimulatedClock
from repro.timekeeping.profile import MachineProfile


class TestAggregateSpec:
    def test_count_constant(self):
        assert COUNT.kind == "count"
        assert not COUNT.needs_values

    def test_sum_and_avg_need_attribute(self):
        assert sum_of("v").needs_values
        assert avg_of("v").attribute == "v"
        with pytest.raises(EstimationError):
            AggregateSpec("sum")
        with pytest.raises(EstimationError):
            AggregateSpec("count", "v")

    def test_unknown_kind_rejected(self):
        with pytest.raises(EstimationError):
            AggregateSpec("median", "v")


class TestStreamingMoments:
    def test_accumulates(self):
        m = StreamingMoments()
        m.add_many([1.0, 2.0, 3.0])
        assert m.ones == 3
        assert m.total == 6.0
        assert m.total_sq == 14.0

    def test_merge_and_scaled(self):
        a = StreamingMoments()
        a.add_many([1.0, 2.0])
        b = a.scaled(-1)
        assert b.total == -3.0
        assert b.total_sq == 5.0
        a.merge(b)
        assert a.total == 0.0


class TestSrsSumEstimate:
    def test_scales_up(self):
        m = StreamingMoments()
        m.add_many([5.0, 7.0])
        est = srs_sum_estimate(population=100, sampled=10, moments=m)
        assert est.value == pytest.approx(120.0)

    def test_full_sample_exact(self):
        m = StreamingMoments()
        m.add_many([5.0, 7.0])
        est = srs_sum_estimate(population=2, sampled=2, moments=m)
        assert est.exact and est.value == 12.0 and est.variance == 0.0

    def test_unbiased_by_exhaustive_enumeration(self):
        """E[û_sum] over all C(N,m) samples equals the true total."""
        values = [0, 3, 0, 5, 2, 0]  # true total 10
        n = len(values)
        for m_size in (2, 3):
            estimates = []
            for sample in itertools.combinations(values, m_size):
                m = StreamingMoments()
                m.add_many(v for v in sample if v != 0)
                estimates.append(srs_sum_estimate(n, m_size, m).value)
            assert sum(estimates) / len(estimates) == pytest.approx(10.0)

    def test_zero_values_zero_variance(self):
        est = srs_sum_estimate(100, 10, StreamingMoments())
        assert est.value == 0.0 and est.variance == 0.0

    def test_invalid_sizes_rejected(self):
        with pytest.raises(EstimationError):
            srs_sum_estimate(5, 10, StreamingMoments())
        m = StreamingMoments()
        m.add_many([1.0, 1.0, 1.0])
        with pytest.raises(EstimationError):
            srs_sum_estimate(100, 2, m)


class TestAvgFromSumCount:
    def test_ratio(self):
        m = StreamingMoments()
        m.add_many([4.0, 6.0])
        total = srs_sum_estimate(100, 10, m)
        count = srs_count_estimate(100, 10, 2)
        est = avg_from_sum_count(total, count, m)
        assert est.value == pytest.approx(5.0)
        assert est.variance >= 0.0

    def test_no_outputs_gives_zero(self):
        count = srs_count_estimate(100, 10, 0)
        total = srs_sum_estimate(100, 10, StreamingMoments())
        est = avg_from_sum_count(total, count, StreamingMoments())
        assert est.value == 0.0

    def test_exact_when_both_exact(self):
        m = StreamingMoments()
        m.add_many([4.0, 6.0])
        total = srs_sum_estimate(2, 2, m)
        count = srs_count_estimate(2, 2, 2)
        est = avg_from_sum_count(total, count, m)
        assert est.exact and est.variance == 0.0


@pytest.fixture
def db():
    database = Database(
        profile=MachineProfile.sun3_60(noise_sigma=0.1).scaled(0.1), seed=9
    )
    rng = np.random.default_rng(0)
    database.create_relation(
        "r1",
        [("id", "int"), ("a", "int"), ("v", "int")],
        rows=[(i, i % 10, int(rng.integers(0, 100))) for i in range(600)],
        block_size=24,
    )
    database.create_relation(
        "r2",
        [("id", "int"), ("a", "int"), ("v", "int")],
        rows=[(i, i % 10, int(rng.integers(0, 100))) for i in range(300, 900)],
        block_size=24,
    )
    return database


class TestDatabaseAggregates:
    def test_exact_sum_and_avg(self, db):
        expr = select(rel("r1"), cmp("a", "<", 5))
        rows = [r for r in db.relation("r1").all_rows() if r[1] < 5]
        assert db.aggregate(expr, sum_of("v")) == sum(r[2] for r in rows)
        assert db.aggregate(expr, avg_of("v")) == pytest.approx(
            sum(r[2] for r in rows) / len(rows)
        )
        assert db.aggregate(expr, COUNT) == len(rows)

    def test_exact_avg_of_empty_is_zero(self, db):
        expr = select(rel("r1"), cmp("a", "<", 0))
        assert db.aggregate(expr, avg_of("v")) == 0.0

    def test_sum_estimate_full_coverage_exact(self, db):
        expr = select(rel("r1"), cmp("a", "<", 5))
        result = db.estimate(expr, sum_of("v"), quota=1e9, seed=2)
        assert result.exact
        assert result.value == db.aggregate(expr, sum_of("v"))

    def test_avg_estimate_full_coverage_exact(self, db):
        expr = select(rel("r1"), cmp("a", "<", 5))
        result = db.estimate(expr, avg_of("v"), quota=1e9, seed=2)
        assert result.exact
        assert result.value == pytest.approx(db.aggregate(expr, avg_of("v")))

    def test_sum_estimate_statistically_consistent(self, db):
        expr = select(rel("r1"), cmp("a", "<", 5))
        true = db.aggregate(expr, sum_of("v"))
        values = [
            db.estimate(expr, sum_of("v"), quota=3.0, seed=100 + i).value
            for i in range(25)
        ]
        assert np.mean(values) == pytest.approx(true, rel=0.15)

    def test_avg_estimate_on_join(self, db):
        expr = join(rel("r1"), rel("r2"), on=["a"])
        true = db.aggregate(expr, avg_of("v"))
        result = db.estimate(expr, avg_of("v"), quota=6.0, seed=4)
        assert result.estimate is not None
        assert result.value == pytest.approx(true, rel=0.35)

    def test_sum_over_union_terms_combine(self, db):
        expr = union(rel("r1"), rel("r2"))
        true = db.aggregate(expr, sum_of("v"))
        result = db.estimate(expr, sum_of("v"), quota=1e9, seed=5)
        assert result.value == pytest.approx(true)

    def test_sum_over_projection_rejected(self, db):
        expr = project(rel("r1"), ["a"])
        with pytest.raises(EstimationError, match="projection"):
            db.estimate(expr, sum_of("v"), quota=1.0)

    def test_unknown_attribute_rejected(self, db):
        with pytest.raises(Exception):
            db.estimate(rel("r1"), sum_of("ghost"), quota=1.0)

    def test_summary_labels_aggregate(self, db):
        expr = select(rel("r1"), cmp("a", "<", 5))
        result = db.estimate(expr, sum_of("v"), quota=3.0, seed=2)
        assert result.estimate is None or "SUM" in result.summary()


@pytest.fixture
def typed_db():
    """INT, STR and FLOAT attributes; ``n`` holds numeric-looking strings."""
    database = Database(seed=3)
    database.create_relation(
        "r",
        [("a", "int"), ("s", "str"), ("n", "str"), ("f", "float")],
        rows=[(i, f"x{i}", str(i), i / 4) for i in range(500)],
    )
    database.create_relation(
        "q", [("a", "int"), ("t", "str")], rows=[(i, f"y{i}") for i in range(50)]
    )
    return database


class TestAggregateAttributeTypes:
    """SUM/AVG need a numeric attribute; anything else fails at bind time."""

    @pytest.mark.parametrize("spec", [sum_of("s"), avg_of("s"), sum_of("n")])
    def test_estimate_rejects_before_any_charge(self, typed_db, spec):
        clock = SimulatedClock()
        with pytest.raises(ExpressionError, match="numeric"):
            typed_db.estimate(rel("r"), spec, quota=10.0, seed=1, clock=clock)
        assert clock.now() == 0.0

    @pytest.mark.parametrize("spec", [sum_of("s"), avg_of("n")])
    def test_exact_aggregate_rejects(self, typed_db, spec):
        with pytest.raises(ExpressionError, match="numeric"):
            typed_db.aggregate(rel("r"), spec)

    def test_join_output_attribute_is_checked(self, typed_db):
        expr = join(rel("r"), rel("q"), on=["a"])
        with pytest.raises(ExpressionError):
            typed_db.lower(expr, aggregate=avg_of("t"))
        assert typed_db.lower(expr, aggregate=avg_of("f")).terms

    def test_server_rejects_without_running(self, typed_db):
        server = QueryServer(typed_db)
        request = QueryRequest(
            expr=rel("r"), quota=5.0, aggregate=avg_of("s"), arrival=0.0
        )
        (outcome,) = server.process([request])
        assert outcome.outcome is Outcome.REJECTED
        assert "numeric" in outcome.reason
        assert server.clock.now() == 0.0

    @pytest.mark.parametrize("attribute", ["a", "f"])
    def test_int_and_float_attributes_still_aggregate(self, typed_db, attribute):
        for spec in (sum_of(attribute), avg_of(attribute)):
            exact = typed_db.aggregate(rel("r"), spec)
            result = typed_db.estimate(rel("r"), spec, quota=1e9, seed=2)
            assert result.exact
            assert result.value == pytest.approx(exact)
