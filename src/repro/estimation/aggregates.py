"""SUM and AVG estimators — lifting the paper's COUNT restriction.

Section 1: "we present a methodology to process the query 'Evaluate f(E)
within T time units' where f is an aggregate function … This paper restricts
f to COUNT." The restriction is not fundamental: in the point-space model a
1-point carries the output tuple it produces, so any per-tuple value ``v``
aggregates the same way COUNT's constant 1 does. This module implements the
natural extension (which the authors themselves pursued in later work):

* **SUM** — ``û_sum = N · (Σ v_i / m)`` over the ``m`` sampled points, where
  a 0-point contributes 0. Unbiased and consistent for exactly the reasons
  ``û`` is: every point is equally likely to enter the sample. The variance
  estimate is the standard SRS-without-replacement form over the per-point
  value distribution (which is mostly zeros — the zeros carry real variance
  information and are accounted for without being materialised, via
  streaming moments).
* **AVG** — the ratio ``SUM/COUNT``, with the standard ratio-estimator
  (delta method) variance; equivalently the sample mean over observed
  output tuples with its finite-population-style correction.

SUM/AVG are defined over Select–Join–Intersect expressions; a projection
changes the population from points to groups, where a per-group value is
ill-defined, so the staged engine rejects SUM/AVG over Project.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.catalog.types import AttributeType
from repro.errors import EstimationError, ExpressionError
from repro.estimation.estimate import Estimate

if TYPE_CHECKING:
    from repro.catalog.schema import Schema


@dataclass
class StreamingMoments:
    """Streaming Σv, Σv² (and count) over observed output-tuple values.

    Together with the total sampled points ``m``, these give the sample
    moments over *all* points — the unobserved 0-points contribute zero to
    both sums but appear in the denominator.
    """

    ones: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, value: float) -> None:
        self.ones += 1
        self.total += value
        self.total_sq += value * value

    def add_many(self, values) -> None:
        for value in values:
            self.add(float(value))

    def merge(self, other: "StreamingMoments") -> None:
        self.ones += other.ones
        self.total += other.total
        self.total_sq += other.total_sq

    def scaled(self, coefficient: float) -> "StreamingMoments":
        """Moments of the values multiplied by a signed coefficient."""
        out = StreamingMoments(
            ones=self.ones,
            total=coefficient * self.total,
            total_sq=coefficient * coefficient * self.total_sq,
        )
        return out


def srs_sum_estimate(
    population: int, sampled: int, moments: StreamingMoments
) -> Estimate:
    """``û_sum = N · (Σ v / m)`` with SRS-without-replacement variance."""
    if population <= 0 or sampled <= 0 or sampled > population:
        raise EstimationError(
            f"invalid sizes: population={population}, sampled={sampled}"
        )
    if moments.ones > sampled:
        raise EstimationError(
            f"{moments.ones} valued points exceed sample size {sampled}"
        )
    mean = moments.total / sampled
    value = population * mean
    if sampled == population:
        return Estimate(
            value=moments.total,
            variance=0.0,
            sample_points=sampled,
            population_points=population,
            exact=True,
        )
    if sampled == 1:
        # One point gives no variance information; worst case on the seen
        # magnitude keeps the earliest stages conservative.
        s2 = moments.total_sq if moments.total_sq > 0 else 1.0
    else:
        # Sample variance over all m per-point values, zeros included:
        # Σ(x−x̄)² = Σx² − m·x̄².
        s2 = max(moments.total_sq - sampled * mean * mean, 0.0) / (sampled - 1)
    fpc = max(1.0 - sampled / population, 0.0)
    variance = population * population * s2 / sampled * fpc
    return Estimate(
        value=value,
        variance=variance,
        sample_points=sampled,
        population_points=population,
    )


def avg_from_sum_count(
    sum_estimate: Estimate, count_estimate: Estimate, moments: StreamingMoments
) -> Estimate:
    """AVG as the ratio SUM/COUNT with a delta-method variance.

    ``Var(S/C) ≈ (1/C²)·(Var(S) + R²·Var(C) − 2R·Cov(S, C))`` with the
    covariance approximated through the observed per-output values:
    ``Cov(S, C) ≈ v̄ · Var(C)`` (exact when values are uncorrelated with
    membership), which reduces the bracket to
    ``Var(S) + R²Var(C) − 2R·v̄·Var(C)``.
    """
    count = count_estimate.value
    if count <= 0 or moments.ones == 0:
        # No observed output tuples: an average is undefined; report 0 with
        # no confidence rather than fail, mirroring COUNT's zero case.
        return Estimate(
            value=0.0,
            variance=0.0,
            sample_points=count_estimate.sample_points,
            population_points=count_estimate.population_points,
            exact=count_estimate.exact,
        )
    ratio = sum_estimate.value / count
    v_bar = moments.total / moments.ones
    bracket = (
        sum_estimate.variance
        + ratio * ratio * count_estimate.variance
        - 2.0 * ratio * v_bar * count_estimate.variance
    )
    variance = max(bracket, 0.0) / (count * count)
    if sum_estimate.exact and count_estimate.exact:
        variance = 0.0
    return Estimate(
        value=ratio,
        variance=variance,
        sample_points=count_estimate.sample_points,
        population_points=count_estimate.population_points,
        exact=sum_estimate.exact and count_estimate.exact,
    )


@dataclass(frozen=True)
class AggregateSpec:
    """What ``f(E)`` to evaluate: COUNT, SUM(attr), or AVG(attr)."""

    kind: str
    attribute: str | None = None

    _KINDS = ("count", "sum", "avg")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise EstimationError(
                f"unknown aggregate {self.kind!r}; choose from {self._KINDS}"
            )
        if self.kind == "count" and self.attribute is not None:
            raise EstimationError("COUNT takes no attribute")
        if self.kind in ("sum", "avg") and not self.attribute:
            raise EstimationError(f"{self.kind.upper()} needs an attribute")

    @property
    def needs_values(self) -> bool:
        return self.kind in ("sum", "avg")

    def value_index(self, schema: "Schema") -> int:
        """Position of the aggregated attribute in ``schema``.

        SUM and AVG add values up, so the attribute must be INT or FLOAT;
        anything else raises :class:`~repro.errors.ExpressionError` at bind
        time, before a run charges anything.
        """
        index = schema.index_of(self.attribute)
        kind = schema.attributes[index].type
        if kind not in (AttributeType.INT, AttributeType.FLOAT):
            raise ExpressionError(
                f"{self.kind.upper()}({self.attribute}) needs a numeric "
                f"attribute, not {kind.value}"
            )
        return index


COUNT = AggregateSpec("count")


def count() -> AggregateSpec:
    """``COUNT(*)`` over the expression's output tuples (the default)."""
    return COUNT


def sum_of(attribute: str) -> AggregateSpec:
    """``SUM(attribute)`` over the expression's output tuples."""
    return AggregateSpec("sum", attribute)


def avg_of(attribute: str) -> AggregateSpec:
    """``AVG(attribute)`` over the expression's output tuples."""
    return AggregateSpec("avg", attribute)
