"""Requests and typed outcomes of the serving layer.

The unit of work a client submits is a :class:`QueryRequest`: a relational
expression with an aggregate, an *offered quota* (how many seconds of
processing the client pays for, which fixes the absolute deadline at
``arrival + quota``), and a priority. The server answers every request with
a :class:`RequestOutcome` whose :class:`Outcome` is one of six terminal
states — the contract is total: no request is ever silently dropped and no
scheduling failure ever surfaces as an exception to the submitting client.

=============  ==========================================================
outcome        meaning
=============  ==========================================================
``ANSWERED``   ran to its deadline; a sampling estimate was produced
``DEGRADED``   infeasible to sample in time; answered instantly from a
               synopsis or prestored statistics with an honest (wide)
               confidence interval
``REJECTED``   turned away at admission (no capacity, or infeasible)
``UNCOVERED``  the policy chose degradation, but neither the synopsis
               catalog nor prestored statistics cover the query — no
               instant answer exists, so the request was turned away
               with the coverage gap named
``SHED``       admitted but dropped from the queue under overload before
               useful work could start
``MISSED``     dispatched but produced no estimate inside the deadline
=============  ==========================================================
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.core.result import QueryResult
from repro.errors import TimeControlError
from repro.estimation.aggregates import COUNT, AggregateSpec
from repro.estimation.estimate import Estimate
from repro.relational.expression import Expression


class Outcome(enum.Enum):
    """Terminal state of one served request."""

    ANSWERED = "answered"
    DEGRADED = "degraded"
    REJECTED = "rejected"
    UNCOVERED = "uncovered"
    SHED = "shed"
    MISSED = "missed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_request_counter = itertools.count(1)


def _next_request_id(client_id: str) -> str:
    return f"{client_id}/{next(_request_counter)}"


@dataclass(frozen=True)
class QueryRequest:
    """One deadline-bearing aggregate query from one client.

    ``quota`` is the offered processing budget in (simulated) seconds; the
    absolute deadline is ``arrival + quota`` and queue wait is charged
    against it — a request that waits has less time left to sample.
    ``priority`` breaks deadline ties and tiers the run queue (lower value
    = more urgent, 0 default). ``seed`` pins the session's RNG stream for
    replayable runs; ``None`` derives one from the database's master seed.
    """

    expr: Expression
    quota: float
    client_id: str = "client"
    aggregate: AggregateSpec = COUNT
    priority: int = 0
    arrival: float = 0.0
    seed: int | None = None
    request_id: str = ""

    def __post_init__(self) -> None:
        if not self.quota > 0:  # also rejects NaN
            raise TimeControlError(
                f"request quota must be positive: {self.quota}"
            )
        if self.arrival < 0:
            raise TimeControlError(
                f"request arrival cannot be negative: {self.arrival}"
            )
        if not self.request_id:
            object.__setattr__(
                self, "request_id", _next_request_id(self.client_id)
            )

    @property
    def deadline(self) -> float:
        """Absolute completion deadline on the server clock."""
        return self.arrival + self.quota


@dataclass
class RequestOutcome:
    """What the server did with one request, and why.

    Every field needed to audit the decision is here: the admission verdict,
    how long the request waited, when it ran, what it cost, and the answer
    (a full :class:`~repro.core.result.QueryResult` for sampled runs, a
    wide-interval :class:`~repro.estimation.estimate.Estimate` for degraded
    ones).
    """

    request: QueryRequest
    outcome: Outcome
    reason: str
    admitted: bool = False
    queue_wait: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    result: QueryResult | None = None
    estimate: Estimate | None = field(default=None)

    def __post_init__(self) -> None:
        if self.estimate is None and self.result is not None:
            self.estimate = self.result.estimate

    @property
    def answered(self) -> bool:
        """True when the client got a usable estimate (sampled or degraded)."""
        return self.outcome in (Outcome.ANSWERED, Outcome.DEGRADED)

    @property
    def lateness(self) -> float:
        """Seconds past the deadline at completion (0 = on time / never ran)."""
        if self.finished_at is None:
            return 0.0
        return max(self.finished_at - self.request.deadline, 0.0)

    @property
    def relative_ci_halfwidth(self) -> float | None:
        """Achieved 95% CI half-width relative to the estimate, if any."""
        if self.estimate is None:
            return None
        return self.estimate.relative_error_bound(0.95)

    def summary(self) -> str:
        """One human-readable line per request."""
        head = (
            f"{self.request.request_id} [{self.outcome.value.upper()}] "
            f"quota {self.request.quota:g}s, wait {self.queue_wait:.3f}s"
        )
        if self.estimate is not None:
            lo, hi = self.estimate.confidence_interval(0.95)
            head += (
                f", ≈{self.estimate.value:.1f} (95% CI [{lo:.1f}, {hi:.1f}])"
            )
        return f"{head} — {self.reason}"
