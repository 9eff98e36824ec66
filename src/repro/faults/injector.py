"""The fault injector — the imperative half of the injection subsystem.

One :class:`FaultInjector` lives inside one session (threaded through
:class:`~repro.engine.plan.StagedPlan` into every
:class:`~repro.engine.nodes.StagedScan`). Storage calls
:meth:`FaultInjector.on_block_read` after each charged block read; the
executor calls :meth:`begin_stage` before every stage attempt and
:meth:`maybe_overrun` after a stage completes.

Determinism contract: the injector draws exclusively from its *own* RNG,
derived from the session RNG's seed material via
:func:`derive_fault_rng` — the session stream is never consumed, so
sampling, cost jitter, and Goodman draws are bit-identical with the
injector present or absent. Probability draws happen in a fixed order
(read-error, then slow-read, per block; one overrun draw per completed
stage), so the same seeds replay the same faults.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InjectedFault
from repro.faults.events import FaultInjected
from repro.faults.plan import FaultPlan
from repro.observability.trace import NULL_SINK, TraceSink
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind


def derive_fault_rng(
    rng: np.random.Generator, salt: int = 0
) -> np.random.Generator:
    """An independent RNG keyed on ``rng``'s seed material.

    Reads the generator's :class:`~numpy.random.SeedSequence` (pure seed
    material — reading it does not advance the stream) and folds ``salt``
    in, so the fault stream is reproducible from the session seed alone yet
    statistically independent of every draw the session makes.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is None:  # exotic bit generator: fall back to the salt alone
        return np.random.default_rng(salt)
    state = seed_seq.generate_state(4).tolist()
    return np.random.default_rng(np.random.SeedSequence([salt, *state]))


class FaultRecord:
    """One salvaged fault, as recorded on the run report."""

    __slots__ = (
        "stage",
        "fault_kind",
        "message",
        "relation",
        "block_id",
        "wasted_seconds",
        "action",
    )

    def __init__(
        self,
        stage: int,
        fault_kind: str,
        message: str,
        relation: str | None = None,
        block_id: int | None = None,
        wasted_seconds: float = 0.0,
        action: str = "retry",
    ) -> None:
        self.stage = stage
        self.fault_kind = fault_kind
        self.message = message
        self.relation = relation
        self.block_id = block_id
        self.wasted_seconds = wasted_seconds
        self.action = action

    def __repr__(self) -> str:
        return (
            f"FaultRecord(stage={self.stage}, kind={self.fault_kind!r}, "
            f"wasted={self.wasted_seconds:.6f}s, action={self.action!r})"
        )


class FaultInjector:
    """Executes one :class:`FaultPlan` against one session (see module docs)."""

    def __init__(
        self,
        plan: FaultPlan,
        rng: np.random.Generator,
        sink: TraceSink | None = None,
    ) -> None:
        self.plan = plan
        self.rng = rng
        self.sink: TraceSink = sink if sink is not None else NULL_SINK
        self.injected_read_errors = 0
        self.injected_slow_reads = 0
        self.injected_overruns = 0
        self._stage = 0
        self._attempts: dict[int, int] = {}
        self._forced_fired = False

    @classmethod
    def for_session(
        cls,
        plan: FaultPlan,
        session_rng: np.random.Generator,
        sink: TraceSink | None = None,
    ) -> "FaultInjector":
        """Build an injector whose stream derives from the session RNG."""
        return cls(plan, derive_fault_rng(session_rng, plan.seed_salt), sink)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return (
            self.injected_read_errors
            + self.injected_slow_reads
            + self.injected_overruns
        )

    def _exhausted(self) -> bool:
        cap = self.plan.max_injections
        return cap is not None and self.total_injected >= cap

    def begin_stage(self, stage: int) -> None:
        """Mark the start of one stage *attempt* (retries re-enter here)."""
        self._stage = stage
        self._attempts[stage] = self._attempts.get(stage, 0) + 1
        self._forced_fired = False

    def attempts(self, stage: int) -> int:
        return self._attempts.get(stage, 0)

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def on_block_read(
        self,
        relation: str,
        block_id: int,
        charger: CostCharger,
    ) -> None:
        """Hook called by the storage layer after one charged block read.

        May raise :class:`InjectedFault` (read error — the charged I/O time
        is already wasted) or charge a raw slow-read penalty on ``charger``
        (which itself may raise ``QuotaExpired`` under an armed hard
        deadline, exactly like genuinely slow I/O would).
        """
        plan = self.plan
        if (
            plan.fail_stages
            and self._stage in plan.fail_stages
            and self._attempts.get(self._stage, 0) == 1
            and not self._forced_fired
            and not self._exhausted()
        ):
            self._forced_fired = True
            self._raise_read_error(relation, block_id, charger, scheduled=True)
        if self._exhausted():
            return
        if plan.read_error_prob > 0 and float(
            self.rng.random()
        ) < plan.read_error_prob:
            self._raise_read_error(relation, block_id, charger, scheduled=False)
        if plan.slow_read_prob > 0 and float(
            self.rng.random()
        ) < plan.slow_read_prob:
            self.injected_slow_reads += 1
            penalty = plan.slow_read_factor * charger.profile.rate(
                CostKind.BLOCK_READ
            )
            self.sink.emit(
                FaultInjected(
                    stage=self._stage,
                    fault_kind="slow_read",
                    relation=relation,
                    block_id=block_id,
                    penalty_seconds=penalty,
                    clock=charger.clock.now(),
                )
            )
            charger.penalty(penalty)

    def _raise_read_error(
        self,
        relation: str,
        block_id: int,
        charger: CostCharger,
        scheduled: bool,
    ) -> None:
        self.injected_read_errors += 1
        self.sink.emit(
            FaultInjected(
                stage=self._stage,
                fault_kind="read_error",
                relation=relation,
                block_id=block_id,
                scheduled=scheduled,
                clock=charger.clock.now(),
            )
        )
        raise InjectedFault(
            f"injected read error on relation {relation!r} "
            f"block {block_id} (stage {self._stage})",
            fault_kind="read_error",
            relation=relation,
            block_id=block_id,
            stage=self._stage,
        )

    def maybe_overrun(self, stage: int, charger: CostCharger) -> float:
        """Possibly stall after a completed stage; returns the penalty.

        The penalty is charged raw (no rate, no jitter) and may raise
        ``QuotaExpired`` under an armed hard deadline — the existing
        mid-stage-interrupt machinery then handles it.
        """
        plan = self.plan
        if plan.stage_overrun_prob <= 0 or self._exhausted():
            return 0.0
        if float(self.rng.random()) >= plan.stage_overrun_prob:
            return 0.0
        self.injected_overruns += 1
        penalty = plan.stage_overrun_seconds
        self.sink.emit(
            FaultInjected(
                stage=stage,
                fault_kind="stage_overrun",
                penalty_seconds=penalty,
                clock=charger.clock.now(),
            )
        )
        charger.penalty(penalty)
        return penalty
