"""Staged operator nodes — the estimator-evaluation engine.

These nodes execute one SJIP term of a COUNT query *stage by stage* over
growing block samples, implementing the paper's full-fulfillment cluster
sampling plan (Section 4, Figure 4.1): at stage ``s`` a binary operator
combines its children's **new** sample outputs with everything seen before —
``(F_1s ⋈ F_2s) ∪ (F_1s ⋈ F_2i)_{i<s} ∪ (F_1i ⋈ F_2s)_{i<s}`` — so after
``s`` stages the evaluated region is the full cross product of all sampled
tuples. Partial fulfillment ("less costly", [HoOT 88a]) merges only
new×new.

Every node also serves the *controller*:

* it owns a :class:`~repro.estimation.selectivity.SelectivityTracker`
  (Revise-Selectivities state) fed with (output tuples, new points) per
  stage, where "points" live in the node's own point space — the cross
  product of the base relations under it (Section 3.1's operator
  selectivity);
* its next stage is priced by the compiled ``QCOST`` of
  :mod:`repro.engine.qcost`, which mirrors the per-step cost formulas
  (4.1)–(4.5) that the execution path below actually charges;
* execution wraps each time-consuming step in ``charger.measure`` and feeds
  the measured seconds back into the cost model (the run-time coefficient
  adjustment of Section 4).

Scans are **shared**: when inclusion–exclusion expands a query into several
terms over the same base relation, one :class:`StagedScan` draws each
relation's blocks once per stage and every term reads the same sample, as
the paper's PIE evaluation does.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

from repro.catalog.schema import Schema
from repro.costmodel import steps as step_names
from repro.costmodel.model import CostModel
from repro.errors import TimeControlError
from repro.estimation.selectivity import SelectivityTracker
from repro.kernels import runs as _kernels
from repro.kernels.cache import cached_sort_key, compiled_predicate
from repro.kernels.columns import ColumnBatch
from repro.relational.operators import (
    apply_select,
    charge_external_sort,
    charge_merge,
    external_sort,
    merge_intersect,
    merge_join,
    project_rows,
    whole_row_key,
)
from repro.relational.predicate import Predicate
from repro.sampling.sampler import BlockSampler, blocks_for_fraction
from repro.storage.block import Row
from repro.storage.heapfile import HeapFile
from repro.storage.spool import Spool, SpoolFile
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import CostKind

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
    from repro.storage.bufferpool import BufferPool


def nlogn(n: float) -> float:
    """``n·log2 n`` (0 for n ≤ 1): the sort-step feature of equation (4.3)."""
    return n * math.log2(n) if n > 1 else 0.0


class StagedNode(Protocol):
    """Common protocol of all staged nodes (see module docstring)."""

    schema: Schema
    tracker: SelectivityTracker | None

    def advance(self, stage: int) -> list[Row]: ...

    def base_scans(self) -> list["StagedScan"]: ...

    def iter_nodes(self) -> "list[StagedNode]": ...

    def snapshot(self) -> dict: ...

    def restore(self, token: dict) -> None: ...


class _NodeBase:
    """Shared region bookkeeping over the base relations under a node."""

    schema: Schema
    tracker: SelectivityTracker | None = None

    def __init__(
        self,
        charger: CostCharger,
        cost_model: CostModel,
        block_size: int,
        full_fulfillment: bool,
        spool: "Spool | None" = None,
        vectorized: bool = False,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.charger = charger
        self.cost_model = cost_model
        self.block_size = block_size
        self.full_fulfillment = full_fulfillment
        self.vectorized = vectorized
        self.injector = injector
        self.spool = spool if spool is not None else Spool(block_size)
        self.stage = 0  # completed stages
        self.cum_out_tuples = 0
        self.points_so_far = 0
        # Columnar view of this node's latest stage output; consumed by a
        # vectorized parent so columns decoded here aren't decoded twice.
        self.stage_columns: ColumnBatch | None = None

    def _child_batch(self, child: "StagedNode", rows: list[Row]) -> ColumnBatch:
        """The child's stage batch if it matches ``rows``, else a fresh one."""
        batch = getattr(child, "stage_columns", None)
        if batch is not None and batch.rows is rows:
            return batch
        return ColumnBatch(rows, child.schema)

    # -- region geometry ------------------------------------------------
    def base_scans(self) -> list["StagedScan"]:
        raise NotImplementedError

    def space_points(self) -> int:
        """Total points of this node's point space (Π N_j of its subtree)."""
        return math.prod(s.relation.tuple_count for s in self.base_scans())

    def _new_points_actual(self) -> int:
        """Newly covered points after the scans advanced this stage."""
        scans = self.base_scans()
        if self.full_fulfillment:
            after = math.prod(s.cum_tuples for s in scans)
            new = after - self.points_so_far
        else:
            new = math.prod(s.new_tuples for s in scans)
        return new

    def _record(self, out_tuples: int) -> None:
        new_points = self._new_points_actual()
        self.points_so_far += new_points
        self.cum_out_tuples += out_tuples
        if self.tracker is not None:
            self.tracker.record_stage(out_tuples, new_points)

    def _bf(self) -> int:
        return self.schema.blocking_factor(self.block_size)

    def _check_stage(self, stage: int) -> None:
        if stage != self.stage + 1:
            raise TimeControlError(
                f"stage {stage} requested but node has completed {self.stage}"
            )

    # -- salvage support (fault injection) -------------------------------
    def snapshot(self) -> dict:
        """This node's logical estimator state, as a rollback token.

        Captured by :meth:`repro.engine.plan.StagedPlan.snapshot` before a
        stage attempt when a fault injector is active; on an injected
        fault, :meth:`restore` returns the node to the last consistent
        stage boundary (charged time stays spent — only estimator state
        rolls back). Subclasses extend the dict with their own fields.
        """
        return {
            "stage": self.stage,
            "cum_out_tuples": self.cum_out_tuples,
            "points_so_far": self.points_so_far,
            "stage_columns": self.stage_columns,
            "tracker": self.tracker.snapshot() if self.tracker else None,
        }

    def restore(self, token: dict) -> None:
        self.stage = token["stage"]
        self.cum_out_tuples = token["cum_out_tuples"]
        self.points_so_far = token["points_so_far"]
        self.stage_columns = token["stage_columns"]
        if self.tracker is not None:
            self.tracker.restore(token["tracker"])


class StagedScan(_NodeBase):
    """Shared sampling scan of one base relation.

    Draws ``max(1, round(f·D))`` new blocks per stage (clamped by what
    remains unsampled) and reads them, charging block I/O. All terms that
    reference the relation share this node, so blocks are drawn and read
    once per stage.
    """

    def __init__(
        self,
        relation: HeapFile,
        sampler: BlockSampler,
        charger: CostCharger,
        cost_model: CostModel,
        block_size: int,
        full_fulfillment: bool,
        spool: "Spool | None" = None,
        vectorized: bool = False,
        injector: "FaultInjector | None" = None,
        bufferpool: "BufferPool | None" = None,
    ) -> None:
        super().__init__(
            charger,
            cost_model,
            block_size,
            full_fulfillment,
            spool,
            vectorized,
            injector,
        )
        self.relation = relation
        self.sampler = sampler
        self.bufferpool = bufferpool
        self.schema = relation.schema
        self.cum_tuples = 0
        self.new_tuples = 0
        self._stage_rows: list[Row] = []

    def base_scans(self) -> list["StagedScan"]:
        return [self]

    def iter_nodes(self) -> list["StagedNode"]:
        return [self]

    @property
    def blocks_drawn(self) -> int:
        return self.sampler.drawn_blocks

    @property
    def exhausted(self) -> bool:
        return self.sampler.exhausted

    def _blocks_for(self, fraction: float) -> int:
        wanted = blocks_for_fraction(self.relation, fraction)
        return min(wanted, self.sampler.remaining_blocks)

    def advance(self, stage: int, fraction: float | None = None) -> list[Row]:
        if stage == self.stage:  # another term already advanced us
            return self._stage_rows
        self._check_stage(stage)
        if fraction is None:
            raise TimeControlError("scan.advance needs the stage fraction")
        d = self._blocks_for(fraction)
        batch: ColumnBatch | None = None
        with self.charger.measure() as meter:
            block_ids = self.sampler.draw(d)
            if self.bufferpool is not None and self.vectorized:
                # Pooled + columnar: resident blocks hand back their
                # decode-once arrays. Charges and injector consultations
                # are issued per block exactly as on the plain path.
                rows, batch = self.relation.read_blocks_decoded(
                    block_ids, self.charger, self.injector, self.bufferpool
                )
            else:
                rows = self.relation.read_blocks(
                    block_ids, self.charger, self.injector, self.bufferpool
                )
        if d:
            self.cost_model.observe(step_names.SCAN_READ, [d, 1.0], meter.elapsed)
        self._stage_rows = rows
        if self.vectorized:
            # Decode the stage's blocks into the columnar view once; every
            # term that shares this scan reuses the same batch. Uncharged:
            # the simulated block reads above already paid for the I/O.
            self.stage_columns = (
                batch if batch is not None else ColumnBatch(rows, self.schema)
            )
        self.new_tuples = len(rows)
        self.cum_tuples += len(rows)
        self.stage = stage
        self._record(len(rows))  # scan "outputs" everything it reads
        return rows

    def snapshot(self) -> dict:
        token = super().snapshot()
        token["sampler"] = self.sampler.snapshot()
        token["cum_tuples"] = self.cum_tuples
        token["new_tuples"] = self.new_tuples
        token["stage_rows"] = self._stage_rows
        return token

    def restore(self, token: dict) -> None:
        super().restore(token)
        self.sampler.restore(token["sampler"])
        self.cum_tuples = token["cum_tuples"]
        self.new_tuples = token["new_tuples"]
        self._stage_rows = token["stage_rows"]


class StagedSelect(_NodeBase):
    """Staged selection (Figure 4.3 / equation 4.1).

    ``predicate`` may be the :class:`~repro.relational.predicate.Predicate`
    AST — compiled exactly once at construction, through the process-wide
    kernel cache, into both the row function and the vectorized mask — or a
    pre-compiled row callable (legacy form), which forces this node onto
    the row-at-a-time path since no mask can be derived from it.
    """

    def __init__(
        self,
        child: "StagedNode",
        predicate: "Predicate | Callable[[Row], bool]",
        label: str,
        initial_selectivity: float,
        charger: CostCharger,
        cost_model: CostModel,
        block_size: int,
        full_fulfillment: bool,
        spool: "Spool | None" = None,
        vectorized: bool = False,
        injector: "FaultInjector | None" = None,
    ) -> None:
        super().__init__(
            charger,
            cost_model,
            block_size,
            full_fulfillment,
            spool,
            vectorized,
            injector,
        )
        self.child = child
        self.schema = child.schema
        if isinstance(predicate, Predicate):
            compiled = compiled_predicate(predicate, child.schema)
            self.predicate_fn = compiled.row_fn
            self._mask_fn = compiled.mask_fn
            self.comparison_count = compiled.comparison_count
        else:  # bare callable: no columnar counterpart available
            self.predicate_fn = predicate
            self._mask_fn = None
            self.comparison_count = 1
        self.tracker = SelectivityTracker(label, initial_selectivity)

    def base_scans(self) -> list[StagedScan]:
        return self.child.base_scans()

    def iter_nodes(self) -> list["StagedNode"]:
        return [self, *self.child.iter_nodes()]

    def _select_vectorized(self, rows: list[Row]) -> list[Row]:
        """Whole-stage filter: same charges as ``apply_select``, one mask."""
        self.charger.charge(CostKind.OP_INIT, 1)
        if rows:
            self.charger.charge(CostKind.SELECT_CHECK, len(rows))
        batch = self._child_batch(self.child, rows)
        mask = self._mask_fn(batch)
        out = list(compress(rows, mask.tolist()))
        if out:
            self.charger.charge(CostKind.PAGE_WRITE, -(-len(out) // self._bf()))
        self.stage_columns = ColumnBatch(out, self.schema)
        return out

    def advance(self, stage: int) -> list[Row]:
        self._check_stage(stage)
        rows = self.child.advance(stage)
        with self.charger.measure() as meter:
            if self.vectorized and self._mask_fn is not None:
                out = self._select_vectorized(rows)
            else:
                out = apply_select(
                    rows, self.predicate_fn, self.charger, self._bf()
                )
        pages = -(-len(out) // self._bf()) if out else 0
        self.cost_model.observe(
            step_names.SELECT_OP, [len(rows), pages, 1.0], meter.elapsed
        )
        self.stage = stage
        self._record(len(out))
        return out

class _StagedBinary(_NodeBase):
    """Shared machinery of staged Join and Intersect (Figures 4.4/4.6).

    Keeps the per-stage sorted runs ``F_{j,i}`` of both children; stage ``s``
    writes + sorts the new runs and performs the full- or partial-fulfillment
    merges, charging equations (4.2)–(4.4).

    Two execution paths compute the same stage. The row-at-a-time reference
    path loops a pairwise sorted merge over every old run, so Python work
    per stage grows with the stage count. The vectorized path keeps **one
    consolidated sorted run per side** (:class:`repro.kernels.SortedRun`):
    all new x old pairs are answered by a single ``searchsorted`` probe and
    split back into per-old-run outputs by stage tag, after which the new
    run is merged in once. The *charged* simulated costs — temp writes,
    sorts, and one :func:`charge_merge` per (new, old-run) pair in run
    order — are issued identically on both paths, so estimates, traces,
    and charged times are bit-identical; only wall-clock time differs.
    """

    write_step: str
    sort_step: str
    merge_step: str

    def __init__(
        self,
        left: "StagedNode",
        right: "StagedNode",
        label: str,
        initial_selectivity: float,
        charger: CostCharger,
        cost_model: CostModel,
        block_size: int,
        full_fulfillment: bool,
        spool: "Spool | None" = None,
        vectorized: bool = False,
        injector: "FaultInjector | None" = None,
    ) -> None:
        super().__init__(
            charger,
            cost_model,
            block_size,
            full_fulfillment,
            spool,
            vectorized,
            injector,
        )
        self.left = left
        self.right = right
        self.tracker = SelectivityTracker(label, initial_selectivity)
        self._left_runs: list[SpoolFile] = []
        self._right_runs: list[SpoolFile] = []
        self.cum_left_in = 0
        self.cum_right_in = 0
        self._sort_key_pair: tuple[
            Callable[[Row], tuple], Callable[[Row], tuple]
        ] | None = None
        # Consolidated sorted runs (vectorized full fulfillment only;
        # partial fulfillment never revisits old runs).
        self._left_sorted = _kernels.SortedRun()
        self._right_sorted = _kernels.SortedRun()

    def base_scans(self) -> list[StagedScan]:
        return self.left.base_scans() + self.right.base_scans()

    def iter_nodes(self) -> list["StagedNode"]:
        return [self, *self.left.iter_nodes(), *self.right.iter_nodes()]

    # Subclass hooks ----------------------------------------------------
    def _sort_keys(self) -> tuple[Callable[[Row], tuple], Callable[[Row], tuple]]:
        """Row-path sort keys, built once at first use and cached."""
        if self._sort_key_pair is None:
            left_pos, right_pos = self._key_positions()
            self._sort_key_pair = (
                cached_sort_key(left_pos),
                cached_sort_key(right_pos),
            )
        return self._sort_key_pair

    def _key_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(left, right) attribute positions forming the merge key."""
        raise NotImplementedError

    def _merge(self, left_run: list[Row], right_run: list[Row]) -> list[Row]:
        raise NotImplementedError

    def _vec_new_new(
        self, left: "_kernels.KeyedRows", right: "_kernels.KeyedRows"
    ) -> list[Row]:
        raise NotImplementedError

    def _vec_vs_run(
        self,
        new: "_kernels.KeyedRows",
        run: "_kernels.SortedRun",
        run_codes,
        new_on_left: bool,
    ) -> list[list[Row]]:
        raise NotImplementedError

    # Execution ----------------------------------------------------------
    def advance(self, stage: int) -> list[Row]:
        self._check_stage(stage)
        new_left = self.left.advance(stage)
        new_right = self.right.advance(stage)
        if self.vectorized:
            out, left_file, right_file = self._stage_vectorized(
                stage, new_left, new_right
            )
        else:
            out, left_file, right_file = self._stage_rowwise(new_left, new_right)

        if self.full_fulfillment:
            # The runs must survive for future cross-stage merges. (The
            # vectorized path reads them back via the consolidated runs but
            # retains the files so temp-space accounting is path-invariant.)
            self._left_runs.append(left_file)
            self._right_runs.append(right_file)
        else:
            # Partial fulfillment never revisits old runs: release at once.
            self.spool.release(left_file)
            self.spool.release(right_file)
        self.cum_left_in += len(new_left)
        self.cum_right_in += len(new_right)
        self.stage = stage
        self._record(len(out))
        return out

    def _spool_and_charge_writes(
        self, new_left: list[Row], new_right: list[Row]
    ) -> tuple[SpoolFile, SpoolFile]:
        # Step (1): write the stage's sample tuples to temporary files —
        # "all the intermediate relations are always kept on disks".
        left_file = self.spool.create(self.left.schema)
        right_file = self.spool.create(self.right.schema)
        with self.charger.measure() as meter:
            left_file.write(new_left, self.charger)
            right_file.write(new_right, self.charger)
        self.cost_model.observe(
            self.write_step, [len(new_left) + len(new_right), 1.0], meter.elapsed
        )
        return left_file, right_file

    def _stage_rowwise(
        self, new_left: list[Row], new_right: list[Row]
    ) -> tuple[list[Row], SpoolFile, SpoolFile]:
        """The reference path: pairwise merges against every old run."""
        left_file, right_file = self._spool_and_charge_writes(new_left, new_right)
        total_in = len(new_left) + len(new_right)

        # Step (2): sort the temporary files.
        left_key, right_key = self._sort_keys()
        with self.charger.measure() as meter:
            left_file.replace_rows(
                external_sort(left_file.rows, left_key, self.charger)
            )
            right_file.replace_rows(
                external_sort(right_file.rows, right_key, self.charger)
            )
        self.cost_model.observe(
            self.sort_step,
            [nlogn(len(new_left)) + nlogn(len(new_right)), total_in, 1.0],
            meter.elapsed,
        )

        # Step (3): merge — new×new always; cross-stage merges only under
        # full fulfillment (Figure 4.5).
        out: list[Row] = []
        reads = 0
        merges = 0
        with self.charger.measure() as meter:
            out.extend(self._merge(left_file.rows, right_file.rows))
            reads += len(left_file) + len(right_file)
            merges += 1
            if self.full_fulfillment:
                for old_right in self._right_runs:
                    out.extend(self._merge(left_file.rows, old_right.rows))
                    reads += len(left_file) + len(old_right)
                    merges += 1
                for old_left in self._left_runs:
                    out.extend(self._merge(old_left.rows, right_file.rows))
                    reads += len(old_left) + len(right_file)
                    merges += 1
        self.cost_model.observe(
            self.merge_step, [reads, len(out), merges], meter.elapsed
        )
        return out, left_file, right_file

    def _stage_vectorized(
        self, stage: int, new_left: list[Row], new_right: list[Row]
    ) -> tuple[list[Row], SpoolFile, SpoolFile]:
        """The kernel path: identical charges, bulk computation."""
        left_file, right_file = self._spool_and_charge_writes(new_left, new_right)
        total_in = len(new_left) + len(new_right)
        left_pos, right_pos = self._key_positions()
        left_keys = self._child_batch(self.left, new_left).key_columns(left_pos)
        right_keys = self._child_batch(self.right, new_right).key_columns(
            right_pos
        )

        # Step (2): sort the temporary files — equation (4.3) charged per
        # file exactly as external_sort would, ordering done columnar.
        with self.charger.measure() as meter:
            charge_external_sort(self.charger, len(new_left))
            left_order = _kernels.stable_lexsort(left_keys)
            sorted_left = _kernels.rows_array(new_left)[left_order]
            left_keys = [col[left_order] for col in left_keys]
            left_file.replace_rows(sorted_left.tolist())
            charge_external_sort(self.charger, len(new_right))
            right_order = _kernels.stable_lexsort(right_keys)
            sorted_right = _kernels.rows_array(new_right)[right_order]
            right_keys = [col[right_order] for col in right_keys]
            right_file.replace_rows(sorted_right.tolist())
        self.cost_model.observe(
            self.sort_step,
            [nlogn(len(new_left)) + nlogn(len(new_right)), total_in, 1.0],
            meter.elapsed,
        )

        # Step (3): merges. One joint code space over the new runs and both
        # consolidated runs prices every pair with one searchsorted probe;
        # charge_merge is then replayed per pair in the reference order
        # (new×new, new-left × old-rights, old-lefts × new-right).
        bf = self._bf()
        out: list[Row] = []
        reads = 0
        merges = 0
        with self.charger.measure() as meter:
            codes = _kernels.encode_columns(
                [
                    left_keys,
                    right_keys,
                    self._left_sorted.key_columns_or_empty(left_keys),
                    self._right_sorted.key_columns_or_empty(right_keys),
                ]
            )
            keyed_left = _kernels.KeyedRows(codes[0], sorted_left)
            keyed_right = _kernels.KeyedRows(codes[1], sorted_right)

            pair_out = self._vec_new_new(keyed_left, keyed_right)
            out.extend(pair_out)
            charge_merge(
                self.charger, len(left_file), len(right_file), pair_out, bf
            )
            reads += len(left_file) + len(right_file)
            merges += 1
            if self.full_fulfillment:
                right_outs = self._vec_vs_run(
                    keyed_left, self._right_sorted, codes[3], new_on_left=True
                )
                for (_s, run_len), pair_out in zip(
                    self._right_sorted.lengths, right_outs
                ):
                    out.extend(pair_out)
                    charge_merge(
                        self.charger, len(left_file), run_len, pair_out, bf
                    )
                    reads += len(left_file) + run_len
                    merges += 1
                left_outs = self._vec_vs_run(
                    keyed_right, self._left_sorted, codes[2], new_on_left=False
                )
                for (_s, run_len), pair_out in zip(
                    self._left_sorted.lengths, left_outs
                ):
                    out.extend(pair_out)
                    charge_merge(
                        self.charger, run_len, len(right_file), pair_out, bf
                    )
                    reads += run_len + len(right_file)
                    merges += 1
        self.cost_model.observe(
            self.merge_step, [reads, len(out), merges], meter.elapsed
        )

        if self.full_fulfillment:
            self._left_sorted.merge_in(left_keys, sorted_left, stage)
            self._right_sorted.merge_in(right_keys, sorted_right, stage)
        return out, left_file, right_file

    # Salvage support ----------------------------------------------------
    def snapshot(self) -> dict:
        token = super().snapshot()
        token["left_runs"] = len(self._left_runs)
        token["right_runs"] = len(self._right_runs)
        token["cum_left_in"] = self.cum_left_in
        token["cum_right_in"] = self.cum_right_in
        token["left_sorted"] = self._left_sorted.snapshot()
        token["right_sorted"] = self._right_sorted.snapshot()
        return token

    def restore(self, token: dict) -> None:
        super().restore(token)
        del self._left_runs[token["left_runs"] :]
        del self._right_runs[token["right_runs"] :]
        self.cum_left_in = token["cum_left_in"]
        self.cum_right_in = token["cum_right_in"]
        self._left_sorted.restore(token["left_sorted"])
        self._right_sorted.restore(token["right_sorted"])

class StagedIntersect(_StagedBinary):
    """Staged set intersection — the only set operation the estimator runs."""

    write_step = step_names.INTERSECT_WRITE
    sort_step = step_names.INTERSECT_SORT
    merge_step = step_names.INTERSECT_MERGE

    def __init__(self, left: "StagedNode", right: "StagedNode", **kwargs) -> None:
        super().__init__(left, right, **kwargs)
        left.schema.require_compatible(right.schema, "intersect")
        self.schema = left.schema

    def _sort_keys(self):
        return whole_row_key, whole_row_key

    def _key_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        positions = tuple(range(len(self.schema.attributes)))
        return positions, positions

    def _merge(self, left_run: list[Row], right_run: list[Row]) -> list[Row]:
        return merge_intersect(left_run, right_run, self.charger, self._bf())

    def _vec_new_new(
        self, left: "_kernels.KeyedRows", right: "_kernels.KeyedRows"
    ) -> list[Row]:
        return _kernels.intersect_new_new(left, right)

    def _vec_vs_run(
        self,
        new: "_kernels.KeyedRows",
        run: "_kernels.SortedRun",
        run_codes,
        new_on_left: bool,
    ) -> list[list[Row]]:
        # Whole-row keys make both directions symmetric: representative
        # tuples are value-identical whichever side supplies them.
        return _kernels.intersect_vs_run(new, run, run_codes)


class StagedJoin(_StagedBinary):
    """Staged equi-join (Figure 4.6)."""

    write_step = step_names.JOIN_WRITE
    sort_step = step_names.JOIN_SORT
    merge_step = step_names.JOIN_MERGE

    def __init__(
        self,
        left: "StagedNode",
        right: "StagedNode",
        on: Sequence[tuple[str, str]],
        **kwargs,
    ) -> None:
        super().__init__(left, right, **kwargs)
        self.on = tuple(on)
        self._left_key = [left.schema.index_of(a) for a, _ in self.on]
        self._right_key = [right.schema.index_of(b) for _, b in self.on]
        self.schema = left.schema.join(right.schema)

    def _key_positions(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(self._left_key), tuple(self._right_key)

    def _merge(self, left_run: list[Row], right_run: list[Row]) -> list[Row]:
        return merge_join(
            left_run,
            right_run,
            self._left_key,
            self._right_key,
            self.charger,
            self._bf(),
        )

    def _vec_new_new(
        self, left: "_kernels.KeyedRows", right: "_kernels.KeyedRows"
    ) -> list[Row]:
        return _kernels.join_new_new(left, right)

    def _vec_vs_run(
        self,
        new: "_kernels.KeyedRows",
        run: "_kernels.SortedRun",
        run_codes,
        new_on_left: bool,
    ) -> list[list[Row]]:
        return _kernels.join_vs_run(new, run, run_codes, new_on_left)


class StagedProject(_NodeBase):
    """Staged duplicate-eliminating projection (Figure 4.7).

    Maintains the global group-occupancy table across stages — the input to
    Goodman's estimator. Its per-stage "output tuples" are the groups first
    observed at that stage, so its selectivity is distinct-groups-per-point.
    """

    def __init__(
        self,
        child: "StagedNode",
        attrs: Sequence[str],
        label: str,
        initial_selectivity: float,
        charger: CostCharger,
        cost_model: CostModel,
        block_size: int,
        full_fulfillment: bool,
        spool: "Spool | None" = None,
        vectorized: bool = False,
        injector: "FaultInjector | None" = None,
    ) -> None:
        super().__init__(
            charger,
            cost_model,
            block_size,
            full_fulfillment,
            spool,
            vectorized,
            injector,
        )
        self.child = child
        self.attrs = tuple(attrs)
        self._positions = [child.schema.index_of(a) for a in self.attrs]
        self.schema = child.schema.project(self.attrs)
        self.tracker = SelectivityTracker(label, initial_selectivity)
        self.occupancy: dict[Row, int] = {}
        self.observed_child_tuples = 0

    def base_scans(self) -> list[StagedScan]:
        return self.child.base_scans()

    def iter_nodes(self) -> list["StagedNode"]:
        return [self, *self.child.iter_nodes()]

    def advance(self, stage: int) -> list[Row]:
        self._check_stage(stage)
        rows = self.child.advance(stage)
        projected = project_rows(rows, self._positions)

        # Step (1): spool the projected tuples to a temporary file.
        temp = self.spool.create(self.schema)
        with self.charger.measure() as meter:
            temp.write(projected, self.charger)
        self.cost_model.observe(
            step_names.PROJECT_WRITE, [len(projected), 1.0], meter.elapsed
        )

        # Step (2): sort the temporary file.
        with self.charger.measure() as meter:
            ordered = external_sort(temp.rows, whole_row_key, self.charger)
            temp.replace_rows(ordered)
        self.cost_model.observe(
            step_names.PROJECT_SORT,
            [nlogn(len(projected)), len(projected), 1.0],
            meter.elapsed,
        )

        new_groups: list[Row] = []
        with self.charger.measure() as meter:
            if ordered:
                self.charger.charge(CostKind.DEDUPE_TUPLE, len(ordered))
            for row in ordered:
                if row in self.occupancy:
                    self.occupancy[row] += 1
                else:
                    self.occupancy[row] = 1
                    new_groups.append(row)
            if new_groups:
                self.charger.charge(
                    CostKind.PAGE_WRITE, -(-len(new_groups) // self._bf())
                )
        pages = -(-len(new_groups) // self._bf()) if new_groups else 0
        self.cost_model.observe(
            step_names.PROJECT_DEDUPE,
            [len(ordered), pages, 1.0],
            meter.elapsed,
        )

        self.spool.release(temp)  # folded into the occupancy table
        self.observed_child_tuples += len(projected)
        self.stage = stage
        self._record(len(new_groups))
        return new_groups

    def snapshot(self) -> dict:
        token = super().snapshot()
        # The occupancy table is mutated in place per stage, so it must be
        # copied. Snapshots only happen under an active fault injector, so
        # unfaulted runs never pay this.
        token["occupancy"] = dict(self.occupancy)
        token["observed_child_tuples"] = self.observed_child_tuples
        return token

    def restore(self, token: dict) -> None:
        super().restore(token)
        self.occupancy = dict(token["occupancy"])
        self.observed_child_tuples = token["observed_child_tuples"]
