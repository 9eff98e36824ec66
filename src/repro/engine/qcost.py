"""Compiled ``QCOST(f, SEL)`` — the price of a plan's next stage.

Figure 3.4 bisects on the predicted cost of the next stage, ``QCOST(f,
SEL)`` of Section 3.3, summed over the plan's inclusion–exclusion terms
with shared scans (and shared subtrees) priced once. A bisection evaluates
it some 25 times per stage at different fractions ``f``, while nothing else
changes, so :func:`compile_qcost` lowers the staged trees once into a flat
post-order list of per-node step closures. What does not depend on ``f`` is
read at compile time:

* per scan: block count, blocks still unsampled, blocking factor, tuples
  still unsampled;
* per operator: the cumulative tuple counts of the scans under it and their
  product, its space points, its stage number and cumulative inputs, its
  blocking factor and step models;
* per tracker: the selectivity provider bound to it (``sel^{i−1}``, the
  observed points and ``d_β`` read once — see
  :meth:`~repro.estimation.selectivity.SelectivityTracker.bind_sel_plus`).

A compiled cost therefore prices the stage the plan is about to run: it is
stale once the plan advances or a cost model observes, and strategies build
one per ``choose_fraction``.

A stage's price depends on ``f`` only through each scan's block count
``min(max(1, round(f·D)), remaining)``. Each call computes that block
vector once, hands it to the scan steps, and memoizes the stage total and
every node's predicted new points under it: most bisection steps land on a
vector already priced, and a hit restores the stored points so
:meth:`CompiledQCost.new_points` reads the same as after a full pricing.

Float-order contract: each step evaluates formulas (4.1)–(4.5) in one fixed
order — a binary node reads ``(N_{1,s−1} + N_{2,s−1}) + s·(n_1s + n_2s)``
tuples and costs ``write + sort + merge`` summed left to right, every
prediction is :meth:`OnlineLinearModel.predict
<repro.costmodel.linear.OnlineLinearModel.predict>` — and the stage total
adds the steps in post-order, so every caller gets bit-identical prices.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.costmodel import steps as step_names
from repro.costmodel.linear import OnlineLinearModel
from repro.engine.nodes import (
    StagedNode,
    StagedProject,
    StagedScan,
    StagedSelect,
    _StagedBinary,
    nlogn,
)
from repro.errors import TimeControlError
from repro.estimation.selectivity import BoundSel, SelProvider
from repro.sampling.sampler import blocks_for_fraction

__all__ = ["CompiledQCost", "compile_qcost", "post_order"]

Blocks = tuple[int, ...]
"""Blocks each scan reads at a candidate fraction, in scan post-order."""

Step = Callable[[Blocks], float]
"""One node's price under a block vector; records its outputs."""


def _children(node: StagedNode) -> tuple[StagedNode, ...]:
    if isinstance(node, _StagedBinary):
        return (node.left, node.right)
    if isinstance(node, (StagedSelect, StagedProject)):
        return (node.child,)
    return ()


def post_order(roots: Sequence[StagedNode]) -> list[StagedNode]:
    """Distinct nodes under ``roots``, children first, left to right.

    A node shared between terms (or between both inputs of a self-join)
    appears once, at its first visit — the order the nodes are priced in.
    """
    order: list[StagedNode] = []
    seen: set[int] = set()
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(_children(node)))
    return order


class CompiledQCost:
    """``QCOST(f, SEL)`` of a plan's next stage under one provider.

    Calling it with a fraction returns the stage's predicted seconds.
    :attr:`nodes` lists the priced nodes in post-order; after any
    evaluation, :meth:`new_points` reads a node's predicted new points.
    """

    __slots__ = ("nodes", "_steps", "_slots", "_points", "_scans", "_memo")

    def __init__(
        self,
        nodes: list[StagedNode],
        steps: list[Step],
        slots: dict[int, int],
        points: list[float],
    ) -> None:
        self.nodes = nodes
        self._steps = steps
        self._slots = slots
        self._points = points
        # (relation, blocks still unsampled) per scan, in post-order.
        self._scans = [
            (node.relation, node.sampler.remaining_blocks)
            for node in nodes
            if isinstance(node, StagedScan)
        ]
        # block vector -> (stage total, every node's predicted new points)
        self._memo: dict[Blocks, tuple[float, list[float]]] = {}

    def _blocks(self, fraction: float) -> Blocks:
        _check_fraction(fraction)
        return tuple(
            [
                min(blocks_for_fraction(relation, fraction), remaining)
                for relation, remaining in self._scans
            ]
        )

    def __call__(self, fraction: float) -> float:
        blocks = self._blocks(fraction)
        hit = self._memo.get(blocks)
        if hit is not None:
            total, points = hit
            self._points[:] = points
            return total
        total = 0.0
        for step in self._steps:
            total += step(blocks)
        self._memo[blocks] = (total, self._points.copy())
        return total

    def itemize(self, fraction: float) -> list[float]:
        """Each node's predicted seconds at ``fraction``, in :attr:`nodes` order."""
        blocks = self._blocks(fraction)
        return [step(blocks) for step in self._steps]

    def new_points(self, node: StagedNode) -> float:
        """``node``'s predicted new points at the last evaluated fraction."""
        return self._points[self._slots[id(node)]]


def _check_fraction(fraction: float) -> None:
    if fraction <= 0:
        raise TimeControlError(f"candidate fraction must be positive: {fraction}")


def compile_qcost(
    roots: Sequence[StagedNode], sel_provider: SelProvider
) -> CompiledQCost:
    """Lower the staged trees under ``roots`` into one compiled QCOST."""
    nodes = post_order(roots)
    slots = {id(node): slot for slot, node in enumerate(nodes)}
    # out[slot]: the node's predicted new output tuples; points[slot]: its
    # predicted new points. Steps run children first, so reads are fresh.
    out = [0.0] * len(nodes)
    points = [0.0] * len(nodes)
    steps: list[Step] = []
    scan_index = 0  # scans read their entry of the block vector
    for node in nodes:
        slot = slots[id(node)]
        if isinstance(node, StagedScan):
            steps.append(_scan_step(node, slot, scan_index, out, points))
            scan_index += 1
        else:
            steps.append(
                _operator_step(node, slot, slots, out, points, sel_provider)
            )
    return CompiledQCost(nodes, steps, slots, points)


def _operator_step(
    node: StagedNode,
    slot: int,
    slots: dict[int, int],
    out: list[float],
    points: list[float],
    sel_provider: SelProvider,
) -> Step:
    new_points = _new_points(node, slots, out)
    sel = _bind(sel_provider, node)
    model = node.cost_model.model
    if isinstance(node, StagedSelect):
        seconds = _select_seconds(node, slots, out, model)
    elif isinstance(node, _StagedBinary):
        seconds = _binary_seconds(node, slots, out, model)
    elif isinstance(node, StagedProject):
        seconds = _project_seconds(node, slots, out, model)
    else:
        raise TimeControlError(f"cannot price {type(node).__name__}")

    def step(blocks: Blocks) -> float:
        new = new_points()
        new_out = sel(max(int(new), 1)) * new
        out[slot] = new_out
        points[slot] = new
        return seconds(new_out)

    return step


def _scan_step(
    scan: StagedScan,
    slot: int,
    index: int,
    out: list[float],
    points: list[float],
) -> Step:
    """Equation (4.1)'s read of ``blocks[index]`` blocks (clamped already)."""
    relation = scan.relation
    bf = relation.blocking_factor
    # The final block may be partially filled; clamp by what remains.
    tuples_left = relation.tuple_count - scan.cum_tuples
    predict = scan.cost_model.model(step_names.SCAN_READ).predict

    def step(blocks: Blocks) -> float:
        d = blocks[index]
        new_tuples = min(float(d * bf), tuples_left)
        out[slot] = points[slot] = new_tuples
        return predict((d, 1.0)) if d else 0.0

    return step


def _new_points(
    node: StagedNode, slots: dict[int, int], out: list[float]
) -> Callable[[], float]:
    """Predicted new points of ``node``'s space, from its scans' outputs.

    Full fulfillment covers ``Π(N_j + n_j) − Π N_j`` (the whole cross
    product of everything sampled so far); partial covers ``Π n_j``.
    """
    scans = node.base_scans()
    scan_slots = tuple(slots[id(scan)] for scan in scans)
    if not node.full_fulfillment:

        def partial() -> float:
            product = 1
            for scan_slot in scan_slots:
                product *= out[scan_slot]
            return product

        return partial

    cums = tuple(scan.cum_tuples for scan in scans)
    before = math.prod(cums)
    pairs = tuple(zip(cums, scan_slots))

    def full() -> float:
        after = 1
        for cum, scan_slot in pairs:
            after *= cum + out[scan_slot]
        return after - before

    return full


def _bind(sel_provider: SelProvider, node: StagedNode) -> BoundSel:
    """The provider as a function of the candidate points alone."""
    tracker = node.tracker
    space = node.space_points()
    bind = getattr(sel_provider, "bind", None)
    if bind is not None:
        return bind(tracker, space)
    return lambda candidate_points: sel_provider(tracker, candidate_points, space)


def _select_seconds(
    node: StagedSelect,
    slots: dict[int, int],
    out: list[float],
    model: Callable[[str], OnlineLinearModel],
) -> Callable[[float], float]:
    """Equation (4.1): check every input tuple, write the output pages."""
    child = slots[id(node.child)]
    bf = node._bf()
    predict = model(step_names.SELECT_OP).predict

    def seconds(new_out: float) -> float:
        return predict((out[child], new_out / bf, 1.0))

    return seconds


def _binary_seconds(
    node: _StagedBinary,
    slots: dict[int, int],
    out: list[float],
    model: Callable[[str], OnlineLinearModel],
) -> Callable[[float], float]:
    """Equations (4.2)–(4.4): write, sort, merge the stage's new runs."""
    left = slots[id(node.left)]
    right = slots[id(node.right)]
    write = model(node.write_step).predict
    sort = model(node.sort_step).predict
    merge = model(node.merge_step).predict
    s = node.stage + 1
    full = node.full_fulfillment
    cum_in = node.cum_left_in + node.cum_right_in
    merges = 2 * s - 1 if full else 1

    def seconds(new_out: float) -> float:
        n1 = out[left]
        n2 = out[right]
        # Equation (4.4): N_{1,s−1} + N_{2,s−1} + s(n_1s + n_2s).
        reads = cum_in + s * (n1 + n2) if full else n1 + n2
        return (
            write((n1 + n2, 1.0))
            + sort((nlogn(n1) + nlogn(n2), n1 + n2, 1.0))
            + merge((reads, new_out, merges))
        )

    return seconds


def _project_seconds(
    node: StagedProject,
    slots: dict[int, int],
    out: list[float],
    model: Callable[[str], OnlineLinearModel],
) -> Callable[[float], float]:
    """Figure 4.7: spool, sort and deduplicate the projected tuples."""
    child = slots[id(node.child)]
    bf = node._bf()
    write = model(step_names.PROJECT_WRITE).predict
    sort = model(step_names.PROJECT_SORT).predict
    dedupe = model(step_names.PROJECT_DEDUPE).predict

    def seconds(new_out: float) -> float:
        n = out[child]
        return (
            write((n, 1.0))
            + sort((nlogn(n), n, 1.0))
            + dedupe((n, new_out / bf, 1.0))
        )

    return seconds
