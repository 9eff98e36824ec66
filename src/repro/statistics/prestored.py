"""Prestored selectivity estimation from relation statistics.

The counterpart of the run-time approach (Figure 3.2's first implementation
decision): derive each operator's selectivity *before* execution from
analyzed statistics. As the paper observes, this "is best suited for
database environments where only a fixed set of query types are to be
issued" — it needs statistics maintenance and cannot cover every operator —
so the library offers it in two roles:

* **hybrid** — use the prestored value only as the *initial* selectivity
  (replacing the maximum-selectivity assumption of Figure 3.3), and let the
  run-time machinery refine it from stage 2 on: better stage-1 sizing at no
  loss of generality;
* **prestored** — pin every operator's selectivity to the prestored value
  for the whole run (no refinement, no ``d_β`` margin): the pure
  alternative the paper decided against, measurable in ablation A7.

A hint is the operator's *output fraction over its subtree's point space* —
exactly the tracker's selectivity semantics — computed compositionally:

====================  =====================================================
node                  hint
====================  =====================================================
``rel``               1
``select``            predicate selectivity (histogram) × child hint
``join``              per-attribute-pair histogram join selectivity ×
                      left hint × right hint (attribute independence)
``project``           min(distinct combinations, child output) / space
``intersect``         no hint (not derivable from single-attribute stats)
====================  =====================================================

Nodes the statistics cannot cover return ``None`` and fall back to the
run-time defaults.
"""

from __future__ import annotations

import math
import numbers
from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.errors import EstimationError
from repro.relational.expression import (
    Expression,
    Intersect,
    Join,
    Project,
    RelationRef,
    Select,
)
from repro.relational.predicate import (
    And,
    Attr,
    Comparison,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.statistics.stats import RelationStatistics


class SelectivityHinter:
    """Computes prestored selectivity hints for expression nodes."""

    def __init__(
        self,
        statistics: Mapping[str, RelationStatistics],
        catalog: Catalog,
    ) -> None:
        self.statistics = dict(statistics)
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def hint(self, expr: Expression) -> float | None:
        """Output fraction of ``expr`` over its point space, or ``None``."""
        value = self._hint(expr)
        if value is None:
            return None
        return min(max(value, 1e-12), 1.0)

    def require_statistics(self, expr: Expression) -> None:
        """Raise unless every base relation of ``expr`` was analyzed."""
        missing = [
            name
            for name in set(expr.base_relations())
            if name not in self.statistics
        ]
        if missing:
            raise EstimationError(
                f"no statistics for relations {sorted(missing)}; "
                "call Database.analyze() first"
            )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def _hint(self, expr: Expression) -> float | None:
        if isinstance(expr, RelationRef):
            return 1.0
        if isinstance(expr, Select):
            child = self._hint(expr.child)
            if child is None:
                return None
            pred = self._predicate_selectivity(expr.predicate, expr.child)
            if pred is None:
                return None
            return pred * child
        if isinstance(expr, Join):
            left = self._hint(expr.left)
            right = self._hint(expr.right)
            if left is None or right is None:
                return None
            join_sel = 1.0
            for left_attr, right_attr in expr.on:
                pair = self._join_pair_selectivity(
                    expr.left, left_attr, expr.right, right_attr
                )
                if pair is None:
                    return None
                join_sel *= pair
            return join_sel * left * right
        if isinstance(expr, Project):
            return self._project_hint(expr)
        if isinstance(expr, Intersect):
            return None
        return None

    def _single_base(self, expr: Expression) -> str | None:
        """The sole base relation under ``expr``, or None if several."""
        bases = expr.base_relations()
        if len(bases) == 1:
            return bases[0]
        return None

    def _stats_for_attribute(
        self, expr: Expression, attribute: str
    ) -> RelationStatistics | None:
        """Statistics of the single base relation providing ``attribute``.

        Only attribute references that survive un-renamed to a single base
        relation are resolvable; joins of joins (where right-side renames
        apply) return None and fall back.
        """
        base = self._single_base(expr)
        if base is None or base not in self.statistics:
            return None
        stats = self.statistics[base]
        if not stats.has(attribute):
            return None
        return stats

    # ------------------------------------------------------------------
    # Selection formulas
    # ------------------------------------------------------------------
    def _predicate_selectivity(
        self, predicate: Predicate, child: Expression
    ) -> float | None:
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, Comparison):
            if isinstance(predicate.value, Attr):
                return None  # attribute-to-attribute: no joint statistics
            if not isinstance(predicate.value, numbers.Real):
                return None  # histograms order numbers only
            stats = self._stats_for_attribute(child, predicate.attr)
            if stats is None:
                return None
            return stats.histogram(predicate.attr).selectivity(
                predicate.op, float(predicate.value)
            )
        if isinstance(predicate, And):
            product = 1.0
            for part in predicate.parts:
                s = self._predicate_selectivity(part, child)
                if s is None:
                    return None
                product *= s
            return product
        if isinstance(predicate, Or):
            miss = 1.0
            for part in predicate.parts:
                s = self._predicate_selectivity(part, child)
                if s is None:
                    return None
                miss *= 1.0 - s
            return 1.0 - miss
        if isinstance(predicate, Not):
            s = self._predicate_selectivity(predicate.part, child)
            return None if s is None else 1.0 - s
        return None

    # ------------------------------------------------------------------
    # Joins and projections
    # ------------------------------------------------------------------
    def _join_pair_selectivity(
        self,
        left: Expression,
        left_attr: str,
        right: Expression,
        right_attr: str,
    ) -> float | None:
        left_stats = self._stats_for_attribute(left, left_attr)
        right_stats = self._stats_for_attribute(right, right_attr)
        if left_stats is None or right_stats is None:
            return None
        return left_stats.histogram(left_attr).join_selectivity(
            right_stats.histogram(right_attr)
        )

    def _project_hint(self, expr: Project) -> float | None:
        child = self._hint(expr.child)
        if child is None:
            return None
        base = self._single_base(expr.child)
        if base is None or base not in self.statistics:
            return None
        stats = self.statistics[base]
        if not all(stats.has(a) for a in expr.attrs):
            return None
        combos = math.prod(stats.distinct(a) for a in expr.attrs)
        output_tuples = child * stats.tuple_count
        distinct_out = min(combos, output_tuples)
        return distinct_out / stats.tuple_count
