"""Columnar kernels — bulk evaluation for the staged engine's hot paths.

The paper charges *simulated* time through the cost formulas of Section 4;
how fast the host Python process grinds through a stage is invisible to the
controller. This package exploits that separation: it provides NumPy-backed
bulk primitives (vectorized predicate masks, lexicographic sorts,
``searchsorted``-based merge-joins and intersections over one consolidated
sorted run per operand side) that the staged nodes use to *compute* each
stage, while every charged cost — block reads, comparisons, sort and merge
steps — is issued in exactly the sequence and amounts of the row-at-a-time
reference path. Estimates, trace events, and charged simulated times are
bit-identical with kernels on or off; only wall-clock time changes.

Switching the kernels off (``REPRO_KERNELS=0`` in the environment, or
``open_session(vectorized=False)``) routes execution through the original
row-at-a-time operators, which remain the reference implementation.
"""

from __future__ import annotations

from repro.core.switches import env_switch
from repro.kernels.cache import (
    CompiledPredicate,
    KernelCacheInfo,
    cached_sort_key,
    compiled_predicate,
)
from repro.kernels.columns import ColumnBatch, column_array, columnize
from repro.kernels.runs import (
    KeyedRows,
    SortedRun,
    encode_columns,
    first_occurrence,
    match_pairs,
    stable_lexsort,
)

def kernels_enabled() -> bool:
    """Process-wide default for the vectorized kernels (env-controlled).

    ``REPRO_KERNELS=0`` (or ``false``/``off``/``no``) forces the
    row-at-a-time fallback; anything else — including the variable being
    unset — enables the kernels. Read at plan construction time, so tests
    can flip it per query. Resolution lives in
    :func:`repro.core.switches.env_switch`, shared with ``REPRO_OPTIMIZE``.
    """
    return env_switch("REPRO_KERNELS", default=True)


__all__ = [
    "ColumnBatch",
    "CompiledPredicate",
    "KernelCacheInfo",
    "KeyedRows",
    "SortedRun",
    "cached_sort_key",
    "column_array",
    "columnize",
    "compiled_predicate",
    "encode_columns",
    "first_occurrence",
    "kernels_enabled",
    "match_pairs",
    "stable_lexsort",
]
