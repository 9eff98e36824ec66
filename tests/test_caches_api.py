"""The unified cache registry — ``repro.caches``.

One management surface for all three process-wide caches (kernels, plans,
bufferpool): named handles with ``info()``/``clear()`` and whole-registry
``caches.info()``/``caches.clear()``. The module-level helpers that
predated the registry are gone; the relation-keyed invalidation hooks
remain as mutation plumbing.
"""

from __future__ import annotations

import pytest

import repro
from repro import caches
from repro.core.database import Database
from repro.errors import ReproError
from repro.relational.expression import rel
from repro.relational.predicate import cmp


@pytest.fixture(autouse=True)
def fresh_registry():
    caches.clear()
    yield
    caches.clear()


def populate_all_caches():
    """One estimate that touches kernels, plans, and the bufferpool."""
    db = Database(seed=17)
    db.create_relation(
        "r1",
        [("id", "int"), ("a", "int")],
        rows=[(i, i % 7) for i in range(3_000)],
    )
    db.estimate(
        rel("r1").where(cmp("a", "<", 3)), quota=4.0, seed=1,
        vectorized=True, bufferpool=True,
    )


class TestRegistry:
    def test_names_cover_all_three_caches(self):
        assert caches.names() == ("kernels", "plans", "bufferpool")

    def test_get_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="unknown cache"):
            caches.get("plans_cache")

    def test_handles_carry_descriptions(self):
        for handle in caches.handles():
            assert handle.description
            assert caches.get(handle.name) is handle

    def test_info_returns_counters_for_every_cache(self):
        populate_all_caches()
        info = caches.info()
        assert set(info) == set(caches.names())
        for counters in info.values():
            for field in ("hits", "misses", "maxsize", "currsize"):
                assert getattr(counters, field) >= 0
        assert info["plans"].currsize >= 1
        assert info["bufferpool"].currsize >= 1
        assert info["kernels"].currsize >= 1

    def test_clear_one_cache_leaves_the_rest(self):
        populate_all_caches()
        assert caches.get("plans").info().currsize >= 1
        pool_before = caches.get("bufferpool").info().currsize
        assert pool_before >= 1
        caches.clear("plans")
        assert caches.get("plans").info().currsize == 0
        assert caches.get("bufferpool").info().currsize == pool_before

    def test_clear_all(self):
        populate_all_caches()
        caches.clear()
        for name, counters in caches.info().items():
            assert counters.currsize == 0, name
            assert counters.hits == 0, name


REMOVED_HELPERS = (
    "kernel_cache_info",
    "clear_kernel_cache",
    "plan_cache_info",
    "clear_plan_cache",
    "bufferpool_cache_info",
    "clear_bufferpool_cache",
)


class TestLegacyNames:
    def test_legacy_helpers_are_gone(self):
        """The registry is the only management surface left."""
        for name in REMOVED_HELPERS:
            assert not hasattr(repro, name), name
            assert name not in repro.__all__, name

    def test_relation_invalidation_hooks_do_not_warn(self, recwarn):
        """Mutation plumbing stays public and warning-free."""
        from repro.planner.cache import invalidate_plan_cache_relation
        from repro.storage.bufferpool import invalidate_bufferpool_relation

        invalidate_plan_cache_relation("nope")
        invalidate_bufferpool_relation("nope")
        assert not [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
