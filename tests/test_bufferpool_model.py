"""Property suite: the buffer pool against a list-based reference LRU.

Random sequences of pooled reads (hits and misses), live and dropped
:class:`PooledBatch` pins, and relation invalidations run against both
:class:`BufferPool` and the small model below. After every step the pool's
resident key order, counters and event stream must equal the model's. The
model states the eviction contract the simple way — while over capacity,
drop the least recently used entry that is neither pinned nor the block
just admitted — so any faster victim walk in the pool must pick the same
victims in the same order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Schema
from repro.catalog.types import AttributeType
from repro.observability import RecordingSink
from repro.storage.bufferpool import BufferPool
from repro.storage.events import BufferEvicted, BufferHit, BufferInvalidated
from repro.timekeeping.charger import CostCharger
from repro.timekeeping.profile import MachineProfile
from tests.conftest import make_relation

SCHEMA = Schema.of(id=AttributeType.INT, a=AttributeType.INT)
BLOCKS = 5
# "r10" shares r1's prefix; invalidate_relation("r1") must not drop it.
NAMES = ("r1", "r2", "r10")


class _Slot:
    """One resident block in the model; pins follow the slot, not the key,
    so a batch holding an evicted block never pins its re-admission."""

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.pins = 0


class ModelPool:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.order: list[_Slot] = []  # LRU first
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self.events: list = []

    def read(self, heap, block_ids) -> list[_Slot]:
        prefix = BufferPool.key_prefix(heap)
        slots = []
        hits = 0
        for block_id in block_ids:
            key = prefix + (block_id,)
            slot = next((s for s in self.order if s.key == key), None)
            if slot is not None:
                self.order.remove(slot)
                self.order.append(slot)
                self.hits += 1
                hits += 1
            else:
                self.misses += 1
                slot = _Slot(key)
                self.order.append(slot)
                while len(self.order) > self.capacity:
                    victim = next(
                        (s for s in self.order if s.pins == 0 and s is not slot),
                        None,
                    )
                    if victim is None:
                        break
                    self.order.remove(victim)
                    self.evictions += 1
                    self.events.append(
                        BufferEvicted(relation=victim.key[0], block_id=victim.key[2])
                    )
            slots.append(slot)
        if block_ids:
            self.events.append(
                BufferHit(
                    relation=heap.name,
                    blocks=len(block_ids),
                    hits=hits,
                    misses=len(block_ids) - hits,
                )
            )
        return slots

    def invalidate(self, name: str) -> None:
        doomed = [s for s in self.order if s.key[0] == name]
        for slot in doomed:
            self.order.remove(slot)
        self.invalidations += len(doomed)
        if doomed:
            self.events.append(BufferInvalidated(relation=name, entries=len(doomed)))


steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["read", "batch"]),
            st.integers(0, len(NAMES) - 1),
            st.lists(st.integers(0, BLOCKS - 1), max_size=6),
        ),
        st.tuples(st.just("drop"), st.integers(0, 7)),
        st.tuples(st.just("invalidate"), st.sampled_from(NAMES[:2])),
    ),
    max_size=40,
)


class TestPoolMatchesReferenceLRU:
    @given(capacity=st.integers(1, 6), ops=steps)
    @settings(max_examples=300, deadline=None)
    def test_same_residents_counters_and_events(self, capacity, ops):
        heaps = [
            make_relation(
                name, SCHEMA, [(i, i) for i in range(5 * BLOCKS)], block_size=40
            )
            for name in NAMES
        ]
        assert all(h.block_count == BLOCKS for h in heaps)
        charger = CostCharger(MachineProfile.uniform(0.0))
        sink = RecordingSink()
        pool = BufferPool(capacity=capacity, sink=sink)
        model = ModelPool(capacity)
        live: list[tuple[object, list[_Slot]]] = []

        for op in ops:
            if op[0] in ("read", "batch"):
                _, which, block_ids = op
                heap = heaps[which]
                slots = model.read(heap, block_ids)
                if op[0] == "read":
                    heap.read_blocks(block_ids, charger, pool=pool)
                else:
                    _, batch = heap.read_blocks_decoded(
                        block_ids, charger, pool=pool
                    )
                    for slot in slots:
                        slot.pins += 1
                    live.append((batch, slots))
            elif op[0] == "drop":
                if live:
                    batch, slots = live.pop(op[1] % len(live))
                    del batch  # the weakref finalizer unpins
                    for slot in slots:
                        slot.pins -= 1
            else:
                pool.invalidate_relation(op[1])
                model.invalidate(op[1])

            assert list(pool._entries) == [s.key for s in model.order]
            info = pool.info()
            assert (
                info.hits,
                info.misses,
                info.evictions,
                info.invalidations,
                info.pinned,
            ) == (
                model.hits,
                model.misses,
                model.evictions,
                model.invalidations,
                sum(1 for s in model.order if s.pins > 0),
            )
            assert list(sink) == model.events
