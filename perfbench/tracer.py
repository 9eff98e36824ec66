"""Span tracing from outside the program, for the traced benchmark run.

:func:`install` replaces the public entry points of each ``repro`` layer with
wrappers that record one span per call: name, start, end, parent span and
op id, plus the span's self time (its duration minus the time its child
spans cover). Spans stay in memory until :meth:`Tracer.write`. Nothing
under ``src/`` knows about the wrappers, and :func:`uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path


class Tracer:
    """Spans of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        """``(name, start, end, parent index, op id, self seconds, tag)``."""
        self.op = 0
        self.paused = False
        """While set, wrapped calls run without recording spans."""
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[frame[0]] = (
                    name,
                    start,
                    end,
                    parent,
                    self.op,
                    end - start - frame[1],
                    tag(*args, **kwargs) if tag is not None else None,
                )

        return traced

    def patch_method(self, name: str, cls: type, attr: str, tag=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, tag))

    def patch_function(self, name: str, fn) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        traced = self.wrap(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span, gzipped: a header line naming the fields, then
        one JSON array per span; a span's id is its line number from 0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(["name", "start", "end", "parent", "op", "self", "tag"]))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")


def _shape(session, *args, **kwargs) -> str:
    return type(session.expr).__name__.lower()


def _blocks(heap, block_ids, *args, **kwargs) -> int:
    return len(block_ids)


def install() -> Tracer:
    """Wrap each layer's public entry points; returns the live tracer."""
    from repro import realtime
    from repro.core.database import Database
    from repro.core.session import QuerySession
    from repro.costmodel.model import CostModel
    from repro.engine.plan import StagedPlan
    from repro.planner import rewrite
    from repro.sampling.sampler import BlockSampler
    from repro.server import admission
    from repro.server.scheduler import QueryServer
    from repro.storage.bufferpool import BufferPool
    from repro.storage.heapfile import HeapFile
    from repro.synopses.binder import SynopsisBinder
    from repro.timecontrol import strategies

    tracer = Tracer()
    methods = [
        ("core.open_session", Database, "open_session", None),
        ("core.append_rows", Database, "append_rows", None),
        ("core.session_run", QuerySession, "run_preemptible", _shape),
        ("engine.plan_build", StagedPlan, "__init__", None),
        ("engine.predict_stage", StagedPlan, "predict_stage", None),
        ("engine.advance_stage", StagedPlan, "advance_stage", None),
        ("estimation.estimate", StagedPlan, "estimate", None),
        ("costmodel.predict", CostModel, "predict", None),
        ("costmodel.observe", CostModel, "observe", None),
        ("storage.read_blocks", HeapFile, "read_blocks", _blocks),
        ("storage.read_blocks", HeapFile, "read_blocks_decoded", _blocks),
        ("storage.bufferpool.get_or_admit", BufferPool, "get_or_admit", None),
        ("sampling.draw", BlockSampler, "draw", None),
        ("synopses.bind", SynopsisBinder, "bind", None),
        ("server.process", QueryServer, "process", None),
    ]
    for value in vars(strategies).values():
        if isinstance(value, type) and "choose_fraction" in value.__dict__:
            methods.append(("timecontrol.choose_fraction", value, "choose_fraction", None))
    for name, cls, attr, tag in methods:
        tracer.patch_method(name, cls, attr, tag)
    tracer.patch_function("planner.plan_logical", rewrite.plan_logical)
    tracer.patch_function("server.minimum_stage_cost", admission.minimum_stage_cost)
    tracer.patch_function("realtime.run_transaction", realtime.run_transaction)
    return tracer


class SpanTotals:
    """Per-name totals over a traced phase."""

    def __init__(self, spans) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.blocks: dict[str, int] = {}
        self.by_tag: dict[tuple[str, object], list[float]] = {}
        for name, start, end, parent, _op, self_s, tag in spans:
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            # A call nested in a call of the same name (read_blocks_decoded
            # delegating to read_blocks) is one call at the layer boundary.
            if parent >= 0 and spans[parent][0] == name:
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)
            if isinstance(tag, int):
                self.blocks[name] = self.blocks.get(name, 0) + tag
            elif tag is not None:
                self.by_tag.setdefault((name, tag), []).append(end - start)
