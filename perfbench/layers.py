"""Per-layer metrics of the traced run, from spans and cache counters.

Times are per op (a query, a server request or a transaction) unless the
name says otherwise; ratios are over the traced phase. A layer a workload
never enters reports 0.
"""

from __future__ import annotations

import math
import statistics

from tracer import SpanTotals


def snapshot(workload, state) -> dict:
    """Cumulative counters, to difference across a phase, minus what the
    workload's untimed work between ops added."""
    from repro import caches
    from workloads import counters

    info = caches.info()
    totals = counters(workload.databases(state))
    excluded = state.get("excluded", [0] * len(totals))
    totals = [count - skip for count, skip in zip(totals, excluded)]
    return {
        "plans": (info["plans"].hits, info["plans"].misses),
        "kernels": (info["kernels"].hits, info["kernels"].misses),
        "pool": tuple(totals[:4]),
        "synopses": tuple(totals[4:]),
        "outcomes": len(workload.server_outcomes(state)),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hit_ratio(before: tuple, after: tuple) -> float:
    hits, misses = after[0] - before[0], after[1] - before[1]
    return _ratio(hits, hits + misses)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]); 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def charged_metrics(records) -> dict[str, tuple[float, str]]:
    """What the quota bought over ``records`` (simulated, deterministic)."""
    queries = [q for record in records for q in record.queries]
    errors = [q.rel_err for q in queries if q.rel_err is not None]
    return {
        "blocks_per_query": (
            statistics.fmean(q.blocks for q in queries) if queries else 0.0,
            "blocks",
        ),
        "deadline_hit_frac": (_ratio(sum(r.hit for r in records), len(records)), "frac"),
        "rel_err_mean": (statistics.fmean(errors) if errors else 0.0, "ratio"),
        "risk_pct": (100.0 * _ratio(sum(q.overspent for q in queries), len(queries)), "%"),
    }


def layer_metrics(workload, state, tracer, traced, plain, before, after) -> dict:
    ops = len(traced.records)
    spans = SpanTotals(tracer.spans)

    def calls(name: str) -> float:
        return _ratio(spans.calls.get(name, 0), ops)

    def self_ms(name: str) -> float:
        return _ratio(spans.self_s.get(name, 0.0) * 1e3, ops)

    queries = [q for record in traced.records for q in record.queries]
    outcomes = workload.server_outcomes(state)[before["outcomes"] :]
    waits = [o.queue_wait for o in outcomes]

    def outcome_frac(kind: str) -> float:
        return _ratio(sum(o.outcome.value == kind for o in outcomes), len(outcomes))

    pool_before, pool_after = before["pool"], after["pool"]
    plain_p50 = percentile(plain.scaled, 50)
    metrics = {
        "timecontrol.choose_fraction.calls": (calls("timecontrol.choose_fraction"), "count"),
        "timecontrol.choose_fraction.self_ms": (self_ms("timecontrol.choose_fraction"), "ms"),
        "timecontrol.stages": (
            statistics.fmean(q.stages for q in queries) if queries else 0.0,
            "count",
        ),
        "engine.predict_stage.calls_per_choose": (
            _ratio(
                spans.calls.get("engine.predict_stage", 0),
                spans.calls.get("timecontrol.choose_fraction", 0),
            ),
            "count",
        ),
        "engine.predict_stage.self_ms": (self_ms("engine.predict_stage"), "ms"),
        "costmodel.predict.calls": (calls("costmodel.predict"), "count"),
        "costmodel.predict.self_ms": (self_ms("costmodel.predict"), "ms"),
        "costmodel.observe.self_ms": (self_ms("costmodel.observe"), "ms"),
        "core.open_session.calls": (calls("core.open_session"), "count"),
        "core.open_session.self_ms": (self_ms("core.open_session"), "ms"),
        "core.session_run_ratio": (
            _ratio(
                spans.calls.get("core.session_run", 0),
                spans.calls.get("core.open_session", 0),
            ),
            "ratio",
        ),
        "engine.plan_build.self_ms": (self_ms("engine.plan_build"), "ms"),
        "planner.plan_logical.calls": (calls("planner.plan_logical"), "count"),
        "planner.plan_logical.self_ms": (self_ms("planner.plan_logical"), "ms"),
        "planner.plan_cache.hit_ratio": (_hit_ratio(before["plans"], after["plans"]), "ratio"),
        "server.minimum_stage_cost.self_ms": (self_ms("server.minimum_stage_cost"), "ms"),
        "server.scheduler.self_ms": (self_ms("server.process"), "ms"),
        "engine.advance_stage.calls": (calls("engine.advance_stage"), "count"),
        "engine.advance_stage.self_ms": (self_ms("engine.advance_stage"), "ms"),
        "kernels.compile_cache.hit_ratio": (
            _hit_ratio(before["kernels"], after["kernels"]),
            "ratio",
        ),
        "estimation.estimate.self_ms": (self_ms("estimation.estimate"), "ms"),
    }
    for shape in ("select", "intersect", "join"):
        durations = [s * 1e3 for s in spans.by_tag.get(("core.session_run", shape), [])]
        metrics[f"core.estimate.{shape}.ms_p50"] = (percentile(durations, 50), "ms")
    charged = charged_metrics(traced.records)
    metrics["rel_err_mean"] = charged["rel_err_mean"]
    metrics["risk_pct"] = charged["risk_pct"]
    metrics["failed_frac"] = (_ratio(traced.failed, ops), "frac")
    metrics.update(
        {
            "storage.read_blocks.calls": (calls("storage.read_blocks"), "count"),
            "storage.read_blocks.self_ms": (self_ms("storage.read_blocks"), "ms"),
            "storage.read_blocks.blocks": (
                _ratio(spans.blocks.get("storage.read_blocks", 0), ops),
                "blocks",
            ),
            "storage.bufferpool.hit_ratio": (_hit_ratio(pool_before, pool_after), "ratio"),
            "storage.bufferpool.evictions": (
                _ratio(pool_after[2] - pool_before[2], ops),
                "count",
            ),
            "storage.bufferpool.invalidations": (
                _ratio(pool_after[3] - pool_before[3], ops),
                "count",
            ),
            "storage.bufferpool.get_or_admit.self_ms": (
                self_ms("storage.bufferpool.get_or_admit"),
                "ms",
            ),
            "sampling.draw.self_ms": (self_ms("sampling.draw"), "ms"),
            "core.append_rows.ms_per_call": (
                _ratio(
                    spans.total_s.get("core.append_rows", 0.0) * 1e3,
                    spans.calls.get("core.append_rows", 0),
                ),
                "ms",
            ),
            "synopses.bind.calls": (calls("synopses.bind"), "count"),
            "synopses.bind.self_ms": (self_ms("synopses.bind"), "ms"),
            "synopses.hit_ratio": (_hit_ratio(before["synopses"], after["synopses"]), "ratio"),
            "synopses.invalidations": (
                _ratio(after["synopses"][2] - before["synopses"][2], ops),
                "count",
            ),
            "realtime.run_transaction.self_ms": (self_ms("realtime.run_transaction"), "ms"),
            "server.queue_wait_s.p50": (percentile(waits, 50), "s"),
            "server.queue_wait_s.p95": (percentile(waits, 95), "s"),
            "server.rejected_frac": (outcome_frac("rejected"), "frac"),
            "server.shed_frac": (outcome_frac("shed"), "frac"),
            "server.missed_frac": (outcome_frac("missed"), "frac"),
            "trace.overhead_frac": (
                _ratio(percentile(traced.scaled, 50), plain_p50) - 1.0,
                "frac",
            ),
        }
    )
    return metrics
