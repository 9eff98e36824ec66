"""Wall-clock benchmark of the time-constrained query processor.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 20 --trace 0

Runs one workload (see ``perfbench/workloads.py``) on the code in ``src/``,
single-threaded with the default engine switches, and prints each metric
with its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of several
builds), wall-clock per op (p50, p95), ops per second, peak RSS once the
first ``min_ops`` ops are done, and what the quota bought: blocks per query
and the share of ops answered by their deadline. Times are scaled to a
reference host speed by a calibration kernel timed between ops (see
:class:`Phase`); the unscaled wall-clock times are printed as a comment.
The two charged metrics cover the first ``min_ops`` ops, which every run
completes, so they repeat exactly for a seed. Relative error and overspend
risk are printed as comments; their spread across seeds is too wide to
bound, so only the traced run reports them.

``--trace 1`` runs the same ops twice from a fresh build: untraced for half
of ``--seconds``, then traced with span wrappers around each layer's public
entry points (``perfbench/tracer.py``). It reports the per-layer metrics,
writes the spans to ``.perfbench/spans-<workload>.jsonl.gz`` and fails when the
two passes disagree on any charged result.

The command exits 1 when an output check fails and 2 when it cannot run:
no ``src/repro`` beside it, or a ``REPRO_*`` switch variable set.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import charged_metrics, layer_metrics, percentile, snapshot  # noqa: E402


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def metadata(seed: int) -> dict:
    from repro.core import switches

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "switches": {
            state.name: {"value": state.value, "source": state.source}
            for state in switches.describe()
        },
    }


CALIBRATION_REF_MS = 1.25
"""Reference time of one :func:`calibration_kernel` call, in ms (about its
median on a 2-core x86-64 VM with Python 3.11 and NumPy 2.4)."""


def calibration_kernel() -> None:
    """Fixed work shaped like the program's (an RNG permutation, tuple rows,
    sorting, dict updates, small NumPy vectors), timed between ops to track
    the host's speed. It calls nothing in ``repro``."""
    rng = np.random.default_rng(7)
    perm = rng.permutation(4_000)
    rows = [(int(perm[i]) % 89, float(i) * 0.5, str(i)) for i in range(600)]
    rows.sort(key=lambda row: (row[0], -row[1]))
    totals: dict[int, float] = {}
    for key, value, _label in rows:
        totals[key] = totals.get(key, 0.0) + value
    coefficients = np.asarray([0.5, 0.25, 1.0])
    acc = 0.0
    for i in range(60):
        acc += float(np.asarray([1.0, 2.0, float(i)]) @ coefficients)
    int((np.asarray([row[1] for row in rows]) < acc).sum())


def calibrate() -> float:
    """Median ms of three calibration kernels."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        calibration_kernel()
        samples.append((time.perf_counter() - start) * 1e3)
    return sorted(samples)[1]


class Phase:
    """Per-op wall times and records of one measured pass over a workload.

    A shared host's speed drifts by 10-20 % over seconds. So every
    :attr:`slice_s` of op time the calibration kernel is timed, and each
    op's wall time is also kept scaled to the reference speed: multiplied by
    :data:`CALIBRATION_REF_MS` over the mean of the calibrations before and
    after its slice. The timing metrics use the scaled times.
    """

    slice_s = 0.1

    def __init__(self) -> None:
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.records: list = []
        self.busy = 0.0
        self.failed = 0
        self.rss_mb = 0.0
        """Peak RSS when the ``min_ops`` window completed."""
        self._pending: list[float] = []
        self._calibration = calibrate()

    def _rescale(self) -> None:
        now = calibrate()
        factor = 2 * CALIBRATION_REF_MS / (self._calibration + now)
        self.scaled += [t * factor for t in self._pending]
        self._pending, self._calibration = [], now

    def run(self, workload, state, seconds: float, min_ops: int, max_ops: int | None = None) -> None:
        from workloads import OpRecord

        while (
            self.busy < seconds
            or len(self.records) < min_ops
            or len(self.records) % workload.round_ops
        ) and (max_ops is None or len(self.records) < max_ops):
            start = time.perf_counter()
            try:
                ops = workload.step(state)
            except Exception as exc:  # a raising op is a failed op, not a crash
                if not self.failed:
                    traceback.print_exc(file=sys.stderr)
                self.busy += time.perf_counter() - start
                self.failed += 1
                self.records.append(OpRecord(hit=False, problems=[f"raised {exc!r}"]))
                continue
            for elapsed, record in ops:
                self.busy += elapsed
                self.times.append(elapsed)
                self._pending.append(elapsed)
                self.records.append(record)
                if record.problems:
                    if not self.failed:
                        print("check failed: " + "; ".join(record.problems), file=sys.stderr)
                    self.failed += 1
            if sum(self._pending) >= self.slice_s:
                self._rescale()
            if not self.rss_mb and len(self.records) >= min_ops:
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self._pending:
            self._rescale()


def fresh_state(workload, repeats: int):
    """Build ``repeats`` times; keep the last state. Returns it and each
    build's time in seconds, scaled to the reference speed like op times."""
    from repro import caches

    caches.clear()
    setups, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        state = workload.build()
        elapsed = time.perf_counter() - start
        setups.append(elapsed * 2 * CALIBRATION_REF_MS / (before + calibrate()))
    workload.prepare(state)
    caches.clear()
    if workload.warm_up:
        workload.warmup(state)
    return state, setups


def untraced_run(workload, seconds: float) -> tuple[dict, Phase]:
    state, setups = fresh_state(workload, workload.setup_repeats)
    phase = Phase()
    phase.run(workload, state, seconds, workload.min_ops)
    scaled_ms = [t * 1e3 for t in phase.scaled]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p50": (percentile(scaled_ms, 50), "ms"),
        "op_ms_p95": (percentile(scaled_ms, 95), "ms"),
        "ops_per_s": (1e3 * len(scaled_ms) / sum(scaled_ms), "1/s"),
        "rss_peak_mb": (phase.rss_mb, "MB"),
    }
    charged = charged_metrics(phase.records[: workload.min_ops])
    metrics["blocks_per_query"] = charged.pop("blocks_per_query")
    metrics["deadline_hit_frac"] = charged.pop("deadline_hit_frac")
    times_ms = [t * 1e3 for t in phase.times]
    print(
        f"# {len(scaled_ms)} timed ops, {phase.busy:.2f} s busy, "
        f"{sum(t > metrics['op_ms_p95'][0] for t in scaled_ms)} beyond p95; "
        f"unscaled wall ms p50 {percentile(times_ms, 50):.4g}, p95 {percentile(times_ms, 95):.4g}; "
        f"charged metrics over the first {workload.min_ops} ops; "
        f"failed_frac {phase.failed / len(phase.records):g}"
    )
    for name, (value, unit) in charged.items():
        print(f"# {name} = {value:.6g} {unit} (traced run reports it)")
    return metrics, phase


def traced_run(workload, seconds: float) -> tuple[dict, Phase]:
    import tracer as tracing

    state, _ = fresh_state(workload, 1)
    plain = Phase()
    plain.run(workload, state, seconds / 2, 1)
    state = None  # free the first pass's data before building the second
    state, _ = fresh_state(workload, 1)
    before = snapshot(workload, state)
    tracer = state["tracer"] = tracing.install()
    traced = Phase()
    try:
        traced.run(workload, state, 0.0, len(plain.records), len(plain.records))
    finally:
        tracer.uninstall()
    after = snapshot(workload, state)
    if [r.charged() for r in traced.records] != [r.charged() for r in plain.records]:
        print("check failed: tracing changed a charged result", file=sys.stderr)
        traced.failed += 1
    metrics = layer_metrics(workload, state, tracer, traced, plain, before, after)
    tracer.write(ROOT / ".perfbench" / f"spans-{workload.name}.jsonl.gz")
    return metrics, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny data and few ops (harness self-test)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.switches import SWITCHES

    pinned = sorted(s.env for s in SWITCHES if s.env in os.environ)
    if pinned:
        print(
            f"refusing to run with {', '.join(pinned)} set: the benchmark "
            "measures the default switches",
            file=sys.stderr,
        )
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    if args.tiny:
        workload.min_ops = 200 if workload.name == "server-overload" else 20
        workload.round_ops = min(workload.round_ops, workload.min_ops)
        workload.setup_repeats = 2
    print("# meta " + json.dumps(metadata(args.seed)))

    run = traced_run if args.trace else untraced_run
    metrics, phase = run(workload, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": phase.failed == 0,
        "attempted": len(phase.records),
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
