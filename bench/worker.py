"""Run one benchmark workload in this process; print its measurements as one JSON line.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE INPUT_DIR TRACE_FILE

The workload's seeded inputs are written to INPUT_DIR.  Each operation calls
``bellgame.cli.main(argv)`` in-process with its report captured, and the
report's ``results`` are checked against the reference answer.  After an
untimed warm-up, passes repeat until SECONDS have passed, each over the
operations of the next of the workload's pass plans, with the machine's
speed sampled throughout (``speed.py``).  ``wall_s`` is the median over
passes of the pass time at reference speed; ``raw_wall_s`` is the median
measured pass time.  With TRACE 1 every pass runs the first plan, so that
counts repeat exactly: untraced passes fill the first half of SECONDS and
traced passes the second, both timed at reference speed; the calibration
kernel's samples fall inside the traced spans and add about 2% to their
times.  The traced passes give the per-layer metrics, the
spans of the first go to TRACE_FILE, and their ``results`` must equal the
untraced ones byte for byte.  Every plan runs at least once and so does a
traced pass, so a run lasts at most SECONDS plus one pass of each plan and
one traced pass.
"""

from __future__ import annotations

import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from inputs import WARMUP_FLAGS, Op, build_workload  # noqa: E402
from speed import SpeedSampler, speed_factor  # noqa: E402
from tracer import Tracer, layer_metrics, median_metrics  # noqa: E402

from bellgame import cli  # noqa: E402


def run_op(op: Op, argv: tuple[str, ...] | None = None) -> tuple[float, list[str], str | None]:
    """Time one CLI call; return (seconds, failed checks, serialized results)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv or op.argv))
    except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - start, [f"raised {exc!r}"], None
    elapsed = time.perf_counter() - start
    try:
        results = json.loads(out.getvalue())["results"]
        fails = op.check(rc, results)
    except (ValueError, KeyError, TypeError) as exc:
        return elapsed, [f"unreadable report: {exc!r}"], None
    return elapsed, fails, json.dumps(results)


def warm_up(ops: list[Op]) -> None:
    """One untimed, light call of each kind of operation in ``ops``."""
    seen = set()
    for op in ops:
        if op.layer in seen or op.layer not in WARMUP_FLAGS:
            continue
        seen.add(op.layer)
        run_op(op, op.argv + WARMUP_FLAGS[op.layer])


class Pass:
    """Times and outcomes of one pass over the operations.

    With a sampler, ``raw_s`` is the pass time less the calibration kernel's
    time and ``scaled_s`` is that time at the reference machine speed.
    """

    def __init__(self, ops: list[Op], tracer: Tracer | None = None,
                 sampler: SpeedSampler | None = None):
        self.seconds: list[float] = []
        self.results: list[str | None] = []
        self.failures: list[str] = []
        self.failed = 0
        if sampler is not None:
            sampler.sample()
            n0, k0 = sampler.mark()
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is None:
                elapsed, fails, results = run_op(op)
            else:
                with tracer.span(f"cli.{op.layer}"):
                    elapsed, fails, results = run_op(op)
            self.failed += bool(fails)
            self.failures += [f"op {i} ({' '.join(op.argv)}): {f}" for f in fails]
            self.seconds.append(elapsed)
            self.results.append(results)
        self.raw_s = time.perf_counter() - start
        if sampler is not None:
            n1, k1 = sampler.mark()
            sampler.sample()
            self.raw_s -= k1 - k0
            # the explicit samples on either side of the pass are included
            self.speed = speed_factor(sampler.samples[n0 - 1 : n1 + 1])
            self.scaled_s = self.raw_s * self.speed


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, input_dir = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), int(trace)
    plans = build_workload(workload, seed, Path(input_dir))
    if trace:
        plans = plans[:1]
    warm_up(plans[0])

    passes: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    sampler = SpeedSampler()
    start = time.perf_counter()
    untraced_s = seconds / 2 if trace else seconds
    # every plan runs at least once, so that the median covers all of them
    while len(passes) < len(plans) or time.perf_counter() - start < untraced_s:
        with sampler:
            passes.append(Pass(plans[len(passes) % len(plans)], sampler=sampler))
    while trace and (not traced or time.perf_counter() - start < seconds):
        tracer = Tracer()
        with sampler, tracer.installed():
            traced.append(Pass(plans[0], tracer, sampler))
        layers.append(layer_metrics(tracer.spans))
        if len(traced) == 1:
            tracer.write(Path(argv[5]))
        for i, (a, b) in enumerate(zip(passes[0].results, traced[-1].results)):
            if a is not None and b is not None and a != b:
                traced[-1].failed += 1
                traced[-1].failures.append(f"op {i} ({' '.join(plans[0][i].argv)}): traced results differ")

    done = passes + traced
    out = {
        "attempted": sum(len(p.results) for p in done),
        "failed": sum(p.failed for p in done),
        "failures": [f for p in done for f in p.failures],
        "passes": len(passes),
        "wall_s": statistics.median(p.scaled_s for p in passes),
        "raw_wall_s": statistics.median(p.raw_s for p in passes),
        "speed_factor": statistics.median(p.speed for p in passes),
        "kernel_samples": len(sampler.samples),
        "pass_raw_s": [p.raw_s for p in passes],
        "pass_scaled_s": [p.scaled_s for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = statistics.median(
            p.scaled_s for p in traced
        ) - statistics.median(p.scaled_s for p in passes)
        out["layers"] = metrics
        out["missing_boundaries"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
