"""Layered, digest-checked benchmark of the rootcons simulator.

Usage, from the repository root::

    python3 bench/run.py --workload run-full --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each

Workloads (each a closed loop: one caller runs its units back to back in
one process; ``all`` starts a fresh interpreter per workload, because the
package's memo caches are process-global):

* ``run-full`` -- six certified ``estable`` lassos, n=16, D=5, r_sr=20, with
  roots of sizes 2, 4, 7, 9, 12 and 14, run to H = deadline + D + 2 = 37 in
  full mode with the invariant monitor and snapshots on, as ``rootcons run``
  does.  Unit: one execution.
* ``run-bounded-long`` -- the same lassos and inputs in ``bounded:11``
  (= 2D+1) mode to H=150, monitor and snapshots off.  Unit: one execution.
* ``fuzz-altestable`` -- ``fuzz_campaign(adversary="altestable")``, 60
  trials for each n in 2..8, caches carried across.  Unit: one trial.
* ``certify`` -- generate and check 200 lassos, n 12..16, D 3..5, r_sr
  28..32 in a fixed pattern, no protocol run.  Unit: one lasso.

End-to-end metrics (``--trace 0``), all timed in host-normalised seconds
(below): ``setup_s`` (import plus input building, median of three fresh
set-ups), ``lassos_per_s`` (lassos executed, trialled or certified per
timed second), ``proc_rounds_per_s``
(sum of n*H over the units per timed second; for certify H is the horizon
the checkers scan), ``unit_ms.p50`` and ``peak_rss_mb``.  The human report
adds ``unit_ms.p95`` where a run has at least 200 units, and
``failed_share``.  A unit fails on an oracle failure, an engine invariant
error, an exception or a checker rejection; a differing repeat, a
cross-mode mismatch or a digest mismatch counts one more failure each.

The timed part runs passes over the seed's input pool until ``--seconds``
have passed, and at least two.  A unit's time is the median of its runs'
host-normalised times (``hostspeed.py``): a short fixed probe, which never
calls the program, is timed between units, and each unit's wall-clock time
is scaled by how much slower than nominal the probes around it ran.  Shared
hosts drift in speed by half or more for minutes at a time, which no number
of passes averages away.  The throughputs divide by the sum of the units'
times; the human report also prints that sum in wall-clock seconds.

Correctness: the SHA-256 of the first pass's decision events and
certificates (for fuzz: campaign summaries plus each trial's parameters,
certified deadline, verdict and decision events) must match ``digests.json``
when a digest is recorded for the seed.  run-full and run-bounded-long
share their pool, so their digests are equal, and each re-runs its lassos
in the other history mode after the timed part and requires the same
decision events.  Seed 1001 is held out: it is not used for recorded
baselines, and every claim must hold there too.

``--trace 1`` reports the per-layer metrics instead: self time and calls
per layer over one traced set-up plus one traced pass, measured by
wrappers from ``tracer.py``, and ``trace.overhead_pct``, how much longer
traced passes take than untraced ones (two each, alternated).  Spans go to
``.bench_out/<workload>-seed<seed>.spans.jsonl``.  A layer the workload
never calls reads 0 and is listed as absent.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
import tracer as tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODULES = ("graphs", "approximation", "consensus", "adversary", "harness")
SETUP_REPEATS = 3
MIN_PASSES = 2  # the timed part repeats passes until --seconds, at least this many
P95_MIN_UNITS = 200

END_TO_END_UNITS = {
    "setup_s": "s",
    "lassos_per_s": "1/s",
    "proc_rounds_per_s": "1/s",
    "unit_ms.p50": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def load_program() -> SimpleNamespace:
    """Import ``rootcons`` afresh from this checkout's ``src``, never from
    an installed copy."""
    init = SRC / "rootcons" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no rootcons sources at {init}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "rootcons" or m.startswith("rootcons.")]:
        del sys.modules[name]
    package = importlib.import_module("rootcons")
    if Path(package.__file__).resolve() != init.resolve():
        raise BenchError(f"imported rootcons from {package.__file__}, not {init}")
    return SimpleNamespace(**{m: importlib.import_module(f"rootcons.{m}") for m in MODULES})


def set_up(workload, seed: int, repeats: int, tracer=None):
    """Import and build the pool ``repeats`` times; returns the last program,
    its pool and the median set-up time.  A set-up's time is the sum of its
    steps -- the import and each generator or checker call of the build --
    timed host-normalised on a ``HostClock``."""
    times = []
    for _ in range(repeats):
        gc.collect()
        clock = hostspeed.HostClock()
        rc = clock.time(load_program)
        if tracer:
            tracer.install(rc)
        try:
            pool = workload.build(rc, seed, clock)
        finally:
            if tracer:
                tracer.uninstall()
        times.append(sum(norm for _, norm in clock.settle()))
    return rc, pool, statistics.median(times)


def run_pass(rc, workload, pool: list, tracer=None) -> list:
    """One pass over the pool; each result carries its units' wall-clock and
    host-normalised seconds."""
    unit_span = (lambda fn: tracer.span("bench.unit", fn)) if tracer else None
    clock = hostspeed.HostClock()
    results = []
    for item in pool:
        entries = wl.reset_program_caches(rc)
        if tracer:
            tracer.caches_reset(entries)
        gc.collect()
        results.append(workload.run_item(rc, item, clock, unit_span))
    entries = wl.reset_program_caches(rc)
    if tracer:
        tracer.caches_reset(entries)
    timings = iter(clock.settle())
    for res in results:
        pairs = [next(timings) for _ in range(res.units)]
        res.wall_s = [wall for wall, _ in pairs]
        res.norm_s = [norm for _, norm in pairs]
    return results


def digest_of(records: list) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(workload: str, seed: int, scale: str):
    if scale != "default":
        return None
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


class Outcome:
    """Attempted checks and failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        self.failures += failures


def unit_s(passes: list, kind: str = "norm_s") -> list:
    """Each unit's median time over the passes, in pool order; ``kind`` is
    ``norm_s`` (host-normalised) or ``wall_s``."""
    return [
        statistics.median(runs)
        for item_runs in zip(*passes)
        for runs in zip(*(getattr(res, kind) for res in item_runs))
    ]


def check_outputs(rc, workload, pool, passes, args, outcome: Outcome) -> str:
    """Repeat, cross-mode and digest checks; returns a digest status line."""
    first = [res.record for res in passes[0]]
    for later in passes[1:]:
        for i, res in enumerate(later):
            if res.record != first[i]:
                outcome.failures.append(f"item {i}: outputs differ from the first pass")
    outcome.add(*workload.cross_check(rc, pool, first))
    digest = digest_of(first)
    expected = args.expect_digest or recorded_digest(args.workload, args.seed, args.scale)
    if expected is None:
        return f"{digest} (none recorded for seed {args.seed} at scale {args.scale})"
    outcome.attempted += 1
    if digest != expected:
        outcome.failures.append(f"digest {digest} != expected {expected}")
        return f"{digest} MISMATCH, expected {expected}"
    return f"{digest} matches the recorded digest"


def measure(args) -> dict:
    workload = wl.make_workload(args.workload, args.scale)
    rc, pool, setup_s = set_up(workload, args.seed, SETUP_REPEATS)
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
        passes.append(run_pass(rc, workload, pool))
    wall_s = perf_counter() - start
    repeats = len(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unit_ms = [t * 1e3 for t in unit_s(passes)]
    total_s = sum(unit_ms) / 1e3
    wall_total_s = sum(unit_s(passes, "wall_s"))
    results = [res for one in passes for res in one]
    outcome = Outcome()
    outcome.add(len(unit_ms) * repeats, [f for res in results for f in res.failures])
    digest_status = check_outputs(rc, workload, pool, passes, args, outcome)
    metrics = {
        "setup_s": setup_s,
        "lassos_per_s": len(unit_ms) / total_s,
        "proc_rounds_per_s": sum(res.work for res in passes[0]) / total_s,
        "unit_ms.p50": statistics.median(unit_ms),
        "peak_rss_mb": peak_rss_mb,
    }
    p95 = statistics.quantiles(unit_ms, n=20)[18] if len(unit_ms) >= P95_MIN_UNITS else None
    lines = [
        f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
        f"units {len(unit_ms)} x {repeats} passes  timed part {wall_s:.3f} s",
        f"  sum of per-unit medians: {total_s:.3f} s host-normalised, {wall_total_s:.3f} s wall-clock"
        f" (host at {wall_total_s / total_s:.2f}x the nominal probe time)",
    ]
    for name, value in metrics.items():
        note = f"  (median of {SETUP_REPEATS} set-ups)" if name == "setup_s" else ""
        note = f"  (n={len(unit_ms)})" if name == "unit_ms.p50" else note
        lines.append(f"  {name:<20} {value:.6g} {END_TO_END_UNITS[name]}{note}")
    lines.append(
        f"  {'unit_ms.p95':<20} " + (f"{p95:.6g} ms  (n={len(unit_ms)})" if p95 is not None
                                     else f"absent: {len(unit_ms)} units < {P95_MIN_UNITS}")
    )
    return {
        "lines": lines,
        "metrics": {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
        "outcome": outcome,
        "digest": digest_status,
    }


def measure_traced(args) -> dict:
    """Per-layer figures from one traced set-up and one traced pass; the
    overhead compares two traced and two untraced passes, alternated."""
    workload = wl.make_workload(args.workload, args.scale)
    tracer = tracing.Tracer()
    rc, pool, _ = set_up(workload, args.seed, 1, tracer)
    untraced, traced = [], []
    for recording in (tracer, tracing.Tracer()):
        untraced.append(run_pass(rc, workload, pool))
        recording.install(rc)
        try:
            traced.append(run_pass(rc, workload, pool, tracer=recording))
        finally:
            recording.uninstall()
    untraced_s, traced_s = sum(unit_s(untraced)), sum(unit_s(traced))
    outcome = Outcome()
    results = [res for one in untraced + traced for res in one]
    outcome.add(sum(res.units for res in results), [f for res in results for f in res.failures])
    digest_status = check_outputs(rc, workload, pool, untraced + traced, args, outcome)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = ((traced_s - untraced_s) / untraced_s * 100, "%")
    spans_path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "scale": args.scale})
    absent = tracer.absent_metrics()
    lines = [
        f"workload {args.workload}  seed {args.seed}  scale {args.scale}  traced: one set-up + one pass",
        f"  untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s (host-normalised), "
        f"overhead {metrics['trace.overhead_pct'][0]:.1f} %",
    ]
    for name, (value, unit) in metrics.items():
        shown = "absent (layer not called)" if name in absent else f"{value:.6g} {unit}"
        lines.append(f"  {name:<45} {shown}")
    lines.append(f"  spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}"
                 f" ({tracer.dropped_spans} beyond the cap aggregated only)")
    return {"lines": lines, "metrics": metrics, "outcome": outcome, "digest": digest_status}


def run_one(args) -> int:
    report = measure_traced(args) if args.trace else measure(args)
    outcome = report["outcome"]
    failed = min(len(outcome.failures), outcome.attempted)
    lines = report["lines"]
    lines.append(f"  {'failed_share':<20} {failed / outcome.attempted:.6g}  ({failed}/{outcome.attempted})")
    lines.append(f"  digest {report['digest']}")
    for failure in outcome.failures[:5]:
        print(f"failure: {failure[:500]}", file=sys.stderr)
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; prints their reports and one
    combined JSON line with ``<workload>.<metric>`` keys."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if not out:
            raise BenchError(f"workload {name} printed nothing (exit {proc.returncode})")
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=wl.SCALES, default="default",
                        help="input sizes; tiny is for the benchmark's self-tests")
    parser.add_argument("--expect-digest", help="digest to require instead of the recorded one")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
