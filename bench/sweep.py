"""Scaling sweep: how one run's cost grows with n and the horizon H.

Ungated and separate from ``run.py``.  For each n and r_sr it generates one
certified ``estable`` lasso and runs it to H = deadline + D + 2 in full mode
with the invariant monitor on and off; it also runs the largest n in
``bounded:2D+1`` mode to a long horizon, monitored and not, which keeps the
monitor's superlinear growth in H visible.  Each point prints the wall
time of an untraced run, its cost per process-round, and per-layer self
times from a second, traced run of the same point.  n stops at 16, the
largest process id the edge-mask layout admits.

    python3 bench/sweep.py                       # n 8,12,16; r_sr 10,20,30; H=200 long runs
    python3 bench/sweep.py --n 6 --r-sr 6 --long-horizon 30
"""

from __future__ import annotations

import argparse
import gc
import json
import random
from time import perf_counter

import run as bench
import tracer as tracing
import workloads as wl

LAYERS = [
    "harness.monitor",
    "harness.engine",
    "approximation.snapshot",
    "approximation.receive_and_merge",
    "approximation.make_message",
    "approximation.roots_of_partial",
    "consensus.core_step",
    "consensus.confirmed_roots",
    "graphs.root_components",
]


def execute(rc, shape, item, mode, horizon, monitor, tracer=None):
    wl.reset_program_caches(rc)
    gc.collect()
    if tracer:
        tracer.install(rc)
    try:
        start = perf_counter()
        _, report = wl.execute_run(rc, shape, item, mode, horizon, monitor)
        elapsed = perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    return elapsed, report.all_ok


def points(args):
    for n in args.n:
        for r_sr in args.r_sr:
            yield n, r_sr, "full", None
    n = max(args.n)
    yield n, args.r_sr[0], f"bounded:{2 * args.D + 1}", args.long_horizon


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--D", type=int, default=3)
    parser.add_argument("--n", type=lambda s: [int(v) for v in s.split(",")], default=[8, 12, 16])
    parser.add_argument("--r-sr", type=lambda s: [int(v) for v in s.split(",")], default=[10, 20, 30])
    parser.add_argument("--long-horizon", type=int, default=200)
    args = parser.parse_args(argv)
    rc = bench.load_program()
    short = [name.split(".", 1)[1] for name in LAYERS]
    print(f"{'n':>3} {'r_sr':>4} {'H':>4} {'mode':>10} {'mon':>3} {'wall_s':>8} {'us/pr':>7}  "
          + " ".join(f"{s[:10]:>10}" for s in short))
    rows, failed = [], 0
    for n, r_sr, mode, long_horizon in points(args):
        params = rc.adversary.AdversaryParams(n=n, D=args.D, seed=args.seed, r_sr_target=r_sr)
        lasso, cert = rc.adversary.generate_estable(params)
        rng = random.Random(f"bench-sweep:{args.seed}:{n}:{r_sr}")
        item = (lasso, cert, tuple(rng.randint(0, 99) for _ in range(n)))
        horizon = long_horizon or cert.deadline + args.D + 2
        shape = wl.RunShape(n, args.D, r_sr, pool=1, bounded_horizon=horizon)
        for monitor in (True, False):
            elapsed, ok = execute(rc, shape, item, mode, horizon, monitor)
            tracer = tracing.Tracer()
            execute(rc, shape, item, mode, horizon, monitor, tracer)
            self_s = {layer: tracer.self_ns[layer] / 1e9 for layer in LAYERS}
            failed += not ok
            rows.append({"n": n, "D": args.D, "r_sr": r_sr, "H": horizon, "mode": mode,
                         "monitor": monitor, "wall_s": elapsed, "oracles_ok": ok, "self_s": self_s})
            print(f"{n:>3} {r_sr:>4} {horizon:>4} {mode:>10} {'on' if monitor else 'off':>3} "
                  f"{elapsed:>8.3f} {elapsed / (n * horizon) * 1e6:>7.1f}  "
                  + " ".join(f"{self_s[layer]:>10.4f}" for layer in LAYERS), flush=True)
    print(json.dumps({"points": rows, "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
