"""The benchmark's workloads: seeded input pools and the units run over them.

A workload builds a pool of items from its seed during set-up.  The timed
part runs passes over the pool; each item is one or more units (an
execution, a fuzz trial, a certified lasso) timed one by one on the pass's
``hostspeed.HostClock``; set-up times its generator and checker calls on a
clock of its own.  Before every item, and after every lasso set-up
generates, the package's process-global memo caches are emptied: each item
starts as a fresh ``rootcons`` process would, a pass costs the same
whichever pass it is, and set-up does not raise the process's peak memory
above what the items need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SCALES = ("default", "tiny")


@dataclass
class ItemResult:
    units: int  # units the item timed on the clock
    work: int  # sum of n * H over the item's units
    record: object  # JSON-able outputs: digest input and repeat check
    failures: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)  # per unit, set once the pass settles
    norm_s: list = field(default_factory=list)  # per unit, host-normalised


def reset_program_caches(rc) -> int:
    """Empty every process-global memo in the package; returns how many
    entries the SCC cache held before."""
    scc = getattr(rc.graphs, "strongly_connected_components", None)
    entries = scc.cache_info().currsize if hasattr(scc, "cache_info") else 0
    for module in (rc.graphs, rc.approximation, rc.consensus, rc.adversary, rc.harness):
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif name.endswith("_cache") and isinstance(obj, dict):
                obj.clear()
    return entries


def _spanned(unit, unit_span):
    return unit_span(unit) if unit_span else unit


# --- run-full / run-bounded-long --------------------------------------------


@dataclass(frozen=True)
class RunShape:
    n: int
    D: int
    r_sr: int
    pool: int  # lassos, each with its own root size
    bounded_horizon: int


RUN_SHAPES = {
    "default": RunShape(n=16, D=5, r_sr=20, pool=6, bounded_horizon=150),
    "tiny": RunShape(n=6, D=2, r_sr=8, pool=3, bounded_horizon=60),
}
CANDIDATES_PER_LASSO = 10  # generator draws per pool lasso at set-up


def root_sizes(n: int, count: int) -> list:
    """``count`` distinct root sizes spread evenly over 1..n-1."""
    return [round((i + 0.5) * (n - 1) / count + 0.5) for i in range(count)]


def build_run_pool(rc, seed: int, scale: str, clock) -> list:
    """Certified ``estable`` lassos whose roots have the sizes ``root_sizes``.

    Run cost grows with the root's size, so drawing sizes freely would make
    a pass's cost depend on the seed; fixing the sizes keeps the pass's cost
    the same for every seed while the graphs themselves vary.  Set-up draws
    ``CANDIDATES_PER_LASSO`` generator candidates per lasso, so it costs about
    the same for every seed (more only while a size is still missing, which
    is rare), and keeps the first candidate of each size.  Returns (lasso,
    certificate, inputs) per size, smallest roots first.
    """
    shape = RUN_SHAPES[scale]
    wanted = root_sizes(shape.n, shape.pool)
    chosen = {}
    rng = random.Random(f"bench-runs:{seed}")
    draws = 0
    while draws < CANDIDATES_PER_LASSO * shape.pool or len(chosen) < len(wanted):
        draws += 1
        params = rc.adversary.AdversaryParams(
            n=shape.n, D=shape.D, seed=rng.getrandbits(48), r_sr_target=shape.r_sr
        )
        lasso, generated = clock.time(lambda: rc.adversary.generate_estable(params))
        reset_program_caches(rc)
        if len(generated.root) in wanted:
            chosen.setdefault(len(generated.root), (params, lasso))
    pool = []
    for size in wanted:
        params, lasso = chosen[size]
        cert = clock.time(lambda: rc.adversary.check_estable(lasso, shape.D))
        reset_program_caches(rc)
        if cert is None:
            raise RuntimeError(f"generated lasso failed its checker ({params})")
        pool.append((lasso, cert, tuple(rng.randint(0, 99) for _ in range(shape.n))))
    return pool


def execute_run(rc, shape: RunShape, item, mode: str, horizon: int, monitor: bool):
    """Run one (lasso, certificate, inputs) item; returns (trace, oracle report)."""
    lasso, cert, inputs = item
    cfg = rc.harness.RunConfig(
        shape.n, shape.D, inputs, lasso, horizon, mode=mode, check_invariants=monitor
    )
    trace = rc.harness.run_execution(cfg, keep_snapshots=monitor)
    return trace, rc.harness.oracle_check(trace, cert.deadline)


class RunWorkload:
    """One execution per item; the unit is run_execution plus oracle_check.

    run-full runs to the certified deadline + D + 2 with the invariant
    monitor and snapshots on, as ``rootcons run`` does; run-bounded-long runs
    the same lassos and inputs in ``bounded:2D+1`` mode to a long horizon
    with both off.
    """

    def __init__(self, name: str, scale: str):
        self.name = name
        self.scale = scale
        self.shape = RUN_SHAPES[scale]

    def variant(self, name: str, cert) -> tuple:
        """(mode, horizon, monitor and snapshots on) of a run workload."""
        if name == "run-full":
            return "full", cert.deadline + self.shape.D + 2, True
        return f"bounded:{2 * self.shape.D + 1}", self.shape.bounded_horizon, False

    def build(self, rc, seed: int, clock) -> list:
        return build_run_pool(rc, seed, self.scale, clock)

    def run_item(self, rc, item, clock, unit_span=None) -> ItemResult:
        lasso, cert, _ = item
        mode, horizon, monitor = self.variant(self.name, cert)
        outcome = {}

        def unit():
            outcome["result"] = execute_run(rc, self.shape, item, mode, horizon, monitor)

        failures = []
        try:
            clock.time(_spanned(unit, unit_span))
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
        record = {"certificate": cert.to_json_dict(), "decisions": None}
        if "result" in outcome:
            trace, report = outcome["result"]
            record["decisions"] = [list(e) for e in trace.decision_events()]
            if not report.all_ok:
                failures.append(f"oracle: {report.to_json_dict()}")
        return ItemResult(1, self.shape.n * horizon, record, failures)

    def cross_check(self, rc, pool: list, records: list) -> tuple:
        """Re-run every lasso in the other history mode, unmonitored, up to the
        certified deadline; decision events must be identical.  Returns
        (checks made, failures)."""
        failures = []
        for item, record in zip(pool, records):
            cert = item[1]
            other = "run-bounded-long" if self.name == "run-full" else "run-full"
            mode = self.variant(other, cert)[0]
            trace, _ = execute_run(rc, self.shape, item, mode, cert.deadline + self.shape.D + 2, False)
            events = [list(e) for e in trace.decision_events()]
            if events != record["decisions"]:
                failures.append(f"{mode} decisions {events} != {self.name} {record['decisions']}")
        return len(pool), failures


# --- fuzz-altestable ----------------------------------------------------------


FUZZ_SHAPES = {"default": ((2, 8), 60), "tiny": ((2, 4), 4)}  # (n range, trials per n)


class FuzzWorkload:
    """``fuzz_campaign(adversary="altestable")`` over n = 2..8; the units are
    its trials.

    Trial cost grows steeply with n, and a campaign draws n at random, so
    the sampled mix of n would move the figures more than most code changes.
    The one pool item is therefore one campaign per n, with the same number
    of trials each, run back to back so the caches grow across all of them
    as they do across one long campaign.
    """

    name = "fuzz-altestable"

    def __init__(self, scale: str):
        self.n_range, self.trials = FUZZ_SHAPES[scale]

    def build(self, rc, seed: int, clock) -> list:
        rng = random.Random(f"bench-fuzz:{seed}")
        n_lo, n_hi = self.n_range
        return [tuple((n, rng.getrandbits(32)) for n in range(n_lo, n_hi + 1))]

    def run_item(self, rc, campaigns, clock, unit_span=None) -> ItemResult:
        # Trials run inside fuzz_campaign: timing each one, and keeping its
        # decision events for the digest, means wrapping the functions the
        # campaign calls per trial.
        harness = rc.harness
        run_case, run_trial = harness._run_fuzz_case, harness.fuzz_trial
        timed_case = _spanned(run_case, unit_span)
        trials, summaries = [], []
        events = {}

        def trial_with_events(*args, **kwargs):
            trace, report, cert = run_trial(*args, **kwargs)
            events["last"] = trace.decision_events()
            return trace, report, cert

        def case(args):
            trial = clock.time(lambda: timed_case(args))
            trials.append((trial, events.pop("last", None)))
            return trial

        harness._run_fuzz_case, harness.fuzz_trial = case, trial_with_events
        try:
            for n, campaign_seed in campaigns:
                summaries.append(harness.fuzz_campaign(
                    trials=self.trials, seed=campaign_seed, adversary="altestable", n_range=(n, n)
                ))
        finally:
            harness._run_fuzz_case, harness.fuzz_trial = run_case, run_trial
        work = sum(t.n * (t.deadline + t.D + 2) for t, _ in trials if t.ok)
        failures = [
            f"n={f.n} trial {f.index} (seed {f.seed}): {f.detail}"
            for summary in summaries
            for f in summary.failures
        ]
        record = {
            "summaries": [summary.to_json_dict() for summary in summaries],
            "trials": [[t.seed, t.n, t.D, t.deadline, t.ok, decided] for t, decided in trials],
        }
        return ItemResult(len(trials), work, record, failures)

    def cross_check(self, rc, pool: list, records: list) -> tuple:
        return 0, []


# --- certify --------------------------------------------------------------------


ROOT_BINS = 5  # root sizes 1..n-1 split into this many equal ranges

CERTIFY_SHAPES = {
    # (lassos, n range, D range, r_sr range)
    "default": (200, (12, 16), (3, 5), (28, 32)),
    "tiny": (6, (6, 8), (2, 3), (8, 10)),
}


def _cycle(i: int, span: tuple, period: int) -> int:
    lo, hi = span
    return lo + (i // period) % (hi - lo + 1)


class CertifyWorkload:
    """Generate-and-check, one lasso per item; no protocol run.

    Even items: ``generate_estable``, then ``check_estable`` (which must
    reproduce the generator's certificate) and ``check_alt_estable``.  Odd
    items: ``generate_alt_estable``, then ``check_alt_estable`` (no later than
    the planted certificate) and ``check_mad(D, D, D)``.  ``n``, ``D`` and
    ``r_sr`` step through their ranges in a fixed pattern.

    Checking cost grows about with the cube of the root's size, and the
    median lasso's cost swings by half when the sampled mix of root sizes
    shifts by one.  So set-up generates each candidate once and keeps it only
    while its kind and ``n`` still lack lassos whose root size falls in that
    bin of 1..n-1: every seed gets the same mix of root sizes for each kind
    and ``n``.
    """

    name = "certify"

    def __init__(self, scale: str):
        self.count, self.n_range, self.d_range, self.r_sr_range = CERTIFY_SHAPES[scale]

    def build(self, rc, seed: int, clock) -> list:
        adv = rc.adversary
        rng = random.Random(f"bench-certify:{seed}")
        n_values = self.n_range[1] - self.n_range[0] + 1
        d_values = self.d_range[1] - self.d_range[0] + 1
        share = -(-self.count // (2 * n_values * ROOT_BINS))  # lassos per (kind, n, root-size bin)
        taken = {}
        specs = []
        for i in range(self.count):
            n = _cycle(i, self.n_range, 2)
            D = _cycle(i, self.d_range, 2 * n_values)
            r_sr = _cycle(i, self.r_sr_range, 2 * n_values * d_values)
            generate = adv.generate_estable if i % 2 == 0 else adv.generate_alt_estable
            while True:
                params = adv.AdversaryParams(n=n, D=D, seed=rng.getrandbits(48), r_sr_target=r_sr)
                _, cert = clock.time(lambda: generate(params))
                reset_program_caches(rc)
                bin_ = (i % 2, n, ROOT_BINS * (len(cert.root) - 1) // (n - 1))
                if taken.get(bin_, 0) < share:
                    taken[bin_] = taken.get(bin_, 0) + 1
                    specs.append((i, n, D, r_sr, params.seed))
                    break
        return specs

    def run_item(self, rc, spec, clock, unit_span=None) -> ItemResult:
        adv = rc.adversary
        index, n, D, r_sr, gen_seed = spec
        params = adv.AdversaryParams(n=n, D=D, seed=gen_seed, r_sr_target=r_sr)
        outcome = {}

        def unit():
            if index % 2 == 0:
                lasso, generated = adv.generate_estable(params)
                horizon = lasso.default_horizon()
                first = adv.check_estable(lasso, D)
                second = adv.check_alt_estable(lasso, D)
                agrees = first == generated
            else:
                lasso, planted = adv.generate_alt_estable(params)
                horizon = max(lasso.default_horizon(), planted.deadline + 1)
                first = adv.check_alt_estable(lasso, D, horizon)
                second = adv.check_mad(lasso, D, D, D, horizon)
                agrees = first is not None and (first.r_gst, first.r_sr) <= (planted.r_gst, planted.r_sr)
            outcome.update(horizon=horizon, certs=(first, second), agrees=agrees)

        failures = []
        try:
            clock.time(_spanned(unit, unit_span))
        except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
            failures.append(f"lasso {index}: {type(exc).__name__}: {exc}")
        record, work = None, 0
        if outcome:
            certs = outcome["certs"]
            record = [c.to_json_dict() if c is not None else None for c in certs]
            work = n * outcome["horizon"]
            if None in certs:
                failures.append(f"lasso {index}: checker rejected its generated lasso")
            elif not outcome["agrees"]:
                failures.append(f"lasso {index}: certificate disagrees with the generator's")
        return ItemResult(1, work, record, failures)

    def cross_check(self, rc, pool: list, records: list) -> tuple:
        return 0, []


WORKLOADS = ("run-full", "run-bounded-long", "fuzz-altestable", "certify")


def make_workload(name: str, scale: str):
    if name in ("run-full", "run-bounded-long"):
        return RunWorkload(name, scale)
    if name == "fuzz-altestable":
        return FuzzWorkload(scale)
    if name == "certify":
        return CertifyWorkload(scale)
    raise ValueError(f"unknown workload {name!r}")
