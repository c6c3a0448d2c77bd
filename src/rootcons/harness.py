"""Lock-step execution engine, correctness oracles, and named scenarios.

A run advances all processes through synchronous rounds against a lasso of
communication graphs: every process snapshots its end-of-previous-round
state into a message, deliveries follow the round graph's edges exactly
(self-loops included), then each process merges and runs its core step.
Runs are fully deterministic in their configuration.

While running, an invariant monitor checks each process's state against
ground truth it derives from the true graphs alone: ``heard[p][q]``, the
latest round whose end state of q has reached p (after round m it is the
maximum of ``heard[u][q]`` over p's round-m in-neighbours u, and
``heard[p][p] = m``).  With ``lo`` the oldest retained round (0 in full mode,
``max(0, m-k)`` in bounded:k), p's state must be exactly that knowledge:
``locks[q]`` equals the owner's values on rounds ``lo..heard[p][q]``, and
``approx[r]`` for r in ``lo..m`` equals the union of the true round-r
in-edges of every v with ``heard[p][v] >= r``.  This one equality rules out
fabricated edges and lock values, and missing or over-retained knowledge.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from . import consensus
from .adversary import (
    AdversaryCertificate,
    AdversaryParams,
    check_alt_estable,
    check_estable,
    generate_alt_estable,
    generate_estable,
)
from .approximation import (
    STRIDE,
    edges_of_mask,
    init_state,
    make_message,
    mask_of_edges,
    parse_mode,
    receive_and_merge,
)
from .consensus import core_step
from .graphs import CommGraph, LassoSequence, lasso_to_json_dict


class EngineInvariantError(Exception):
    """Ground-truth cross-check failed; carries the offending (pid, round)."""

    def __init__(self, pid: int, round_: int, message: str):
        super().__init__(f"p{pid} round {round_}: {message}")
        self.pid = pid
        self.round = round_


@dataclass(frozen=True)
class RunConfig:
    n: int
    D: int
    inputs: tuple
    lasso: LassoSequence
    horizon: int
    mode: str = "full"
    check_invariants: bool = True

    def __post_init__(self):
        if self.n > STRIDE:
            raise ValueError(f"n must be <= {STRIDE} (edge-mask width), got {self.n}")
        if self.lasso.n != self.n:
            raise ValueError(f"lasso is over {self.lasso.n} processes, config says {self.n}")
        if len(self.inputs) != self.n:
            raise ValueError(f"need {self.n} inputs, got {len(self.inputs)}")
        if not (1 <= self.D <= self.n - 1):
            raise ValueError(f"D must satisfy 1 <= D <= n-1, got D={self.D}, n={self.n}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        parse_mode(self.mode)


@dataclass
class Trace:
    """Complete record of one run: graphs, per-round outcomes, decision
    events, and per-round state snapshots (round 0 holds the initial states)."""

    config: RunConfig
    round_graphs: list
    outcomes: list
    decisions: dict
    snapshots: list
    states: dict
    certificate: Optional[AdversaryCertificate] = None

    def latest_decision_round(self) -> Optional[int]:
        if not self.decisions:
            return None
        return max(r for (r, _) in self.decisions.values())

    def earliest_decision_round(self) -> Optional[int]:
        if not self.decisions:
            return None
        return min(r for (r, _) in self.decisions.values())

    def decision_events(self) -> list:
        return sorted((r, pid, v) for pid, (r, v) in self.decisions.items())

    def to_json_lines(self) -> str:
        lines = []
        for i, g in enumerate(self.round_graphs):
            m = i + 1
            record = {
                "round": m,
                "graph": [list(e) for e in sorted(g.edges) if e[0] != e[1]],
                "outcomes": [
                    out.to_json_dict(pid + 1, m) for pid, out in enumerate(self.outcomes[i])
                ],
                "decisions": [
                    [pid, v] for pid, (r, v) in sorted(self.decisions.items()) if r == m
                ],
            }
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines)

    def summary_dict(self) -> dict:
        return {
            "config": {
                "n": self.config.n,
                "D": self.config.D,
                "inputs": list(self.config.inputs),
                "horizon": self.config.horizon,
                "mode": self.config.mode,
                "lasso": lasso_to_json_dict(self.config.lasso),
            },
            "decisions": [[pid, r, v] for pid, (r, v) in sorted(self.decisions.items())],
            "latest_decision_round": self.latest_decision_round(),
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
        }


class _InvariantMonitor:
    """The run's ground truth, from the true round graphs alone: ``heard[p][q]``
    (the latest round whose end state of q has reached p, -1 for none), the
    owners' lock rows ``locks[q][r]`` and the true edge masks ``masks[r]``."""

    def __init__(self, cfg: RunConfig):
        self.keep = parse_mode(cfg.mode)
        self.heard = [[0 if q == p else -1 for q in range(cfg.n)] for p in range(cfg.n)]
        self.locks = [[x] for x in cfg.inputs]
        self.masks = [0]
        # a set of heads' bits times this is the mask of every edge into the set
        self._into = sum(1 << (u * STRIDE) for u in range(cfg.n))

    def after_round(self, m: int, g: CommGraph, states: dict):
        senders = [[] for _ in self.locks]
        for (u, v) in g.edges:
            senders[v - 1].append(self.heard[u - 1])
        self.heard = [[max(col) for col in zip(*rows)] for rows in senders]
        self.masks.append(mask_of_edges(g.edges))
        for p, row in enumerate(self.locks):
            self.heard[p][p] = m
            row.append(states[p + 1].locks[p + 1].get(m))
        lo = 0 if self.keep is None else max(0, m - self.keep)
        window = f"rounds {lo}..{m} kept"
        for p, known in enumerate(self.heard, start=1):
            st = states[p]
            for q, h in enumerate(known, start=1):
                want = dict(zip(range(lo, h + 1), self.locks[q - 1][lo : h + 1]))
                got = st.locks.get(q) or {}
                if got != want:
                    raise _mismatch(p, m, f"lock[{q}]", got, want, f"heard[{p}][{q}]={h}; {window}")
            newest = {}
            for v, h in enumerate(known):
                newest[h] = newest.get(h, 0) | 1 << v
            heads, want = 0, {}
            for r in range(m, lo - 1, -1):
                heads |= newest.get(r, 0)
                want[r] = self.masks[r] & heads * self._into
            if st.approx != want:
                why = f"heard[{p}]={known}; {window}"
                raise _mismatch(p, m, "approx", st.approx, want, why, edges_of_mask)


def _mismatch(p: int, m: int, what: str, got: dict, want: dict, why: str, show=str):
    """The violation naming the first round where ``got`` and ``want`` differ."""
    r = min(k for k in got.keys() | want.keys() if got.get(k, "absent") != want.get(k, "absent"))
    has, needs = (show(d[r]) if r in d else "absent" for d in (got, want))
    return EngineInvariantError(p, m, f"{what}[{r}] is {has}, expected {needs} ({why})")


def run_execution(cfg: RunConfig, keep_snapshots: bool = True) -> Trace:
    """Execute the protocol for ``cfg.horizon`` rounds and record everything.

    ``keep_snapshots=False`` skips the per-round state snapshots (needed only
    for indistinguishability comparisons), which matters across thousands of
    fuzz runs.
    """
    states = {p: init_state(p, cfg.inputs[p - 1], cfg.mode) for p in range(1, cfg.n + 1)}
    monitor = _InvariantMonitor(cfg) if cfg.check_invariants else None
    round_graphs = []
    outcomes = []
    decisions = {}
    snapshots = [{p: states[p].snapshot() for p in states}] if keep_snapshots else []
    for m in range(1, cfg.horizon + 1):
        g = cfg.lasso.graph(m)
        round_graphs.append(g)
        messages = {p: make_message(states[p]) for p in states}
        for p in states:
            inbox = [messages[q] for q in sorted(g.in_neighbors(p))]
            receive_and_merge(states[p], inbox, m)
        per_round = []
        for p in states:
            try:
                _, out = core_step(states[p], m, cfg.D)
            except consensus.InvariantViolationError as exc:
                raise EngineInvariantError(p, m, str(exc)) from exc
            per_round.append(out)
            if out.decided is not None:
                if p in decisions:
                    raise EngineInvariantError(p, m, "second decision event")
                decisions[p] = (m, out.decided[2])
        outcomes.append(per_round)
        if monitor:
            monitor.after_round(m, g, states)
        if keep_snapshots:
            snapshots.append({p: states[p].snapshot() for p in states})
    return Trace(cfg, round_graphs, outcomes, decisions, snapshots, states)


@dataclass(frozen=True)
class OracleReport:
    agreement_ok: bool
    validity_ok: bool
    termination_ok: bool
    deadline: int
    latest_decision_round: Optional[int]
    agreement_witness: Optional[tuple] = None
    validity_witness: Optional[tuple] = None
    termination_witness: Optional[tuple] = None

    @property
    def all_ok(self) -> bool:
        return self.agreement_ok and self.validity_ok and self.termination_ok

    def to_json_dict(self) -> dict:
        return {
            "agreement": self.agreement_ok,
            "validity": self.validity_ok,
            "termination": self.termination_ok,
            "deadline": self.deadline,
            "latest_decision_round": self.latest_decision_round,
            "witnesses": {
                "agreement": self.agreement_witness,
                "validity": self.validity_witness,
                "termination": self.termination_witness,
            },
        }


def oracle_check(trace: Trace, deadline: int) -> OracleReport:
    """Agreement, validity, and all-decided-by-``deadline``, with minimal witnesses."""
    decisions = trace.decisions
    agreement_witness = None
    decided = sorted(decisions.items())
    for i in range(len(decided) - 1):
        (p, (_, vp)), (q, (_, vq)) = decided[i], decided[i + 1]
        if vp != vq:
            agreement_witness = (p, vp, q, vq)
            break
    validity_witness = None
    inputs = set(trace.config.inputs)
    for p, (_, v) in decided:
        if v not in inputs:
            validity_witness = (p, v)
            break
    termination_witness = None
    undecided = [p for p in range(1, trace.config.n + 1) if p not in decisions]
    late = [(p, r) for p, (r, _) in decided if r > deadline]
    if undecided:
        termination_witness = ("undecided", tuple(undecided))
    elif late:
        termination_witness = ("late", tuple(late))
    return OracleReport(
        agreement_ok=agreement_witness is None,
        validity_ok=validity_witness is None,
        termination_ok=termination_witness is None,
        deadline=deadline,
        latest_decision_round=trace.latest_decision_round(),
        agreement_witness=agreement_witness,
        validity_witness=validity_witness,
        termination_witness=termination_witness,
    )


def indistinguishable(trace_a: Trace, trace_b: Trace, p: int, through: int) -> bool:
    """True iff p's full state matches in both traces at the end of every
    round up to ``through`` (round 0 compares the initial states)."""
    if through >= len(trace_a.snapshots) or through >= len(trace_b.snapshots):
        raise ValueError(f"traces do not cover round {through}")
    return all(trace_a.snapshots[r][p] == trace_b.snapshots[r][p] for r in range(through + 1))


# --- named scenarios --------------------------------------------------------


def _eps_graphs(n: int, D: int) -> tuple:
    chain = [1] + [n - i for i in range(D - 1)] + [2]
    chain_edges = list(zip(chain, chain[1:]))
    in_chain = set(chain)
    rest = [p for p in range(1, n + 1) if p not in in_chain and p not in (3, 4)]
    static = CommGraph.of(n, chain_edges + [(1, q) for q in [3, 4] + rest])
    g1 = CommGraph.of(n, chain_edges + [(3, 4)] + [(1, q) for q in rest])
    g2 = CommGraph.of(n, chain_edges + [(2, 1), (4, 3)] + [(1, q) for q in rest])
    extra = [(4, 1), (4, chain[1])]
    if D == 1:
        extra += [(4, q) for q in rest]
    g3 = CommGraph.of(n, sorted(e for e in g2.edges if e[0] != e[1]) + extra)
    return static, g1, g2, g3


def scenario_eps_pair(n: int, D: int, r_sr_prefix: int = 0) -> tuple:
    """The matched execution pair behind the termination-time lower bound.

    The first run keeps a static single-rooted chain graph forever (all
    inputs 0); the second runs two-rooted variants for 2D rounds before a
    different root takes over forever (two processes outside the chain start
    with 1).  The second process of the chain cannot tell them apart for the
    first ``r_sr_prefix + 2D`` rounds.  ``r_sr_prefix`` prepends that many
    alternating rounds of the two-rooted variants, ending on the one where
    the chain loops back, which delays stabilization accordingly.
    """
    if n < 4:
        raise ValueError("eps pair needs n >= 4")
    if not (1 <= D <= n - 3):
        raise ValueError(f"eps pair needs 1 <= D <= n-3, got D={D}, n={n}")
    if r_sr_prefix < 0:
        raise ValueError("r_sr_prefix must be >= 0")
    static, g1, g2, g3 = _eps_graphs(n, D)
    pi = [g2 if (r_sr_prefix - j) % 2 == 0 else g1 for j in range(1, r_sr_prefix + 1)]
    eps_lasso = LassoSequence(tuple(pi), (static,))
    epsp_lasso = LassoSequence(tuple(pi + [g1] * D + [g2] * D), (g3,))
    eps_deadline = (r_sr_prefix + 1) + 2 * D
    epsp_deadline = (r_sr_prefix + 2 * D + 1) + 2 * D
    inputs_eps = (0,) * n
    inputs_epsp = tuple(1 if p in (3, 4) else 0 for p in range(1, n + 1))
    cfg_eps = RunConfig(n, D, inputs_eps, eps_lasso, eps_deadline + D + 2)
    cfg_epsp = RunConfig(n, D, inputs_epsp, epsp_lasso, epsp_deadline + D + 2)
    return cfg_eps, cfg_epsp


def eps_pair_report(n: int, D: int, r_sr_prefix: int = 0) -> dict:
    """Run the pair and check everything the construction promises."""
    cfg_eps, cfg_epsp = scenario_eps_pair(n, D, r_sr_prefix)
    cert_eps = check_estable(cfg_eps.lasso, D)
    cert_epsp = check_estable(cfg_epsp.lasso, D)
    r_sr_eps = r_sr_prefix + 1
    r_sr_epsp = r_sr_prefix + 2 * D + 1
    t_eps = run_execution(cfg_eps)
    t_epsp = run_execution(cfg_epsp)
    through = r_sr_prefix + 2 * D
    checks = {
        "eps_certified": cert_eps is not None and cert_eps.r_sr == r_sr_eps,
        "epsp_certified": cert_epsp is not None
        and cert_epsp.r_sr == r_sr_epsp
        and cert_epsp.root == frozenset([4]),
        "p2_indistinguishable_through_2D": indistinguishable(t_eps, t_epsp, 2, through),
        "p2_distinguishes_next_round": not indistinguishable(t_eps, t_epsp, 2, through + 1),
        "eps_all_decide_zero": oracle_check(t_eps, r_sr_eps + 2 * D).all_ok
        and all(v == 0 for (_, v) in t_eps.decisions.values()),
        "eps_consensus_round_exact": t_eps.latest_decision_round() == r_sr_eps + 2 * D,
        "epsp_all_decide_one": oracle_check(t_epsp, r_sr_epsp + 2 * D).all_ok
        and all(v == 1 for (_, v) in t_epsp.decisions.values()),
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "n": n,
        "D": D,
        "r_sr_prefix": r_sr_prefix,
        "eps_certificate": cert_eps.to_json_dict() if cert_eps else None,
        "epsp_certificate": cert_epsp.to_json_dict() if cert_epsp else None,
        "eps_decisions": t_eps.decision_events(),
        "epsp_decisions": t_epsp.decision_events(),
    }


def scenario_stab_not_enough(n: int, tau: int, D: int = 1) -> tuple:
    """Executions showing that eventual stabilization alone cannot give agreement.

    First run: a static chain headed by process 1 forever (its input spreads
    and wins).  Second run: process 1 is isolated through round ``tau`` (its
    view is identical to the first run, so it decides its own input), while
    the rest already follow a chain headed by process n, which takes over
    everything afterwards; inputs of the two heads differ.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if tau < 1:
        raise ValueError("tau must be >= 1")
    down_chain = [(i + 1, i) for i in range(n - 1, 1, -1)]  # n -> n-1 -> ... -> 2
    chain1 = CommGraph.of(n, [(i, i + 1) for i in range(1, n)])  # 1 -> 2 -> ... -> n
    isolated = CommGraph.of(n, down_chain)
    takeover = CommGraph.of(n, down_chain + [(2, 1)])
    eps1 = LassoSequence((), (chain1,))
    eps2 = LassoSequence(tuple([isolated] * tau), (takeover,))
    inputs = tuple(1 if p == 1 else 0 for p in range(1, n + 1))
    horizon = tau + n + 3 * D + 4
    cfg1 = RunConfig(n, D, inputs, eps1, horizon)
    cfg2 = RunConfig(n, D, inputs, eps2, horizon)
    return cfg1, cfg2


def scenario_hop_fallacy(n: int) -> LassoSequence:
    """Per-round trees of height three where short per-round paths still
    yield an n-1 round causal distance from the root to the last process.

    Round r's tree: root 1, a single middle node that broadcasts to all
    others, and the middle role rotating over processes 2..n-1 so the
    process that already heard the root is demoted before it can forward.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    graphs = []
    for q in range(2, n):
        others = [v for v in range(2, n + 1) if v != q]
        graphs.append(CommGraph.of(n, [(1, q)] + [(q, v) for v in others]))
    return LassoSequence((), tuple(graphs))


# --- fuzzing ----------------------------------------------------------------


@dataclass(frozen=True)
class FuzzTrial:
    index: int
    seed: int
    n: int
    D: int
    deadline: int
    ok: bool
    detail: Optional[str] = None


@dataclass
class FuzzSummary:
    adversary: str
    trials: int
    passed: int
    failures: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.passed == self.trials

    def first_failing_seed(self) -> Optional[int]:
        return self.failures[0].seed if self.failures else None

    def to_json_dict(self) -> dict:
        return {
            "adversary": self.adversary,
            "trials": self.trials,
            "passed": self.passed,
            "first_failing_seed": self.first_failing_seed(),
            "failures": [
                {"index": f.index, "seed": f.seed, "n": f.n, "D": f.D, "detail": f.detail}
                for f in self.failures
            ],
        }


def fuzz_trial(
    adversary: str,
    seed: int,
    n: int,
    D: int,
    r_sr: int,
    inputs: tuple,
    mode: str = "full",
    keep_snapshots: bool = False,
):
    """One generated, certified, executed and oracle-checked run.

    The oracle deadline comes from the checker's certificate, not the
    generator's plan.  Returns (trace, report, certificate).
    """
    params = AdversaryParams(n=n, D=D, seed=seed, r_sr_target=r_sr)
    if adversary == "estable":
        lasso_seq, _ = generate_estable(params)
        cert = check_estable(lasso_seq, D)
    elif adversary == "altestable":
        lasso_seq, planted = generate_alt_estable(params)
        horizon = max(lasso_seq.default_horizon(), planted.deadline + 1)
        cert = check_alt_estable(lasso_seq, D, horizon)
    else:
        raise ValueError(f"unknown adversary {adversary!r}")
    if cert is None:
        raise AssertionError("generated lasso failed its own checker")
    deadline = cert.deadline
    cfg = RunConfig(n, D, inputs, lasso_seq, deadline + D + 2, mode=mode)
    trace = run_execution(cfg, keep_snapshots=keep_snapshots)
    trace.certificate = cert
    return trace, oracle_check(trace, deadline), cert


def _run_fuzz_case(case: tuple) -> FuzzTrial:
    index, adversary, trial_seed, n, D, r_sr, inputs, mode = case
    detail = None
    deadline = -1
    try:
        _, report, cert = fuzz_trial(adversary, trial_seed, n, D, r_sr, inputs, mode)
        ok = report.all_ok
        deadline = cert.deadline
        if not ok:
            detail = json.dumps(report.to_json_dict(), sort_keys=True)
    except Exception as exc:  # noqa: BLE001 - a fuzz trial must never abort the campaign
        ok = False
        detail = f"{type(exc).__name__}: {exc}"
    return FuzzTrial(index, trial_seed, n, D, deadline, ok, detail)


def fuzz_campaign(
    trials: int,
    seed: int,
    adversary: str = "estable",
    n_range: tuple = (2, 8),
    d_cap: int = 3,
    r_sr_max: int = 12,
    mode: str = "full",
    jobs: int = 1,
) -> FuzzSummary:
    """Deterministically sample configurations, run them, aggregate pass/fail.

    Trials are sampled up front, so results are identical for any ``jobs``
    count; each trial owns all of its state.  A bad ``mode``, ``n_range`` or
    ``d_cap`` raises ValueError before any trial is sampled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    parse_mode(mode)
    if not (2 <= n_range[0] <= n_range[1] <= STRIDE):
        raise ValueError(f"n range must satisfy 2 <= lo <= hi <= {STRIDE}, got {n_range[0]}:{n_range[1]}")
    if d_cap < 1:
        raise ValueError(f"d_cap must be >= 1, got {d_cap}")
    rng = random.Random(f"fuzz:{seed}")
    cases = []
    for index in range(trials):
        n = rng.randint(*n_range)
        D = rng.randint(1, min(d_cap, n - 1))
        trial_seed = rng.getrandbits(48)
        lo = 1 if adversary == "estable" else D + 2
        r_sr = rng.randint(lo, max(lo, r_sr_max))
        inputs = tuple(rng.randint(0, 99) for _ in range(n))
        cases.append((index, adversary, trial_seed, n, D, r_sr, inputs, mode))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_fuzz_case, cases, chunksize=8))
    else:
        results = [_run_fuzz_case(case) for case in cases]
    summary = FuzzSummary(adversary=adversary, trials=trials, passed=0)
    for res in sorted(results, key=lambda r: r.index):
        if res.ok:
            summary.passed += 1
        else:
            summary.failures.append(res)
    return summary
