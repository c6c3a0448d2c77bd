"""Lock-step execution engine, correctness oracles, and named scenarios.

A run advances all processes through synchronous rounds against a lasso of
communication graphs.  Each round, the engine enters the round graph into
the run's tables once (``RunTables.enter``: the graph itself, appended to
the run's one graph list, its roots' run starts, the latest long round for
the run's D, and the drop of the round that left the window) and builds
the round's broadcasts once, one int per process: its end-of-previous-round
``known``, rebased to the round's window.  Processes with equal
in-neighbours in the round graph (self-loops included) receive the same
ints, so the engine ORs them once per such class (``CommGraph.in_classes``);
every member of the class then merges that OR, and each process runs its
core step.
A run is a :class:`Run`, stepped round by round: ``step()`` runs the next
round on the lasso's graph and returns its outcomes, which the run does not
keep (``trace_line`` formats them as the round's trace line); the run holds
its graphs, decisions and current states; ``run_execution`` steps it
``cfg.horizon`` times and returns it.
Runs are fully deterministic in their configuration.

While running, an invariant monitor (``_InvariantMonitor``) checks each
process's state against ground truth it derives from the true graphs and
the lock outcomes alone: for every process p, the ``known`` int p's state
must hold, and one ``RunTables`` of every process's expected
``{round: lock}`` row over the retained rounds ``lo..m``.
With ``heard[p][q]`` the latest round whose end state of q has reached p,
q is in the slot of round r exactly when ``heard[p][q] >= r``, so the int
is a threshold code of that ``heard`` row.  ``heard`` after round m is the
maximum of ``heard[u][q]`` over p's round-m in-neighbours u (with
``heard[p][p] = m``), and the threshold code of a maximum is the OR of the
codes: so p's int is the OR of its in-neighbours' previous ints (p's own
among them, by its self-loop), shifted down by the slots that left the
window, plus p's own bit in slot m.  That OR is made once per class of
``in_classes``.  The monitor reads no message or state to build it, and
decodes ``heard[p]`` (``approximation._heard``) only to print it.

After every round it requires that the run's clock (the tables' ``m`` and
``lo``, which no process writes: a wrong one names process 1) reads the
round and its window, and that the run's row table holds exactly the
expected rows, compared as one dict (a mismatch names the owner of the
lowest wrong row, the only one that writes it).  Then, for every p, it
requires that p's ``known`` equals its expected int (only on a mismatch
does it walk the slots to name the first that differs) and that p holds
the run's ``RunTables`` itself.  A state's lock view and approximation are
derived from ``known`` and the run's tables alone, whose graphs are the
ones the engine ran, so this makes them exact.

A run records no per-round state.  Indistinguishability (``divergence``)
replays both runs from their configs once, in lock step, monitored when
the originals were, and compares each process's ``snapshot()`` after every
round.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from . import consensus
from .adversary import (
    MAX_HORIZON,
    AdversaryError,
    AdversaryParams,
    check_alt_estable,  # noqa: F401  (bound for bench/tracer.py until ROADMAP item 3)
    check_estable,
    diagnose,
    generate_alt_estable,
    generate_estable,
)
from .approximation import (
    RunTables,
    _heard,
    init_states,
    make_message,  # noqa: F401  (bound for bench/tracer.py until ROADMAP item 3)
    parse_mode,
    receive_and_merge,
    window_start,
)
from .consensus import core_step
from .graphs import (
    CommGraph,
    LassoSequence,
    _processes,
    causal_past,
    check_dynamic_diameter,
    lasso_to_json_dict,
    validate_graph,
)


# The largest n that run_execution and fuzz_campaign accept.  A monitored
# full-history run grows by 6-11 MiB per 1000 rounds at n=64 and 52-70 MiB at
# n=256: about 1 GB and 5-7 GB at MAX_HORIZON (ROADMAP item 10).
MAX_RUN_PROCESSES = 64
FUZZ_R_SR_MAX = 12  # the largest stabilization round fuzz_campaign samples
FUZZ_BATCH_PER_JOB = 64  # cases fuzz_campaign hands a worker pool at once, per worker


class EngineInvariantError(Exception):
    """Ground-truth cross-check failed; carries the offending (pid, round)."""

    def __init__(self, pid: int, round_: int, message: str):
        super().__init__(f"p{pid} round {round_}: {message}")
        self.pid = pid
        self.round = round_


@dataclass(frozen=True)
class RunConfig:
    """One run's parameters; a ValueError names the first invalid one, down to
    a lasso graph that ``validate_graph`` rejects."""

    n: int
    D: int
    inputs: tuple
    lasso: LassoSequence
    horizon: int
    mode: str = "full"
    check_invariants: bool = True

    def __post_init__(self):
        if self.n > MAX_RUN_PROCESSES:
            raise ValueError(f"n must be <= {MAX_RUN_PROCESSES}, got {self.n}")
        if self.lasso.n != self.n:
            raise ValueError(f"lasso is over {self.lasso.n} processes, config says {self.n}")
        if len(self.inputs) != self.n:
            raise ValueError(f"need {self.n} inputs, got {len(self.inputs)}")
        if not (1 <= self.D <= self.n - 1):
            raise ValueError(f"D must satisfy 1 <= D <= n-1, got D={self.D}, n={self.n}")
        if not 1 <= self.horizon <= MAX_HORIZON:
            raise ValueError(f"horizon must be in 1..{MAX_HORIZON}, got {self.horizon}")
        parse_mode(self.mode, self.D)
        for part, graphs in (("prefix", self.lasso.prefix), ("cycle", self.lasso.cycle)):
            for i, g in enumerate(graphs):
                bad = validate_graph(g)
                if bad:
                    raise ValueError(f"lasso {part} graph {i} invalid: {bad[0]}")


class _InvariantMonitor:
    """Checks the run's row table and every process's state after round m
    against the ground truth, derived from the true graphs and the lock
    outcomes alone: ``known[p]``, the ``known`` int of p (slot 0 is round
    ``lo``), and ``tables``, a ``RunTables`` whose ``rows[q]`` is q's
    ``{round: lock}`` over ``lo..m`` (its graph list stays empty: the round
    graphs are the run's).  ``run_tables`` are the run's tables, which every
    state must hold.  Graphs and states share the n-process edge-mask
    layout, whose width is also the width of a ``known`` slot.

    Each int is the threshold code of p's ``heard`` row (q in slot r iff
    ``heard[p][q] >= r``), and the code of the ``heard`` max rule is an OR:
    a round ORs the previous ints of p's in-neighbours, self-loop included,
    once for each class of processes with those in-neighbours, drops the
    slots that left the window and adds p's own bit in slot m (see the
    module docstring).
    """

    def __init__(self, cfg: RunConfig, tables: RunTables):
        self.n, self.run_tables = cfg.n, tables
        self.tables = RunTables.of(cfg.inputs, parse_mode(cfg.mode))
        self.known = {p: 1 << (p - 1) for p in range(1, cfg.n + 1)}

    def advance(self, m: int, g: CommGraph, outcomes: list) -> int:
        """Step the ground truth to the end of round m; returns the window
        start ``lo``."""
        tables, prev = self.tables, self.known
        lo, width = window_start(tables.keep, m), tables.layout.width
        dropped, own = (lo - window_start(tables.keep, m - 1)) * width, (m - lo) * width - 1
        known = dict.fromkeys(prev)  # in pid order, the order the monitor checks in
        for ins, members in g.in_classes:
            k = 0
            for u in ins:
                k |= prev[u]
            k >>= dropped
            for p in members:
                known[p] = k | 1 << own + p
        self.known = known
        for row, out in zip(tables.rows.values(), outcomes):
            row[m] = row[m - 1] if out.locked is None else out.locked[2]
            row.pop(lo - 1, None)
        return lo

    def after_round(self, m: int, g: CommGraph, states: dict, outcomes: list):
        lo, run, want = self.advance(m, g, outcomes), self.run_tables, self.tables
        if (run.m, run.lo) != (m, lo):
            self._fail(1, m, lo, f"the run's clock is m={run.m} lo={run.lo}, expected m={m} lo={lo}")
        if run.rows != want.rows:
            owner, problem = self._row_violation(m, lo)
            self._fail(owner, m, lo, problem)
        for p, known in self.known.items():
            st = states[p]
            if st.known == known and st.tables is run:
                continue
            self._fail(p, m, lo, self._violation(st, p, m, lo))

    def _fail(self, p: int, m: int, lo: int, problem: str):
        """Raise for p at round m, naming ``heard[p]`` decoded from the ground
        truth's int: -1 for a peer in no retained slot, which is one never
        heard or, in bounded mode, one heard only before ``lo``."""
        heard = _heard(self.known[p], lo, self.tables.layout.width)
        heard = [heard.get(q, -1) for q in range(1, self.n + 1)]
        raise EngineInvariantError(p, m, f"{problem} (heard[{p}]={heard}; rounds {lo}..{m} kept)")

    def _row_violation(self, m: int, lo: int) -> tuple:
        """(owner, what is wrong) for the lowest owner whose row differs from
        the ground truth's (only that owner writes it): the rounds it holds,
        or its first wrong lock cell."""
        rows = self.run_tables.rows
        for q, want in self.tables.rows.items():
            has = rows.get(q, {})
            if has == want:
                continue
            if has.keys() != want.keys():
                return q, f"row[{q}] holds rounds {sorted(has)}, expected {lo}..{m}"
            r = next(r for r in want if has[r] != want[r])
            return q, f"lock[{q}][{r}] is {has[r]}, expected {want[r]}"
        return 1, f"the row table holds rows {sorted(rows)}, expected 1..{self.n}"

    def _violation(self, st, p: int, m: int, lo: int) -> str:
        """What is wrong with p's state after round m, walked check by check
        (the first failing one is named); the fast check has failed."""
        width, row, known = self.tables.layout.width, self.tables.layout.row, self.known[p]
        for r in range(lo, m + 1):
            has, want = st.known >> (r - lo) * width & row, known >> (r - lo) * width & row
            if has != want:
                return f"known[{r}] is {sorted(_processes(has))}, expected {sorted(_processes(want))}"
        if st.known >> (m - lo + 1) * width:
            return f"known holds slots past round {m}"
        return "tables is not the run's tables"


class Run:
    """One run of ``config``, stepped round by round: the states and the
    run's tables they share, whose clock holds ``m``, the round last run,
    the decisions so far (the round graphs are ``tables.graphs``), the
    adversary ``certificate`` it was run under (if any), and the invariant
    monitor (None when ``config.check_invariants`` is off).  It keeps no
    round's outcomes: ``step()`` returns them, and a run is deterministic
    in its config, so :func:`indistinguishable` replays it."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.states = init_states(config.inputs, config.mode)
        self.tables = self.states[1].tables
        self.monitor = _InvariantMonitor(config, self.tables) if config.check_invariants else None
        self.decisions, self.certificate = {}, None

    @property
    def m(self) -> int:
        return self.tables.m

    def step(self) -> list:
        """Run round m+1 on the lasso's graph; returns its outcomes in pid order.

        The round graph is entered into the run's tables once, which appends
        it to their graph list, moves their clock and drops the window's old
        round from them.  The round's broadcasts are built once: ``sent[q-1]``
        is q's ``known``, shifted by the slots that left the window (none in
        full mode).  The broadcasts of each class of processes with equal
        in-neighbours (``g.in_classes``) are ORed once, and every member of
        the class merges that OR.
        """
        states, decisions, tables = self.states, self.decisions, self.tables
        m, lo = tables.m + 1, tables.lo
        g = self.config.lasso.graph(m)
        shift = (tables.enter(m, g, self.config.D) - lo) * tables.layout.width
        sent = [st.known >> shift for st in states.values()]
        for ins, members in g.in_classes:
            heard = 0
            for q in ins:
                heard |= sent[q - 1]
            for p in members:
                receive_and_merge(states[p], heard, sent[p - 1], m)
        per_round = []
        for p in states:
            try:
                out = core_step(states[p], m, self.config.D)
            except consensus.InvariantViolationError as exc:
                raise EngineInvariantError(p, m, str(exc)) from exc
            per_round.append(out)
            if out.decided is not None:
                if p in decisions:
                    raise EngineInvariantError(p, m, "second decision event")
                decisions[p] = (m, out.decided[2])
        if self.monitor:
            self.monitor.after_round(m, g, states, per_round)
        return per_round

    def latest_decision_round(self) -> Optional[int]:
        if not self.decisions:
            return None
        return max(r for (r, _) in self.decisions.values())

    def decision_events(self) -> list:
        return sorted((r, pid, v) for pid, (r, v) in self.decisions.items())

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
            "rounds": self.m,
            "decisions": [[pid, r, v] for pid, (r, v) in sorted(self.decisions.items())],
            "latest_decision_round": self.latest_decision_round(),
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
        }


def trace_line(m: int, g: CommGraph, outcomes: list) -> str:
    """Round m's trace line: one JSON object of the round, its graph ``g``,
    the ``outcomes`` its step returned, in pid order, and the decisions made
    in it, which are the outcomes that decided."""
    return json.dumps({
        "round": m,
        "graph": [list(e) for e in g.nonloop_edges()],
        "outcomes": [out.to_json_dict(p, m) for p, out in enumerate(outcomes, start=1)],
        "decisions": [[p, out.decided[2]] for p, out in enumerate(outcomes, start=1) if out.decided is not None],
    }, sort_keys=True)


def run_execution(cfg: RunConfig, keep_snapshots: bool = True) -> Run:
    """The run of ``cfg``, stepped ``cfg.horizon`` times.

    ``keep_snapshots`` has no effect: a run records no per-round state, and
    :func:`indistinguishable` replays it from its config.  It stays until
    ROADMAP item 3, because ``bench/workloads.py`` passes it.
    """
    run = Run(cfg)
    for _ in range(cfg.horizon):
        run.step()
    return run


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
    blocking: tuple = ()  # (pid, consensus.blocker of its final state) per undecided pid

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
            "blocking": {str(p): _blocker_json(b) for p, b in self.blocking},
        }


def _blocker_json(blocker: tuple) -> dict:
    condition, root, rounds = blocker
    return {
        "condition": condition,
        "root": sorted(root) if root is not None else None,
        "rounds": list(rounds) if rounds is not None else None,
    }


def oracle_check(run: Run, deadline: int) -> OracleReport:
    """Agreement, validity, and all-decided-by-``deadline``, with minimal
    witnesses; ``blocking`` names, for each undecided process, the decision
    condition its final state fails (``consensus.blocker``)."""
    decisions = run.decisions
    agreement_witness = None
    decided = sorted(decisions.items())
    for i in range(len(decided) - 1):
        (p, (_, vp)), (q, (_, vq)) = decided[i], decided[i + 1]
        if vp != vq:
            agreement_witness = (p, vp, q, vq)
            break
    validity_witness = None
    inputs = set(run.config.inputs)
    for p, (_, v) in decided:
        if v not in inputs:
            validity_witness = (p, v)
            break
    termination_witness = None
    undecided = [p for p in range(1, run.config.n + 1) if p not in decisions]
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
        latest_decision_round=run.latest_decision_round(),
        agreement_witness=agreement_witness,
        validity_witness=validity_witness,
        termination_witness=termination_witness,
        blocking=tuple((p, consensus.blocker(run.states[p])) for p in undecided),
    )


def divergence(cfg_a: RunConfig, cfg_b: RunConfig, through: int) -> dict:
    """p -> the first round up to ``through`` after which p's ``snapshot()``
    differs between the runs of ``cfg_a`` and ``cfg_b`` (round 0 compares
    the initial states), or None if it never does, for every p of both
    runs.  The two runs are replayed once, in lock step, up to the round by
    which every process has diverged.  Two runs with different windows
    diverge at round 0."""
    a, b = Run(cfg_a), Run(cfg_b)
    first = dict.fromkeys(range(1, min(cfg_a.n, cfg_b.n) + 1))
    same = list(first)
    for m in range(through + 1):
        if m:
            a.step()
            b.step()
        for p in same:
            if a.states[p].snapshot() != b.states[p].snapshot():
                first[p] = m
        same = [p for p in same if first[p] is None]
        if not same:
            break
    return first


def indistinguishable(run_a: Run, run_b: Run, p: int, through: int) -> bool:
    """True iff p's full state matches in both runs at the end of every
    round up to ``through``: p has not diverged by then
    (:func:`divergence` of the runs' configs).  A ``p`` outside both runs'
    processes, a negative ``through``, or one past the rounds either run
    has run raises ValueError."""
    n = min(run_a.config.n, run_b.config.n)
    if not 1 <= p <= n:
        raise ValueError(f"p must be in 1..{n}, got {p}")
    if through < 0:
        raise ValueError(f"through must be >= 0, got {through}")
    if through > min(run_a.m, run_b.m):
        raise ValueError(f"traces do not cover round {through}")
    return divergence(run_a.config, run_b.config, through)[p] is None


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
    g3 = CommGraph.of(n, g2.nonloop_edges() + extra)
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
    p2_first = divergence(cfg_eps, cfg_epsp, through + 1)[2]  # the round p2's state first differs
    checks = {
        "eps_certified": cert_eps is not None and cert_eps.r_sr == r_sr_eps,
        "epsp_certified": cert_epsp is not None
        and cert_epsp.r_sr == r_sr_epsp
        and cert_epsp.root == frozenset([4]),
        "p2_indistinguishable_through_2D": p2_first is None or p2_first > through,
        "p2_distinguishes_next_round": p2_first is not None,
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


def stab_not_enough_report(n: int, tau: int, D: int = 1) -> dict:
    """Run the pair and check that the second run has exactly the expected
    safety witness and splits its decision, while the first agrees."""
    cfg1, cfg2 = scenario_stab_not_enough(n, tau, D)
    witness = diagnose("safety", cfg2.lasso, {"x": D}).witness
    t1 = run_execution(cfg1)
    t2 = run_execution(cfg2)
    checks = {
        "eps2_safety_witness": witness is not None
        and witness.root == frozenset([1])
        and (witness.start, witness.end) == (1, tau),
        "eps1_decides_head_input_everywhere": all(
            v == cfg1.inputs[0] for (_, v) in t1.decisions.values()
        )
        and len(t1.decisions) == n,
        "eps2_agreement_fails": not oracle_check(t2, cfg2.horizon).agreement_ok,
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "safety_witness": witness.to_json_dict() if witness else None,
        "eps1_decisions": t1.decision_events(),
        "eps2_decisions": t2.decision_events(),
    }


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


def hop_fallacy_report(n: int) -> dict:
    """Measure the scenario: the root reaches every process within two hops
    in each cycle graph, yet its initial state needs n-1 rounds to reach
    process n, so no dynamic diameter of 2 holds."""
    lasso_seq = scenario_hop_fallacy(n)
    causal = next((b for b in range(1, n + 1) if 1 in causal_past(lasso_seq, n, 0, b)), None)
    # per cycle graph g, the least b by which 1's round-0 state reaches everyone under g alone (n if never)
    per_round = max(next((b for b in range(n) if all(1 in causal_past(one, p, 0, b) for p in range(1, n + 1))), n)
                    for one in (LassoSequence((), (g,)) for g in lasso_seq.cycle))
    diameter_witness = check_dynamic_diameter(lasso_seq, min(2, n - 1), horizon=n + 2)
    checks = {
        "causal_distance_is_n_minus_1": causal == n - 1,
        "per_round_distance_is_2": per_round == 2,
        "small_diameter_refuted": diameter_witness is not None,
    }
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "causal_distance": causal,
        "per_round_distance": per_round,
    }


# --- fuzzing ----------------------------------------------------------------


@dataclass(frozen=True)
class FuzzTrial:
    """One trial's outcome.  A failed trial's ``kind`` says what failed:
    ``config`` (its configuration was rejected, a ValueError), ``generator``
    (generation gave up, an AdversaryError), ``invariant`` (an
    EngineInvariantError, or any other exception: a fault in the program) or
    ``oracle`` (the run finished and an oracle failed)."""

    index: int
    seed: int
    n: int
    D: int
    deadline: int
    ok: bool
    detail: Optional[str] = None
    kind: Optional[str] = None


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
                {"index": f.index, "seed": f.seed, "n": f.n, "D": f.D, "kind": f.kind, "detail": f.detail}
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
):
    """One generated, certified, executed and oracle-checked run.

    The oracle deadline comes from the certificate the generator's own
    check of the lasso issued, not from its plan.  Returns (run, report,
    certificate).
    """
    params = AdversaryParams(n=n, D=D, seed=seed, r_sr_target=r_sr)
    if adversary == "estable":
        lasso_seq, cert = generate_estable(params)
    elif adversary == "altestable":
        generated = generate_alt_estable(params)
        lasso_seq, cert = generated.lasso, generated.certificate
    else:
        raise ValueError(f"unknown adversary {adversary!r}")
    deadline = cert.deadline
    cfg = RunConfig(n, D, inputs, lasso_seq, deadline + D + 2, mode=mode)
    run = run_execution(cfg)
    run.certificate = cert
    return run, oracle_check(run, deadline), cert


def _failure_kind(exc: Exception) -> str:
    if isinstance(exc, ValueError):
        return "config"
    if isinstance(exc, AdversaryError):
        return "generator"
    return "invariant"


def _run_fuzz_case(case: tuple) -> FuzzTrial:
    index, adversary, trial_seed, n, D, r_sr, inputs, mode = case
    detail = kind = None
    deadline = -1
    try:
        _, report, cert = fuzz_trial(adversary, trial_seed, n, D, r_sr, inputs, mode)
        ok = report.all_ok
        deadline = cert.deadline
        if not ok:
            detail = json.dumps(report.to_json_dict(), sort_keys=True)
            kind = "oracle"
    except Exception as exc:  # noqa: BLE001 - a fuzz trial must never abort the campaign
        ok = False
        detail = f"{type(exc).__name__}: {exc}"
        kind = _failure_kind(exc)
    return FuzzTrial(index, trial_seed, n, D, deadline, ok, detail, kind)


def _fuzz_cases(trials: int, seed: int, adversary: str, n_range: tuple, d_cap: int, mode: str):
    """The campaign's trial cases, sampled one at a time from its seed."""
    rng = random.Random(f"fuzz:{seed}")
    for index in range(trials):
        n = rng.randint(*n_range)
        D = rng.randint(1, min(d_cap, n - 1))
        trial_seed = rng.getrandbits(48)
        lo = 1 if adversary == "estable" else D + 2
        r_sr = rng.randint(lo, max(lo, FUZZ_R_SR_MAX))
        inputs = tuple(rng.randint(0, 99) for _ in range(n))
        yield (index, adversary, trial_seed, n, D, r_sr, inputs, mode)


def _pooled_fuzz_cases(cases, jobs: int):
    """The trials of ``cases`` run on ``jobs`` worker processes, in order.
    ``Executor.map`` takes its whole iterable at once, so the cases go to it
    in batches of ``FUZZ_BATCH_PER_JOB`` per worker."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while batch := list(islice(cases, jobs * FUZZ_BATCH_PER_JOB)):
            yield from pool.map(_run_fuzz_case, batch, chunksize=8)


def fuzz_campaign(
    trials: int,
    seed: int,
    adversary: str = "estable",
    n_range: tuple = (2, 8),
    d_cap: int = 3,
    mode: str = "full",
    jobs: int = 1,
) -> FuzzSummary:
    """Deterministically sample configurations, run them, aggregate pass/fail.

    Trials are sampled from the seed alone, one at a time as they are run,
    and their results are folded in trial order, so results are identical
    for any ``jobs`` count and memory stays bounded however many trials run;
    each trial owns all of its state.  A bad ``adversary``, ``mode``,
    ``n_range`` or ``d_cap``, a ``jobs`` outside ``1..os.cpu_count()``, or a
    bounded window shorter than 2D+1 for the largest D that can be sampled,
    raises ValueError before any trial is sampled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cpus = os.cpu_count() or 1
    if not (1 <= jobs <= cpus):
        raise ValueError(f"jobs must be in 1..{cpus} (the CPU count), got {jobs}")
    if adversary not in ("estable", "altestable"):
        raise ValueError(f"unknown adversary {adversary!r}")
    if not (2 <= n_range[0] <= n_range[1] <= MAX_RUN_PROCESSES):
        raise ValueError(f"n range must satisfy 2 <= lo <= hi <= {MAX_RUN_PROCESSES}, got {n_range[0]}:{n_range[1]}")
    if d_cap < 1:
        raise ValueError(f"d_cap must be >= 1, got {d_cap}")
    parse_mode(mode, min(d_cap, n_range[1] - 1))
    cases = _fuzz_cases(trials, seed, adversary, n_range, d_cap, mode)
    results = _pooled_fuzz_cases(cases, jobs) if jobs > 1 else map(_run_fuzz_case, cases)
    summary = FuzzSummary(adversary=adversary, trials=trials, passed=0)
    for res in results:
        if res.ok:
            summary.passed += 1
        else:
            summary.failures.append(res)
    return summary
