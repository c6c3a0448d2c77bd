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
``heard[p][p] = m``).  After every round it requires, for every p, that
p's ``known`` holds exactly the slots that row of the matrix implies (q in
the slot of round r iff ``heard[p][q] >= r``, for r in ``lo..m``), that p
holds the run's row table itself, and that p's own row gained exactly the
right round-m cell: the true in-edges, the lock value the monitor tracks
(carried forward, or the core step's re-proposal), and nothing outside
``lo..m``.  Since a state's lock view is derived from ``known`` and the
run's row table alone, this makes it exact.  The approximation is a
per-round cache updated at merge time, so the monitor checks it too:
``masks[r]`` must be the true round-r edges into ``{v : heard[p][v] >= r}``
for every r in ``lo..m``, and no other round may be held.  The monitor
keeps each process's expected ``known`` int and masks dict, updated only at
the rounds whose heads rose, and compares each whole value in one step;
only on a mismatch does it walk the slots and rounds to name the first that
differs.

A run records no per-round state.  Indistinguishability rebuilds a
process's state at every round from the trace by the same rules, with lock
cells from the lock outcomes and ``y`` from the decision events.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Optional

from . import consensus
from .adversary import (
    AdversaryCertificate,
    AdversaryError,
    AdversaryParams,
    check_alt_estable,
    check_estable,
    check_safety,
    generate_alt_estable,
    generate_estable,
)
from .approximation import (
    init_states,
    make_message,
    parse_mode,
    receive_and_merge,
    window_start,
)
from .consensus import core_step
from .graphs import (
    CommGraph,
    LassoSequence,
    causal_past,
    check_dynamic_diameter,
    lasso_to_json_dict,
    mask_layout,
)


MAX_RUN_PROCESSES = 64  # the largest n that run_execution and fuzz_campaign accept


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
        if self.n > MAX_RUN_PROCESSES:
            raise ValueError(f"n must be <= {MAX_RUN_PROCESSES}, got {self.n}")
        if self.lasso.n != self.n:
            raise ValueError(f"lasso is over {self.lasso.n} processes, config says {self.n}")
        if len(self.inputs) != self.n:
            raise ValueError(f"need {self.n} inputs, got {len(self.inputs)}")
        if not (1 <= self.D <= self.n - 1):
            raise ValueError(f"D must satisfy 1 <= D <= n-1, got D={self.D}, n={self.n}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        parse_mode(self.mode, self.D)


@dataclass
class Trace:
    """Complete record of one run: graphs, per-round outcomes, decision
    events and final states.  ``rebuilt`` memoizes, per process, the states
    that indistinguishability rebuilds from the rest."""

    config: RunConfig
    round_graphs: list
    outcomes: list
    decisions: dict
    states: dict
    certificate: Optional[AdversaryCertificate] = None
    rebuilt: dict = field(default_factory=dict, repr=False)

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


class _GroundTruth:
    """The ``heard`` matrix (-1 for none), each owner's current ``lock`` and
    the true mask of every retained round, and for each p in ``pids`` the
    ``known`` int and masks dict p's state must hold.  Graphs and states
    share the n-process edge-mask layout, whose width is also the width of a
    ``known`` slot."""

    def __init__(self, cfg: RunConfig, pids):
        self.keep, self.lock = parse_mode(cfg.mode), list(cfg.inputs)
        lay = mask_layout(cfg.n)
        self.width = lay.width
        self.into = [lay.into(v) for v in range(1, cfg.n + 1)]  # every edge into v, by v-1
        self.heard = [[0 if q == p else -1 for q in range(cfg.n)] for p in range(cfg.n)]
        self.lo = 0
        self.true_masks = {0: 0}
        self.expected = {p: [1 << (p - 1), {0: 0}] for p in pids}

    def advance(self, m: int, g: CommGraph, outcomes: list) -> int:
        """Step to the end of round m, each expectation updated only where a
        head rose; returns the window start ``lo``."""
        senders = [[] for _ in self.heard]
        for (u, v) in g.edges:
            senders[v - 1].append(self.heard[u - 1])
        previous, self.heard = self.heard, [[max(col) for col in zip(*rows)] for rows in senders]
        for p, known in enumerate(self.heard):
            known[p] = m
        lo, width = window_start(self.keep, m), self.width
        dropped, self.lo = (lo - self.lo) * width, lo
        into, true_masks = self.into, self.true_masks
        true_masks[m] = g.mask
        true_masks.pop(lo - 1, None)
        for p, expected in self.expected.items():
            known, masks = expected
            masks[m] = 0
            masks.pop(lo - 1, None)
            gained, base = 0, m + 1  # the new bits, gained's slot 0 being round base
            for v, (was, h) in enumerate(zip(previous[p - 1], self.heard[p - 1])):
                if h > was and h >= lo:
                    heads = into[v]
                    first = max(was + 1, lo)
                    if first < base:
                        gained, base = gained << (base - first) * width, first
                    for r in range(first, h + 1):
                        masks[r] |= true_masks[r] & heads
                        gained |= 1 << ((r - base) * width + v)
            expected[0] = known >> dropped | gained << (base - lo) * width
        for q, out in enumerate(outcomes):
            if out.locked is not None:
                self.lock[q] = out.locked[2]
        return lo


class _InvariantMonitor(_GroundTruth):
    """Checks every process's state against the ground truth; ``rows`` is the
    run's row table, which every state must hold."""

    def __init__(self, cfg: RunConfig, rows: dict, pids):
        super().__init__(cfg, pids)
        self.rows = rows

    def after_round(self, m: int, g: CommGraph, states: dict, outcomes: list):
        lo, rows = self.advance(m, g, outcomes), self.rows
        for p, (known, masks) in self.expected.items():
            st, own, inmask = states[p], rows[p], g.mask & self.into[p - 1]
            if (
                st.known == known
                and st.rows is rows
                and st.masks == masks
                and st.lo == lo
                and own.inmask.get(m) == inmask
                and own.lock.get(m) == self.lock[p - 1]
                and len(own.lock) == len(own.inmask) == m - lo + 1
            ):
                continue
            problem = self._violation(st, p, m, lo, inmask)
            raise EngineInvariantError(p, m, f"{problem} (heard[{p}]={self.heard[p - 1]}; rounds {lo}..{m} kept)")

    def _processes(self, slot: int) -> list:
        return [i + 1 for i in range(self.width) if slot >> i & 1]

    def _violation(self, st, p: int, m: int, lo: int, inmask: int) -> str:
        """What is wrong with p's state after round m, walked check by check
        (the first failing one is named); the fast check has failed."""
        width, known = self.width, self.expected[p][0]
        slot = (1 << width) - 1
        for r in range(lo, m + 1):
            has, want = st.known >> (r - lo) * width & slot, known >> (r - lo) * width & slot
            if has != want:
                return f"known[{r}] is {self._processes(has)}, expected {self._processes(want)}"
        if st.known >> (m - lo + 1) * width:
            return f"known holds slots past round {m}"
        if st.rows is not self.rows:
            return "rows is not the run's row table"
        own, edges = self.rows[p], st.layout.edges
        if own.inmask.get(m) != inmask:
            has = edges(own.inmask[m]) if m in own.inmask else "absent"
            return f"inmask[{p}][{m}] is {has}, expected {edges(inmask)}"
        if own.lock.get(m) != self.lock[p - 1]:
            return f"lock[{p}][{m}] is {own.lock.get(m, 'absent')}, expected {self.lock[p - 1]}"
        if not len(own.lock) == len(own.inmask) == m - lo + 1:
            return f"row[{p}] holds rounds {sorted(own.lock.keys() | own.inmask.keys())}, expected {lo}..{m}"
        masks = self.expected[p][1]
        for r in range(m, lo - 1, -1):
            if st.masks.get(r) != masks[r]:
                has = edges(st.masks[r]) if r in st.masks else "absent"
                return f"approx[{r}] is {has}, expected {edges(masks[r])}"
        if len(st.masks) != m - lo + 1:
            return f"approx holds rounds {sorted(st.masks)}, expected {lo}..{m}"
        return f"lo is {st.lo}, expected {lo}"


def run_execution(cfg: RunConfig, keep_snapshots: bool = True) -> Trace:
    """Execute the protocol for ``cfg.horizon`` rounds and record everything.

    ``keep_snapshots`` has no effect: a run records no per-round state, and
    :func:`indistinguishable` rebuilds it from the trace.
    """
    states = init_states(cfg.inputs, cfg.mode)
    monitor = _InvariantMonitor(cfg, states[1].rows, states) if cfg.check_invariants else None
    round_graphs = []
    outcomes = []
    decisions = {}
    for m in range(1, cfg.horizon + 1):
        g = cfg.lasso.graph(m)
        round_graphs.append(g)
        messages = [make_message(st) for st in states.values()]
        for p, ins in zip(states, g.in_lists):
            receive_and_merge(states[p], [messages[q - 1] for q in ins], m)
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
            monitor.after_round(m, g, states, per_round)
    return Trace(cfg, round_graphs, outcomes, decisions, states)


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


def oracle_check(trace: Trace, deadline: int) -> OracleReport:
    """Agreement, validity, and all-decided-by-``deadline``, with minimal
    witnesses; ``blocking`` names, for each undecided process, the decision
    condition its final state fails (``consensus.blocker``)."""
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
        blocking=tuple((p, consensus.blocker(trace.states[p])) for p in undecided),
    )


def _rebuilt_states(trace: Trace, p: int) -> list:
    """p's state at the end of every round 0..horizon in the layout of
    ``NodeState.snapshot()``, rebuilt from the trace by the ground truth, with
    q's lock cells from the lock outcomes, and memoized on it."""
    if p not in trace.rebuilt:
        cfg = trace.config
        cells = [[(0, x)] for x in cfg.inputs]  # cells[q-1][r] = (r, q's lock after round r)
        truth = _GroundTruth(cfg, [p])
        masks = truth.expected[p][1]
        decided, y = trace.decisions.get(p, (cfg.horizon + 1, None))
        lo, states = 0, []
        for m in range(cfg.horizon + 1):
            if m:
                lo = truth.advance(m, trace.round_graphs[m - 1], trace.outcomes[m - 1])
                for row, lock in zip(cells, truth.lock):
                    row.append((m, lock))
            heard = truth.heard[p - 1]  # q has a retained cell iff heard[q-1] >= lo
            locks = tuple((q, tuple(row[lo : h + 1])) for q, (row, h) in enumerate(zip(cells, heard), 1) if h >= lo)
            y_m = y if m >= decided else None
            states.append((p, m, cfg.inputs[p - 1], y_m, tuple(masks.items()), locks, truth.keep))
        trace.rebuilt[p] = states
    return trace.rebuilt[p]


def indistinguishable(trace_a: Trace, trace_b: Trace, p: int, through: int) -> bool:
    """True iff p's full state matches in both traces at the end of every
    round up to ``through`` (round 0 compares the initial states), its states
    rebuilt from each trace.  Two runs with different windows never match."""
    if through > min(trace_a.config.horizon, trace_b.config.horizon):
        raise ValueError(f"traces do not cover round {through}")
    return _rebuilt_states(trace_a, p)[: through + 1] == _rebuilt_states(trace_b, p)[: through + 1]


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


def stab_not_enough_report(n: int, tau: int, D: int = 1) -> dict:
    """Run the pair and check that the second run has exactly the expected
    safety witness and splits its decision, while the first agrees."""
    cfg1, cfg2 = scenario_stab_not_enough(n, tau, D)
    witness = check_safety(cfg2.lasso, D)
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


def _depth_from(g: CommGraph, src: int) -> int:
    """Largest distance from ``src`` to a process of ``g``; ``g.n`` if one is unreachable."""
    reached = {src}
    for depth in range(g.n):
        if len(reached) == g.n:
            return depth
        reached |= {v for u in reached for v in g.out_neighbors(u)}
    return g.n


def hop_fallacy_report(n: int) -> dict:
    """Measure the scenario: the root reaches every process within two hops
    in each cycle graph, yet its initial state needs n-1 rounds to reach
    process n, so no dynamic diameter of 2 holds."""
    lasso_seq = scenario_hop_fallacy(n)
    w = lasso_seq.window(1, n)
    causal = next((b for b in range(1, n + 1) if 1 in causal_past(w, n, 0, b)), None)
    per_round = max(_depth_from(g, 1) for g in lasso_seq.cycle)
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
    trace = run_execution(cfg)
    trace.certificate = cert
    return trace, oracle_check(trace, deadline), cert


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
    count; each trial owns all of its state.  A bad ``adversary``, ``mode``,
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
