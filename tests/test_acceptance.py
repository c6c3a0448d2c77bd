"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from dataclasses import dataclass

import pytest

from conftest import random_lasso, run_with_snapshots
from oracles import (
    brute_force_roots,
    causal_past_forward,
    naive_causal_past,
    out_row_mask,
    reference_c2_check,
    reference_evidence,
    reference_run,
)

import rootcons.consensus as consensus_mod
from rootcons.adversary import (
    AdversaryParams,
    check_alt_estable,
    check_estable,
    diagnose,
    generate_alt_estable,
    generate_estable,
)
from rootcons.graphs import (
    CommGraph,
    causal_past,
    mask_layout,
    root_components,
)
from rootcons.harness import (
    RunConfig,
    eps_pair_report,
    fuzz_trial,
    oracle_check,
    run_execution,
    scenario_stab_not_enough,
)


def report(criterion: str, ok: bool, detail: str):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@dataclass(frozen=True)
class Instance:
    n: int
    D: int
    seed: int
    r_sr: int
    inputs: tuple
    lasso: object
    certificate: object
    decision_events: tuple
    oracle_ok: bool


@pytest.fixture(scope="module")
def estable_batch():
    """500 seeded instances shared by criteria 1, 4, 6 and 8."""
    rng = random.Random("acceptance-estable")
    out = []
    for _ in range(500):
        n = rng.randint(2, 8)
        D = rng.randint(1, min(3, n - 1))
        r_sr = rng.randint(1, 12)
        seed = rng.getrandbits(48)
        inputs = tuple(rng.randint(0, 2**31) for _ in range(n))
        trace, rep, cert = fuzz_trial("estable", seed, n, D, r_sr, inputs)
        out.append(
            Instance(n, D, seed, r_sr, inputs, trace.config.lasso, cert,
                     tuple(trace.decision_events()), rep.all_ok)
        )
    return out


def test_criterion_1_upper_bound(estable_batch):
    t0 = time.time()
    failures = [i for i in estable_batch if not i.oracle_ok]
    exact = all(i.certificate.deadline == i.certificate.r_sr + 2 * i.D for i in estable_batch)
    report(
        "1 (termination by r_sr + 2D under the eventually-stable adversary)",
        not failures and exact,
        f"{len(estable_batch) - len(failures)}/{len(estable_batch)} instances satisfy "
        f"agreement+validity+deadline, {time.time() - t0:.1f}s (generation included in fixture)",
    )


def test_criterion_2_generalized_upper_bound():
    t0 = time.time()
    rng = random.Random("acceptance-altestable")
    total, passed, spurious_seen = 0, 0, 0
    for i in range(500):
        force_spurious = i % 10 < 3  # 150 spurious-early-root variants
        if force_spurious:
            n = rng.randint(4, 8)
            D = rng.randint(1, min(3, n - 1))
            r_gst = 3 * D + 6 + rng.randint(0, 3)
            r_sr = r_gst + rng.randint(0, D)
            params = AdversaryParams(
                n=n, D=D, seed=rng.getrandbits(48), r_gst_target=r_gst, r_sr_target=r_sr
            )
            lasso_seq, planted = generate_alt_estable(params, spurious=True)
            assert planted.params["spurious"] is not None
            spurious_seen += 1
            horizon = max(lasso_seq.default_horizon(), planted.deadline + 1)
            cert = check_alt_estable(lasso_seq, D, horizon)
            inputs = tuple(rng.randint(0, 2**31) for _ in range(n))
            cfg = RunConfig(n, D, inputs, lasso_seq, cert.deadline + D + 2)
            trace = run_execution(cfg)
            rep = oracle_check(trace, cert.deadline)
        else:
            n = rng.randint(2, 8)
            D = rng.randint(1, min(3, n - 1))
            r_sr = rng.randint(D + 2, 12)
            inputs = tuple(rng.randint(0, 2**31) for _ in range(n))
            _, rep, cert = fuzz_trial("altestable", rng.getrandbits(48), n, D, r_sr, inputs)
        total += 1
        passed += rep.all_ok
    report(
        "2 (termination by the final guaranteed re-appearance round r_D)",
        passed == total and spurious_seen == 150,
        f"{passed}/{total} instances pass with deadline r_D "
        f"({spurious_seen} spurious-early-root variants), {time.time() - t0:.1f}s",
    )


def test_criterion_3_tightness_witness():
    t0 = time.time()
    results = []
    for n in range(4, 9):
        for D in range(1, n - 2):
            results.append(((n, D, 0), eps_pair_report(n, D)))
    for prefix in (1, 3):
        results.append(((5, 2, prefix), eps_pair_report(5, 2, prefix)))
        results.append(((6, 2, prefix), eps_pair_report(6, 2, prefix)))
    bad = [(key, rep["checks"]) for key, rep in results if not rep["ok"]]
    report(
        "3 (matched lower/upper bound executions)",
        not bad,
        f"{len(results) - len(bad)}/{len(results)} (n, D, prefix) cases: certified pair, "
        f"second chain process indistinguishable through 2D, consensus completes at exactly "
        f"r_sr + 2D, {time.time() - t0:.1f}s"
        + (f"; failing: {bad[:2]}" if bad else ""),
    )


def test_criterion_4_containment(estable_batch):
    t0 = time.time()
    alt_ok = 0
    vsrc_ok = 0
    for inst in estable_batch:
        if check_alt_estable(inst.lasso, inst.D) is not None:
            alt_ok += 1
        if diagnose("vsrc", inst.lasso, {"D": inst.D, "window": 4 * inst.D}).ok:
            vsrc_ok += 1
    n = len(estable_batch)
    report(
        "4 (every eventually-stable lasso is also alt-stable and vsrc(4D))",
        alt_ok == n and vsrc_ok == n,
        f"alt: {alt_ok}/{n}, vsrc: {vsrc_ok}/{n}, {time.time() - t0:.1f}s",
    )


def test_criterion_5_late_edge_equivalence():
    t0 = time.time()
    rng = random.Random("acceptance-late-edge")
    runs, checked = 0, 0
    ok = True
    for _ in range(200):
        n = rng.randint(2, 6)
        horizon = rng.randint(4, 12)
        lasso_seq = random_lasso(rng, n, horizon, density=rng.uniform(0.1, 0.5))
        inputs = tuple(rng.randint(0, 99) for _ in range(n))
        cfg = RunConfig(n, rng.randint(1, n - 1) if n > 1 else 1, inputs, lasso_seq, horizon)
        _, snapshots = run_with_snapshots(cfg)
        lay = mask_layout(n)
        runs += 1
        for r2 in range(1, horizon + 1):
            cp_levels = {}
            for p in range(1, n + 1):
                cp_levels[p] = {
                    r: naive_causal_past(lasso_seq.graph, p, r, r2) for r in range(0, r2)
                }
            for p in range(1, n + 1):
                approx = dict(snapshots[r2][p][4])
                maxout = {}
                for q in range(1, n + 1):
                    row = out_row_mask(q, lay)
                    maxout[q] = max(
                        (r for r, mask in approx.items() if 1 <= r <= r2 and mask & row),
                        default=None,
                    )
                for q in range(1, n + 1):
                    for r in range(0, r2):
                        influences_truth = q in cp_levels[p][r]
                        late_edge = maxout[q] is not None and maxout[q] > r
                        checked += 1
                        if influences_truth != late_edge:
                            ok = False
    report(
        "5 (influence iff a later outgoing edge is approximated)",
        ok,
        f"{checked} quadruples over {runs} random runs, {time.time() - t0:.1f}s",
    )


def test_criterion_6_lock_invariants(estable_batch):
    # the engine's monitor asserts the lock invariants every round of every
    # run (own row fully known; every copy equals the owner's value;
    # influence implies holding the row); any violation would have aborted
    # the criterion 1/2 runs before their traces existed
    monitored = RunConfig.__dataclass_fields__["check_invariants"].default is True
    produced = len(estable_batch) == 500
    sample_ok = True
    for inst in estable_batch[:50]:
        cfg = RunConfig(inst.n, inst.D, inst.inputs, inst.lasso,
                        inst.certificate.deadline + inst.D + 2)
        trace = run_execution(cfg)
        for p, st in trace.states.items():
            own = st.locks[p]
            if any(r not in own for r in range(0, st.m + 1)):
                sample_ok = False
    report(
        "6 (lock matrix invariants hold every round)",
        monitored and produced and sample_ok,
        "in-run monitor active on all criterion 1-2 executions, zero violations; "
        "own-row completeness re-verified on 50 replays",
    )


def test_criterion_7_safety_necessity():
    t0 = time.time()
    n, D = 6, 1
    cfg1, _ = scenario_stab_not_enough(n, tau=1, D=D)
    t1 = run_execution(cfg1)
    tau = t1.decisions[1][0]  # head's decision round in the benign run
    _, cfg2 = scenario_stab_not_enough(n, tau=tau, D=D)
    witness = diagnose("safety", cfg2.lasso, {"x": D}).witness
    witness_ok = (
        witness is not None
        and witness.root == frozenset([1])
        and (witness.start, witness.end) == (1, tau)
    )
    t2 = run_execution(cfg2)
    rep = oracle_check(t2, cfg2.horizon)
    report(
        "7 (safety violations are exactly what breaks agreement)",
        witness_ok and not rep.agreement_ok and not check_estable(cfg2.lasso, D),
        f"safety witness ({{1}}, [1,{tau}]) emitted and the same lasso makes the algorithm "
        f"split its decision {rep.agreement_witness}, {time.time() - t0:.1f}s",
    )


def test_criterion_8_bounded_history(estable_batch):
    t0 = time.time()
    mismatches = 0
    for inst in estable_batch:
        keep = 2 * inst.D + 1
        cfg = RunConfig(
            inst.n, inst.D, inst.inputs, inst.lasso,
            inst.certificate.deadline + inst.D + 2, mode=f"bounded:{keep}",
        )
        trace = run_execution(cfg)
        if tuple(trace.decision_events()) != inst.decision_events:
            mismatches += 1
    # the documented failure mode: re-appearances pushed past the retained
    # window make bounded mode miss the decisive interval entirely
    n, D = 5, 2
    keep = 2 * D + 1
    lasso_seq, planted = generate_alt_estable(
        AdversaryParams(n=n, D=D, seed=11, r_sr_target=5),
        tail="sparse",
        gap_range=(2 * D + 2, 2 * D + 2),
    )
    assert planted.reappearances[-1] > planted.r_sr + D + keep
    cert = check_alt_estable(lasso_seq, D, max(lasso_seq.default_horizon(), planted.deadline + 1))
    inputs = (5, 9, 1, 7, 3)
    full = run_execution(RunConfig(n, D, inputs, lasso_seq, cert.deadline + D + 2))
    bounded = run_execution(RunConfig(n, D, inputs, lasso_seq, cert.deadline + D + 2, mode=f"bounded:{keep}"))
    full_ok = oracle_check(full, cert.deadline).all_ok
    bounded_fails = not oracle_check(bounded, cert.deadline).termination_ok
    report(
        "8 (bounded history 2D+1 is lossless under the stable adversary)",
        mismatches == 0 and full_ok and bounded_fails,
        f"{len(estable_batch) - mismatches}/{len(estable_batch)} identical decision sequences; "
        f"late-re-appearance construction decides in full mode but stalls in bounded mode, "
        f"{time.time() - t0:.1f}s",
    )


@pytest.mark.parametrize("history", ["full", "bounded"])
def test_reference_state_differential(estable_batch, monkeypatch, history):
    # the shared-row state must be indistinguishable from the copied-history
    # reference in tests/oracles.py: every process's snapshot, taken directly
    # after every round, and every decision event, on the whole acceptance batch
    t0 = time.time()
    mismatches = []
    for inst in estable_batch:
        mode = "full" if history == "full" else f"bounded:{2 * inst.D + 1}"
        cfg = RunConfig(inst.n, inst.D, inst.inputs, inst.lasso,
                        inst.certificate.deadline + inst.D + 2, mode=mode)
        trace, direct = run_with_snapshots(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(consensus_mod, "evidence", reference_evidence)
            snapshots, events = reference_run(cfg, consensus_mod.core_step)
        if direct != snapshots or trace.decision_events() != events:
            mismatches.append(inst.seed)
    report(
        f"reference differential ({history} history)",
        not mismatches,
        f"{len(estable_batch) - len(mismatches)}/{len(estable_batch)} runs with identical "
        f"per-round snapshots and decision events, {time.time() - t0:.1f}s"
        + (f"; first mismatching seed {mismatches[0]}" if mismatches else ""),
    )


@pytest.mark.parametrize("history", ["full", "bounded"])
@pytest.mark.parametrize("n", [24, 32])
def test_reference_differential_past_sixteen(monkeypatch, n, history):
    # the same differential at n past 16, where both the layout and the
    # monitor's ground truth run at width 32, on two certified estable lassos
    t0 = time.time()
    D = 3
    mode = "full" if history == "full" else f"bounded:{2 * D + 1}"
    rng = random.Random(f"reference-past-16:{n}")
    mismatches = []
    for _ in range(2):
        seed = rng.getrandbits(48)
        lasso_seq, _ = generate_estable(AdversaryParams(n=n, D=D, seed=seed, r_sr_target=rng.randint(4, 10)))
        cert = check_estable(lasso_seq, D)
        inputs = tuple(rng.randint(0, 99) for _ in range(n))
        cfg = RunConfig(n, D, inputs, lasso_seq, cert.deadline + D + 2, mode=mode)
        trace, direct = run_with_snapshots(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(consensus_mod, "evidence", reference_evidence)
            snapshots, events = reference_run(cfg, consensus_mod.core_step)
        if direct != snapshots or trace.decision_events() != events or not oracle_check(trace, cert.deadline).all_ok:
            mismatches.append(seed)
    report(
        f"reference differential at n={n} ({history} history)",
        not mismatches,
        f"{2 - len(mismatches)}/2 runs with identical per-round snapshots and decision events "
        f"that pass every oracle, {time.time() - t0:.1f}s"
        + (f"; first mismatching seed {mismatches[0]}" if mismatches else ""),
    )


@pytest.mark.parametrize("history", ["full", "bounded"])
def test_resumed_c2_matches_full_rescan(estable_batch, monkeypatch, history):
    # every c2 evaluation (each process, each round before it decides) must
    # return what a full rescan of the retained rounds returns
    t0 = time.time()
    c2_check = consensus_mod.c2_check
    checked, mismatches = [], []

    def compared(s, D):
        hit = c2_check(s, D)
        checked.append(hit is not None)
        if hit != reference_c2_check(s, D):
            mismatches.append((s.pid, s.m))
        return hit

    monkeypatch.setattr(consensus_mod, "c2_check", compared)
    for inst in estable_batch:
        mode = "full" if history == "full" else f"bounded:{2 * inst.D + 1}"
        cfg = RunConfig(inst.n, inst.D, inst.inputs, inst.lasso,
                        inst.certificate.deadline + inst.D + 2, mode=mode, check_invariants=False)
        run_execution(cfg)
    report(
        f"resumed c2 ({history} history)",
        not mismatches and any(checked),
        f"{len(checked) - len(mismatches)}/{len(checked)} c2 evaluations ({sum(checked)} hits) "
        f"equal to a full rescan, {time.time() - t0:.1f}s"
        + (f"; first mismatch (pid, round) {mismatches[0]}" if mismatches else ""),
    )


def test_criterion_9_oracle_cross_validation():
    t0 = time.time()
    graphs_checked = 0
    roots_ok = True
    for n in range(1, 5):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = CommGraph.of(n, edges)
            graphs_checked += 1
            if root_components(g) != brute_force_roots(g):
                roots_ok = False
    rng = random.Random("acceptance-cp")
    cp_ok = True
    for _ in range(1000):
        n = rng.randint(2, 6)
        lasso_seq = random_lasso(rng, n, rng.randint(2, 8))
        hi = rng.randint(1, 10)
        p = rng.randint(1, n)
        b = rng.randint(1, hi)
        a = rng.randint(0, b)
        if causal_past(lasso_seq, p, a, b) != causal_past_forward(lasso_seq, p, a, b):
            cp_ok = False
    report(
        "9 (implementations agree with definitional oracles)",
        roots_ok and cp_ok,
        f"root components exhaustively verified on {graphs_checked} digraphs (n <= 4); "
        f"backward and forward causal-past agree on 1000 random windows, {time.time() - t0:.1f}s",
    )
