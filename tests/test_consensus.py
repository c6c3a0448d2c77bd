import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import open_c2_gate, random_lasso, run_with_snapshots
from oracles import (
    approx_roots,
    reference_c2_check,
    reference_confirmed_roots,
    reference_run,
    reference_run_start,
)

import rootcons.consensus as consensus_mod
import rootcons.harness as harness_mod
from rootcons.adversary import AdversaryError, AdversaryParams, generate_alt_estable, generate_estable
from rootcons.consensus import (
    CoreStepOutcome,
    InvariantViolationError,
    c2_check,
    confirmed_roots,
    core_step,
)
from rootcons.approximation import evidence, init_states, window_start
from rootcons.graphs import CommGraph, lasso, root_components
from rootcons.harness import RunConfig, fuzz_campaign, fuzz_trial, run_execution


def count_evaluated_rounds(patch) -> list:
    """Wrap the core step's per-round root tests with ``patch``: the rounds
    that ``consensus._runs`` yields to a c2 search (from D rounds before
    its first candidate round ``max(resume, max(1, lo) + D)``, cut at
    max(1, lo), to its hit or m-1), and the round m-D that c1 tests on its
    own when the search did not reach it.  Returns the list the wrappers
    append (the state's round, the evaluated round) to; a core step whose
    searches evaluate one round twice fails its run."""
    walk, step, evaluated, current = consensus_mod._runs, harness_mod.core_step, [], []

    def walked(s, a, b):
        for item in walk(s, a, b):
            current.append(item[0])
            yield item

    def stepped(s, m, D):
        current.clear()
        out = step(s, m, D)
        assert len(set(current)) == len(current), f"p{s.pid} round {m} evaluated {current}"
        if 0 < m - D >= s.tables.lo and m - D not in current:
            current.append(m - D)
        evaluated.extend((m, r) for r in current)
        return out

    patch.setattr(consensus_mod, "_runs", walked)
    patch.setattr(harness_mod, "core_step", stepped)
    return evaluated


def stepped(cfg) -> tuple:
    """(a run of ``cfg`` stepped to its horizon, the outcomes each step
    returned)."""
    run = harness_mod.Run(cfg)
    return run, [run.step() for _ in range(cfg.horizon)]


class TestEmptyEarlyRounds:
    def test_no_op_for_m_up_to_d(self):
        s = init_states((5,))[1]
        for m in (1, 2):  # the clock reaches round 2 as the engine moves it
            s.tables.enter(m, CommGraph.of(1), 2)
        out = core_step(s, 2, D=2)
        assert out == CoreStepOutcome()
        assert s.locks[1].get(2) is None  # no b1 write happened

    def test_no_decisions_before_d_plus_one(self, eps1_lasso):
        cfg = RunConfig(5, 2, (0,) * 5, eps1_lasso, 8)
        trace = run_execution(cfg)
        assert trace.decision_events()[0][0] >= 3


class TestC1B1:
    def test_eps1_head_locks_own_root(self, eps1_lasso):
        cfg = RunConfig(5, 2, (9, 0, 0, 0, 0), eps1_lasso, 6)
        _, outcomes = stepped(cfg)
        locked = outcomes[2][0].locked  # p1 at round 3
        assert locked is not None
        root, a, value = locked
        assert root == frozenset([1]) and value == 9

    def test_eps1_chain_locks_head_value(self, eps1_lasso):
        cfg = RunConfig(5, 2, (9, 0, 0, 0, 0), eps1_lasso, 6)
        _, outcomes = stepped(cfg)
        for p in (3, 4, 5):
            locked = outcomes[2][p - 1].locked
            assert locked is not None and locked[2] == 9

    def test_two_confirmed_roots_blocks_c1(self, eps2_lasso):
        # at p4's round 3, its approximation of round 1 shows both early
        # roots with outgoing-edge evidence: c1 must not fire
        cfg = RunConfig(5, 2, (0, 0, 7, 1, 0), eps2_lasso, 10)
        trace, outcomes = stepped(cfg)
        st = trace.states[4]
        assert outcomes[2][3].locked is None or len(
            confirmed_roots(st, 1)
        ) == 1

    def test_all_equal_inputs_lock_that_value(self, eps1_lasso):
        cfg = RunConfig(5, 2, (4, 4, 4, 4, 4), eps1_lasso, 6)
        _, outcomes = stepped(cfg)
        for per_round in outcomes:
            for out in per_round:
                if out.locked:
                    assert out.locked[2] == 4


class TestC2:
    def test_fresh_state_has_no_interval(self):
        s = init_states((0,))[1]
        assert c2_check(s, D=2) is None

    def test_eps1_every_process_sees_interval_by_deadline(self, eps1_lasso):
        cfg = RunConfig(5, 2, (0,) * 5, eps1_lasso, 5)
        trace = run_execution(cfg)
        for p in range(1, 6):
            hit = c2_check(trace.states[p], D=2)
            assert hit is not None
            root, (a, b) = hit
            assert root == frozenset([1])
            assert b - a + 1 == 3  # exactly D+1, the least qualifying end

    def test_boundary_exactly_d_plus_one_qualifies(self):
        l = lasso(2, cycle=[[(1, 2)]])
        cfg = RunConfig(2, 1, (5, 2), l, 4)
        trace = run_execution(cfg)
        hit = c2_check(trace.states[1], D=1)
        assert hit == (frozenset([1]), (1, 2))


class TestResumedC2:
    @pytest.mark.parametrize("mode", ["full", "bounded:7"])
    def test_matches_full_rescan_on_altestable_fuzz(self, monkeypatch, mode):
        # a campaign turns exceptions into trial failures, so mismatches are
        # collected instead of raised; the verdicts themselves are not checked
        # (altestable lassos may re-appear too late for a bounded window)
        checked, mismatches = [], []

        def compared(s, D, *resume):
            hit = c2_check(s, D, *resume)
            checked.append(hit is not None)
            if hit != reference_c2_check(s, D):
                mismatches.append((s.pid, s.tables.m))
            return hit

        monkeypatch.setattr(consensus_mod, "c2_check", compared)
        fuzz_campaign(trials=100, seed=21, adversary="altestable", n_range=(2, 8), mode=mode)
        assert any(checked) and not mismatches

    def test_recomputes_fewer_rounds_than_a_full_rescan(self, eps2_lasso, monkeypatch):
        def run(rescan_all: bool) -> tuple:
            merge = harness_mod.receive_and_merge

            def merged(s, heard, own, m):
                merge(s, heard, own, m)
                if rescan_all:
                    s.stale_from = 0
                return s

            with monkeypatch.context() as patch:
                calls = count_evaluated_rounds(patch)
                patch.setattr(harness_mod, "receive_and_merge", merged)
                trace = run_execution(RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 14))
            return len(calls), trace.decision_events()

        (resumed, events), (rescanned, full_events) = run(False), run(True)
        assert events == full_events and len(events) == 5
        assert resumed < rescanned  # 100 against 119 rounds evaluated

    @pytest.mark.parametrize("mode", ["full", "bounded:5"])
    def test_never_evaluates_the_current_round(self, eps2_lasso, monkeypatch, mode):
        # the current round's evidence is empty, so it can have no confirmed
        # root: neither c1 nor c2 asks for it, on the eps2 lasso and the CI
        # lasso (generate --n 6 --d 2 --rsr 6 --seed 3)
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        evaluated = count_evaluated_rounds(monkeypatch)
        run_execution(RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 14, mode=mode))
        run_execution(RunConfig(6, 2, (3, 1, 4, 1, 5, 9), l, 60, mode=mode))
        assert evaluated and all(r < m for m, r in evaluated)

    def test_undecided_processes_scan_each_round_about_once(self, monkeypatch):
        # the round graphs alternate 1->2 and 3->4, so p2 and p4 never see a
        # single confirmed root and search c2 every round to the horizon: a
        # full rescan each round would read ~H^2/2 rounds, resuming at the
        # merge's stale_from reads O(H)
        horizon, scanned = 1000, []

        def counted(s, D, resume=0):
            scanned.append(s.tables.m - max(resume, max(1, s.tables.lo) + D) + 1)
            return c2_check(s, D, resume)

        monkeypatch.setattr(consensus_mod, "c2_check", counted)
        l = lasso(4, cycle=[[(1, 2)], [(3, 4)]])
        trace = run_execution(RunConfig(4, 1, (1, 2, 3, 4), l, horizon, check_invariants=False))
        assert sorted(trace.decisions) == [1, 3]
        assert sum(scanned) < 5 * horizon


class TestC3B3:
    def test_own_singleton_root_passes_after_interval(self):
        l = lasso(2, cycle=[[(1, 2)]])
        cfg = RunConfig(2, 1, (5, 2), l, 4)
        trace = run_execution(cfg)
        st = trace.states[1]
        assert evidence(st, 2) & 1
        assert confirmed_roots(st, 2) == [frozenset([1])]

    def test_member_without_later_evidence_defers(self, eps1_lasso):
        cfg = RunConfig(5, 2, (0,) * 5, eps1_lasso, 4)
        trace = run_execution(cfg)
        # p2 at round 4: its approximations of rounds 1..3 all show the head
        # as single root, but no evidence of the head sending after round 3
        # has arrived, so the head is not confirmed there and c2 cannot hold
        st = trace.states[2]
        assert all(approx_roots(st, r) == frozenset([frozenset([1])]) for r in range(1, 4))
        assert not evidence(st, 3) & 1
        assert confirmed_roots(st, 3) == []
        assert c2_check(st, D=2) is None
        assert 2 not in trace.decisions

    def test_decision_is_write_once(self):
        # {1} stays the single root, so a scan after deciding would hit again
        l = lasso(2, cycle=[[(1, 2)]])
        cfg = RunConfig(2, 1, (5, 2), l, 8)
        run = run_execution(cfg)
        st = run.states[1]
        assert st.y == 5
        for _ in range(8):
            assert run.step()[0].decided is None
            assert st.y == 5

    def test_c2_not_called_after_deciding(self, eps1_lasso, monkeypatch):
        calls = []

        def spy(s, D, *resume):
            calls.append((s.pid, s.tables.m, s.y))
            return c2_check(s, D, *resume)

        monkeypatch.setattr(consensus_mod, "c2_check", spy)
        trace = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 12))
        assert trace.latest_decision_round() == 5
        assert calls and all(y is None for (_, _, y) in calls)
        assert all(m <= trace.decisions[pid][0] for (pid, m, _) in calls)

    def test_missing_lock_value_is_an_error(self):
        s = init_states((3,))[1]
        for m in range(1, 5):  # the clock reaches round 4 as the engine moves it
            s.tables.enter(m, CommGraph.of(1), 1)
        with pytest.raises(InvariantViolationError, match=re.escape("p1 b3: lock[2][1] unknown for detected root [2]")):
            consensus_mod._answer(s, frozenset([2]), 1, "b3")


class TestRunStart:
    @pytest.mark.parametrize("history", ["full", "bounded"])
    @pytest.mark.parametrize("adversary", ["estable", "altestable"])
    def test_matches_definition_on_fuzz_trials(self, monkeypatch, adversary, history):
        # every b1/b3 anchor is the least round from which the root is a root
        # of each approximation through the anchor round; bounded runs keep
        # 2D+1 rounds, so the walk back is cut at the window's first round
        run_start = consensus_mod._run_start
        anchors, mismatches = [], []

        def compared(s, root, anchor):
            a = run_start(s, root, anchor)
            anchors.append(a)
            if a != reference_run_start(s, root, anchor):
                mismatches.append((s.pid, s.tables.m, anchor))
            return a

        monkeypatch.setattr(consensus_mod, "_run_start", compared)
        rng = random.Random(f"run-start:{adversary}")
        decisions = 0
        for _ in range(100):
            n = rng.randint(2, 8)
            D = rng.randint(1, min(3, n - 1))
            r_sr = rng.randint(1 if adversary == "estable" else D + 2, 12)
            inputs = tuple(rng.randint(0, 99) for _ in range(n))
            mode = "full" if history == "full" else f"bounded:{2 * D + 1}"
            trace, _, _ = fuzz_trial(adversary, rng.getrandbits(48), n, D, r_sr, inputs, mode)
            decisions += len(trace.decisions)
        assert not mismatches and len(anchors) > decisions > 0

    def test_any_root_and_anchor_matches_backward_walk(self):
        # the run start read from the run's ``starts`` equals the walk back
        # from the anchor, one approx_roots per round, cut at the window's first
        # round, for every root inside slot anchor-1 (where the lemma makes
        # the whole masks' roots and the approximation's agree; every b1/b3
        # root lies there), with anchors asked in any order, so the table
        # grows out of order
        rng = random.Random("run-start-walk")
        for trial in range(40):
            n = rng.randint(2, 7)
            D = rng.randint(1, min(3, n - 1))
            mode = "full" if trial % 2 else f"bounded:{2 * D + 1 + rng.randint(0, 3)}"
            inputs = tuple(rng.randint(0, 99) for _ in range(n))
            trace, _, _ = fuzz_trial("estable", rng.getrandbits(48), n, D, rng.randint(1, 8), inputs, mode)
            for s in trace.states.values():
                low = max(1, s.tables.lo)
                roots = set().union(*(approx_roots(s, r) for r in range(low, s.tables.m + 1)))
                anchors = list(range(s.tables.lo + 1, s.tables.m + 1))
                rng.shuffle(anchors)
                for anchor in anchors:
                    slot = evidence(s, anchor - 1)  # slot anchor-1, a round before the current one
                    for root in roots:
                        if any(not slot >> (q - 1) & 1 for q in root):
                            continue
                        a = anchor
                        while a > low and root in approx_roots(s, a - 1):
                            a -= 1
                        assert consensus_mod._run_start(s, root, anchor) == a, (s.pid, root, anchor)


class TestHorizonCost:
    def test_root_queries_grow_linearly_with_the_horizon(self, monkeypatch):
        # the CI lasso (generate --n 6 --d 2 --rsr 6 --seed 3) in full mode:
        # past stabilization every round locks with the run start found by
        # one lookup, so doubling the horizon at most about doubles the
        # root queries, the rounds whose roots the core step tests (a walk
        # back to the run start made them quadratic)
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        evaluated, counts = count_evaluated_rounds(monkeypatch), []
        for horizon in (1000, 2000):
            evaluated.clear()
            trace = run_execution(RunConfig(6, 2, (3, 1, 4, 1, 5, 9), l, horizon, check_invariants=False))
            assert len(trace.decisions) == 6
            counts.append(len(evaluated))
        assert 0 < counts[0] and counts[1] <= 2.2 * counts[0]


class TestStartTable:
    """The root-run start table is one per run, built from the whole round
    graphs, and held only for the retained rounds."""

    def test_one_table_per_run(self, eps2_lasso):
        trace = run_execution(RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 12))
        states = trace.states
        assert states[1].tables.starts and all(s.tables.starts is states[1].tables.starts for s in states.values())
        other = init_states((0,) * 5)
        assert other[1].tables.starts is not states[1].tables.starts and other[1].tables.starts == {}

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_full_mode_entries_are_the_true_run_starts(self, seed):
        # entry r maps each root R of the true round-r graph to the first
        # round of R's maximal run of rounds through r, cut at round 1
        l, cert = generate_estable(AdversaryParams(n=6, D=2, seed=seed, r_sr_target=4))
        trace = run_execution(RunConfig(6, 2, tuple(range(6)), l, cert.deadline + 10))
        starts = trace.states[1].tables.starts
        assert starts
        for r, entry in starts.items():
            want = {}
            for root in root_components(l.graph(r)):
                a = r
                while a > 1 and root in root_components(l.graph(a - 1)):
                    a -= 1
                want[root] = a
            assert entry == want, r

    def test_bounded_table_holds_no_round_before_the_window(self):
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        trace = run_execution(RunConfig(6, 2, (3, 1, 4, 1, 5, 9), l, 200, mode="bounded:5", check_invariants=False))
        tables = trace.states[1].tables
        assert tables.lo == 195 and tables.starts and min(tables.starts) >= tables.lo and len(tables.starts) <= 6

    def test_bounded_entries_are_the_true_roots_and_run_starts(self):
        # the CI lasso in bounded:5 and in full mode: after every round, for
        # every retained round r from max(1, lo) on, the run's
        # graphs[r-1].root_bits is the true round graph's roots with their
        # member bitsets, and the start entry, read clamped at the window's
        # first round, is the least a from there with R a root of every round
        # graph of a..r; at round lo-1 no state confirms a root, and at round
        # 0, while it is retained, each state confirms its own singleton
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        for mode, keep in (("bounded:5", 5), ("full", None)):
            run = harness_mod.Run(RunConfig(6, 2, (3, 1, 4, 1, 5, 9), l, 60, mode=mode))
            for m in range(1, 61):
                run.step()
                tables, lo = run.tables, window_start(keep, m)
                low = max(1, lo)
                for s in run.states.values():
                    own = [frozenset([s.pid])] if lo == 0 else []
                    assert confirmed_roots(s, 0) == own and confirmed_roots(s, lo - 1) == [], (mode, m, s.pid)
                for r in range(low, m + 1):
                    roots = root_components(l.graph(r))
                    want = {(root, sum(1 << (q - 1) for q in root)) for root in roots}
                    got = tables.graphs[r - 1].root_bits
                    assert len(got) == len(want) and set(got) == want, (mode, m, r)
                    for root in roots:
                        a = r
                        while a > low and root in root_components(l.graph(a - 1)):
                            a -= 1
                        assert max(tables.starts[r][root], low) == a, (mode, m, r, root)


class TestAnswerTable:
    """The b1/b3 answers are one memo per run, entered by the first process
    that asks in a round, emptied at the start of every round, and
    re-checked by every later reader against its own slot."""

    def test_one_table_per_run(self, eps2_lasso):
        trace = run_execution(RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 12))
        states = trace.states
        assert states[1].tables.answers and all(s.tables.answers is states[1].tables.answers for s in states.values())
        other = init_states((0,) * 5)
        assert other[1].tables.answers is not states[1].tables.answers and other[1].tables.answers == {}

    def test_bounded_table_holds_no_anchor_before_the_window(self):
        # every entry left after the run was entered in its last round, for
        # an anchor in the window
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        run = harness_mod.Run(RunConfig(6, 2, (3, 1, 4, 1, 5, 9), l, 200, mode="bounded:5", check_invariants=False))
        for _ in range(199):
            run.step()
        before = run.tables.answers
        run.step()
        s, answers = run.states[1], run.tables.answers
        assert s.tables.lo == 195 and answers and all(anchor >= max(1, s.tables.lo) for anchor, _ in answers)
        assert all(entry is not before.get(key) for key, entry in answers.items())

    def test_full_memo_does_not_grow_with_the_horizon(self):
        # the n=6 CI lasso (generate --n 6 --d 2 --rsr 6 --seed 3): the memo
        # holds the last round's answers, not one entry per round run
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        run = harness_mod.Run(RunConfig(6, 2, (3, 1, 4, 1, 5, 9), l, 4000, check_invariants=False))
        sizes = []
        for m in range(1, 4001):
            run.step()
            if m in (1000, 4000):
                sizes.append(len(run.tables.answers))
        assert 0 < sizes[0] == sizes[1]

    @pytest.mark.parametrize("mode", ["full", "bounded:7"])
    def test_lock_reads_at_sixty_four_processes(self, monkeypatch, mode):
        # the 64-process CI lasso (generate --n 64 --d 3 --rsr 6 --seed 3) to
        # H=200: each answer is computed once per round, not once per process
        # and round (which read 457,063 locks in full mode)
        from rootcons.approximation import NodeState

        l, _ = generate_estable(AdversaryParams(n=64, D=3, seed=3, r_sr_target=6))
        lock_value, calls = NodeState.lock_value, [0]

        def counted(s, q, r):
            calls[0] += 1
            return lock_value(s, q, r)

        monkeypatch.setattr(NodeState, "lock_value", counted)
        trace = run_execution(RunConfig(64, 3, tuple(range(1, 65)), l, 200, mode=mode, check_invariants=False))
        assert len(trace.decisions) == 64
        assert 0 < calls[0] <= 10_000

    def test_a_hit_still_requires_every_member_lock(self, monkeypatch):
        # p1 steps first and enters round M's b1 answer; p2 then finds it, but
        # one member's round-a state is cleared from p2's slot a, so the mask
        # test fails and the full path raises as it would without the table
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        M, D, step, cleared = 30, 2, harness_mod.core_step, []

        def tampered(s, m, d):
            if s.pid == 2 and m == M:
                (anchor, root), (a, _, _) = next(iter(s.tables.answers.items()))
                assert anchor == m - d and a < m - d
                q = min(root)
                s.known &= ~(1 << ((a - s.tables.lo) * s.tables.layout.width + q - 1))
                cleared.append((q, a))
            return step(s, m, d)

        monkeypatch.setattr(harness_mod, "core_step", tampered)
        cfg = RunConfig(6, D, (3, 1, 4, 1, 5, 9), l, M + 1, check_invariants=False)
        with pytest.raises(harness_mod.EngineInvariantError) as info:
            run_execution(cfg)
        (q, a), = cleared
        assert (info.value.pid, info.value.round) == (2, M)
        assert f"lock[{q}][{a}] unknown" in str(info.value)


class TestSharedOutcomes:
    """A step that re-proposes returns the answer table's one lock-only
    outcome, shared by every process that takes that answer; only the step
    in which a process decides builds an outcome of its own."""

    @pytest.mark.parametrize("n, D, mode, horizon", [
        (6, 2, "full", 60),
        (6, 2, "bounded:5", 60),
        (64, 3, "bounded:7", 300),
    ])
    def test_equal_locks_are_one_outcome(self, n, D, mode, horizon):
        # the CI lassos (generate --n N --d D --rsr 6 --seed 3)
        l, _ = generate_estable(AdversaryParams(n=n, D=D, seed=3, r_sr_target=6))
        inputs = (3, 1, 4, 1, 5, 9) if n == 6 else tuple(range(1, n + 1))
        run, outcomes = stepped(RunConfig(n, D, inputs, l, horizon, mode=mode))
        assert len(run.decisions) == n
        pairs, objects = set(), set()
        for m, per_round in enumerate(outcomes, start=1):
            first = {}
            for p, out in enumerate(per_round, start=1):
                objects.add(id(out))
                if out.decided is not None:
                    assert run.decisions[p] == (m, out.decided[2]), (m, p)
                elif out.locked is not None:
                    assert first.setdefault(out.locked, out) is out, (m, p)
                    pairs.add((m, out.locked))
        assert pairs and len(objects) <= len(pairs) + n + 1


def gated_and_open(work):
    """(``work()``, ``work()`` with the core step's c2 gate forced open)."""
    gated = work()
    with pytest.MonkeyPatch.context() as patch:
        open_c2_gate(patch)
        return gated, work()


def refresh_calls(cfg) -> int:
    """How many times a run of ``cfg`` calls ``c2_check``, the c2 search."""
    scan, calls = consensus_mod.c2_check, []

    def counted(s, D, resume=0):
        calls.append(s.tables.m)
        return scan(s, D, resume)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus_mod, "c2_check", counted)
        run_execution(cfg)
    return len(calls)


class TestC2Gate:
    """An undecided core step searches c2 only when the run's latest long
    round (``tables.last_long``) is at or after the first round c2 could
    hit.  Every hit lies on a long round, so the gate changes no outcome:
    each test compares it with the gate forced open
    (``conftest.open_c2_gate``), which is the core step as it was before
    the gate."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_random_lassos_match_the_open_gate(self, data):
        # uncertified random lassos, and lassos the estable and altestable
        # generators certified, monitored, in full and bounded mode
        n = data.draw(st.integers(2, 6), label="n")
        D = data.draw(st.integers(1, n - 1), label="D")
        kind = data.draw(st.sampled_from(["random", "estable", "altestable"]), label="kind")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        rng = random.Random(seed)
        if kind == "random":
            l = random_lasso(rng, n, data.draw(st.integers(0, 6), label="prefix"),
                             density=data.draw(st.floats(0.2, 0.7), label="density"))
            horizon = data.draw(st.integers(1, 30), label="H")
        else:
            r_sr = data.draw(st.integers(1 if kind == "estable" else D + 2, 12), label="r_sr")
            generate = generate_estable if kind == "estable" else generate_alt_estable
            try:
                l, cert = generate(AdversaryParams(n=n, D=D, seed=seed, r_sr_target=r_sr))
            except AdversaryError:
                assume(False)
            horizon = cert.deadline + D + 2
        mode = data.draw(st.sampled_from(["full", f"bounded:{2 * D + 1}", f"bounded:{2 * D + 3}"]), label="mode")
        cfg = RunConfig(n, D, tuple(rng.randint(0, 9) for _ in range(n)), l, horizon, mode=mode)

        def work():
            run, outcomes = stepped(cfg)
            return outcomes, run.decision_events(), [s.snapshot() for s in run.states.values()]

        gated, opened = gated_and_open(work)
        assert gated == opened

    @pytest.mark.parametrize("mode", ["full", "bounded:7"])
    def test_altestable_campaign_matches_the_open_gate(self, mode):
        # its lassos hold common-root runs longer than D before they
        # stabilize, so the gate opens on runs that never decide anyone:
        # 462 of the 985 searches in full mode find no hit
        gated, opened = gated_and_open(lambda: fuzz_campaign(trials=100, seed=21, adversary="altestable", mode=mode))
        assert gated == opened

    @pytest.mark.parametrize("n, D, gated, opened", [(6, 2, 7, 43), (64, 3, 91, 475)])
    @pytest.mark.parametrize("mode", ["full", "bounded"])
    def test_refresh_calls_on_the_ci_lassos(self, n, D, gated, opened, mode):
        # the CI lassos (generate --n N --d D --rsr 6 --seed 3) to the
        # horizon rootcons run picks, the certified deadline + D + 2: the
        # open gate searches in every undecided step
        l, cert = generate_estable(AdversaryParams(n=n, D=D, seed=3, r_sr_target=6))
        inputs = (3, 1, 4, 1, 5, 9) if n == 6 else tuple(range(1, n + 1))
        mode = "full" if mode == "full" else f"bounded:{2 * D + 1}"
        cfg = RunConfig(n, D, inputs, l, cert.deadline + D + 2, mode=mode)
        assert gated_and_open(lambda: refresh_calls(cfg)) == (gated, opened)


class TestReferenceDifferential:
    """The core step on the copied-history reference states of
    ``oracles.reference_run`` against the engine, on uncertified random
    lassos, where rounds with several roots and answers that a later reader
    must recompute are common."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_random_lassos_match_the_reference(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        D = data.draw(st.integers(1, n - 1), label="D")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        l = random_lasso(rng, n, data.draw(st.integers(0, 6), label="prefix"),
                         density=data.draw(st.floats(0.2, 0.7), label="density"))
        mode = data.draw(st.sampled_from(["full", f"bounded:{2 * D + 1}", f"bounded:{2 * D + 3}"]), label="mode")
        inputs = tuple(rng.randint(0, 9) for _ in range(n))
        cfg = RunConfig(n, D, inputs, l, data.draw(st.integers(1, 20), label="H"), mode=mode)
        run, direct = run_with_snapshots(cfg)
        snapshots, events = reference_run(cfg, consensus_mod.core_step)
        assert direct == snapshots
        assert run.decision_events() == events


def assert_scan_matches_definition(run, outcomes: list) -> None:
    """For every process of ``run``: its last core step, whose outcomes in
    pid order are ``outcomes`` (what ``run.step()`` returned), locked on the
    single element of ``confirmed_roots(s, m-D)``, or did not lock when
    there is not exactly one; and ``consensus._runs`` over the retained
    rounds before the current one yields, for each round r, the single
    element of ``confirmed_roots(s, r)`` (or None) and the start of its run
    from max(1, lo) on (r+1 for None), and leaves ``stale_from``, where c2
    resumes its search, as it was."""
    D, m = run.config.D, run.m
    for s, out in zip(run.states.values(), outcomes):
        stale_from, low = s.stale_from, max(1, s.tables.lo)
        want, starts = {}, {}
        for r in range(low, s.tables.m):
            confirmed = confirmed_roots(s, r)
            want[r] = root = confirmed[0] if len(confirmed) == 1 else None
            starts[r] = r + 1 if root is None else starts[r - 1] if r > low and want[r - 1] == root else r
        if m > D:
            assert (out.locked and out.locked[0]) == want[m - D], (s.pid, m)
        got = list(consensus_mod._runs(s, low, s.tables.m - 1))
        assert got == [(r, want[r], starts[r]) for r in want], (s.pid, s.tables.m)
        assert s.stale_from == stale_from, (s.pid, s.tables.m)


class TestInlineScan:
    """The core step's inline test of each round's slot (the walk
    ``_runs`` of ``c2_check`` and ``blocker``, and the test of round m-D)
    against the definitional ``confirmed_roots``, after every round."""

    @pytest.mark.parametrize("n, D, mode, horizon", [
        (6, 2, "full", 200),
        (6, 2, "bounded:5", 200),
        (64, 3, "full", 100),
        (64, 3, "bounded:7", 200),
    ])
    def test_ci_lassos(self, n, D, mode, horizon):
        # the CI lassos (generate --n N --d D --rsr 6 --seed 3)
        l, _ = generate_estable(AdversaryParams(n=n, D=D, seed=3, r_sr_target=6))
        inputs = (3, 1, 4, 1, 5, 9) if n == 6 else tuple(range(1, n + 1))
        run = harness_mod.Run(RunConfig(n, D, inputs, l, horizon, mode=mode, check_invariants=False))
        for _ in range(horizon):
            assert_scan_matches_definition(run, run.step())
        assert len(run.decisions) == n

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_random_lassos(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        D = data.draw(st.integers(1, n - 1), label="D")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        l = random_lasso(rng, n, data.draw(st.integers(0, 6), label="prefix"),
                         density=data.draw(st.floats(0.2, 0.7), label="density"))
        mode = data.draw(st.sampled_from(["full", f"bounded:{2 * D + 1}"]), label="mode")
        inputs = tuple(rng.randint(0, 9) for _ in range(n))
        horizon = data.draw(st.integers(1, 20), label="H")
        run = harness_mod.Run(RunConfig(n, D, inputs, l, horizon, mode=mode, check_invariants=False))
        for _ in range(horizon):
            assert_scan_matches_definition(run, run.step())


def longest_single_rooted_run(s) -> tuple:
    """``blocker`` by its definition: ``("c2", root, (a, b))`` for the
    longest run a..b of one single element of ``confirmed_roots`` over
    rounds max(1, lo)..m-1, the earliest among equal lengths, or
    ``("c2", None, None)`` when no round has a single confirmed root."""
    rounds = range(max(1, s.tables.lo), s.tables.m)
    single = {}
    for r in rounds:
        confirmed = confirmed_roots(s, r)
        single[r] = confirmed[0] if len(confirmed) == 1 else None
    best, length = ("c2", None, None), 0
    for a in rounds:
        b = a
        while single[a] is not None and b + 1 in single and single[b + 1] == single[a]:
            b += 1
        if single[a] is not None and b - a + 1 > length:
            best, length = ("c2", single[a], (a, b)), b - a + 1
    return best


class TestBlocker:
    """``blocker``, the reason the oracle reports for an undecided process,
    against its definition, after every round, and the state it reads left
    as it was."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_lassos_match_the_definition(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        D = data.draw(st.integers(1, n - 1), label="D")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        l = random_lasso(rng, n, data.draw(st.integers(0, 6), label="prefix"),
                         density=data.draw(st.floats(0.2, 0.7), label="density"))
        mode = data.draw(st.sampled_from(["full", f"bounded:{2 * D + 1}"]), label="mode")
        horizon = data.draw(st.integers(1, 20), label="H")
        run = harness_mod.Run(RunConfig(n, D, tuple(range(n)), l, horizon, mode=mode, check_invariants=False))
        for m in range(1, horizon + 1):
            run.step()
            for s in run.states.values():
                if s.y is not None:
                    continue
                before = s.snapshot(), s.stale_from
                assert consensus_mod.blocker(s) == longest_single_rooted_run(s), (mode, m, s.pid)
                assert (s.snapshot(), s.stale_from) == before, (mode, m, s.pid)


class TestConfirmedRoots:
    """``confirmed_roots``, read from the run's graph list, against its
    definition over a state's own root query, kept in
    ``oracles.reference_confirmed_roots``."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_lassos_match_the_definition(self, data):
        # every round r from -1 to m+1, after every round: outside the
        # retained rounds, at the current round and at round 0 too
        n = data.draw(st.integers(2, 5), label="n")
        D = data.draw(st.integers(1, n - 1), label="D")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        l = random_lasso(rng, n, data.draw(st.integers(0, 6), label="prefix"),
                         density=data.draw(st.floats(0.2, 0.7), label="density"))
        mode = data.draw(st.sampled_from(["full", f"bounded:{2 * D + 1}"]), label="mode")
        horizon = data.draw(st.integers(1, 20), label="H")
        run = harness_mod.Run(RunConfig(n, D, tuple(range(n)), l, horizon, mode=mode, check_invariants=False))
        for m in range(1, horizon + 1):
            run.step()
            for s in run.states.values():
                for r in range(-1, m + 2):
                    assert confirmed_roots(s, r) == reference_confirmed_roots(s, r), (mode, m, r, s.pid)


class TestWholeRuns:
    def test_all_inputs_equal_forces_that_decision(self, eps2_lasso):
        cfg = RunConfig(5, 2, (6,) * 5, eps2_lasso, 12)
        trace = run_execution(cfg)
        assert len(trace.decisions) == 5
        assert {v for (_, v) in trace.decisions.values()} == {6}

    def test_eps1_zeros_all_decide_zero_by_five(self, eps1_lasso):
        cfg = RunConfig(5, 2, (0,) * 5, eps1_lasso, 8)
        trace = run_execution(cfg)
        assert {v for (_, v) in trace.decisions.values()} == {0}
        assert trace.latest_decision_round() == 5

    def test_random_certified_runs_agree_and_are_valid(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(2, 7)
            D = rng.randint(1, min(3, n - 1))
            l, cert = generate_estable(
                AdversaryParams(n=n, D=D, seed=rng.getrandbits(40), r_sr_target=rng.randint(1, 8))
            )
            inputs = tuple(rng.randint(0, 50) for _ in range(n))
            trace = run_execution(RunConfig(n, D, inputs, l, cert.deadline + D + 2))
            values = {v for (_, v) in trace.decisions.values()}
            assert len(trace.decisions) == n
            assert len(values) == 1
            assert values <= set(inputs)
            assert trace.latest_decision_round() <= cert.deadline
            assert trace.decision_events()[0][0] > D
            # lock propagation: within D rounds of the first decision every
            # process proposes the decided value, and keeps doing so
            value = values.pop()
            settle = trace.decision_events()[0][0] + D
            for p, st in trace.states.items():
                for r in range(settle, st.tables.m + 1):
                    assert st.locks[p][r] == value

    def test_decided_value_matches_system_wide_lock(self, eps1_lasso):
        # after the first decision, every process's current proposal equals
        # the decision value within D rounds
        cfg = RunConfig(5, 2, (3, 1, 4, 1, 5), eps1_lasso, 9)
        trace = run_execution(cfg)
        first = trace.decision_events()[0][0]
        value = {v for (_, v) in trace.decisions.values()}.pop()
        settle = first + cfg.D
        for p, st in trace.states.items():
            assert st.locks[p][settle] == value
