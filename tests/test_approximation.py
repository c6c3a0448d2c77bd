import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_lasso, run_with_snapshots
from oracles import approx_roots, graph_edges, out_row_mask, reference_roots_of_partial

import rootcons.graphs as graphs_mod
import rootcons.harness as harness_mod
from rootcons.adversary import AdversaryParams, generate_estable
from rootcons.approximation import (
    NodeState,
    RunTables,
    evidence,
    init_states,
    make_message,
    receive_and_merge,
)
from rootcons.consensus import confirmed_roots
from rootcons.graphs import (
    CommGraph,
    lasso,
    lasso_from_json,
    lasso_to_json,
    mask_layout,
    root_components,
    roots_of_mask,
)
from rootcons.harness import Run, RunConfig, run_execution


def drive(l, inputs, rounds, mode="full"):
    """The states after `rounds` rounds of a run of the lasso at D=1."""
    run = Run(RunConfig(len(inputs), 1, inputs, l, rounds, mode))
    for _ in range(rounds):
        run.step()
    return run.states


class TestInitState:
    def test_initial_contents(self):
        s = init_states((7,))[1]
        assert s.approx == {0: 0}
        assert s.locks == {1: {0: 7}}
        assert s.y is None and s.m == 0

    def test_message_after_init_carries_only_own_data(self):
        msg = make_message(init_states((9, 0))[2])
        assert msg.sender == 2 and msg.sent_in == 1
        assert msg.approx == {0: 0}
        assert msg.locks == {2: {0: 0}}

    def test_determinism(self):
        assert init_states((1, 2, 5))[3].snapshot() == init_states((1, 2, 5))[3].snapshot()

    def test_pid_range_enforced(self):
        for pid in (0, 4):
            with pytest.raises(ValueError):
                NodeState(pid, 0, RunTables.of((0, 0, 0), None))

    @pytest.mark.parametrize("n", [1, 16, 17, 64])
    def test_states_of_one_run_share_layout_and_memo(self, n):
        states = init_states(tuple(range(n)), "bounded:3")
        assert sorted(states) == list(range(1, n + 1))
        tables = states[1].tables
        assert all(s.tables is tables and make_message(s).tables is tables for s in states.values())
        assert sorted(tables.rows) == list(range(1, n + 1)) and tables.graphs == []
        assert tables.layout is mask_layout(n) and tables.keep == 3
        other = init_states((0,) * n)[1].tables
        for name in ("rows", "graphs", "starts", "answers"):  # one of each per run
            assert getattr(other, name) is not getattr(tables, name), name


class TestMakeMessage:
    def test_full_mode_contains_every_round(self):
        l = lasso(2, cycle=[[(1, 2)]])
        states = drive(l, (4, 6), 5)
        msg = make_message(states[1])
        assert sorted(msg.approx) == [0, 1, 2, 3, 4, 5]

    def test_bounded_mode_last_k_rounds_only(self):
        l = lasso(2, cycle=[[(1, 2)]])
        states = drive(l, (4, 6), 10, mode="bounded:5")
        msg = make_message(states[2])
        assert sorted(msg.approx) == [6, 7, 8, 9, 10]
        assert all(r > 5 for row in msg.locks.values() for r in row)

    def test_snapshot_is_a_copy(self):
        s = init_states((1,))[1]
        msg = make_message(s)
        msg.approx[0] = s.tables.layout.bit(1, 1)
        assert s.approx[0] == 0


class TestReceiveAndMerge:
    def test_direct_edges_recorded(self):
        q, s = init_states((9, 0)).values()
        g = CommGraph.of(2, [(1, 2)])
        s.tables.enter(1, g, 1)  # as the engine does, before the round's merges
        receive_and_merge(s, q.known | s.known, s.known, 1)
        assert s.tables.layout.edges(s.approx[1]) == [(1, 2), (2, 2)]
        assert s.locks[1] == {0: 9}

    def test_eps1_two_rounds_reach_p2(self, eps1_lasso):
        states = drive(eps1_lasso, (0, 0, 0, 0, 0), 2)
        p2 = states[2]
        assert {(1, 5), (5, 2)} <= set(p2.tables.layout.edges(p2.approx[1]))
        # p1's round-0 state (its input lock) has reached p2
        assert p2.locks[1][0] == 0

    def test_own_lock_carried_forward(self):
        l = lasso(2, cycle=[[]])
        states = drive(l, (3, 8), 4)
        assert states[2].locks[2] == {r: 8 for r in range(5)}

    def test_merge_order_irrelevant(self, eps2_lasso):
        # the processes merge in a shuffled order, each class of equal
        # in-neighbours ORing their broadcasts in a shuffled order
        inputs = (3, 1, 4, 1, 5)
        rng = random.Random(0)
        baseline = None
        for _ in range(5):
            states = init_states(inputs)
            for m in range(1, 7):
                g = eps2_lasso.graph(m)
                states[1].tables.enter(m, g, 2)  # once per round, before the merges, as the engine does
                sent = [states[p].known for p in sorted(states)]
                heard = {}
                for ins, members in g.in_classes:
                    shuffled = rng.sample(ins, len(ins))
                    heard.update(dict.fromkeys(members, reduce(or_, (sent[q - 1] for q in shuffled))))
                for p in rng.sample(sorted(states), len(states)):
                    receive_and_merge(states[p], heard[p], sent[p - 1], m)
            snap = tuple(states[p].snapshot() for p in sorted(states))
            if baseline is None:
                baseline = snap
            assert snap == baseline

    @pytest.mark.parametrize("mode", ["full", "bounded:5"])
    def test_reads_only_in_neighbours_broadcasts(self, monkeypatch, eps2_lasso, mode):
        # in run z, z's broadcast carries every bit of every slot in every
        # round; exactly the merges of z's out-neighbours may see it.  Each
        # merge's state is reset to the clean run's after it is recorded, so
        # every run steps on as the clean one does; and the run's graph list
        # holds the round graph at index m-1
        merge = harness_mod.receive_and_merge
        lay = mask_layout(5)
        poison = (1 << 16 * lay.width) - 1
        cfg = RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 14, mode)

        def merges(z: int, clean: dict) -> dict:
            seen, run = {}, Run(cfg)

            def merged(s, heard, own, m):
                merge(s, heard, own, m)
                assert s.tables.graphs[m - 1] is eps2_lasso.graph(m)
                seen[s.pid, m] = s.known, s.stale_from
                if z:
                    s.known, s.stale_from = clean[s.pid, m]

            with monkeypatch.context() as patch:
                patch.setattr(harness_mod, "receive_and_merge", merged)
                for _ in range(cfg.horizon):
                    if z:
                        run.states[z].known = poison
                    run.step()
            return seen

        clean = merges(0, {})
        assert len(clean) == 5 * 14
        for z in range(1, 6):
            for (p, m), merged in merges(z, clean).items():
                reads_z = bool(eps2_lasso.graph(m).mask & lay.bit(z, p))
                assert (merged[0] != clean[p, m][0]) == reads_z, (z, p, m)

    def test_wrong_round_rejected(self):
        s = init_states((0,))[1]
        with pytest.raises(ValueError):
            receive_and_merge(s, s.known, s.known, 3)


def late_edge(st, q, r) -> bool:
    """Whether ``evidence`` shows a later outgoing edge of q after round r."""
    return bool(evidence(st, r) >> (q - 1) & 1)


class TestLateOutgoingEdge:
    def test_own_self_loop_counts(self):
        l = lasso(2, cycle=[[]])
        states = drive(l, (0, 0), 3)
        for r in range(3):
            assert late_edge(states[1], 1, r)

    def test_no_later_information_is_false(self):
        l = lasso(2, cycle=[[(1, 2)]])
        states = drive(l, (0, 0), 3)
        # p1 learns nothing about p2, and nothing after the current round
        assert not late_edge(states[1], 2, 0)
        assert not late_edge(states[2], 1, 3)
        assert evidence(states[2], 3) == 0

    def test_matches_direct_scan(self, eps2_lasso):
        states = drive(eps2_lasso, (0, 1, 2, 3, 4), 8)
        for p, st in states.items():
            for q in range(1, 6):
                for r in range(0, st.m):
                    direct = any(
                        st.approx.get(r2, 0) & out_row_mask(q, st.tables.layout) for r2 in range(r + 1, st.m + 1)
                    )
                    assert late_edge(st, q, r) == direct


class TestDetectedRoots:
    def test_fragment_roots_own_singleton(self):
        l = lasso(3, cycle=[[(1, 2), (2, 3)]])
        states = drive(l, (0, 0, 0), 1)
        # p1 heard nobody: its round-1 fragment roots itself
        assert approx_roots(states[1], 1) == frozenset([frozenset([1])])

    def test_known_vertex_set_only(self, eps1_lasso):
        states = drive(eps1_lasso, (0,) * 5, 3)
        # p5 never hears about p3/p4: they are absent from its approximations
        roots = approx_roots(states[5], 2)
        assert roots == frozenset([frozenset([1])])


class TestRootDetection:
    def test_reached_roots_are_detected_and_detection_is_sound(self):
        # both directions over random certified runs: once a true root's
        # round-r states have reached a process, the root shows up in its
        # round-r approximation; conversely a detected root whose members all
        # have later outgoing edges is a root of the true graph
        import random

        from rootcons.adversary import AdversaryParams, generate_estable
        from rootcons.graphs import causal_past, root_components

        rng = random.Random(314)
        for _ in range(15):
            n = rng.randint(3, 6)
            D = rng.randint(1, min(3, n - 1))
            l, cert = generate_estable(
                AdversaryParams(n=n, D=D, seed=rng.getrandbits(40), r_sr_target=rng.randint(1, 6))
            )
            horizon = cert.deadline + 2
            states = drive(l, tuple(range(n)), horizon)
            for p, st in states.items():
                for r in range(1, horizon):
                    true_roots = root_components(l.graph(r))
                    for root in true_roots:
                        reached = all(
                            q in causal_past(l, p, r, horizon) for q in root
                        )
                        if reached:
                            assert root in approx_roots(st, r)
                    for root in approx_roots(st, r):
                        if all(late_edge(st, q, r) for q in root):
                            assert root in true_roots


def endpoints(mask, lay):
    """Vertex bitset of every endpoint of an edge in ``mask``."""
    return sum({1 << (w - 1) for edge in lay.edges(mask) for w in edge})


def fresh_roots(mask, extra_vertex, lay):
    """The kernel's answer for a partial mask: its vertex set is the mask's
    endpoints plus the extra vertex."""
    return roots_of_mask(mask, endpoints(mask, lay) | 1 << (extra_vertex - 1), lay)


W16, W64, W1024 = mask_layout(16), mask_layout(64), mask_layout(1024)


@st.composite
def partial_graphs(draw):
    """(edge mask over processes 1..n, extra vertex, layout) for a layout of
    width 16, 32 or 64 and n, extra vertex <= that width."""
    lay = mask_layout(draw(st.sampled_from([16, 32, 64])))
    n = draw(st.integers(1, lay.width))
    edges = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n))))
    return sum(lay.bit(u, v) for (u, v) in edges), draw(st.integers(1, lay.width)), lay


class TestRootKernel:
    """The bitmask kernel against the CommGraph + Tarjan reference."""

    def test_every_mask_on_three_processes(self):
        lay = mask_layout(3)
        cells = [lay.bit(u, v) for u in range(1, 4) for v in range(1, 4)]  # self-loops too
        for pick in range(1 << len(cells)):
            mask = sum(bit for i, bit in enumerate(cells) if pick >> i & 1)
            g = CommGraph(3, mask)
            assert [root for root, _ in g.root_bits] == list(root_components(g)), lay.edges(mask)
            for root, bits in g.root_bits:  # each member bitset is its root
                assert {q for q in range(1, lay.width + 1) if bits >> (q - 1) & 1} == root, lay.edges(mask)
            for extra in range(1, lay.width + 1):  # 4 is isolated
                assert fresh_roots(mask, extra, lay) == reference_roots_of_partial(mask, extra, lay), (
                    lay.edges(mask), extra,
                )

    @settings(max_examples=300, deadline=None)
    @given(case=partial_graphs())
    @example(case=(0, 1, W16))  # empty mask
    @example(case=(0, 16, W16))
    @example(case=(0, 64, W64))
    @example(case=(W16.bit(1, 2) | W16.bit(2, 1), 9, W16))  # isolated extra vertex
    @example(case=(W64.bit(64, 1) | W64.bit(1, 64) | W64.bit(33, 64), 33, W64))  # the last row and column
    @example(case=(sum(W1024.bit(1, v) for v in range(8, 1025, 8)), 1, W1024))  # a star: one relay, one pick
    @example(case=(W1024.bit(1024, 1) | sum(W1024.bit(v, v + 16) for v in range(1, 1009, 16)), 1, W1024))  # non-root 1 heads a chain
    def test_random_masks_up_to_sixty_four(self, case):
        mask, extra, lay = case
        assert fresh_roots(mask, extra, lay) == reference_roots_of_partial(mask, extra, lay)


def lemma_state(n, edges, slot, pid):
    """A state at round 2 whose round-1 graph is ``edges`` plus every
    self-loop and whose round-2 graph has only the self-loops, both entered
    as the engine enters them, with ``slot`` (which holds pid) as its slots
    of rounds 0 and 1 and only pid in the slot of round 2; returns (state,
    round-1 mask, slot bitset)."""
    lay = mask_layout(n)
    rows = {q: {r: 0 for r in range(3)} for q in range(1, n + 1)}
    tables = RunTables(lay, None, rows, [], {}, {})
    tables.enter(1, CommGraph.of(n, edges), 1)
    tables.enter(2, CommGraph.of(n), 1)
    whole = tables.graphs[0].mask
    s = NodeState(pid, 0, tables)
    bits = sum(1 << (q - 1) for q in slot)
    s.m, s.known = 2, bits | bits << lay.width | 1 << (2 * lay.width + pid - 1)
    return s, whole, bits


@st.composite
def lemma_cases(draw):
    """(n, edges, slot, pid) for n up to 64, in every layout width from 1 to
    64, and a slot holding pid."""
    width = draw(st.sampled_from([16, 32, 64]))
    n = draw(st.integers(1 if width == 16 else width // 2 + 1, width))
    pid = draw(st.integers(1, n))
    edges = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n))))
    slot = draw(st.sets(st.integers(1, n))) | {pid}
    return n, sorted(edges), sorted(slot), pid


class TestRootLemma:
    """Root queries are answered from the roots of the whole round mask: the
    roots inside the slot plus a ghost per outside vertex with an edge into
    it.  That must equal the definition, Tarjan on the partial view."""

    @settings(max_examples=200, deadline=None)
    @given(case=lemma_cases())
    @example(case=(1, [], [1], 1))  # one process with only its self-loop
    @example(case=(4, [(2, 3), (3, 2), (1, 2)], [1, 2, 3], 1))  # the owner has no in-edges
    @example(case=(4, [(2, 1), (3, 1), (2, 3)], [1], 1))  # a slot of one, two ghosts
    @example(case=(64, [(64, 1), (1, 64), (33, 64)], [1, 64], 64))  # the last row and column
    @example(case=(64, [(64, 33), (1, 64), (33, 1)], [1, 33, 64], 33))
    def test_roots_match_the_partial_view(self, case):
        n, edges, slot, pid = case
        s, whole, bits = lemma_state(n, edges, slot, pid)
        lay = s.tables.layout
        want = reference_roots_of_partial(whole & lay.column * bits, pid, lay)
        assert evidence(s, 1) == bits
        assert set(confirmed_roots(s, 1)) == {root for root in want if root <= set(slot)}
        # round 0: the owner alone
        assert confirmed_roots(s, 0) == [frozenset([pid])]


class TestKernelBudget:
    """The root kernel runs at most once per distinct round mask of a run:
    each round graph computes its roots once, where the engine enters it."""

    @pytest.mark.parametrize("mode", ["full", "bounded:7"])
    def test_sixty_four_processes(self, monkeypatch, mode):
        # the n=64 CI lasso, re-read from its own JSON so that no graph
        # arrives with the roots its generator's checker cached on it
        l, cert = generate_estable(AdversaryParams(n=64, D=3, seed=3, r_sr_target=6))
        l = lasso_from_json(lasso_to_json(l))
        horizon = cert.deadline + 3 + 2  # what ``rootcons run`` picks
        assert horizon == 17
        kernel, calls = graphs_mod.roots_of_mask, []

        def counted(mask, *rest):
            calls.append(mask)
            return kernel(mask, *rest)

        monkeypatch.setattr(graphs_mod, "roots_of_mask", counted)
        trace = run_execution(RunConfig(64, 3, tuple(range(1, 65)), l, horizon, mode=mode))
        assert len(trace.decisions) == 64
        held = {l.graph(r).mask for r in range(1, horizon + 1)}  # the round masks
        assert len(set(calls)) == len(calls) <= len(held) and set(calls) <= held


def true_approx(l, s) -> dict:
    """Round -> the lasso's round-r edges into every v in slot r of ``known``,
    for the state's retained rounds (round 0 has no edges)."""
    width, approx = s.tables.layout.width, {}
    for r in range(s.lo, s.m + 1):
        slot = s.known >> (r - s.lo) * width
        edges = graph_edges(l.graph(r)) if r else ()
        approx[r] = sum(s.tables.layout.bit(u, v) for (u, v) in edges if slot >> (v - 1) & 1)
    return approx


class TestMaskCache:
    """The approximation is derived from ``known`` and the run's graphs;
    after every round each state's ``approx`` must equal the lasso's true
    graphs restricted to the state's ``known`` slots."""

    @pytest.mark.parametrize("mode", ["full", "bounded:3", "bounded:7"])
    def test_masks_match_recomputed_view(self, mode):
        rng = random.Random(mode)
        for _ in range(12):
            n = rng.randint(2, 8)
            l = random_lasso(rng, n, rng.randint(0, 8), density=rng.choice([0.1, 0.3, 0.6]))
            run = Run(RunConfig(n, 1, tuple(range(1, n + 1)), l, 15, mode))
            for _ in range(15):
                run.step()
                for s in run.states.values():
                    want = true_approx(l, s)
                    assert s.approx == want
                    assert list(s.approx) == list(range(s.lo, s.m + 1))


class TestPrune:
    """Bounded mode keeps the last k rounds: each owner drops older cells."""

    def test_noop_when_keep_covers_history(self):
        l = lasso(2, cycle=[[(1, 2)]])
        full = drive(l, (0, 0), 4)
        bounded = drive(l, (0, 0), 4, mode="bounded:10")
        for p in (1, 2):
            assert bounded[p].approx == full[p].approx
            assert bounded[p].locks == full[p].locks

    def test_drops_old_rounds(self):
        l = lasso(2, cycle=[[(1, 2)]])
        states = drive(l, (0, 0), 8, mode="bounded:3")
        assert sorted(states[2].approx) == [5, 6, 7, 8]
        assert sorted(states[2].locks[2]) == [5, 6, 7, 8]
        assert sorted(states[2].tables.rows[2]) == [5, 6, 7, 8]
        assert sorted(states[2].tables.starts) == [5, 6, 7, 8]
        assert states[2].lo == 5

    @pytest.mark.parametrize("mode", ["bounded:3", "bounded:7"])
    def test_edge_table_holds_the_window_every_round(self, mode):
        rng = random.Random(mode)
        for n in (2, 5, 8):
            l = random_lasso(rng, n, rng.randint(0, 8))
            run = Run(RunConfig(n, 1, tuple(range(n)), l, 15, mode))
            for m in range(1, 16):
                run.step()
                s = run.states[1]
                assert list(s.tables.starts) == list(range(max(1, s.lo), m + 1)), (n, m)

    def test_peer_leaves_with_its_last_heard_round(self):
        # p1's round-0 state reaches p2 in round 1, and nothing after it:
        # heard[2][1] = 0 drops out of bounded:3 in round 4, and p1 with it
        l = lasso(3, prefix=[[(1, 2)]], cycle=[[]])
        trace, snaps = run_with_snapshots(RunConfig(3, 1, (7, 8, 9), l, 5, mode="bounded:3"))
        for m, snap in enumerate(snaps):
            peers = [q for q, _ in snap[2][5]]
            assert peers == ([1, 2] if 1 <= m <= 3 else [2]), m
        assert sorted(trace.states[2].locks) == [2]


class TestStateInvariantsOnRuns:
    def test_under_approximation_and_monotonicity(self, eps2_lasso):
        cfg = RunConfig(5, 2, (0, 1, 2, 3, 4), eps2_lasso, 10)
        _, snapshots = run_with_snapshots(cfg)  # engine asserts under-approximation per round
        for p in range(1, 6):
            per_round = [dict(snap[p][4]) for snap in snapshots]
            for r in range(11):
                for before, after in zip(per_round, per_round[1:]):
                    assert before.get(r, 0) & ~after.get(r, 0) == 0
