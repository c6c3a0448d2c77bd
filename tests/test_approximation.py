import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_lasso, run_with_snapshots
from oracles import out_row_mask, reference_roots_of_partial

import rootcons.harness as harness_mod
from rootcons.approximation import (
    NodeState,
    _approx_view,
    evidence,
    init_states,
    make_message,
    receive_and_merge,
    roots_of_partial,
)
from rootcons.graphs import lasso, mask_layout
from rootcons.harness import RunConfig, run_execution


def drive(l, inputs, rounds, mode="full"):
    """Advance fresh states through `rounds` rounds of the lasso by hand."""
    states = init_states(inputs, mode)
    for m in range(1, rounds + 1):
        g = l.graph(m)
        msgs = {p: make_message(states[p]) for p in states}
        for p in states:
            inbox = [msgs[q] for q in sorted(g.in_neighbors(p))]
            receive_and_merge(states[p], inbox, m)
    return states


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
                NodeState(pid, 0, 3, None, {}, {})

    @pytest.mark.parametrize("n", [1, 16, 17, 64])
    def test_states_of_one_run_share_layout_and_memo(self, n):
        states = init_states(tuple(range(n)), "bounded:3")
        assert sorted(states) == list(range(1, n + 1))
        assert {id(s.memo) for s in states.values()} == {id(states[1].memo)}
        assert {id(s.rows) for s in states.values()} == {id(states[1].rows)}
        assert sorted(states[1].rows) == list(range(1, n + 1))
        assert all(make_message(s).rows is states[1].rows for s in states.values())
        assert all(s.layout is mask_layout(n) and s.keep == 3 for s in states.values())
        other = init_states((0,) * n)[1]
        assert other.memo is not states[1].memo and other.rows is not states[1].rows  # one of each per run


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
        msg.approx[0] = s.layout.bit(1, 1)
        assert s.approx[0] == 0


class TestReceiveAndMerge:
    def test_direct_edges_recorded(self):
        q, s = init_states((9, 0)).values()
        q_msg = make_message(q)
        own = make_message(s)
        receive_and_merge(s, [q_msg, own], 1)
        assert s.layout.edges(s.approx[1]) == [(1, 2), (2, 2)]
        assert s.locks[1] == {0: 9}

    def test_eps1_two_rounds_reach_p2(self, eps1_lasso):
        states = drive(eps1_lasso, (0, 0, 0, 0, 0), 2)
        p2 = states[2]
        assert {(1, 5), (5, 2)} <= set(p2.layout.edges(p2.approx[1]))
        # p1's round-0 state (its input lock) has reached p2
        assert p2.locks[1][0] == 0

    def test_own_lock_carried_forward(self):
        l = lasso(2, cycle=[[]])
        states = drive(l, (3, 8), 4)
        assert states[2].locks[2] == {r: 8 for r in range(5)}

    def test_merge_order_irrelevant(self, eps2_lasso):
        inputs = (3, 1, 4, 1, 5)
        rng = random.Random(0)
        baseline = None
        for _ in range(5):
            states = init_states(inputs)
            for m in range(1, 7):
                g = eps2_lasso.graph(m)
                msgs = {p: make_message(states[p]) for p in states}
                for p in states:
                    inbox = [msgs[q] for q in g.in_neighbors(p)]
                    rng.shuffle(inbox)
                    receive_and_merge(states[p], inbox, m)
            snap = tuple(states[p].snapshot() for p in sorted(states))
            if baseline is None:
                baseline = snap
            assert snap == baseline

    def test_wrong_round_rejected(self):
        s = init_states((0,))[1]
        with pytest.raises(ValueError):
            receive_and_merge(s, [], 3)


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
                        st.approx.get(r2, 0) & out_row_mask(q, st.layout) for r2 in range(r + 1, st.m + 1)
                    )
                    assert late_edge(st, q, r) == direct


class TestDetectedRoots:
    def test_fragment_roots_own_singleton(self):
        l = lasso(3, cycle=[[(1, 2), (2, 3)]])
        states = drive(l, (0, 0, 0), 1)
        # p1 heard nobody: its round-1 fragment roots itself
        assert states[1].roots_at(1) == frozenset([frozenset([1])])

    def test_known_vertex_set_only(self, eps1_lasso):
        states = drive(eps1_lasso, (0,) * 5, 3)
        # p5 never hears about p3/p4: they are absent from its approximations
        roots = states[5].roots_at(2)
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
            w = l.window(1, horizon)
            for p, st in states.items():
                for r in range(1, horizon):
                    true_roots = root_components(l.graph(r))
                    for root in true_roots:
                        reached = all(
                            q in causal_past(w, p, r, horizon) for q in root
                        )
                        if reached:
                            assert root in st.roots_at(r)
                    for root in st.roots_at(r):
                        if all(late_edge(st, q, r) for q in root):
                            assert root in true_roots


def fresh_roots(mask, extra_vertex, lay):
    """The kernel's answer through ``roots_of_partial``, with an empty memo."""
    return roots_of_partial(mask, extra_vertex, lay, {})


W16, W64 = mask_layout(16), mask_layout(64)


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
            for extra in range(1, lay.width + 1):  # 4..16 are isolated
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
    def test_random_masks_up_to_sixty_four(self, case):
        mask, extra, lay = case
        assert fresh_roots(mask, extra, lay) == reference_roots_of_partial(mask, extra, lay)


def masks_from_slots(s) -> dict:
    """Round -> the OR of the round-r in-edge cells of every q in slot r of ``known``."""
    width = s.layout.width
    masks = {}
    for r in range(s.lo, s.m + 1):
        slot = s.known >> (r - s.lo) * width
        masks[r] = 0
        for q in range(1, width + 1):
            if slot >> (q - 1) & 1:
                masks[r] |= s.rows[q].inmask[r]
    return masks


class TestMaskCache:
    """``masks`` is updated at merge time; after every round it must equal the
    approximation recomputed from the rows and the ``known`` slots."""

    @pytest.mark.parametrize("mode", ["full", "bounded:3", "bounded:7"])
    def test_masks_match_recomputed_view(self, mode):
        rng = random.Random(mode)
        for _ in range(12):
            n = rng.randint(2, 8)
            l = random_lasso(rng, n, rng.randint(0, 8), density=rng.choice([0.1, 0.3, 0.6]))
            states = init_states(tuple(range(1, n + 1)), mode)
            for m in range(1, 16):
                g = l.graph(m)
                msgs = {p: make_message(states[p]) for p in states}
                for p in states:
                    receive_and_merge(states[p], [msgs[q] for q in g.in_neighbors(p)], m)
                for s in states.values():
                    assert s.masks == masks_from_slots(s)
                    assert s.masks == _approx_view(s.known, s.rows, s.lo, s.m, s.layout.width)
                    assert list(s.masks) == list(range(s.lo, s.m + 1))


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
        assert sorted(states[2].rows[2].lock) == [5, 6, 7, 8]
        assert states[2].lo == 5

    def test_peer_leaves_with_its_last_heard_round(self, monkeypatch):
        # p1's round-0 state reaches p2 in round 1, and nothing after it:
        # heard[2][1] = 0 drops out of bounded:3 in round 4, and p1 with it
        l = lasso(3, prefix=[[(1, 2)]], cycle=[[]])
        trace, snaps = run_with_snapshots(RunConfig(3, 1, (7, 8, 9), l, 5, mode="bounded:3"), monkeypatch)
        rebuilt = harness_mod._rebuilt_states(trace, 2)
        for m, (snap, again) in enumerate(zip(snaps, rebuilt)):
            peers = [q for q, _ in snap[2][5]]
            assert peers == ([1, 2] if 1 <= m <= 3 else [2]) and snap[2] == again, m
        assert sorted(trace.states[2].locks) == [2]
        assert sorted(trace.states[2].to_json_dict()["locks"]) == ["2"]


class TestStateInvariantsOnRuns:
    def test_under_approximation_and_monotonicity(self, eps2_lasso, monkeypatch):
        cfg = RunConfig(5, 2, (0, 1, 2, 3, 4), eps2_lasso, 10)
        _, snapshots = run_with_snapshots(cfg, monkeypatch)  # engine asserts under-approximation per round
        for p in range(1, 6):
            per_round = [dict(snap[p][4]) for snap in snapshots]
            for r in range(11):
                for before, after in zip(per_round, per_round[1:]):
                    assert before.get(r, 0) & ~after.get(r, 0) == 0

    def test_json_dump_shape(self, eps2_lasso):
        cfg = RunConfig(5, 2, (0, 1, 2, 3, 4), eps2_lasso, 6)
        trace = run_execution(cfg)
        data = trace.states[2].to_json_dict()
        assert data["pid"] == 2 and data["m"] == 6
        assert "0" in data["approx"] and data["locks"]["2"]["0"] == 1
