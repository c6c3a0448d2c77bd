import concurrent.futures
import copy
import dataclasses
import json
import os
import re
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EPS1_EDGES, open_c2_gate, run_with_trace
from oracles import approx_roots, bfs_distance, causal_past_forward, naive_causal_past

import rootcons.consensus as consensus_mod
import rootcons.harness as harness_mod
from rootcons.adversary import (
    AdversaryParams,
    GenerationRetryError,
    InfeasibleParamsError,
    check_alt_estable,
    check_estable,
    diagnose,
    generate_alt_estable,
    generate_estable,
)
from rootcons.approximation import window_start
from rootcons.graphs import CommGraph, LassoSequence, causal_past, lasso, mask_layout, root_components
from rootcons.harness import (
    EngineInvariantError,
    Run,
    RunConfig,
    eps_pair_report,
    fuzz_campaign,
    fuzz_trial,
    hop_fallacy_report,
    indistinguishable,
    oracle_check,
    run_execution,
    scenario_eps_pair,
    scenario_hop_fallacy,
    scenario_stab_not_enough,
)


class TestRunExecution:
    def test_minimal_two_process_run(self):
        # static single root {1}: both decide x_1 by round r_sr + 2D = 3
        l = lasso(2, cycle=[[(1, 2)]])
        trace = run_execution(RunConfig(2, 1, (7, 3), l, 6))
        assert trace.decisions == {1: (3, 7), 2: (3, 7)}

    def test_eps1_all_zeros(self, eps1_lasso):
        trace = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 8))
        assert len(trace.decisions) == 5
        assert all(v == 0 for (_, v) in trace.decisions.values())
        assert trace.latest_decision_round() == 5

    def test_second_decision_event_names_process_and_round(self, monkeypatch, eps1_lasso):
        # eps1 decides first in round 5; p1 reports a decision in rounds 2 and 3
        step = harness_mod.core_step

        def deciding_twice(s, m, D):
            out = step(s, m, D)
            if s.pid == 1 and m in (2, 3):
                out = out._replace(decided=(frozenset([1]), m, 0))
            return out

        monkeypatch.setattr(harness_mod, "core_step", deciding_twice)
        with pytest.raises(EngineInvariantError) as caught:
            run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 8))
        assert (caught.value.pid, caught.value.round) == (1, 3)
        assert str(caught.value) == "p1 round 3: second decision event"

    def test_identical_configs_identical_traces(self, eps2_lasso):
        cfg = RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 12)
        a, lines_a = run_with_trace(cfg)
        b, lines_b = run_with_trace(cfg)
        assert lines_a == lines_b
        for p in range(1, cfg.n + 1):
            assert a.states[p].snapshot() == b.states[p].snapshot()
            assert indistinguishable(a, b, p, cfg.horizon)

    def test_config_validation(self, eps1_lasso):
        with pytest.raises(ValueError):
            RunConfig(4, 2, (0,) * 4, eps1_lasso, 5)  # n mismatch
        with pytest.raises(ValueError):
            RunConfig(5, 2, (0,) * 4, eps1_lasso, 5)  # inputs length
        with pytest.raises(ValueError):
            RunConfig(5, 9, (0,) * 5, eps1_lasso, 5)  # D range

    @pytest.mark.parametrize("part", ["prefix", "cycle"])
    @pytest.mark.parametrize(
        "edges, fault",
        [
            ({(1, 1), (2, 2), (1, 3)}, "missing self-loop (3->3)"),
            ({(1, 1), (2, 2), (3, 3), (2, 4)}, "endpoint out of range (2->4)"),
        ],
    )
    def test_invalid_lasso_graph_rejected(self, part, edges, fault):
        good, bad = CommGraph.of(3, [(1, 2)]), CommGraph(3, sum(mask_layout(3).bit(u, v) for u, v in edges))
        graphs = {"prefix": (good,), "cycle": (good,)}
        graphs[part] += (bad,)
        seq = LassoSequence(graphs["prefix"], graphs["cycle"])
        with pytest.raises(ValueError, match=re.escape(f"lasso {part} graph 1 invalid: {fault}")):
            RunConfig(3, 1, (0, 0, 0), seq, 5)

    def test_lasso_graphs_checked_once_per_config(self, monkeypatch):
        checked = []
        monkeypatch.setattr(harness_mod, "validate_graph", lambda g: checked.append(g) or [])
        seq = lasso(3, prefix=[[(1, 2)], [(2, 3)]], cycle=[[(3, 1)]])
        run_execution(RunConfig(3, 1, (0, 1, 2), seq, 40))
        assert len(checked) == 3

    def test_trace_json_lines_parse(self, eps1_lasso):
        trace, lines = run_with_trace(RunConfig(5, 2, (0,) * 5, eps1_lasso, 6))
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["round"] == 1
        assert ["1", "3"] not in first["graph"]  # edges serialize as int pairs
        assert json.loads(json.dumps(trace.summary_dict()))

    def test_partly_stepped_run_reports_the_rounds_it_ran(self, eps1_lasso):
        run, lines = run_with_trace(RunConfig(5, 2, (0,) * 5, eps1_lasso, 10), 3)
        rounds = [json.loads(line)["round"] for line in lines]
        summary = run.summary_dict()
        assert rounds == [1, 2, 3]
        assert summary["rounds"] == 3 and summary["config"]["horizon"] == 10

    @pytest.mark.parametrize("monitored", [False, True])
    def test_bounded_run_holds_bounded_memory(self, monitored):
        # the n=6 CI lasso (generate --n 6 --d 2 --rsr 6 --seed 3) in
        # bounded:5: past the window, all a run adds is its graph list, one
        # pointer per round; an untraced run first fills the lasso's
        # per-graph caches, which would otherwise count against round 500
        l, _ = generate_estable(AdversaryParams(n=6, D=2, seed=3, r_sr_target=6))
        cfg = RunConfig(6, 2, (3, 1, 4, 1, 5, 9), l, 5000, mode="bounded:5", check_invariants=monitored)
        run_execution(dataclasses.replace(cfg, horizon=500))
        held = []
        tracemalloc.start()
        try:
            run = Run(cfg)
            for m in range(1, cfg.horizon + 1):
                run.step()
                if m in (500, 5000):
                    held.append(tracemalloc.get_traced_memory()[0] - sys.getsizeof(run.tables.graphs))
        finally:
            tracemalloc.stop()
        assert held[1] <= 1.1 * held[0], held


def _drop_relayed_heard(merge, s, heard, own, m):
    # each in-neighbour's broadcast keeps only its sender's own bit in every
    # slot: the in-neighbours' bits, repeated in every slot
    lay, lo = s.tables.layout, window_start(s.tables.keep, m)
    g = s.tables.graphs[m - 1]
    ins = sum(1 << (q - 1) for q in range(1, g.n + 1) if g.mask & lay.bit(q, s.pid))
    own_entries = heard & sum(ins << i * lay.width for i in range(m - lo))
    return merge(s, own_entries, own, m)


def _copied_rows(merge, s, heard, own, m):
    merge(s, heard, own, m)
    s.tables = dataclasses.replace(s.tables, rows=copy.copy(s.tables.rows))


def _copied_graph_list(merge, s, heard, own, m):
    merge(s, heard, own, m)
    s.tables = dataclasses.replace(s.tables, graphs=list(s.tables.graphs))


def _wrong_lock_value(merge, s, heard, own, m):
    merge(s, heard, own, m)
    s.tables.rows[2][m] += 1


def _fabricated_edge(merge, s, heard, own, m):
    # p3's round-m state never reached p2; with p3 in slot m, p2's
    # approximation would show the round-m edges into p3
    merge(s, heard, own, m)
    s.known |= 1 << ((m - s.tables.lo) * s.tables.layout.width + 2)


def _retained_past_window(merge, s, heard, own, m):
    row = s.tables.rows[2]
    stale = row[m - 6]
    merge(s, heard, own, m)
    row[m - 6] = stale


def _wrong_lo(merge, s, heard, own, m):
    # the run's window, which every later merge of the round reads
    merge(s, heard, own, m)
    s.tables.lo += 1


def _rewritten_old_lock_cell(merge, s, heard, own, m):
    # a finalized lock cell of the own row, far below the cell of round m
    merge(s, heard, own, m)
    s.tables.rows[2][2] += 100


def _known_past_current_round(merge, s, heard, own, m):
    merge(s, heard, own, m)
    s.known |= 1 << ((m + 1 - s.tables.lo) * s.tables.layout.width + 1)  # p2's bit in slot m+1


def _extra_row(merge, s, heard, own, m):
    merge(s, heard, own, m)
    s.tables.rows[6] = {}


class TestInvariantMonitor:
    """Each fault is injected into p2's merge of one round (eps1: 1 -> 5 -> 2,
    1 -> 3, 1 -> 4, and for n > 5 also 1 -> q for q = 6..n); the monitor must
    name exactly that process and round."""

    @pytest.mark.parametrize(
        "fault, n, mode, round_, why",
        [
            (_drop_relayed_heard, 5, "full", 2,
             "known[0] is [2, 5], expected [1, 2, 5] (heard[2]=[0, 2, -1, -1, 1]; rounds 0..2 kept)"),
            (_copied_rows, 5, "full", 2,
             "tables is not the run's tables (heard[2]=[0, 2, -1, -1, 1]; rounds 0..2 kept)"),
            (_copied_graph_list, 5, "full", 2,
             "tables is not the run's tables (heard[2]=[0, 2, -1, -1, 1]; rounds 0..2 kept)"),
            (_wrong_lock_value, 5, "full", 2,
             "lock[2][2] is 2, expected 1 (heard[2]=[0, 2, -1, -1, 1]; rounds 0..2 kept)"),
            (_retained_past_window, 5, "bounded:5", 6,
             "row[2] holds rounds [0, 1, 2, 3, 4, 5, 6], expected 1..6 "
             "(heard[2]=[4, 6, -1, -1, 5]; rounds 1..6 kept)"),
            (_rewritten_old_lock_cell, 5, "full", 5,
             "lock[2][2] is 101, expected 1 (heard[2]=[3, 5, -1, -1, 4]; rounds 0..5 kept)"),
            (_known_past_current_round, 5, "full", 2,
             "known holds slots past round 2 (heard[2]=[0, 2, -1, -1, 1]; rounds 0..2 kept)"),
            # n=24 runs at mask width 32
            (_fabricated_edge, 24, "full", 2,
             "known[2] is [2, 3], expected [2] (heard[2]=[0, 2, -1, -1, 1, -1,"),
        ],
        ids=["dropped-relayed-heard", "copied-row", "copied-edge-table", "wrong-lock-value",
             "retained-past-window", "rewritten-old-lock-cell", "known-past-current-round",
             "fabricated-edge-at-24"],
    )
    def test_fault_names_process_and_round(self, monkeypatch, fault, n, mode, round_, why):
        caught = self.raised(monkeypatch, fault, n, mode, round_)
        assert (caught.pid, caught.round) == (2, round_)
        assert why in str(caught)

    @pytest.mark.parametrize(
        "fault, mode, round_, why",
        [
            (_extra_row, "full", 2, "the row table holds rows [1, 2, 3, 4, 5, 6], expected 1..5"),
            (_wrong_lo, "full", 2,
             "the run's clock is m=2 lo=1, expected m=2 lo=0 (heard[1]=[2, -1, -1, -1, -1]; rounds 0..2 kept)"),
        ],
        ids=["extra-row", "wrong-lo"],
    )
    def test_table_fault_names_the_first_process(self, monkeypatch, fault, mode, round_, why):
        # an extra row and the run's clock have no owner, so the monitor names the first process
        caught = self.raised(monkeypatch, fault, 5, mode, round_)
        assert (caught.pid, caught.round) == (1, round_)
        assert why in str(caught)

    @staticmethod
    def raised(monkeypatch, fault, n, mode, round_) -> EngineInvariantError:
        merge = harness_mod.receive_and_merge

        def faulty_merge(s, heard, own, m):
            if (s.pid, m) == (2, round_):
                return fault(merge, s, heard, own, m)
            return merge(s, heard, own, m)

        monkeypatch.setattr(harness_mod, "receive_and_merge", faulty_merge)
        l = lasso(n, cycle=[EPS1_EDGES + [(1, q) for q in range(6, n + 1)]])
        cfg = RunConfig(n, 2, (3, 1, 4, 1, 5) + (0,) * (n - 5), l, 8, mode=mode)
        with pytest.raises(EngineInvariantError) as caught:
            run_execution(cfg)
        return caught.value

    def test_peer_outside_the_window_prints_minus_one(self, monkeypatch, eps2_lasso):
        # p3's round-1 state reached p2 (3 -> 4 in round 2, 4 -> 5 from round
        # 5, 5 -> 2 from round 6), and nothing later of p3 ever does, so after
        # round 7 of bounded:5 (rounds 2..7 kept) p3 is in no slot of p2
        merge = harness_mod.receive_and_merge

        def faulty_merge(s, heard, own, m):
            if (s.pid, m) == (2, 7):
                return _known_past_current_round(merge, s, heard, own, m)
            return merge(s, heard, own, m)

        monkeypatch.setattr(harness_mod, "receive_and_merge", faulty_merge)
        with pytest.raises(EngineInvariantError) as caught:
            run_execution(RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 10, mode="bounded:5"))
        assert str(caught.value) == (
            "p2 round 7: known holds slots past round 7 (heard[2]=[5, 7, -1, 5, 6]; rounds 2..7 kept)"
        )

    @pytest.mark.parametrize("mode", ["full", "bounded:5"])
    def test_fault_free_runs_pass(self, eps2_lasso, mode):
        run_execution(RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 14, mode=mode))


_NO_LOCK = SimpleNamespace(locked=None)  # an outcome with no re-proposal


def _naive_causal_past(l, p, r, m):
    return naive_causal_past(l.graph, p, r, m)


@st.composite
def small_runs(draw):
    """A RunConfig over a random lasso of 2..8 processes, 0..3 prefix and 1..2
    cycle graphs, in full mode or bounded:k, to a horizon of at most 8."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    graph = st.lists(st.sampled_from(pairs), max_size=2 * n)
    prefix = draw(st.lists(graph, max_size=3))
    cycle = draw(st.lists(graph, min_size=1, max_size=2))
    mode = draw(st.sampled_from(["full", "bounded:3", "bounded:4", "bounded:6"]))
    return RunConfig(n, 1, (0,) * n, lasso(n, prefix, cycle), draw(st.integers(1, 8)), mode=mode)


class TestGroundTruthIsTheCausalPast:
    """After every round m, slot r of p's ground-truth ``known`` int is the
    causal past CP_p(r, m), for every retained round r, and no slot lies past
    round m.  The ground truth, a fresh run's monitor advanced by hand, is
    driven by the true graphs alone."""

    @staticmethod
    def check(cfg, past):
        truth = Run(cfg).monitor
        width, row = truth.tables.layout.width, truth.tables.layout.row
        lo = 0
        for m in range(cfg.horizon + 1):
            if m:
                lo = truth.advance(m, cfg.lasso.graph(m), [_NO_LOCK] * cfg.n)
            for p, known in truth.known.items():
                assert known >> (m - lo + 1) * width == 0, (p, m)
                for r in range(lo, m + 1):
                    want = sum(1 << q - 1 for q in past(cfg.lasso, p, r, m))
                    assert known >> (r - lo) * width & row == want, (p, r, m)

    @settings(max_examples=150, deadline=None)
    @given(cfg=small_runs())
    def test_matches_forward_causal_past(self, cfg):
        self.check(cfg, causal_past_forward)

    @pytest.mark.parametrize("mode", ["full", "bounded:5"])
    def test_eps2_matches_naive_causal_past(self, eps2_lasso, mode):
        self.check(RunConfig(5, 2, (0,) * 5, eps2_lasso, 10, mode=mode), _naive_causal_past)

    @pytest.mark.parametrize("mode", ["full", "bounded:3"])
    def test_hop_fallacy_matches_naive_causal_past(self, mode):
        l = scenario_hop_fallacy(6)
        self.check(RunConfig(6, 1, (0,) * 6, l, 9, mode=mode), _naive_causal_past)


class TestOracleCheck:
    def test_eps1_passes_at_deadline_five(self, eps1_lasso):
        trace = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 8))
        report = oracle_check(trace, 5)
        assert report.all_ok
        assert report.latest_decision_round == 5

    def test_decision_outside_the_inputs_fails_validity(self, eps1_lasso):
        run = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 8))
        r, _ = run.decisions[3]
        run.decisions[3] = (r, 999)
        report = oracle_check(run, 5)
        assert report.validity_ok is False
        assert report.validity_witness == (3, 999)
        assert report.to_json_dict()["witnesses"]["validity"] == (3, 999)

    def test_truncated_run_fails_termination(self, eps1_lasso):
        trace = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 2))
        report = oracle_check(trace, 10)
        assert not report.termination_ok
        assert report.termination_witness[0] == "undecided"

    def test_blocker_of_a_lasso_that_never_stabilizes(self):
        # the single root alternates between p1 and p2 every round, so no
        # root is single for D+1 = 2 consecutive rounds and c2 blocks every
        # process; its longest single-rooted run is one round
        l = lasso(3, cycle=[[(1, 2), (1, 3)], [(2, 1), (2, 3)]])
        trace = run_execution(RunConfig(3, 1, (4, 7, 9), l, 12))
        report = oracle_check(trace, 12)
        assert report.termination_witness == ("undecided", (1, 2, 3))
        assert report.blocking == tuple((p, ("c2", frozenset([1]), (1, 1))) for p in (1, 2, 3))
        assert report.to_json_dict()["blocking"]["2"] == {"condition": "c2", "root": [1], "rounds": [1, 1]}

    def test_blocker_without_any_single_rooted_round(self):
        l = lasso(3, cycle=[[(1, 3), (2, 3)]])  # p3 hears two roots every round
        report = oracle_check(run_execution(RunConfig(3, 1, (1, 2, 3), l, 6)), 6)
        assert report.termination_witness == ("undecided", (3,))
        assert report.to_json_dict()["blocking"] == {"3": {"condition": "c2", "root": None, "rounds": None}}

    def test_no_blocker_once_everyone_decided(self, eps1_lasso):
        report = oracle_check(run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 8)), 5)
        assert report.blocking == () and report.to_json_dict()["blocking"] == {}

    def test_agreement_failure_witnessed(self):
        cfg1, cfg2 = scenario_stab_not_enough(5, tau=4, D=1)
        trace = run_execution(cfg2)
        report = oracle_check(trace, cfg2.horizon)
        assert not report.agreement_ok
        p, vp, q, vq = report.agreement_witness
        assert vp != vq


class TestIndistinguishability:
    def test_eps_pair_p2(self):
        cfg_e, cfg_ep = scenario_eps_pair(5, 2)
        t_e, t_ep = run_execution(cfg_e), run_execution(cfg_ep)
        assert indistinguishable(t_e, t_ep, 2, 4)
        assert not indistinguishable(t_e, t_ep, 2, 5)

    def test_trace_indistinguishable_from_itself(self, eps2_lasso):
        cfg = RunConfig(5, 2, (0, 0, 1, 1, 0), eps2_lasso, 10)
        t = run_execution(cfg)
        for p in range(1, 6):
            assert indistinguishable(t, t, p, 10)

    def test_round_coverage_enforced(self, eps1_lasso):
        t = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 4))
        with pytest.raises(ValueError):
            indistinguishable(t, t, 1, 7)

    def test_partly_stepped_run_covers_exactly_the_rounds_it_ran(self, eps2_lasso):
        cfg = RunConfig(5, 2, (0, 0, 1, 1, 0), eps2_lasso, 10)
        full, run = run_execution(cfg), Run(cfg)
        for _ in range(3):
            run.step()
        assert indistinguishable(run, run, 2, 3) is True
        for p in range(1, 6):
            assert indistinguishable(run, full, p, 3)
        with pytest.raises(ValueError, match=r"^traces do not cover round 4$"):
            indistinguishable(run, run, 2, 4)
        for _ in range(9):  # past the horizon: the run covers every round it ran
            run.step()
        assert run.m == 12 and indistinguishable(run, run, 2, 12) is True
        assert indistinguishable(run, full, 2, 10)
        with pytest.raises(ValueError, match=r"^traces do not cover round 13$"):
            indistinguishable(run, run, 2, 13)

    @pytest.mark.parametrize(
        "p, through, message",
        [
            (0, 2, "p must be in 1..5, got 0"),
            (6, 2, "p must be in 1..5, got 6"),
            (2, -1, "through must be >= 0, got -1"),
        ],
    )
    def test_bad_process_or_round_rejected(self, eps2_lasso, p, through, message):
        t = run_execution(RunConfig(5, 2, (0, 0, 1, 1, 0), eps2_lasso, 10))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            indistinguishable(t, t, p, through)


class TestEpsPairScenario:
    def test_full_grid(self):
        for n in range(4, 9):
            for D in range(1, n - 2):
                report = eps_pair_report(n, D)
                assert report["ok"], (n, D, report["checks"])

    def test_alternating_prefix(self):
        for prefix in (1, 3):
            report = eps_pair_report(5, 2, prefix)
            assert report["ok"], report["checks"]

    def test_certificates(self):
        cfg_e, cfg_ep = scenario_eps_pair(5, 2)
        assert check_estable(cfg_e.lasso, 2).r_sr == 1
        cert = check_estable(cfg_ep.lasso, 2)
        assert (cert.r_sr, sorted(cert.root)) == (5, [4])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            scenario_eps_pair(3, 1)
        with pytest.raises(ValueError):
            scenario_eps_pair(5, 3)  # D must stay below n-2


class TestStabNotEnoughScenario:
    def test_safety_witness_and_agreement_failure(self):
        cfg1, cfg2 = scenario_stab_not_enough(6, tau=4, D=1)
        witness = diagnose("safety", cfg2.lasso, {"x": 1}).witness
        assert witness is not None
        assert (sorted(witness.root), witness.start, witness.end) == ([1], 1, 4)
        t1 = run_execution(cfg1)
        assert all(v == cfg1.inputs[0] for (_, v) in t1.decisions.values())
        assert len(t1.decisions) == 6
        t2 = run_execution(cfg2)
        assert not oracle_check(t2, cfg2.horizon).agreement_ok

    def test_tau_at_decision_round_suffices(self):
        cfg1, _ = scenario_stab_not_enough(5, tau=1, D=1)
        t1 = run_execution(cfg1)
        tau = t1.decisions[1][0]
        _, cfg2 = scenario_stab_not_enough(5, tau=tau, D=1)
        t2 = run_execution(cfg2)
        assert t2.decisions[1] == t1.decisions[1]  # identical view through tau
        assert not oracle_check(t2, cfg2.horizon).agreement_ok


class TestHopFallacyScenario:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_causal_distance_is_n_minus_1(self, n):
        l = scenario_hop_fallacy(n)
        assert 1 not in causal_past(l, n, 0, n - 2)
        assert 1 in causal_past(l, n, 0, n - 1)

    def test_per_round_path_length_two(self):
        l = scenario_hop_fallacy(5)
        for r in range(1, 8):
            assert bfs_distance(l.graph(r), 1, 5) == 2

    def test_every_round_single_rooted(self):
        l = scenario_hop_fallacy(5)
        for r in range(1, 8):
            assert root_components(l.graph(r)) == frozenset([frozenset([1])])

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_report_measures_per_round_distance(self, n):
        l = scenario_hop_fallacy(n)
        report = hop_fallacy_report(n)
        assert report["ok"], report
        assert report["per_round_distance"] == max(
            bfs_distance(g, 1, v) for g in l.cycle for v in range(2, n + 1)
        )

    @pytest.mark.parametrize("edges, distance", [
        ([(1, 2), (2, 3), (3, 4), (4, 5)], 4),
        ([(1, 2), (2, 3)], 5),  # 4 and 5 unreachable: reported as n
    ])
    def test_report_refutes_long_or_missing_paths(self, monkeypatch, edges, distance):
        monkeypatch.setattr(harness_mod, "scenario_hop_fallacy", lambda n: lasso(n, cycle=[edges]))
        report = hop_fallacy_report(5)
        assert report["per_round_distance"] == distance
        assert not report["checks"]["per_round_distance_is_2"] and not report["ok"]


class TestFuzz:
    def test_small_estable_campaign(self):
        summary = fuzz_campaign(trials=30, seed=5, adversary="estable")
        assert summary.all_ok, summary.to_json_dict()

    def test_small_altestable_campaign(self):
        summary = fuzz_campaign(trials=30, seed=6, adversary="altestable")
        assert summary.all_ok, summary.to_json_dict()

    def test_campaign_deterministic(self):
        a = fuzz_campaign(trials=10, seed=8).to_json_dict()
        b = fuzz_campaign(trials=10, seed=8).to_json_dict()
        assert a == b

    def test_campaign_memory_does_not_grow_with_trials(self, monkeypatch):
        # cases are sampled as they run and results folded as they come, so
        # with every trial stubbed to a pass, ten times the trials may not
        # take much more memory at the peak
        def passing(case):
            index, _, trial_seed, n, D, *_ = case
            return harness_mod.FuzzTrial(index, trial_seed, n, D, 0, True)

        monkeypatch.setattr(harness_mod, "_run_fuzz_case", passing)
        # a first untraced campaign fills the interpreter's per-size tuple
        # free lists, which tracemalloc would otherwise count as a one-off
        # growth of up to about 1 MB
        fuzz_campaign(trials=20_000, seed=1)
        peaks = []
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                assert fuzz_campaign(trials=trials, seed=1).passed == trials
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a worker pool of two needs two CPUs")
    def test_batched_worker_pool_folds_in_trial_order(self, monkeypatch):
        # batches of four cases: the pool gets eight of them in turn, and the
        # summary, with its two failures in trial order, is the serial one
        serial = fuzz_campaign(30, 21, "altestable", (2, 8), mode="bounded:7")
        monkeypatch.setattr(harness_mod, "FUZZ_BATCH_PER_JOB", 2)
        pooled = fuzz_campaign(30, 21, "altestable", (2, 8), mode="bounded:7", jobs=2)
        assert [f.index for f in serial.failures] == [8, 22]
        assert pooled.to_json_dict() == serial.to_json_dict()

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1, 10000])
    def test_jobs_outside_cpu_count_rejected_before_any_worker(self, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            pytest.fail(f"a process pool was started for jobs={jobs}")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="jobs must be in 1.."):
            fuzz_campaign(trials=2, seed=1, jobs=jobs)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"adversary": "foo"}, "unknown adversary 'foo'"),
            ({"mode": "partial"}, "unknown mode"),
            ({"n_range": (1, 4)}, "n range"),
            ({"d_cap": 0}, "d_cap"),
        ],
    )
    def test_bad_config_rejected_before_sampling(self, monkeypatch, bad, match):
        def no_sampling(*args):
            pytest.fail(f"trials were sampled for {bad}")

        monkeypatch.setattr(harness_mod, "random", SimpleNamespace(Random=no_sampling))
        with pytest.raises(ValueError, match=match):
            fuzz_campaign(trials=2, seed=1, **bad)

    def test_bounded_history_splits_decisions_under_alt_estable(self):
        # README: bounded history is lossless only under estable(D).  Under
        # alt_estable a 7-round window splits decisions on exactly these
        # trials (7 > 2D+1 = 5 on trial 42, n=3, D=2), while full history
        # passes every trial.  A fix of the protocol, or a drift, shows here.
        bounded = fuzz_campaign(100, 21, "altestable", (2, 8), mode="bounded:7")
        split = [f.index for f in bounded.failures if not json.loads(f.detail)["agreement"]]
        assert split == [22, 42, 82, 96]
        assert {f.kind for f in bounded.failures} == {"oracle"}
        assert fuzz_campaign(100, 21, "altestable", (2, 8)).passed == 100

    @pytest.mark.parametrize(
        "exc, kind",
        [
            (ValueError("bad trial configuration"), "config"),
            (GenerationRetryError("gave up"), "generator"),
            (InfeasibleParamsError("no such lasso"), "generator"),
            (EngineInvariantError(1, 3, "heard mismatch"), "invariant"),
            (KeyError("unexpected"), "invariant"),
        ],
    )
    def test_failure_kind_names_what_failed(self, monkeypatch, exc, kind):
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(harness_mod, "fuzz_trial", failing)
        summary = fuzz_campaign(trials=2, seed=1)
        assert [f.kind for f in summary.failures] == [kind, kind]
        assert [f["kind"] for f in summary.to_json_dict()["failures"]] == [kind, kind]

    def test_invalid_generated_lasso_is_a_config_failure(self, monkeypatch):
        bad = CommGraph(8, sum(mask_layout(8).bit(p, p) for p in range(2, 9)))  # no self-loop at process 1
        generated = (LassoSequence((), (bad,)), SimpleNamespace(deadline=5))
        monkeypatch.setattr(harness_mod, "generate_estable", lambda params: generated)
        summary = fuzz_campaign(trials=2, seed=1, n_range=(8, 8))
        assert [f.kind for f in summary.failures] == ["config", "config"]
        assert all("missing self-loop (1->1)" in f.detail for f in summary.failures)

    def test_estable_trial_uses_the_generators_certificate(self):
        # generate_estable returns check_estable's certificate of the lasso
        # it returns, so the trial checks it no second time
        for seed in (1, 7, 21):
            trace, _, cert = fuzz_trial("estable", seed=seed, n=6, D=2, r_sr=4, inputs=(3, 1, 4, 1, 5, 9))
            assert cert == check_estable(trace.config.lasso, 2) and trace.certificate is cert

    def test_altestable_trial_uses_the_generators_certificate(self, monkeypatch):
        # the generator hands over the certificate of its own check, made
        # with the same horizon, so the trial checks the lasso no second time
        def second_check(*args, **kwargs):
            raise AssertionError("the trial re-checked its lasso")

        monkeypatch.setattr(harness_mod, "check_alt_estable", second_check)
        for seed in (1, 7, 21):
            trace, report, cert = fuzz_trial("altestable", seed=seed, n=6, D=2, r_sr=6, inputs=(3, 1, 4, 1, 5, 9))
            lasso_seq, planted = generate_alt_estable(AdversaryParams(n=6, D=2, seed=seed, r_sr_target=6))
            horizon = max(lasso_seq.default_horizon(), planted.deadline + 1)
            assert report.all_ok and trace.config.lasso == lasso_seq and trace.certificate is cert
            assert cert == check_alt_estable(lasso_seq, 2, horizon)

    def test_trial_replay_reproduces_trace(self):
        t1, r1, c1 = fuzz_trial("estable", seed=12345, n=5, D=2, r_sr=4, inputs=(9, 1, 5, 5, 2))
        t2, r2, c2 = fuzz_trial("estable", seed=12345, n=5, D=2, r_sr=4, inputs=(9, 1, 5, 5, 2))
        assert run_with_trace(t1.config)[1] == run_with_trace(t2.config)[1]
        assert r1 == r2 and c1 == c2

    def test_trial_with_an_unknown_adversary_rejected(self):
        with pytest.raises(ValueError, match="unknown adversary 'mad'"):
            fuzz_trial("mad", seed=1, n=5, D=2, r_sr=4, inputs=(1, 2, 3, 4, 5))

    def test_mutation_smoke_oracle_catches_broken_step(self, monkeypatch):
        # dropping the outgoing-edge guard makes the second lower-bound
        # execution decide on the stale early root and split the outcome:
        # this c2_check takes every root of the approximation, ghosts
        # included, as confirmed.  The c2 gate rests on that guard too (a
        # ghost's run is no run of the true graphs), so the mutant replaces
        # the whole c2 decision: the scan, and the gate forced open
        def unguarded(s, D, resume=0):
            low, hit = max(1, s.tables.lo), None
            begin, run_root, start = max(resume, low + D), None, low
            for r in range(low, s.tables.m):
                roots = approx_roots(s, r)
                single = next(iter(roots)) if len(roots) == 1 else None
                if single is None:
                    run_root, start = None, r + 1
                elif single != run_root:
                    run_root, start = single, r
                elif r - start >= D and r >= begin and hit is None:
                    hit = run_root, (r - D, r)
            s.stale_from = s.tables.m
            return hit

        monkeypatch.setattr(consensus_mod, "c2_check", unguarded)
        open_c2_gate(monkeypatch)
        _, cfg_ep = scenario_eps_pair(5, 2)
        trace = run_execution(cfg_ep)
        report = oracle_check(trace, 9)
        assert not report.agreement_ok
