import json
import random
from dataclasses import replace

import pytest

from oracles import bfs_distance

import rootcons.consensus as consensus_mod
import rootcons.harness as harness_mod
from rootcons.adversary import check_estable, check_safety
from rootcons.approximation import edge_bit
from rootcons.graphs import causal_past, lasso, root_components
from rootcons.harness import (
    EngineInvariantError,
    RunConfig,
    eps_pair_report,
    fuzz_campaign,
    fuzz_trial,
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

    def test_identical_configs_identical_traces(self, eps2_lasso):
        cfg = RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 12)
        a = run_execution(cfg)
        b = run_execution(cfg)
        assert a.to_json_lines() == b.to_json_lines()
        assert a.snapshots == b.snapshots

    def test_config_validation(self, eps1_lasso):
        with pytest.raises(ValueError):
            RunConfig(4, 2, (0,) * 4, eps1_lasso, 5)  # n mismatch
        with pytest.raises(ValueError):
            RunConfig(5, 2, (0,) * 4, eps1_lasso, 5)  # inputs length
        with pytest.raises(ValueError):
            RunConfig(5, 9, (0,) * 5, eps1_lasso, 5)  # D range

    def test_trace_json_lines_parse(self, eps1_lasso):
        trace = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 6))
        lines = trace.to_json_lines().splitlines()
        assert len(lines) == 6
        first = json.loads(lines[0])
        assert first["round"] == 1
        assert ["1", "3"] not in first["graph"]  # edges serialize as int pairs
        assert json.loads(json.dumps(trace.summary_dict()))


def _drop_relayed_approx(merge, s, msgs, m):
    return merge(s, [replace(msg, approx={}) for msg in msgs], m)


def _drop_relayed_locks(merge, s, msgs, m):
    own_rows = [replace(msg, locks={msg.sender: msg.locks[msg.sender]}) for msg in msgs]
    return merge(s, own_rows, m)


def _wrong_lock_value(merge, s, msgs, m):
    merge(s, msgs, m)
    s.locks[5][1] += 1


def _fabricated_edge(merge, s, msgs, m):
    merge(s, msgs, m)
    s.approx[1] |= edge_bit(3, 2)


def _retained_past_window(merge, s, msgs, m):
    stale = s.approx[m - 2]
    merge(s, msgs, m)
    s.approx[m - 2] = stale


class TestInvariantMonitor:
    """Each fault is injected into p2's merge of one round (eps1: 1 -> 5 -> 2,
    1 -> 3, 1 -> 4); the monitor must name exactly that process and round."""

    @pytest.mark.parametrize(
        "fault, mode, round_, why",
        [
            (_drop_relayed_approx, "full", 2,
             "approx[1] is [(2, 2), (5, 2)], expected [(1, 5), (2, 2), (5, 2), (5, 5)] "
             "(heard[2]=[0, 2, -1, -1, 1]; rounds 0..2 kept)"),
            (_drop_relayed_locks, "full", 2,
             "lock[1][0] is absent, expected 3 (heard[2][1]=0; rounds 0..2 kept)"),
            (_wrong_lock_value, "full", 2,
             "lock[5][1] is 6, expected 5 (heard[2][5]=1; rounds 0..2 kept)"),
            (_fabricated_edge, "full", 2,
             "approx[1] is [(1, 5), (2, 2), (3, 2), (5, 2), (5, 5)], expected [(1, 5), (2, 2), (5, 2), (5, 5)]"),
            (_retained_past_window, "bounded:1", 3,
             "approx[1] is [(1, 5), (2, 2), (5, 2), (5, 5)], expected absent (heard[2]=[1, 3, -1, -1, 2]; rounds 2..3 kept)"),
        ],
        ids=["dropped-relayed-edges", "dropped-relayed-lock", "wrong-lock-value",
             "fabricated-edge", "retained-past-window"],
    )
    def test_fault_names_process_and_round(self, monkeypatch, eps1_lasso, fault, mode, round_, why):
        merge = harness_mod.receive_and_merge

        def faulty_merge(s, msgs, m):
            if (s.pid, m) == (2, round_):
                return fault(merge, s, list(msgs), m)
            return merge(s, msgs, m)

        monkeypatch.setattr(harness_mod, "receive_and_merge", faulty_merge)
        cfg = RunConfig(5, 2, (3, 1, 4, 1, 5), eps1_lasso, 8, mode=mode)
        with pytest.raises(EngineInvariantError) as caught:
            run_execution(cfg)
        assert (caught.value.pid, caught.value.round) == (2, round_)
        assert why in str(caught.value)

    @pytest.mark.parametrize("mode", ["full", "bounded:1", "bounded:5"])
    def test_fault_free_runs_pass(self, eps2_lasso, mode):
        run_execution(RunConfig(5, 2, (3, 1, 4, 1, 5), eps2_lasso, 14, mode=mode))


class TestOracleCheck:
    def test_eps1_passes_at_deadline_five(self, eps1_lasso):
        trace = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 8))
        report = oracle_check(trace, 5)
        assert report.all_ok
        assert report.latest_decision_round == 5

    def test_truncated_run_fails_termination(self, eps1_lasso):
        trace = run_execution(RunConfig(5, 2, (0,) * 5, eps1_lasso, 2))
        report = oracle_check(trace, 10)
        assert not report.termination_ok
        assert report.termination_witness[0] == "undecided"

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
        witness = check_safety(cfg2.lasso, 1)
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
        w = l.window(1, n)
        assert 1 not in causal_past(w, n, 0, n - 2)
        assert 1 in causal_past(w, n, 0, n - 1)

    def test_per_round_path_length_two(self):
        l = scenario_hop_fallacy(5)
        for r in range(1, 8):
            assert bfs_distance(l.graph(r), 1, 5) == 2

    def test_every_round_single_rooted(self):
        l = scenario_hop_fallacy(5)
        for r in range(1, 8):
            assert root_components(l.graph(r)) == frozenset([frozenset([1])])


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

    def test_trial_replay_reproduces_trace(self):
        t1, r1, c1 = fuzz_trial("estable", seed=12345, n=5, D=2, r_sr=4, inputs=(9, 1, 5, 5, 2))
        t2, r2, c2 = fuzz_trial("estable", seed=12345, n=5, D=2, r_sr=4, inputs=(9, 1, 5, 5, 2))
        assert t1.to_json_lines() == t2.to_json_lines()
        assert r1 == r2 and c1 == c2

    def test_mutation_smoke_oracle_catches_broken_step(self, monkeypatch):
        # dropping both outgoing-edge guards makes the second lower-bound
        # execution decide on the stale early root and split the outcome
        monkeypatch.setattr(consensus_mod, "confirmed_roots", lambda s, r: list(s.roots_at(r)))
        monkeypatch.setattr(consensus_mod, "c3_check", lambda s, root, b_end: True)
        _, cfg_ep = scenario_eps_pair(5, 2)
        trace = run_execution(cfg_ep)
        report = oracle_check(trace, 9)
        assert not report.agreement_ok
