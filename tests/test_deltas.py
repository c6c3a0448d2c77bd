"""States rebuilt from a trace against state snapshots taken directly.

``indistinguishable`` compares the states it rebuilds from each trace; it
must give the same verdict as comparing ``NodeState.snapshot()`` round for
round, for every process and round of a pair of runs.
"""

import random

import pytest

from conftest import random_graph, random_lasso, run_with_snapshots

import rootcons.harness as harness_mod
from rootcons.graphs import LassoSequence
from rootcons.harness import (
    RunConfig,
    indistinguishable,
    scenario_eps_pair,
    scenario_stab_not_enough,
)

EPS_PAIR_GRID = [(n, D, 0) for n in range(4, 9) for D in range(1, n - 2)] + [
    (n, 2, prefix) for n in (5, 6) for prefix in (1, 3)
]


def snapshots_indistinguishable(snaps_a: list, snaps_b: list, p: int, through: int) -> bool:
    return all(snaps_a[r][p] == snaps_b[r][p] for r in range(through + 1))


def compare_pair(cfg_a, cfg_b) -> list:
    """Check every (p, t) verdict of the pair; returns the verdicts."""
    trace_a, snaps_a = run_with_snapshots(cfg_a)
    trace_b, snaps_b = run_with_snapshots(cfg_b)
    verdicts = []
    for p in range(1, cfg_a.n + 1):
        for t in range(min(len(snaps_a), len(snaps_b))):
            by_rebuilt = indistinguishable(trace_a, trace_b, p, t)
            assert by_rebuilt == snapshots_indistinguishable(snaps_a, snaps_b, p, t), (p, t)
            verdicts.append(by_rebuilt)
    return verdicts


@pytest.mark.parametrize("n, D, prefix", EPS_PAIR_GRID)
def test_eps_pair_every_process_and_round(n, D, prefix):
    verdicts = compare_pair(*scenario_eps_pair(n, D, prefix))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("n, tau", [(6, 4), (5, 3)])
def test_stab_not_enough_every_process_and_round(n, tau):
    verdicts = compare_pair(*scenario_stab_not_enough(n, tau, 1))
    assert True in verdicts and False in verdicts


def test_random_paired_runs():
    # even pairs: one lasso, inputs differing at one process; odd pairs: a
    # shared prefix followed by different cycles, equal inputs
    rng = random.Random("delta-pairs")
    verdicts = []
    for i in range(100):
        n = rng.randint(2, 6)
        D = rng.randint(1, n - 1)
        horizon = rng.randint(3, 12)
        mode = rng.choice(["full", f"bounded:{2 * D + 1 + rng.randint(0, 2)}"])
        inputs = tuple(rng.randint(0, 3) for _ in range(n))
        density = rng.uniform(0.1, 0.5)
        if i % 2 == 0:
            lasso_a = lasso_b = random_lasso(rng, n, rng.randint(0, 4), density)
            changed = list(inputs)
            changed[rng.randrange(n)] += 1
            inputs_b = tuple(changed)
        else:
            prefix = tuple(random_graph(rng, n, density) for _ in range(rng.randint(1, 5)))
            lasso_a = LassoSequence(prefix, (random_graph(rng, n, density),))
            lasso_b = LassoSequence(prefix, (random_graph(rng, n, density),))
            inputs_b = inputs
        cfg_a = RunConfig(n, D, inputs, lasso_a, horizon, mode=mode)
        cfg_b = RunConfig(n, D, inputs_b, lasso_b, horizon, mode=mode)
        verdicts += compare_pair(cfg_a, cfg_b)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_different_windows_are_distinguishable():
    cfg_full, _ = scenario_eps_pair(5, 2)
    cfg_bounded = RunConfig(5, 2, cfg_full.inputs, cfg_full.lasso, cfg_full.horizon, mode="bounded:5")
    assert compare_pair(cfg_full, cfg_bounded) == [False] * 5 * (cfg_full.horizon + 1)


@pytest.mark.parametrize("mode", ["full", "bounded:5"])
def test_rebuilt_states_are_the_direct_snapshots(mode):
    rng = random.Random(f"rebuilt-states:{mode}")
    for _ in range(20):
        n = rng.randint(3, 6)
        inputs = tuple(rng.randint(0, 3) for _ in range(n))
        cfg = RunConfig(n, 2, inputs, random_lasso(rng, n, rng.randint(0, 4), 0.3), rng.randint(3, 12), mode=mode)
        trace, snaps = run_with_snapshots(cfg)
        for p in range(1, n + 1):
            assert harness_mod._rebuilt_states(trace, p) == [snap[p] for snap in snaps], p
