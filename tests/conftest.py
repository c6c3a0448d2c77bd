import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import rootcons.harness as harness_mod
from rootcons.approximation import init_states
from rootcons.graphs import CommGraph, LassoSequence, lasso


EPS1_EDGES = [(1, 3), (1, 4), (1, 5), (5, 2)]
EPS2_GP = [(3, 4), (1, 5), (5, 2)]
EPS2_GPP = [(4, 3), (1, 5), (5, 2), (2, 1)]
EPS2_GPPP = EPS2_GPP + [(4, 5), (4, 1)]


@pytest.fixture(scope="session")
def eps1_lasso() -> LassoSequence:
    """Static single-rooted chain graph, n=5, D=2: same graph every round."""
    return lasso(5, cycle=[EPS1_EDGES])


@pytest.fixture(scope="session")
def eps2_lasso() -> LassoSequence:
    """Two-rooted for 2D rounds, then a new root takes over forever (n=5, D=2)."""
    return lasso(5, prefix=[EPS2_GP, EPS2_GP, EPS2_GPP, EPS2_GPP], cycle=[EPS2_GPPP])


def random_graph(rng: random.Random, n: int, density: float = 0.3) -> CommGraph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if u != v and rng.random() < density
    ]
    return CommGraph.of(n, edges)


def random_lasso(rng: random.Random, n: int, rounds: int, density: float = 0.3) -> LassoSequence:
    prefix = [random_graph(rng, n, density) for _ in range(rounds)]
    cycle = [random_graph(rng, n, density)]
    return LassoSequence(tuple(prefix), tuple(cycle))


def run_with_snapshots(cfg, monkeypatch) -> tuple:
    """Run ``cfg`` (monitored) and return (trace, snapshots taken directly):
    ``NodeState.snapshot()`` of every process at round 0 and at the end of
    every round, collected by a wrapper around the invariant monitor's
    ``after_round``, which runs after every process's merge and core step."""
    direct = [{p: st.snapshot() for p, st in init_states(cfg.inputs, cfg.mode).items()}]
    after_round = harness_mod._InvariantMonitor.after_round

    def recording(self, m, g, states, outcomes):
        after_round(self, m, g, states, outcomes)
        direct.append({p: st.snapshot() for p, st in states.items()})

    with monkeypatch.context() as patch:
        patch.setattr(harness_mod._InvariantMonitor, "after_round", recording)
        trace = harness_mod.run_execution(cfg)
    return trace, direct
