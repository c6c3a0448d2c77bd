import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rootcons.approximation import RunTables
from rootcons.graphs import CommGraph, LassoSequence, lasso
from rootcons.harness import Run, trace_line


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


def run_with_snapshots(cfg) -> tuple:
    """Run ``cfg`` (monitored) and return (the run, snapshots taken directly):
    ``NodeState.snapshot()`` of every process at round 0 and after every
    round's step, which runs every process's merge and core step."""
    run = Run(cfg)
    direct = [{p: st.snapshot() for p, st in run.states.items()}]
    for _ in range(cfg.horizon):
        run.step()
        direct.append({p: st.snapshot() for p, st in run.states.items()})
    return run, direct


def run_with_trace(cfg, rounds=None) -> tuple:
    """Step a run of ``cfg`` ``rounds`` times (``cfg.horizon`` by default)
    and return (the run, each round's ``trace_line``, built from the
    outcomes its step returned)."""
    run, lines = Run(cfg), []
    for _ in range(cfg.horizon if rounds is None else rounds):
        outcomes = run.step()
        lines.append(trace_line(run.m, cfg.lasso.graph(run.m), outcomes))
    return run, lines


def open_c2_gate(patch) -> None:
    """Patch ``RunTables.enter`` so that the run's latest long round is
    always the current one, at or after every round c2 could hit: the core
    step's c2 gate never shuts, and every undecided step searches c2, as
    before the gate."""
    enter = RunTables.enter

    def entered(self, m, g, D):
        lo = enter(self, m, g, D)
        self.last_long = m
        return lo

    patch.setattr(RunTables, "enter", entered)
