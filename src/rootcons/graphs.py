"""Directed round-graph analysis: root components, common-root runs, causal past.

A round graph is a directed communication graph over processes ``1..n`` with
mandatory self-loops.  Infinite graph sequences are encoded as lassos (a
finite prefix followed by an endlessly repeated cycle), and a
:class:`RoundWindow` materializes a finite slice of rounds for causal-past
queries.

Round indexing starts at 1.  Round 0 denotes "before round 1" and is a legal
lower bound for causal-past queries: ``causal_past(w, p, 0, b)`` asks which
processes' *initial* states have reached ``p`` by the end of round ``b``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

ProcessId = int
Edge = tuple[int, int]
RootComponent = frozenset  # frozenset[ProcessId]


def self_loops(n: int) -> frozenset:
    return frozenset((p, p) for p in range(1, n + 1))


@dataclass(frozen=True)
class CommGraph:
    """One round's directed communication graph over processes 1..n."""

    n: int
    edges: frozenset

    @classmethod
    def of(cls, n: int, edges: Iterable[Edge] = ()) -> "CommGraph":
        """Build a graph from ``edges``, adding the mandatory self-loops."""
        return cls(n, frozenset((int(u), int(v)) for u, v in edges) | self_loops(n))

    def in_neighbors(self, p: int) -> frozenset:
        return frozenset(u for (u, v) in self.edges if v == p)

    def out_neighbors(self, p: int) -> frozenset:
        return frozenset(v for (u, v) in self.edges if u == p)

    def nonloop_edges(self) -> list:
        return sorted(e for e in self.edges if e[0] != e[1])


def validate_graph(g: CommGraph) -> list:
    """Return a list of invariant violations; an empty list means the graph is valid.

    Violations are reported, not raised: a missing self-loop or an endpoint
    outside ``1..n`` each yield one entry.
    """
    violations = []
    for p in range(1, g.n + 1):
        if (p, p) not in g.edges:
            violations.append(f"missing self-loop ({p}->{p})")
    for (u, v) in sorted(g.edges):
        if not (1 <= u <= g.n and 1 <= v <= g.n):
            violations.append(f"endpoint out of range ({u}->{v})")
    return violations


@lru_cache(maxsize=None)
def strongly_connected_components(g: CommGraph) -> tuple:
    """All SCCs of ``g`` as a tuple of frozensets (Tarjan, iterative)."""
    adj = {v: [] for v in range(1, g.n + 1)}
    for (u, v) in g.edges:
        if u != v:
            adj[u].append(v)
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = 0
    for start in range(1, g.n + 1):
        if start in index:
            continue
        work = [(start, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            recursed = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recursed = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if recursed:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return tuple(sccs)


@lru_cache(maxsize=None)
def root_components(g: CommGraph) -> frozenset:
    """The root components of ``g``: SCCs with no incoming edge from outside.

    Every directed graph has at least one root component; if there is exactly
    one, the graph is weakly connected.
    """
    sccs = strongly_connected_components(g)
    comp_of = {}
    for comp in sccs:
        for v in comp:
            comp_of[v] = comp
    non_roots = set()
    for (u, v) in g.edges:
        cu, cv = comp_of[u], comp_of[v]
        if cu is not cv:
            non_roots.add(cv)
    return frozenset(c for c in sccs if c not in non_roots)


@dataclass(frozen=True)
class LassoSequence:
    """Finite encoding of an infinite graph sequence: prefix + repeated cycle.

    Round ``r >= 1`` maps to ``prefix[r-1]`` while ``r <= len(prefix)`` and
    cycles through ``cycle`` afterwards.
    """

    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        if len(self.cycle) < 1:
            raise ValueError("lasso cycle must contain at least one graph")
        ns = {g.n for g in self.prefix} | {g.n for g in self.cycle}
        if len(ns) != 1:
            raise ValueError("all lasso graphs must share the same process count")

    @property
    def n(self) -> int:
        return self.cycle[0].n

    def graph(self, r: int) -> CommGraph:
        if r < 1:
            raise ValueError(f"round must be >= 1, got {r}")
        if r <= len(self.prefix):
            return self.prefix[r - 1]
        return self.cycle[(r - len(self.prefix) - 1) % len(self.cycle)]

    def window(self, start: int, end: int) -> "RoundWindow":
        return RoundWindow(self, start, end)

    def default_horizon(self) -> int:
        # Per-round root predicates repeat after one cycle; interval
        # predicates span at most one wrap, so prefix + 2 cycles + slack
        # covers every distinct pattern.
        return len(self.prefix) + 2 * len(self.cycle) + 2 * self.n


def lasso(n: int, prefix: Iterable = (), cycle: Iterable = ()) -> LassoSequence:
    """Convenience builder: edge lists in, self-loops implied."""
    pg = tuple(g if isinstance(g, CommGraph) else CommGraph.of(n, g) for g in prefix)
    cg = tuple(g if isinstance(g, CommGraph) else CommGraph.of(n, g) for g in cycle)
    return LassoSequence(pg, cg)


@dataclass(frozen=True)
class RoundWindow:
    """Rounds ``[start, end]`` of a lasso, materialized on demand."""

    lasso: LassoSequence
    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ValueError(f"invalid window [{self.start},{self.end}]")

    @property
    def n(self) -> int:
        return self.lasso.n

    def rounds(self) -> range:
        return range(self.start, self.end + 1)

    def graph(self, r: int) -> CommGraph:
        if not (self.start <= r <= self.end):
            raise ValueError(f"round {r} outside window [{self.start},{self.end}]")
        return self.lasso.graph(r)


@dataclass(frozen=True)
class Run:
    """Maximal run of consecutive rounds on which ``root`` is a root component."""

    root: frozenset
    start: int
    end: Optional[int]  # None = forever

    def length(self) -> float:
        return math.inf if self.end is None else self.end - self.start + 1


def maximal_root_runs(l: LassoSequence, scan_to: int) -> list:
    """Every maximal common-root run of the lasso starting by round ``scan_to``.

    ``scan_to`` must cover the prefix.  Finite runs carry exact bounds even
    when they extend past ``scan_to``; a run whose root is a root component of
    every cycle graph extends forever and is marked with ``end=None``.
    """
    if scan_to < len(l.prefix):
        raise ValueError(f"scan_to {scan_to} must cover the {len(l.prefix)}-round prefix")
    always_cycle_roots = frozenset.intersection(
        *[frozenset(root_components(g)) for g in l.cycle]
    )
    open_runs = {}
    runs = []
    for r in range(1, scan_to + 1):
        roots_now = root_components(l.graph(r))
        for root in list(open_runs):
            if root not in roots_now:
                runs.append(Run(root, open_runs.pop(root), r - 1))
        for root in roots_now:
            open_runs.setdefault(root, r)
    for root, start in open_runs.items():
        if root in always_cycle_roots:
            runs.append(Run(root, start, None))
        else:
            # the run must break within one further cycle pass
            r = scan_to + 1
            while root in root_components(l.graph(r)):
                r += 1
                if r > scan_to + len(l.cycle) + 1:
                    raise AssertionError("finite run failed to terminate within a cycle")
            runs.append(Run(root, start, r - 1))
    runs.sort(key=lambda run: (run.start, run.end if run.end is not None else math.inf, sorted(run.root)))
    return runs


def _causal_past(graph_at: Callable[[int], CommGraph], p: int, a: int, b: int) -> frozenset:
    # Backward recursion: CP(b,b) = {p}; going from level l to l-1, q joins
    # when it has an edge into the current set in round l, i.e. q's end-of-
    # round-(l-1) state reached a process already known to influence p.
    cp = {p}
    for level in range(b, a, -1):
        g = graph_at(level)
        cp |= {u for (u, v) in g.edges if v in cp}
    return frozenset(cp)


def _forward_reach(graph_at: Callable[[int], CommGraph], q: int, a: int, b: int) -> frozenset:
    reach = {q}
    for r in range(a + 1, b + 1):
        g = graph_at(r)
        reach |= {v for (u, v) in g.edges if u in reach}
    return frozenset(reach)


def _check_cp_bounds(w: RoundWindow, a: int, b: int):
    if a > b:
        raise ValueError(f"invalid causal-past interval [{a},{b}]")
    if b > w.end or a + 1 < w.start:
        raise ValueError(
            f"causal-past interval [{a},{b}] needs rounds {a + 1}..{b} inside window"
            f" [{w.start},{w.end}]"
        )


def causal_past(w: RoundWindow, p: int, a: int, b: int) -> frozenset:
    """Processes whose end-of-round-``a`` state has affected ``p``'s end-of-round-``b`` state.

    Computed by the backward recursion over rounds ``b`` down to ``a+1``.
    The result is monotone: shrinking ``a`` never removes members.
    """
    _check_cp_bounds(w, a, b)
    return _causal_past(w.lasso.graph, p, a, b)


def causal_past_forward(w: RoundWindow, p: int, a: int, b: int) -> frozenset:
    """Independent recomputation of :func:`causal_past` by forward influence propagation."""
    _check_cp_bounds(w, a, b)
    return frozenset(
        q for q in range(1, w.n + 1) if p in _forward_reach(w.lasso.graph, q, a, b)
    )


@dataclass(frozen=True)
class DiameterWitness:
    root: frozenset
    rounds: tuple
    process: int

    def describe(self) -> str:
        return (
            f"root {sorted(self.root)} single-rooted in rounds {list(self.rounds)} "
            f"does not reach process {self.process}"
        )

    def to_json_dict(self) -> dict:
        return {"root": sorted(self.root), "rounds": list(self.rounds), "process": self.process}


def single_rooted_rounds(l: LassoSequence, horizon: int) -> dict:
    """Map root R -> sorted rounds r <= horizon with roots(G^r) == {R}."""
    out = {}
    for r in range(1, horizon + 1):
        roots_now = root_components(l.graph(r))
        if len(roots_now) == 1:
            (root,) = roots_now
            out.setdefault(root, []).append(r)
    return out


def check_dynamic_diameter(l: LassoSequence, D: int, horizon: Optional[int] = None):
    """Verify the dynamic-diameter guarantee up to ``horizon``.

    For every R and every choice of D (not necessarily consecutive)
    R-single-rooted rounds ``r_1 < ... < r_D <= horizon``, R must be in the
    causal past CP_p(r_1 - 1, r_D) of every process p.  Returns ``None`` when
    the guarantee holds, otherwise a :class:`DiameterWitness`.

    Only the tightest subsequences (consecutive picks from the single-rooted
    round list) need checking: enlarging r_D only grows the causal past.
    """
    n = l.n
    if not (1 <= D <= n - 1):
        raise ValueError(f"D must satisfy 1 <= D <= n-1, got D={D}, n={n}")
    if horizon is None:
        horizon = l.default_horizon()
    everyone = frozenset(range(1, n + 1))
    for root, rounds in sorted(single_rooted_rounds(l, horizon).items(), key=lambda kv: sorted(kv[0])):
        for i in range(len(rounds) - D + 1):
            r1, rd = rounds[i], rounds[i + D - 1]
            for q in sorted(root):
                reach = _forward_reach(l.graph, q, r1 - 1, rd)
                if reach != everyone:
                    missing = min(everyone - reach)
                    return DiameterWitness(root, tuple(rounds[i : i + D]), missing)
    return None


# --- serialization ---------------------------------------------------------


def lasso_to_json_dict(l: LassoSequence) -> dict:
    return {
        "n": l.n,
        "prefix": [g.nonloop_edges() for g in l.prefix],
        "cycle": [g.nonloop_edges() for g in l.cycle],
    }


def lasso_to_json(l: LassoSequence) -> str:
    return json.dumps(lasso_to_json_dict(l), sort_keys=True)


def lasso_from_json_dict(data: dict) -> LassoSequence:
    for field in ("n", "cycle"):
        if field not in data:
            raise ValueError(f"lasso JSON missing field '{field}'")
    n = data["n"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"lasso JSON field 'n' must be a positive integer, got {n!r}")
    prefix = [CommGraph.of(n, edges) for edges in data.get("prefix", [])]
    cycle = [CommGraph.of(n, edges) for edges in data["cycle"]]
    l = LassoSequence(tuple(prefix), tuple(cycle))
    for i, g in enumerate(list(l.prefix) + list(l.cycle)):
        bad = validate_graph(g)
        if bad:
            raise ValueError(f"graph {i} invalid: {bad[0]}")
    return l


def lasso_from_json(text: str) -> LassoSequence:
    return lasso_from_json_dict(json.loads(text))


def graph_to_dot(g: CommGraph, name: str = "round") -> str:
    """DOT rendering with root-component members drawn double-circled."""
    root_members = set()
    for root in root_components(g):
        root_members |= root
    lines = [f"digraph {name} {{"]
    for p in range(1, g.n + 1):
        shape = "doublecircle" if p in root_members else "circle"
        lines.append(f'  p{p} [shape={shape}, label="p{p}"];')
    for (u, v) in sorted(g.edges):
        if u != v:
            lines.append(f"  p{u} -> p{v};")
    lines.append("}")
    return "\n".join(lines)
