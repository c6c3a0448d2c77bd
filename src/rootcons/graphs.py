"""Directed round-graph analysis: root components, common-root runs, causal past.

A round graph is a directed communication graph over processes ``1..n`` with
mandatory self-loops.  Infinite graph sequences are encoded as lassos (a
finite prefix followed by an endlessly repeated cycle).

Round indexing starts at 1.  Round 0 denotes "before round 1" and is a legal
lower bound for causal-past queries: ``causal_past(l, p, 0, b)`` asks which
processes' *initial* states have reached ``p`` by the end of round ``b``.

This module owns the edge-mask layout and the one root-component kernel.  An
n-process edge set is an integer bitmask in which edge (u, v) is bit
``(u-1)*W + (v-1)`` for the width ``W`` of ``mask_layout(n)``: a W x W bit matrix
whose row u-1 holds u's out-neighbours and whose column v-1 holds the
in-neighbours of v.  Bit i of a row, or of any vertex set, is process i+1.
A round graph *is* its mask: ``CommGraph(n, mask)`` is built straight from an
int, compares and hashes on ``(n, mask)``, and decodes its edges
(``MaskLayout.edges``) only for output.  Bit-matrix products read only a
graph's relaying rows (``CommGraph.relays``).  A lasso's root runs and
single-rooted rounds are read from a position table, root -> bitset of
rounds, filled once per lasso over one pass of it and unrolled to any bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

Edge = tuple[int, int]

MAX_PROCESSES = 1024  # a mask holds width^2 bits, so the width must stay small


class lazy:
    """A field derived by the decorated method on first read and stored in
    the instance's ``__dict__``, where every later read finds it first (the
    descriptor has no ``__set__``).  ``functools.cached_property`` does the
    same, but on Python 3.10 and 3.11 it takes one class-wide lock on every
    miss."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class MaskLayout:
    """The constants of the edge-mask layout at one width."""

    __slots__ = ("width", "row", "column", "diagonal", "halves", "transpose")

    def __init__(self, width: int):
        self.width = width
        self.row = (1 << width) - 1  # every edge out of process 1
        self.column = sum(1 << (u * width) for u in range(width))  # every edge into process 1
        self.diagonal = sum(1 << (u * (width + 1)) for u in range(width))  # every self-loop
        self.halves = [width >> d for d in range(1, width.bit_length())]  # W/2, ..., 2, 1
        # Delta swaps that transpose the matrix: swap the off-diagonal s x s blocks.
        self.transpose = []
        for s in self.halves:
            columns = sum(1 << j for j in range(width) if j & s)
            block = sum(columns << (i * width) for i in range(width) if not i & s)
            self.transpose.append((s * (width - 1), block))

    def bit(self, u: int, v: int) -> int:
        """The bit of edge (u, v)."""
        return 1 << ((u - 1) * self.width + (v - 1))

    def loops(self, n: int) -> int:
        """The self-loops of processes 1..n."""
        return self.diagonal & (1 << n * (self.width + 1)) - 1

    def block(self, n: int) -> int:
        """Every edge between processes 1..n: the top-left n x n block."""
        return ((1 << n) - 1) * (self.column & (1 << n * self.width) - 1)

    def transposed(self, mask: int) -> int:
        """``mask`` with rows and columns swapped: its row v-1 holds the
        in-neighbours of v."""
        for shift, block in self.transpose:
            swap = (mask ^ mask >> shift) & block
            mask ^= swap ^ swap << shift
        return mask

    def edges(self, mask: int) -> list:
        """The edges (u, v) of ``mask``, sorted."""
        edges = []
        while mask:
            i = (mask & -mask).bit_length() - 1
            edges.append((i // self.width + 1, i % self.width + 1))
            mask &= mask - 1
        return edges


_LAYOUTS = {}  # width -> MaskLayout, filled on first use; at most 11 widths up to MAX_PROCESSES


def mask_layout(n: int) -> MaskLayout:
    """The layout of n-process edge masks.  Its width, the bits per row, is the
    smallest power of two >= n (a power of two keeps the delta-swap
    transpose valid)."""
    if n > MAX_PROCESSES:
        raise ValueError(f"n must be <= {MAX_PROCESSES}, got {n}")
    width = 1 << (n - 1).bit_length()
    return _LAYOUTS.get(width) or _LAYOUTS.setdefault(width, MaskLayout(width))


def _pids(bits: int) -> tuple:
    """Process ids of a vertex bitset, ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length())
        bits ^= low
    return tuple(ids)


def _processes(bits: int) -> frozenset:
    """Process ids of a vertex bitset."""
    return frozenset(_pids(bits))


def roots_of_mask(mask: int, vertices: int, lay: MaskLayout) -> frozenset:
    """Root components of the graph over the vertex bitset ``vertices``,
    which holds every endpoint of ``mask``, every vertex with a self-loop.

    A Warshall closure ORs row k into every row that reaches k, one multiply
    per k; a transpose gives each vertex's ancestors; and a vertex lies in a
    root component iff its ancestors are a subset of its reach, the
    component then being exactly its ancestors.

    The closure visits only the relaying vertices, those with an out-edge
    besides the self-loop, highest first: a vertex with no out-edge is never
    an intermediate vertex of a path, and Warshall's order is free.  Each
    pick then settles its whole reach: every descendant of a non-root vertex
    v is itself a non-root vertex (were a descendant w in a root, v, an
    ancestor of w, would lie in w's strong component), and a root's
    descendants outside the root are non-root too.  So a star costs one
    multiply and one pick; a dense graph still costs O(n) multiplies.
    """
    width, row, column = lay.width, lay.row, lay.column
    reach = mask
    relaying = mask & ~lay.diagonal
    while relaying:
        k = (relaying.bit_length() - 1) // width
        reach |= (reach >> k & column) * (reach >> k * width & row)
        relaying &= (1 << k * width) - 1  # rows below k
    ancestors = lay.transposed(reach)
    todo, found = vertices, []
    while todo:
        bit = todo & -todo
        v = bit.bit_length() - 1
        above = ancestors >> v * width & row | bit
        below = reach >> v * width & row | bit
        if not above & ~below:
            found.append(_processes(above))
        todo &= ~below  # v's reach holds no root vertex outside v's component
    return frozenset(found)


@dataclass(frozen=True)
class CommGraph:
    """One round's directed communication graph over processes 1..n.

    The graph is its edge mask in the layout of ``mask_layout(n)``: it
    compares and hashes on ``(n, mask)``.  Its relaying rows (``relays``),
    its in-neighbour classes, its root components and their member bitsets
    are each derived once, on first use, and stay out of ``==``, ``hash``
    and ``repr``.
    """

    n: int
    mask: int

    @lazy
    def relays(self) -> tuple:
        """``(k, row)`` for each process k+1 with an out-edge besides its
        self-loop, in pid order, ``row`` being row k of the mask: the
        out-neighbours of k+1.  A row holding only its self-loop adds nothing
        to a bit-matrix product or a causal-past step, so these read only the
        relaying rows."""
        lay = mask_layout(self.n)
        width, row = lay.width, lay.row
        relays = []
        relaying = self.mask & ~lay.diagonal  # as in roots_of_mask: only the rows that relay, highest first
        while relaying:
            k = (relaying.bit_length() - 1) // width
            relays.append((k, self.mask >> k * width & row))
            relaying &= (1 << k * width) - 1  # rows below k
        return tuple(reversed(relays))

    @lazy
    def in_classes(self) -> tuple:
        """The processes grouped by equal in-neighbours (equal mask
        columns): ``(ins, members)`` for each group, ``ins`` the ascending
        tuple of the group's in-neighbours and ``members`` the ascending
        tuple of its pids, with the groups in order of their first member."""
        lay = mask_layout(self.n)
        width, row = lay.width, lay.row
        columns, groups = lay.transposed(self.mask), {}  # row v-1 of the transpose is column v-1
        for v in range(1, self.n + 1):
            members = groups.setdefault(columns & row, [])
            members.append(v)
            columns >>= width
        return tuple((_pids(ins), tuple(members)) for ins, members in groups.items())

    @lazy
    def _roots(self) -> frozenset:
        return roots_of_mask(self.mask, (1 << self.n) - 1, mask_layout(self.n))

    @lazy
    def root_bits(self) -> tuple:
        """``(root, member bitset)`` for each root component."""
        return tuple((root, sum(1 << (q - 1) for q in root)) for root in self._roots)

    @classmethod
    def of(cls, n: int, edges: Iterable[Edge] = ()) -> "CommGraph":
        """Build a graph from ``edges``, adding the mandatory self-loops.

        A ValueError names the least edge, in sorted order, with an endpoint
        outside ``1..n``: a mask has no bit for it.
        """
        lay = mask_layout(n)
        width = lay.width
        mask = lay.loops(n)
        bad = []
        for u, v in edges:
            u, v = int(u), int(v)
            if 1 <= u <= n and 1 <= v <= n:
                mask |= 1 << ((u - 1) * width + (v - 1))  # MaskLayout.bit, inlined: it runs per edge
            else:
                bad.append((u, v))
        if bad:
            u, v = min(bad)
            raise ValueError(f"endpoint out of range ({u}->{v})")
        return cls(n, mask)

    def nonloop_edges(self) -> list:
        """The edges (u, v) with u != v, sorted."""
        lay = mask_layout(self.n)
        return lay.edges(self.mask & ~lay.diagonal)


def validate_graph(g: CommGraph) -> list:
    """Return a list of invariant violations; an empty list means the graph is valid.

    Violations are reported, not raised: each missing self-loop, then each
    edge with an endpoint outside ``1..n`` (a mask bit outside the n x n
    block), in sorted order, yields one entry.
    """
    lay = mask_layout(g.n)
    missing = lay.loops(g.n) & ~g.mask
    violations = [f"missing self-loop ({u}->{u})" for u, _ in lay.edges(missing)]
    violations += [f"endpoint out of range ({u}->{v})" for u, v in lay.edges(g.mask & ~lay.block(g.n))]
    return violations


def root_components(g: CommGraph) -> frozenset:
    """The root components of ``g``: strongly connected components with no
    incoming edge from outside, kept on the graph.

    Every directed graph has at least one root component; if there is exactly
    one, the graph is weakly connected.
    """
    return g._roots


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

    def default_horizon(self) -> int:
        # Per-round root predicates repeat after one cycle; interval
        # predicates span at most one wrap, so prefix + 2 cycles + slack
        # covers every distinct pattern.
        return len(self.prefix) + 2 * len(self.cycle) + 2 * self.n

    @lazy
    def root_table(self) -> tuple:
        """``(positions, single)`` over one pass of the lasso, rounds 1 to
        ``len(prefix) + len(cycle)``, bit r-1 for round r: ``positions`` maps
        each root to the bitset of the rounds where it is a root component,
        and ``single`` is the bitset of the rounds with one root.  Filled
        once per lasso and stays out of ``==``, ``hash`` and ``repr``;
        :meth:`unroller` carries a bitset to any later round."""
        positions, single, bit = {}, 0, 1
        for g in self.prefix + self.cycle:
            roots = g._roots
            if len(roots) == 1:
                single |= bit
            for root in roots:
                positions[root] = positions.get(root, 0) | bit
            bit <<= 1
        return positions, single

    def unroller(self, rounds: int):
        """The map carrying a one-pass bitset (as in :attr:`root_table`) to
        rounds 1..``rounds``: its cycle bits repeat, by one multiply with a
        repunit of the cycle length."""
        prefix, period = len(self.prefix), len(self.cycle)
        reps = max(0, -(-(rounds - prefix) // period))
        repunit = ((1 << reps * period) - 1) // ((1 << period) - 1)
        low, window = (1 << prefix) - 1, (1 << rounds) - 1
        return lambda bits: (bits & low | (bits >> prefix) * repunit << prefix) & window


def lasso(n: int, prefix: Iterable = (), cycle: Iterable = ()) -> LassoSequence:
    """Convenience builder: edge lists in, self-loops implied."""
    pg = tuple(g if isinstance(g, CommGraph) else CommGraph.of(n, g) for g in prefix)
    cg = tuple(g if isinstance(g, CommGraph) else CommGraph.of(n, g) for g in cycle)
    return LassoSequence(pg, cg)


@dataclass(frozen=True)
class Run:
    """Maximal run of consecutive rounds on which ``root`` is a root component."""

    root: frozenset
    start: int
    end: Optional[int]  # None = forever


def _root_positions(l: LassoSequence, rounds: int, single: bool = False) -> dict:
    """The position table: root -> bitset of the rounds 1..``rounds`` where
    it is a root component, bit r-1 for round r; with ``single``, only the
    rounds where it is the single root.  It is the lasso's
    :attr:`~LassoSequence.root_table`, unrolled."""
    positions, single_rounds = l.root_table
    keep = single_rounds if single else -1
    unroll = l.unroller(rounds)
    return {root: unroll(bits & keep) for root, bits in positions.items() if bits & keep}


def lasting(bits: int, length: int) -> int:
    """The bits of the bitset ``bits`` that begin ``length`` consecutive set bits."""
    starts = bits
    for k in range(1, length):
        starts &= bits >> k
    return starts


def maximal_root_runs(l: LassoSequence, scan_to: int, least: int = 1) -> list:
    """Every maximal common-root run of the lasso of ``least`` rounds or more
    starting by round ``scan_to``, ordered by start, end and sorted root.

    ``scan_to`` must cover the prefix.  Finite runs carry exact bounds even
    when they extend past ``scan_to``; a run whose root is a root component of
    every cycle graph extends forever and is marked with ``end=None``.  The
    runs are read from the position table, unrolled one cycle and ``least``
    rounds past ``scan_to``: a finite run starting by ``scan_to`` breaks
    within the cycle pass after it, so a run that reaches the table's last
    round lasts forever.  Run starts are ``u & ~(u << 1)``, a run's length is
    the count of ones from its start, and only runs of ``least`` rounds or
    more become :class:`Run` objects.
    """
    if scan_to < len(l.prefix):
        raise ValueError(f"scan_to {scan_to} must cover the {len(l.prefix)}-round prefix")
    rounds = scan_to + len(l.cycle) + least
    runs = []
    for root, u in _root_positions(l, rounds).items():
        starts = u & ~(u << 1) & lasting(u, least) & (1 << scan_to) - 1
        while starts:
            i = (starts & -starts).bit_length() - 1
            ones = u >> i
            end = i + (ones ^ ones + 1).bit_length() - 1
            runs.append(Run(root, i + 1, None if end == rounds else end))
            starts &= starts - 1
    runs.sort(key=lambda run: (run.start, run.end if run.end is not None else math.inf, sorted(run.root)))
    return runs


def _forward_reach(l: LassoSequence, reach: int, a: int, b: int, column: int) -> int:
    """Advance every row of the reach matrix ``reach`` over rounds a+1..b at
    once: in each round, row i gains the out-row of every k it reaches (a
    bit-matrix product, one multiply per relaying process; a row holding only
    its self-loop adds nothing)."""
    for r in range(a + 1, b + 1):
        step = reach
        for k, row in l.graph(r).relays:
            step |= (reach >> k & column) * row
        reach = step
    return reach


def causal_past(l: LassoSequence, p: int, a: int, b: int) -> frozenset:
    """Processes whose end-of-round-``a`` state has affected ``p``'s end-of-round-``b`` state.

    Computed by the backward recursion over rounds ``b`` down to ``a+1``.
    The result is monotone: shrinking ``a`` never removes members.
    """
    if not 1 <= p <= l.n:
        raise ValueError(f"process {p} outside 1..{l.n}")
    if not 0 <= a <= b:
        raise ValueError(f"invalid causal-past interval [{a},{b}]")
    # CP(b,b) = {p}; going from level t to t-1, q joins when it has an edge
    # into the current set in round t, i.e. q's end-of-round-(t-1) state
    # reached a process already known to influence p.
    cp = 1 << (p - 1)
    for level in range(b, a, -1):
        joined = cp
        for u, row in l.graph(level).relays:
            if row & cp:
                joined |= 1 << u
        cp = joined
    return _processes(cp)


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
    """Map root R -> sorted rounds r <= horizon with roots(G^r) == {R}, read
    from the position table's single-root bits."""
    return {root: list(_pids(bits)) for root, bits in _root_positions(l, horizon, single=True).items() if bits}


def check_dynamic_diameter(l: LassoSequence, D: int, horizon: Optional[int] = None):
    """Verify the dynamic-diameter guarantee up to ``horizon``.

    For every R and every choice of D (not necessarily consecutive)
    R-single-rooted rounds ``r_1 < ... < r_D <= horizon``, R must be in the
    causal past CP_p(r_1 - 1, r_D) of every process p.  Returns ``None`` when
    the guarantee holds, otherwise a :class:`DiameterWitness`.

    Only the tightest subsequences (consecutive picks from the single-rooted
    round list) need checking: enlarging r_D only grows the causal past.
    And past the prefix the graphs, hence the single-rooted rounds, repeat
    every cycle: a window whose first round r_1 lies in the cycle is a copy of
    the earlier window starting one cycle before it.  So only the first window
    of each cycle phase of r_1 is checked; as it comes first, the witness
    reported is the same as with every window checked.
    """
    n = l.n
    if not (1 <= D <= n - 1):
        raise ValueError(f"D must satisfy 1 <= D <= n-1, got D={D}, n={n}")
    if horizon is None:
        horizon = l.default_horizon()
    lay = mask_layout(n)
    everyone = (1 << n) - 1
    prefix, period = len(l.prefix), len(l.cycle)
    for root, rounds in sorted(single_rooted_rounds(l, horizon).items(), key=lambda kv: sorted(kv[0])):
        members = sorted(root)
        # row q-1 of the reach matrix starts as {q} for every member q
        start = sum(lay.bit(q, q) for q in members)
        phases = set()  # cycle phases of the r_1 already checked
        for i in range(len(rounds) - D + 1):
            r1, rd = rounds[i], rounds[i + D - 1]
            if r1 > prefix:
                phase = (r1 - prefix - 1) % period
                if phase in phases:
                    continue
                phases.add(phase)
            reach = _forward_reach(l, start, r1 - 1, rd, lay.column)
            for q in members:
                unreached = ~reach >> (q - 1) * lay.width & everyone
                if unreached:
                    missing = (unreached & -unreached).bit_length()
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
    if not isinstance(data, dict):
        raise ValueError(f"lasso JSON must be an object, got {type(data).__name__}")
    for key in ("n", "cycle"):
        if key not in data:
            raise ValueError(f"lasso JSON missing field '{key}'")
    n = data["n"]
    if type(n) is not int or not 1 <= n <= MAX_PROCESSES:  # bools are ints in Python
        raise ValueError(f"lasso JSON field 'n' must be an integer in 1..{MAX_PROCESSES}, got {n!r}")
    rounds = {"prefix": data.get("prefix", []), "cycle": data["cycle"]}
    graphs = []
    for key, edge_lists in rounds.items():
        if not isinstance(edge_lists, list) or not all(isinstance(edges, list) for edges in edge_lists):
            raise ValueError(f"lasso JSON field '{key}' must be a list of edge lists")
        for edges in edge_lists:
            for e in edges:
                if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
                    raise ValueError(f"graph {len(graphs)} invalid: edge {json.dumps(e)} is not a pair of integers")
            try:
                graphs.append(CommGraph.of(n, edges))
            except ValueError as exc:
                raise ValueError(f"graph {len(graphs)} invalid: {exc}") from None
    cut = len(rounds["prefix"])
    return LassoSequence(tuple(graphs[:cut]), tuple(graphs[cut:]))


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
    for (u, v) in g.nonloop_edges():
        lines.append(f"  p{u} -> p{v};")
    lines.append("}")
    return "\n".join(lines)
