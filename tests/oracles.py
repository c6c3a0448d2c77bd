"""Independent brute-force oracles the tests check the library against.

Everything here is deliberately naive: definitional subset enumeration for
root components, an iterative Tarjan SCC pass over edge sets for root
components of graphs too large to enumerate, undirected BFS for weak
connectivity, a literal recursive causal-past and its forward-propagation
counterpart, per-round BFS distances, the maximal common-root runs, the
single-rooted rounds, the liveness root and the embedded single phase of a
lasso walked round by round, the generators' graph builders and root-family
sampler drawing through ``random.Random``'s public methods, a copied-history
protocol state, the c2 interval search as a full rescan of every retained
round, and the b1/b3 anchor as the least round that starts a common-root
run.  None of it calls the bitmask kernel ``graphs.roots_of_mask``: the
roots of a partial graph are Tarjan's on a relabelled ``CommGraph``.
"""

import dataclasses
import math
from itertools import combinations
from types import SimpleNamespace

from rootcons.approximation import RunTables
from rootcons.consensus import confirmed_roots
from rootcons.graphs import CommGraph, MaskLayout, Run, mask_layout


def graph_edges(g: CommGraph) -> list:
    """The edges (u, v) of ``g``, self-loops included, decoded from its mask."""
    return mask_layout(g.n).edges(g.mask)


def brute_force_roots(g: CommGraph) -> frozenset:
    """All vertex sets that are strongly connected as an induced subgraph and
    have no incoming edge from outside (maximality is implied by the
    no-incoming-edge condition)."""
    vertices, edges = range(1, g.n + 1), graph_edges(g)
    roots = set()
    for size in range(1, g.n + 1):
        for combo in combinations(vertices, size):
            members = set(combo)
            if any(u not in members and v in members for (u, v) in edges):
                continue
            if not _induced_strongly_connected(g, members):
                continue
            roots.add(frozenset(members))
    return frozenset(roots)


def _induced_strongly_connected(g: CommGraph, members: set) -> bool:
    edges = graph_edges(g)
    for src in members:
        seen = {src}
        stack = [src]
        while stack:
            u = stack.pop()
            for (a, b) in edges:
                if a == u and b in members and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if seen != members:
            return False
    return True


def undirected_bfs_spans(g: CommGraph) -> bool:
    edges = graph_edges(g)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for (a, b) in edges:
            if a == u and b not in seen:
                seen.add(b)
                stack.append(b)
            if b == u and a not in seen:
                seen.add(a)
                stack.append(a)
    return len(seen) == g.n


def naive_causal_past(graph_at, p: int, a: int, b: int) -> frozenset:
    """Literal recursive definition: CP(b,b) = {p}; CP(l-1,b) adds every
    process with an edge into CP(l,b) in round l."""
    if a == b:
        return frozenset({p})
    deeper = naive_causal_past(graph_at, p, a + 1, b)
    g = graph_at(a + 1)
    return deeper | {u for (u, v) in graph_edges(g) if v in deeper}


def causal_past_forward(l, p: int, a: int, b: int) -> frozenset:
    """Causal past CP_p(a, b) of the lasso ``l`` by forward influence
    propagation: the q whose round-a state, spread along the edges of rounds
    a+1..b, reaches p."""
    past = set()
    for q in range(1, l.n + 1):
        reach = {q}
        for r in range(a + 1, b + 1):
            reach |= {v for (u, v) in graph_edges(l.graph(r)) if u in reach}
        if p in reach:
            past.add(q)
    return frozenset(past)


def tarjan_sccs(g: CommGraph) -> tuple:
    """All SCCs of ``g`` as a tuple of frozensets (Tarjan, iterative)."""
    adj = {v: [] for v in range(1, g.n + 1)}
    for (u, v) in graph_edges(g):
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


def tarjan_roots(g: CommGraph) -> frozenset:
    """The SCCs of ``g`` that no edge enters from outside."""
    sccs = tarjan_sccs(g)
    comp_of = {v: comp for comp in sccs for v in comp}
    entered = {comp_of[v] for (u, v) in graph_edges(g) if comp_of[u] is not comp_of[v]}
    return frozenset(c for c in sccs if c not in entered)


def bfs_distance(g: CommGraph, src: int, dst: int):
    edges = graph_edges(g)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for (a, b) in edges:
                if a == u and b not in dist:
                    dist[b] = dist[u] + 1
                    nxt.append(b)
        frontier = nxt
    return dist.get(dst)


def reference_root_runs(l, scan_to: int) -> list:
    """Every maximal common-root run of the lasso ``l`` starting by round
    ``scan_to`` (which covers the prefix), walked round by round over
    Tarjan's roots: runs still open at ``scan_to`` are followed until they
    break, or marked ``end=None`` when their root is a root of every cycle
    graph.  Ordered by start, end and sorted root."""
    assert scan_to >= len(l.prefix)
    always_cycle_roots = frozenset.intersection(*map(tarjan_roots, l.cycle))
    open_runs = {}
    runs = []
    for r in range(1, scan_to + 1):
        roots_now = tarjan_roots(l.graph(r))
        for root in list(open_runs):
            if root not in roots_now:
                runs.append(Run(root, open_runs.pop(root), r - 1))
        for root in roots_now:
            open_runs.setdefault(root, r)
    for root, start in open_runs.items():
        if root in always_cycle_roots:
            runs.append(Run(root, start, None))
        else:  # the run must break within one further cycle pass
            r = scan_to + 1
            while root in tarjan_roots(l.graph(r)):
                r += 1
                assert r <= scan_to + len(l.cycle) + 1, "finite run failed to terminate within a cycle"
            runs.append(Run(root, start, r - 1))
    runs.sort(key=lambda run: (run.start, run.end if run.end is not None else math.inf, sorted(run.root)))
    return runs


def reference_single_rooted_rounds(l, horizon: int) -> dict:
    """Map root R -> sorted rounds r <= horizon with roots(G^r) == {R},
    walked round by round over Tarjan's roots."""
    out = {}
    for r in range(1, horizon + 1):
        roots_now = tarjan_roots(l.graph(r))
        if len(roots_now) == 1:
            (root,) = roots_now
            out.setdefault(root, []).append(r)
    return out


def reference_liveness(l):
    """``(r_gst, r_sr, root)`` of ``check_liveness(l)``, or None, walked
    round by round over Tarjan's roots: the one root of every cycle graph,
    followed back while it stays the single root, then while it stays a root."""
    cycle_roots = {tarjan_roots(g) for g in l.cycle}
    if len(cycle_roots) != 1 or len(next(iter(cycle_roots))) != 1:
        return None
    (root,) = next(iter(cycle_roots))
    r_sr = len(l.prefix) + len(l.cycle)
    while r_sr > 1 and tarjan_roots(l.graph(r_sr - 1)) == frozenset([root]):
        r_sr -= 1
    r_gst = r_sr
    while r_gst > 1 and root in tarjan_roots(l.graph(r_gst - 1)):
        r_gst -= 1
    return r_gst, r_sr, root


def reference_embedded_single_phase(l, run: Run, x: int, scan_to: int):
    """The earliest start of x+1 consecutive rounds inside ``run`` (cut at
    ``scan_to``, or at ``scan_to + x + 1`` for a finite run) where the run's
    root is the single root, walked round by round over Tarjan's roots."""
    end = scan_to if run.end is None else min(run.end, scan_to + x + 1)
    streak = 0
    for r in range(run.start, end + 1):
        streak = streak + 1 if tarjan_roots(l.graph(r)) == frozenset([run.root]) else 0
        if streak >= x + 1:
            return r - x
    return None


# --- generator draws through the public random.Random methods ---------------
#
# The generators take their draws straight from ``getrandbits``; these are
# the same builders drawing through ``choice``, ``randint`` and ``shuffle``.


def _complete(members, width: int, row: int) -> int:
    mask = 0
    for u in members:
        mask |= row << (u - 1) * width
    return mask


def reference_single_rooted_graph(rng, n: int, root: frozenset, D: int) -> CommGraph:
    lay = mask_layout(n)
    members = sorted(root)
    rest = [p for p in range(1, n + 1) if p not in root]
    row = (1 << n) - 1 if D == 1 else sum(1 << (q - 1) for q in members)
    mask = lay.loops(n) | _complete(members, lay.width, row)
    for p in rest:
        mask |= lay.bit(rng.choice(members), p)
    return CommGraph(n, mask)


def reference_multi_rooted_graph(rng, n: int, root_sets: list) -> CommGraph:
    lay = mask_layout(n)
    mask = lay.loops(n)
    members_union = []
    for rs in root_sets:
        ms = sorted(rs)
        members_union.extend(ms)
        mask |= _complete(ms, lay.width, sum(1 << (q - 1) for q in ms))
    rest = [p for p in range(1, n + 1) if p not in set(members_union)]
    for p in rest:
        mask |= lay.bit(rng.choice(members_union), p)
        if rng.random() < 0.4:
            mask |= lay.bit(rng.choice(rest), p)
    return CommGraph(n, mask)


def reference_sample_root_family(rng, n: int, forbidden: set, min_roots: int):
    """Up to 32 attempts at a family of disjoint root sets avoiding ``forbidden``."""
    for _ in range(32):
        pids = list(range(1, n + 1))
        rng.shuffle(pids)
        k = rng.randint(min_roots, max(min_roots, min(n, 3)))
        family = []
        i = 0
        for j in range(k):
            remaining = len(pids) - i
            slots_left = k - j
            if remaining < slots_left:
                break
            size = 1 if slots_left > 1 else rng.randint(1, min(2, remaining))
            if remaining - size < slots_left - 1:
                size = 1
            family.append(frozenset(pids[i : i + size]))
            i += size
        if len(family) == k and not any(fs in forbidden for fs in family):
            return family
    return None


# --- copied-history reference state -----------------------------------------
#
# The protocol state as every process's own copy of everything it has heard:
# per-round edge-mask dicts and lock rows, unioned message by message, with
# late-edge evidence tracked as the latest round showing an out-edge of each
# peer.  It shares no merge, late-edge or root code with
# rootcons.approximation; only the edge-mask bit layout, taken from
# rootcons.graphs, is common.

_reference_roots_memo = {}  # (width, mask, extra vertex) -> roots


def reference_roots_of_partial(mask: int, extra_vertex: int, lay: MaskLayout) -> frozenset:
    """Root components of the graph over the endpoints of ``mask`` (in
    layout ``lay``) plus ``extra_vertex``, each with a self-loop, via Tarjan
    on a relabelled CommGraph."""
    key = (lay.width, mask, extra_vertex)
    if key not in _reference_roots_memo:
        edges = lay.edges(mask)
        vertices = {extra_vertex} | {u for e in edges for u in e}
        relabel = {v: i + 1 for i, v in enumerate(sorted(vertices))}
        back = {i: v for v, i in relabel.items()}
        g = CommGraph.of(len(vertices), [(relabel[u], relabel[v]) for (u, v) in edges])
        _reference_roots_memo[key] = frozenset(
            frozenset(back[i] for i in comp) for comp in tarjan_roots(g)
        )
    return _reference_roots_memo[key]


def approx_roots(s, r: int) -> frozenset:
    """Roots of the state's round-r approximation, ghosts included, by the
    reference: just ``{pid}`` at round 0 and outside the retained rounds,
    where the approximation has no edges."""
    return reference_roots_of_partial(s.approx.get(r, 0), s.pid, s.tables.layout)


def out_row_mask(q: int, lay: MaskLayout) -> int:
    """Mask of every possible edge out of q in layout ``lay``."""
    return sum(lay.bit(q, v) for v in range(1, lay.width + 1))


class _ApproxGraphs:
    """The round graphs as a reference state's core step reads them:
    ``[r-1].root_bits`` is (root, member bitset) for each root of the
    state's round-r approximation, ghosts included."""

    def __init__(self, s):
        self.s = s

    def __getitem__(self, i: int) -> SimpleNamespace:
        return SimpleNamespace(root_bits=self.s.root_bits(i + 1))


class ReferenceState:
    """Copied-history state with the interface the core step reads.

    The core step's c2 cache (``runs`` and ``stale_from``) is marked stale
    from round 0 by every merge, so each core step rescans every retained
    round.  ``known`` packs :func:`reference_evidence` of each retained
    round into one slot, as the core step reads its late-edge evidence
    from there.  ``tables`` holds the root-run start table ``starts``, the
    long-round marker ``last_long``, the b1/b3 answer memo ``answers`` and
    ``graphs``, the round graphs' roots, the only tables the core step
    reads.  They are this state's own, not shared by the run: ``graphs``
    gives the roots of the partial approximations, ghosts included, every
    merge rebuilds the starts from them, takes ``last_long`` from those
    starts for the run's ``D`` and empties the memo, so the core step
    recomputes every answer from ``lock_value``.  So the differential checks
    independently the lemma by which a run's shared graphs, start table and
    long rounds stand in for the approximations, and that an answer one
    process entered holds for every process that asks it later in the
    same round.
    """

    def __init__(self, pid: int, x: int, keep, lay: MaskLayout, D: int):
        self.pid, self.x, self.m, self.y, self.keep, self.layout, self.D = pid, x, 0, None, keep, lay, D
        self.approx = {0: 0}
        self.locks = {pid: {0: x}}
        self.last_out = {}  # q -> latest round with a recorded out-edge of q
        self.runs, self.stale_from = {}, 0
        self.tables = RunTables(lay, keep, rows=None, graphs=_ApproxGraphs(self), starts={}, answers={})

    @property
    def lo(self) -> int:
        return min(self.approx)

    @property
    def known(self) -> int:
        """:func:`reference_evidence` of rounds lo..m, one W-bit slot each
        from round lo (the current round's is empty)."""
        lo, width = self.lo, self.layout.width
        return sum(reference_evidence(self, r) << (r - lo) * width for r in self.approx)

    def root_bits(self, r: int) -> tuple:
        return tuple((root, sum(1 << (q - 1) for q in root)) for root in approx_roots(self, r))

    def lock_value(self, q: int, r: int):
        return self.locks.get(q, {}).get(r)

    def propose(self, value: int) -> None:
        self.locks[self.pid][self.m] = value

    def snapshot(self) -> tuple:
        return (
            self.pid,
            self.m,
            self.x,
            self.y,
            tuple(sorted(self.approx.items())),
            tuple(sorted((q, tuple(sorted(row.items()))) for q, row in self.locks.items())),
            self.keep,
        )


def reference_message(s: ReferenceState) -> tuple:
    """(sender, copied approx, copied locks) of the rounds a message carries."""
    cut = -1 if s.keep is None else s.m - s.keep
    approx = {r: mask for r, mask in s.approx.items() if r > cut}
    locks = {}
    for q, row in s.locks.items():
        kept = {r: v for r, v in row.items() if r > cut}
        if kept:
            locks[q] = kept
    return s.pid, approx, locks


def reference_evidence(s: ReferenceState, r: int) -> int:
    """Bitset of the peers q with an out-edge recorded in a round after r."""
    return sum(1 << (q - 1) for q, last in s.last_out.items() if last > r)


def _note_out_edges(s: ReferenceState, new_edges: int, r: int) -> None:
    for q in {u for (u, _) in s.layout.edges(new_edges)}:
        s.last_out[q] = max(s.last_out.get(q, -1), r)


def reference_merge(s: ReferenceState, msgs: list, m: int) -> None:
    """Union every received round and lock cell, add the direct edges, carry
    the own lock forward, then drop rounds older than the window, and every
    peer none of whose lock cells is left.  Last, rebuild the start table
    over rounds max(1, lo)..m from the partial views' roots: each root's
    run start, cut at the window's first round; and take ``last_long``, the
    latest round r before m with a root whose run there began by r-D."""
    s.m = m
    s.stale_from, s.tables = 0, dataclasses.replace(s.tables, starts={}, answers={}, last_long=0)
    for sender, approx, locks in msgs:
        approx = dict(approx)
        approx[m] = approx.get(m, 0) | s.layout.bit(sender, s.pid)
        for r, mask in approx.items():
            old = s.approx.get(r, 0)
            s.approx[r] = old | mask
            _note_out_edges(s, mask & ~old, r)
        for q, row in locks.items():
            mine = s.locks.setdefault(q, {})
            for r, v in row.items():
                assert mine.setdefault(r, v) == v, f"conflicting lock[{q}][{r}] at p{s.pid}"
    s.approx.setdefault(m, 0)
    s.locks[s.pid][m] = s.locks[s.pid][m - 1]
    if s.keep is not None:
        cut = m - s.keep
        for r in [r for r in s.approx if r < cut]:
            del s.approx[r]
        for q, row in list(s.locks.items()):
            for r in [r for r in row if r < cut]:
                del row[r]
            if not row:
                del s.locks[q]
    starts = s.tables.starts
    for r in range(max(1, s.lo), m + 1):
        previous = starts.get(r - 1, {})
        starts[r] = {root: previous.get(root, r) for root, _ in s.root_bits(r)}
        if r < m and any(a <= r - s.D for a in starts[r].values()):
            s.tables.last_long = r


def reference_run(cfg, core_step) -> tuple:
    """Run ``cfg`` lock-step on reference states, stepping each with
    ``core_step``.  Returns the per-round snapshots (round 0 first) and the
    sorted decision events."""
    keep = None if cfg.mode == "full" else int(cfg.mode.split(":")[1])
    lay = mask_layout(cfg.n)
    states = {p: ReferenceState(p, cfg.inputs[p - 1], keep, lay, cfg.D) for p in range(1, cfg.n + 1)}
    snapshots = [{p: s.snapshot() for p, s in states.items()}]
    decisions = []
    for m in range(1, cfg.horizon + 1):
        g = cfg.lasso.graph(m)
        msgs = {p: reference_message(s) for p, s in states.items()}
        for p, s in states.items():
            reference_merge(s, [msgs[u] for (u, v) in graph_edges(g) if v == p], m)
        for p, s in states.items():
            out = core_step(s, m, cfg.D)
            if out.decided is not None:
                decisions.append((m, p, out.decided[2]))
        snapshots.append({p: s.snapshot() for p, s in states.items()})
    return snapshots, sorted(decisions)


def reference_c2_check(s, D: int):
    """The c2 interval search as a full rescan of rounds max(1, lo)..m, with
    no cached per-round results: (root, (a', b')) of the earliest run of one
    single confirmed root over more than D rounds, or None."""
    lo = max(1, s.lo)
    run_root = None
    run_start = lo
    for r in range(lo, s.m + 1):
        confirmed = confirmed_roots(s, r)
        if len(confirmed) == 1:
            root = confirmed[0]
            if root != run_root:
                run_root = root
                run_start = r
            if r - run_start + 1 >= D + 1:
                return run_root, (run_start, run_start + D)
        else:
            run_root = None
    return None


def reference_run_start(s, root, anchor: int):
    """The b1/b3 anchor by definition: the least a >= max(1, lo) such that
    root is in ``approx_roots(s, r)`` for every r from a to ``anchor`` (None if root
    is not even a root of round ``anchor``)."""
    return min(
        (
            a
            for a in range(max(1, s.lo), anchor + 1)
            if all(root in approx_roots(s, r) for r in range(a, anchor + 1))
        ),
        default=None,
    )
