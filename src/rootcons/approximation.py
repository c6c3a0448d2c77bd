"""Per-process full-information state: graph approximation and lock matrix.

Each process accumulates, per round r, an under-approximation of the true
round-r communication graph (it never fabricates edges: an edge enters the
approximation only when its receiving endpoint's state, or the direct
delivery itself, has reached the process).  Alongside it keeps a lock matrix
``lock[q][r]`` of proposal-value history, where missing entries stand for
"unknown" and an entry, once known, never changes (only q ever originates
``lock[q][r]``, so all copies agree).

Edge sets are stored as integer bitmasks (edge (u, v) occupies bit
``(u-1)*STRIDE + (v-1)``), which makes the per-round union merges cheap and
keys the memoized root-component computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import CommGraph, root_components

STRIDE = 16  # max supported process id; bit layout of edge masks

_ROW = (1 << STRIDE) - 1


class ProtocolViolationError(Exception):
    """A merge saw conflicting values for the same lock entry; since only the
    owner ever originates an entry, this signals a harness bug, not a
    legitimate protocol state."""


def edge_bit(u: int, v: int) -> int:
    return 1 << ((u - 1) * STRIDE + (v - 1))


def mask_of_edges(edges: Iterable) -> int:
    m = 0
    for (u, v) in edges:
        m |= edge_bit(u, v)
    return m


def edges_of_mask(mask: int) -> list:
    edges = []
    while mask:
        low = mask & -mask
        idx = low.bit_length() - 1
        edges.append((idx // STRIDE + 1, idx % STRIDE + 1))
        mask ^= low
    return edges


def out_row_mask(q: int) -> int:
    return _ROW << ((q - 1) * STRIDE)


def vertices_of_mask(mask: int) -> frozenset:
    vs = set()
    while mask:
        low = mask & -mask
        idx = low.bit_length() - 1
        vs.add(idx // STRIDE + 1)
        vs.add(idx % STRIDE + 1)
        mask ^= low
    return frozenset(vs)


_roots_cache: dict = {}


def roots_of_partial(mask: int, extra_vertex: int) -> frozenset:
    """Root components of a partial graph given by ``mask`` over its edge
    endpoints plus ``extra_vertex`` (the owning process is always a known
    vertex, even with no recorded edges)."""
    key = (mask, extra_vertex)
    cached = _roots_cache.get(key)
    if cached is not None:
        return cached
    vertices = vertices_of_mask(mask) | {extra_vertex}
    relabel = {v: i + 1 for i, v in enumerate(sorted(vertices))}
    back = {i: v for v, i in relabel.items()}
    edges = [(relabel[u], relabel[v]) for (u, v) in edges_of_mask(mask)]
    g = CommGraph(len(vertices), frozenset(edges) | frozenset((i, i) for i in back))
    roots = frozenset(frozenset(back[i] for i in comp) for comp in root_components(g))
    _roots_cache[key] = roots
    return roots


@dataclass(frozen=True)
class Message:
    """Value snapshot of a sender's end-of-previous-round state."""

    sender: int
    sent_in: int  # the round this message is delivered in
    approx: dict  # round -> edge mask
    locks: dict  # pid -> {round -> value}


class NodeState:
    """One process's protocol state.

    ``approx[r]`` is the edge mask approximating round r (``approx[0]`` is
    the initial singleton graph and never gains edges).  ``locks[q][r]``
    holds known lock values; the owner's own row is defined for every
    retained round.  ``y`` is the write-once decision.
    """

    __slots__ = (
        "pid",
        "x",
        "m",
        "y",
        "approx",
        "locks",
        "keep",
        "min_round",
        "last_out",
        "_roots",
    )

    def __init__(self, pid: int, x: int, keep: Optional[int] = None):
        if not (1 <= pid <= STRIDE):
            raise ValueError(f"pid must be in 1..{STRIDE}, got {pid}")
        self.pid = pid
        self.x = x
        self.m = 0
        self.y: Optional[int] = None
        self.approx = {0: 0}
        self.locks = {pid: {0: x}}
        self.keep = keep  # None = full history, else bounded(keep)
        self.min_round = 0
        self.last_out: dict = {}  # q -> latest round with a recorded out-edge of q
        self._roots: dict = {}

    @property
    def mode(self) -> str:
        return "full" if self.keep is None else f"bounded:{self.keep}"

    def roots_at(self, r: int) -> frozenset:
        cached = self._roots.get(r)
        if cached is None:
            cached = roots_of_partial(self.approx.get(r, 0), self.pid)
            self._roots[r] = cached
        return cached

    def lock_value(self, q: int, r: int) -> Optional[int]:
        row = self.locks.get(q)
        return None if row is None else row.get(r)

    def snapshot(self) -> tuple:
        """Hashable full-state copy; two runs are indistinguishable to a
        process through a round iff its snapshots match round for round."""
        return (
            self.pid,
            self.m,
            self.x,
            self.y,
            tuple(sorted(self.approx.items())),
            tuple(sorted((q, tuple(sorted(row.items()))) for q, row in self.locks.items())),
            self.keep,
        )

    def to_json_dict(self) -> dict:
        return {
            "pid": self.pid,
            "m": self.m,
            "x": self.x,
            "y": self.y,
            "approx": {str(r): sorted(edges_of_mask(mask)) for r, mask in sorted(self.approx.items())},
            "locks": {
                str(q): {str(r): v for r, v in sorted(row.items())}
                for q, row in sorted(self.locks.items())
            },
        }


def parse_mode(mode: str) -> Optional[int]:
    """Rounds of history kept in ``mode``: ``None`` for ``"full"``, k for ``"bounded:<k>"``."""
    if mode == "full":
        return None
    if mode.startswith("bounded:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bounded mode needs an integer k, got {mode!r}") from None
        if k < 1:
            raise ValueError("bounded mode needs k >= 1")
        return k
    raise ValueError(f"unknown mode {mode!r}")


def init_state(pid: int, x: int, mode: str = "full") -> NodeState:
    """Fresh state: singleton round-0 approximation, own input locked at round 0.

    ``mode`` is ``"full"`` or ``"bounded:<k>"``.
    """
    return NodeState(pid, x, parse_mode(mode))


def make_message(s: NodeState) -> Message:
    """Snapshot of the state at the end of round ``s.m``, broadcast in round ``s.m + 1``.

    In bounded(k) mode only rounds strictly newer than ``s.m - k`` are included.
    """
    if s.keep is None:
        approx = dict(s.approx)
        locks = {q: dict(row) for q, row in s.locks.items()}
    else:
        cut = s.m - s.keep
        approx = {r: mask for r, mask in s.approx.items() if r > cut}
        locks = {}
        for q, row in s.locks.items():
            kept = {r: v for r, v in row.items() if r > cut}
            if kept:
                locks[q] = kept
    return Message(s.pid, s.m + 1, approx, locks)


def receive_and_merge(s: NodeState, msgs: Iterable, m: int) -> NodeState:
    """Fuse the round-m deliveries into the state, before the core step.

    Records the direct edge (sender -> pid) for round m, unions every
    received per-round approximation, and adopts received lock entries for
    locally-unknown cells.  Afterwards the own lock row is carried forward
    into round m.  Merge order is irrelevant: unions and adopt-if-unknown
    are commutative and idempotent.
    """
    if s.m != m - 1:
        raise ValueError(f"state at round {s.m} cannot merge round-{m} deliveries")
    s.m = m
    direct = 0
    for msg in msgs:
        if msg.sent_in != m:
            raise ValueError(f"message for round {msg.sent_in} delivered in round {m}")
        direct |= edge_bit(msg.sender, s.pid)
        for r, mask in msg.approx.items():
            old = s.approx.get(r, 0)
            new = old | mask
            if new != old:
                s.approx[r] = new
                s._roots.pop(r, None)
                _note_out_edges(s, new & ~old, r)
        for q, row in msg.locks.items():
            local = s.locks.setdefault(q, {})
            for r, v in row.items():
                known = local.get(r)
                if known is None:
                    local[r] = v
                elif known != v:
                    raise ProtocolViolationError(
                        f"conflicting lock[{q}][{r}] values {known} vs {v} at p{s.pid}"
                    )
    old = s.approx.get(m, 0)
    new = old | direct
    if new != old:
        s.approx[m] = new
        s._roots.pop(m, None)
        _note_out_edges(s, new & ~old, m)
    elif m not in s.approx:
        s.approx[m] = 0
    own = s.locks[s.pid]
    if m not in own:
        prev = own.get(m - 1)
        if prev is None:
            raise ProtocolViolationError(f"p{s.pid} lost its own lock history at round {m - 1}")
        own[m] = prev
    if s.keep is not None:
        prune(s, s.keep)
    return s


def _note_out_edges(s: NodeState, delta_mask: int, r: int) -> None:
    while delta_mask:
        low = delta_mask & -delta_mask
        q = (low.bit_length() - 1) // STRIDE + 1
        if s.last_out.get(q, -1) < r:
            s.last_out[q] = r
        delta_mask &= ~out_row_mask(q)


def has_late_outgoing_edge(s: NodeState, q: int, r: int) -> bool:
    """True iff the approximation has shown an outgoing edge of q in some
    round strictly after r (up to the current round).

    This is exactly the locally-checkable certificate that q's round-r state
    has reached this process, which is what makes locally detected roots
    trustworthy.
    """
    return s.last_out.get(q, -1) > r


def detected_roots(s: NodeState, r: int) -> frozenset:
    """Root components of the round-r approximation, over the vertices the
    process knows about.

    Callers must confirm a detected root via :func:`has_late_outgoing_edge`
    for each member before trusting it to be a root of the true graph.
    """
    return s.roots_at(r)


def approx_to_dot(s: NodeState, r: int, name: str = "approx") -> str:
    """DOT rendering of one round's approximation, detected roots double-circled."""
    mask = s.approx.get(r, 0)
    vertices = sorted(vertices_of_mask(mask) | {s.pid})
    root_members = set()
    for root in s.roots_at(r):
        root_members |= root
    lines = [f"digraph {name} {{"]
    for p in vertices:
        shape = "doublecircle" if p in root_members else "circle"
        lines.append(f'  p{p} [shape={shape}, label="p{p}"];')
    for (u, v) in sorted(edges_of_mask(mask)):
        if u != v:
            lines.append(f"  p{u} -> p{v};")
    lines.append("}")
    return "\n".join(lines)


def prune(s: NodeState, keep: int) -> NodeState:
    """Drop approximation and lock rounds below ``m - keep``."""
    cut = s.m - keep
    if cut <= s.min_round:
        return s
    for r in range(s.min_round, cut):
        s.approx.pop(r, None)
        s._roots.pop(r, None)
    for row in s.locks.values():
        for r in [r for r in row if r < cut]:
            del row[r]
    s.min_round = cut
    return s
