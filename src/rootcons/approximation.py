"""Per-process full-information state, held as knowledge by reference.

A process's state is exactly what has reached it through its causal past:
``heard[q]``, the latest round whose end state of q has reached it (a vector
clock), plus q's own append-only :class:`Row` of per-round lock (proposal)
values and delivered in-edge masks.  Only the owner writes its row, and only
the cell of its current round, so every process refers to q's single row
instead of holding a copy.

With ``lo`` the oldest retained round (0 in full mode; ``max(0, m-k)`` in
``bounded:k``, where each owner drops its round ``m-k-1`` cell in round m),
after round m the process knows ``lock[q][r]`` exactly for
``lo <= r <= heard[q]``, and the round-r edge (u, v) exactly for
``lo <= r <= m`` with ``heard[v] >= r``.  ``locks`` is a read-only view of
these facts.  ``approx`` is a per-round cache, ``masks[r]`` for r in
``lo..m``, kept up to date by the merge: when ``heard[q]`` rises, q's newly
heard in-edge cells are ORed in, so each (q, r) cell is ORed once per process
and a root query costs a dict lookup.  The harness's invariant monitor checks
the cache against the true graphs every round.  Rows are shared, so all
states of one run must advance in lock step, as the harness does.

The merge also notes ``stale_from``, the earliest round whose confirmed
single root may have changed (a round whose mask or member evidence rose,
or the round that just stopped being the current one); ``consensus`` keeps
its per-round c2 results in ``runs`` and recomputes them only from there.

``snapshot()`` serializes a state.  A run records, instead of a snapshot per
round, what each round added (:func:`state_delta`): the newly heard lock
cells, the masks of the rounds they fall in, and ``y``.  A state is a
function of these deltas, so two runs are indistinguishable to a process
exactly when its deltas agree.

Edge sets are integer bitmasks in the layout ``graphs.mask_layout(n)``.  The
states of one run (:func:`init_states`) share that layout and one memo of
root queries keyed by mask, which lives as long as the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graphs import MaskLayout, mask_layout, roots_of_mask
from .graphs import root_components  # noqa: F401  (bound here for callers that wrap it)

def roots_of_partial(mask: int, extra_vertex: int, layout: MaskLayout, memo: dict) -> frozenset:
    """Root components of a partial graph given by ``mask`` (in ``layout``)
    over its edge endpoints plus ``extra_vertex`` (the owning process is
    always a known vertex, even with no recorded edges); every vertex has a
    self-loop.  Memoized in ``memo`` over the kernel ``graphs.roots_of_mask``,
    by ``mask`` alone when it holds the extra vertex's self-loop: that vertex
    is then an endpoint already, and the answer does not depend on it.
    """
    key = mask if mask & layout.bit(extra_vertex, extra_vertex) else (mask, extra_vertex)
    roots = memo.get(key)
    if roots is None:
        roots = memo[key] = roots_of_mask(mask, 1 << (extra_vertex - 1), layout)
    return roots


def window_start(keep: Optional[int], m: int) -> int:
    """Oldest round retained after round m: 0 in full mode (``keep`` None),
    ``max(0, m - keep)`` in bounded:keep."""
    return 0 if keep is None else max(0, m - keep)


class Row:
    """One owner's history: ``lock[r]``, its proposal value after round r, and
    ``inmask[r]``, the edges delivered to it in round r (self-loop included;
    round 0 has none)."""

    __slots__ = ("lock", "inmask")

    def __init__(self, x: int):
        self.lock = {0: x}
        self.inmask = {0: 0}


def _approx_view(heard: dict, rows: dict, lo: int, m: int) -> dict:
    """Round -> edge mask for rounds ``lo..m``: the in-edges of every v whose
    state of that round has been heard."""
    view = dict.fromkeys(range(lo, m + 1), 0)
    for v, h in heard.items():
        if h >= lo:
            inmask = rows[v].inmask
            for r in range(lo, h + 1):
                view[r] |= inmask[r]
    return view


def _locks_view(heard: dict, rows: dict, lo: int) -> dict:
    """Peer -> {round -> lock value} for rounds ``lo..heard[q]`` of every held row."""
    return {q: {r: row.lock[r] for r in range(lo, heard[q] + 1)} for q, row in rows.items()}


@dataclass(frozen=True)
class Message:
    """A sender's end-of-previous-round knowledge: a copy of its ``heard``
    and references to the rows it holds, carried from round ``lo`` on.

    ``approx`` and ``locks`` are views of what the message carries; rows keep
    growing, so they are meaningful only in the round the message is sent.
    """

    sender: int
    sent_in: int  # the round this message is delivered in
    heard: dict  # pid -> latest round of pid's state the sender has heard
    rows: dict  # pid -> that pid's own Row
    lo: int

    @property
    def approx(self) -> dict:
        return _approx_view(self.heard, self.rows, self.lo, self.sent_in - 1)

    @property
    def locks(self) -> dict:
        return _locks_view(self.heard, self.rows, self.lo)


class NodeState:
    """One process's protocol state.

    ``heard[q]`` is the latest round of q's state that has reached the
    process (its own entry is the current round ``m``), ``rows[q]`` is q's
    own row, held for every q heard from within the retained window,
    ``masks[r]`` is the round-r approximation's edge mask for r in ``lo..m``
    (``masks[0]`` is the initial singleton graph and never gains edges), and
    ``y`` is the write-once decision.  ``approx`` copies ``masks``;
    ``locks[q][r]`` is a view over the retained rounds.  ``runs``,
    ``stale_from`` and ``c2_from`` hold the core step's c2 scan (see
    ``consensus``); the merge lowers ``stale_from`` and drops the ``runs``
    entry of the round that leaves the window.  ``layout`` is the n-process
    edge-mask layout and ``memo`` the run's root memo, shared by its states.
    """

    __slots__ = (
        "pid", "x", "m", "lo", "y", "keep", "heard", "rows", "masks", "runs", "stale_from", "c2_from",
        "layout", "memo",
    )

    def __init__(self, pid: int, x: int, n: int, keep: Optional[int], memo: dict):
        if not (1 <= pid <= n):
            raise ValueError(f"pid must be in 1..{n}, got {pid}")
        self.pid = pid
        self.x = x
        self.m = 0
        self.lo = 0  # oldest retained round, window_start(keep, m)
        self.y: Optional[int] = None
        self.keep = keep  # None = full history, else bounded(keep)
        self.heard = {pid: 0}
        self.rows = {pid: Row(x)}
        self.masks = {0: 0}
        self.runs = {}
        self.stale_from = 0
        self.c2_from = 0
        self.layout = mask_layout(n)
        self.memo = memo

    @property
    def approx(self) -> dict:
        return dict(self.masks)

    @property
    def locks(self) -> dict:
        return _locks_view(self.heard, self.rows, self.lo)

    def roots_at(self, r: int) -> frozenset:
        """Roots of the round-r approximation (empty outside the retained rounds)."""
        return roots_of_partial(self.masks.get(r, 0), self.pid, self.layout, self.memo)

    def lock_value(self, q: int, r: int) -> Optional[int]:
        if self.lo <= r <= self.heard.get(q, -1):
            return self.rows[q].lock[r]
        return None

    def propose(self, value: int) -> None:
        """Set the own lock of the current round (the core step's re-proposal)."""
        self.rows[self.pid].lock[self.m] = value

    def snapshot(self) -> tuple:
        """Hashable full-state copy; two runs are indistinguishable to a
        process through a round iff its snapshots match round for round."""
        return (
            self.pid,
            self.m,
            self.x,
            self.y,
            tuple(self.masks.items()),
            tuple((q, tuple(row.items())) for q, row in sorted(self.locks.items())),
            self.keep,
        )

    def to_json_dict(self) -> dict:
        return {
            "pid": self.pid,
            "m": self.m,
            "x": self.x,
            "y": self.y,
            "approx": {str(r): self.layout.edges(mask) for r, mask in self.masks.items()},
            "locks": {
                str(q): {str(r): v for r, v in row.items()}
                for q, row in sorted(self.locks.items())
            },
        }


def state_delta(s: NodeState, heard_before: dict) -> tuple:
    """What s's last round added, given its ``heard`` before that round's merge.

    Returns ``(cells, masks, y)``: ``cells`` are the newly heard
    ``(q, r, lock[q][r])`` of the retained rounds, by q then r (values copied,
    as bounded mode later drops cells from the rows), ``masks`` the
    ``(r, masks[r])`` of every round a new cell falls in (the rounds whose
    mask can have changed), and ``y`` the decision.  Taken after the core
    step, so the own round-m cell holds any re-proposal.  Equal states before
    and after give equal deltas, and a state is its round-0 delta plus the
    later ones, so a process cannot tell two runs apart through a round
    exactly when its deltas agree up to there.
    """
    lo, heard, rows, masks = s.lo, s.heard, s.rows, s.masks
    cells, rounds = [], set()
    for q in sorted(heard):
        h, before = heard[q], heard_before.get(q, -1)
        if h > before and h >= lo:
            lock = rows[q].lock
            for r in range(max(before + 1, lo), h + 1):
                cells.append((q, r, lock[r]))
                rounds.add(r)
    return tuple(cells), tuple([(r, masks[r]) for r in sorted(rounds)]), s.y


def parse_mode(mode: str, D: Optional[int] = None) -> Optional[int]:
    """Rounds of history kept in ``mode``: ``None`` for ``"full"``, k for ``"bounded:<k>"``.

    Given the delay ``D``, a window shorter than ``2D+1`` rounds is a
    configuration error: the protocol needs that many rounds for a decisive
    single-rooted interval of D+1 rounds and the D rounds of evidence after it.
    """
    if mode == "full":
        return None
    if mode.startswith("bounded:"):
        try:
            k = int(mode.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bounded mode needs an integer k, got {mode!r}") from None
        if k < 1:
            raise ValueError("bounded mode needs k >= 1")
        if D is not None and k < 2 * D + 1:
            raise ValueError(f"{mode} is shorter than the 2D+1 = {2 * D + 1} round window for D={D}")
        return k
    raise ValueError(f"unknown mode {mode!r}")


def init_states(inputs, mode: str = "full") -> dict:
    """Fresh states of one run, pid -> state, of processes 1..len(inputs):
    singleton round-0 approximation, own input locked at round 0, and one
    shared root memo.  ``mode`` is ``"full"`` or ``"bounded:<k>"``."""
    n, keep, memo = len(inputs), parse_mode(mode), {}
    return {p: NodeState(p, x, n, keep, memo) for p, x in enumerate(inputs, start=1)}


def make_message(s: NodeState) -> Message:
    """The state at the end of round ``s.m``, broadcast in round ``s.m + 1``.

    In bounded(k) mode the message carries only rounds newer than ``s.m - k``.
    """
    return Message(s.pid, s.m + 1, dict(s.heard), dict(s.rows), window_start(s.keep, s.m + 1))


def receive_and_merge(s: NodeState, msgs: Iterable, m: int) -> NodeState:
    """Fuse the round-m deliveries into the state, before the core step.

    ``heard`` becomes the element-wise maximum over the inbox, a peer's row
    reference is adopted once it is heard from within the retained window,
    and the own row gains its round-m cell: the lock carried forward and the
    direct in-edges (sender -> pid).  Then ``masks`` gains round m, drops the
    round that left the window, and takes in the in-edge cells of rounds
    ``old heard[q]+1 .. heard[q]`` of every q whose entry rose, and
    ``stale_from`` drops to the first of those rounds (or to round m-1, which
    stops being the current round).  Merge order is irrelevant: maxima are
    commutative and every message refers to the same row of each owner.
    """
    if s.m != m - 1:
        raise ValueError(f"state at round {s.m} cannot merge round-{m} deliveries")
    lo = window_start(s.keep, m)
    pid, heard, rows, masks, bit = s.pid, s.heard, s.rows, s.masks, s.layout.bit
    risen = {pid: m - 1}  # q -> heard[q] before this merge, for every q that rose
    direct = 0
    for msg in msgs:
        if msg.sent_in != m:
            raise ValueError(f"message for round {msg.sent_in} delivered in round {m}")
        direct |= bit(msg.sender, pid)
        for q, h in msg.heard.items():
            before = heard.get(q, -1)
            if h > before:
                risen.setdefault(q, before)
                heard[q] = h
                if h >= lo and q not in rows:
                    rows[q] = msg.rows[q]
    s.m, s.lo = m, lo
    heard[pid] = m
    own = rows[pid]
    own.lock[m] = own.lock[m - 1]
    own.inmask[m] = direct
    masks[m] = 0
    if lo > 0:
        del own.lock[lo - 1], own.inmask[lo - 1], masks[lo - 1]
        s.runs.pop(lo - 1, None)
    changed = m - 1
    for q, before in risen.items():
        h = heard[q]
        if h >= lo:
            first = max(before + 1, lo)
            if first < changed:
                changed = first
            inmask = rows[q].inmask
            for r in range(first, h + 1):
                masks[r] |= inmask[r]
    if changed < s.stale_from:
        s.stale_from = changed
    return s


def has_late_outgoing_edge(s: NodeState, q: int, r: int) -> bool:
    """True iff the approximation shows an outgoing edge of q in some round
    after r (up to the current round), for a retained round r.

    That holds exactly when q's round-r state has reached this process and r
    is not the current round: the chain that carried it leaves q by an edge
    of round r+1 whose head's state has also arrived.  This is the
    locally-checkable certificate that makes detected roots trustworthy.
    """
    return r < s.m and s.heard.get(q, -1) >= r

