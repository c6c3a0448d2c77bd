"""Per-process full-information state, held as knowledge by reference.

A process's state is exactly what has reached it through its causal past:
``known``, one int holding a W-bit slot (W the width of the run's edge-mask
layout, so a slot lines up with one row of a mask) for every retained round
r, whose bit q-1 says that q's round-r end state has reached the process.
Slot 0 is the oldest retained round ``lo`` (0 in full mode; ``max(0, m-k)``
in ``bounded:k``).  Slots are monotone: a state of q that has arrived
carries q's earlier states, so q in slot r is also in every slot ``lo..r``.

The cells themselves live in one table per run, q -> q's append-only
:class:`Row` of per-round lock (proposal) values and delivered in-edge
masks, which every state and every message of the run refers to.  Only the
owner writes its row, and only the cell of its current round (in
``bounded:k`` it also drops its round ``m-k-1`` cell in round m), so a
state holds no rows of its own: it reads q's round-r cell from the table
only when q is in slot r.

After round m the process knows ``lock[q][r]`` exactly when q is in slot r,
and the round-r edge (u, v) exactly when v is.  ``locks`` is a read-only
view of these facts; it lists the peers with a retained cell, which are the
peers in slot ``lo``.  ``approx`` is a per-round cache, ``masks[r]`` for r in
``lo..m``, kept up to date by the merge: a merge ORs the inbox's ``known``
ints, and for each newly set bit (q, r) it ORs q's round-r in-edge cell into
``masks[r]``, so each (q, r) cell is ORed once per process and a root query
costs a dict lookup.  The harness's invariant monitor checks ``known`` and
the cache against the true graphs every round.  The row table is shared, so
all states of one run must advance in lock step, as the harness does.

A member q of a round-r root has a later outgoing edge recorded exactly when
q is in slot r and r is not the current round (:func:`evidence`), so
confirming a root is one mask test of its member bitset against that slot.

The merge also notes ``stale_from``, the earliest round whose confirmed
single root may have changed (the lowest newly set slot, or the round that
just stopped being the current one), and lowers ``starts_from`` to the same
round; ``consensus`` keeps its per-round c2 results in ``runs`` and its
per-round root-run starts in ``starts``, and recomputes them only from
those rounds on.

``snapshot()`` serializes a state.  A run keeps no snapshots: the harness
rebuilds a process's snapshots from the run's trace when it compares two
runs.

Edge sets are integer bitmasks in the layout ``graphs.mask_layout(n)``.  The
states of one run (:func:`init_states`) share that layout, the row table and
one memo of root queries keyed by mask (and of root member bitsets keyed by
the roots), which live as long as the run.
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


def _heard(known: int, lo: int, width: int) -> dict:
    """q -> the latest round whose state of q ``known`` holds, its slot 0
    being round ``lo``, for every q it holds.  Slots are monotone, so that
    round is the one before the first slot q has left."""
    heard, row, r, held = {}, (1 << width) - 1, lo - 1, 0
    while True:
        slot = known & row
        left = held & ~slot
        while left:
            low = left & -left
            heard[low.bit_length()] = r
            left ^= low
        if not slot:
            return heard
        held, known, r = slot, known >> width, r + 1


def _approx_view(known: int, rows: dict, lo: int, m: int, width: int) -> dict:
    """Round -> edge mask for rounds ``lo..m``: the in-edges of every v whose
    state of that round ``known`` holds."""
    view = dict.fromkeys(range(lo, m + 1), 0)
    for v, h in _heard(known, lo, width).items():
        inmask = rows[v].inmask
        for r in range(lo, h + 1):
            view[r] |= inmask[r]
    return view


def _locks_view(known: int, rows: dict, lo: int, width: int) -> dict:
    """Peer -> {round -> lock value} for the rounds of ``lo..m`` whose state
    of the peer ``known`` holds, for every peer it holds in some slot."""
    heard = _heard(known, lo, width)
    return {q: {r: rows[q].lock[r] for r in range(lo, h + 1)} for q, h in heard.items()}


@dataclass(frozen=True)
class Message:
    """A sender's end-of-previous-round knowledge: its ``known`` slots from
    round ``lo`` on (slot 0 is round ``lo``, each ``width`` bits) and the
    run's row table, by reference.

    ``approx`` and ``locks`` are views of what the message carries; rows keep
    growing, so they are meaningful only in the round the message is sent.
    """

    sender: int
    sent_in: int  # the round this message is delivered in
    known: int  # the sender's slots of rounds lo..sent_in-1
    rows: dict  # the run's row table, pid -> that pid's own Row
    lo: int
    width: int

    @property
    def approx(self) -> dict:
        return _approx_view(self.known, self.rows, self.lo, self.sent_in - 1, self.width)

    @property
    def locks(self) -> dict:
        return _locks_view(self.known, self.rows, self.lo, self.width)


class NodeState:
    """One process's protocol state.

    ``known`` holds a ``layout.width``-bit slot per round ``lo..m``: the
    processes whose state of that round has reached this one (the process
    itself is in every slot).  ``rows`` is the run's row table, q -> q's own
    row, whose cells are read only where ``known`` has q's bit; ``masks[r]``
    is the round-r approximation's edge mask for r in ``lo..m`` (``masks[0]``
    is the initial singleton graph and never gains edges), and ``y`` is the
    write-once decision.  ``approx`` copies ``masks``; ``locks[q][r]`` is a
    view over the retained rounds.  ``runs``, ``stale_from`` and
    ``c2_from`` hold the core step's c2 scan, and ``starts`` and
    ``starts_from`` its root-run starts (see ``consensus``); the merge
    lowers ``stale_from`` and ``starts_from`` and drops the entries of the
    round that leaves the window.  ``layout`` is the n-process edge-mask
    layout and ``memo`` the run's root memo, shared by its states.
    """

    __slots__ = (
        "pid", "x", "m", "lo", "y", "keep", "known", "rows", "masks", "runs", "stale_from", "c2_from",
        "starts", "starts_from", "layout", "memo",
    )

    def __init__(self, pid: int, x: int, n: int, keep: Optional[int], memo: dict, rows: dict):
        if not (1 <= pid <= n):
            raise ValueError(f"pid must be in 1..{n}, got {pid}")
        self.pid = pid
        self.x = x
        self.m = 0
        self.lo = 0  # oldest retained round, window_start(keep, m)
        self.y: Optional[int] = None
        self.keep = keep  # None = full history, else bounded(keep)
        self.known = 1 << (pid - 1)
        self.rows = rows
        self.masks = {0: 0}
        self.runs = {}
        self.stale_from = 0
        self.c2_from = 0
        self.starts = {}
        self.starts_from = 0
        self.layout = mask_layout(n)
        self.memo = memo

    @property
    def approx(self) -> dict:
        return dict(self.masks)

    @property
    def locks(self) -> dict:
        return _locks_view(self.known, self.rows, self.lo, self.layout.width)

    def roots_at(self, r: int) -> frozenset:
        """Roots of the round-r approximation (empty outside the retained rounds)."""
        return roots_of_partial(self.masks.get(r, 0), self.pid, self.layout, self.memo)

    def root_bits(self, r: int) -> tuple:
        """(root, member bitset) for each root of round r, memoized in the
        run's memo under the roots."""
        roots = self.roots_at(r)
        bits = self.memo.get(roots)
        if bits is None:
            bits = self.memo[roots] = tuple((root, sum(1 << (q - 1) for q in root)) for root in roots)
        return bits

    def lock_value(self, q: int, r: int) -> Optional[int]:
        if self.lo <= r <= self.m and self.known & 1 << ((r - self.lo) * self.layout.width + q - 1):
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
    shared row table and root memo.  ``mode`` is ``"full"`` or
    ``"bounded:<k>"``."""
    n, keep, memo = len(inputs), parse_mode(mode), {}
    rows = {p: Row(x) for p, x in enumerate(inputs, start=1)}
    return {p: NodeState(p, x, n, keep, memo, rows) for p, x in enumerate(inputs, start=1)}


def make_message(s: NodeState) -> Message:
    """The state at the end of round ``s.m``, broadcast in round ``s.m + 1``.

    In bounded(k) mode the message carries only rounds newer than ``s.m - k``:
    its ``known`` is the state's, rebased to that first round.  It refers to
    the run's row table without copying it.
    """
    lo, width = window_start(s.keep, s.m + 1), s.layout.width
    return Message(s.pid, s.m + 1, s.known >> (lo - s.lo) * width, s.rows, lo, width)


def receive_and_merge(s: NodeState, msgs: Iterable, m: int) -> NodeState:
    """Fuse the round-m deliveries into the state, before the core step.

    ``known``, rebased to the round-m window, ORs in the inbox's ``known``
    ints (all rebased to the same first round) and the own round-m slot.
    The own row gains its round-m cell: the lock carried forward and the
    direct in-edges (sender -> pid).  Then ``masks`` gains round m, drops
    the round that left the window, and for each new bit (q, r) takes in
    q's round-r in-edge cell from the run's row table; ``stale_from`` and
    ``starts_from`` drop to the lowest new slot (or to round m-1, which
    stops being the current round).  Merge order is irrelevant: ORs are
    commutative.
    """
    if s.m != m - 1:
        raise ValueError(f"state at round {s.m} cannot merge round-{m} deliveries")
    lo = window_start(s.keep, m)
    pid, rows, masks, lay = s.pid, s.rows, s.masks, s.layout
    width, row = lay.width, lay.row
    before = s.known >> (lo - s.lo) * width
    known = before | 1 << ((m - lo) * width + pid - 1)
    direct = 0
    for msg in msgs:
        if msg.sent_in != m:
            raise ValueError(f"message for round {msg.sent_in} delivered in round {m}")
        direct |= 1 << ((msg.sender - 1) * width + pid - 1)
        known |= msg.known
    s.m, s.lo, s.known = m, lo, known
    own = rows[pid]
    own.lock[m] = own.lock[m - 1]
    own.inmask[m] = direct
    masks[m] = 0
    if lo > 0:
        del own.lock[lo - 1], own.inmask[lo - 1], masks[lo - 1]
        s.runs.pop(lo - 1, None)
        s.starts.pop(lo - 1, None)
    new = known & ~before  # never empty: it holds the own round-m bit
    r = lo + ((new & -new).bit_length() - 1) // width
    changed = min(r, m - 1)
    new >>= (r - lo) * width
    while new:
        bits = new & row
        if bits:
            cell = masks[r]
            while bits:
                low = bits & -bits
                cell |= rows[low.bit_length()].inmask[r]
                bits ^= low
            masks[r] = cell
        new >>= width
        r += 1
    if changed < s.stale_from:
        s.stale_from = changed
    if changed < s.starts_from:
        s.starts_from = changed
    return s


def evidence(s: NodeState, r: int) -> int:
    """Bitset of the processes q (bit q-1) that the approximation shows with
    an outgoing edge in some round after r (up to the current round), for a
    retained round r.

    That holds exactly when q's round-r state has reached this process and r
    is not the current round: the chain that carried it leaves q by an edge
    of round r+1 whose head's state has also arrived.  So it is slot r of
    ``known``, or nothing at the current round.  This is the
    locally-checkable certificate that makes detected roots trustworthy.
    """
    if not s.lo <= r < s.m:
        return 0
    return s.known >> (r - s.lo) * s.layout.width & s.layout.row
