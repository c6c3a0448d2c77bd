"""Per-process full-information state, held as knowledge by reference.

A process's state is exactly what has reached it through its causal past:
``known``, one int holding a W-bit slot (W the width of the run's edge-mask
layout, so a slot lines up with one row of a mask) for every retained round
r, whose bit q-1 says that q's round-r end state has reached the process.
Slot 0 is the oldest retained round ``lo`` (0 in full mode; ``max(0, m-k)``
in ``bounded:k``).  Slots are monotone: a state of q that has arrived
carries q's earlier states, so q in slot r is also in every slot ``lo..r``.

The facts themselves live in four tables per run, which every state of
the run refers to (and every message, to the first two).  ``rows[q]`` is
q's append-only ``{round: lock}`` of per-round lock (proposal) values; only
q writes it, and only the cell of its current round (in ``bounded:k`` it
also drops its round ``m-k-1`` cell in round m).  ``edges[r]`` is the
round-r edge mask: in its merge of round m each owner ORs in its delivered
in-edges (its column of the mask).  ``starts[r]`` maps each root of the
whole ``edges[r]`` to the round its common-root run began; ``consensus``
fills it lazily.  ``answers[anchor]`` maps ``(root, lo)`` to the b1/b3
answer ``(run start, member bitset, maximum member lock)`` for a confirmed
root of round ``anchor`` (see ``consensus``).  Every merge drops round
``lo-1`` from all four.  A state holds no cells of its own: it reads q's
round-r lock only when q is in slot r.

After round m the process knows ``lock[q][r]`` exactly when q is in slot r,
and the round-r edge (u, v) exactly when v is, so its round-r approximation
is ``edges[r]`` restricted to the columns of slot r, derived where it is
read.  ``edges[r]`` is final once every merge of round r has run, and the
engine merges every state before any core step; before that, slot m holds
only the owner, whose column it has written itself.  ``locks`` and
``approx`` are read-only views of these facts; ``locks`` lists the peers
with a retained cell, which are the peers in slot ``lo``.  The harness's
invariant monitor checks ``known`` and the edge table against the true
graphs every round.  The tables are shared, so all states of one run must
advance in lock step, as the harness does.

A member q of a round-r root has a later outgoing edge recorded exactly when
q is in slot r and r is not the current round (:func:`evidence`), so
confirming a root is one mask test of its member bitset against that slot.

The merge also notes ``stale_from``, the earliest round whose confirmed
single root may have changed (the lowest newly set slot, or the round that
just stopped being the current one); ``consensus`` keeps its per-round c2
results in ``runs`` and recomputes them only from that round on.

``snapshot()`` serializes a state.  A run keeps no snapshots: the harness
rebuilds a process's snapshots from the run's trace when it compares two
runs.

Root queries rest on one lemma.  Let S be slot r, and let every member of
S have its self-loop in ``edges[r]``.  It has: its own round-r merge wrote
it, as every round graph of a run holds every self-loop (``RunConfig``
rejects a lasso graph that lacks one).  Then the roots of ``edges[r]``
restricted to the columns of S are the roots of the whole ``edges[r]`` that
lie inside S, plus one singleton ghost ``{u}`` for each u outside S with an
edge into S: such a u has no in-edge left, and a set inside S has the same
in-edges in both graphs.  This holds whether or not ``edges[r]`` is final,
because the columns of S are written before S holds them.  So the kernel
``graphs.roots_of_mask`` runs once per distinct round mask of a run, and
each query is a subset filter.  Round 0 (which has no edges) and the rounds
outside the window answer ``{pid}``.

Edge sets are integer bitmasks in the layout ``graphs.mask_layout(n)``.  The
states of one run (:func:`init_states`) share that layout, the four tables
and one root memo, which live as long as the run.  The memo maps a whole
round mask to (root, member bitset) for each of its roots.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .graphs import MaskLayout, mask_layout, roots_of_mask
from .graphs import root_components  # noqa: F401  (bound here for callers that wrap it)


def roots_of_partial(mask: int, extra_vertex: int, layout: MaskLayout, slot: int, whole_roots: tuple) -> frozenset:
    """Root components of a partial graph given by ``mask`` (in ``layout``)
    over its edge endpoints plus ``extra_vertex``; every vertex has a
    self-loop.  ``mask`` is a round's edge mask restricted to the columns of
    the vertex bitset ``slot``, which holds ``extra_vertex`` and whose every
    member has its self-loop in ``mask`` (so ``extra_vertex`` is an endpoint
    already), and ``whole_roots`` is (root, member bitset) for each root of
    the whole round mask.  By the module's lemma the answer is the roots of
    ``whole_roots`` inside ``slot`` plus the ghosts.
    """
    inside = [root for root, bits in whole_roots if bits & slot == bits]
    return frozenset(inside + _ghosts(mask, slot, layout))


def _ghosts(mask: int, slot: int, layout: MaskLayout) -> list:
    """``{u}`` for each u outside ``slot`` with an edge in ``mask``."""
    width, ghosts = layout.width, []
    rows = mask
    for s in layout.halves:  # fold each row into its column 0
        rows |= rows >> s
    rows &= layout.column
    while rows:
        low = rows & -rows
        u = (low.bit_length() - 1) // width + 1
        if not slot >> (u - 1) & 1:
            ghosts.append(frozenset((u,)))
        rows ^= low
    return ghosts


def window_start(keep: Optional[int], m: int) -> int:
    """Oldest round retained after round m: 0 in full mode (``keep`` None),
    ``max(0, m - keep)`` in bounded:keep."""
    return 0 if keep is None else max(0, m - keep)


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


def _approx_view(known: int, edges: dict, lo: int, m: int, layout: MaskLayout) -> dict:
    """Round -> edge mask for rounds ``lo..m``: the round's edges into every v
    whose state of that round ``known`` holds."""
    view, column, row = {}, layout.column, layout.row
    for r in range(lo, m + 1):
        view[r] = edges[r] & column * (known & row)
        known >>= layout.width
    return view


def _locks_view(known: int, rows: dict, lo: int, width: int) -> dict:
    """Peer -> {round -> lock value} for the rounds of ``lo..m`` whose state
    of the peer ``known`` holds, for every peer it holds in some slot."""
    heard = _heard(known, lo, width)
    return {q: {r: rows[q][r] for r in range(lo, h + 1)} for q, h in heard.items()}


class Message(NamedTuple):
    """A sender's end-of-previous-round knowledge: its ``known`` slots from
    round ``lo`` on (slot 0 is round ``lo``, each ``layout.width`` bits) and
    the run's row and edge tables, by reference.

    ``approx`` and ``locks`` are views of what the message carries; the
    tables keep growing, so they are meaningful only in the round the
    message is sent.
    """

    sender: int
    sent_in: int  # the round this message is delivered in
    known: int  # the sender's slots of rounds lo..sent_in-1
    rows: dict  # the run's row table, pid -> that pid's own {round: lock}
    edges: dict  # the run's edge table, round -> edge mask
    lo: int
    layout: MaskLayout

    @property
    def approx(self) -> dict:
        return _approx_view(self.known, self.edges, self.lo, self.sent_in - 1, self.layout)

    @property
    def locks(self) -> dict:
        return _locks_view(self.known, self.rows, self.lo, self.layout.width)


class NodeState:
    """One process's protocol state.

    ``known`` holds a ``layout.width``-bit slot per round ``lo..m``: the
    processes whose state of that round has reached this one (the process
    itself is in every slot).  ``rows``, ``edges``, ``starts`` and
    ``answers`` are the run's four tables: q -> q's own ``{round: lock}``,
    whose cells are read only where ``known`` has q's bit; round -> that
    round's edge mask (round 0 has none); round -> {root: run start}; and
    anchor -> {(root, lo): b1/b3 answer} (see ``consensus``; a state built
    without one gets a table of its own).  ``y``
    is the write-once decision.  ``approx[r]``, the round-r approximation's
    edge mask for r in ``lo..m``, and ``locks[q][r]`` are views over the
    retained rounds.  ``root_bits`` gives a round's roots to the core step;
    ``roots_at``, the approximation's roots with its ghosts, is a view off
    the core path.  ``runs``, ``stale_from`` and ``c2_from`` hold the core
    step's c2 scan (see ``consensus``); the merge lowers ``stale_from`` and
    drops the entries of the round that leaves the window.  ``layout`` is
    the n-process edge-mask layout and ``memo`` the run's root memo, shared
    by its states.
    """

    __slots__ = (
        "pid", "x", "m", "lo", "y", "keep", "known", "rows", "edges", "starts", "answers", "runs", "stale_from",
        "c2_from", "layout", "memo",
    )

    def __init__(
        self, pid: int, x: int, n: int, keep: Optional[int], memo: dict, rows: dict, edges: dict, starts: dict,
        answers: Optional[dict] = None,
    ):
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
        self.edges = edges
        self.starts = starts
        self.answers = {} if answers is None else answers
        self.runs = {}
        self.stale_from = 0
        self.c2_from = 0
        self.layout = mask_layout(n)
        self.memo = memo

    @property
    def approx(self) -> dict:
        return _approx_view(self.known, self.edges, self.lo, self.m, self.layout)

    @property
    def locks(self) -> dict:
        return _locks_view(self.known, self.rows, self.lo, self.layout.width)

    def _slot(self, r: int) -> int:
        """Slot r of ``known``, for a retained round r."""
        return self.known >> (r - self.lo) * self.layout.width & self.layout.row

    def roots_at(self, r: int) -> frozenset:
        """Roots of the round-r approximation: the roots of ``edges[r]`` inside
        slot r plus the ghosts, singletons outside it with an edge into it
        (just ``{pid}`` at round 0 and outside the retained rounds)."""
        if not max(1, self.lo) <= r <= self.m:
            return frozenset([frozenset([self.pid])])
        lay, slot = self.layout, self._slot(r)
        return roots_of_partial(self.edges[r] & lay.column * slot, self.pid, lay, slot, self.root_bits(r))

    def root_bits(self, r: int) -> tuple:
        """(root, member bitset) for each root of the whole ``edges[r]``,
        memoized in the run's memo under that mask (``{pid}`` alone at round 0
        and outside the retained rounds).  Those inside slot r are the
        approximation's roots without its ghosts, and a root that passes the
        evidence filter (slot r, empty at the current round) lies inside it;
        so ``consensus.confirmed_roots`` finds the approximation's confirmed
        roots here."""
        if not max(1, self.lo) <= r <= self.m:
            return ((frozenset([self.pid]), 1 << (self.pid - 1)),)
        whole = self.edges[r]
        bits = self.memo.get(whole)
        if bits is None:
            roots = roots_of_mask(whole, 0, self.layout)
            bits = self.memo[whole] = tuple((root, sum(1 << (q - 1) for q in root)) for root in roots)
        return bits

    def lock_value(self, q: int, r: int) -> Optional[int]:
        if self.lo <= r <= self.m and self.known & 1 << ((r - self.lo) * self.layout.width + q - 1):
            return self.rows[q][r]
        return None

    def propose(self, value: int) -> None:
        """Set the own lock of the current round (the core step's re-proposal)."""
        self.rows[self.pid][self.m] = value

    def snapshot(self) -> tuple:
        """Hashable full-state copy; two runs are indistinguishable to a
        process through a round iff its snapshots match round for round."""
        return (
            self.pid,
            self.m,
            self.x,
            self.y,
            tuple(self.approx.items()),
            tuple((q, tuple(row.items())) for q, row in sorted(self.locks.items())),
            self.keep,
        )


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
    shared row table, edge table, start table, answer table and root memo.
    ``mode`` is ``"full"`` or ``"bounded:<k>"``."""
    n, keep, memo, edges, starts, answers = len(inputs), parse_mode(mode), {}, {0: 0}, {}, {}
    rows = {p: {0: x} for p, x in enumerate(inputs, start=1)}
    return {
        p: NodeState(p, x, n, keep, memo, rows, edges, starts, answers) for p, x in enumerate(inputs, start=1)
    }


def make_message(s: NodeState) -> Message:
    """The state at the end of round ``s.m``, broadcast in round ``s.m + 1``.

    In bounded(k) mode the message carries only rounds newer than ``s.m - k``:
    its ``known`` is the state's, rebased to that first round.  It refers to
    the run's row and edge tables without copying them.
    """
    lo = window_start(s.keep, s.m + 1)
    return Message(s.pid, s.m + 1, s.known >> (lo - s.lo) * s.layout.width, s.rows, s.edges, lo, s.layout)


def receive_and_merge(s: NodeState, msgs: Iterable, m: int) -> NodeState:
    """Fuse the round-m deliveries into the state, before the core step.

    ``known``, rebased to the round-m window, ORs in the inbox's ``known``
    ints (all rebased to the same first round) and the own round-m slot.
    The own row gains its round-m lock, carried forward, and the edge table
    gains the direct in-edges (sender -> pid) in round m; both, and the
    start and answer tables, drop the round that left the window (the
    shared tables' drop is done by every merge of the round, and
    idempotent).
    ``stale_from`` drops to the lowest new slot (or to round m-1, which
    stops being the current round).  Merge order is irrelevant: ORs are
    commutative.
    """
    if s.m != m - 1:
        raise ValueError(f"state at round {s.m} cannot merge round-{m} deliveries")
    lo = window_start(s.keep, m)
    pid, width = s.pid, s.layout.width
    before = s.known >> (lo - s.lo) * width
    known = before | 1 << ((m - lo) * width + pid - 1)
    direct = 0
    for msg in msgs:
        if msg.sent_in != m:
            raise ValueError(f"message for round {msg.sent_in} delivered in round {m}")
        direct |= 1 << ((msg.sender - 1) * width + pid - 1)
        known |= msg.known
    s.m, s.lo, s.known = m, lo, known
    own, edges = s.rows[pid], s.edges
    own[m] = own[m - 1]
    edges[m] = edges.get(m, 0) | direct
    if lo > 0:
        del own[lo - 1]
        edges.pop(lo - 1, None)
        s.runs.pop(lo - 1, None)
        s.starts.pop(lo - 1, None)
        s.answers.pop(lo - 1, None)
    new = known & ~before  # never empty: it holds the own round-m bit
    changed = min(lo + ((new & -new).bit_length() - 1) // width, m - 1)
    if changed < s.stale_from:
        s.stale_from = changed
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
