"""Per-process full-information state, held as knowledge by reference.

A process's state is exactly what has reached it through its causal past:
``known``, one int holding a W-bit slot (W the width of the run's edge-mask
layout, so a slot lines up with one row of a mask) for every retained round
r, whose bit q-1 says that q's round-r end state has reached the process.
Slot 0 is round ``lo``, the start of the window of the run's current round
m (0 in full mode; ``max(0, m-k)`` in ``bounded:k``): the run's clock.
Slots are monotone: a state of q that has arrived carries q's earlier
states, so q in slot r is also in every slot ``lo..r``.

The facts themselves live in one :class:`RunTables` per run, which every
state of the run refers to.  The engine enters what the adversary fixed:
once per round, before the merges, :meth:`RunTables.enter` appends round
m's graph to ``graphs``, the run's one list of round graphs (round r at
index r-1), and writes its start entry ``starts[m]``, which maps each root
of round m to the round its common-root run began.  It notes in
``last_long`` the latest round r before m that is long for the run's D,
some root's run having begun by round r-D (``consensus`` scans c2 only up
to there), moves the clock, which only it writes, to m and ``lo``, drops
round ``lo-1`` from the start table and empties the answer memo.
The processes compute only their locks: ``rows[q]`` is q's append-only
``{round: lock}`` of per-round lock (proposal) values; only q writes it,
and only the cell of its current round (in ``bounded:k`` it also drops its
round ``m-k-1`` cell in round m).
``answers``, the current round's memo, maps ``(anchor, root)`` to the
b1/b3 answer for a confirmed root of round ``anchor`` (see ``consensus``).
A state holds no cells of its own: it reads q's round-r lock only when q
is in slot r.

So a broadcast is one int.  In round m each process q sends its ``known``,
rebased to the round-m window.  Processes with the same in-neighbours in
the round graph receive the same ints, so the engine ORs them once for
each such class (``CommGraph.in_classes``), and p's merge
(:func:`receive_and_merge`) adds its own round-m bit to its class's OR; it
writes no table but the own row.

After round m the process knows ``lock[q][r]`` exactly when q is in slot r,
and the round-r edge (u, v) exactly when v is, so its round-r approximation
is the round graph's mask ``graphs[r-1].mask`` restricted to the columns of
slot r (round 0 has no edges), derived where it is read.  ``locks`` and
``approx`` are read-only views of these facts; ``locks`` lists the peers
with a retained cell, which are the peers in slot ``lo``.  The harness's
invariant monitor checks the clock, ``known`` and the row table against
its ground truth every round.  The tables and their clock are shared, so
all states of one run must advance in lock step, as the harness does.

A member q of a round-r root has a later outgoing edge recorded exactly when
q is in slot r and r is not the current round (:func:`evidence`), so
confirming a root is one mask test of its member bitset against that slot;
the core step makes it on ``known`` in place.

The merge also notes ``stale_from``, the earliest round whose confirmed
single root may have changed (the lowest newly set slot, or the round that
just stopped being the current one); the core step's c2 gate reads it as
the first round where c2 can have come to hold (see ``consensus``).

``snapshot()`` serializes a state.  A run keeps no snapshots: when the
harness compares two runs, it replays both from their configs in lock step
and snapshots the process's state after every round.

Root queries rest on one lemma.  Let S be slot r, and let every member of
S have its self-loop in the round-r mask.  It has, as every round graph of
a run holds every self-loop (``RunConfig`` rejects a lasso graph that lacks
one).  Then the roots of the round-r mask restricted to the columns of S
are the roots of the whole round-r graph that lie inside S, plus one
singleton ghost ``{u}`` for each u outside S with an edge into S: such a u
has no in-edge left, and a set inside S has the same in-edges in both
graphs.  A confirmed root lies inside S, so the core step reads the roots
of the round graph, which the graph computes once, straight from the run's
graph list (``tables.graphs[r-1].root_bits``), in its one c2 scan and in
its c1 test; the definitional view ``consensus.confirmed_roots`` makes the
same read, one round per call.

Edge sets are integer bitmasks in the layout ``graphs.mask_layout(n)``.  The
run's tables also hold that layout and the window ``keep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graphs import MaskLayout, mask_layout, root_components


# Nothing calls this (or _ghosts) since its only caller, NodeState's
# ghost-aware root view, was deleted; kept for bench/tracer.py until ROADMAP item 3.
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


def _approx_view(known: int, tables: RunTables, lo: int, m: int) -> dict:
    """Round -> edge mask for rounds ``lo..m``: the round's edges into every v
    whose state of that round ``known`` holds (round 0 has none)."""
    view, graphs, lay = {}, tables.graphs, tables.layout
    column, row, width = lay.column, lay.row, lay.width
    for r in range(lo, m + 1):
        view[r] = graphs[r - 1].mask & column * (known & row) if r else 0
        known >>= width
    return view


def _locks_view(known: int, tables: RunTables, lo: int) -> dict:
    """Peer -> {round -> lock value} for the rounds of ``lo..m`` whose state
    of the peer ``known`` holds, for every peer it holds in some slot."""
    rows, heard = tables.rows, _heard(known, lo, tables.layout.width)
    return {q: {r: rows[q][r] for r in range(lo, h + 1)} for q, h in heard.items()}


@dataclass(slots=True)
class RunTables:
    """What every state and message of one run shares: the n-process
    edge-mask ``layout``, the window ``keep`` (None in full mode, else k of
    ``bounded:k``), the row table, the run's round graphs, the start table,
    ``last_long``, the latest long round before the current one, the clock
    (the current round ``m`` and its window start ``lo``) and the current
    round's answer memo (see the module docstring).  Only ``enter`` moves
    ``last_long`` and the clock, and it replaces ``answers``; the other
    fields are fixed, and the tables in them grow and shrink as the run
    advances."""

    layout: MaskLayout
    keep: Optional[int]
    rows: dict  # pid -> that pid's own {round: lock}
    graphs: list  # round r's CommGraph at index r-1
    starts: dict  # round -> {root: run start}
    answers: dict  # (anchor, root) -> b1/b3 answer, entered in the current round
    last_long: int = 0  # latest round r < m with a root whose run began by r-D; 0 if none
    m: int = 0  # the current round: the last one entered
    lo: int = 0  # window_start(keep, m) of the current round m

    @classmethod
    def of(cls, inputs, keep: Optional[int]) -> RunTables:
        """The tables of a run of processes 1..len(inputs) before round 1:
        each row holds its owner's input at round 0, and no graph is in."""
        rows = {p: {0: x} for p, x in enumerate(inputs, start=1)}
        return cls(mask_layout(len(inputs)), keep, rows, [], {}, {})

    def enter(self, m: int, g, D: int) -> int:
        """Enter round m's graph ``g``, before the round's merges: append it
        to ``graphs`` and enter each of its roots' run start, carried from
        round m-1 while the root stays a root (it may predate the window;
        every read clamps it).  Round m-1, no longer the current round,
        becomes ``last_long`` when one of its roots' runs began at least
        ``D`` rounds before it.  Set the clock to m and ``lo``, empty the
        answer memo, and drop round ``lo-1``, which has left the window,
        from the start table; returns ``lo``."""
        self.graphs.append(g)
        previous = self.starts.get(m - 1, {})
        if previous and min(previous.values()) <= m - 1 - D:
            self.last_long = m - 1
        self.starts[m] = {root: previous.get(root, m) for root in root_components(g)}
        self.answers = {}
        self.m = m
        self.lo = lo = window_start(self.keep, m)
        if lo:
            self.starts.pop(lo - 1, None)
        return lo


# Kept, with make_message, only for bench/tracer.py, until ROADMAP item 3.
class Message(NamedTuple):
    """A view of one broadcast: the sender's end-of-previous-round
    ``known`` slots from round ``lo`` on (slot 0 is round ``lo``, each
    ``layout.width`` bits), with the run's tables by reference.  The engine
    broadcasts the ``known`` int alone (see :func:`receive_and_merge`).

    ``approx`` and ``locks`` are views of what the broadcast carries; the
    tables keep growing, so they are meaningful only in the round it is
    sent.
    """

    sender: int
    sent_in: int  # the round this message is delivered in
    known: int  # the sender's slots of rounds lo..sent_in-1
    lo: int
    tables: RunTables

    @property
    def approx(self) -> dict:
        return _approx_view(self.known, self.tables, self.lo, self.sent_in - 1)

    @property
    def locks(self) -> dict:
        return _locks_view(self.known, self.tables, self.lo)


class NodeState:
    """One process's protocol state.

    ``known`` holds a ``tables.layout.width``-bit slot per round ``lo..m``:
    the processes whose state of that round has reached this one (the
    process itself is in every slot).  ``tables`` is the run's
    :class:`RunTables`, whose row cells the state reads only where ``known``
    has the owner's bit, and whose clock holds m and ``lo``.  ``y`` is the
    write-once decision.  ``approx[r]``, the round-r approximation's edge
    mask for r in ``lo..m``, and ``locks[q][r]`` are views over the
    retained rounds.  ``stale_from`` is where the core step's c2 search can
    first hit (see ``consensus``); the merge lowers it and the search
    raises it.
    """

    __slots__ = ("pid", "x", "y", "known", "stale_from", "tables")

    def __init__(self, pid: int, x: int, tables: RunTables):
        if pid not in tables.rows:
            raise ValueError(f"pid must be in 1..{len(tables.rows)}, got {pid}")
        self.pid = pid
        self.x = x
        self.y: Optional[int] = None
        self.known = 1 << (pid - 1)
        self.stale_from = 0
        self.tables = tables

    @property
    def approx(self) -> dict:
        return _approx_view(self.known, self.tables, self.tables.lo, self.tables.m)

    @property
    def locks(self) -> dict:
        return _locks_view(self.known, self.tables, self.tables.lo)

    def lock_value(self, q: int, r: int) -> Optional[int]:
        tables, lo = self.tables, self.tables.lo
        if lo <= r <= tables.m and self.known & 1 << ((r - lo) * tables.layout.width + q - 1):
            return tables.rows[q][r]
        return None

    def propose(self, value: int) -> None:
        """Set the own lock of the current round (the core step's re-proposal)."""
        self.tables.rows[self.pid][self.tables.m] = value

    def snapshot(self) -> tuple:
        """Hashable full-state copy; two runs are indistinguishable to a
        process through a round iff its snapshots match round for round."""
        return (
            self.pid,
            self.tables.m,
            self.x,
            self.y,
            tuple(self.approx.items()),
            tuple((q, tuple(row.items())) for q, row in sorted(self.locks.items())),
            self.tables.keep,
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
    :class:`RunTables` for the run.  ``mode`` is ``"full"`` or
    ``"bounded:<k>"``."""
    tables = RunTables.of(inputs, parse_mode(mode))
    return {p: NodeState(p, x, tables) for p, x in enumerate(inputs, start=1)}


# Kept only for bench/tracer.py, until ROADMAP item 3.
def make_message(s: NodeState) -> Message:
    """A view of the state's broadcast of round m+1, ``m`` the tables'
    round: its state at the end of round m.

    In bounded(k) mode the broadcast carries only rounds newer than
    ``m - k``: its ``known`` is the state's, rebased to that first round,
    which is the int the engine sends.  The view refers to the run's tables
    without copying them.
    """
    tables = s.tables
    lo = window_start(tables.keep, tables.m + 1)
    return Message(s.pid, tables.m + 1, s.known >> (lo - tables.lo) * tables.layout.width, lo, tables)


def receive_and_merge(s: NodeState, heard: int, own: int, m: int) -> None:
    """Fuse the round-m deliveries into the state, after the engine has
    entered the round graph (:meth:`RunTables.enter`) and before the core
    step.

    A broadcast of round m is its sender's ``known`` at the end of round
    m-1, rebased to the round-m window (``tables.lo``: the clock is at m).
    ``heard`` is the OR of the broadcasts of the state's in-neighbours in
    the round graph, which holds ``own``, the state's own broadcast, by its
    self-loop (the harness ORs them once per class of equal
    in-neighbours).  The state's ``known`` becomes ``heard`` plus the own
    round-m slot.  The own row gains its round-m lock, carried forward; no
    other table is written.  The own row drops the round that left the
    window.
    ``stale_from`` drops to the lowest slot ``heard`` adds to ``own`` (or
    to round m-1, which stops being the current round).  Merge order is
    irrelevant: ORs are commutative.
    """
    tables, pid = s.tables, s.pid
    if tables.m != m:
        raise ValueError(f"tables at round {tables.m} cannot merge round-{m} deliveries")
    lo, width = tables.lo, tables.layout.width
    s.known = heard | 1 << ((m - lo) * width + pid - 1)
    row = tables.rows[pid]
    row[m] = row[m - 1]
    if lo > 0:
        del row[lo - 1]
    new = heard ^ own  # heard holds own; a new slot lies before round m
    changed = lo + ((new & -new).bit_length() - 1) // width if new else m - 1
    if changed < s.stale_from:
        s.stale_from = changed


# Read by consensus.confirmed_roots and the tests; the core step tests slot r
# of ``known`` in place instead.
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
    tables = s.tables
    if not tables.lo <= r < tables.m:
        return 0
    return s.known >> (r - tables.lo) * tables.layout.width & tables.layout.row
