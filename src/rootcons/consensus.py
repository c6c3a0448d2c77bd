"""Round-m core computation: lock the detected root, decide on a stable one.

Executed after the round's merge.  The step is empty for rounds 1..D.  From
round D+1 on:

* c1/b1 -- if the approximation of round m-D shows exactly one root whose
  members all have a later outgoing edge recorded, re-propose: set the own
  round-m lock to the maximum lock value the root's members held at the
  start of its common-root run.
* c2/b3 -- if some root was the single confirmed root of more than D
  consecutive approximated rounds, decide (once) on the maximum lock value
  its members held at the start of the surrounding common-root run.  A
  confirmed root's members each have an outgoing edge recorded after the
  round, so at the interval's last round the paper's evidence condition c3
  (every member demonstrably sent something after the interval) already
  holds: c3 is implied by c2's confirmed roots and is not checked apart.

Interval searches range over rounds >= 1; the round-0 entry is an
initialization artifact (every process trivially roots its own singleton
there) and counting it would let an isolated process fabricate a quorum of
its own silence.

Both conditions read one per-round cache on the state: ``runs[r]`` is
``(root, start)``, the single confirmed root of round r (None if there is
none or several) and the round its run of that root began (``r + 1`` for
None).  Whether round r has a single confirmed root depends only on slot r
of ``known``: it selects the columns of the round-r graph's mask (entered
whole before the round's merges) that form the round-r approximation, and
it is the members' evidence (empty at the current round, which thus has no
confirmed root and is never evaluated).  So the merge's ``stale_from``
bounds what can have changed, and only rounds from there on are recomputed.
The step reads ``known`` and the run's graph list in place: it shifts
``known`` from slot to slot and tests the member bitset of each root of
the round graph, ``tables.graphs[r-1].root_bits``, against the slot, with
no call per round; :func:`confirmed_roots` is the same test, one round per
call.
An undecided step refreshes ``runs`` once, up to round m-1, and that
refresh notes c2's first hit as it goes; c1 then reads ``runs[m-D]``.  c2
resumes its search at the step's entry ``stale_from``: no run before it
changed since the last search, which found none long enough.  A start
before the window counts from the window's first round.  A decided process
searches no more, so it refreshes nothing: its c1 makes the same test on
slot m-D alone, in the core step itself, which also takes a held answer
from the answer table (below) there.

The refresh is gated by the true graphs.  Call round r long when some
root of the round-r graph has a run that began at least D rounds before
r; the engine enters the latest long round before the current one as
``tables.last_long``.  A c2 hit at round b' is a single confirmed root R
of rounds b'-D..b', and a confirmed root is a root of the true round graph
(the lemma in ``approximation``), so R's true run through b' began by
b'-D: every hit lies on a long round.  So an undecided step whose
``last_long`` is before ``max(stale_from, max(1, lo) + D)``, the first
round c2 could hit, cannot decide: it skips the refresh, leaves
``stale_from`` where it is, and takes c1 by the decided step's test of
slot m-D.  A later refresh recomputes the skipped rounds from the
then-current slots, so it finds the first hit that refreshing in every
step would have found.

b1 and b3 take the maximum lock at the start of the surrounding common-root
run of a confirmed root R.  R lies inside slot ``anchor`` and so, slots
being monotone, inside every earlier retained slot; by the lemma in
``approximation`` it is a root of approx[t] exactly when it is one of the
whole round-t graph.  So the start is a fact of the true round graphs, and
the engine enters it with each round graph in the start table of the run's
``approximation.RunTables``: ``tables.starts[r]`` maps each root of the
round-r graph to the round its run began.  :func:`_run_start` reads it at
round ``anchor-1`` and clamps it at the window's first round.

The answer itself is run-wide too, and the run's answer table holds it:
``tables.answers[anchor]`` maps ``(root, lo)`` to ``(a, member bitset,
outcome)``, the outcome being the lock-only ``CoreStepOutcome((root, a,
value))`` that b1 returns to every process it answers.  a depends only on
the start table and on ``lo``, which every state shares in a round, and the
value reads the members' row cells of round a < m, which only their owners
wrote and which are final (the harness's monitor compares the row table
every round).  The first process to ask computes and enters it; a later
one needs only to hold every member's round-a state, one mask test of the
bitset against slot a of its ``known`` (its evidence of round a, as
lo <= a <= anchor < m).  If that test fails, the full computation runs and
raises as it would have.
Every anchor is at or after max(1, lo), so ``RunTables.enter`` drops its
round ``lo-1`` with the window.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .approximation import NodeState, evidence


class InvariantViolationError(Exception):
    """An unknown lock value showed up where the protocol guarantees one."""


class CoreStepOutcome(NamedTuple):
    """What the step did: ``locked`` when b1 re-proposed, ``decided`` when b3
    assigned the write-once decision.  Both carry (root, anchor round, value)."""

    locked: Optional[tuple] = None
    decided: Optional[tuple] = None

    def to_json_dict(self, pid: int, m: int) -> dict:
        def enc(item):
            if item is None:
                return None
            root, a, value = item
            return {"root": sorted(root), "round": a, "value": value}

        return {"pid": pid, "round": m, "locked": enc(self.locked), "decided": enc(self.decided)}


_NOTHING = CoreStepOutcome()  # the one outcome of every step where nothing fired


def _run_start(s: NodeState, root: frozenset, anchor: int) -> int:
    """The least round a from max(1, lo) to ``anchor`` with root in
    roots(approx[r]) for every r in a..anchor-1 (``anchor`` itself when it
    is at or before max(1, lo)): for a confirmed root of round ``anchor``,
    the start of its run through ``anchor``, cut at the window's first
    round.  The run's start table holds the run starts of the whole round
    masks' roots, which for a confirmed root are the same, by the lemma.
    """
    low = max(1, s.lo)
    if anchor <= low:
        return anchor
    return max(s.tables.starts[anchor - 1].get(root, anchor), low)


def _max_lock(s: NodeState, root: frozenset, a: int, what: str) -> int:
    values = [s.lock_value(q, a) for q in root]
    if None in values:
        q = min(q for q, v in zip(root, values) if v is None)
        raise InvariantViolationError(
            f"p{s.pid} {what}: lock[{q}][{a}] unknown for detected root {sorted(root)}"
        )
    return max(values)


def _answer(s: NodeState, root: frozenset, anchor: int, what: str) -> CoreStepOutcome:
    """``CoreStepOutcome((root, a, value))``: the run start a through
    ``anchor`` of the confirmed root and its members' maximum lock at a,
    from the run's answer table, or computed and entered there."""
    answers = s.tables.answers
    table = answers.get(anchor)
    if table is None:
        table = answers[anchor] = {}
    key = (root, s.lo)
    entry = table.get(key)
    if entry is not None:
        a, bits, out = entry  # bits lies in one slot: the member pids are at most W
        if s.lo <= a < s.m and bits & s.known >> (a - s.lo) * s.tables.layout.width == bits:
            return out
    a = _run_start(s, root, anchor)
    out = CoreStepOutcome((root, a, _max_lock(s, root, a, what)))
    table[key] = (a, sum(1 << (q - 1) for q in root), out)
    return out


# The definitional per-round view.  The core step inlines it (:func:`_refresh`
# and a decided process's test of round m-D in :func:`core_step`);
# ``tests/oracles.reference_c2_check``, the tests and bench/tracer.py read it.
def confirmed_roots(s: NodeState, r: int) -> list:
    """Roots of approx[r] whose members all have a later outgoing edge recorded.

    Roots without that evidence are bookkeeping ghosts of partial knowledge
    (a vertex whose round-r in-edges have not arrived yet), while a root
    *with* evidence is guaranteed to be a root of the true round-r graph.

    ``root_bits`` gives the roots of the whole round-r graph, not of the
    approximation.  The evidence (slot r, empty at the current round) keeps
    exactly those inside slot r, which by the lemma in ``approximation`` are
    the approximation's roots that are not ghosts, and no ghost, a vertex
    outside slot r, could pass it.
    """
    have = evidence(s, r)
    return [root for root, bits in s.root_bits(r) if bits & have == bits]


def _refresh(s: NodeState, D: int, begin: int) -> Optional[tuple]:
    """Recompute the ``runs`` entries of rounds ``stale_from..m-1`` (the
    current round has no confirmed root), noting c2's first hit among them:
    ``(root, (r - D, r))`` for the least recomputed round r >= ``begin``
    whose run began at least D rounds before it, or None.

    :func:`confirmed_roots`, inlined: ``known`` is shifted once to the first
    round's slot and then one slot per round, and each root of the round
    graph is tested against it, with no call per round.
    """
    lo, upto = s.lo, s.m - 1
    low = lo or 1  # max(1, lo), and first = max(stale_from, low), with no call
    first = s.stale_from
    if first < low:
        first = low
    if first > upto:
        return None
    runs, graphs, lay = s.runs, s.tables.graphs, s.tables.layout
    width, row = lay.width, lay.row
    known = s.known >> (first - lo) * width
    run_root, start = runs[first - 1] if first > low else (None, first)
    hit = None
    for r in range(first, upto + 1):
        have, single = known & row, None
        for root, bits in graphs[r - 1].root_bits:
            if bits & have == bits:
                if single is not None:
                    single = None
                    break
                single = root
        if single is None:
            run_root, start = None, r + 1
        elif single != run_root:
            run_root, start = single, r
        elif r - start >= D and r >= begin and hit is None:
            hit = run_root, (r - D, r)
        runs[r] = (run_root, start)
        known >>= width
    s.stale_from = upto + 1
    return hit


def b1_apply(s: NodeState, m: int, root: frozenset, D: int) -> CoreStepOutcome:
    """Re-propose: lock[pid][m] := max lock[q][a] over the root's members,
    where a starts the maximal common-root run around round m-D.  Returns
    the answer's lock-only outcome, shared by every process that takes it."""
    out = _answer(s, root, m - D, "b1")
    s.propose(out.locked[2])
    return out


def c2_check(s: NodeState, D: int, resume: int = 0) -> Optional[tuple]:
    """Earliest interval of more than D consecutive rounds whose approximations
    are all single-rooted (among confirmed roots) with the same root.

    Returns (root, (a', b')) with the least a' and the least qualifying b'
    (= a' + D): any longer interval is covered by its prefix, and the root's
    members all have an outgoing edge recorded after b', as the paper's
    evidence condition c3 requires.
    Round b' qualifies iff its run began at least D rounds earlier and
    b' >= max(1, lo) + D, so a longer-ago start needs no clamping.  Rounds
    before ``resume``, and the current one, are skipped (module docstring).
    The search is the refresh of ``runs``, which recomputes every round it
    covers: the core step resumes at ``stale_from``, and a ``resume``
    before it marks the rounds from ``resume`` on stale.  A qualifying
    round is long (module docstring), so the core step calls this only
    when ``tables.last_long`` is at or after the first round it searches,
    ``max(stale_from, max(1, lo) + D)``.
    """
    if resume < s.stale_from:
        s.stale_from = resume
    return _refresh(s, D, max(resume, (s.lo or 1) + D))


def blocker(s: NodeState) -> tuple:
    """Why an undecided process has not decided, from its current state:
    ``("c2", root, (a, b))`` for its longest single-rooted run (the earliest
    of equal length), or ``("c2", None, None)`` when no retained round has a
    single confirmed root.  c2 is the only condition that can block, as c3
    is implied by c2's confirmed roots.
    """
    _refresh(s, 0, s.m)  # no round reaches ``begin``: a refresh alone
    low = max(1, s.lo)
    best, length = ("c2", None, None), 0
    for r in range(low, s.m):
        root, start = s.runs[r]
        a = max(start, low)
        if root is not None and r - a + 1 > length:
            best, length = ("c2", root, (a, r)), r - a + 1
    return best


def b3_apply(s: NodeState, root: frozenset, interval: tuple) -> Optional[tuple]:
    """Decide (write-once) on the maximum member lock at the start of the
    maximal common-root run containing the single-rooted interval.  Returns
    the answer's ``(root, a, value)``, or None if already decided."""
    if s.y is not None:
        return None
    decided = _answer(s, root, interval[0], "b3").locked
    s.y = decided[2]
    return decided


def core_step(s: NodeState, m: int, D: int) -> CoreStepOutcome:
    """Run the round-m computation; returns its outcome.

    Empty for m <= D.  Until the process has decided (b3 is write-once, so
    later scans cannot change it), c2 is evaluated whenever the run's
    latest long round is at or after the first round c2 could hit,
    ``max(stale_from, max(1, lo) + D)`` (module docstring): its refresh of
    ``runs`` brings round m-D current, and c1 reads it there.  Any other
    step refreshes nothing: c1 tests slot m-D itself, as :func:`_refresh`
    does, and takes the answer table's entry when it holds every member's
    state of the entry's round (as :func:`_answer` would), with no further
    call.  That is every step of a decided process, the steady state of a
    long run, and every undecided step while no long round can be hit.
    Only a deciding step builds an outcome; others return b1's shared one.
    """
    r0 = m - D
    if r0 <= 0:
        return _NOTHING
    lo = s.lo
    if s.y is None:
        first = (lo or 1) + D  # the first round c2 could hit: max(stale_from, max(1, lo) + D)
        if first < s.stale_from:
            first = s.stale_from
        if s.tables.last_long >= first:
            hit = c2_check(s, D, s.stale_from)
            root = s.runs[r0][0] if r0 >= lo else None
            out = _NOTHING if root is None else b1_apply(s, m, root, D)
            if hit is None:
                return out
            return CoreStepOutcome(out.locked, b3_apply(s, *hit))
    if r0 < lo:
        return _NOTHING
    lay = s.tables.layout
    known, width = s.known, lay.width
    have, root = known >> (r0 - lo) * width & lay.row, None
    for single, bits in s.tables.graphs[r0 - 1].root_bits:
        if bits & have == bits:
            if root is not None:
                return _NOTHING
            root = single
    if root is None:
        return _NOTHING
    try:
        a, bits, out = s.tables.answers[r0][root, lo]
    except KeyError:
        return b1_apply(s, m, root, D)
    if bits & known >> (a - lo) * width != bits:  # lo <= a < m, as the entry is keyed by lo
        return b1_apply(s, m, root, D)
    s.propose(out.locked[2])
    return out
