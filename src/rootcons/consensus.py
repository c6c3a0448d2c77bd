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
c2 resumes its search at the step's entry ``stale_from``: no run before it
changed since the last search, which found none long enough.  A start
before the window counts from the window's first round.

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
# and c1's decided branch); ``tests/oracles.reference_c2_check``, the tests
# and bench/tracer.py read it.
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


def _refresh(s: NodeState, upto: int) -> None:
    """Recompute the ``runs`` entries of rounds ``stale_from..upto``, which
    ends before the current round: that round has no confirmed root.

    :func:`confirmed_roots`, inlined: ``known`` is shifted once to the first
    round's slot and then one slot per round, and each root of the round
    graph is tested against it, with no call per round.
    """
    lo = s.lo
    low = lo or 1  # max(1, lo), and first = max(stale_from, low), with no call
    first = s.stale_from
    if first < low:
        first = low
    if first > upto:
        return
    runs, graphs, lay = s.runs, s.tables.graphs, s.tables.layout
    width, row = lay.width, lay.row
    known = s.known >> (first - lo) * width
    run_root, start = runs[first - 1] if first > low else (None, first)
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
        runs[r] = (run_root, start)
        known >>= width
    s.stale_from = upto + 1


def c1_check(s: NodeState, m: int, D: int) -> Optional[frozenset]:
    """Exactly one confirmed root of approx[m-D].

    Read from ``runs`` while c2 still needs the rounds before m-D kept
    current; once decided, only round m-D itself is evaluated, with the
    test of :func:`_refresh` on its slot.  That path is not a duplicate:
    refreshing ``runs`` after the decision, for c1 alone, costs about
    14% of the lassos/s of a bounded run to H=150.
    """
    r0 = m - D
    if not 0 < r0 >= s.lo:
        return None
    if s.y is None or r0 < s.stale_from:
        _refresh(s, r0)
        return s.runs[r0][0]
    lay = s.tables.layout
    have, single = s.known >> (r0 - s.lo) * lay.width & lay.row, None
    for root, bits in s.tables.graphs[r0 - 1].root_bits:
        if bits & have == bits:
            if single is not None:
                return None
            single = root
    return single


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
    """
    _refresh(s, s.m - 1)
    runs = s.runs
    for r in range(max(resume, max(1, s.lo) + D), s.m):
        root, start = runs[r]
        if r - start >= D:
            return root, (r - D, r)
    return None


def blocker(s: NodeState) -> tuple:
    """Why an undecided process has not decided, from its current state:
    ``("c2", root, (a, b))`` for its longest single-rooted run (the earliest
    of equal length), or ``("c2", None, None)`` when no retained round has a
    single confirmed root.  c2 is the only condition that can block, as c3
    is implied by c2's confirmed roots.
    """
    _refresh(s, s.m - 1)
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

    Empty for m <= D.  c2 is evaluated whether or not c1 fired, until the
    process has decided (b3 is write-once, so later scans cannot change it).
    Only a deciding step builds an outcome; others return b1's shared one.
    """
    if m <= D:
        return _NOTHING
    resume = s.stale_from  # before c1 refreshes ``runs``
    root = c1_check(s, m, D)
    out = _NOTHING if root is None else b1_apply(s, m, root, D)
    if s.y is not None:
        return out
    hit = c2_check(s, D, resume)
    if hit is None:
        return out
    return CoreStepOutcome(out.locked, b3_apply(s, *hit))
