"""Round-m core computation: lock the detected root, decide on a stable one.

Executed after the round's merge, at the run's clock: the round m and the
window's first round ``lo`` are ``tables.m`` and ``tables.lo`` of the run's
``approximation.RunTables``.  The step is empty for rounds 1..D.  From
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

Whether round r has a single confirmed root depends only on slot r of
``known``: it selects the columns of the round-r graph's mask (entered
whole before the round's merges) that form the round-r approximation, and
it is the members' evidence (empty at the current round, which thus has no
confirmed root and is never evaluated).  :func:`_runs` walks rounds a..b
and yields each one's single confirmed root and the round its run began,
counted from a.  It reads ``known`` and the run's graph list in place: it
shifts ``known`` from slot to slot and tests the member bitset of each
root of the round graph, ``tables.graphs[r-1].root_bits``, against the
slot, with no call per round; :func:`confirmed_roots` is the same test,
one round per call.  c2 keeps no per-round history: a hit at round b' is
one single confirmed root of rounds b'-D..b', so a walk that starts D
rounds before its first candidate round finds every hit from there on.
The merge's ``stale_from`` is the earliest round whose single root can
have changed, so no candidate before it can hit: the last search found
none, and its window has not changed since.  The core step's c2 search,
:func:`c2_check`, takes the candidates from ``max(stale_from, max(1, lo) +
D)`` on and walks from D rounds earlier; it then sets ``stale_from`` to
the current round.  A decided process scans no more, so its decision is
written once.  c1 tests slot m-D alone, in the core step itself, as the
walk tests each slot.  :func:`blocker` walks every retained round and
changes nothing.

The scan is gated by the true graphs.  Call round r long when some
root of the round-r graph has a run that began at least D rounds before
r; the engine enters the latest long round before the current one as
``tables.last_long``.  A c2 hit at round b' is a single confirmed root R
of rounds b'-D..b', and a confirmed root is a root of the true round graph
(the lemma in ``approximation``), so R's true run through b' began by
b'-D: every hit lies on a long round.  So an undecided step whose
``last_long`` is before the first round c2 could hit cannot decide: it
skips the scan and leaves ``stale_from`` where it is.  A later scan
recomputes the skipped rounds from the then-current slots, so it finds
the first hit that scanning in every step would have found.

b1 and b3 take the maximum lock at the start of the surrounding common-root
run of a confirmed root R.  R lies inside slot ``anchor`` and so, slots
being monotone, inside every earlier retained slot; by the lemma in
``approximation`` it is a root of approx[t] exactly when it is one of the
whole round-t graph.  So the start is a fact of the true round graphs, and
the engine enters it with each round graph in the start table of the run's
``approximation.RunTables``: ``tables.starts[r]`` maps each root of the
round-r graph to the round its run began.  :func:`_run_start` reads it at
round ``anchor-1`` and clamps it at the window's first round.

The answer is the same for every process of a round, and the run's
per-round answer memo holds it: ``tables.answers`` maps ``(anchor, root)``
to ``(a, member bitset, outcome)``, the outcome being the lock-only
``CoreStepOutcome((root, a, value))`` that b1 returns to every process it
answers.  ``RunTables.enter`` empties it every round, so its readers share
``lo``, on which (with the start table) a depends; the value reads the
members' row cells of round a < m, which only their owners wrote and which
are final (the harness's monitor compares the row table every round).  The
first process to ask in a round computes and enters it; a later one only
checks that it holds every member's round-a state, one mask test of the
bitset against slot a of its ``known``, and otherwise recomputes it, which
raises as it would have.  Only :func:`_answer` touches the memo.
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
    low = max(1, s.tables.lo)
    if anchor <= low:
        return anchor
    return max(s.tables.starts[anchor - 1].get(root, anchor), low)


def _answer(s: NodeState, root: frozenset, anchor: int, what: str) -> CoreStepOutcome:
    """``CoreStepOutcome((root, a, value))``: the run start a through
    ``anchor`` of the confirmed root and its members' maximum lock at a,
    from the run's per-round answer memo, or computed and entered there."""
    tables = s.tables
    entry = tables.answers.get((anchor, root))
    if entry is not None:
        a, bits, out = entry  # bits lies in one slot: the member pids are at most W
        if bits & s.known >> (a - tables.lo) * tables.layout.width == bits:
            return out
    a = _run_start(s, root, anchor)
    values = [s.lock_value(q, a) for q in root]
    if None in values:
        q = min(q for q, v in zip(root, values) if v is None)
        raise InvariantViolationError(
            f"p{s.pid} {what}: lock[{q}][{a}] unknown for detected root {sorted(root)}"
        )
    out = CoreStepOutcome((root, a, max(values)))
    tables.answers[anchor, root] = (a, sum(1 << (q - 1) for q in root), out)
    return out


# The definitional per-round view.  The core step inlines it (:func:`_runs`
# and the test of round m-D in :func:`core_step`);
# ``tests/oracles.reference_c2_check``, the tests and bench/tracer.py read it.
def confirmed_roots(s: NodeState, r: int) -> list:
    """Roots of approx[r] whose members all have a later outgoing edge recorded.

    Roots without that evidence are bookkeeping ghosts of partial knowledge
    (a vertex whose round-r in-edges have not arrived yet), while a root
    *with* evidence is guaranteed to be a root of the true round-r graph.

    The evidence is slot r (empty at the current round and outside the
    retained rounds); at round 0 the one root is the process itself, and
    later ``tables.graphs[r-1].root_bits`` gives the whole round-r graph's
    roots.  The evidence keeps exactly those inside slot r, which by the
    lemma in ``approximation`` are the approximation's roots that are not
    ghosts; no ghost, a vertex outside slot r, could pass it.
    """
    have = evidence(s, r)
    if not have:
        return []
    if not r:
        return [frozenset([s.pid])]
    return [root for root, bits in s.tables.graphs[r - 1].root_bits if bits & have == bits]


def _runs(s: NodeState, a: int, b: int):
    """Yield ``(r, root, start)`` for r in a..b (1 <= a, lo <= a): the
    single confirmed root of round r (None if there is none or several)
    and the round its run of that root began, counted from a (``r + 1``
    for None, an empty run).  Reads slot r of ``known`` in place, one
    shift per round."""
    graphs, lay = s.tables.graphs, s.tables.layout
    width, row = lay.width, lay.row
    known = s.known >> (a - s.tables.lo) * width
    run_root, start = None, a
    for r in range(a, b + 1):
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
        yield r, run_root, start
        known >>= width


def c2_check(s: NodeState, D: int, resume: int = 0) -> Optional[tuple]:
    """Earliest interval of more than D consecutive rounds whose approximations
    are all single-rooted (among confirmed roots) with the same root.

    Returns (root, (a', b')) with the least a' and the least qualifying b'
    (= a' + D): any longer interval is covered by its prefix, and the root's
    members all have an outgoing edge recorded after b', as the paper's
    evidence condition c3 requires.
    Round b' qualifies iff its run began at least D rounds earlier and
    b' >= max(1, lo) + D.  Rounds before ``resume``, and the current one,
    are not candidates; the scan starts D rounds before the first candidate
    (module docstring).  It sets ``stale_from`` to the current round.
    """
    low, m = s.tables.lo or 1, s.tables.m  # low = max(1, lo)
    begin = max(resume, low + D)
    s.stale_from = m
    # a run counted from max(low, begin - D) is D rounds old at begin at the earliest
    for r, root, start in _runs(s, max(low, begin - D), m - 1):
        if r - start >= D:
            return root, (r - D, r)
    return None


def blocker(s: NodeState) -> tuple:
    """Why an undecided process has not decided, from its current state:
    ``("c2", root, (a, b))`` for its longest single-rooted run (the earliest
    of equal length), or ``("c2", None, None)`` when no retained round has a
    single confirmed root.  c2 is the only condition that can block, as c3
    is implied by c2's confirmed roots.  The state is left as it was.
    """
    best, length = ("c2", None, None), 0
    for r, root, start in _runs(s, max(1, s.tables.lo), s.tables.m - 1):
        if r - start + 1 > length:
            best, length = ("c2", root, (start, r)), r - start + 1
    return best


def core_step(s: NodeState, m: int, D: int) -> CoreStepOutcome:
    """Run the round-m computation; returns its outcome.

    Empty for m <= D.  Until the process has decided, c2 is searched
    (:func:`c2_check`) from the first round it could hit, ``max(stale_from,
    max(1, lo) + D)``, whenever the run's latest long round is at or after
    that round (module docstring).  Then c1 tests slot m-D in place, as
    the scan does, and re-proposes the answer of the single confirmed root
    it finds (:func:`_answer`).  A c2 hit decides on the answer at the
    start of its interval (b3).  A step that does not decide returns b1's
    shared outcome, or the shared empty one.
    """
    r0 = m - D
    if r0 <= 0:
        return _NOTHING
    tables, lo, hit = s.tables, s.tables.lo, None
    if s.y is None:
        first = (lo or 1) + D  # the first round c2 could hit: max(stale_from, max(1, lo) + D)
        if first < s.stale_from:
            first = s.stale_from
        if tables.last_long >= first:
            hit = c2_check(s, D, first)
    out = _NOTHING
    if r0 >= lo:
        lay = tables.layout
        have, root = s.known >> (r0 - lo) * lay.width & lay.row, None
        for single, bits in tables.graphs[r0 - 1].root_bits:
            if bits & have == bits:
                if root is not None:
                    root = None
                    break
                root = single
        if root is not None:
            out = _answer(s, root, r0, "b1")
            s.propose(out.locked[2])
    if hit is None:
        return out
    root, (a, _) = hit
    decided = _answer(s, root, a, "b3").locked
    s.y = decided[2]
    return CoreStepOutcome(out.locked, decided)
