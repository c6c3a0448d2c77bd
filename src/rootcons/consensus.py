"""Round-m core computation: lock the detected root, decide on a stable one.

Executed after the round's merge.  The step is empty for rounds 1..D.  From
round D+1 on:

* c1/b1 -- if the approximation of round m-D shows exactly one root whose
  members all have a later outgoing edge recorded, re-propose: set the own
  round-m lock to the maximum lock value the root's members held at the
  start of its common-root run.
* c2/c3/b3 -- if some root was the single root of more than D consecutive
  approximated rounds, and each member demonstrably sent something after
  that interval, decide (once) on the maximum lock value its members held
  at the start of the surrounding common-root run.

Interval searches range over rounds >= 1; the round-0 entry is an
initialization artifact (every process trivially roots its own singleton
there) and counting it would let an isolated process fabricate a quorum of
its own silence.

Both conditions read one per-round cache on the state: ``runs[r]`` is
``(root, start)``, the single confirmed root of round r (None if there is
none or several) and the round its run of that root began (``r + 1`` for
None).  Whether round r has a single confirmed root depends only on
``masks[r]``, on which members' ``heard`` reach r, and on whether r is
before the current round, so the merge's ``stale_from`` bounds what can
have changed, and only rounds from there on are recomputed.  c2 resumes its
search at ``c2_from``: no retained round before it ends a long enough run.
A start before the window counts from the window's first round, as a full
rescan from there would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .approximation import NodeState, has_late_outgoing_edge


class InvariantViolationError(Exception):
    """An unknown lock value showed up where the protocol guarantees one."""


@dataclass(frozen=True)
class CoreStepOutcome:
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


def _core_low(s: NodeState) -> int:
    return max(1, s.lo)


def _common_run(s: NodeState, root: frozenset, lo_anchor: int, hi_anchor: int) -> tuple:
    """Maximal interval [a, b] with root in roots(approx[r]) everywhere,
    containing [lo_anchor, hi_anchor]."""
    a = lo_anchor
    while a - 1 >= _core_low(s) and root in s.roots_at(a - 1):
        a -= 1
    b = hi_anchor
    while b + 1 <= s.m and root in s.roots_at(b + 1):
        b += 1
    return a, b


def _max_lock(s: NodeState, root: frozenset, a: int, what: str) -> int:
    values = []
    for q in sorted(root):
        v = s.lock_value(q, a)
        if v is None:
            raise InvariantViolationError(
                f"p{s.pid} {what}: lock[{q}][{a}] unknown for detected root {sorted(root)}"
            )
        values.append(v)
    return max(values)


def confirmed_roots(s: NodeState, r: int) -> list:
    """Roots of approx[r] whose members all have a later outgoing edge recorded.

    Roots without that evidence are bookkeeping ghosts of partial knowledge
    (a vertex whose round-r in-edges have not arrived yet), while a root
    *with* evidence is guaranteed to be a root of the true round-r graph.
    """
    return [
        root for root in s.roots_at(r) if all(has_late_outgoing_edge(s, q, r) for q in root)
    ]


def _refresh(s: NodeState, upto: int) -> None:
    """Recompute the ``runs`` entries of rounds ``stale_from..upto``."""
    low = _core_low(s)
    first = max(s.stale_from, low)
    if first > upto:
        return
    runs = s.runs
    s.c2_from = min(s.c2_from, first)
    run_root, start = runs[first - 1] if first > low else (None, first)
    for r in range(first, upto + 1):
        confirmed = confirmed_roots(s, r)
        if len(confirmed) != 1:
            run_root, start = None, r + 1
        elif confirmed[0] != run_root:
            run_root, start = confirmed[0], r
        runs[r] = (run_root, start)
    s.stale_from = upto + 1


def c1_check(s: NodeState, m: int, D: int) -> Optional[frozenset]:
    """Exactly one confirmed root of approx[m-D].

    Read from ``runs`` while c2 still needs the rounds before m-D kept
    current; once decided, only round m-D itself is evaluated.
    """
    r0 = m - D
    if r0 < _core_low(s):
        return None
    if s.y is not None and r0 >= s.stale_from:
        confirmed = confirmed_roots(s, r0)
        return confirmed[0] if len(confirmed) == 1 else None
    _refresh(s, r0)
    return s.runs[r0][0]


def b1_apply(s: NodeState, m: int, root: frozenset, D: int) -> tuple:
    """Re-propose: lock[pid][m] := max lock[q][a] over the root's members,
    where a starts the maximal common-root run around round m-D."""
    a, _ = _common_run(s, root, m - D, m - D)
    value = _max_lock(s, root, a, "b1")
    s.propose(value)
    return a, value


def c2_check(s: NodeState, D: int) -> Optional[tuple]:
    """Earliest interval of more than D consecutive rounds whose approximations
    are all single-rooted (among confirmed roots) with the same root.

    Returns (root, (a', b')) with the least a' and the least qualifying b'
    (= a' + D): later rounds of a longer run only make the c3 evidence
    requirement harder, and any longer interval is covered by its prefix.
    Round b' qualifies iff its run began at least D rounds earlier and
    b' >= max(1, lo) + D, so a longer-ago start needs no clamping.
    """
    _refresh(s, s.m)
    runs = s.runs
    for r in range(max(s.c2_from, _core_low(s) + D), s.m + 1):
        root, start = runs[r]
        if r - start >= D:
            s.c2_from = r
            return root, (r - D, r)
    s.c2_from = s.m + 1
    return None


def c3_check(s: NodeState, root: frozenset, b_end: int) -> bool:
    """Every member of the root has an outgoing edge recorded after b_end."""
    return all(has_late_outgoing_edge(s, q, b_end) for q in root)


def blocker(s: NodeState, D: int) -> tuple:
    """Why an undecided process has not decided, from its current state.

    ``("c3", root, (a', b'), members)`` when c2 holds but the listed root
    members have no outgoing edge recorded after b'; otherwise
    ``("c2", root, (a, b))`` for its longest single-rooted run (the earliest
    of equal length), or ``("c2", None, None)`` when no retained round has a
    single confirmed root.  The round b' of a c2 hit has the root confirmed,
    which is c3's condition, so the c3 case shows only when c2 counts roots
    without that evidence.
    """
    hit = c2_check(s, D)
    if hit is not None:
        root, interval = hit
        missing = tuple(q for q in sorted(root) if not has_late_outgoing_edge(s, q, interval[1]))
        return "c3", root, interval, missing
    low = _core_low(s)
    best, length = ("c2", None, None), 0
    for r in range(low, s.m + 1):
        root, start = s.runs[r]
        a = max(start, low)
        if root is not None and r - a + 1 > length:
            best, length = ("c2", root, (a, r)), r - a + 1
    return best


def b3_apply(s: NodeState, root: frozenset, interval: tuple) -> Optional[tuple]:
    """Decide (write-once) on the maximum member lock at the start of the
    maximal common-root run containing the single-rooted interval."""
    if s.y is not None:
        return None
    a1, b1_ = interval
    a2, _ = _common_run(s, root, a1, b1_)
    value = _max_lock(s, root, a2, "b3")
    s.y = value
    return a2, value


def core_step(s: NodeState, m: int, D: int) -> tuple:
    """Run the round-m computation; returns (state, outcome).

    Empty for m <= D.  c2 is evaluated whether or not c1 fired, until the
    process has decided (b3 is write-once, so later scans cannot change it).
    """
    if m <= D:
        return s, CoreStepOutcome()
    locked = None
    root = c1_check(s, m, D)
    if root is not None:
        a, value = b1_apply(s, m, root, D)
        locked = (root, a, value)
    decided = None
    hit = c2_check(s, D) if s.y is None else None
    if hit is not None:
        root2, interval = hit
        if c3_check(s, root2, interval[1]):
            decided = (root2, *b3_apply(s, root2, interval))
    return s, CoreStepOutcome(locked=locked, decided=decided)
