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


def c1_check(s: NodeState, m: int, D: int) -> Optional[frozenset]:
    """Exactly one confirmed root of approx[m-D]."""
    r0 = m - D
    if r0 < _core_low(s):
        return None
    confirmed = confirmed_roots(s, r0)
    if len(confirmed) == 1:
        return confirmed[0]
    return None


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
    """
    lo = _core_low(s)
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


def c3_check(s: NodeState, root: frozenset, b_end: int) -> bool:
    """Every member of the root has an outgoing edge recorded after b_end."""
    return all(has_late_outgoing_edge(s, q, b_end) for q in root)


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
