"""Message-adversary checkers and generators over lasso-encoded graph sequences.

The checkers decide membership of an (infinite) graph sequence in the
stabilizing adversary classes used by the consensus machinery:

* ``liveness``  -- some root set R is a permanent common root from round
  ``r_gst`` on and the unique ("single") root from round ``r_sr`` on.
* ``safety(x)`` -- any root staying common for more than x consecutive
  rounds must already be that permanent, eventually-single root.
* ``estable``   -- safety(D) and liveness plus a dynamic diameter of D.
* ``alt_*``     -- the relaxed variants built around a common-root interval
  with an embedded (x+1)-round single phase plus D later re-appearances.
* ``mad(x, y)`` -- alt_safety(x) and alt_liveness with phase parameter y.
* ``vsrc``      -- a window of rounds with an identical root-component set.

Each class is a conjunction of these conditions: :data:`CHECKS` lists the
conditions of every kind and :func:`diagnose` evaluates them in order,
reporting the first that fails with its witness.  :func:`check_liveness` is
the liveness condition itself.  The other ``check_*`` functions are
shorthands for :func:`diagnose`, kept for the kinds the package itself
checks by name (``estable``, ``altestable`` and ``mad``); every other kind
is checked through :func:`diagnose`.

"Forever" clauses are decided exactly on lassos: a per-round root predicate
that holds in every cycle graph holds forever, and every distinct finite run
pattern appears within prefix + two cycle unrollings.

Generators are construct-then-validate: they build a candidate respecting a
planted certificate, run the full checker, and retry with perturbed
randomness (bounded attempts) on rejection.  Same params + seed yields a
byte-identical lasso.

Draws: each attempt seeds its own ``random.Random`` from a string.  Across
Python versions, Python guarantees only seeding and ``random()``; it does
not guarantee how ``choice``, ``randint`` or ``shuffle`` draw.  The graph
builders and the root-family sampler, which make most of the draws, take
their indices straight from ``getrandbits`` (:func:`_below`, inlined in the
per-vertex loops) by the rejection rule CPython 3.10-3.12 uses for those
methods: they make exactly the draws the methods make there.  The few other
draws (root size and members, companions, gaps) still call the methods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from .graphs import (
    MAX_PROCESSES,
    CommGraph,
    LassoSequence,
    Run,
    check_dynamic_diameter,
    lasting,
    lazy,
    mask_layout,
    maximal_root_runs,
    root_components,
    single_rooted_rounds,
)


class AdversaryError(Exception):
    pass


class InfeasibleParamsError(AdversaryError):
    """The requested parameters admit no valid graph sequence."""


class GenerationRetryError(AdversaryError):
    """Construct-then-validate exhausted its retry budget."""


MAX_GENERATION_ATTEMPTS = 64
# The largest horizon a check or a run accepts.  The checkers' scans grow
# faster than the horizon: altestable and mad take about 1.5 s here.
MAX_HORIZON = 100_000


@dataclass(frozen=True)
class AdversaryCertificate:
    """Witness that a lasso satisfies an adversary class.

    ``r_gst`` is the round from which ``root`` stays a common root of the
    certified interval structure; ``r_sr >= r_gst`` is the round it becomes
    the single root.  ``reappearances`` lists the D guaranteed later
    single-rooted rounds for the alt-style classes (the last one is the
    termination deadline).
    """

    kind: str
    r_gst: int
    r_sr: int
    root: frozenset
    reappearances: Optional[tuple] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.r_sr < self.r_gst:
            raise ValueError("certificate needs r_sr >= r_gst")
        if self.reappearances is not None:
            rs = self.reappearances
            if list(rs) != sorted(set(rs)):
                raise ValueError("reappearance rounds must be strictly increasing")
            # re-appearances must fall strictly after the single phase ends
            phase = {"alt_liveness": "x", "mad": "y"}.get(self.kind, "D")
            x = self.params.get(phase)
            if rs and x is not None and rs[0] <= self.r_sr + x:
                raise ValueError(
                    f"first reappearance {rs[0]} must follow the single phase ending at "
                    f"{self.r_sr + x}"
                )

    @property
    def deadline(self) -> int:
        """Round by which every process must have decided under this certificate."""
        if self.reappearances:
            return self.reappearances[-1]
        return self.r_sr + 2 * self.params["D"]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "r_gst": self.r_gst,
            "r_sr": self.r_sr,
            "root": sorted(self.root),
            "reappearances": list(self.reappearances) if self.reappearances else None,
            "params": dict(sorted(self.params.items())),
        }


@dataclass(frozen=True)
class SafetyWitness:
    """A root common for too many consecutive rounds without being the permanent one."""

    root: frozenset
    start: int
    end: Optional[int]  # None means the run extends forever

    def to_json_dict(self) -> dict:
        return {"root": sorted(self.root), "start": self.start, "end": self.end}


@dataclass(frozen=True)
class VsrcResult:
    ok: bool
    window_start: Optional[int] = None
    reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "window_start": self.window_start, "reason": self.reason}


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`diagnose`.

    When ``ok``, ``certificate`` is what the kind issues: an
    :class:`AdversaryCertificate`, a :class:`VsrcResult`, or ``None`` for the
    kinds that only refute.  Otherwise ``failed`` names the first condition
    that does not hold and ``witness`` is its witness (``None`` for the
    liveness conditions, which have none).
    """

    ok: bool
    certificate: object = None
    failed: Optional[str] = None
    witness: object = None


def _scan_bound(l: LassoSequence, horizon: Optional[int] = None, extra: int = 0) -> int:
    base = len(l.prefix) + 2 * len(l.cycle) + 1 + extra
    return max(base, horizon or 0)


def check_liveness(l: LassoSequence) -> Optional[AdversaryCertificate]:
    """Find the permanent, eventually-single common root of the sequence.

    Returns a certificate with the least ``r_gst`` such that some R is a
    maximal common root of all rounds from ``r_gst`` on and the single root
    of all rounds from some ``r_sr >= r_gst`` on; ``None`` if no root ever
    stabilizes that way.  Read from the lasso's root table: R must be the
    single root of every cycle round.
    """
    positions, single = l.root_table
    probe = len(l.prefix) + len(l.cycle)
    cycle = (1 << probe) - (1 << len(l.prefix))  # the cycle's rounds
    if single & cycle != cycle:
        return None
    (root,) = root_components(l.cycle[-1])
    rounds = positions[root]
    if rounds & cycle != cycle:
        return None
    # r_sr follows the last round where root is not the single root, r_gst
    # the last round before r_sr where it is not a root
    r_sr = (((1 << probe) - 1) & ~(rounds & single)).bit_length() + 1
    r_gst = (((1 << (r_sr - 1)) - 1) & ~rounds).bit_length() + 1
    return AdversaryCertificate("liveness", r_gst, r_sr, root)


def _embedded_single_phase(l: LassoSequence, run: Run, x: int, scan_to: int) -> Optional[int]:
    """The earliest start of x+1 consecutive rounds inside the run where the
    run's root is the single root, read from the lasso's root table."""
    end = scan_to if run.end is None else min(run.end, scan_to + x + 1)
    positions, single = l.root_table
    alone = l.unroller(end)(positions.get(run.root, 0) & single) >> (run.start - 1)
    starts = lasting(alone, x + 1)  # bit i: rounds run.start + i .. run.start + i + x
    if not starts:
        return None
    return run.start + (starts & -starts).bit_length() - 1


# --- the checker table ------------------------------------------------------


class _Case:
    """One verdict's lasso and validated parameters; liveness, and the root
    runs up to each scan bound of each least length, are computed at most
    once."""

    def __init__(self, l: LassoSequence, params: dict):
        self.l = l
        self.params = params
        self.horizon = params["horizon"]  # as given: the safety scans bound their runs by it
        self.resolved_horizon = self.horizon or l.default_horizon()
        self._runs = {}  # (scan bound, least length) -> maximal_root_runs(l, bound, least)

    @lazy
    def live(self) -> Optional[AdversaryCertificate]:
        return check_liveness(self.l)

    def runs(self, scan_to: int, least: int) -> list:
        runs = self._runs.get((scan_to, least))
        if runs is None:
            runs = self._runs[scan_to, least] = maximal_root_runs(self.l, scan_to, least)
        return runs


# A condition maps (case, value of the parameter it is applied to) to
# (holds, result); the result is a certificate for the liveness conditions
# and vsrc, otherwise a witness (None when the condition holds).


def _liveness(c: _Case, _) -> tuple:
    return c.live is not None, c.live


def _safety(c: _Case, x: int) -> tuple:
    """A root common for more than x consecutive rounds anywhere (scanning to
    the horizon and across the cycle) must be the liveness root's final,
    infinite run.  The witness is the earliest offending run."""
    for run in c.runs(_scan_bound(c.l, c.horizon), x + 1):
        is_final_run = (
            run.end is None
            and c.live is not None
            and run.root == c.live.root
            and run.start == c.live.r_gst
        )
        if not is_final_run:
            return False, SafetyWitness(run.root, run.start, run.end)
    return True, None


def _alt_safety(c: _Case, x: int) -> tuple:
    """The earliest common-root run of x+1 or more rounds must embed an
    (x+1)-round single phase; later long runs are unconstrained.  When
    several such runs tie for the earliest start, every one of them must
    embed the single phase.  The witness is the first that does not."""
    scan_to = _scan_bound(c.l, c.horizon, extra=x + 1)
    long_runs = c.runs(scan_to, x + 1)
    if long_runs:
        earliest = min(run.start for run in long_runs)
        for run in long_runs:
            if run.start == earliest and _embedded_single_phase(c.l, run, x, scan_to) is None:
                return False, SafetyWitness(run.root, run.start, run.end)
    return True, None


def _alt_liveness(c: _Case, x: int) -> tuple:
    """A common-root run with an embedded (x+1)-round single phase, starting
    at ``r_sr``, plus D re-appearances: single-rooted rounds strictly after
    ``r_sr + x``, at least D of them by the horizon.  Among all qualifying
    runs, the lexicographically least ``(r_gst, r_sr, root)`` is certified."""
    l, D, horizon = c.l, c.params["D"], c.resolved_horizon
    scan_to = _scan_bound(l, horizon, extra=x + 1)
    singles = single_rooted_rounds(l, scan_to)
    best = None
    for run in c.runs(scan_to, x + 1):
        alpha_prime = _embedded_single_phase(l, run, x, scan_to)
        if alpha_prime is None:
            continue
        reapp = [r for r in singles.get(run.root, []) if alpha_prime + x < r <= horizon]
        if len(reapp) < D:
            continue
        key = (run.start, alpha_prime, sorted(run.root))
        if best is None or key < best[0]:
            cert = AdversaryCertificate(
                "alt_liveness",
                run.start,
                alpha_prime,
                run.root,
                reappearances=tuple(reapp[:D]),
                params={"D": D, "x": x},
            )
            best = (key, cert)
    return best is not None, best[1] if best else None


def _dynamic_diameter(c: _Case, _) -> tuple:
    witness = check_dynamic_diameter(c.l, c.params["D"], c.resolved_horizon)
    return witness is None, witness


def _vsrc(c: _Case, window: int) -> tuple:
    """``window`` consecutive rounds with an identical root-component set,
    under a dynamic diameter of D."""
    l, D = c.l, c.params["D"]
    diam = check_dynamic_diameter(l, D, c.resolved_horizon)
    if diam is not None:
        return False, VsrcResult(False, reason=f"dynamic diameter {D} violated: {diam.describe()}")
    # window starts repeat with the cycle beyond the prefix
    for start in range(1, len(l.prefix) + len(l.cycle) + 1):
        sets = root_components(l.graph(start))
        if all(root_components(l.graph(r)) == sets for r in range(start + 1, start + window)):
            return True, VsrcResult(True, window_start=start)
    return False, VsrcResult(False, reason=f"no {window}-round window with a stable root-component set")


# name -> (condition, least value of the parameter it is applied to)
_CONDITIONS = {
    "liveness": (_liveness, None),
    "safety": (_safety, 1),
    "alt_safety": (_alt_safety, 0),
    "alt_liveness": (_alt_liveness, 0),
    "dynamic_diameter": (_dynamic_diameter, None),
    "vsrc": (_vsrc, 1),
}


class Check(NamedTuple):
    params: tuple  # parameters the kind reads; a certificate records them
    conditions: tuple  # (condition, parameter it is applied to), in evaluation order
    certificate: Optional[str] = None  # AdversaryCertificate kind issued when all hold


CHECKS = {
    "estable": Check(
        ("D",), (("liveness", None), ("safety", "D"), ("dynamic_diameter", None)), "estable"
    ),
    "altestable": Check(
        ("D",),
        (("alt_safety", "D"), ("alt_liveness", "D"), ("dynamic_diameter", None)),
        "alt_estable",
    ),
    "liveness": Check((), (("liveness", None),), "liveness"),
    "safety": Check(("x",), (("safety", "x"),)),
    "altliveness": Check(("D", "x"), (("alt_liveness", "x"),), "alt_liveness"),
    "altsafety": Check(("x",), (("alt_safety", "x"),)),
    "mad": Check(
        ("D", "x", "y"),
        (("alt_safety", "x"), ("alt_liveness", "y"), ("dynamic_diameter", None)),
        "mad",
    ),
    "vsrc": Check(("D", "window"), (("vsrc", "window"),)),
    "diameter": Check(("D",), (("dynamic_diameter", None),)),
}


def _validated(kind: str, check: Check, l: LassoSequence, params: dict) -> dict:
    D = params.get("D")
    defaults = {"x": D, "y": D, "window": None if D is None else 4 * D}
    p = {"horizon": params.get("horizon")}
    for name in check.params:
        p[name] = params[name] if params.get(name) is not None else defaults.get(name)
        if p[name] is None:
            raise ValueError(f"{kind} check needs parameter {name}")
    if "D" in p and not 1 <= p["D"] <= l.n - 1:
        raise ValueError(f"D must satisfy 1 <= D <= n-1, got D={p['D']}, n={l.n}")
    for name, param in check.conditions:
        least = _CONDITIONS[name][1]
        if param is not None and p[param] < least:
            raise ValueError(f"{name} parameter {param} must be >= {least}, got {p[param]}")
    if p["horizon"] is not None and not 1 <= p["horizon"] <= MAX_HORIZON:
        raise ValueError(f"horizon must be in 1..{MAX_HORIZON}, got {p['horizon']}")
    return p


def diagnose(kind: str, l: LassoSequence, params: dict) -> Verdict:
    """Decide whether ``l`` belongs to the adversary class ``kind``, a key of :data:`CHECKS`.

    ``params`` holds the kind's parameters ``D``, ``x``, ``y``, ``window``
    and an optional scan ``horizon``; a missing or ``None`` ``x`` or ``y``
    defaults to ``D`` and ``window`` to ``4 * D``.  All of them are validated
    before any condition runs (:class:`ValueError`).  The conditions then run
    in table order and the first that fails decides the verdict.
    """
    check = CHECKS.get(kind)
    if check is None:
        raise ValueError(f"unknown adversary kind {kind!r}")
    c = _Case(l, _validated(kind, check, l, params))
    certificate = None
    for name, param in check.conditions:
        holds, result = _CONDITIONS[name][0](c, c.params.get(param))
        if not holds:
            return Verdict(False, failed=name, witness=result)
        if result is not None:
            certificate = result
    if check.certificate is not None:
        certificate = replace(
            certificate,
            kind=check.certificate,
            params={name: c.params[name] for name in check.params},
        )
    return Verdict(True, certificate=certificate)


def check_estable(l: LassoSequence, D: int, horizon: Optional[int] = None) -> Optional[AdversaryCertificate]:
    """Conjunction of liveness, safety(D) and dynamic diameter D."""
    return diagnose("estable", l, {"D": D, "horizon": horizon}).certificate


def check_alt_estable(
    l: LassoSequence, D: int, horizon: Optional[int] = None
) -> Optional[AdversaryCertificate]:
    """Conjunction of alt_safety(D), alt_liveness(D, x=D) and dynamic diameter D."""
    return diagnose("altestable", l, {"D": D, "horizon": horizon}).certificate


def check_mad(
    l: LassoSequence, x: int, y: int, D: int, horizon: Optional[int] = None
) -> Optional[AdversaryCertificate]:
    """alt_safety(x) and alt_liveness with phase parameter y, under dynamic diameter D.

    The checker certifies any such sequence regardless of whether consensus
    is solvable for the given (x, y).
    """
    return diagnose("mad", l, {"D": D, "x": x, "y": y, "horizon": horizon}).certificate


# --- generators -------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryParams:
    """Seeded generator parameters; the seed fully determines the output."""

    n: int
    D: int
    seed: int = 0
    r_gst_target: Optional[int] = None
    r_sr_target: Optional[int] = None

    def validated(self) -> "AdversaryParams":
        if not (2 <= self.n <= MAX_PROCESSES):
            raise InfeasibleParamsError(f"n must satisfy 2 <= n <= {MAX_PROCESSES}, got n={self.n}")
        if not (1 <= self.D <= self.n - 1):
            raise InfeasibleParamsError(f"D must satisfy 1 <= D <= n-1, got D={self.D}, n={self.n}")
        g, s = self.r_gst_target, self.r_sr_target
        if g is not None and g < 1:
            raise InfeasibleParamsError("r_gst_target must be >= 1")
        if g is not None and s is not None and s < g:
            raise InfeasibleParamsError("need r_sr_target >= r_gst_target")
        return self


def _complete(members: list, width: int, row: int) -> int:
    """The edges from every one of ``members`` to the vertex bitset ``row``."""
    mask = 0
    for u in members:
        mask |= row << (u - 1) * width
    return mask


def _below(rng: random.Random, n: int) -> int:
    """A draw from ``range(n)`` taken as ``random.Random`` takes the index of
    ``choice``, ``randint`` and ``shuffle`` on CPython 3.10-3.12: ``k =
    n.bit_length()`` bits from ``rng.getrandbits``, drawn again while they
    are ``>= n``.  So ``seq[_below(rng, len(seq))]`` is ``rng.choice(seq)``,
    ``a + _below(rng, b - a + 1)`` is ``rng.randint(a, b)``, and both leave
    ``rng`` in the same state."""
    if n <= 0:
        raise IndexError("cannot draw from an empty range")  # getrandbits(0) is 0: the loop would never end
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _single_rooted_graph(rng: random.Random, n: int, root: frozenset, D: int) -> CommGraph:
    # Interior of the root is complete, every outside process has a direct
    # in-edge from the root, and outside processes get no out-edges: any two
    # such graphs in a row spread all root states system-wide, and the
    # approximations never show phantom extra roots during the single phase.
    lay = mask_layout(n)
    width = lay.width
    members = sorted(root)
    rest = [p for p in range(1, n + 1) if p not in root]
    # a single round with D = 1 must already spread every member's state everywhere
    row = (1 << n) - 1 if D == 1 else sum(1 << (q - 1) for q in members)
    mask = lay.loops(n) | _complete(members, width, row)
    # rng.choice(members) per outside process, with _below inlined: the
    # draw's bit count is the same for every process
    if not members:
        raise IndexError("cannot draw from an empty range")
    getrandbits, m = rng.getrandbits, len(members)
    k = m.bit_length()
    for p in rest:
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        mask |= 1 << ((members[i] - 1) * width + p - 1)
    return CommGraph(n, mask)


def _multi_rooted_graph(rng: random.Random, n: int, root_sets: list) -> CommGraph:
    # roots(G) == set(root_sets): each planted set is internally complete with
    # no external in-edges, every leftover vertex hangs off some root member.
    lay = mask_layout(n)
    width = lay.width
    mask = lay.loops(n)
    members_union = []
    for rs in root_sets:
        ms = sorted(rs)
        members_union.extend(ms)
        mask |= _complete(ms, width, sum(1 << (q - 1) for q in ms))
    claimed = set(members_union)
    rest = [p for p in range(1, n + 1) if p not in claimed]
    # rng.choice(members_union) and rng.choice(rest) per leftover vertex,
    # with _below inlined: each draw's bit count is the same for every vertex
    if not members_union:
        raise IndexError("cannot draw from an empty range")
    getrandbits, chance = rng.getrandbits, rng.random
    m, r = len(members_union), len(rest)
    km, kr = m.bit_length(), r.bit_length()
    for p in rest:
        i = getrandbits(km)
        while i >= m:
            i = getrandbits(km)
        mask |= 1 << ((members_union[i] - 1) * width + p - 1)
        if chance() < 0.4:
            j = getrandbits(kr)
            while j >= r:
                j = getrandbits(kr)
            mask |= 1 << ((rest[j] - 1) * width + p - 1)  # rest[j] == p adds p's self-loop, already there
    return CommGraph(n, mask)


def _sample_root_family(
    rng: random.Random, n: int, forbidden: set, min_roots: int
) -> Optional[list]:
    # disjoint root sets, none of which is in `forbidden`.  A family of two or
    # more sets starts with a singleton, so when every singleton is forbidden
    # no family can avoid `forbidden`: give up before drawing.
    if min_roots > 1 and len(forbidden) >= n and all(frozenset([p]) in forbidden for p in range(1, n + 1)):
        return None
    getrandbits = rng.getrandbits
    for _ in range(32):
        pids = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):  # rng.shuffle(pids), with _below(rng, i + 1) inlined
            bits = (i + 1).bit_length()
            pick = getrandbits(bits)
            while pick > i:
                pick = getrandbits(bits)
            pids[i], pids[pick] = pids[pick], pids[i]
        k = min_roots + _below(rng, max(min_roots, min(n, 3)) - min_roots + 1)
        family = []
        i = 0
        for j in range(k):
            remaining = len(pids) - i
            slots_left = k - j
            if remaining < slots_left:
                break
            size = 1 if slots_left > 1 else 1 + _below(rng, min(2, remaining))
            family.append(frozenset(pids[i : i + size]))
            i += size
        if len(family) == k and not any(fs in forbidden for fs in family):
            return family
    return None


def _chaotic_rounds(
    rng: random.Random,
    n: int,
    count: int,
    counts: dict,
    excluded: set,
    D: int,
) -> Optional[list]:
    # `counts` tracks consecutive appearances per root set and is mutated;
    # a set reaching D consecutive rounds is forced to break.
    graphs = []
    min_roots = 2 if n >= 3 else 1
    for _ in range(count):
        forbidden = {rs for rs, c in counts.items() if c >= D} | excluded
        family = _sample_root_family(rng, n, forbidden, min_roots)
        if family is None:
            return None
        graphs.append(_multi_rooted_graph(rng, n, family))
        new_counts = {rs: counts.get(rs, 0) + 1 for rs in family}
        counts.clear()
        counts.update(new_counts)
    return graphs


def _pick_root(rng: random.Random, n: int, max_size: int) -> frozenset:
    size = rng.randint(1, max(1, max_size))
    return frozenset(rng.sample(range(1, n + 1), size))


def _distinct_cycle(rng: random.Random, n: int, root: frozenset, D: int, want: int = 3) -> list:
    graphs = []
    for _ in range(want * 4):
        g = _single_rooted_graph(rng, n, root, D)
        if g not in graphs:
            graphs.append(g)
        if len(graphs) >= want:
            break
    return graphs if len(graphs) >= 2 else graphs[:1]


def _lead_in_max_root(n: int, D: int, lead_in: int) -> int:
    """Largest root size that still admits a ``lead_in``-round common-but-not-single
    lead-in: every round in it needs a companion root outside the root."""
    if lead_in > 0 and n < 3:
        raise InfeasibleParamsError(
            "a 2-process graph cannot hold a common-but-not-single root: r_gst must equal r_sr"
        )
    max_size = n - 1 if lead_in <= D else n - 2
    if max_size < 1:
        raise InfeasibleParamsError(
            f"no root set admits a {lead_in}-round common-but-not-single lead-in with n={n}, D={D}"
        )
    return max_size


def _extend_lead_in(
    rng: random.Random, n: int, root: frozenset, prefix: list, counts: dict, lead_in: int, D: int
) -> bool:
    """Append ``lead_in`` rounds rooted in ``root`` plus one singleton companion
    whose run stays <= D.  False when this attempt cannot place them (or, with
    2 processes, when ``root`` already roots the last chaotic round)."""
    if n == 2 and prefix and root in root_components(prefix[-1]):
        return False
    companions = [frozenset([p]) for p in range(1, n + 1) if p not in root]
    for _ in range(lead_in):
        usable = [c for c in companions if counts.get(c, 0) < D]
        if not usable:
            return False
        comp = rng.choice(usable)
        prefix.append(_multi_rooted_graph(rng, n, [root, comp]))
        counts = {root: counts.get(root, 0) + 1, comp: counts.get(comp, 0) + 1}
    return True


def generate_estable(params: AdversaryParams):
    """Sample a lasso certified by :func:`check_estable` with the requested
    stabilization rounds.

    Pre-stabilization rounds are pseudo-random multi-rooted graphs whose root
    runs never exceed D; from ``r_sr_target`` on, the cycle repeats distinct
    single-rooted graphs.  Raises :class:`InfeasibleParamsError` for
    unsatisfiable parameters and :class:`GenerationRetryError` if validation
    keeps failing.
    """
    params = params.validated()
    n, D = params.n, params.D
    rng0 = random.Random(f"estable:{params.seed}")
    r_sr = params.r_sr_target if params.r_sr_target is not None else rng0.randint(1, 8)
    r_gst = params.r_gst_target if params.r_gst_target is not None else r_sr
    if not (1 <= r_gst <= r_sr):
        raise InfeasibleParamsError(f"need 1 <= r_gst <= r_sr, got ({r_gst}, {r_sr})")
    lead_in = r_sr - r_gst
    max_size = _lead_in_max_root(n, D, lead_in)
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        rng = random.Random(f"estable:{params.seed}:{attempt}")
        root = _pick_root(rng, n, max_size)
        counts: dict = {}
        excluded = {root} if n >= 3 else set()
        prefix = _chaotic_rounds(rng, n, r_gst - 1, counts, excluded, D)
        if prefix is None or not _extend_lead_in(rng, n, root, prefix, counts, lead_in, D):
            continue
        cycle = _distinct_cycle(rng, n, root, D)
        candidate = LassoSequence(tuple(prefix), tuple(cycle))
        cert = check_estable(candidate, D)
        if (
            cert is not None
            and cert.r_gst == r_gst
            and cert.r_sr == r_sr
            and cert.root == root
        ):
            return candidate, cert
    raise GenerationRetryError(
        f"estable generation failed after {MAX_GENERATION_ATTEMPTS} attempts (params={params})"
    )


def generate_alt_estable(
    params: AdversaryParams,
    tail: str = "single",
    gap_range: tuple = (0, 3),
    spurious: Optional[bool] = None,
):
    """Sample a lasso certified by :func:`check_alt_estable`.

    Plants a common root with an embedded (D+1)-round single phase at
    ``r_sr_target``, interleaves multi-rooted gap rounds, and places the D
    guaranteed single-rooted re-appearances.  ``tail`` selects what repeats
    forever after the last re-appearance: ``"single"`` keeps the root single
    forever, ``"sparse"`` repeats isolated re-appearances separated by
    multi-rooted rounds.  ``spurious`` plants an earlier embedded-single
    common root on a different set (decided-upon early by the algorithm but
    distinct from the certified root); by default the seed decides.

    The checker's certificate may be lexicographically earlier than the
    planted one (the earliest embedded-single run wins); callers needing the
    planted deadline should use the returned certificate.
    """
    candidate, planted, _ = _generate_alt_estable(params, tail, gap_range, spurious)
    return candidate, planted


def _generate_alt_estable(
    params: AdversaryParams,
    tail: str = "single",
    gap_range: tuple = (0, 3),
    spurious: Optional[bool] = None,
):
    """:func:`generate_alt_estable`, also returning the certificate that
    ``check_alt_estable(lasso, D, max(lasso.default_horizon(), planted.deadline + 1))``
    issued for the returned lasso."""
    params = params.validated()
    n, D = params.n, params.D
    if tail not in ("single", "sparse"):
        raise ValueError(f"unknown tail style {tail!r}")
    rng0 = random.Random(f"altestable:{params.seed}")
    r_sr = params.r_sr_target if params.r_sr_target is not None else rng0.randint(D + 2, D + 8)
    if params.r_gst_target is not None:
        r_gst = params.r_gst_target
    elif n >= 3:
        r_gst = max(1, r_sr - rng0.randint(0, D))
    else:
        r_gst = r_sr
    if not (1 <= r_gst <= r_sr):
        raise InfeasibleParamsError(f"need 1 <= r_gst <= r_sr, got ({r_gst}, {r_sr})")
    lead_in = r_sr - r_gst
    max_size = _lead_in_max_root(n, D, lead_in)
    if spurious is None:
        spurious = n >= 4 and r_gst > 3 * D + 4 and rng0.random() < 0.5
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        rng = random.Random(f"altestable:{params.seed}:{attempt}")
        root = _pick_root(rng, n, max_size)
        excluded = {root} if n >= 3 else set()
        counts: dict = {}
        prefix: list = []

        spur_cert = None
        chaos_budget = r_gst - 1
        if spurious and chaos_budget >= D + 1 + 2 * (D + 2):
            pre = rng.randint(1, chaos_budget - (D + 1) - (2 * D + 3))
            others = [frozenset([p]) for p in range(1, n + 1) if p not in root]
            spur_root = rng.choice(others)
            head = _chaotic_rounds(rng, n, pre, counts, excluded | {spur_root}, D)
            if head is None:
                continue
            prefix += head
            for _ in range(D + 1):
                prefix.append(_single_rooted_graph(rng, n, spur_root, D))
            spur_cert = (spur_root, pre + 1, pre + D + 1)
            counts = {spur_root: D + 1}
            rest = chaos_budget - len(prefix)
            tail_chaos = _chaotic_rounds(rng, n, rest, counts, excluded | {spur_root}, D)
            if tail_chaos is None:
                continue
            prefix += tail_chaos
        else:
            chaos = _chaotic_rounds(rng, n, chaos_budget, counts, excluded, D)
            if chaos is None:
                continue
            prefix += chaos
        if not _extend_lead_in(rng, n, root, prefix, counts, lead_in, D):
            continue

        for _ in range(D + 1):  # the embedded single phase [r_sr, r_sr + D]
            prefix.append(_single_rooted_graph(rng, n, root, D))
        counts = {root: D + 1}

        reappearances = []
        for _ in range(D):
            gap = rng.randint(*gap_range)
            gap_graphs = _chaotic_rounds(rng, n, gap, counts, excluded, D)
            if gap_graphs is None:
                break
            prefix += gap_graphs
            prefix.append(_single_rooted_graph(rng, n, root, D))
            reappearances.append(len(prefix))
            counts = {root: counts.get(root, 0) + 1} if gap == 0 else {root: 1}
        if len(reappearances) < D:
            continue

        if tail == "single":
            cycle = _distinct_cycle(rng, n, root, D)
        else:
            gap = max(1, rng.randint(*gap_range))
            gap_counts = dict(counts)
            gap_graphs = _chaotic_rounds(rng, n, gap, gap_counts, excluded, D)
            if gap_graphs is None:
                continue
            cycle = gap_graphs + [_single_rooted_graph(rng, n, root, D)]

        candidate = LassoSequence(tuple(prefix), tuple(cycle))
        horizon = max(candidate.default_horizon(), reappearances[-1] + 1)
        cert = check_alt_estable(candidate, D, horizon)
        if cert is None:
            continue
        planted = AdversaryCertificate(
            "alt_estable",
            r_gst,
            r_sr,
            root,
            reappearances=tuple(reappearances),
            params={"D": D, "spurious": sorted(spur_cert[0]) if spur_cert else None},
        )
        if (cert.r_gst, cert.r_sr) > (planted.r_gst, planted.r_sr):
            continue
        return candidate, planted, cert
    raise GenerationRetryError(
        f"alt_estable generation failed after {MAX_GENERATION_ATTEMPTS} attempts (params={params})"
    )
