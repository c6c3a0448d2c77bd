"""Host-normalised timing: unit times corrected for the host's current speed.

On a shared host a fixed piece of Python can run at half or two thirds of
its best speed for minutes at a time, with other tenants' load.  Taking the
best or the median of several passes removes noise of a second or so, but
not a slow phase that lasts a whole run.  So a short fixed probe -- pure
Python of the same kind the simulator runs: bitmask arithmetic, small dicts,
sets and tuples, calls -- is timed between units, and each unit's time is
scaled by ``NOMINAL_PROBE_S / probe time``, with the probe time the mean of
the probes just before and just after the unit.  A normalised second is a
second on a host that runs the probe in ``NOMINAL_PROBE_S``; on such a host
the normalised and the wall-clock figures agree.  The probe never calls the
program, so a change to the program moves the normalised figures as much as
the wall-clock ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_PROBE_S = 0.0026  # the probe's time on a 2.1 GHz Xeon core at its quieter moments
PROBE_GAP_S = 0.25  # units started within this long of the last probe share it
PROBE_REPEATS = 3  # a probe is the median of this many runs of the probe body


def _mix(a: int, b: int) -> int:
    return (a | b) & ~(a & b)


def _probe_body() -> int:
    acc = 0
    masks = {}
    for i in range(800):
        m = (1 << (i % 250)) | (i * 2654435761 & 0xFFFFFFFFFFFF)
        masks[i % 97] = _mix(masks.get(i % 97, 0), m)
        members = {j for j in range(i % 13)}
        acc ^= hash(tuple(sorted(members, reverse=True))) ^ m.bit_length()
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
            if acc & 7 == 0:
                break
    return acc ^ len(masks)


def probe_s() -> float:
    """The probe's time now: the median of ``PROBE_REPEATS`` runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        _probe_body()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Times units and normalises them by the probes taken around them.

    ``time(fn)`` runs ``fn`` once and returns what it returns (or re-raises
    what it raises), probing first when ``PROBE_GAP_S`` has passed since the
    last probe.  ``settle()`` probes once more and returns the wall-clock and
    the normalised seconds of every unit timed since the last ``settle()``,
    as pairs in the order the units ran.
    """

    def __init__(self):
        self._probes = []  # probe seconds, in the order taken
        self._units = []  # (wall seconds, index of the probe before the unit)
        self._last_probe = None

    def _probe(self) -> None:
        self._probes.append(probe_s())
        self._last_probe = perf_counter()

    def time(self, fn):
        if self._last_probe is None or perf_counter() - self._last_probe > PROBE_GAP_S:
            self._probe()
        start = perf_counter()
        try:
            return fn()
        finally:
            self._units.append((perf_counter() - start, len(self._probes) - 1))

    def settle(self) -> list:
        self._probe()
        timings = [
            (wall, wall * NOMINAL_PROBE_S / ((self._probes[i] + self._probes[i + 1]) / 2))
            for wall, i in self._units
        ]
        self._units = []
        self._probes = self._probes[-1:]
        return timings

