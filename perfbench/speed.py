"""Host speed reference: scales end-to-end timings to a fixed CPU speed.

On a shared host the same code runs at different speeds from one minute to
the next: neighbours share the cores' caches and clock, so a fixed loop of
hashing took 3.4 ms in some seconds and 5.5 ms in others on a 2-vCPU VM,
and whole benchmark runs of one workload differed by 20-30% in round time.
That drift swamps the changes the benchmark exists to measure.

A :class:`SpeedReference` times a fixed unit of reference work (hashing,
dictionary lookups, byte joins: the kinds of work a proxy round does) in
short bursts through a run: every few closed-loop rounds, and in pauses
between the segments of every other phase.
``factor_over(start, end)`` is ``REF_UNIT_S`` divided by the median time
of the units timed in and around that interval.  Each set-up, closed-loop
round and ``sat`` segment time is multiplied by the factor over it; of a
request latency, only the part spent on CPU work is (see
:mod:`perfbench.metrics`).  The numbers then read as on a
host where one unit takes exactly ``REF_UNIT_S``.  A change to the
program moves them; a change in host speed moves the unit time too and
cancels out.  The run also prints them unscaled, and its median unit
time.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import statistics
import time

__all__ = ["REF_UNIT_S", "SpeedReference"]

#: The unit time the scaled timings assume: close to the median unit time
#: on an unloaded 2-vCPU Xeon VM, so scaled and raw numbers read alike.
REF_UNIT_S = 0.00065

#: The work of one unit: a chain of sha256 over 32 bytes, then lookups of
#: random keys of a table, then one blake2b over the values found.
_TABLE_SIZE = 4096
_LOOKUPS = 1600
_HASHES = 800
#: Units whose median gives the factor for an instant.
NEAREST = 12


class SpeedReference:
    """Times units of fixed reference work; gives the speed factor."""

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(f"perfbench-speed-{seed}")
        self._table = {f"ref-{i}": i.to_bytes(8, "big") * 4
                       for i in range(_TABLE_SIZE)}
        self._probes = [f"ref-{rng.randrange(_TABLE_SIZE)}"
                        for _ in range(_LOOKUPS)]
        #: ``(start, seconds)`` of every unit timed.
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []

    def _unit(self) -> float:
        table = self._table
        start = time.perf_counter()
        digest = b"\x00" * 32
        for _ in range(_HASHES):
            digest = hashlib.sha256(digest).digest()
        found = [table[key] for key in self._probes]
        joined = b"".join(found)
        hashlib.blake2b(joined + digest, digest_size=16).digest()
        return time.perf_counter() - start

    def burst(self, units: int) -> None:
        """Time ``units`` units of reference work, after an untimed one.

        The untimed unit brings the interpreter's and the table's memory
        back into the caches, whatever ran before; a unit timed cold just
        after a round took up to twice as long as one timed warm.
        """
        self._unit()
        for _ in range(units):
            start = time.perf_counter()
            self.samples.append((start, self._unit()))

    def factor_over(self, start: float, end: float) -> float:
        """The factor for work done from ``start`` to ``end``.

        It comes from the units timed in that interval and the
        ``NEAREST // 2`` timed on either side of it.
        """
        if len(self._starts) != len(self.samples):
            self._starts = [begin for begin, _ in self.samples]
        first = max(bisect.bisect_left(self._starts, start) - NEAREST // 2, 0)
        last = bisect.bisect_right(self._starts, end) + NEAREST // 2
        return REF_UNIT_S / statistics.median(
            seconds for _, seconds in self.samples[first:last])

    def scale(self, timed: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, seconds)`` as seconds at reference speed."""
        return [seconds * self.factor_over(start, start + seconds)
                for start, seconds in timed]

    @property
    def unit_s(self) -> float:
        """Median unit time of the run so far."""
        return statistics.median(seconds for _, seconds in self.samples)
