"""Host-speed probe: puts wall times measured on a drifting host on one scale.

On the shared 2-core host the benchmark was written on, the speed of pure
Python code drifts by up to ~1.7x over stretches of seconds to a minute
(other tenants share the processors; the guest reports no steal time, so
CPU time drifts with wall time).  A run that falls in a slow stretch then
reads up to 1.7x slower although the library did the same work.

:class:`HostSpeed` runs a small fixed CPU probe that is independent of the
library — sorting objects by an attribute, SHA-256 digests into a dict,
modular exponentiation, the mix the library's hot paths are made of —
about every :data:`EVERY_S` seconds between timed steps, outside the
timed calls.  Each sample times the second of two back-to-back probes,
so caches the library just used do not slow the timed one.  A timed
step is then scaled by ``REFERENCE_PROBE_S / p``, where ``p`` is the
lower quartile of the probe times in the step's two-second window: the
result reads as the wall time at the reference host speed.  The
garbage collector is paused while the probe runs so the library's heap
does not leak into it.

The correction is partial: code of different kinds slows by different
factors on a slow stretch (per-window regressions of workload throughput
on probe time gave slopes of 0.6 to 1.0), so a run on a slow stretch
still reads a few per cent off; see NOTES.md for the spreads measured.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: the probe's lower-quartile time on the quiet host (2-core x86-64
#: Xeon VM, Python 3.11); normalised times read as wall time at this speed
REFERENCE_PROBE_S = 0.4e-3
#: seconds between two probes of the timed phase
EVERY_S = 0.1
#: width of the windows the probe statistic is taken over, in seconds
WINDOW_S = 2.0

_MODULUS = (1 << 255) - 19


class _Peer:
    __slots__ = ("ident", "name")

    def __init__(self, ident: int, name: str) -> None:
        self.ident = ident
        self.name = name


_PEERS = [_Peer((i * 2654435761) % (1 << 32), f"peer{i}")
          for i in range(512)]


def probe_once() -> None:
    """The fixed probe workload (about 0.4 ms on the quiet reference host)."""
    ordered = sorted(_PEERS, key=lambda peer: peer.ident)
    table = {}
    for peer in ordered[:200]:
        table[hashlib.sha256(peer.name.encode()).hexdigest()[:12]] = peer
    acc = 7
    for _ in range(4):
        acc = pow(acc, 0xFFFFFFFFFFFFFFFFFFFFFFFF, _MODULUS)
    sum(1 for key in list(table)[:100] if key in table)


class HostSpeed:
    """Probe samples over a run and the speed factors derived from them."""

    def __init__(self, probe: Callable[[], None] = probe_once,
                 reference_s: float = REFERENCE_PROBE_S,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.probe = probe
        self.reference_s = reference_s
        self.clock = clock
        #: (start, seconds) of every probe
        self.samples: List[Tuple[float, float]] = []
        self.last = float("-inf")

    def sample(self, count: int = 1) -> List[float]:
        """Run the probe ``count`` times; returns their durations."""
        durations = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                self.probe()   # warms the caches the library just used
                started = self.clock()
                self.probe()
                durations.append(self.clock() - started)
                self.samples.append((started, durations[-1]))
        finally:
            if enabled:
                gc.enable()
        self.last = self.samples[-1][0]
        return durations

    def maybe_sample(self) -> None:
        """Probe when :data:`EVERY_S` has passed since the last probe."""
        if self.clock() - self.last >= EVERY_S:
            self.sample()

    def factor_of(self, durations: Sequence[float]) -> float:
        """Scale factor to reference speed from a group of probe times.

        Interference only ever slows a probe, so the group's lower
        quartile is its steadiest reading of the host's speed.
        """
        if len(durations) < 4:
            return self.reference_s / min(durations)
        return self.reference_s / statistics.quantiles(durations, n=4)[0]

    def window_factors(self) -> Callable[[float], float]:
        """``start time -> factor`` of the probe window holding it.

        A window without probes borrows the nearest window that has some.
        """
        groups: Dict[int, List[float]] = defaultdict(list)
        for started, seconds in self.samples:
            groups[int(started // WINDOW_S)].append(seconds)
        factors = {key: self.factor_of(values)
                   for key, values in groups.items()}
        keys = sorted(factors)

        def factor(started: float) -> float:
            key = int(started // WINDOW_S)
            if key not in factors:
                key = min(keys, key=lambda k: abs(k - key))
            return factors[key]
        return factor

    def median_probe_s(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)


class SegmentTimer:
    """Wall time of a phase the probe interrupts, with the probes cut out.

    The phase calls :meth:`tick` between library calls; a tick that
    probes closes the current segment first.  :meth:`scaled` puts each
    segment at the reference speed of its probe window.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        #: (start, seconds) of every segment
        self.segments: List[Tuple[float, float]] = []
        self._start = speed.clock()

    def tick(self) -> None:
        now = self.speed.clock()
        if now - self.speed.last >= EVERY_S:
            self.segments.append((self._start, now - self._start))
            self.speed.sample()
            self._start = self.speed.clock()

    def stop(self) -> None:
        self.segments.append((self._start, self.speed.clock() - self._start))

    def raw(self) -> float:
        return sum(seconds for _, seconds in self.segments)

    def scaled(self, factor_at: Callable[[float], float]) -> float:
        return sum(seconds * factor_at(start)
                   for start, seconds in self.segments)
