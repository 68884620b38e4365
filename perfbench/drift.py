"""Machine-speed reference used to normalise latencies for speed drift.

The shared CPU this benchmark was tuned on runs the same Python work up to
~2x faster or slower from one second to the next (neighbouring load on the
cores).  A fixed, benchmark-owned pure-Python loop measures that speed:

* just before and just after every timed window (``Window.__enter__`` and
  ``__exit__``), as a long loop whose median is reported as ``bench.ref_s``;
* inside the window, as a short probe run from a ``SIGALRM`` handler every
  ``PROBE_INTERVAL_S`` (about 1% of the window's time).  The before/after
  loops alone track speed changes inside a 5-s request poorly (per-request
  spread 14%); the probes see the whole window (spread 2%).

A window's latency is reported as ``seconds * speed / NOMINAL_SPEED``: the
seconds it would have taken at the nominal reference speed.  ``speed`` is
the mean over the window's accepted probes, or over its before/after loops
when no probe was accepted.

A sample is rejected when another thread of this process or a pool worker
used CPU since the previous sample (or during a before/after loop):
background work slows the loop, which would make the program look faster.
The share of a window whose probes were rejected is therefore not sampled
by the window itself; it is counted at the run's mean probe speed so far
(a harmonic blend with the window's own speed).  On service requests, where
pool workers run about 75% of a ``new`` request, the parent-side probes
explain only part of the request time (within-run regression slope 0.42 for
``new``, 0.73 for ``hit``), so applying them to the whole window over-corrects:
on the machine above, the spread of ``gen_p50_s`` over ten service runs fell
from 13% to 7% with the blend.
"""

from __future__ import annotations

import signal
import statistics
import time

#: reference-loop trips per second on the machine the bounds in
#: BENCHMARK.json were set on (2-core shared Intel Xeon VM, Python 3.11);
#: normalised latencies are seconds of that machine at this speed
NOMINAL_SPEED = 4.0e6

#: trips of the before/after loop (~15 ms at nominal speed)
REF_TRIPS = 60_000

#: trips of one in-window probe (~0.5 ms at nominal speed)
PROBE_TRIPS = 2_000

PROBE_INTERVAL_S = 0.05

#: CPU another thread may use between samples before one is rejected (s)
_OTHER_THREAD_TOLERANCE_S = 0.001

_MAX_ATTEMPTS = 8


def _reference_work(trips: int) -> int:
    """Fixed interpreter-bound work: dict, tuple, list and call traffic."""
    table: dict[int, int] = {}
    items: list[tuple[int, int]] = []
    acc = 0
    for i in range(trips):
        key = i % 97
        table[key] = table.get(key, 0) + (i ^ key)
        items.append((key, i))
        if len(items) > 64:
            acc += sum(value for _, value in items[:8])
            del items[:32]
    return acc + len(table)


def _cpu_ticks(pids) -> int:
    """utime + stime clock ticks of ``pids`` (pids that are gone count 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total


class _Quiet:
    """Whether anything but this thread used CPU since :meth:`mark`.

    A worker started or replaced since the mark also counts as activity.
    """

    def __init__(self, worker_pids) -> None:
        self.worker_pids = worker_pids
        self.mark()

    def mark(self) -> None:
        self.pids = tuple(self.worker_pids())
        self.ticks = _cpu_ticks(self.pids)
        self.process = time.process_time()
        self.thread = time.thread_time()

    def holds(self) -> bool:
        other = (time.process_time() - self.process) - (time.thread_time() - self.thread)
        return (
            other <= _OTHER_THREAD_TOLERANCE_S
            and tuple(self.worker_pids()) == self.pids
            and _cpu_ticks(self.pids) == self.ticks
        )


class Reference:
    """Speed samples for a run; :meth:`window` brackets one timed region.

    ``worker_pids`` returns the pids of helper processes (pool workers)
    whose CPU use invalidates a sample.
    """

    def __init__(self, worker_pids=lambda: ()) -> None:
        self.worker_pids = worker_pids
        #: accepted before/after loop times (``bench.ref_s`` is their median)
        self.loops: list[float] = []
        self.rejected = 0
        #: sum and count of accepted probe speeds, for :meth:`speed`
        self._probe_speed_sum = 0.0
        self._probe_count = 0

    def loop(self) -> float:
        """One before/after loop time, re-measured while the guard fails."""
        elapsed = 0.0
        for _ in range(_MAX_ATTEMPTS):
            quiet = _Quiet(self.worker_pids)
            start = time.perf_counter()
            _reference_work(REF_TRIPS)
            elapsed = time.perf_counter() - start
            if quiet.holds():
                break
            self.rejected += 1
        self.loops.append(elapsed)
        return elapsed

    def median(self) -> float:
        return statistics.median(self.loops) if self.loops else 0.0

    def add_probe(self, elapsed: float) -> None:
        self._probe_speed_sum += PROBE_TRIPS / elapsed
        self._probe_count += 1

    def speed(self) -> float | None:
        """Mean speed over the run's accepted probes so far (None: none yet)."""
        return self._probe_speed_sum / self._probe_count if self._probe_count else None

    def window(self) -> "Window":
        return Window(self)


class Window:
    """Context manager: ``with ref.window() as w: ...; w.normalise(seconds)``."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.probes: list[float] = []
        #: probes rejected while the window was open
        self.unsampled = 0
        self.ends: list[float] = []
        self._quiet: _Quiet | None = None
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_work(PROBE_TRIPS)
        elapsed = time.perf_counter() - start
        if self._quiet.holds():
            self.probes.append(elapsed)
            self.reference.add_probe(elapsed)
        else:
            self.unsampled += 1
            self.reference.rejected += 1
        self._quiet.mark()

    def __enter__(self) -> "Window":
        self.ends.append(self.reference.loop())
        self._quiet = _Quiet(self.reference.worker_pids)
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.ends.append(self.reference.loop())
        return False

    def speed(self) -> float:
        """Reference-loop trips per second over the window.

        The rejected probes' share of the window runs at the run's speed.
        """
        if self.probes:
            own = statistics.fmean(PROBE_TRIPS / p for p in self.probes)
        else:
            own = statistics.fmean(REF_TRIPS / e for e in self.ends)
        background = self.reference.speed()
        if not self.unsampled or background is None:
            return own
        share = self.unsampled / (len(self.probes) + self.unsampled)
        return 1.0 / ((1.0 - share) / own + share / background)

    def normalise(self, seconds: float) -> float:
        """``seconds`` at nominal machine speed."""
        return seconds * self.speed() / NOMINAL_SPEED
