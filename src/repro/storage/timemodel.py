"""Disk-time model and clock abstractions for the storage substrate.

Two related concerns live here:

* :class:`DiskTimeModel` turns page-miss counts into derived elapsed
  time.  The paper's Figure 8 reports wall-clock elapsed time on a
  2002-era disk and notes that elapsed time "is dominated by the I/O's
  performed, more specifically, the number of page misses".  Our
  substrate is a simulator, so we derive elapsed time from the page
  transfers the buffer pool actually performed plus a CPU charge per
  element scanned.  Absolute values differ from the paper; the *shape*
  of the curves (who wins, by what factor, where they cross) depends
  only on the counted quantities.

* :class:`SystemClock` / :class:`VirtualClock` make *time itself*
  injectable for code that sleeps or schedules — replication
  retry/backoff, cluster health probes and circuit breakers.  Production
  paths run on the system clock (whose :meth:`~SystemClock.sleep` can be
  interrupted through an event, so a promotion never waits out a
  backoff); tests pass a :class:`VirtualClock` and retry schedules run
  in zero wall time while still recording exactly what they would have
  slept.
"""

import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class DiskTimeModel:
    """Latency parameters for the derived elapsed-time metric.

    Defaults approximate a 2002-era commodity IDE disk (the paper's testbed):
    roughly 8 ms per random page read, writes alike, and a small per-element
    CPU cost (stack push/pop plus comparisons).
    """

    read_ms: float = 8.0
    write_ms: float = 8.0
    cpu_us_per_element: float = 2.0

    def elapsed_seconds(self, page_misses, writebacks=0, elements_scanned=0):
        """Derived elapsed time in seconds for one measured run."""
        io_ms = page_misses * self.read_ms + writebacks * self.write_ms
        cpu_ms = elements_scanned * self.cpu_us_per_element / 1000.0
        return (io_ms + cpu_ms) / 1000.0


def backoff_delay(attempt, base, ceiling, jitter, rng):
    """Seconds to wait before retry number ``attempt`` (1-based).

    ``base * 2**(attempt - 1)`` capped at ``ceiling`` (None: uncapped),
    then jittered *downward* by up to ``jitter`` of itself: the cap stays a
    hard ceiling and a fleet hit by one shared fault spreads its retries
    out.  ``rng`` is drawn from only when there is jitter to apply.
    """
    delay = base * (2 ** (attempt - 1))
    if ceiling is not None:
        delay = min(delay, ceiling)
    if jitter:
        delay *= 1.0 - jitter * rng.random()
    return delay


class SystemClock:
    """The real monotonic clock; sleeps are interruptible through an event.

    ``sleep(seconds, interrupt=event)`` returns early — without raising —
    as soon as ``event`` is set, which is how a standby promotion cuts
    short an in-flight retry backoff instead of waiting it out.
    """

    virtual = False

    def now(self):
        return time.monotonic()

    def sleep(self, seconds, interrupt=None):
        if seconds <= 0:
            return
        if interrupt is not None:
            interrupt.wait(seconds)
        else:
            time.sleep(seconds)


class VirtualClock:
    """A deterministic clock for tests: sleeping advances simulated time.

    ``now()`` starts at ``start`` and moves only when :meth:`sleep` or
    :meth:`advance` is called, so retry/backoff schedules run in zero
    wall time.  Every sleep's duration is recorded in :attr:`sleeps` —
    the test-visible trace of the backoff sequence a loop produced.
    Thread-safe (sleepers from several threads interleave atomically).
    """

    virtual = True

    def __init__(self, start=0.0):
        self._now = float(start)
        self._lock = threading.Lock()
        self.sleeps = []

    def now(self):
        with self._lock:
            return self._now

    def sleep(self, seconds, interrupt=None):
        if seconds <= 0:
            return
        if interrupt is not None and interrupt.is_set():
            return
        with self._lock:
            self._now += seconds
            self.sleeps.append(seconds)

    def advance(self, seconds):
        """Move time forward without recording a sleep."""
        with self._lock:
            self._now += seconds
