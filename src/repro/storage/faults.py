"""Fault injection for the storage substrate: crashes, torn writes, bit rot.

:class:`FaultInjectingDisk` wraps any :class:`~repro.storage.disk.\
SimulatedDisk` and exposes the same page interface while letting tests

* **kill a run** at the N-th logical read / write / allocate, or — when a
  :class:`~repro.storage.disk.FileDisk` is wrapped — at the N-th *physical*
  page write (segment records, applies, superblock writes, in-place
  writes), which is where crash atomicity is actually decided;
* **tear the fatal write**: persist only a prefix of the page image before
  the kill, modelling a sector-level partial write;
* **flip bits** in persisted pages through the unaccounted ``peek``/``poke``
  hooks, modelling silent media corruption;
* **fail transiently**: ``fail_next(n, op)`` arms the wrapper to raise a
  retryable :class:`~repro.storage.errors.TransientIOError` for the next
  ``n`` operations of kind ``op`` and then succeed — the deterministic
  test surface for retry/backoff paths (replication apply, scrubber
  retries).  A transient failure does *not* kill the wrapper;
* **run out of space**: ``fail_with_disk_full(n, op)`` injects
  errno-accurate ``OSError(ENOSPC)`` for the next ``n`` operations
  (single-shot), while ``fill_disk()`` / ``free_space()`` model a volume
  that *stays* at capacity until space is reclaimed — the deterministic
  surface behind :class:`~repro.storage.errors.DiskFullError` and the
  read-only degradation ladder (``docs/STORAGE.md``).

A kill raises :class:`CrashPoint` and leaves the wrapper *dead*: every
subsequent operation raises again, so ``finally`` blocks and context
managers cannot accidentally commit state on behalf of a process that is
supposed to have vanished.  ``CrashPoint`` deliberately does **not**
subclass :class:`~repro.storage.errors.StorageError` — error-collecting
code (e.g. ``IndexManager.flush``) must never swallow a simulated kill.
"""

import errno
import os

from repro.storage.disk import FileDisk
from repro.storage.errors import TransientIOError

#: Operation names accepted as kill points.
LOGICAL_OPS = ("read", "write", "allocate")
PHYSICAL_OP = "physical-write"


class CrashPoint(Exception):
    """A simulated process kill injected by :class:`FaultInjectingDisk`."""


class FaultInjectingDisk:
    """A transparent disk wrapper that can die on cue.

    ``kill_after`` is the 1-based ordinal of the fatal operation of kind
    ``kill_op`` (one of ``"read"``, ``"write"``, ``"allocate"``,
    ``"physical-write"``); None never kills — the wrapper then just counts,
    which is how a sweep measures how many crash points a workload has.
    ``torn_bytes`` tears the fatal physical write: only that many bytes of
    the page image are persisted before the crash.
    """

    def __init__(self, inner, kill_after=None, kill_op=PHYSICAL_OP,
                 torn_bytes=None):
        if kill_op not in LOGICAL_OPS + (PHYSICAL_OP,):
            raise ValueError("unknown kill op %r" % kill_op)
        self.inner = inner
        self.kill_after = kill_after
        self.kill_op = kill_op
        self.torn_bytes = torn_bytes
        self.dead = False
        self.op_counts = {op: 0 for op in LOGICAL_OPS + (PHYSICAL_OP,)}
        self._transient = {}  # op -> remaining failures to inject
        self.transient_injected = 0
        self._enospc = {}     # op -> remaining single-shot ENOSPC faults
        self._disk_full = False   # sticky: full until free_space()
        self.enospc_injected = 0
        if isinstance(inner, FileDisk):
            inner.fault_hook = self._on_physical_write

    # -- fault machinery -----------------------------------------------------

    def fail_next(self, n, op="read"):
        """Arm ``n`` transient failures for the next ``n`` ops of kind ``op``.

        Each affected operation raises
        :class:`~repro.storage.errors.TransientIOError` *instead of*
        executing (no partial effects); the (n+1)-th succeeds normally.
        Re-arming replaces the pending count for that op kind.
        """
        if op not in LOGICAL_OPS + (PHYSICAL_OP,):
            raise ValueError("unknown fail op %r" % op)
        if n < 0:
            raise ValueError("fail_next needs n >= 0")
        if n:
            self._transient[op] = n
        else:
            self._transient.pop(op, None)

    def fail_with_disk_full(self, n=1, op=PHYSICAL_OP):
        """Arm ``n`` single-shot ENOSPC faults for the next ops of ``op``.

        Each affected operation raises an errno-accurate
        ``OSError(ENOSPC)`` *instead of* executing — no partial effects —
        and the (n+1)-th succeeds, modelling a volume that momentarily
        brushed its capacity (another writer freed space, a quota was
        raised).  Re-arming replaces the pending count.
        """
        if op not in LOGICAL_OPS + (PHYSICAL_OP,):
            raise ValueError("unknown fail op %r" % op)
        if n < 0:
            raise ValueError("fail_with_disk_full needs n >= 0")
        if n:
            self._enospc[op] = n
        else:
            self._enospc.pop(op, None)

    def fill_disk(self):
        """Sticky disk-full: every physical write raises ``ENOSPC`` until
        :meth:`free_space` clears it — the "volume stays at capacity"
        mode the read-only degradation ladder is tested against."""
        self._disk_full = True

    def free_space(self):
        """End a sticky :meth:`fill_disk` (and drop any pending
        single-shot ENOSPC faults): subsequent writes succeed."""
        self._disk_full = False
        self._enospc.clear()

    @property
    def disk_full(self):
        """Is the sticky disk-full mode currently armed?"""
        return self._disk_full

    def _raise_enospc(self, op):
        self.enospc_injected += 1
        raise OSError(
            errno.ENOSPC,
            "%s (injected at %s #%d)"
            % (os.strerror(errno.ENOSPC), op, self.op_counts[op]))

    def _maybe_fail_enospc(self, op):
        if self._disk_full and op == PHYSICAL_OP:
            self._raise_enospc(op)
        remaining = self._enospc.get(op)
        if remaining:
            if remaining == 1:
                del self._enospc[op]
            else:
                self._enospc[op] = remaining - 1
            self._raise_enospc(op)

    def _maybe_fail_transiently(self, op):
        remaining = self._transient.get(op)
        if remaining:
            if remaining == 1:
                del self._transient[op]
            else:
                self._transient[op] = remaining - 1
            self.transient_injected += 1
            raise TransientIOError(
                "injected transient failure at %s #%d"
                % (op, self.op_counts[op])
            )

    def _tick(self, op):
        if self.dead:
            raise CrashPoint("operation on a crashed disk")
        self.op_counts[op] += 1
        if (self.kill_after is not None and self.kill_op == op
                and self.op_counts[op] >= self.kill_after):
            self.dead = True
            raise CrashPoint(
                "killed at %s #%d" % (op, self.op_counts[op])
            )
        self._maybe_fail_transiently(op)
        self._maybe_fail_enospc(op)

    def _on_physical_write(self, kind, page_id, data):
        """FileDisk hook: called before every physical page write.

        Returns ``(data, crash)``; the disk persists ``data`` (possibly a
        torn prefix) and raises :class:`CrashPoint` when ``crash`` is True.
        A pending transient failure raises ``TransientIOError`` before the
        write happens, leaving the disk untouched for the retry.
        """
        if self.dead:
            raise CrashPoint("physical write on a crashed disk")
        self.op_counts[PHYSICAL_OP] += 1
        if (self.kill_after is not None and self.kill_op == PHYSICAL_OP
                and self.op_counts[PHYSICAL_OP] >= self.kill_after):
            self.dead = True
            if self.torn_bytes is not None:
                data = bytes(data)[: self.torn_bytes]
            return data, True
        self._maybe_fail_transiently(PHYSICAL_OP)
        self._maybe_fail_enospc(PHYSICAL_OP)
        return data, False

    def crash_now(self):
        """Mark the disk dead immediately (without an operation trigger)."""
        self.dead = True

    def abort(self):
        """Release the wrapped disk's file descriptors without committing."""
        if hasattr(self.inner, "abort"):
            self.inner.abort()

    # -- corruption hooks ----------------------------------------------------

    def flip_bit(self, page_id, bit):
        """Flip one bit of a persisted page image (silent media corruption)."""
        raw = bytearray(self.inner.peek(page_id))
        raw[(bit // 8) % len(raw)] ^= 1 << (bit % 8)
        self.inner.poke(page_id, bytes(raw))

    def peek(self, page_id):
        return self.inner.peek(page_id)

    def poke(self, page_id, data):
        self.inner.poke(page_id, data)

    # -- the SimulatedDisk interface -----------------------------------------

    @property
    def page_size(self):
        return self.inner.page_size

    @property
    def stats(self):
        return self.inner.stats

    @property
    def allocated_page_count(self):
        return self.inner.allocated_page_count

    def allocate(self):
        self._tick("allocate")
        return self.inner.allocate()

    def free(self, page_id):
        if self.dead:
            raise CrashPoint("operation on a crashed disk")
        return self.inner.free(page_id)

    def read(self, page_id):
        self._tick("read")
        return self.inner.read(page_id)

    def write(self, page_id, data):
        self._tick("write")
        return self.inner.write(page_id, data)

    def sync(self):
        if self.dead:
            raise CrashPoint("operation on a crashed disk")
        sync = getattr(self.inner, "sync", None)
        if sync is not None:  # InMemoryDisk has no commit point
            return sync()
        return None

    def close(self):
        """Close the wrapped disk — without committing if it crashed."""
        if self.dead:
            self.abort()
        elif hasattr(self.inner, "close"):
            self.inner.close()

    def __getattr__(self, name):
        # Everything else (sync, close, closed, recovery_stats, ...)
        # passes straight through to the wrapped disk.
        return getattr(self.inner, name)
