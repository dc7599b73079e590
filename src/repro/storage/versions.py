"""Pre-commit page versions backing snapshot-isolated reads.

MVCC on this engine rides on the commit protocol PR 2 built: every
``sync()`` is an atomic, sequence-numbered commit group, so "the database
at sequence S" is a perfectly defined set of page images.  A reader that
*pins* S must keep seeing those images while writers commit T = S+1, S+2,
... on top.  The :class:`PageVersionStore` makes that possible with
copy-on-write at the apply boundary:

* when a commit group is about to overwrite page P while any snapshot is
  pinned, the disk first hands the *pre-commit* image to
  :meth:`PageVersionStore.record` tagged with ``upto_sequence = T - 1``
  ("this is P's content for any pinned sequence <= T-1");
* a snapshot read of P at pinned sequence S calls
  :meth:`PageVersionStore.lookup`: the entry with the smallest
  ``upto_sequence >= S`` is P's image at S; no such entry means P has not
  been overwritten since S, so the live committed image is still correct
  and the caller reads the data file (or page dict) directly.

Entries whose ``upto_sequence`` is below every pinned sequence can never
be returned again and are pruned on release; with no snapshots pinned the
store is empty and :attr:`pinned` is False, so the writer's fast path is a
single attribute check per applied page.

The store is shared by one writer and any number of reader threads; a
single lock guards the maps (operations are dict appends and list scans —
micro-critical sections).
"""

import threading


class PageVersionStore:
    """Copy-on-write pre-images of overwritten pages, keyed by sequence."""

    def __init__(self):
        self._lock = threading.Lock()
        self._versions = {}   # page_id -> [(upto_sequence, image), ...] asc
        self._pins = {}       # sequence -> pin count
        #: Lifetime counters (surfaced as gauges by the database hub).
        self.recorded_images = 0
        self.pruned_images = 0

    # -- pinning ---------------------------------------------------------------

    @property
    def pinned(self):
        """True when at least one snapshot is pinned (writer fast path)."""
        return bool(self._pins)

    def pin(self, sequence):
        """Register one snapshot reading at ``sequence``."""
        with self._lock:
            self._pins[sequence] = self._pins.get(sequence, 0) + 1
        return sequence

    def release(self, sequence):
        """Drop one pin on ``sequence``; prunes unreachable versions."""
        with self._lock:
            count = self._pins.get(sequence, 0)
            if count <= 1:
                self._pins.pop(sequence, None)
            else:
                self._pins[sequence] = count - 1
            self._prune_locked()

    def min_pinned(self):
        """The oldest pinned sequence, or None when nothing is pinned."""
        with self._lock:
            return min(self._pins) if self._pins else None

    @property
    def pin_count(self):
        with self._lock:
            return sum(self._pins.values())

    # -- recording -------------------------------------------------------------

    def record(self, page_id, upto_sequence, image):
        """Keep ``image`` as page ``page_id``'s content for pinned
        sequences <= ``upto_sequence``.

        Called by the disk *before* overwriting the committed image (apply
        or free), only while snapshots are pinned.  Re-recording the same
        ``upto_sequence`` is a no-op (the first pre-image wins: it is the
        one that was actually committed).
        """
        with self._lock:
            if not self._pins or min(self._pins) > upto_sequence:
                return
            chain = self._versions.setdefault(page_id, [])
            if chain and chain[-1][0] >= upto_sequence:
                return
            chain.append((upto_sequence, bytes(image)))
            self.recorded_images += 1

    def lookup(self, page_id, sequence):
        """Page ``page_id``'s image as of pinned ``sequence``, or None.

        None means the page has not been overwritten since ``sequence``:
        the caller reads the live committed image instead.
        """
        with self._lock:
            chain = self._versions.get(page_id)
            if not chain:
                return None
            for upto, image in chain:
                if upto >= sequence:
                    return image
            return None

    # -- maintenance -----------------------------------------------------------

    def _prune_locked(self):
        if not self._pins:
            dropped = sum(len(chain) for chain in self._versions.values())
            self._versions.clear()
            self.pruned_images += dropped
            return
        floor = min(self._pins)
        doomed = []
        for page_id, chain in self._versions.items():
            keep = [entry for entry in chain if entry[0] >= floor]
            self.pruned_images += len(chain) - len(keep)
            if keep:
                self._versions[page_id] = keep
            else:
                doomed.append(page_id)
        for page_id in doomed:
            del self._versions[page_id]

    @property
    def retained_images(self):
        with self._lock:
            return sum(len(chain) for chain in self._versions.values())
