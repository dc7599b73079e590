"""The frozen calibration kernel every timing metric is divided by.

The sandbox's CPU speed drifts on every time scale from a tenth of a
second to minutes (the same deterministic, GC-frozen unit ranged
36-65 ms inside one process, with ``process_time`` equal to wall time),
so a raw wall time says as much about the host as about the code.  The
harness runs one slice of this kernel between every two timed units and
multiplies each latency by ``CALIB_REF_MS / (median of the four slices
nearest to it)``: a reading is then "milliseconds on a machine where one
slice takes CALIB_REF_MS".

The slice is a fixed pure-Python mix shaped like the program's own hot
paths: ``struct`` decoding into ``__slots__`` objects, list and dict
traffic, then repeated passes of attribute compares and dict probes over
the decoded records.  The passes matter: a slice that only decodes and
allocates slowed by 1.75x in the host's slow phases where the join unit
slowed by 1.55x, and over-corrected; with the passes the two move
together (measured, see README "Noise design").  It never imports
``repro``, so no change to the program can move it.  Changing anything
in this file changes every timing metric: that is a benchmark PR of its
own with a re-baseline, never part of a PR that claims a gain.
"""

import statistics
import struct
import time

#: What one slice costs on the reference machine.  Normalised times are
#: expressed on that machine; the value is a unit, not a measurement.
CALIB_REF_MS = 5.0

_RECORD = struct.Struct("<iiiHBq")
_RECORDS_PER_IMAGE = 40
_IMAGES_PER_SLICE = 80
_PASSES_PER_IMAGE = 20
_IMAGE = b"".join(
    _RECORD.pack(index, index * 3 + 1, index * 3 + 40, index % 7, index & 1,
                 index * 11)
    for index in range(_RECORDS_PER_IMAGE))


class _Record:
    __slots__ = ("doc", "start", "end", "level", "flag", "ordinal")

    def __init__(self, doc, start, end, level, flag, ordinal):
        self.doc = doc
        self.start = start
        self.end = end
        self.level = level
        self.flag = flag
        self.ordinal = ordinal


def calibration_slice():
    """One fixed slice of work; returns a checksum so nothing is elided."""
    records = []
    by_start = {}
    total = 0
    for _ in range(_IMAGES_PER_SLICE):
        for fields in _RECORD.iter_unpack(_IMAGE):
            record = _Record(*fields)
            records.append(record)
            by_start[record.start] = record
        for _ in range(_PASSES_PER_IMAGE):
            for record in records:
                if record.start < record.end and record.level < 5:
                    total += record.end - record.start
                if by_start[record.start] is record:
                    total += 1
        records.clear()
    return total


def slice_ms():
    """Wall milliseconds of one slice."""
    started = time.perf_counter()
    calibration_slice()
    return (time.perf_counter() - started) * 1000.0


def speed_factor(slices_ms):
    """What a latency measured among ``slices_ms`` is multiplied by."""
    return CALIB_REF_MS / statistics.median(slices_ms)
