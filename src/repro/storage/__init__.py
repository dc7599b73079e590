"""External-memory substrate: simulated disk, page codecs and buffer pool.

The paper evaluates XR-trees on a storage manager doing direct disk I/O and
observes that elapsed time is dominated by buffer-pool page misses.  This
package reproduces that substrate in simulation: every index node, element
list page and stab list page is a fixed-size byte-serialized page living on a
:class:`~repro.storage.disk.SimulatedDisk`, accessed through a
:class:`~repro.storage.buffer.BufferPool` with an LRU replacement policy and
full hit/miss accounting.
"""

from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.disk import (
    DurabilityStats,
    FileDisk,
    InMemoryDisk,
    IOStats,
    RecoveryStats,
    SimulatedDisk,
)
from repro.storage.errors import (
    BackupError,
    BufferPoolError,
    ChecksumError,
    DiskFullError,
    DivergenceError,
    PageDecodeError,
    PageFullError,
    PageNotFoundError,
    ReadOnlyError,
    RecoveryError,
    ReplicationError,
    StorageError,
    TransientIOError,
    is_disk_full_error,
)
from repro.storage.faults import CrashPoint, FaultInjectingDisk
from repro.storage.indexmanager import (
    IndexManager,
    IndexManagerError,
    IndexManagerStats,
)
from repro.storage.backup import (
    BackupManifest,
    RestoreResult,
    hot_backup,
    restore,
)
from repro.storage.journal import Archive
from repro.storage.retention import (
    CheckpointManager,
    RetentionPolicy,
    RetentionStats,
)
from repro.storage.replication import (
    LocalDirShipper,
    ReplicationStats,
    StandbyReplica,
)
from repro.storage.scrub import (
    IndexQuarantinedError,
    IntegrityScrubber,
    RebuildResult,
    ScrubReport,
)
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_SIZE,
    ElementEntry,
    Page,
    RawPage,
    page_checksum,
    page_codec,
    register_page_type,
    seal_image,
)
from repro.storage.snapshot import SnapshotDisk
from repro.storage.timemodel import DiskTimeModel
from repro.storage.versions import PageVersionStore

__all__ = [
    "Archive",
    "BackupError",
    "BackupManifest",
    "BufferPool",
    "BufferStats",
    "BufferPoolError",
    "ChecksumError",
    "CrashPoint",
    "DEFAULT_PAGE_SIZE",
    "DiskTimeModel",
    "DivergenceError",
    "DurabilityStats",
    "ElementEntry",
    "FaultInjectingDisk",
    "FileDisk",
    "IndexManager",
    "IndexManagerError",
    "IndexManagerStats",
    "IndexQuarantinedError",
    "IntegrityScrubber",
    "RebuildResult",
    "ScrubReport",
    "InMemoryDisk",
    "IOStats",
    "LocalDirShipper",
    "PAGE_HEADER_SIZE",
    "Page",
    "PageDecodeError",
    "PageFullError",
    "PageNotFoundError",
    "PageVersionStore",
    "SnapshotDisk",
    "RawPage",
    "RecoveryError",
    "RecoveryStats",
    "ReplicationError",
    "ReplicationStats",
    "RestoreResult",
    "StandbyReplica",
    "SimulatedDisk",
    "StorageError",
    "TransientIOError",
    "hot_backup",
    "page_checksum",
    "page_codec",
    "register_page_type",
    "restore",
    "seal_image",
]
