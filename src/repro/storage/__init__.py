"""On-disk storage back-end (the bottom half of Fig. 4).

* :class:`~repro.storage.bundle_store.BundleStore` — segmented append-only
  store for evicted/closed bundles,
* :mod:`repro.storage.serializer` — bundle/message (de)serialization,
* :mod:`repro.storage.snapshot` — whole-indexer snapshot/restore.
"""

from repro.storage.archive_index import (ArchiveHit, ArchiveIndex,
                                         ArchivedBundleStore)
from repro.storage.bundle_store import BundleStore
from repro.storage.serializer import (bundle_from_dict, bundle_from_json,
                                      bundle_to_dict, bundle_to_json,
                                      message_from_dict, message_to_dict)
from repro.storage.snapshot import (load_snapshot, load_snapshot_with_meta,
                                    save_snapshot)
from repro.storage.wal import JournaledIndexer, MessageJournal, ReplayStats

__all__ = [
    "ArchiveHit",
    "ArchiveIndex",
    "ArchivedBundleStore",
    "BundleStore",
    "bundle_from_dict",
    "bundle_from_json",
    "bundle_to_dict",
    "bundle_to_json",
    "message_from_dict",
    "message_to_dict",
    "load_snapshot",
    "load_snapshot_with_meta",
    "JournaledIndexer",
    "MessageJournal",
    "ReplayStats",
    "save_snapshot",
]
