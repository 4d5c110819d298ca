"""Pluggable storage backends for the DisCFS substrate.

The block layer under FFS is chosen by URI — or, since the typed-spec
redesign, by a programmatic :mod:`~repro.storage.spec` builder::

    from repro.storage import open_store
    from repro.storage.spec import shard, remote

    local = open_store("sqlite:///var/lib/discfs.db")
    ring = open_store(shard(remote("h1:9001"), remote("h2:9001"),
                            fanout=4))

Backends compose: ``cached://shard://4#capacity=512`` is a write-back
LRU in front of four consistent-hashed memory shards, and
``shard://remote://h1:9001;remote://h2:9002`` spreads the ring across
real nodes served by ``discfs store-serve``.  See
:mod:`repro.storage.registry` for the URI grammar and README "Storage
backends" for worked examples.

The control plane (:mod:`repro.storage.control`) inspects and
reconfigures mounted topologies: :func:`describe` dumps the live tree
with per-node capabilities and stats, and :func:`reshard` migrates a
``shard://`` ring to a new layout moving only the blocks whose
consistent-hash owner changed.
"""

from repro.storage.auth import (
    AuditLog,
    StoreAuthGate,
    TenantQuota,
    issue_store_credential,
)
from repro.storage.base import BlockStore, Capabilities, StoreStats
from repro.storage.cache import CachedBlockStore, CacheStats
from repro.storage.control import (
    ReshardReport,
    SpecTree,
    describe,
    iter_stores,
    latency_usage,
    render_latency_table,
    render_tenant_table,
    reshard,
    tenant_usage,
)
from repro.storage.filestore import FileBlockStore
from repro.storage.journal import (
    JournalBlockStore,
    JournalInfo,
    JournalStats,
    inspect_journal,
)
from repro.storage.lazy import LazyBlockStore
from repro.storage.memory import MemoryBlockStore
from repro.storage.metered import InstrumentedBlockStore
from repro.storage.net import (
    BLOCKSTORE_PROGRAM,
    BlockStoreProgram,
    RemoteBlockStore,
    StoreServer,
    serve_store,
)
from repro.storage.registry import (
    DEFAULT_NUM_BLOCKS,
    build,
    open_store,
    register_scheme,
    registered_schemes,
    split_uri,
)
from repro.storage.replica import (
    DelayedBlockStore,
    FailingBlockStore,
    ReplicaStats,
    ReplicatedBlockStore,
)
from repro.storage.shard import ShardedBlockStore
from repro.storage.spec import SpecError, StoreSpec, parse_spec
from repro.storage.sqlitestore import SQLiteBlockStore
from repro.storage.tenant import TenantBlockStore

__all__ = [
    "AuditLog",
    "BLOCKSTORE_PROGRAM",
    "BlockStore",
    "BlockStoreProgram",
    "CacheStats",
    "CachedBlockStore",
    "Capabilities",
    "DEFAULT_NUM_BLOCKS",
    "DelayedBlockStore",
    "FailingBlockStore",
    "FileBlockStore",
    "InstrumentedBlockStore",
    "JournalBlockStore",
    "JournalInfo",
    "JournalStats",
    "LazyBlockStore",
    "MemoryBlockStore",
    "RemoteBlockStore",
    "ReplicaStats",
    "ReplicatedBlockStore",
    "ReshardReport",
    "SQLiteBlockStore",
    "ShardedBlockStore",
    "SpecError",
    "SpecTree",
    "StoreAuthGate",
    "StoreServer",
    "StoreSpec",
    "StoreStats",
    "TenantBlockStore",
    "TenantQuota",
    "build",
    "describe",
    "inspect_journal",
    "issue_store_credential",
    "iter_stores",
    "latency_usage",
    "open_store",
    "parse_spec",
    "register_scheme",
    "registered_schemes",
    "render_latency_table",
    "render_tenant_table",
    "reshard",
    "serve_store",
    "split_uri",
    "tenant_usage",
]
