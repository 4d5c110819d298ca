"""Backend resolution: ``open_store("sqlite:///tmp/fs.db")`` and friends.

The registry is now a thin two-stage pipeline over the typed spec layer
(:mod:`repro.storage.spec`):

1. :func:`~repro.storage.spec.parse_spec` turns a backend URI into its
   :class:`~repro.storage.spec.StoreSpec` (strict option validation,
   typo suggestions for schemes *and* options);
2. :func:`build` turns a spec into a live
   :class:`~repro.storage.base.BlockStore` — one builder per spec type,
   each a few lines, because all string plumbing already happened.

``open_store`` accepts either form (URI string or spec object), so
callers can keep their ``--backend <uri>`` flags while programmatic
topologies use the builder API::

    from repro.storage.spec import shard, remote
    store = open_store(shard(remote("h1:9001"), remote("h2:9001"),
                             fanout=4))

Supported URI grammars (see README "Storage backends" for examples):

``mem://``
    In-memory store.  Options: ``?blocks=N&bs=N``.
``file://<path>``
    One host file (``file:///abs/path`` or ``file://rel/path``).
``sqlite://<path>``
    SQLite database file (``sqlite://:memory:`` works too).
``shard://<n>``
    ``n`` in-memory children on a consistent-hash ring.  Options:
    ``?base=mem|file|sqlite&dir=PATH`` (file/sqlite children are created
    as ``PATH/shard-<i>.blk``/``.db``) and ``?fanout=N`` (how many
    children a vectored batch addresses concurrently; 1 = sequential).
``shard://<uri>;<uri>;...[#fanout=N]``
    Explicit child URIs, semicolon-separated; the fan-out knob rides in
    the fragment so child queries stay untouched.
``cached://<child-uri>[#capacity=N]``
    Write-back LRU overlay on any child URI; overlay options ride in the
    URI *fragment* so they never collide with the child's own query.
``remote://<host>:<port>``
    Client for a block store served by ``discfs store-serve`` (or
    :func:`repro.storage.net.serve_store`).  Geometry comes from the
    server.  Options: ``?timeout=SECONDS&batch=on|off`` (``batch=off``
    forces per-block RPCs — for measuring what batching saves) and
    ``?workers=N`` (a pool of ``N`` pipelined connections keeping
    several read_many/write_many windows in flight at once).  Against a
    credential-gated server, ``#cred=FILE&key=FILE&tenant=NAME&rights=R``
    opens an authenticated session (KeyNote credentials + the private
    key that signs the session challenge).
``replica://<n>``
    ``n``-way replication.  Options: ``?w=W&r=R`` (write/read quorums,
    default write-all/read-one), ``?fanout=N`` (1 = sequential fan-out;
    anything larger fans writes to all replicas in parallel and returns
    at quorum W), ``?hedge_ms=N`` (dispatch one extra racing read after
    ``N`` ms — tail capping past a slow-but-alive child), ``?stamps=P``
    (persist version stamps to sidecar ``P`` so read-repair survives a
    restart) plus ``base=mem|file|sqlite&dir=PATH`` like ``shard://``.
``replica://<n>/<child-uri>``
    ``n`` copies built from a child template; ``{i}`` in the template is
    replaced with the replica index.  Replica options ride in the
    *fragment* (``#w=2&r=2&fanout=N&hedge_ms=N&stamps=P``) since the
    child may use its own query.
``replica://<uri>;<uri>;...[#w=W&r=R&...]``
    Explicit replica URIs, semicolon-separated.
``failing://<child-uri>[#fail=1]``
    Pass-through that can be switched to reject every operation — the
    injectable outage for replica/remote failure drills.
``journal://<child-uri>[#cap=N&path=PATH]``
    Write-ahead journal in front of a durable child: every write is
    fsynced to an append-only intent log *before* it reaches the child,
    and committed-but-unapplied records replay on reopen — crash
    recovery for ``file://``/``sqlite://`` and their compositions.  The
    log lives at ``<child-path>.journal`` when derivable, else pass
    ``#path=``; ``#cap=N`` bounds the transactions held before an
    automatic checkpoint.
``lazy://<child-uri>[#retry=S]``
    Defer/retry opening the child until it is reachable; while down,
    operations raise ``StoreUnavailable``.  ``replica://`` applies this
    automatically to children that are unreachable at mount time, so a
    quorum mounts with a node down and heals it on reconnect.
``slow://<child-uri>[#ms=N]``
    Pass-through that sleeps ``N`` milliseconds before every operation —
    the injectable straggler for concurrency drills (a loaded replica,
    a slow link), the counterpart of ``failing://``'s outage.
``metered://<child-uri>[#slow_ms=F&ring=N]``
    Latency-instrumentation overlay: every op is timed into the
    process-wide metrics registry (p50/p95/p99 surface through
    ``snapshot()`` extras and ``store-serve --metrics-port``), traces
    originate here when tracing is on, and ops slower than ``slow_ms``
    are counted/flagged.  ``ring`` resizes the trace ring buffer.
``tenant://<child-uri>#name=N[&offset=&blocks=&quota=&bytes=&rate=&burst=]``
    A named private window onto a region of the child store — each
    tenant sees a zero-based namespace and cannot address blocks outside
    its region — with optional distinct-block quota, cumulative byte
    budget, and token-bucket rate limit (``rate`` ops/s, burst
    ``burst``).  ``store-serve --policy … --tenant-quota`` builds these
    views server-side, one per declared tenant, over one shared ring.

Composition nests naturally: ``cached://shard://4#capacity=512``, or a
real cluster: ``shard://remote://h1:9001;remote://h2:9002``, or crash-
safe local durability: ``journal://sqlite:///var/lib/discfs.db``.

Unknown ``?``/``#`` options now *raise* (with a did-you-mean hint that
searches every scheme's option names) instead of being silently
ignored — a misspelled quorum is a configuration bug, not a default.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import InvalidArgument, StoreUnavailable
from repro.storage import spec as specs
from repro.storage.base import DEFAULT_BLOCK_SIZE, BlockStore
from repro.storage.cache import DEFAULT_CAPACITY, CachedBlockStore
from repro.storage.filestore import FileBlockStore
from repro.storage.memory import MemoryBlockStore
from repro.storage.shard import ShardedBlockStore
from repro.storage.spec import (
    CachedSpec,
    FailingSpec,
    FileSpec,
    JournalSpec,
    LazySpec,
    MemSpec,
    MeteredSpec,
    OpaqueSpec,
    RemoteSpec,
    ReplicaSpec,
    ShardSpec,
    SlowSpec,
    SpecLike,
    SqliteSpec,
    StoreSpec,
    TenantSpec,
    parse_spec,
    split_uri,
)
from repro.storage.sqlitestore import SQLiteBlockStore

DEFAULT_NUM_BLOCKS = 16384

#: Legacy extension hook: scheme -> factory(rest, num_blocks, block_size).
#: Third-party schemes registered this way parse to ``OpaqueSpec`` and
#: build through their factory, so ``register_scheme`` keeps working.
_FACTORIES: dict[str, Callable[[str, int, int], BlockStore]] = {}

#: spec type -> builder(spec, num_blocks, block_size) -> BlockStore.
_BUILDERS: dict[type[StoreSpec], Callable[[StoreSpec, int, int], BlockStore]] = {}


def register_scheme(
    scheme: str, factory: Callable[[str, int, int], BlockStore]
) -> None:
    """Register (or replace) a legacy backend factory for ``scheme``.

    New code should define a :class:`~repro.storage.spec.StoreSpec`
    subclass and a builder instead; this hook remains for third-party
    backends that only need string-in/store-out."""
    _FACTORIES[scheme] = factory


def registered_schemes() -> tuple[str, ...]:
    """All URI schemes ``open_store`` currently resolves."""
    return tuple(sorted(set(specs.known_schemes()) | set(_FACTORIES)))


specs._install_legacy_schemes(lambda: tuple(_FACTORIES))


def _geometry(
    spec: MemSpec | FileSpec | SqliteSpec, num_blocks: int, block_size: int
) -> tuple[int, int]:
    """Apply a leaf spec's ``blocks=``/``bs=`` overrides."""
    if spec.blocks is not None:
        num_blocks = spec.blocks
    if spec.bs is not None:
        block_size = spec.bs
    return num_blocks, block_size


def build(
    spec: SpecLike,
    *,
    num_blocks: int = DEFAULT_NUM_BLOCKS,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> BlockStore:
    """Build a live :class:`BlockStore` from a spec (or URI string).

    ``num_blocks``/``block_size`` are the mount-time geometry defaults;
    a leaf spec's own ``blocks``/``bs`` win where set.
    """
    spec = parse_spec(spec)
    if isinstance(spec, OpaqueSpec):
        factory = _FACTORIES.get(spec.scheme_name)
        if factory is None:
            raise InvalidArgument(
                f"scheme {spec.scheme_name!r} lost its registered factory"
            )
        return factory(spec.rest, num_blocks, block_size)
    builder = _BUILDERS.get(type(spec))
    if builder is None:
        raise InvalidArgument(
            f"no builder for spec type {type(spec).__name__}"
        )
    return builder(spec, num_blocks, block_size)


def open_store(
    uri: SpecLike,
    *,
    num_blocks: int = DEFAULT_NUM_BLOCKS,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> BlockStore:
    """Resolve a backend URI (or spec) to a live :class:`BlockStore`."""
    return build(uri, num_blocks=num_blocks, block_size=block_size)


# ---------------------------------------------------------------------------
# Built-in spec builders
# ---------------------------------------------------------------------------


def _build_mem(spec: MemSpec, num_blocks: int, block_size: int) -> BlockStore:
    num_blocks, block_size = _geometry(spec, num_blocks, block_size)
    return MemoryBlockStore(num_blocks, block_size)


def _build_file(spec: FileSpec, num_blocks: int, block_size: int) -> BlockStore:
    num_blocks, block_size = _geometry(spec, num_blocks, block_size)
    return FileBlockStore(spec.path, num_blocks, block_size)


def _build_sqlite(
    spec: SqliteSpec, num_blocks: int, block_size: int
) -> BlockStore:
    num_blocks, block_size = _geometry(spec, num_blocks, block_size)
    return SQLiteBlockStore(spec.path, num_blocks, block_size)


def close_quietly(stores: list[BlockStore]) -> None:
    """Best-effort close of partially built stacks on the error path —
    a child that fails to close must not mask the original error."""
    for store in stores:
        try:
            store.close()
        except Exception:
            pass


def _build_children(
    children: list[StoreSpec], num_blocks: int, block_size: int,
    open_child: Callable[[StoreSpec, int, int], BlockStore] | None = None,
) -> list[BlockStore]:
    """Build every child spec, closing the already-built on failure.
    ``open_child`` lets composites customize the per-child open (the
    replica builder wraps unreachable children lazily)."""
    opener = open_child or (
        lambda child, nb, bs: build(child, num_blocks=nb, block_size=bs)
    )
    built: list[BlockStore] = []
    try:
        for child in children:
            built.append(opener(child, num_blocks, block_size))
    except Exception:
        close_quietly(built)
        raise
    return built


def _build_shard(
    spec: ShardSpec, num_blocks: int, block_size: int
) -> BlockStore:
    children = _build_children(spec.shards, num_blocks, block_size)
    try:
        return ShardedBlockStore(children, fanout=spec.fanout)
    except Exception:
        close_quietly(children)
        raise


def _build_cached(
    spec: CachedSpec, num_blocks: int, block_size: int
) -> BlockStore:
    child = build(spec.child, num_blocks=num_blocks, block_size=block_size)
    capacity = spec.capacity if spec.capacity is not None else DEFAULT_CAPACITY
    try:
        return CachedBlockStore(child, capacity=capacity)
    except Exception:
        child.close()
        raise


def _build_remote(
    spec: RemoteSpec, num_blocks: int, block_size: int
) -> BlockStore:
    from repro.crypto.keycodec import decode_key
    from repro.storage.net import RemoteBlockStore

    key = None
    credentials: list[str] | None = None
    if spec.key is not None:
        try:
            with open(spec.key, encoding="utf-8") as fh:
                key = decode_key(fh.read().strip())
        except OSError as exc:
            raise InvalidArgument(
                f"remote:// cannot read key file {spec.key!r}: {exc}"
            ) from exc
        if not hasattr(key, "sign"):
            raise InvalidArgument(
                f"remote:// key file {spec.key!r} holds a public key; "
                "the session challenge needs the private half"
            )
    if spec.cred is not None:
        try:
            with open(spec.cred, encoding="utf-8") as fh:
                credentials = [fh.read()]
        except OSError as exc:
            raise InvalidArgument(
                f"remote:// cannot read credential file {spec.cred!r}: {exc}"
            ) from exc
    # num_blocks/block_size are ignored: the serving node owns geometry.
    return RemoteBlockStore.connect(
        spec.host, spec.port,
        timeout=spec.timeout if spec.timeout is not None else 10.0,
        batch=spec.batch if spec.batch is not None else True,
        workers=spec.workers if spec.workers is not None else 1,
        key=key, credentials=credentials,
        tenant=spec.tenant or "",
        rights=spec.rights or "rw",
    )


def _lazy_target(child: StoreSpec) -> SpecLike:
    """What a LazyBlockStore should reopen later: the canonical URI
    where one exists, else the spec object itself (programmatic-only
    topologies have no URI form, and `open_store` accepts specs)."""
    try:
        return child.to_uri()
    except specs.SpecError:
        return child


def _open_replica_child(
    child: StoreSpec, num_blocks: int, block_size: int
) -> BlockStore:
    """Open one replica child; a child that is unreachable at mount time
    (a dead ``remote://`` node) becomes a lazy wrapper instead of failing
    the whole mount — the quorum covers for it until it heals."""
    from repro.storage.lazy import LazyBlockStore

    try:
        return build(child, num_blocks=num_blocks, block_size=block_size)
    except StoreUnavailable:
        return LazyBlockStore(_lazy_target(child), num_blocks=num_blocks,
                              block_size=block_size)


def _build_replica(
    spec: ReplicaSpec, num_blocks: int, block_size: int
) -> BlockStore:
    from repro.storage.replica import ReplicatedBlockStore

    children = _build_children(spec.replicas, num_blocks, block_size,
                               open_child=_open_replica_child)
    try:
        return ReplicatedBlockStore(
            children,
            write_quorum=spec.w,
            read_quorum=spec.r if spec.r is not None else 1,
            fanout=spec.fanout,
            hedge_ms=spec.hedge_ms,
            stamps_path=spec.stamps,
        )
    except Exception:
        close_quietly(children)
        raise


def _build_failing(
    spec: FailingSpec, num_blocks: int, block_size: int
) -> BlockStore:
    from repro.storage.replica import FailingBlockStore

    child = build(spec.child, num_blocks=num_blocks, block_size=block_size)
    try:
        return FailingBlockStore(child, failing=bool(spec.fail))
    except Exception:
        child.close()
        raise


def _journal_path_for(child: StoreSpec) -> str:
    """Default journal location next to a path-addressed child."""
    if isinstance(child, (FileSpec, SqliteSpec)) \
            and child.path and child.path != ":memory:":
        return child.path + ".journal"
    raise InvalidArgument(
        f"journal:// cannot derive a log path for a {child.scheme}:// "
        "child; pass an explicit #path=/path/to.journal"
    )


def _build_journal(
    spec: JournalSpec, num_blocks: int, block_size: int
) -> BlockStore:
    from repro.storage.journal import DEFAULT_JOURNAL_CAP, JournalBlockStore

    path = spec.path or _journal_path_for(spec.child)
    cap = spec.cap if spec.cap is not None else DEFAULT_JOURNAL_CAP
    child = build(spec.child, num_blocks=num_blocks, block_size=block_size)
    try:
        return JournalBlockStore(child, path, cap=cap)
    except Exception:
        child.close()
        raise


def _build_lazy(spec: LazySpec, num_blocks: int, block_size: int) -> BlockStore:
    from repro.storage.lazy import DEFAULT_RETRY_INTERVAL, LazyBlockStore

    retry = spec.retry if spec.retry is not None else DEFAULT_RETRY_INTERVAL
    store = LazyBlockStore(_lazy_target(spec.child), num_blocks=num_blocks,
                           block_size=block_size, retry_interval=retry)
    store.try_connect()  # eager best effort; a down child is tolerated
    return store


def _build_slow(spec: SlowSpec, num_blocks: int, block_size: int) -> BlockStore:
    from repro.storage.replica import DelayedBlockStore

    child = build(spec.child, num_blocks=num_blocks, block_size=block_size)
    try:
        return DelayedBlockStore(child, delay_ms=spec.ms if spec.ms is not None
                                 else 0.0)
    except Exception:
        child.close()
        raise


def _build_metered(
    spec: MeteredSpec, num_blocks: int, block_size: int
) -> BlockStore:
    from repro.storage.metered import InstrumentedBlockStore

    child = build(spec.child, num_blocks=num_blocks, block_size=block_size)
    try:
        return InstrumentedBlockStore(child, slow_ms=spec.slow_ms,
                                      ring=spec.ring)
    except Exception:
        child.close()
        raise


def _build_tenant(
    spec: TenantSpec, num_blocks: int, block_size: int
) -> BlockStore:
    from repro.storage.tenant import TenantBlockStore

    child = build(spec.child, num_blocks=num_blocks, block_size=block_size)
    try:
        return TenantBlockStore(
            child,
            name=spec.name or "",
            offset=spec.offset if spec.offset is not None else 0,
            num_blocks=spec.blocks,
            quota_blocks=spec.quota,
            quota_bytes=spec.bytes,
            rate_ops=spec.rate,
            burst=spec.burst,
            owns_child=True,
        )
    except Exception:
        child.close()
        raise


_BUILDERS.update({
    MemSpec: _build_mem,
    FileSpec: _build_file,
    SqliteSpec: _build_sqlite,
    ShardSpec: _build_shard,
    CachedSpec: _build_cached,
    RemoteSpec: _build_remote,
    ReplicaSpec: _build_replica,
    FailingSpec: _build_failing,
    JournalSpec: _build_journal,
    LazySpec: _build_lazy,
    SlowSpec: _build_slow,
    TenantSpec: _build_tenant,
    MeteredSpec: _build_metered,
})

__all__ = [
    "DEFAULT_NUM_BLOCKS",
    "build",
    "open_store",
    "register_scheme",
    "registered_schemes",
    "split_uri",
]
