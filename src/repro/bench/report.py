"""Paper-style result tables for the whole evaluation.

Running this module (``python -m repro.bench.report``) regenerates every
figure's data: Bonnie throughput rows for Figures 7-11 and the search
times for Figure 12, for FFS, CFS-NE and DisCFS (plus optional extras).
The output is the source for EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse

from repro.bench.bonnie import PHASES, run_bonnie
from repro.bench.harness import PAPER_SYSTEMS, make_target
from repro.bench.search import run_search
from repro.bench.workloads import SourceTreeSpec, generate_source_tree

_FIGURES = {
    "output_char": "Figure 7: Bonnie Sequential Output (Char)",
    "output_block": "Figure 8: Bonnie Sequential Output (Block)",
    "rewrite": "Figure 9: Bonnie Sequential Output (Rewrite)",
    "input_char": "Figure 10: Bonnie Sequential Input (Char)",
    "input_block": "Figure 11: Bonnie Sequential Input (Block)",
}


def run_evaluation(
    systems: tuple[str, ...] = PAPER_SYSTEMS,
    file_size: int = 1 << 21,
    char_size: int = 1 << 18,
    tree_spec: SourceTreeSpec | None = None,
    cache_capacity: int = 128,
) -> dict:
    """Run Bonnie + search on each system; returns a results dict."""
    results: dict = {"bonnie": {}, "search": {}}
    for system in systems:
        built = make_target(system, cache_capacity=cache_capacity)
        results["bonnie"][system] = run_bonnie(
            built.target, file_size=file_size, char_size=char_size
        )
        built = make_target(system, cache_capacity=cache_capacity)
        generate_source_tree(built.target, "/src", tree_spec)
        results["search"][system] = run_search(built.target, "/src")
    return results


#: The backend sweep the storage ablation reports by default.
DEFAULT_BACKENDS = (
    "mem://",
    "shard://2",
    "shard://4",
    "shard://8",
    "cached://mem://#capacity=256",
)


def run_backend_ablation(
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    system: str = "FFS",
    file_size: int = 1 << 20,
    char_size: int = 1 << 16,
) -> dict:
    """Bonnie phases for one system across storage backends.

    Same workload, same system, only the block layer changes — the
    counterpart of ``run_evaluation``'s system sweep, for the storage
    axis (``benchmarks/test_ablation_storage_backend.py``).
    """
    results: dict = {"system": system, "bonnie": {}, "device": {}}
    for uri in backends:
        built = make_target(system, backend=uri)
        results["bonnie"][uri] = run_bonnie(
            built.target, file_size=file_size, char_size=char_size
        )
        results["device"][uri] = _device_row(built, seeks=True)
        built.fs.device.close()
    return results


def _device_row(built, seeks: bool = False) -> dict:
    """Logical-vs-physical I/O attribution for one built system.

    Logical traffic (what FFS issued) is workload-determined and so
    identical across backends; the physical traffic that reached the
    leaf stores is where cached://, shard:// and replica:// differ.
    """
    stats = built.device_stats
    leaves = built.fs.device.leaf_stores()
    row = {
        "reads": stats.reads,
        "writes": stats.writes,
        "physical_reads": sum(leaf.stats.reads for leaf in leaves),
        "physical_writes": sum(leaf.stats.writes for leaf in leaves),
        "leaves": len(leaves),
    }
    if seeks:
        row["seeks"] = stats.seeks
    return row


def print_backend_report(results: dict) -> None:
    """Per-backend comparison table (throughput per Bonnie phase)."""
    backends = list(results["bonnie"])
    print(f"\nStorage backend ablation — system: {results['system']}")
    header = f"  {'Backend':<32}" + "".join(f"{p:>14}" for p in PHASES)
    print(header)
    print(f"  {'(throughput K/sec)':<32}")
    for uri in backends:
        row = results["bonnie"][uri]
        cells = "".join(f"{row.kps(p):>14.0f}" for p in PHASES)
        print(f"  {uri:<32}{cells}")
    print(
        f"\n  {'Backend':<32}{'log.reads':>10}{'log.writes':>11}"
        f"{'phys.reads':>11}{'phys.writes':>12}{'leaves':>8}"
    )
    for uri in backends:
        dev = results["device"][uri]
        print(
            f"  {uri:<32}{dev['reads']:>10}{dev['writes']:>11}"
            f"{dev['physical_reads']:>11}{dev['physical_writes']:>12}"
            f"{dev['leaves']:>8}"
        )


#: The replica-factor / quorum sweep the replication ablation reports.
DEFAULT_REPLICA_CONFIGS = (
    "mem://",                 # no replication baseline
    "replica://2",            # 2x, write-all/read-one
    "replica://3",            # 3x, write-all/read-one
    "replica://3?w=2&r=2",    # 3x, strict quorums (1-node-outage safe)
    "replica://5?w=3&r=3",    # 5x, majority quorums
)


def run_replication_ablation(
    configs: tuple[str, ...] = DEFAULT_REPLICA_CONFIGS,
    system: str = "FFS",
    file_size: int = 1 << 20,
    char_size: int = 1 << 16,
) -> dict:
    """Bonnie across replica factors/quorums, plus an RPC round-trip
    comparison of batched vs per-block remote I/O.

    Replication multiplies *physical* writes by the replica factor while
    logical traffic stays constant — the same logical-vs-physical story
    as the backend ablation, on the redundancy axis.  The ``rpc`` rows
    price the other distributed cost: round trips, with
    ``read_many``/``write_many`` batching on versus off.
    """
    from repro.fs.ffs import FFS
    from repro.rpc.server import RPCServer
    from repro.rpc.transport import InProcessTransport
    from repro.storage import MemoryBlockStore
    from repro.storage.net import BlockStoreProgram, RemoteBlockStore

    results: dict = {"system": system, "bonnie": {}, "device": {}, "rpc": {}}
    for uri in configs:
        built = make_target(system, backend=uri)
        results["bonnie"][uri] = run_bonnie(
            built.target, file_size=file_size, char_size=char_size
        )
        store = built.fs.device
        row = _device_row(built)
        # The uniform protocol names the layer (scheme) and its live
        # children; no isinstance probing of store internals.
        row["replicas"] = (
            len(store.child_stores()) if store.scheme == "replica" else 1
        )
        results["device"][uri] = row
        built.fs.device.close()

    # The FFS cold path — whole-file extents — over an in-process remote
    # store: how many RPC round trips does the vectored interface save?
    # (Bonnie's phases hand FFS one block per call, so the batching win
    # shows on multi-block reads/writes: write_file/read_file.)
    payload = (bytes(range(256)) * (file_size // 256 + 1))[:file_size]
    for label, batch in (("remote (batched)", True),
                         ("remote (per-block)", False)):
        backing = MemoryBlockStore(num_blocks=1 << 15)
        rpc = RPCServer()
        rpc.register(BlockStoreProgram(backing))
        transport = InProcessTransport(rpc.handler_for(None))
        remote = RemoteBlockStore(transport, batch=batch)
        fs = FFS(remote)
        for i in range(4):
            fs.write_file(f"/extent-{i}.dat", payload)
        for i in range(4):
            assert fs.read_file(f"/extent-{i}.dat") == payload
        results["rpc"][label] = {
            "round_trips": transport.stats.calls,
            "bytes_sent": transport.stats.bytes_sent,
            "reads": fs.device.stats.reads,
            "writes": fs.device.stats.writes,
        }
        fs.device.close()
    return results


def print_replication_report(results: dict) -> None:
    """Replication sweep + RPC round-trip tables."""
    print(f"\nReplication ablation — system: {results['system']}")
    header = f"  {'Backend':<28}" + "".join(f"{p:>14}" for p in PHASES)
    print(header)
    print(f"  {'(throughput K/sec)':<28}")
    for uri, row in results["bonnie"].items():
        cells = "".join(f"{row.kps(p):>14.0f}" for p in PHASES)
        print(f"  {uri:<28}{cells}")
    print(
        f"\n  {'Backend':<28}{'replicas':>9}{'log.reads':>10}"
        f"{'log.writes':>11}{'phys.reads':>11}{'phys.writes':>12}"
    )
    for uri, dev in results["device"].items():
        print(
            f"  {uri:<28}{dev['replicas']:>9}{dev['reads']:>10}"
            f"{dev['writes']:>11}{dev['physical_reads']:>11}"
            f"{dev['physical_writes']:>12}"
        )
    print(
        f"\n  {'Remote config':<28}{'rpc trips':>10}{'log.reads':>10}"
        f"{'log.writes':>11}{'bytes sent':>12}"
    )
    for label, rpc in results["rpc"].items():
        print(
            f"  {label:<28}{rpc['round_trips']:>10}{rpc['reads']:>10}"
            f"{rpc['writes']:>11}{rpc['bytes_sent']:>12}"
        )


#: label -> backend URI template ({d} = scratch directory) the journal
#: ablation sweeps: journaling on/off over both durable children.
JOURNAL_CONFIGS = (
    ("file (no journal)", "file://{d}/plain.img"),
    ("journal://file", "journal://file://{d}/journaled.img"),
    ("sqlite (no journal)", "sqlite://{d}/plain.db"),
    ("journal://sqlite", "journal://sqlite://{d}/journaled.db"),
)

#: Blocks written (in batches) by the replay measurement.
REPLAY_BLOCKS = 1024
REPLAY_BATCH = 64


def run_journal_ablation(
    system: str = "FFS",
    file_size: int = 1 << 20,
    char_size: int = 1 << 16,
    workdir: str | None = None,
) -> dict:
    """Bonnie with journaling on/off over the durable backends, plus a
    measured crash replay.

    What the write-ahead log costs is fsyncs (one group commit per
    batch) and their latency; what it buys is replay — committed writes
    surviving a crash instead of rolling back to the last checkpoint.
    Both sides are reported: per-phase throughput and fsync counts for
    each config, then the timed replay of a deliberately "crashed"
    journal (:meth:`JournalBlockStore.abandon`).
    """
    import tempfile
    import time

    from repro.storage import iter_stores, open_store

    workdir = workdir or tempfile.mkdtemp(prefix="journal-ablation-")
    results: dict = {"system": system, "bonnie": {}, "device": {}}
    for label, template in JOURNAL_CONFIGS:
        uri = template.format(d=workdir)
        built = make_target(system, backend=uri)
        results["bonnie"][label] = run_bonnie(
            built.target, file_size=file_size, char_size=char_size
        )
        store = built.fs.device
        row = _device_row(built)
        # Uniform snapshot protocol: walk the mounted tree and read each
        # layer's counters from its StoreStats — no isinstance probing.
        snapshots = [s.snapshot() for s in iter_stores(store)]
        row["fsyncs"] = sum(snap.fsyncs for snap in snapshots)
        journal_snap = next(
            (snap for snap in snapshots if snap.scheme == "journal"), None
        )
        row["journal_txns"] = (
            int(journal_snap.extra["transactions"]) if journal_snap else 0
        )
        row["journal_blocks"] = (
            int(journal_snap.extra["blocks_journaled"]) if journal_snap
            else 0
        )
        results["device"][label] = row
        built.fs.device.close()

    # Crash replay: journal a workload, abandon without checkpointing,
    # and time the reopen that replays it into the child.
    uri = f"journal://file://{workdir}/replay.img#cap={REPLAY_BLOCKS * 2}"
    store = open_store(uri, num_blocks=max(REPLAY_BLOCKS * 2, 4096))
    payload = b"J" * store.block_size
    for start in range(0, REPLAY_BLOCKS, REPLAY_BATCH):
        store.write_many(
            [(b, payload) for b in range(start, start + REPLAY_BATCH)]
        )
    store.abandon()
    t0 = time.monotonic()
    reopened = open_store(uri, num_blocks=max(REPLAY_BLOCKS * 2, 4096))
    replay_seconds = time.monotonic() - t0
    replay_snap = reopened.snapshot()
    results["replay"] = {
        "transactions": int(replay_snap.extra["replayed_transactions"]),
        "blocks": int(replay_snap.extra["replayed_blocks"]),
        "seconds": replay_seconds,
        "journal_seconds": reopened.journal_stats.replay_seconds,
    }
    reopened.close()
    return results


def print_journal_report(results: dict) -> None:
    """Journal on/off comparison plus the replay measurement."""
    print(f"\nJournal ablation — system: {results['system']}")
    header = f"  {'Backend':<24}" + "".join(f"{p:>14}" for p in PHASES)
    print(header)
    print(f"  {'(throughput K/sec)':<24}")
    for label, row in results["bonnie"].items():
        cells = "".join(f"{row.kps(p):>14.0f}" for p in PHASES)
        print(f"  {label:<24}{cells}")
    print(
        f"\n  {'Backend':<24}{'log.writes':>11}{'phys.writes':>12}"
        f"{'fsyncs':>8}{'txns':>7}{'blk/txn':>9}"
    )
    for label, dev in results["device"].items():
        per_txn = (dev["journal_blocks"] / dev["journal_txns"]
                   if dev["journal_txns"] else 0.0)
        print(
            f"  {label:<24}{dev['writes']:>11}{dev['physical_writes']:>12}"
            f"{dev['fsyncs']:>8}{dev['journal_txns']:>7}{per_txn:>9.1f}"
        )
    replay = results["replay"]
    print(
        f"\n  crash replay: {replay['blocks']} blocks in "
        f"{replay['transactions']} committed transactions replayed in "
        f"{replay['seconds'] * 1000:.1f} ms"
    )


#: Node counts the fanout ablation sweeps (one in-process TCP server per
#: node, each charging an emulated per-operation service latency).
FANOUT_NODE_COUNTS = (1, 2, 4, 8)


def run_fanout_ablation(
    node_counts: tuple[int, ...] = FANOUT_NODE_COUNTS,
    blocks: int = 96,
    rounds: int = 12,
    delay_ms: float = 3.0,
    slow_ms: float = 25.0,
    block_size: int = 4096,
) -> dict:
    """Sequential vs concurrent cross-node fan-out, on real TCP sockets.

    Each "node" is an in-process ``serve_store`` on its own loopback
    port, wrapping its memory store in ``slow://`` so every RPC pays
    ``delay_ms`` of emulated service latency (disk + wire time a
    same-process benchmark otherwise hides).  Two mounts of the same
    ring are timed over identical ``read_many``/``write_many``
    workloads:

    * **sequential** — ``#fanout=1`` children visited one after another
      (the pre-concurrency behaviour): a batch costs the *sum* of every
      node's share;
    * **concurrent** — ``#fanout=n`` with pooled pipelined connections
      (``?workers=2``): a batch costs roughly the *slowest* node's
      share.

    The replica half makes the quorum claim measurable: three replicas,
    one of them ``slow_ms`` behind, written at ``w=2``.  Sequential
    fan-out pays the straggler on every write; concurrent fan-out
    returns at the 2nd-fastest replica and lets the straggler finish on
    its background lane (drained before close, and reported).
    """
    import time as _time

    from repro.storage import (
        DelayedBlockStore,
        MemoryBlockStore,
        open_store,
        serve_store,
    )

    results: dict = {
        "params": {
            "blocks": blocks, "rounds": rounds, "delay_ms": delay_ms,
            "slow_ms": slow_ms, "block_size": block_size,
        },
        "shard": {},
        "replica": {},
    }
    payload = bytes(range(256)) * (block_size // 256)
    items = [(b, payload) for b in range(blocks)]
    block_nos = list(range(blocks))

    def run_workload(uri: str) -> tuple[float, float]:
        store = open_store(uri, num_blocks=blocks * 4,
                           block_size=block_size)
        try:
            t0 = _time.perf_counter()
            for _round in range(rounds):
                store.write_many(items)
            write_seconds = _time.perf_counter() - t0
            t0 = _time.perf_counter()
            for _round in range(rounds):
                datas = store.read_many(block_nos)
            read_seconds = _time.perf_counter() - t0
            assert all(d == payload for d in datas), uri
        finally:
            store.close()
        return write_seconds, read_seconds

    for n in node_counts:
        servers = [
            serve_store(
                DelayedBlockStore(
                    MemoryBlockStore(blocks * 4, block_size),
                    delay_ms=delay_ms,
                ),
                workers=4,
            )
            for _ in range(n)
        ]
        try:
            seq_children = ";".join(
                f"remote://{h}:{p}" for h, p in (s.address for s in servers)
            )
            conc_children = ";".join(
                f"remote://{h}:{p}?workers=2"
                for h, p in (s.address for s in servers)
            )
            seq_w, seq_r = run_workload(f"shard://{seq_children}#fanout=1")
            conc_w, conc_r = run_workload(
                f"shard://{conc_children}#fanout={n}"
            )
        finally:
            for server in servers:
                server.close()
        results["shard"][n] = {
            "sequential_write_s": seq_w, "concurrent_write_s": conc_w,
            "sequential_read_s": seq_r, "concurrent_read_s": conc_r,
            "write_speedup": seq_w / conc_w if conc_w else 0.0,
            "read_speedup": seq_r / conc_r if conc_r else 0.0,
        }

    # Quorum-return: 3 replicas, one straggling, written at w=2.
    delays = (delay_ms, delay_ms, slow_ms)
    servers = [
        serve_store(
            DelayedBlockStore(MemoryBlockStore(blocks * 4, block_size),
                              delay_ms=d),
            workers=4,
        )
        for d in delays
    ]
    try:
        children = ";".join(
            f"remote://{h}:{p}" for h, p in (s.address for s in servers)
        )
        for label, fanout in (("sequential", 1), ("concurrent", 3)):
            store = open_store(
                f"replica://{children}#w=2&r=2&fanout={fanout}",
                num_blocks=blocks * 4, block_size=block_size,
            )
            try:
                t0 = _time.perf_counter()
                for _round in range(rounds):
                    store.write_many(items)
                write_seconds = _time.perf_counter() - t0
                t0 = _time.perf_counter()
                store.drain()
                drain_seconds = _time.perf_counter() - t0
                results["replica"][label] = {
                    "write_ms_per_round": write_seconds * 1000 / rounds,
                    "drain_ms": drain_seconds * 1000,
                    "background_writes":
                        store.replica_stats.background_writes,
                }
            finally:
                store.close()
    finally:
        for server in servers:
            server.close()
    return results


def print_fanout_report(results: dict) -> None:
    """Sequential-vs-concurrent fan-out tables (shard ring + replica)."""
    params = results["params"]
    print(
        f"\nFan-out ablation — {params['blocks']} blocks x "
        f"{params['rounds']} rounds per cell, per-op node latency "
        f"{params['delay_ms']:g} ms (straggler {params['slow_ms']:g} ms)"
    )
    print(
        f"  {'nodes':>5}{'seq write':>11}{'conc write':>12}{'speedup':>9}"
        f"{'seq read':>10}{'conc read':>11}{'speedup':>9}"
    )
    for n, row in results["shard"].items():
        print(
            f"  {n:>5}{row['sequential_write_s']:>10.3f}s"
            f"{row['concurrent_write_s']:>11.3f}s"
            f"{row['write_speedup']:>8.1f}x"
            f"{row['sequential_read_s']:>9.3f}s"
            f"{row['concurrent_read_s']:>10.3f}s"
            f"{row['read_speedup']:>8.1f}x"
        )
    print(
        f"\n  replica w=2 over (fast, fast, {params['slow_ms']:g} ms "
        "straggler):"
    )
    print(
        f"  {'mode':<12}{'write ms/round':>15}{'drain ms':>10}"
        f"{'bg writes':>10}"
    )
    for label, row in results["replica"].items():
        print(
            f"  {label:<12}{row['write_ms_per_round']:>15.1f}"
            f"{row['drain_ms']:>10.1f}{row['background_writes']:>10}"
        )


#: (nodes_before, nodes_after) ring transitions the reshard ablation
#: walks, in order, on one live mounted store (scale out, then in).
RESHARD_TRANSITIONS = ((3, 4), (4, 3))


def run_reshard_ablation(
    transitions: tuple[tuple[int, int], ...] = RESHARD_TRANSITIONS,
    blocks: int = 1536,
    block_size: int = 4096,
    batch: int = 128,
) -> dict:
    """Live ring migrations across real TCP nodes, measured.

    Starts enough in-process ``serve_store`` nodes for the largest ring,
    mounts the first transition's ring as ``shard://remote://...``,
    writes a seeded workload, then walks each transition with the
    control plane's :func:`~repro.storage.control.reshard` — on the
    *live* mounted store, verification on.  Each row reports the cost
    axis (blocks moved vs total, wall-clock) and the safety axis (all
    payloads re-read and intact from the new ring).  Consistent hashing
    is the headline: a 3→4 transition should move ~1/4 of the blocks,
    nowhere near the ~100% a modulo placement would.
    """
    import time as _time

    from repro.storage import MemoryBlockStore, open_store, reshard, serve_store
    from repro.storage import spec as specs

    max_nodes = max(n for transition in transitions for n in transition)
    servers = [
        serve_store(MemoryBlockStore(blocks * 2, block_size), workers=2)
        for _ in range(max_nodes)
    ]
    results: dict = {
        "params": {"blocks": blocks, "block_size": block_size},
        "rows": [],
    }

    def ring_spec(n: int) -> specs.ShardSpec:
        return specs.shard(
            *(specs.remote("%s:%d" % s.address, workers=2)
              for s in servers[:n]),
            fanout=n,
        )

    def payload(block_no: int) -> bytes:
        seed = b"reshard-%d" % block_no
        return (seed * (block_size // len(seed) + 1))[:block_size]

    try:
        first = transitions[0][0]
        store = open_store(ring_spec(first), num_blocks=blocks * 2,
                           block_size=block_size)
        try:
            for start in range(0, blocks, batch):
                store.write_many([
                    (b, payload(b)) for b in range(start,
                                                   min(start + batch, blocks))
                ])
            for before, after in transitions:
                old_spec, new_spec = ring_spec(before), ring_spec(after)
                t0 = _time.perf_counter()
                report = reshard(store, old_spec, new_spec, verify=True)
                seconds = _time.perf_counter() - t0
                intact = True
                for start in range(0, blocks, batch):
                    window = list(range(start, min(start + batch, blocks)))
                    datas = store.read_many(window)
                    intact = intact and all(
                        data == payload(b) for b, data in zip(window, datas)
                    )
                results["rows"].append({
                    "before": before,
                    "after": after,
                    "total_blocks": report.total_blocks,
                    "moved_blocks": report.moved_blocks,
                    "moved_fraction": report.moved_fraction,
                    "seconds": seconds,
                    "verified": report.verified,
                    "intact": intact,
                })
        finally:
            store.close()
    finally:
        for server in servers:
            server.close()
    return results


def print_reshard_report(results: dict) -> None:
    """Blocks-moved vs total + wall-clock per ring transition."""
    params = results["params"]
    print(
        f"\nReshard ablation — {params['blocks']} blocks x "
        f"{params['block_size']}B on live remote:// rings "
        "(verification on)"
    )
    print(
        f"  {'ring':>9}{'total':>8}{'moved':>8}{'moved %':>9}"
        f"{'wall-clock':>12}{'intact':>8}"
    )
    for row in results["rows"]:
        print(
            f"  {row['before']:>4}->{row['after']:<4}"
            f"{row['total_blocks']:>7}{row['moved_blocks']:>8}"
            f"{row['moved_fraction'] * 100:>8.1f}%"
            f"{row['seconds'] * 1000:>10.1f}ms"
            f"{'yes' if row['intact'] else 'NO':>8}"
        )


#: Session mounts timed by the auth ablation's handshake row.
AUTH_MOUNTS = 8


def run_auth_ablation(
    blocks: int = 96,
    rounds: int = 12,
    block_size: int = 4096,
    mounts: int = AUTH_MOUNTS,
) -> dict:
    """Authenticated vs open served stores: what the credential gate
    costs, on real TCP sockets.

    Three mounts of the same memory-backed ``serve_store`` node are
    measured over identical ``write_many``/``read_many`` workloads:

    * **open** — no gate, the pre-auth behaviour (baseline);
    * **session (operator)** — KeyNote-gated server, whole-store
      operator session: every proc carries a token the server looks up
      and rank-checks;
    * **session (tenant)** — same gate plus a tenant table: the session
      is confined to a :class:`~repro.storage.tenant.TenantBlockStore`
      region with quota accounting on every write.

    The handshake row prices SESSION_OPEN itself (DSA challenge
    signature + compliance query, paid once per mount); the steady-state
    rows show the per-proc overhead, which is where the design earns its
    keep: authorization is a dict lookup + rank compare, not a per-call
    KeyNote query.
    """
    import time as _time

    from repro.crypto.dsa import generate_dsa_keypair
    from repro.crypto.keycodec import encode_public_key
    from repro.crypto.numbers import seeded_random_bits
    from repro.storage import MemoryBlockStore, serve_store
    from repro.storage.auth import (
        StoreAuthGate,
        TenantQuota,
        issue_store_credential,
    )
    from repro.storage.net import RemoteBlockStore

    operator = generate_dsa_keypair(
        rand=seeded_random_bits(b"auth-ablation-operator"))
    tenant_key = generate_dsa_keypair(
        rand=seeded_random_bits(b"auth-ablation-tenant"))
    policy = (
        'Authorizer: "POLICY"\n'
        f'Licensees: "{encode_public_key(operator)}"\n'
        'Conditions: (app_domain == "discfs-store") -> "admin";\n'
    )
    credential = issue_store_credential(
        operator, encode_public_key(tenant_key), "t0", rights="rw")

    payload = bytes(range(256)) * (block_size // 256)
    items = [(b, payload) for b in range(blocks)]
    block_nos = list(range(blocks))
    results: dict = {
        "params": {"blocks": blocks, "rounds": rounds,
                   "block_size": block_size, "mounts": mounts},
        "rows": {},
    }

    def measure(server, **auth) -> dict:
        host, port = server.address
        t0 = _time.perf_counter()
        for _i in range(mounts):
            RemoteBlockStore.connect(host, port, **auth).close()
        mount_seconds = _time.perf_counter() - t0
        store = RemoteBlockStore.connect(host, port, workers=2, **auth)
        try:
            t0 = _time.perf_counter()
            for _round in range(rounds):
                store.write_many(items)
            write_seconds = _time.perf_counter() - t0
            t0 = _time.perf_counter()
            for _round in range(rounds):
                datas = store.read_many(block_nos)
            read_seconds = _time.perf_counter() - t0
            assert all(d == payload for d in datas)
        finally:
            store.close()
        ops = blocks * rounds
        return {
            "mount_ms": mount_seconds * 1000 / mounts,
            "write_s": write_seconds,
            "read_s": read_seconds,
            "write_ops_s": ops / write_seconds if write_seconds else 0.0,
            "read_ops_s": ops / read_seconds if read_seconds else 0.0,
        }

    server = serve_store(MemoryBlockStore(blocks * 4, block_size),
                         workers=4)
    try:
        results["rows"]["open"] = measure(server)
    finally:
        server.close()

    server = serve_store(MemoryBlockStore(blocks * 4, block_size),
                         workers=4, gate=StoreAuthGate(policy))
    try:
        results["rows"]["session (operator)"] = measure(
            server, key=operator, rights="rw")
    finally:
        server.close()

    gate = StoreAuthGate(
        policy, tenants=[TenantQuota(name="t0", blocks=blocks * 2)])
    server = serve_store(MemoryBlockStore(blocks * 4, block_size),
                         workers=4, gate=gate)
    try:
        results["rows"]["session (tenant)"] = measure(
            server, key=tenant_key, credentials=[credential], tenant="t0")
    finally:
        server.close()
    return results


def print_auth_report(results: dict) -> None:
    """Open vs authenticated served-store comparison table."""
    params = results["params"]
    print(
        f"\nAuth ablation — {params['blocks']} blocks x "
        f"{params['rounds']} rounds per cell, {params['block_size']}B "
        f"blocks, handshake averaged over {params['mounts']} mounts"
    )
    print(
        f"  {'mount':<20}{'handshake ms':>13}{'write ops/s':>13}"
        f"{'read ops/s':>12}{'write cost':>12}{'read cost':>11}"
    )
    base = results["rows"].get("open")
    for label, row in results["rows"].items():
        write_cost = (base["write_s"] and
                      (row["write_s"] / base["write_s"] - 1) * 100
                      if base else 0.0)
        read_cost = (base["read_s"] and
                     (row["read_s"] / base["read_s"] - 1) * 100
                     if base else 0.0)
        print(
            f"  {label:<20}{row['mount_ms']:>13.1f}"
            f"{row['write_ops_s']:>13.0f}{row['read_ops_s']:>12.0f}"
            f"{write_cost:>11.1f}%{read_cost:>10.1f}%"
        )


def run_metered_ablation(
    blocks: int = 256,
    rounds: int = 40,
    block_size: int = 4096,
) -> dict:
    """Price the observability layer itself: ``mem://`` vs
    ``metered://mem://`` over identical vectored workloads.

    The metered wrapper's untraced fast path is a ``perf_counter`` pair
    plus one histogram bucket increment per call — the ablation verifies
    that stays in the noise (the acceptance bar is <10% on the fastest
    backend we have, where there is nothing to hide behind), and reads
    the p50/p99 latency the wrapper itself observed back out of the
    stats extras.
    """
    import time as _time

    from repro.obs.metrics import get_registry
    from repro.storage import open_store

    payload = bytes(range(256)) * (block_size // 256)
    items = [(b, payload) for b in range(blocks)]
    block_nos = list(range(blocks))
    results: dict = {
        "params": {"blocks": blocks, "rounds": rounds,
                   "block_size": block_size},
        "rows": {},
    }

    def measure(uri: str) -> dict:
        get_registry().reset()
        store = open_store(uri, num_blocks=blocks * 2,
                           block_size=block_size)
        try:
            store.write_many(items)  # warm-up, excluded from timing
            t0 = _time.perf_counter()
            for _round in range(rounds):
                store.write_many(items)
            write_seconds = _time.perf_counter() - t0
            t0 = _time.perf_counter()
            for _round in range(rounds):
                datas = store.read_many(block_nos)
            read_seconds = _time.perf_counter() - t0
            assert all(d == payload for d in datas)
            extra = dict(store.snapshot().extra)
        finally:
            store.close()
        ops = blocks * rounds
        row = {
            "write_s": write_seconds,
            "read_s": read_seconds,
            "write_ops_s": ops / write_seconds if write_seconds else 0.0,
            "read_ops_s": ops / read_seconds if read_seconds else 0.0,
        }
        for op in ("write_many", "read_many"):
            for quantile in ("p50", "p99"):
                key = f"lat:mem:{op}:{quantile}"
                if key in extra:
                    row[f"{op}_{quantile}_ms"] = extra[key]
        return row

    results["rows"]["mem://"] = measure("mem://")
    results["rows"]["metered://mem://"] = measure("metered://mem://")
    base = results["rows"]["mem://"]
    inst = results["rows"]["metered://mem://"]
    results["overhead"] = {
        "write_pct": (inst["write_s"] / base["write_s"] - 1) * 100
        if base["write_s"] else 0.0,
        "read_pct": (inst["read_s"] / base["read_s"] - 1) * 100
        if base["read_s"] else 0.0,
    }
    return results


def print_metered_report(results: dict) -> None:
    """Metered vs bare backend comparison table."""
    params = results["params"]
    print(
        f"\nMetered ablation — {params['blocks']} blocks x "
        f"{params['rounds']} rounds per cell, {params['block_size']}B "
        f"blocks, vectored ops"
    )
    print(
        f"  {'backend':<22}{'write ops/s':>13}{'read ops/s':>12}"
        f"{'w p50/p99 ms':>15}{'r p50/p99 ms':>15}"
    )
    for label, row in results["rows"].items():
        def lat(op: str, row: dict = row) -> str:
            p50 = row.get(f"{op}_p50_ms")
            p99 = row.get(f"{op}_p99_ms")
            if p50 is None:
                return "-"
            return f"{p50:.3f}/{p99:.3f}"

        print(
            f"  {label:<22}{row['write_ops_s']:>13.0f}"
            f"{row['read_ops_s']:>12.0f}{lat('write_many'):>15}"
            f"{lat('read_many'):>15}"
        )
    overhead = results["overhead"]
    print(
        f"  metering overhead: write {overhead['write_pct']:+.1f}%, "
        f"read {overhead['read_pct']:+.1f}%"
    )


def print_report(results: dict) -> None:
    systems = list(results["bonnie"])
    for phase in PHASES:
        print(f"\n{_FIGURES[phase]}")
        print(f"  {'Filesystem':<14} {'Throughput (K/sec)':>20}")
        for system in systems:
            kps = results["bonnie"][system].kps(phase)
            print(f"  {system:<14} {kps:>20.0f}")
    print("\nFigure 12: Filesystem Search")
    print(f"  {'Filesystem':<14} {'Time (sec)':>12} {'files':>7}")
    for system in systems:
        sr = results["search"][system]
        print(f"  {system:<14} {sr.seconds:>12.3f} {sr.files_scanned:>7}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--file-size", type=int, default=1 << 21,
                        help="Bonnie block-phase file size in bytes")
    parser.add_argument("--char-size", type=int, default=1 << 18,
                        help="Bonnie per-char phase size in bytes")
    parser.add_argument("--systems", nargs="*", default=list(PAPER_SYSTEMS))
    parser.add_argument("--cache", type=int, default=128,
                        help="DisCFS policy cache capacity")
    parser.add_argument("--backends", nargs="*", metavar="URI",
                        help="also run the storage-backend ablation over "
                             "these URIs (no URIs = the default sweep)")
    parser.add_argument("--replication", nargs="*", metavar="URI",
                        help="also run the replication/remote ablation "
                             "(no URIs = the default replica sweep)")
    parser.add_argument("--journal", action="store_true",
                        help="also run the journal (crash-recovery) "
                             "ablation: on/off x file/sqlite, fsync "
                             "counts, replay time")
    parser.add_argument("--fanout", action="store_true",
                        help="also run the concurrent fan-out ablation: "
                             "sequential vs concurrent shard/replica "
                             "I/O across 1/2/4/8 in-process TCP nodes")
    parser.add_argument("--reshard", action="store_true",
                        help="also run the reshard ablation: live ring "
                             "migrations across in-process TCP nodes "
                             "(blocks moved vs total, wall-clock)")
    parser.add_argument("--auth", action="store_true",
                        help="also run the auth ablation: open vs "
                             "credential-gated served stores (handshake "
                             "latency, per-proc session overhead)")
    parser.add_argument("--metered", action="store_true",
                        help="also run the metered ablation: mem:// vs "
                             "metered://mem:// (what the observability "
                             "layer itself costs, plus its p50/p99 "
                             "readback)")
    parser.add_argument("--emit-trajectory", metavar="DIR", default=None,
                        help="append one schema-versioned record per "
                             "ablation to DIR/BENCH_<topic>.json "
                             "(ops/s, p50/p99, fsyncs, git sha, date — "
                             "the nightly perf trajectory)")
    args = parser.parse_args()

    def emit_trajectory(topic: str, fields: dict) -> None:
        if args.emit_trajectory is None:
            return
        from repro.obs.trajectory import append_record

        path = append_record(topic, fields,
                             directory=args.emit_trajectory)
        print(f"trajectory: appended {topic!r} record to {path}")

    results = run_evaluation(
        systems=tuple(args.systems),
        file_size=args.file_size,
        char_size=args.char_size,
        cache_capacity=args.cache,
    )
    print_report(results)
    if args.backends is not None:
        backends = tuple(args.backends) if args.backends else DEFAULT_BACKENDS
        print_backend_report(run_backend_ablation(
            backends, file_size=args.file_size, char_size=args.char_size,
        ))
    if args.replication is not None:
        configs = tuple(args.replication) if args.replication \
            else DEFAULT_REPLICA_CONFIGS
        print_replication_report(run_replication_ablation(
            configs, file_size=args.file_size, char_size=args.char_size,
        ))
    if args.journal:
        journal_results = run_journal_ablation(
            file_size=args.file_size, char_size=args.char_size,
        )
        print_journal_report(journal_results)
        fields: dict = {
            "replay_ms": journal_results["replay"]["seconds"] * 1000.0,
            "replay_blocks": journal_results["replay"]["blocks"],
        }
        for label, dev in journal_results["device"].items():
            slug = label.replace(" ", "_")
            fields[f"{slug}:fsyncs"] = dev["fsyncs"]
            if dev["writes"]:
                fields[f"{slug}:write_amplification"] = (
                    dev["physical_writes"] / dev["writes"])
        emit_trajectory("journal", fields)
    if args.fanout:
        print_fanout_report(run_fanout_ablation())
    if args.reshard:
        print_reshard_report(run_reshard_ablation())
    if args.auth:
        auth_results = run_auth_ablation()
        print_auth_report(auth_results)
        fields = {}
        for label, row in auth_results["rows"].items():
            slug = label.replace(" ", "_").strip("()").replace("(", "") \
                .replace(")", "")
            fields[f"{slug}:write_ops_s"] = row["write_ops_s"]
            fields[f"{slug}:read_ops_s"] = row["read_ops_s"]
            fields[f"{slug}:mount_ms"] = row["mount_ms"]
        emit_trajectory("auth", fields)
    if args.metered:
        metered_results = run_metered_ablation()
        print_metered_report(metered_results)
        row = metered_results["rows"]["metered://mem://"]
        fields = {
            "write_ops_s": row["write_ops_s"],
            "read_ops_s": row["read_ops_s"],
            "write_overhead_pct": metered_results["overhead"]["write_pct"],
            "read_overhead_pct": metered_results["overhead"]["read_pct"],
        }
        for key in ("write_many_p50_ms", "write_many_p99_ms",
                    "read_many_p50_ms", "read_many_p99_ms"):
            if key in row:
                fields[key] = row[key]
        emit_trajectory("metered", fields)


if __name__ == "__main__":
    main()
