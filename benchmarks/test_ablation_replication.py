"""Ablation: replication factor, quorum settings, and RPC batching.

The distributed axis of the storage evaluation.  ``replica://`` buys
redundancy with physical write amplification (each logical write fans
out to every child), and ``remote://`` pays a round trip per operation
unless the vectored ``read_many``/``write_many`` path batches them —
this bench measures both costs over the Bonnie phases.

``test_replication_comparison_table`` routes the sweep through the
report harness (``repro.bench.report.run_replication_ablation``; run
with ``-s`` to see the table, or
``python -m repro.bench.report --replication`` standalone) and asserts
the two headline numbers: physical writes scale with the replica
factor, and batching cuts RPC round trips by an order of magnitude.
"""

import pytest

from repro.bench.bonnie import phase_input_block, phase_output_block
from repro.bench.harness import make_target
from repro.bench.report import print_replication_report, run_replication_ablation

from conftest import BONNIE_PATH, FILE_SIZE, prepare_file

#: config-id -> replica URI swept by the phase benchmarks.
REPLICA_CONFIGS = {
    "baseline": "mem://",
    "replica2": "replica://2",
    "replica3": "replica://3",
    "replica3-q22": "replica://3?w=2&r=2",
    "replica5-q33": "replica://5?w=3&r=3",
}


@pytest.fixture(params=list(REPLICA_CONFIGS), ids=list(REPLICA_CONFIGS))
def replica_built(request):
    built = make_target("FFS", backend=REPLICA_CONFIGS[request.param])
    yield request.param, built
    built.fs.device.close()


@pytest.mark.benchmark(group="ablation-replication-write")
def test_output_block_by_replication(benchmark, replica_built):
    name, built = replica_built
    result = benchmark(phase_output_block, built.target, BONNIE_PATH, FILE_SIZE)
    assert result.nbytes == FILE_SIZE
    benchmark.extra_info["config"] = REPLICA_CONFIGS[name]
    benchmark.extra_info["kps"] = round(result.kps)


@pytest.mark.benchmark(group="ablation-replication-read")
def test_input_block_by_replication(benchmark, replica_built):
    name, built = replica_built
    prepare_file(built.target, BONNIE_PATH, FILE_SIZE)
    result = benchmark(phase_input_block, built.target, BONNIE_PATH, FILE_SIZE)
    assert result.nbytes == FILE_SIZE
    benchmark.extra_info["config"] = REPLICA_CONFIGS[name]
    benchmark.extra_info["kps"] = round(result.kps)


@pytest.mark.benchmark(group="ablation-replication-degraded")
def test_output_block_degraded_one_node_down(benchmark):
    """Throughput with one of three replicas failed (w=2 keeps going):
    the price of writing through an outage."""
    from repro.bench.targets import LocalFFSTarget
    from repro.fs.ffs import FFS
    from repro.storage import (FailingBlockStore, MemoryBlockStore,
                               ReplicatedBlockStore)

    children = [FailingBlockStore(MemoryBlockStore(num_blocks=1 << 15))
                for _ in range(3)]
    children[0].fail()
    store = ReplicatedBlockStore(children, write_quorum=2, read_quorum=2)
    fs = FFS(store)
    target = LocalFFSTarget(fs, name="FFS")
    result = benchmark(phase_output_block, target, BONNIE_PATH, FILE_SIZE)
    assert result.nbytes == FILE_SIZE
    assert store.replica_stats.degraded_writes > 0
    benchmark.extra_info["kps"] = round(result.kps)


def test_replication_comparison_table(capsys):
    """Full sweep through the report harness, with the two acceptance
    assertions: physical-write amplification tracks the replica factor,
    and batched remote I/O needs far fewer RPC round trips."""
    results = run_replication_ablation(
        file_size=FILE_SIZE, char_size=32 * 1024
    )
    with capsys.disabled():
        print_replication_report(results)

    for uri, bonnie in results["bonnie"].items():
        assert all(bonnie.kps(p) > 0 for p in bonnie.phases), uri

    # Write amplification: physical writes ~= replicas x logical writes
    # (read-one keeps physical reads near logical).
    for uri, dev in results["device"].items():
        if dev["replicas"] > 1:
            assert dev["physical_writes"] >= dev["replicas"] * dev["writes"] * 0.9, uri

    # Batching is the distributed-viability claim: the same Bonnie
    # workload in a fraction of the round trips.
    batched = results["rpc"]["remote (batched)"]
    per_block = results["rpc"]["remote (per-block)"]
    assert batched["reads"] == per_block["reads"]
    assert batched["writes"] == per_block["writes"]
    assert batched["round_trips"] * 4 < per_block["round_trips"], (
        batched, per_block
    )
