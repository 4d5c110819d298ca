"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.core import DisCFSClient  # noqa: E402

from perfbench.tracing import THREAD_LAYERS, SeamProxy, Tracer, timed_call  # noqa: E402
from perfbench.workloads import WORKLOADS, Sizes, run  # noqa: E402

TINY = Sizes(bonnie_bytes=64 << 10, directories=2, files_per_directory=5,
             max_file_bytes=20_000, timed_passes=1, setups_per_run=2)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny_run(workload, tmp_path, trace=False, seed=7):
    return run(workload, seed, 0, trace, sizes=TINY, workdir=str(tmp_path),
               trace_path=str(tmp_path / "spans.tsv") if trace else None)


def test_spec_names_workloads_the_code_runs():
    # bonnie-durable runs but is left out of the gated set (README).
    assert [w["name"] for w in SPEC["workloads"]] == ["bonnie-mem", "srctree"]
    assert set(WORKLOADS) == {"bonnie-mem", "srctree", "bonnie-durable"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_appears_with_its_unit(workload, tmp_path):
    result = tiny_run(workload, tmp_path)
    assert result.correct, result.problem
    assert result.failed == 0 and result.attempted > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    for name, (value, _) in result.metrics.items():
        assert value > 0 and math.isfinite(value), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_accounts_for_its_time(workload, tmp_path):
    result = tiny_run(workload, tmp_path, trace=True)
    assert result.correct, result.problem
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    m = {k: v for k, (v, _) in result.metrics.items()}
    self_times = [m[f"{layer}.self_us"] for layer in THREAD_LAYERS]
    assert all(t >= 0 for t in self_times)
    assert sum(self_times) == pytest.approx(m["trace.op_us"], rel=1e-9)
    assert 0 < m["core.share"] < 1
    assert m["trace.overhead"] > 0
    if workload == "bonnie-durable":
        assert m["storage.served.us"] > 0 and m["storage.net.self_us"] > 0
    else:
        assert m["storage.served.us"] == 0
    assert (tmp_path / "spans.tsv").stat().st_size > 0


def test_counts_repeat_exactly_per_seed(tmp_path):
    first = tiny_run("srctree", tmp_path, trace=True)
    second = tiny_run("srctree", tmp_path, trace=True)
    for name in ("nfs.calls", "core.cache.lookups", "core.cache.hit_ratio",
                 "keynote.evals", "core.credentials.mints", "storage.writes"):
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["nfs.calls"][0] == int(first.metrics["nfs.calls"][0])


def _corrupt_reads(monkeypatch, damage):
    real = DisCFSClient.read

    def read(self, fh, offset, count):
        return damage(real(self, fh, offset, count))

    monkeypatch.setattr(DisCFSClient, "read", read)


def test_corrupted_bonnie_read_back_fails_the_check(tmp_path, monkeypatch):
    _corrupt_reads(monkeypatch, lambda data: data[:-1] + bytes((data[-1] ^ 1,)))
    result = tiny_run("bonnie-mem", tmp_path)
    assert not result.correct
    assert "Bonnie" in result.problem
    assert result.metrics == {}


def test_corrupted_srctree_read_fails_the_check(tmp_path, monkeypatch):
    _corrupt_reads(monkeypatch, lambda data: data.replace(b"\n", b" ", 1))
    result = tiny_run("srctree", tmp_path)
    assert not result.correct
    assert "manifest" in result.problem


def test_seam_proxy_self_times_partition_the_root_span():
    tracer = Tracer()

    class Leaf:
        def work(self, n):
            return sum(range(n))

    class Middle:
        def __init__(self, leaf):
            self.leaf = leaf

        def work(self, n):
            return self.leaf.work(n) + self.leaf.work(n)

    leaf = SeamProxy(Leaf(), "device", tracer)
    middle = SeamProxy(Middle(leaf), "vfs", tracer)
    root = timed_call(lambda: middle.work(1000), "client.op", tracer)
    tracer.active = True
    for _ in range(5):
        assert root() == 2 * sum(range(1000))
    tracer.active = False
    root()  # untraced calls record nothing
    assert len(tracer) == 5 * 4
    self_ns, roots, root_ns = tracer.layer_self_ns()
    assert roots == 5
    assert all(ns >= 0 for ns in self_ns.values())
    assert sum(self_ns.values()) == root_ns
    assert self_ns["fs"] > 0 and self_ns["storage"] > 0


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bonnie-mem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
