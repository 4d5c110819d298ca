"""The benchmark's workloads, driven through DisCFS's public API.

Every workload is a closed loop with one client and one request
outstanding: the benchmark issues an NFS call through ``DisCFSClient``,
waits for its reply, then issues the next.  Work is organised in *units*:
one unit sets up a fresh server and client, then runs a fixed, seeded
sequence of calls.  All units of a run are identical, so the counts a
unit produces (NFS calls, cache lookups, KeyNote evaluations, blocks
moved) repeat exactly per seed.  A run repeats units until its time is
up and reports medians over them.

``bonnie-mem`` / ``bonnie-durable``
    Bonnie's block phases on one file: output (WRITE each 8 KiB block),
    rewrite (READ a block, dirty its first byte, WRITE it back) and input
    (READ each block).  The file system sits on ``mem://``, or on
    ``remote://`` to a store served in-process over loopback TCP from
    ``journal://file://``.
``srctree``
    Build a tree of small C-like files (MKDIR, CREATE, WRITE), then walk
    and read it as the paper's Fig 12 search does (READDIR, LOOKUP,
    READ): one warm-up pass, then timed passes.

The program only ever sees the generated inputs; the seed stays here.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import resource
import shutil
import statistics
import tempfile
from array import array
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter_ns

from repro.core import Administrator, DisCFSClient, DisCFSServer, Permission
from repro.errors import ReproError
from repro.keynote.parser import parse_assertion
from repro.storage import open_store, serve_store

from perfbench.hostspeed import REFERENCE_NS, HostClock
from perfbench.tracing import THREAD_LAYERS, SeamProxy, Tracer, timed_call

CHUNK = 8192  # NFSv2's largest transfer, Bonnie's block unit
BONNIE_FILES = 8  # chunk files Bonnie's test file is split into
MIN_FILE_BYTES = 256  # smallest srctree file

WORKLOADS = ("bonnie-mem", "srctree", "bonnie-durable")


class CheckFailed(Exception):
    """An output of the program differs from what the inputs imply."""


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    """How much work one unit does.  The defaults are the benchmark's; the
    tests shrink them."""

    bonnie_bytes: int = 2 << 20
    directories: int = 16
    files_per_directory: int = 41
    max_file_bytes: int = 12_288
    timed_passes: int = 2
    setups_per_run: int = 9


_C_LINES = (
    b"#include <sys/param.h>", b"#include <sys/systm.h>", b"static int",
    b"struct proc *p;", b"int error = 0;", b"if (error != 0)",
    b"\treturn (error);", b"splx(s);", b"simple_lock(&map->lock);",
    b"KASSERT(vp != NULL);", b"/* XXX should be per-cpu */",
    b"bzero(&sa, sizeof(sa));", b"for (i = 0; i < n; i++) {", b"}",
    b'printf("%s: watchdog timeout\\n", sc->sc_dev.dv_xname);',
)

_DIR_NAMES = (
    "kern", "uvm", "net", "netinet", "nfs", "ufs", "dev", "arch",
    "crypto", "ddb", "isofs", "miscfs", "altq", "lib", "scsi", "pci",
)


@dataclass(frozen=True)
class SourceFile:
    directory: str
    name: str
    offset: int  # into the tree's text buffer
    size: int
    lines: int


@dataclass(frozen=True)
class SourceTree:
    """A seeded tree: every file is a slice of one precomputed text buffer,
    so generating and checking content costs a few C-level calls."""

    text: bytes
    directories: tuple[str, ...]
    files: tuple[SourceFile, ...]

    def content(self, f: SourceFile) -> bytes:
        return self.text[f.offset : f.offset + f.size]


def make_tree(seed: int, sizes: Sizes) -> SourceTree:
    rng = random.Random(f"srctree/{seed}")
    text = b"\n".join(rng.choices(_C_LINES, k=8192)) + b"\n"
    limit = min(sizes.max_file_bytes, len(text) // 2)
    directories = tuple(
        f"{_DIR_NAMES[d % len(_DIR_NAMES)]}{d // len(_DIR_NAMES) or ''}"
        for d in range(sizes.directories)
    )
    files = []
    for directory in directories:
        for i in range(sizes.files_per_directory):
            size = rng.randint(MIN_FILE_BYTES, limit)
            offset = rng.randrange(len(text) - size)
            ext = ".c" if rng.random() < 0.7 else ".h"
            lines = text.count(b"\n", offset, offset + size)
            files.append(SourceFile(directory, f"f{i:03d}{ext}", offset, size, lines))
    return SourceTree(text, directories, tuple(files))


def bonnie_pattern(seed: int, nbytes: int) -> bytes:
    return random.Random(f"bonnie/{seed}").randbytes(nbytes)


def rewritten(pattern: bytes) -> bytes:
    """The file after Bonnie's rewrite phase: each block's first byte
    flipped."""
    out = bytearray(pattern)
    for offset in range(0, len(out), CHUNK):
        out[offset] ^= 0xFF
    return bytes(out)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Mount:
    server: DisCFSServer
    client: DisCFSClient
    root: object

    def close(self) -> None:
        self.client.close()
        self.server.fs.device.close()


class CallCounter:
    """Counts every request the client puts on its transport."""

    def __init__(self, transport) -> None:
        self.inner = transport
        self.calls = 0

    def call(self, request: bytes) -> bytes:
        self.calls += 1
        return self.inner.call(request)

    def close(self) -> None:
        self.inner.close()


def set_up(backend: str, seed: int) -> Mount:
    """Server and client construction, key setup and the workspace grant:
    what ``setup_s`` times."""
    admin = Administrator.generate(seed=f"admin/{seed}".encode())
    user_key = Administrator.generate(seed=f"user/{seed}".encode()).key
    issuer_key = Administrator.generate(seed=f"issuer/{seed}".encode()).key
    server = DisCFSServer(admin_identity=admin.identity, backend=backend,
                          issuer_key=issuer_key)
    admin.trust_server(server)
    # Identity is bound at the transport (no IKE/ESP), as in the paper's
    # measurements: the channel's cryptography is not what is compared.
    client = DisCFSClient.connect(server, user_key, secure=False)
    client.transport = CallCounter(client.transport)
    root = client.attach("/")
    workspace = admin.grant_inode(
        client.identity, server.fs.iget(server.fs.root_ino),
        rights=Permission.all(), scheme=server.handle_scheme, subtree=True,
        comment="benchmark workspace",
    )
    client.submit_credential(workspace)
    return Mount(server, client, root)


# ---------------------------------------------------------------------------
# Tracing hook-up
# ---------------------------------------------------------------------------


@dataclass
class LayerCounts:
    """Counts taken at the seams during traced units."""

    controller: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    evals: int = 0
    session_adds: int = 0
    mints: int = 0
    audits: int = 0
    vfs: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    block_size: int = 0
    dispatches: int = 0
    wire_bytes: int = 0

    def observer(self, attr: str):
        def observe(method, args, result) -> None:
            setattr(self, attr, getattr(self, attr) + 1)
        return observe

    def observe_cache(self, method, args, result) -> None:
        if method == "get":
            self.cache_lookups += 1
            self.cache_hits += result is not None

    def observe_session(self, method, args, result) -> None:
        if method.startswith("add_credential"):
            self.session_adds += 1

    def observe_issuer(self, method, args, result) -> None:
        if method == "grant":
            self.mints += 1

    def observe_device(self, method, args, result) -> None:
        # By method name only: single-block and vectored forms both count.
        if method.startswith("read"):
            self.blocks_read += len(args[0]) if method.endswith(("s", "many")) else 1
        elif method.startswith("write"):
            self.blocks_written += len(args[0]) if method.endswith(("s", "many")) else 1

    def observe_transport(self, method, args, result) -> None:
        if method == "call":
            self.wire_bytes += len(args[0]) + len(result)


def install_probes(mount: Mount, tracer: Tracer, counts: LayerCounts) -> None:
    """Wrap the server's and client's public seams with timing proxies."""
    server, nfs = mount.server, mount.server.nfs_program
    counter = mount.client.transport  # the CallCounter set_up installed
    counter.inner = SeamProxy(counter.inner, "transport", tracer,
                              counts.observe_transport)
    nfs.dispatch = timed_call(nfs.dispatch, "nfs.dispatch", tracer,
                              counts.observer("dispatches"))
    nfs.controller = SeamProxy(nfs.controller, "controller", tracer,
                               counts.observer("controller"))
    nfs.vfs = SeamProxy(nfs.vfs, "vfs", tracer, counts.observer("vfs"))
    server.cache = SeamProxy(server.cache, "cache", tracer, counts.observe_cache)
    server.engine = SeamProxy(server.engine, "engine", tracer,
                              counts.observer("evals"))
    server.audit = SeamProxy(server.audit, "audit", tracer,
                             counts.observer("audits"))
    server.issuer = SeamProxy(server.issuer, "issuer", tracer,
                              counts.observe_issuer)
    server.session = SeamProxy(server.session, "session", tracer,
                               counts.observe_session)
    counts.block_size = server.fs.device.block_size
    server.fs.device = SeamProxy(server.fs.device, "device", tracer,
                                 counts.observe_device)


# ---------------------------------------------------------------------------
# Driving calls
# ---------------------------------------------------------------------------


class Driver:
    """Issues each NFS call, times it, and counts it.

    Every call the workloads make goes through :meth:`call`, which makes
    exactly one NFS round trip.  CREATE and MKDIR latencies are kept apart
    from all other calls': they mint a credential, cost tens of times
    more, and have metrics of their own.  A call that raises (a denial
    included) counts as failed and ends the run.
    """

    def __init__(self) -> None:
        self.latency_ns = array("d")  # reference ns, as are all times below
        self.create_ns = array("d")
        self.attempted = 0
        self.failed = 0
        self.written_bytes = 0
        self.kinds: Counter[str] = Counter()
        self.tracer: Tracer | None = None
        self.clock = HostClock()

    def call(self, kind: str, fn, *args):
        self.attempted += 1
        self.kinds[kind] += 1
        tracer = self.tracer
        try:
            if tracer is None:
                start = perf_counter_ns()
                result = fn(*args)
                end = perf_counter_ns()
            else:
                index = tracer.begin(f"client.{kind}")
                try:
                    result = fn(*args)
                finally:
                    tracer.finish(index)
                start, end = tracer.start[index], tracer.end[index]
        except ReproError as exc:
            self.failed += 1
            raise CheckFailed(f"{kind} failed: {exc!r}") from exc
        elapsed = self.clock.scale(end - start)
        if kind in ("create", "mkdir"):
            self.create_ns.append(elapsed)
        else:
            self.latency_ns.append(elapsed)
        self.clock.tick(end)
        return result


def check_credentials(mount: Mount, credentials: list) -> None:
    for text in credentials:
        if text is None:
            raise CheckFailed("CREATE/MKDIR returned no creator credential")
        assertion = parse_assertion(text)
        if mount.client.identity not in assertion.licensee_principals():
            raise CheckFailed("creator credential does not name the creator")


def read_whole(d: Driver, client, fh, size: int) -> bytes:
    chunks = []
    offset = 0
    while offset < size:
        chunk = d.call("read", client.read, fh, offset, CHUNK)
        if not chunk:
            break
        chunks.append(chunk)
        offset += len(chunk)
    return b"".join(chunks)


def list_directory(d: Driver, client, fh) -> list[str]:
    names: list[str] = []
    cookie = 0
    while True:
        entries, eof = d.call("readdir", client.nfs.readdir, fh, cookie)
        names.extend(name for _, name, _ in entries if name not in (".", ".."))
        if eof or not entries:
            return names
        cookie = entries[-1][2]


def walk_and_read(d: Driver, mount: Mount) -> dict[tuple[str, ...], bytes]:
    """The search: list every directory, look up every file, read it."""
    client = mount.client
    found: dict[tuple[str, ...], bytes] = {}
    pending = [((), mount.root)]
    while pending:
        path, dir_fh = pending.pop()
        for name in list_directory(d, client, dir_fh):
            fh, attr = d.call("lookup", client.lookup, dir_fh, name)
            if attr.is_dir:
                pending.append((path + (name,), fh))
            else:
                found[path + (name,)] = read_whole(d, client, fh, attr.size)
    return found


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------


@dataclass
class UnitResult:
    """A unit's phase times, in reference ns (``perfbench.hostspeed``)."""

    phase_ns: dict[str, float]  # write (output or build), rewrite, read
    phase_bytes: dict[str, int]
    search_ns: list[float]


class BonnieUnit:
    """Bonnie's block phases over its test file, split into chunk files as
    Bonnie does for large sizes.  The chunk files are created before the
    output phase, so the phases time data calls only; the creates (under
    1% of a unit's calls) give ``create_*`` their samples here."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        pattern = bonnie_pattern(seed, sizes.bonnie_bytes)
        per_file = -(-len(pattern) // BONNIE_FILES)
        self.files = [
            (f"Bonnie.{k:03d}", [pattern[o : o + CHUNK]
                                 for o in range(k * per_file, min((k + 1) * per_file,
                                                                  len(pattern)), CHUNK)])
            for k in range(BONNIE_FILES)
        ]
        self.pattern = pattern
        self.expected = {(name,): rewritten(b"".join(blocks))
                         for name, blocks in self.files}
        self.nbytes = len(pattern)

    def run(self, d: Driver, mount: Mount) -> UnitResult:
        client, nbytes = mount.client, self.nbytes
        handles, credentials = [], []
        for name, _ in self.files:
            fh, credential = d.call("create", client.create, mount.root, name)
            handles.append(fh)
            credentials.append(credential)

        start = d.clock.now()
        for fh, (_, blocks) in zip(handles, self.files):
            for i, block in enumerate(blocks):
                d.call("write", client.write, fh, i * CHUNK, block)
        output_ns = d.clock.now() - start

        seen = []
        start = d.clock.now()
        for fh, (_, blocks) in zip(handles, self.files):
            for i in range(len(blocks)):
                block = d.call("read", client.read, fh, i * CHUNK, CHUNK)
                seen.append(block)
                d.call("write", client.write, fh, i * CHUNK,
                       bytes((block[0] ^ 0xFF,)) + block[1:])
        rewrite_ns = d.clock.now() - start

        start = d.clock.now()
        found = walk_and_read(d, mount)
        input_ns = d.clock.now() - start

        d.written_bytes += 2 * nbytes
        if b"".join(seen) != self.pattern:
            raise CheckFailed("Bonnie rewrite read back other bytes than written")
        if found != self.expected:
            raise CheckFailed("Bonnie read-back differs from the seeded pattern")
        check_credentials(mount, credentials)
        return UnitResult(
            phase_ns={"write": output_ns, "rewrite": rewrite_ns, "read": input_ns},
            phase_bytes={"write": nbytes, "rewrite": nbytes, "read": nbytes},
            search_ns=[input_ns],
        )


class SourceTreeUnit:
    """Build the seeded tree, rewrite it in place, then search it."""

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.tree = make_tree(seed, sizes)
        self.passes = sizes.timed_passes
        tree = self.tree
        self.expected = {
            (f.directory, f.name): (f.size, f.lines) for f in tree.files
        }
        self.nbytes = sum(f.size for f in tree.files)

    def run(self, d: Driver, mount: Mount) -> UnitResult:
        client, tree = mount.client, self.tree
        credentials = []
        handles = {}
        start = d.clock.now()
        for name in tree.directories:
            fh, credential = d.call("mkdir", client.mkdir, mount.root, name)
            handles[name] = fh
            credentials.append(credential)
        files = []
        for f in tree.files:
            fh, credential = d.call("create", client.create, handles[f.directory], f.name)
            credentials.append(credential)
            files.append(fh)
            data = tree.content(f)
            for offset in range(0, f.size, CHUNK):
                d.call("write", client.write, fh, offset, data[offset : offset + CHUNK])
        build_ns = d.clock.now() - start

        # Rewrite: read each file and write it back in place, a block at a
        # time, as Bonnie's rewrite phase does.
        start = d.clock.now()
        for f, fh in zip(tree.files, files):
            for offset in range(0, f.size, CHUNK):
                block = d.call("read", client.read, fh, offset, CHUNK)
                d.call("write", client.write, fh, offset, block)
        rewrite_ns = d.clock.now() - start
        d.written_bytes += 2 * self.nbytes

        search_ns = []
        for n in range(1 + self.passes):
            start = d.clock.now()
            found = walk_and_read(d, mount)
            counts = {path: (len(data), data.count(b"\n"))
                      for path, data in found.items()}
            elapsed = d.clock.now() - start
            if counts != self.expected:
                raise CheckFailed("srctree byte/line counts differ from the manifest")
            if n:
                search_ns.append(elapsed)
        check_credentials(mount, credentials)
        return UnitResult(
            phase_ns={"write": build_ns, "rewrite": rewrite_ns,
                      "read": statistics.median(search_ns)},
            phase_bytes={"write": self.nbytes, "rewrite": self.nbytes,
                         "read": self.nbytes},
            search_ns=search_ns,
        )


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class DurableStore:
    """``journal://file://`` served in-process over loopback TCP, with one
    connection thread answering the file system's ``remote://`` mount."""

    def __init__(self, workdir: str, tracer: Tracer | None) -> None:
        path = os.path.join(workdir, "durable.img")
        self.store = open_store(f"journal://file://{path}", num_blocks=4096)
        handed = self.store if tracer is None else SeamProxy(
            self.store, "served", tracer)
        self.server = serve_store(handed, workers=0)
        host, port = self.server.address
        self.uri = f"remote://{host}:{port}"

    def close(self) -> None:
        self.server.close()
        self.store.close()


@dataclass
class Run:
    """What one invocation measured."""

    workload: str
    seed: int
    correct: bool = True
    problem: str = ""
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def percentile(values, pct: int) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Side:
    """The units of one kind (untraced or traced) and their calls."""

    driver: Driver = field(default_factory=Driver)
    units: list[UnitResult] = field(default_factory=list)
    calls: int = 0


def _run_unit(unit, backend: str, seed: int, side: Side, setup_ns: list,
              unit_calls: list, tracer: Tracer | None = None,
              counts: LayerCounts | None = None) -> None:
    """Set up a fresh server and client, then run one unit on them."""
    d = side.driver
    start = perf_counter_ns()
    mount = set_up(backend, seed)
    setup_ns.append(perf_counter_ns() - start)
    try:
        if tracer is not None:
            install_probes(mount, tracer, counts)
            tracer.active = True
            d.tracer = tracer
        kinds_before = Counter(d.kinds)
        wire_before = mount.client.transport.calls
        try:
            side.units.append(unit.run(d, mount))
        finally:
            d.tracer = None
            if tracer is not None:
                tracer.active = False
        wire = mount.client.transport.calls - wire_before
        side.calls += wire
        unit_calls.append((wire, tuple(sorted((d.kinds - kinds_before).items()))))
    finally:
        mount.close()
        # The server holds reference cycles; free it now rather than when a
        # later collection happens to run, often inside a timed call.
        gc.collect()


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), workdir: str | None = None,
        trace_path: str | None = None) -> Run:
    """Run ``workload`` for about ``seconds`` and return its metrics: the
    end-to-end ones untraced, or with ``trace`` the per-layer ones.

    A traced run alternates untraced and traced units, so both sides see
    the same machine; its untraced units give the base of
    ``trace.overhead``.  A new unit starts only if the longest unit so far
    still fits in ``seconds`` (the first always runs, and a traced run
    runs at least one of each).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out = Run(workload, seed)
    tmp = tempfile.mkdtemp(prefix="perfbench-", dir=workdir)
    tracer = Tracer() if trace else None
    counts = LayerCounts()
    durable = None
    try:
        unit = (SourceTreeUnit if workload == "srctree" else BonnieUnit)(seed, sizes)
        backend = "mem://"
        if workload == "bonnie-durable":
            durable = DurableStore(tmp, tracer)
            backend = durable.uri

        warm_up, plain, traced = Side(), Side(), Side()
        setup_ns: list[int] = []
        unit_calls: list = []
        try:
            # Warm-up: lazy imports and first-call paths, then the set-ups
            # that setup_s takes its median over.
            warm = SourceTreeUnit(seed, Sizes(directories=1, files_per_directory=4,
                                              timed_passes=1))
            _run_unit(warm, backend, seed, warm_up, [], [])
            for _ in range(sizes.setups_per_run):
                start = perf_counter_ns()
                set_up(backend, seed).close()
                setup_ns.append(perf_counter_ns() - start)

            began = perf_counter_ns()
            longest = 0
            for n in itertools.count():
                elapsed = perf_counter_ns() - began
                if n >= (2 if trace else 1) and elapsed + longest > seconds * 1e9:
                    break
                start = perf_counter_ns()
                if trace and n % 2:
                    _run_unit(unit, backend, seed, traced, [], unit_calls,
                              tracer, counts)
                else:
                    _run_unit(unit, backend, seed, plain, setup_ns, unit_calls)
                longest = max(longest, perf_counter_ns() - start)
        except CheckFailed as exc:
            out.correct, out.problem = False, str(exc)
        sides = (warm_up, plain, traced)
        out.attempted = sum(side.driver.attempted for side in sides)
        out.failed = sum(side.driver.failed for side in sides)
        if out.correct and len(set(unit_calls)) != 1:
            out.correct = False
            out.problem = f"NFS call counts differ between units: {sorted(set(unit_calls))}"
        if out.correct and trace and counts.dispatches != traced.calls:
            out.correct = False
            out.problem = "the server dispatched other NFS calls than the client sent"
        if not out.correct:
            return out
        if trace:
            _layer_metrics(out, plain.driver, traced.driver, len(traced.units),
                           counts, tracer)
            if trace_path is not None:
                tracer.write_tsv(trace_path)
        else:
            _end_to_end_metrics(out, plain, setup_ns)
        out.notes.insert(0,
            f"{workload} seed={seed}: {len(plain.units)} untraced + "
            f"{len(traced.units)} traced units of {unit_calls[0][0]} NFS calls; "
            f"{len(plain.driver.latency_ns)} untraced call samples, "
            f"{len(plain.driver.create_ns)} CREATE/MKDIR samples, "
            f"{len(setup_ns)} set-ups"
        )
        return out
    finally:
        if durable is not None:
            durable.close()
        shutil.rmtree(tmp, ignore_errors=True)


def _end_to_end_metrics(out: Run, side: Side, setup_ns: list[int]) -> None:
    """Fill in the end-to-end metrics.  Timings other than ``setup_s`` are
    in reference time (``perfbench.hostspeed``) and carry a ``ref-``
    unit."""
    d, units = side.driver, side.units
    m = out.metrics
    m["setup_s"] = (statistics.median(setup_ns) / 1e9, "s")
    for phase in ("write", "rewrite", "read"):
        kbps = [u.phase_bytes[phase] / 1024 / (u.phase_ns[phase] / 1e9) for u in units]
        m[f"{phase}_kbps"] = (statistics.median(kbps), "ref-KiB/s")
    m["op_p50_us"] = (statistics.median(d.latency_ns) / 1e3, "ref-us")
    m["op_p99_us"] = (percentile(d.latency_ns, 99) / 1e3, "ref-us")
    m["create_p50_ms"] = (statistics.median(d.create_ns) / 1e6, "ref-ms")
    m["create_p99_ms"] = (percentile(d.create_ns, 99) / 1e6, "ref-ms")
    m["search_s"] = (statistics.median(
        [ns for u in units for ns in u.search_ns]) / 1e9, "ref-s")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mib"] = (peak_kib / 1024, "MiB")
    q1, q2, q3 = statistics.quantiles(d.clock.samples, n=4)
    out.notes.append(
        f"host speed: calibration kernel {q2 / 1e3:.1f} us median "
        f"(quartiles {q1 / 1e3:.1f}-{q3 / 1e3:.1f}) over {len(d.clock.samples)} "
        f"timings; reference {REFERENCE_NS / 1e3:.0f} us"
    )


def _layer_metrics(out: Run, plain: Driver, traced: Driver, units: int,
                   counts: LayerCounts, tracer: Tracer) -> None:
    self_ns, calls, op_ns = tracer.layer_self_ns()

    def per_call(ns: int) -> float:
        return ns / calls / 1e3

    def per_event(ns: int, events: int) -> float:
        return ns / events / 1e3 if events else 0.0

    access_ns = sum(self_ns[layer] for layer in (
        "core.controller", "core.cache", "keynote.eval", "keynote.session",
        "core.credentials", "core.audit"))
    blocks = counts.blocks_read + counts.blocks_written
    m = out.metrics
    for layer in THREAD_LAYERS:
        m[f"{layer}.self_us"] = (per_call(self_ns[layer]), "us")
    m["trace.op_us"] = (per_call(op_ns), "us")
    m["trace.overhead"] = (statistics.median(traced.latency_ns)
                           / statistics.median(plain.latency_ns), "ratio")
    m["rpc.wire_bytes"] = (counts.wire_bytes / calls, "B/call")
    m["nfs.calls"] = (calls / units, "count")
    m["core.controller.us"] = (per_call(access_ns), "us")
    m["core.controller.calls"] = (counts.controller / units, "count")
    m["core.share"] = (access_ns / op_ns, "ratio")
    m["core.cache.lookups"] = (counts.cache_lookups / units, "count")
    m["core.cache.hit_ratio"] = (
        counts.cache_hits / counts.cache_lookups if counts.cache_lookups else 0.0,
        "ratio")
    m["keynote.evals"] = (counts.evals / units, "count")
    m["keynote.eval_us"] = (per_event(self_ns["keynote.eval"], counts.evals), "us")
    m["keynote.session.adds"] = (counts.session_adds / units, "count")
    m["keynote.session.add_us"] = (
        per_event(self_ns["keynote.session"], counts.session_adds), "us")
    m["core.credentials.mints"] = (counts.mints / units, "count")
    m["core.credentials.mint_us"] = (
        per_event(self_ns["core.credentials"], counts.mints), "us")
    m["core.audit.records"] = (counts.audits / units, "count")
    m["core.audit.us"] = (per_event(self_ns["core.audit"], counts.audits), "us")
    m["fs.vfs.calls"] = (counts.vfs / units, "count")
    m["storage.reads"] = (counts.blocks_read / units, "count")
    m["storage.writes"] = (counts.blocks_written / units, "count")
    m["storage.us_per_block"] = (per_event(self_ns["storage"], blocks), "us")
    m["storage.write_amp"] = (
        counts.blocks_written * counts.block_size / traced.written_bytes, "ratio")
    m["storage.served.us"] = (per_call(self_ns["storage.served"]), "us")
    m["storage.net.self_us"] = (
        per_call(self_ns["storage"] - self_ns["storage.served"])
        if self_ns["storage.served"] else 0.0, "us")
