"""Write-ahead journal overlay (``journal://<child-uri>[#cap=N]``).

Checkpoint persistence (:mod:`repro.fs.persist`) loses whatever happened
since the last ``sync``; this layer upgrades any durable child backend
to **crash recovery**: every write is appended to an append-only intent
log and ``fsync``\\ ed *before* the blocks reach the child, so once a
``write``/``write_many`` call returns, that data survives a crash at any
later point.  On reopen, committed-but-unapplied records are replayed
into the child and a torn tail (a record cut short by the crash, or one
whose CRC no longer matches) is discarded.

On-disk format — a fixed header followed by length-prefixed records::

    header: magic "DJRNL001" | u32 block_size | u32 reserved
    record: u32 payload_len | u64 seq | u8 kind | payload | u32 crc32

``crc32`` covers ``seq | kind | payload``.  A transaction is one DATA
record (payload: ``u32 count`` then ``count`` x ``u32 block_no`` +
``block_size`` bytes) followed by a COMMIT record with the same
sequence number and an empty payload.  Replay applies a DATA record
only if its COMMIT made it to disk — a batch whose commit marker was
lost is, by definition, a write that was never acknowledged.

Costs and amortization:

* one journal ``fsync`` per transaction, not per block — a
  ``write_many`` batch (the FFS extent paths) is a single **group
  commit**, so durability overhead scales with batches, not blocks;
* the journal is truncated (checkpointed) whenever :meth:`flush` pushes
  the child to durable storage, and automatically once ``cap``
  transactions accumulate, which bounds both log growth and replay
  time after a crash.

``discfs journal-inspect`` dumps and verifies a log via
:func:`inspect_journal`.  :class:`~repro.storage.base.BlockDeviceStats`
grew an ``fsyncs`` counter so the journal ablation
(``benchmarks/test_ablation_journal.py``) can report what the log costs
next to what it buys.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.errors import InvalidArgument
from repro.obs.metrics import Histogram
from repro.storage.base import BlockStore

MAGIC = b"DJRNL001"
_HEADER = struct.Struct(">8sII")  # magic, block size, reserved
_REC = struct.Struct(">IQB")      # payload length, sequence, kind
_U32 = struct.Struct(">I")

KIND_DATA = 1
KIND_COMMIT = 2
_KIND_NAMES = {KIND_DATA: "data", KIND_COMMIT: "commit"}

#: Committed transactions the journal may hold before an automatic
#: checkpoint (child flush + log truncation) bounds replay work.
DEFAULT_JOURNAL_CAP = 1024


@dataclass
class JournalStats:
    """What the write-ahead log did, for benchmarks and reports."""

    transactions: int = 0          # DATA+COMMIT pairs appended
    blocks_journaled: int = 0      # block images written to the log
    fsyncs: int = 0                # journal-file fsync barriers issued
    checkpoints: int = 0           # truncations after a child flush
    auto_checkpoints: int = 0      # the subset forced by the cap
    replayed_transactions: int = 0  # committed txns applied at open
    replayed_blocks: int = 0
    torn_bytes: int = 0            # trailing bytes discarded at open
    replay_seconds: float = 0.0

    def reset(self) -> None:
        self.transactions = self.blocks_journaled = 0
        self.fsyncs = self.checkpoints = self.auto_checkpoints = 0
        self.replayed_transactions = self.replayed_blocks = 0
        self.torn_bytes = 0
        self.replay_seconds = 0.0


@dataclass
class JournalRecord:
    """One parsed log record (see :func:`inspect_journal`)."""

    offset: int
    seq: int
    kind: int
    blocks: int          # block count for DATA records, 0 for COMMIT
    crc_ok: bool

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES.get(self.kind, f"kind-{self.kind}")


@dataclass
class JournalInfo:
    """Verification summary of a journal file."""

    path: str
    block_size: int
    size: int
    records: list[JournalRecord] = field(default_factory=list)
    committed: int = 0             # transactions with a commit marker
    committed_blocks: int = 0
    uncommitted: list[int] = field(default_factory=list)  # seqs w/o commit
    torn_offset: int | None = None  # first byte of the discarded tail


def _scan(buf: bytes, block_size: int) -> tuple[list[JournalRecord], int | None]:
    """Walk records in ``buf`` (the file contents after the header).

    Returns the valid records (offsets are absolute file offsets) and
    the torn-tail offset — the absolute position of the first truncated
    or corrupt record, or None when the log parses cleanly.  In an
    append-only fsynced log, damage can only be a tail cut short by a
    crash, so everything after the first bad record is discarded.
    """
    records: list[JournalRecord] = []
    pos = 0
    while pos < len(buf):
        offset = _HEADER.size + pos
        if pos + _REC.size + _U32.size > len(buf):
            return records, offset  # cut mid record header
        payload_len, seq, kind = _REC.unpack_from(buf, pos)
        total = _REC.size + payload_len + _U32.size
        if kind not in _KIND_NAMES or pos + total > len(buf):
            return records, offset  # garbled head or cut-short payload
        body = buf[pos + _REC.size : pos + _REC.size + payload_len]
        (crc,) = _U32.unpack_from(buf, pos + _REC.size + payload_len)
        if crc != zlib.crc32(buf[pos + 4 : pos + _REC.size] + body):
            return records, offset
        blocks = 0
        if kind == KIND_DATA:
            if payload_len < _U32.size:
                return records, offset
            (blocks,) = _U32.unpack_from(body, 0)
            if payload_len != _U32.size + blocks * (_U32.size + block_size):
                return records, offset
        records.append(JournalRecord(offset, seq, kind, blocks, True))
        pos += total
    return records, None


def _decode_data(buf: bytes, record: JournalRecord,
                 block_size: int) -> list[tuple[int, bytes]]:
    """Block images of a DATA record (``buf`` excludes the header)."""
    start = record.offset - _HEADER.size + _REC.size + _U32.size
    items: list[tuple[int, bytes]] = []
    for i in range(record.blocks):
        at = start + i * (_U32.size + block_size)
        (block_no,) = _U32.unpack_from(buf, at)
        items.append(
            (block_no, buf[at + _U32.size : at + _U32.size + block_size])
        )
    return items


def inspect_journal(path: str) -> JournalInfo:
    """Parse and verify a journal file without touching any child store.

    Raises :class:`~repro.errors.InvalidArgument` if the file is not a
    DisCFS journal; torn tails and uncommitted transactions are normal
    after a crash and are *reported*, not raised.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise InvalidArgument(f"{path} is too short to be a journal")
    magic, block_size, _reserved = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise InvalidArgument(f"{path} is not a DisCFS journal")
    records, torn_offset = _scan(raw[_HEADER.size:], block_size)
    info = JournalInfo(path=path, block_size=block_size, size=len(raw),
                       records=records, torn_offset=torn_offset)
    pending: dict[int, int] = {}  # seq -> block count
    for record in records:
        if record.kind == KIND_DATA:
            pending[record.seq] = record.blocks
        elif record.seq in pending:
            info.committed += 1
            info.committed_blocks += pending.pop(record.seq)
    info.uncommitted = sorted(pending)
    return info


class JournalBlockStore(BlockStore):
    """Write-ahead journal in front of a durable child store."""

    scheme = "journal"

    def __init__(self, child: BlockStore, journal_path: str,
                 cap: int = DEFAULT_JOURNAL_CAP):
        if cap <= 0:
            raise InvalidArgument("journal cap must be positive")
        super().__init__(child.num_blocks, child.block_size)
        self.child = child
        # Writes serialize under this layer's lock, but reads go to the
        # child directly — concurrent safety is the child's to claim.
        self.thread_safe = child.thread_safe
        self.journal_path = journal_path
        self.cap = cap
        self.journal_stats = JournalStats()
        # Per-instance (not registry-shared): a mounted stack can hold
        # several journals and each reports its own fsync latency.
        self._fsync_hist = Histogram("journal:fsync_seconds")
        self._seq = 0
        self._txns_in_log = 0
        self._end = 0  # append offset
        # ``discfs serve``/``store-serve`` dispatch each client on its
        # own thread (the reason sqlite:// carries a lock): the append
        # offset, sequence counter and truncation must be serialized or
        # concurrent writers interleave records and garble the log.
        self._lock = threading.Lock()
        parent = os.path.dirname(journal_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fd = os.open(journal_path, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            if os.fstat(self._fd).st_size >= _HEADER.size:
                self._replay()
            else:
                self._reset_log()
        except Exception:
            os.close(self._fd)
            self._fd = -1
            raise

    # -- logging -----------------------------------------------------------

    def _reset_log(self) -> None:
        os.ftruncate(self._fd, 0)
        os.pwrite(self._fd, _HEADER.pack(MAGIC, self.block_size, 0), 0)
        self._fsync()
        self._end = _HEADER.size
        self._seq = 0
        self._txns_in_log = 0

    def _fsync(self) -> None:
        """The journal's one durability barrier, timed: fsync latency is
        the per-transaction floor, so it feeds the latency extras
        (``lat:journal:fsync:*``) alongside the raw counters."""
        t0 = time.perf_counter()
        os.fsync(self._fd)
        self._fsync_hist.record(time.perf_counter() - t0)
        self.stats.record_fsync()
        self.journal_stats.fsyncs += 1

    def _encode_record(self, kind: int, seq: int, payload: bytes) -> bytes:
        head = _REC.pack(len(payload), seq, kind)
        crc = zlib.crc32(head[4:] + payload)
        return head + payload + _U32.pack(crc)

    def _append_transaction(self, items: list[tuple[int, bytes]]) -> None:
        """Durably log one batch: DATA + COMMIT, then a single fsync —
        the group commit that makes write_many pay one barrier per
        batch instead of one per block."""
        self._seq += 1
        payload = bytearray(_U32.pack(len(items)))
        for block_no, data in items:
            payload += _U32.pack(block_no)
            payload += data
        rec = (self._encode_record(KIND_DATA, self._seq, bytes(payload))
               + self._encode_record(KIND_COMMIT, self._seq, b""))
        os.pwrite(self._fd, rec, self._end)
        self._fsync()
        self._end += len(rec)
        self._txns_in_log += 1
        self.journal_stats.transactions += 1
        self.journal_stats.blocks_journaled += len(items)

    # -- replay ------------------------------------------------------------

    def _replay(self) -> None:
        started = time.monotonic()
        size = os.fstat(self._fd).st_size
        raw = os.pread(self._fd, size, 0)
        magic, block_size, _reserved = _HEADER.unpack_from(raw)
        if magic != MAGIC:
            raise InvalidArgument(
                f"{self.journal_path} is not a DisCFS journal"
            )
        if block_size != self.block_size:
            raise InvalidArgument(
                f"{self.journal_path} logs {block_size}-byte blocks, "
                f"child uses {self.block_size}"
            )
        buf = raw[_HEADER.size:]
        records, torn_offset = _scan(buf, block_size)
        pending: dict[int, JournalRecord] = {}
        # Later committed writes of the same block win; apply the final
        # image once instead of every intermediate version.
        final: dict[int, bytes] = {}
        committed = 0
        for record in records:
            if record.kind == KIND_DATA:
                pending[record.seq] = record
            elif record.seq in pending:
                data_rec = pending.pop(record.seq)
                for block_no, data in _decode_data(buf, data_rec,
                                                   block_size):
                    final[block_no] = data
                committed += 1
        if final:
            self.child.write_many(sorted(final.items()))
        if torn_offset is not None:
            self.journal_stats.torn_bytes = size - torn_offset
        self.journal_stats.replayed_transactions = committed
        self.journal_stats.replayed_blocks = len(final)
        # The replayed state is only durable once the child flushes; then
        # the log can be truncated (an idempotent crash between the two
        # just replays again).
        self.child.flush()
        self._reset_log()
        self.journal_stats.replay_seconds = time.monotonic() - started

    # -- checkpointing -----------------------------------------------------

    def _checkpoint(self, auto: bool = False) -> None:
        self.child.flush()
        self._reset_log()
        self.journal_stats.checkpoints += 1
        if auto:
            self.journal_stats.auto_checkpoints += 1

    @property
    def pending_transactions(self) -> int:
        """Committed transactions in the log not yet checkpointed away."""
        return self._txns_in_log

    # -- BlockStore interface ----------------------------------------------

    def _require_open(self) -> None:
        if self._fd < 0:
            raise InvalidArgument(
                f"journal store {self.journal_path} is closed"
            )

    def _put(self, block_no: int, data: bytes) -> None:
        self._put_many([(block_no, data)])

    def _put_many(self, items: list[tuple[int, bytes]]) -> None:
        with self._lock:
            self._require_open()
            self._append_transaction(items)
            self.child.write_many(items)
            if self._txns_in_log >= self.cap:
                self._checkpoint(auto=True)

    def _get(self, block_no: int) -> bytes | None:
        return self.child.read(block_no)

    def _get_many(self, block_nos: list[int]) -> list[bytes | None]:
        return list(self.child.read_many(block_nos))

    def _contains(self, block_no: int) -> bool:
        return self.child._contains(block_no)

    def flush(self) -> None:
        with self._lock:
            self._require_open()
            self._checkpoint()

    def close(self) -> None:
        # The final checkpoint can fail (the child's flush is somebody
        # else's disk or network); the fd and the child must be released
        # regardless, or a flaky child at shutdown leaks the WAL fd.
        # The log keeps its records when the checkpoint fails, so the
        # acknowledged writes stay replayable on reopen.
        try:
            with self._lock:
                if self._fd >= 0:
                    try:
                        self._checkpoint()
                    finally:
                        os.close(self._fd)
                        self._fd = -1
        finally:
            self.child.close()

    def abandon(self) -> None:
        """Drop the store *without* checkpointing — the crash simulation
        used by recovery tests and the replay benchmark.  The journal
        file keeps its records; the child is left exactly as the crash
        would leave it (buffered state discarded, nothing flushed)."""
        with self._lock:
            if self._fd >= 0:
                os.close(self._fd)
                self._fd = -1
        # Deliberately do NOT close the child: sqlite's close() commits,
        # which would fake durability a real crash does not provide.

    def used_blocks(self) -> int:
        return self.child.used_blocks()

    def used_block_numbers(self) -> list[int]:
        # Writes reach the child right after the log append, so the
        # child's enumeration is complete even before a checkpoint.
        return self.child.used_block_numbers()

    def leaf_stores(self) -> list[BlockStore]:
        return self.child.leaf_stores()

    def child_stores(self) -> list[BlockStore]:
        return [self.child]

    def capabilities(self):
        from repro.storage.base import Capabilities

        child_caps = self.child.capabilities()
        return Capabilities(
            thread_safe=self.thread_safe,
            durable=child_caps.durable,
            networked=child_caps.networked,
            composite=True,
        )

    def _extra_stats(self) -> dict[str, float]:
        return {
            "transactions": self.journal_stats.transactions,
            "blocks_journaled": self.journal_stats.blocks_journaled,
            "journal_fsyncs": self.journal_stats.fsyncs,
            "checkpoints": self.journal_stats.checkpoints,
            "auto_checkpoints": self.journal_stats.auto_checkpoints,
            "replayed_transactions":
                self.journal_stats.replayed_transactions,
            "replayed_blocks": self.journal_stats.replayed_blocks,
            "pending_transactions": self._txns_in_log,
        } | self._fsync_latency_extras()

    def _fsync_latency_extras(self) -> dict[str, float]:
        if not self._fsync_hist.count:
            return {}
        p = self._fsync_hist.percentiles()
        return {
            "lat:journal:fsync:count": float(self._fsync_hist.count),
            "lat:journal:fsync:p50": round(p["p50"] * 1000.0, 4),
            "lat:journal:fsync:p95": round(p["p95"] * 1000.0, 4),
            "lat:journal:fsync:p99": round(p["p99"] * 1000.0, 4),
        }

    def describe(self) -> str:
        return (
            f"journal(cap={self.cap}, {self.journal_path}) over "
            f"{self.child.describe()}"
        )
