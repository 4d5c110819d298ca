"""Unit tests for the block device FFS mounts: a ``BlockStore``.

``FFS.device`` is a block store; these pin the single-store behaviour of
the two leaf stores (``mem://`` and ``file://``) and of the physical
counters every store keeps.  ``test_storage_conformance.py`` runs the
shared read/write contract against every registered scheme.
"""

import pytest

from repro.errors import InvalidArgument, NoSpace
from repro.storage import FileBlockStore, MemoryBlockStore


class TestMemoryBlockDevice:
    def test_unwritten_blocks_read_zero(self):
        dev = MemoryBlockStore(num_blocks=8, block_size=512)
        assert dev.read(3) == bytes(512)

    def test_write_read_roundtrip(self):
        dev = MemoryBlockStore(num_blocks=8, block_size=512)
        dev.write(2, b"hello")
        data = dev.read(2)
        assert data.startswith(b"hello")
        assert len(data) == 512

    def test_short_writes_zero_padded(self):
        dev = MemoryBlockStore(num_blocks=4, block_size=512)
        dev.write(0, b"x")
        assert dev.read(0) == b"x" + bytes(511)

    def test_oversized_write_rejected(self):
        dev = MemoryBlockStore(num_blocks=4, block_size=512)
        with pytest.raises(InvalidArgument):
            dev.write(0, b"y" * 513)

    def test_out_of_range_rejected(self):
        dev = MemoryBlockStore(num_blocks=4, block_size=512)
        with pytest.raises(NoSpace):
            dev.read(4)
        with pytest.raises(NoSpace):
            dev.write(-1, b"")

    def test_constructor_validation(self):
        with pytest.raises(InvalidArgument):
            MemoryBlockStore(num_blocks=0)
        with pytest.raises(InvalidArgument):
            MemoryBlockStore(num_blocks=4, block_size=100)  # not 512-multiple

    def test_capacity(self):
        dev = MemoryBlockStore(num_blocks=16, block_size=1024)
        assert dev.capacity_bytes == 16384

    def test_used_blocks(self):
        dev = MemoryBlockStore(num_blocks=16, block_size=512)
        assert dev.used_blocks() == 0
        dev.write(1, b"a")
        dev.write(2, b"b")
        dev.write(1, b"c")
        assert dev.used_blocks() == 2


class TestStats:
    def test_counters(self):
        dev = MemoryBlockStore(num_blocks=16, block_size=512)
        dev.write(0, b"a")
        dev.read(0)
        dev.read(0)
        assert dev.stats.writes == 1
        assert dev.stats.reads == 2
        assert dev.stats.bytes_written == 512
        assert dev.stats.bytes_read == 1024

    def test_seek_detection(self):
        dev = MemoryBlockStore(num_blocks=16, block_size=512)
        for b in (0, 1, 2):  # fully sequential from the start position
            dev.write(b, b"x")
        assert dev.stats.seeks == 0
        dev.write(9, b"x")  # jump
        assert dev.stats.seeks == 1
        dev.write(10, b"x")  # sequential again
        assert dev.stats.seeks == 1

    def test_reset(self):
        dev = MemoryBlockStore(num_blocks=4, block_size=512)
        dev.write(0, b"a")
        dev.stats.reset()
        assert dev.stats.writes == 0
        assert dev.stats.bytes_written == 0


class TestFileBlockDevice:
    def test_roundtrip_and_persistence(self, tmp_path):
        path = str(tmp_path / "disk.img")
        with FileBlockStore(path, num_blocks=8, block_size=512) as dev:
            dev.write(5, b"persist me")
        with FileBlockStore(path, num_blocks=8, block_size=512) as dev:
            assert dev.read(5).startswith(b"persist me")

    def test_unwritten_reads_zero(self, tmp_path):
        with FileBlockStore(str(tmp_path / "d.img"), num_blocks=8,
                            block_size=512) as dev:
            assert dev.read(7) == bytes(512)
