"""Unit tests for the NFS server + client pair (over in-process RPC)."""

import pytest

from repro.errors import NFSError
from repro.fs import inode as inode_module
from repro.fs.ffs import FFS
from repro.fs.vfs import VFS
from repro.nfs.client import NFSClient
from repro.nfs.mount import MountClient, MountProgram
from repro.nfs.protocol import MAX_DATA, NFSStat, SAttr
from repro.nfs.server import AllowAllController, NFSProgram
from repro.rpc.message import ReplyMessage
from repro.rpc.server import RPCServer
from repro.rpc.transport import InProcessTransport


@pytest.fixture()
def stack():
    fs = FFS()
    vfs = VFS(fs)
    server = RPCServer()
    server.register(NFSProgram(vfs))
    server.register(MountProgram(vfs))
    transport = InProcessTransport(server.handler_for("unit-test"))
    root = MountClient(transport).mount("/")
    return fs, NFSClient(transport, root)


class TestFileOperations:
    def test_create_write_read(self, stack):
        fs, client = stack
        fh, attr, _cred = client.create(client.root, "f")
        client.write(fh, 0, b"hello")
        assert client.read(fh, 0, 5) == b"hello"
        assert client.getattr(fh).size == 5

    def test_create_with_mode(self, stack):
        _fs, client = stack
        fh, attr, _ = client.create(client.root, "f", SAttr(mode=0o600))
        assert attr.permission_bits == 0o600

    def test_write_size_limit(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        with pytest.raises(NFSError):
            client.write(fh, 0, b"x" * (MAX_DATA + 1))

    def test_read_size_limit(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        from repro.errors import RPCError
        with pytest.raises((NFSError, RPCError)):
            client.read(fh, 0, MAX_DATA + 1)

    def test_setattr_truncate(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        client.write(fh, 0, b"0123456789")
        attr = client.setattr(fh, SAttr(size=4))
        assert attr.size == 4

    def test_lookup_missing(self, stack):
        _fs, client = stack
        with pytest.raises(NFSError) as excinfo:
            client.lookup(client.root, "ghost")
        assert excinfo.value.status == NFSStat.NFSERR_NOENT

    def test_remove_then_stale(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        client.remove(client.root, "f")
        with pytest.raises(NFSError) as excinfo:
            client.read(fh, 0, 1)
        assert excinfo.value.status == NFSStat.NFSERR_STALE

    def test_rename(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "old")
        client.rename(client.root, "old", client.root, "new")
        fh2, _ = client.lookup(client.root, "new")
        assert fh2 == fh

    def test_link(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "a")
        client.link(fh, client.root, "b")
        assert client.getattr(fh).nlink == 2

    def test_symlink_readlink(self, stack):
        _fs, client = stack
        client.symlink(client.root, "ln", "/somewhere")
        fh, attr = client.lookup(client.root, "ln")
        assert client.readlink(fh) == "/somewhere"

    def test_statfs(self, stack):
        _fs, client = stack
        info = client.statfs()
        assert info["bsize"] == 8192
        assert info["bfree"] <= info["blocks"]


class TestDirectories:
    def test_mkdir_rmdir(self, stack):
        _fs, client = stack
        fh, attr, _ = client.mkdir(client.root, "d")
        assert attr.is_dir
        client.rmdir(client.root, "d")
        with pytest.raises(NFSError):
            client.lookup(client.root, "d")

    def test_readdir_all(self, stack):
        _fs, client = stack
        for i in range(10):
            client.create(client.root, f"f{i}")
        names = {name for _id, name in client.readdir_all(client.root)}
        assert {f"f{i}" for i in range(10)} <= names
        assert "." in names and ".." in names

    def test_readdir_pagination(self, stack):
        _fs, client = stack
        for i in range(50):
            client.create(client.root, f"file-with-a-longish-name-{i:04}")
        entries, eof = client.readdir(client.root, cookie=0, count=256)
        assert not eof  # must not fit in 256 bytes
        all_names = {n for _i, n in client.readdir_all(client.root)}
        assert len(all_names) == 52

    @pytest.mark.parametrize("multibyte", [False, True])
    @pytest.mark.parametrize("count", [512, 1024, 2048])
    def test_readdir_entries_fit_count(self, count, multibyte):
        # 40 names of 86 characters; with "€" they are 254 UTF-8 bytes.
        stem = "€" * 84 if multibyte else "x" * 84
        names = {f"{stem}{i:02}" for i in range(40)}
        fs = FFS()
        for name in names:
            fs.create(fs.root_ino, name)
        vfs = VFS(fs)
        server = RPCServer()
        server.register(NFSProgram(vfs))
        server.register(MountProgram(vfs))
        transport = _LastReply(InProcessTransport(server.handler_for(None)))
        client = NFSClient(transport, MountClient(transport).mount("/"))

        seen: list[str] = []
        cookie = 0
        while True:
            entries, eof = client.readdir(client.root, cookie, count)
            # The reply is status, entries, end-of-list word, eof word.
            entry_bytes = len(ReplyMessage.decode(transport.reply).results) - 12
            assert entry_bytes <= max(count, 512) or len(entries) == 1
            seen.extend(name for _id, name, _c in entries)
            if eof:
                break
            cookie = entries[-1][2]
        assert sorted(seen) == sorted(names | {".", ".."})

    def test_walk(self, stack):
        fs, client = stack
        fs.makedirs("/a/b")
        fs.write_file("/a/b/f", b"deep")
        fh, attr = client.walk("/a/b/f")
        assert client.read(fh, 0, 4) == b"deep"


class _LastReply:
    """Transport wrapper that keeps the last raw reply."""

    def __init__(self, inner):
        self._inner = inner
        self.reply = b""

    def call(self, request: bytes) -> bytes:
        self.reply = self._inner.call(request)
        return self.reply

    def close(self) -> None:
        self._inner.close()


class TestRepliesLeaveInodesAlone:
    """Reporting a controller-chosen mode must not touch the live inode."""

    def test_no_mode_writes(self, monkeypatch):
        writes: list[tuple[int, int]] = []

        class WatchedInode(inode_module.Inode):
            @property
            def mode(self):
                return self.__dict__["mode"]

            @mode.setter
            def mode(self, value):
                if "mode" in self.__dict__:  # not the constructor's write
                    writes.append((self.ino, value))
                self.__dict__["mode"] = value

        class ReportsOtherMode(AllowAllController):
            def effective_mode(self, ctx, inode):
                return 0o500

        monkeypatch.setattr(inode_module, "Inode", WatchedInode)
        fs = FFS()
        vfs = VFS(fs)
        server = RPCServer()
        server.register(NFSProgram(vfs, ReportsOtherMode()))
        server.register(MountProgram(vfs))
        transport = InProcessTransport(server.handler_for("unit-test"))
        client = NFSClient(transport, MountClient(transport).mount("/"))

        fh, created, _cred = client.create(client.root, "f", SAttr(mode=0o640))
        reported = [
            created,
            client.write(fh, 0, b"data"),
            client.getattr(fh),
            client.lookup(client.root, "f")[1],
        ]
        client.read(fh, 0, 4)
        assert writes == []
        assert [attr.permission_bits for attr in reported] == [0o500] * 4
        assert isinstance(fs.iget(fh.ino), WatchedInode)
        assert fs.iget(fh.ino).mode == 0o640


class TestMount:
    def test_mount_subdirectory(self, stack):
        fs, client = stack
        fs.makedirs("/exports/data")

    def test_restricted_exports(self):
        fs = FFS()
        fs.makedirs("/public")
        fs.makedirs("/private")
        vfs = VFS(fs)
        server = RPCServer()
        server.register(NFSProgram(vfs))
        server.register(MountProgram(vfs, exports=["/public"]))
        transport = InProcessTransport(server.handler_for())
        mc = MountClient(transport)
        mc.mount("/public")
        with pytest.raises(NFSError):
            mc.mount("/private")
        with pytest.raises(NFSError):
            mc.mount("/")

    def test_mount_missing_path(self):
        fs = FFS()
        vfs = VFS(fs)
        server = RPCServer()
        server.register(MountProgram(vfs))
        transport = InProcessTransport(server.handler_for())
        with pytest.raises(NFSError):
            MountClient(transport).mount("/nonexistent")

    def test_unmount(self, stack):
        _fs, client = stack
        # UMNT is advisory; just verify the call completes.
        # (client fixture's transport is shared with the mount client)


class TestRemoteFile:
    def test_putc_getc(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        f = client.open(fh)
        for ch in b"abc":
            f.putc(ch)
        f.flush()
        f.seek(0)
        assert f.getc() == ord("a")
        assert f.read(2) == b"bc"
        assert f.getc() is None

    def test_buffering_reduces_rpcs(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        transport = client._rpc.transport
        f = client.open(fh)
        calls_before = transport.stats.calls
        for i in range(MAX_DATA - 1):
            f.putc(i & 0x7F)
        assert transport.stats.calls == calls_before  # all buffered
        f.putc(0)  # hits the buffer boundary -> exactly one WRITE
        assert transport.stats.calls == calls_before + 1

    def test_interleaved_seek_write_read(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        f = client.open(fh)
        f.write(b"0123456789")
        f.seek(4)
        f.write(b"XY")
        f.seek(0)
        assert f.read(10) == b"0123XY6789"

    def test_context_manager_flushes(self, stack):
        _fs, client = stack
        fh, _, _ = client.create(client.root, "f")
        with client.open(fh) as f:
            f.write(b"buffered")
        assert client.getattr(fh).size == 8
