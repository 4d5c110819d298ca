"""Golden wire vectors: the exact bytes of the NFS/RPC codec.

Round-trip tests cannot catch a change made symmetrically on both sides,
such as two ``fattr`` fields swapped in both ``pack_fattr`` and
``unpack_fattr``.  These vectors pin the encoding itself, byte for byte,
and check that decoding each vector yields the values it was built from.

The NFS vectors are captured from a real client/server exchange.  Server
replies carry inode times, so the filesystem clock is fixed for the
exchange and the test controller stamps each new inode with it.
"""

from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.fs import inode as inode_module
from repro.fs.ffs import FFS
from repro.fs.inode import FileType, Inode
from repro.fs.vfs import VFS
from repro.nfs.client import NFSClient
from repro.nfs.protocol import (
    FileHandle,
    FType,
    SAttr,
    pack_fattr,
    pack_fhandle,
    unpack_fattr,
    unpack_fhandle,
)
from repro.nfs.server import AllowAllController, NFSProgram
from repro.obs.trace import SpanContext, encode_context
from repro.rpc.message import AcceptStat, AuthFlavor, CallMessage, ReplyMessage
from repro.rpc.server import RPCServer
from repro.rpc.xdr import XDRDecoder, XDREncoder

#: The filesystem clock during the captured exchange (fractional on purpose).
FIXED_TIME = 1_000_000_000.25

TRACE = SpanContext("0123456789abcdef0123456789abcdef", "fedcba9876543210",
                    "00112233445566ff")

GOLDEN_CALL_TRACED = (
    "010203040000000000000002000186a300000002000000060000000000000044"
    "4454523130313233343536373839616263646566303132333435363738396162"
    "6364656666656463626139383736353433323130303031313232333334343535"
    "3636666600000000000000000a0b0c0d"
)
GOLDEN_CALL_CHANNEL = (
    "000000070000000000000002000186a300000002000000010005f37000000000"
    "00000000000000000000000000005f3700000000000000000000000000000000"
    "0000000000000000"
)
GOLDEN_REPLY_SUCCESS = "deadbeef0000000100000000000000000000000000000000616263"
GOLDEN_REPLY_GARBAGE = "000000000000000100000000000000000000000000000004"
GOLDEN_FATTR = (
    "00000001000081a000000002000003e800000064000027100000200000000000"
    "000000020000000000000023000004d20007a1200000162e0003d09000002334"
    "0001e848"
)
GOLDEN_FHANDLE = "0102030405060708000000000000000900000000000000000000000000000000"

#: Captured client arguments and server results (payloads, without the
#: RPC envelope, whose xid is not reproducible across a test session).
GOLDEN_NFS = {
    "create_reply": (
        "0000000000000000000000020000000000000001000000000000000000000000"
        "0000000000000001000081400000000100000000000000000000000000002000"
        "000000000000000000000000000000023b9aca000003d0903b9aca000003d090"
        "3b9aca000003d090000000010000001063726564656e7469616c20666f722032"
    ),
    "lookup_reply": (
        "0000000000000000000000020000000000000001000000000000000000000000"
        "0000000000000001000081400000000100000000000000000000000000002000"
        "000000000000000000000000000000023b9aca000003d0903b9aca000003d090"
        "3b9aca000003d09000000000"
    ),
    "write_args": (
        "0000000000000002000000000000000100000000000000000000000000000000"
        "00000000000000030000000b0000000b68656c6c6f2c207769726500"
    ),
    "write_reply": (
        "0000000000000001000081400000000100000000000000000000000e00002000"
        "000000000000000100000000000000023b9aca000003d0903b9aca000003d090"
        "3b9aca000003d090"
    ),
    "read_args": (
        "0000000000000002000000000000000100000000000000000000000000000000"
        "000000010000004000000040"
    ),
    "read_reply": (
        "0000000000000001000081400000000100000000000000000000000e00002000"
        "000000000000000100000000000000023b9aca000003d0903b9aca000003d090"
        "3b9aca000003d0900000000d000068656c6c6f2c2077697265000000"
    ),
    "readdir_args": (
        "0000000000000001000000000000000100000000000000000000000000000000"
        "0000000000001000"
    ),
    "readdir_reply": (
        "000000000000000100000001000000012e000000000000010000000100000001"
        "000000022e2e000000000002000000010000000200000006676f6c64656e0000"
        "000000030000000000000001"
    ),
}


class _GoldenController(AllowAllController):
    """Reports fixed permission bits and hands out a fixed credential."""

    def effective_mode(self, ctx, inode) -> int:
        return 0o500

    def on_create(self, ctx, inode):
        inode.atime = inode.mtime = inode.ctime = FIXED_TIME
        return "credential for " + str(inode.ino)


class _Recorder:
    """In-process transport that keeps the last request and reply."""

    def __init__(self, handler):
        self._handler = handler
        self.request = self.reply = b""

    def call(self, request: bytes) -> bytes:
        self.request = request
        self.reply = self._handler(request)
        return self.reply

    def close(self) -> None:
        pass

    @property
    def args(self) -> str:
        return CallMessage.decode(self.request).args.hex()

    @property
    def results(self) -> str:
        return ReplyMessage.decode(self.reply).results.hex()


@contextmanager
def _fixed_clock():
    with mock.patch.object(inode_module, "time",
                           SimpleNamespace(time=lambda: FIXED_TIME)):
        yield


def capture_nfs() -> dict[str, str]:
    """Run CREATE, LOOKUP, WRITE, READ and READDIR; return payload hex."""
    out: dict[str, str] = {}
    with _fixed_clock():
        fs = FFS()
        root = fs.iget(fs.root_ino)
        root.atime = root.mtime = root.ctime = FIXED_TIME
        server = RPCServer()
        server.register(NFSProgram(VFS(fs), _GoldenController()))
        wire = _Recorder(server.handler_for(None))
        client = NFSClient(wire, FileHandle.of(root))

        fh, _attr, _cred = client.create(client.root, "golden",
                                         SAttr(mode=0o640))
        out["create_reply"] = wire.results
        client.lookup(client.root, "golden")
        out["lookup_reply"] = wire.results
        client.write(fh, 3, b"hello, wire")
        out["write_args"], out["write_reply"] = wire.args, wire.results
        client.read(fh, 1, 64)
        out["read_args"], out["read_reply"] = wire.args, wire.results
        client.readdir(client.root, 0, 4096)
        out["readdir_args"], out["readdir_reply"] = wire.args, wire.results
    return out


def _golden_inode() -> Inode:
    return Inode(ino=35, ftype=FileType.REGULAR, mode=0o640, uid=1000,
                 gid=100, size=10000, nlink=2, generation=4,
                 atime=1234.5, mtime=5678.25, ctime=9012.125)


class TestEnvelope:
    def test_call_auth_none_with_trace_body(self):
        call = CallMessage(prog=100003, vers=2, proc=6, args=bytes.fromhex("0a0b0c0d"),
                           xid=0x01020304, auth_body=encode_context(TRACE))
        assert call.encode().hex() == GOLDEN_CALL_TRACED
        decoded = CallMessage.decode(bytes.fromhex(GOLDEN_CALL_TRACED))
        assert decoded == call

    def test_call_auth_channel(self):
        call = CallMessage(prog=100003, vers=2, proc=1,
                           args=FileHandle(ino=0x5F37, generation=0).encode(),
                           xid=7, auth_flavor=AuthFlavor.AUTH_CHANNEL)
        assert call.encode().hex() == GOLDEN_CALL_CHANNEL
        assert CallMessage.decode(bytes.fromhex(GOLDEN_CALL_CHANNEL)) == call

    def test_reply_success(self):
        reply = ReplyMessage(xid=0xDEADBEEF, stat=AcceptStat.SUCCESS,
                             results=b"abc")
        assert reply.encode().hex() == GOLDEN_REPLY_SUCCESS
        assert ReplyMessage.decode(bytes.fromhex(GOLDEN_REPLY_SUCCESS)) == reply

    def test_reply_garbage_args(self):
        reply = ReplyMessage(xid=0, stat=AcceptStat.GARBAGE_ARGS)
        assert reply.encode().hex() == GOLDEN_REPLY_GARBAGE
        assert ReplyMessage.decode(bytes.fromhex(GOLDEN_REPLY_GARBAGE)) == reply


class TestRecords:
    def test_fattr_with_fractional_times(self):
        enc = XDREncoder()
        pack_fattr(enc, _golden_inode(), 8192)
        assert enc.getvalue().hex() == GOLDEN_FATTR
        dec = XDRDecoder(bytes.fromhex(GOLDEN_FATTR))
        attr = unpack_fattr(dec)
        dec.done()
        assert attr.ftype is FType.NFREG
        assert attr.mode == 0o100640
        assert (attr.nlink, attr.uid, attr.gid) == (2, 1000, 100)
        assert (attr.size, attr.blocksize, attr.blocks) == (10000, 8192, 2)
        assert attr.fileid == 35
        assert (attr.atime, attr.mtime, attr.ctime) == (1234.5, 5678.25, 9012.125)

    def test_file_handle(self):
        fh = FileHandle(ino=0x0102030405060708, generation=9)
        enc = XDREncoder()
        pack_fhandle(enc, fh)
        assert enc.getvalue().hex() == GOLDEN_FHANDLE
        dec = XDRDecoder(bytes.fromhex(GOLDEN_FHANDLE))
        assert unpack_fhandle(dec) == fh
        dec.done()


class TestNFSExchange:
    @pytest.fixture(scope="class")
    def captured(self):
        return capture_nfs()

    @pytest.mark.parametrize("name", sorted(GOLDEN_NFS))
    def test_payload(self, captured, name):
        assert captured[name] == GOLDEN_NFS[name]

    def test_diropres_credential_is_optional(self, captured):
        # The two diropres differ only in the credential's presence word
        # and the credential string that follows it.
        with_cred = bytes.fromhex(captured["create_reply"])
        without = bytes.fromhex(captured["lookup_reply"])
        assert without.endswith(b"\x00\x00\x00\x00")
        assert with_cred[: len(without) - 4] == without[:-4]
        dec = XDRDecoder(with_cred[len(without) - 4 :])
        assert dec.unpack_optional(lambda d: d.unpack_string()) is not None
        dec.done()
