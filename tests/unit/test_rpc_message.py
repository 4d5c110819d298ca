"""Unit tests for RPC message framing."""

import pytest

from repro.errors import RPCError, XDRError
from repro.rpc.message import (
    AcceptStat,
    AuthFlavor,
    CallMessage,
    ReplyMessage,
    next_xid,
)


class TestCallMessage:
    def test_roundtrip(self):
        call = CallMessage(prog=100003, vers=2, proc=6, args=b"payload")
        decoded = CallMessage.decode(call.encode())
        assert decoded.prog == 100003
        assert decoded.vers == 2
        assert decoded.proc == 6
        assert decoded.args == b"payload"
        assert decoded.xid == call.xid

    def test_empty_args(self):
        call = CallMessage(prog=1, vers=1, proc=0)
        assert CallMessage.decode(call.encode()).args == b""

    def test_auth_flavor_preserved(self):
        call = CallMessage(prog=1, vers=1, proc=0,
                           auth_flavor=AuthFlavor.AUTH_CHANNEL)
        assert CallMessage.decode(call.encode()).auth_flavor == AuthFlavor.AUTH_CHANNEL

    def test_xids_unique(self):
        assert len({next_xid() for _ in range(1000)}) == 1000

    def test_reply_rejected_as_call(self):
        reply = ReplyMessage(xid=1).encode()
        with pytest.raises(RPCError):
            CallMessage.decode(reply)

    def test_bad_rpc_version(self):
        call = CallMessage(prog=1, vers=1, proc=0)
        raw = bytearray(call.encode())
        raw[11] = 3  # rpcvers field
        with pytest.raises(RPCError):
            CallMessage.decode(bytes(raw))

    def test_unknown_auth_flavor_is_xdr_error(self):
        raw = bytearray(CallMessage(prog=1, vers=1, proc=0).encode())
        raw[24:28] = (12345).to_bytes(4, "big")  # credential flavor
        with pytest.raises(XDRError):
            CallMessage.decode(bytes(raw))


class TestReplyMessage:
    def test_roundtrip(self):
        reply = ReplyMessage(xid=77, stat=AcceptStat.SUCCESS, results=b"ok")
        decoded = ReplyMessage.decode(reply.encode())
        assert decoded.xid == 77
        assert decoded.stat == AcceptStat.SUCCESS
        assert decoded.results == b"ok"

    def test_error_statuses(self):
        for stat in AcceptStat:
            decoded = ReplyMessage.decode(ReplyMessage(xid=1, stat=stat).encode())
            assert decoded.stat == stat

    def test_unknown_accept_stat_is_xdr_error(self):
        raw = bytearray(ReplyMessage(xid=1).encode())
        raw[20:24] = (99).to_bytes(4, "big")  # accept_stat
        with pytest.raises(XDRError):
            ReplyMessage.decode(bytes(raw))

    def test_call_rejected_as_reply(self):
        call = CallMessage(prog=1, vers=1, proc=0).encode()
        with pytest.raises(RPCError):
            ReplyMessage.decode(call)
