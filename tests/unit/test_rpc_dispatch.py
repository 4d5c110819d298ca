"""Unit tests for RPC server dispatch and client stubs."""

import pytest

from repro.errors import ProcedureUnavailable
from repro.rpc.client import RPCClient
from repro.rpc.server import RPCProgram, RPCServer
from repro.rpc.transport import InProcessTransport
from repro.rpc.xdr import XDREncoder


def make_adder_program():
    prog = RPCProgram(200000, 1, name="adder")

    @prog.procedure(1)
    def add(dec, ctx):
        a = dec.unpack_uint()
        b = dec.unpack_uint()
        enc = XDREncoder()
        enc.pack_uint(a + b)
        return enc.getvalue()

    @prog.procedure(2)
    def whoami(dec, ctx):
        enc = XDREncoder()
        enc.pack_string(ctx.peer_identity or "")
        return enc.getvalue()

    @prog.procedure(3)
    def boom(dec, ctx):
        raise RuntimeError("handler bug")

    return prog


@pytest.fixture()
def client():
    server = RPCServer()
    server.register(make_adder_program())
    transport = InProcessTransport(server.handler_for("tester"))
    return RPCClient(transport, 200000, 1)


class TestDispatch:
    def test_null_procedure(self, client):
        client.ping()

    def test_procedure_call(self, client):
        enc = XDREncoder()
        enc.pack_uint(20)
        enc.pack_uint(22)
        dec = client.call(1, enc.getvalue())
        assert dec.unpack_uint() == 42

    def test_peer_identity_reaches_context(self, client):
        dec = client.call(2)
        assert dec.unpack_string() == "tester"

    def test_unknown_program(self):
        server = RPCServer()
        transport = InProcessTransport(server.handler_for())
        client = RPCClient(transport, 999, 1)
        with pytest.raises(ProcedureUnavailable):
            client.ping()

    def test_unknown_procedure(self, client):
        with pytest.raises(ProcedureUnavailable):
            client.call(99)

    def test_wrong_version(self):
        server = RPCServer()
        server.register(make_adder_program())
        transport = InProcessTransport(server.handler_for())
        client = RPCClient(transport, 200000, 9)
        with pytest.raises(ProcedureUnavailable):
            client.ping()

    def test_garbage_args(self, client):
        from repro.errors import RPCError
        with pytest.raises(RPCError):
            client.call(1, b"\x00")  # truncated args -> GARBAGE_ARGS

    def test_handler_exception_becomes_system_err(self, client):
        from repro.errors import RPCError
        with pytest.raises(RPCError) as excinfo:
            client.call(3)
        assert "SYSTEM_ERR" in str(excinfo.value)

    def test_garbage_request_bytes(self):
        server = RPCServer()
        # must not raise, must return an encodable reply
        reply = server.handle(b"\x01\x02")
        assert isinstance(reply, bytes)

    @pytest.mark.parametrize("length", [36, 40])
    def test_unknown_auth_flavor_gets_garbage_args(self, length):
        from repro.rpc.message import AcceptStat, CallMessage, ReplyMessage

        server = RPCServer()
        server.register(make_adder_program())
        raw = bytearray(CallMessage(prog=200000, vers=1, proc=0).encode())
        raw[24:28] = (12345).to_bytes(4, "big")  # credential flavor
        reply = ReplyMessage.decode(server.handle(bytes(raw[:length])))
        assert reply.stat == AcceptStat.GARBAGE_ARGS
