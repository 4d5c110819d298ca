"""RPC call/reply message framing (ONC RPC, RFC 5531 subset).

Message layout::

    CALL:  xid, mtype=0, rpcvers=2, prog, vers, proc, cred, verf, args...
    REPLY: xid, mtype=1, reply_stat=ACCEPTED, verf, accept_stat, results...

Authentication flavors: ``AUTH_NONE`` and a DisCFS-specific
``AUTH_CHANNEL`` flavor whose body is empty — the peer identity comes from
the secure channel, not from per-message credentials (the paper's point:
"requests coming over the IPsec link can be safely assumed to come from
the authorized user").

The ``AUTH_NONE`` credential *body* (an XDR opaque, normally empty)
doubles as the optional trace field: tracing clients pack a span
context there (:func:`repro.obs.trace.encode_context`) and servers that
understand it record a child span.  Both directions are NULL-compatible
with peers that predate tracing — the body has always been decoded,
size-capped and otherwise ignored, so an old server skips the context
and an old client simply sends the empty body.

The fixed parts of both headers are one precompiled ``struct.Struct``
each.  Every message carries an empty ``AUTH_NONE`` verifier; a
verifier with a body, an unknown credential flavor or an unknown
accept status is malformed XDR (:class:`~repro.errors.XDRError`), so a
server answers such a call with ``GARBAGE_ARGS``.
"""

from __future__ import annotations

import enum
import itertools
import struct
import threading
from dataclasses import dataclass, field

from repro.errors import RPCError, XDRError
from repro.rpc.xdr import XDRDecoder, XDREncoder

RPC_VERSION = 2


class MsgType(enum.IntEnum):
    CALL = 0
    REPLY = 1


class AcceptStat(enum.IntEnum):
    SUCCESS = 0
    PROG_UNAVAIL = 1
    PROG_MISMATCH = 2
    PROC_UNAVAIL = 3
    GARBAGE_ARGS = 4
    SYSTEM_ERR = 5


class AuthFlavor(enum.IntEnum):
    AUTH_NONE = 0
    AUTH_SYS = 1
    #: Identity supplied by the secure channel (DisCFS extension).
    AUTH_CHANNEL = 390000


_AUTH_FLAVORS = {flavor.value: flavor for flavor in AuthFlavor}
_ACCEPT_STATS = {stat.value: stat for stat in AcceptStat}

#: xid, mtype, rpcvers, prog, vers, proc, credential flavor.
_CALL_HEAD = struct.Struct(">IiIIIIi")
#: xid, mtype, reply_stat, verifier flavor, verifier length, accept_stat.
_REPLY_HEAD = struct.Struct(">IiiiIi")
#: Verifier flavor and length: always AUTH_NONE with an empty body.
_VERIFIER = struct.Struct(">iI")
_NULL_VERIFIER = _VERIFIER.pack(AuthFlavor.AUTH_NONE, 0)


def _check_verifier(length: int) -> None:
    if length:
        raise XDRError(f"unexpected {length}-byte verifier (expected AUTH_NONE)")


_xid_counter = itertools.count(1)
_xid_lock = threading.Lock()


def next_xid() -> int:
    with _xid_lock:
        return next(_xid_counter) & 0xFFFFFFFF


@dataclass
class CallMessage:
    prog: int
    vers: int
    proc: int
    args: bytes = b""
    xid: int = field(default_factory=next_xid)
    auth_flavor: AuthFlavor = AuthFlavor.AUTH_NONE
    auth_body: bytes = b""

    def encode(self) -> bytes:
        enc = XDREncoder()
        enc.pack_struct(_CALL_HEAD, self.xid, MsgType.CALL, RPC_VERSION,
                        self.prog, self.vers, self.proc, self.auth_flavor)
        enc.pack_opaque(self.auth_body)
        enc.pack_fixed_opaque(_NULL_VERIFIER, _VERIFIER.size)
        return enc.getvalue() + self.args

    @classmethod
    def decode(cls, data: bytes) -> "CallMessage":
        dec = XDRDecoder(data)
        xid, mtype, rpcvers, prog, vers, proc, flavor = dec.unpack_struct(_CALL_HEAD)
        if mtype != MsgType.CALL:
            raise RPCError(f"expected CALL, got message type {mtype}")
        if rpcvers != RPC_VERSION:
            raise RPCError(f"unsupported RPC version {rpcvers}")
        auth_flavor = _AUTH_FLAVORS.get(flavor)
        if auth_flavor is None:
            raise XDRError(f"unknown auth flavor {flavor}")
        auth_body = dec.unpack_opaque(max_size=400)
        _check_verifier(dec.unpack_struct(_VERIFIER)[1])
        args = data[len(data) - dec.remaining :]
        return cls(prog=prog, vers=vers, proc=proc, args=args, xid=xid,
                   auth_flavor=auth_flavor, auth_body=auth_body)


@dataclass
class ReplyMessage:
    xid: int
    stat: AcceptStat = AcceptStat.SUCCESS
    results: bytes = b""

    def encode(self) -> bytes:
        enc = XDREncoder()
        enc.pack_struct(_REPLY_HEAD, self.xid, MsgType.REPLY, 0,  # MSG_ACCEPTED
                        AuthFlavor.AUTH_NONE, 0, self.stat)
        return enc.getvalue() + self.results

    @classmethod
    def decode(cls, data: bytes) -> "ReplyMessage":
        dec = XDRDecoder(data)
        xid, mtype, reply_stat, _flavor, verifier, stat = dec.unpack_struct(_REPLY_HEAD)
        if mtype != MsgType.REPLY:
            raise RPCError(f"expected REPLY, got message type {mtype}")
        if reply_stat != 0:
            raise RPCError(f"RPC message denied (reply_stat={reply_stat})")
        _check_verifier(verifier)
        accept_stat = _ACCEPT_STATS.get(stat)
        if accept_stat is None:
            raise XDRError(f"unknown accept status {stat}")
        return cls(xid=xid, stat=accept_stat, results=data[_REPLY_HEAD.size :])
