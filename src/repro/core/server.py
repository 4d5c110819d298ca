"""The DisCFS server.

Assembles the full stack of the paper's prototype:

* an FFS-backed VFS (the local file storage),
* a user-level NFS server whose every procedure is gated by a
  KeyNote-backed :class:`DisCFSController`,
* a persistent KeyNote session seeded with the administrator's policy,
* the policy-result cache (128 entries, per the evaluation),
* the revocation store,
* extension RPC procedures: SUBMITCRED, REVOKE, LISTCREDS,
* the credential minted and returned on CREATE/MKDIR (the paper's added
  procedures), signed by the server's *issuer key* — a key the
  administrator has delegated authority to (see
  :meth:`repro.core.admin.Administrator.trust_server`).

Identity: every request carries ``peer_identity``, the public key proven
during the IKE handshake.  Requests arriving with no identity (e.g. over a
raw transport) are denied everything that requires rights.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.audit import AuditLog
from repro.core.cache import PolicyCache
from repro.core.credentials import CredentialIssuer
from repro.core.handles import HandleScheme, ancestor_chain
from repro.core.permissions import Permission, required_permission
from repro.core.policy import PolicyEngine
from repro.core.revocation import RevocationStore
from repro.crypto.dsa import DSAKeyPair, generate_dsa_keypair
from repro.crypto.rsa import RSAKeyPair
from repro.errors import KeyNoteError, SignatureVerificationError
from repro.fs.ffs import FFS
from repro.fs.inode import Inode
from repro.fs.vfs import VFS
from repro.ipsec.channel import SecureChannelServer
from repro.ipsec.ike import IKEResponder
from repro.keynote.ast import Assertion, normalize_principal
from repro.keynote.parser import parse_assertion
from repro.keynote.session import KeyNoteSession
from repro.nfs.mount import MountProgram
from repro.nfs.protocol import FileHandle
from repro.nfs.server import AccessDeniedSignal, NFSProgram
from repro.rpc.server import CallContext, RPCServer
from repro.rpc.transport import InProcessTransport


class DisCFSController:
    """The access controller gluing NFS procedures to KeyNote."""

    def __init__(self, server: "DisCFSServer"):
        self._server = server

    # -- the hot path ----------------------------------------------------

    def check(self, ctx: CallContext, op: str, fh: FileHandle,
              inode: Inode | None) -> None:
        required = required_permission(op)
        if required.bits == 0:
            return
        identity = self._server.principal_for(ctx)
        if identity is None:
            raise AccessDeniedSignal("no authenticated identity on this channel")
        granted = self._server.rights_for(identity, fh, op, inode)
        allowed = granted.covers(required)
        self._server.audit.record(
            principal=identity,
            operation=op,
            handle=self._server.handle_scheme.render(fh),
            granted=granted.value,
            allowed=allowed,
            authorized_by=self._server.chain_for(identity, fh),
        )
        if not allowed:
            raise AccessDeniedSignal(
                f"operation {op} requires {required.value}, "
                f"principal holds {granted.value}"
            )

    def check_lookup(self, ctx: CallContext, dir_fh: FileHandle,
                     dir_inode: Inode, child: Inode) -> None:
        """Allow lookup via X on the directory OR any rights on the child.

        The paper's attach flow depends on the second arm: submitting a
        credential for a *file* makes it appear under the mount point,
        without the directory itself granting anything.
        """
        identity = self._server.principal_for(ctx)
        if identity is None:
            raise AccessDeniedSignal("no authenticated identity on this channel")
        dir_granted = self._server.rights_for(identity, dir_fh, "lookup",
                                              dir_inode)
        if dir_granted.can_execute:
            allowed = True
            via_handle = self._server.handle_scheme.render(dir_fh)
            chain_fh = dir_fh
        else:
            child_fh = FileHandle.of(child)
            child_granted = self._server.rights_for(identity, child_fh,
                                                    "lookup", child)
            allowed = child_granted.bits != 0
            via_handle = self._server.handle_scheme.render(child_fh)
            chain_fh = child_fh
        self._server.audit.record(
            principal=identity,
            operation="lookup",
            handle=via_handle,
            granted=(dir_granted.value if chain_fh is dir_fh
                     else child_granted.value),
            allowed=allowed,
            authorized_by=self._server.chain_for(identity, chain_fh),
        )
        if not allowed:
            raise AccessDeniedSignal(
                "lookup requires X on the directory or rights on the target"
            )

    def effective_mode(self, ctx: CallContext, inode: Inode) -> int:
        """Report the requester's granted rights as the permission bits.

        Before any credentials are submitted this is 000 — exactly the
        paper's behaviour for freshly attached directories.
        """
        identity = self._server.principal_for(ctx)
        if identity is None:
            return 0
        fh = FileHandle.of(inode)
        granted = self._server.rights_for(identity, fh, "getattr", inode)
        return granted.octal << 6  # owner triplet

    # -- extension procedures --------------------------------------------

    def on_create(self, ctx: CallContext, inode: Inode) -> str | None:
        # Guests get creator credentials for the guest principal: any
        # anonymous user can then use the file, which is the only
        # consistent meaning of anonymous creation.
        return self._server.mint_creator_credential(
            self._server.principal_for(ctx), inode
        )

    def submit_credential(self, ctx: CallContext, text: str) -> str:
        return self._server.accept_credential(text)

    def revoke(self, ctx: CallContext, payload: str) -> str:
        return self._server.handle_revocation(ctx.peer_identity, payload)

    def list_credentials(self, ctx: CallContext) -> list[str]:
        return [a.source_text for a in self._server.session.credentials]

    def list_audit(self, ctx: CallContext, limit: int) -> list[str]:
        # Audit data names keys and files; only the administrator reads it.
        if ctx.peer_identity != self._server.admin_identity:
            raise AccessDeniedSignal("only the administrator may read the audit log")
        records = self._server.audit.records()
        if limit:
            records = records[-limit:]
        return [r.format() for r in records]


class DisCFSServer:
    """A complete DisCFS daemon.

    Parameters
    ----------
    admin_identity:
        The administrator's principal.  The server installs the root
        policy ``POLICY -> admin`` automatically (the paper: "the server
        would trust only the administrator's key").
    issuer_key:
        Keypair the server signs creator credentials with.  The
        administrator must delegate to it (``Administrator.trust_server``)
        before those credentials carry authority.
    handle_scheme:
        INODE_GENERATION (default) or the prototype's bare INODE.
    backend:
        Storage-backend URI (``mem://``, ``file://``, ``sqlite://``,
        ``shard://``, ``cached://``) the server's filesystem is mounted
        on when ``fs`` is not given; resolved through
        :func:`repro.storage.open_store`.
    cache_capacity / cache_ttl:
        Policy cache parameters (paper evaluation: 128 entries).
    clock:
        Injectable time source for time-of-day policies.
    guest_principal:
        Optional opaque principal name (e.g. ``"GUEST"``) that requests
        arriving *without* an authenticated channel identity act as.
        Implements the paper's future-work scenario of "untrusted users
        characteristic of the WWW": the administrator publishes content by
        issuing credentials whose licensee is the guest name, and anyone
        can browse anonymously.  Default None — anonymous requests hold
        no rights, the prototype's behaviour.
    """

    def __init__(
        self,
        admin_identity: str,
        fs: FFS | None = None,
        issuer_key: DSAKeyPair | RSAKeyPair | None = None,
        server_key: DSAKeyPair | RSAKeyPair | None = None,
        handle_scheme: HandleScheme = HandleScheme.INODE_GENERATION,
        cache_capacity: int = 128,
        cache_ttl: float | None = None,
        clock: Callable[[], float] = time.time,
        guest_principal: str | None = None,
        audit_capacity: int = 10_000,
        backend: str | None = None,
    ):
        self.fs = fs if fs is not None else FFS(backend)
        self.vfs = VFS(self.fs)
        self.admin_identity = normalize_principal(admin_identity)
        self.handle_scheme = handle_scheme
        self.guest_principal = guest_principal

        self.session = KeyNoteSession(index_attribute="HANDLE")
        self.session.add_policy(
            f'Authorizer: "POLICY"\nLicensees: "{self.admin_identity}"\n'
        )
        self.engine = PolicyEngine(self.session, clock=clock)
        self.cache = PolicyCache(capacity=cache_capacity, ttl_seconds=cache_ttl)
        self.revocations = RevocationStore()
        self.audit = AuditLog(capacity=audit_capacity)
        #: (principal, handle) -> authorizing keys recorded at evaluation
        #: time, so audit entries on the cached fast path carry the chain.
        self._chains: dict[tuple[str, str], tuple[str, ...]] = {}

        self.issuer = CredentialIssuer(
            issuer_key if issuer_key is not None else generate_dsa_keypair()
        )
        #: Channel key: what the server authenticates *itself* with in IKE.
        self.server_key = server_key if server_key is not None else self.issuer.key

        self.controller = DisCFSController(self)
        self.rpc = RPCServer()
        self.nfs_program = NFSProgram(self.vfs, controller=self.controller)
        self.mount_program = MountProgram(self.vfs)
        self.rpc.register(self.nfs_program)
        self.rpc.register(self.mount_program)
        self._channel_server: SecureChannelServer | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def secure_channel(self) -> SecureChannelServer:
        """The IKE/ESP front end; create lazily, one per server."""
        if self._channel_server is None:
            self._channel_server = SecureChannelServer(
                IKEResponder(self.server_key),
                lambda request, identity: self.rpc.handle(
                    request, peer_identity=identity
                ),
            )
        return self._channel_server

    def handler(self, identity: str | None = None):
        """Raw (unencrypted) entry point with a fixed identity — used by
        tests and benchmarks that bypass the channel."""
        return self.rpc.handler_for(identity)

    def in_process_transport(self, identity: str | None = None) -> InProcessTransport:
        return InProcessTransport(self.handler(identity))

    @property
    def issuer_identity(self) -> str:
        return self.issuer.identity

    # ------------------------------------------------------------------
    # Authorization core
    # ------------------------------------------------------------------

    def principal_for(self, ctx: CallContext) -> str | None:
        """The principal a request acts as: its channel identity, or the
        guest principal for anonymous requests (if enabled)."""
        if ctx.peer_identity is not None:
            return ctx.peer_identity
        return self.guest_principal

    def rights_for(self, identity: str, fh: FileHandle, op: str,
                   inode: Inode | None) -> Permission:
        """Cached KeyNote evaluation of a principal's rights over a file."""
        if self.revocations.key_revoked(identity):
            return Permission.none()
        handle = self.handle_scheme.render(fh)
        cached = self.cache.get(identity, handle, op)
        if cached is not None:
            return cached
        extra = {}
        if inode is not None:
            anchor = inode.ino if inode.is_dir else inode.parent_ino
            extra["ANCESTORS"] = ancestor_chain(self.fs, anchor, self.handle_scheme)
        granted, chain = self.engine.evaluate_with_trace(identity, handle, op, extra)
        self.cache.put(identity, handle, op, granted)
        self._chains[(identity, handle)] = chain
        return granted

    def chain_for(self, identity: str, fh: FileHandle) -> tuple[str, ...]:
        """Authorizing keys recorded for (identity, handle), for auditing."""
        return self._chains.get(
            (identity, self.handle_scheme.render(fh)), ()
        )

    def _flush_policy_state(self) -> None:
        """Invalidate cached verdicts and chains after any policy change."""
        self.cache.flush()
        self._chains.clear()

    # ------------------------------------------------------------------
    # Credential intake / minting / revocation
    # ------------------------------------------------------------------

    def accept_credential(self, text: str) -> str:
        """Validate and add a submitted credential to the session."""
        try:
            assertion = parse_assertion(text)
        except KeyNoteError as exc:
            raise AccessDeniedSignal(f"malformed credential: {exc}") from exc
        if self.revocations.credential_revoked(assertion):
            raise AccessDeniedSignal("credential or one of its keys is revoked")
        try:
            self.session.add_credential(assertion)
        except (KeyNoteError, SignatureVerificationError) as exc:
            raise AccessDeniedSignal(f"credential rejected: {exc}") from exc
        self._flush_policy_state()
        return "credential accepted"

    def mint_creator_credential(self, identity: str | None,
                                inode: Inode) -> str | None:
        """The paper's extension: CREATE/MKDIR return full access to the
        creator (otherwise the new file would be unreachable)."""
        if identity is None:
            return None
        handle = self.handle_scheme.render_inode(inode)
        text = self.issuer.grant(
            identity, handle=handle, rights=Permission.all(),
            comment=f"creator credential for inode {inode.ino}",
        )
        # The server trusts its own issuance; install it so the creator
        # can use the file immediately without re-submitting.
        self.session.add_credential(text)
        self._flush_policy_state()
        return text

    def handle_revocation(self, requester: str | None, payload: str) -> str:
        """REVOKE RPC: only the administrator may revoke.

        Payload grammar: ``key <principal>`` or ``credential <signature>``.
        """
        if requester != self.admin_identity:
            raise AccessDeniedSignal("only the administrator may revoke")
        kind, _, value = payload.partition(" ")
        value = value.strip()
        if not value:
            raise AccessDeniedSignal("empty revocation payload")
        if kind == "key":
            principal = normalize_principal(value)
            self.revocations.revoke_key(principal)
            self._drop_credentials(lambda a: principal == a.authorizer
                                   or principal in a.licensee_principals())
            if self._channel_server is not None:
                self._channel_server.revoke_identity(principal)
            self._flush_policy_state()
            return f"revoked key {principal[:32]}..."
        if kind == "credential":
            self.revocations.revoke_credential(value)
            self._drop_credentials(lambda a: a.signature == value)
            self._flush_policy_state()
            return "revoked credential"
        raise AccessDeniedSignal(f"unknown revocation kind {kind!r}")

    def _drop_credentials(self, predicate: Callable[[Assertion], bool]) -> None:
        for assertion in list(self.session.credentials):
            if predicate(assertion):
                self.session.remove_credential(assertion)


def make_admin_keypair(seed: bytes | None = None) -> DSAKeyPair:
    """Convenience for examples/tests: a (seeded) administrator keypair."""
    if seed is None:
        return generate_dsa_keypair()
    from repro.crypto.numbers import seeded_random_bits

    return generate_dsa_keypair(rand=seeded_random_bits(seed))


__all__ = ["DisCFSServer", "DisCFSController", "make_admin_keypair"]
