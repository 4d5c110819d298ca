"""Builds the measured systems exactly as the evaluation compares them.

=============  ==========================================================
``FFS``        direct local filesystem calls (the paper's local rows)
``CFS-NE``     CFS daemon, encryption off, reached over NFS/RPC — the
               paper's base case
``CFS``        CFS daemon with encryption on (extra: the system CFS-NE
               was derived from)
``DisCFS``     the full prototype: NFS + KeyNote policy checks + policy
               cache; client identity injected at the transport (the
               paper's measurements isolate the *access-control* overhead
               — both CFS-NE and DisCFS ride identical NFS plumbing)
``DisCFS-IPsec``  DisCFS reached through the IKE/ESP channel, for the
               micro-benchmarks that price the secure channel itself
=============  ==========================================================

Each built system satisfies :class:`repro.bench.targets.FilesystemTarget`
and exposes its internals for stats collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.targets import FilesystemTarget, LocalFFSTarget, NFSTarget
from repro.cfs.client import cfs_attach
from repro.cfs.server import CFSServer
from repro.core.admin import Administrator, identity_of, make_user_keypair
from repro.core.client import DisCFSClient
from repro.core.permissions import Permission
from repro.core.server import DisCFSServer
from repro.fs.ffs import FFS
from repro.rpc.transport import LatencyModel, SimulatedLatencyTransport
from repro.storage import BlockStore, open_store

SYSTEMS = ("FFS", "CFS-NE", "CFS", "DisCFS", "DisCFS-IPsec")

#: The three systems the paper's figures compare.
PAPER_SYSTEMS = ("FFS", "CFS-NE", "DisCFS")

DEFAULT_DEVICE_BLOCKS = 1 << 15  # 256 MB of 8 KiB blocks


@dataclass
class BuiltSystem:
    """A measured system plus handles to its internals."""

    name: str
    target: FilesystemTarget
    fs: FFS
    server: object | None = None
    client: object | None = None
    extras: dict = field(default_factory=dict)

    @property
    def device_stats(self):
        return self.fs.device.stats

    @property
    def cache_stats(self):
        if self.server is not None and hasattr(self.server, "cache"):
            return self.server.cache.stats
        return None


def _fresh_store(device_blocks: int, backend: str | None) -> BlockStore:
    return open_store(backend or "mem://", num_blocks=device_blocks)


def make_target(
    system: str,
    cache_capacity: int = 128,
    device_blocks: int = DEFAULT_DEVICE_BLOCKS,
    network_model: LatencyModel | None = None,
    backend: str | None = None,
) -> BuiltSystem:
    """Build a named system on a fresh filesystem.

    ``backend``: storage URI the filesystem's store is opened from
    (default in-memory).  The backend ablation sweeps this axis while
    everything above the block layer stays identical.

    ``network_model``: wrap the network systems' transports in a
    virtual-time :class:`SimulatedLatencyTransport` charging the model for
    every RPC (used by the paper-scale modeled report; FFS, being local,
    is unaffected).  The model lands in ``extras["network_model"]``.
    """
    if system == "FFS":
        fs = FFS(_fresh_store(device_blocks, backend))
        return BuiltSystem(name=system, target=LocalFFSTarget(fs, name=system), fs=fs)

    if system in ("CFS-NE", "CFS"):
        server = CFSServer(
            fs=FFS(_fresh_store(device_blocks, backend)),
            encrypt=(system == "CFS"),
        )
        transport = server.in_process_transport("cfs-user")
        extras = {}
        if network_model is not None:
            transport = SimulatedLatencyTransport(transport, network_model)
            extras["network_model"] = network_model
        client = cfs_attach(transport, "/")
        return BuiltSystem(
            name=system,
            target=NFSTarget(client, name=system),
            fs=server.fs,
            server=server,
            client=client,
            extras=extras,
        )

    if system in ("DisCFS", "DisCFS-IPsec"):
        admin = Administrator.generate(seed=b"bench-admin")
        server = DisCFSServer(
            admin_identity=admin.identity,
            fs=FFS(_fresh_store(device_blocks, backend)),
            cache_capacity=cache_capacity,
        )
        admin.trust_server(server)
        user_key = make_user_keypair(b"bench-user")
        extras: dict = {"admin": admin, "user_key": user_key}
        if network_model is not None and system == "DisCFS":
            transport = SimulatedLatencyTransport(
                server.in_process_transport(identity_of(user_key)),
                network_model,
            )
            extras["network_model"] = network_model
            client = DisCFSClient(transport, user_key)
        else:
            client = DisCFSClient.connect(
                server, user_key, secure=(system == "DisCFS-IPsec")
            )
        client.attach("/")
        # The administrator grants the benchmark user the whole tree —
        # the equivalent of Bob's Figure 5 credential for his workspace.
        credential = admin.grant_inode(
            identity_of(user_key),
            server.fs.iget(server.fs.root_ino),
            rights=Permission.all(),
            scheme=server.handle_scheme,
            subtree=True,
            comment="benchmark workspace",
        )
        client.submit_credential(credential)
        return BuiltSystem(
            name=system,
            target=NFSTarget(client.nfs, name=system),
            fs=server.fs,
            server=server,
            client=client,
            extras=extras,
        )

    raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")
