"""Cost models for virtual-time reporting.

Wall-clock measurements of a pure-Python stack compare the three systems
fairly against each other, but their absolute numbers are nothing like the
paper's 2001 testbed.  For paper-scale reporting, the harness can combine:

* measured wall time (CPU cost of the protocol/policy layers),
* a **disk model** charging seek + transfer time for the block I/O the
  workload actually performed (read off the device's counters), modeled
  after the testbed's Quantum Fireball CT10 (5400 rpm, ~9 ms seek,
  ~15 MB/s media rate),
* the RPC transport's :class:`~repro.rpc.transport.LatencyModel`
  (100 Mbps Ethernet) virtual time.

EXPERIMENTS.md reports both wall-clock and modeled numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.base import BlockDeviceStats


@dataclass
class DiskModel:
    """Seek/rotate/transfer model of a single spindle."""

    average_seek_seconds: float = 0.0088
    rotational_latency_seconds: float = 0.0055  # half a rev at 5400 rpm
    media_rate_bytes_per_second: float = 15_000_000.0

    def time_for(self, stats: BlockDeviceStats) -> float:
        """Modeled disk time for the I/O recorded in ``stats``.

        Non-sequential accesses (the device counts them as ``seeks``) pay
        seek + rotational latency; every byte pays transfer time.
        """
        positioning = stats.seeks * (
            self.average_seek_seconds + self.rotational_latency_seconds
        )
        transfer = (stats.bytes_read + stats.bytes_written) / self.media_rate_bytes_per_second
        return positioning + transfer


#: The paper's server disk (Quantum Fireball CT10, 9.6 GB).
QUANTUM_FIREBALL_CT10 = DiskModel()


@dataclass
class MeasuredTime:
    """A measurement with its virtual-time components."""

    wall_seconds: float
    disk_seconds: float = 0.0
    network_seconds: float = 0.0

    @property
    def modeled_seconds(self) -> float:
        """Paper-scale estimate: protocol CPU + modeled disk + modeled net."""
        return self.wall_seconds + self.disk_seconds + self.network_seconds

    def throughput_kps(self, nbytes: int, modeled: bool = False) -> float:
        """Throughput in units of 1024 bytes/second (Bonnie's K/sec)."""
        seconds = self.modeled_seconds if modeled else self.wall_seconds
        return (nbytes / 1024.0) / seconds if seconds > 0 else float("inf")
