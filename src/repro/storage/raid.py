"""A striped disk array (RAID-0 style) over the mechanical disk model."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.storage.disk import Disk, DiskParameters


class StripedArray:
    """Blocks striped round-robin across several disks.

    The array maps a logical block to ``(disk, physical block)`` by simple
    striping, which both balances load and keeps per-disk locality for
    sequential runs — enough fidelity for the latency distributions the
    trace generators need.
    """

    def __init__(self, num_disks: int = 8,
                 params: DiskParameters | None = None, seed: int = 0) -> None:
        if num_disks <= 0:
            raise ConfigurationError("need at least one disk")
        self.disks = [Disk(i, params=params, seed=seed) for i in range(num_disks)]

    @property
    def num_disks(self) -> int:
        return len(self.disks)

    def locate(self, logical_block: int) -> tuple[int, int]:
        """``(disk index, physical block)`` of a logical block."""
        return (logical_block % self.num_disks,
                logical_block // self.num_disks)

    def submit(self, now_ms: float, logical_block: int,
               size_bytes: int) -> float:
        """Queue a request; returns its completion time in milliseconds."""
        disk_index, physical = self.locate(logical_block)
        return self.disks[disk_index].submit(now_ms, physical, size_bytes)
