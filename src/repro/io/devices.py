"""I/O devices and the transfer-to-bus assignment.

High-end servers hang several DMA-capable devices (NICs toward the SAN,
disk host-bus adapters toward the array) off several I/O buses. A trace
record may pin its bus explicitly; otherwise the :class:`BusAssigner`
routes it to a device of the matching source, round-robin, which spreads
concurrent transfers across buses — the concurrency resource DMA-TA
aligns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

from repro.errors import ConfigurationError
from repro.traces.records import DMATransfer, SOURCE_DISK, SOURCE_NETWORK


@dataclass(frozen=True)
class Device:
    """A DMA-capable I/O device bound to one bus.

    Attributes:
        name: human-readable identifier ("nic0", "hba1", ...).
        source: the trace source tag this device serves.
        bus: the I/O bus the device sits on.
    """

    name: str
    source: str
    bus: int

    def __post_init__(self) -> None:
        if self.source not in (SOURCE_NETWORK, SOURCE_DISK):
            raise ConfigurationError(f"unknown device source {self.source!r}")
        if self.bus < 0:
            raise ConfigurationError("device bus must be non-negative")


def default_topology(num_buses: int) -> list[Device]:
    """One NIC and one disk HBA on every bus.

    This mirrors chipsets like the Intel E8870/E7500 (Section 3) where
    several PCI segments each host both network and storage adapters, and
    it gives every source full spread across the buses.
    """
    if num_buses <= 0:
        raise ConfigurationError("need at least one bus")
    devices: list[Device] = []
    for bus in range(num_buses):
        devices.append(Device(name=f"nic{bus}", source=SOURCE_NETWORK, bus=bus))
        devices.append(Device(name=f"hba{bus}", source=SOURCE_DISK, bus=bus))
    return devices


class BusAssigner:
    """Routes each DMA transfer to a bus.

    Records with an explicit ``bus`` keep it (clamped into range);
    the rest go to the next device of their source, round-robin.
    """

    def __init__(self, num_buses: int, devices: list[Device] | None = None) -> None:
        if num_buses <= 0:
            raise ConfigurationError("need at least one bus")
        self.num_buses = num_buses
        self.devices = devices if devices is not None else default_topology(num_buses)
        for device in self.devices:
            if device.bus >= num_buses:
                raise ConfigurationError(
                    f"device {device.name} on bus {device.bus} "
                    f"but only {num_buses} buses exist")
        self._cycles: dict[str, cycle] = {}
        for source in (SOURCE_NETWORK, SOURCE_DISK):
            members = [d for d in self.devices if d.source == source]
            if members:
                self._cycles[source] = cycle(members)

    def assign(self, record: DMATransfer) -> int:
        """The bus that will carry ``record``."""
        if record.bus is not None:
            return record.bus % self.num_buses
        source_cycle = self._cycles.get(record.source)
        if source_cycle is None:
            # No device of this source: fall back to any device.
            all_cycle = self._cycles.get(SOURCE_NETWORK) or self._cycles.get(SOURCE_DISK)
            if all_cycle is None:
                raise ConfigurationError("no devices configured")
            return next(all_cycle).bus
        return next(source_cycle).bus
