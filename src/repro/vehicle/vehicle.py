"""Whole-vehicle simulation.

Assembles the substrate: a network database, ECUs with behaviours and
schedules, per-channel buses, gateways and a trace recorder. ``run``
produces the observed frames; ``record_table`` produces the raw trace
``K_b`` as an engine table, which is exactly the input of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vehicle.bus import EthernetBus, FlexRayBus, can_bus, lin_bus
from repro.vehicle.recorder import TraceRecorder


class VehicleError(ValueError):
    """Raised for inconsistent vehicle configuration."""


@dataclass
class VehicleSimulation:
    """A simulated vehicle producing in-vehicle network traces."""

    database: object  # NetworkDatabase (possibly gateway-extended)
    ecus: list = field(default_factory=list)
    gateways: list = field(default_factory=list)
    buses: dict = field(default_factory=dict)  # channel -> bus
    recorder: TraceRecorder = field(default_factory=TraceRecorder)

    def add_gateway(self, gateway):
        """Register a gateway and extend the database with routed copies."""
        self.gateways.append(gateway)
        self.database = gateway.extend_database(self.database)
        return self

    def bus_for(self, channel):
        """The bus model of *channel*, creating a default by protocol."""
        if channel not in self.buses:
            protocols = {
                m.protocol for m in self.database.messages if m.channel == channel
            }
            if len(protocols) != 1:
                raise VehicleError(
                    "channel {!r} has ambiguous protocols {}".format(
                        channel, sorted(protocols)
                    )
                )
            protocol = protocols.pop()
            if protocol == "CAN":
                self.buses[channel] = can_bus(channel)
            elif protocol == "LIN":
                self.buses[channel] = lin_bus(channel)
            elif protocol == "SOMEIP":
                self.buses[channel] = EthernetBus(channel)
            elif protocol == "FLEXRAY":
                self.buses[channel] = FlexRayBus(channel)
            else:
                raise VehicleError("unknown protocol {!r}".format(protocol))
        return self.buses[channel]

    def run(self, duration):
        """Simulate [0, duration) and return all observed frames."""
        requested = []
        for ecu in self.ecus:
            requested.extend(ecu.generate_frames(duration))
        by_channel = {}
        for frame in requested:
            by_channel.setdefault(frame.channel, []).append(frame)
        observed = []
        for channel, frames in sorted(by_channel.items()):
            observed.extend(self.bus_for(channel).arbitrate(frames))
        # Gateways listen on the observed traffic and forward copies; the
        # forwarded frames pass their destination channel's bus too.
        for gateway in self.gateways:
            forwarded = gateway.forward(observed)
            by_dst = {}
            for frame in forwarded:
                by_dst.setdefault(frame.channel, []).append(frame)
            for channel, frames in sorted(by_dst.items()):
                observed.extend(self.bus_for(channel).arbitrate(frames))
        observed.sort(key=lambda f: f.timestamp)
        return observed

    def byte_records(self, duration):
        """Run and record: the trace ``K_b`` as a list of tuples."""
        return self.recorder.record(self.run(duration))

    def record_table(self, context, duration, num_partitions=None):
        """Run and record: the trace ``K_b`` as an engine table."""
        return self.recorder.to_table(
            context, self.run(duration), num_partitions=num_partitions
        )
