"""Shared fixtures: engine contexts and the wiper example of Fig. 2."""

from __future__ import annotations

import pytest

from repro.engine import EngineContext
from repro.network import MessageDefinition, NetworkDatabase, SignalDefinition
from repro.protocols import SignalEncoding
from repro.vehicle import Cyclic, Ecu, Gateway, Route, VehicleSimulation
from repro.vehicle import behaviors as bhv


@pytest.fixture
def ctx():
    """A serial engine context with a few partitions."""
    return EngineContext.serial(default_parallelism=3)


@pytest.fixture
def info_decodes(monkeypatch):
    """Every ``colbin._unpack_info`` and ``binlog._unpack_cell`` call of
    planes built *after* this fixture (a packed plane binds its decode
    hook when the reader hands it out) -- the TLV decodes a ``.ctrc`` or
    ``.btrc`` table pays."""
    from repro.tracefile import binlog, colbin

    calls = []
    for module, name in ((colbin, "_unpack_info"), (binlog, "_unpack_cell")):
        def counting(data, unpack=getattr(module, name)):
            calls.append(1)
            return unpack(data)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def wiper_database():
    """The paper's running example: wiper position/velocity on FA-CAN
    (Fig. 2) plus heater (LIN ordinal) and belt (binary)."""
    wpos = SignalDefinition(
        "wpos", SignalEncoding(0, 16, scale=0.5), unit="deg", data_class="numeric"
    )
    wvel = SignalDefinition(
        "wvel", SignalEncoding(16, 16), unit="rad/min", data_class="numeric"
    )
    wiper = MessageDefinition(
        "WIPER_STATUS", 3, "FC", "CAN", 4, (wpos, wvel), cycle_time=0.1
    )
    heat = SignalDefinition(
        "heat",
        SignalEncoding(
            0,
            3,
            value_table=(
                (0, "off"),
                (1, "low"),
                (2, "medium"),
                (3, "high"),
                (7, "invalid"),
            ),
        ),
        data_class="ordinal",
    )
    heater = MessageDefinition(
        "HEATER", 0x11, "K-LIN", "LIN", 1, (heat,), cycle_time=0.5
    )
    belt = SignalDefinition(
        "belt",
        SignalEncoding(0, 1, value_table=((0, "OFF"), (1, "ON"))),
        data_class="binary",
    )
    belt_msg = MessageDefinition(
        "BELT", 7, "FC", "CAN", 1, (belt,), cycle_time=0.2
    )
    return NetworkDatabase((wiper, heater, belt_msg))


@pytest.fixture
def wiper_simulation(wiper_database):
    """A deterministic vehicle around the wiper database, with the wiper
    message gateway-routed from FC onto BC."""
    wiper_msg = wiper_database.message_by_name("WIPER_STATUS")
    heater_msg = wiper_database.message_by_name("HEATER")
    belt_msg = wiper_database.message_by_name("BELT")

    wiper_ecu = Ecu("WiperEcu").add_transmission(
        wiper_msg,
        {
            "wpos": bhv.Sawtooth(amplitude=90.0, period=4.0),
            "wvel": bhv.Constant(1),
        },
        Cyclic(0.1, seed=1),
    )
    body_ecu = (
        Ecu("BodyEcu")
        .add_transmission(
            heater_msg,
            {"heat": bhv.OrdinalSteps(("off", "low", "medium", "high"), 8.0)},
            Cyclic(0.5, seed=2),
        )
        .add_transmission(
            belt_msg,
            {"belt": bhv.Toggle(20.0, "ON", "OFF")},
            Cyclic(0.2, seed=3),
        )
    )
    sim = VehicleSimulation(wiper_database, [wiper_ecu, body_ecu])
    sim.add_gateway(Gateway("ZGW", (Route("FC", 3, "BC", delay=0.002),)))
    return sim


@pytest.fixture
def wiper_trace(ctx, wiper_simulation):
    """A 30-second K_b table of the wiper vehicle."""
    return wiper_simulation.record_table(ctx, 30.0).cache()
