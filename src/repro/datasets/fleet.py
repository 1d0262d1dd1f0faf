"""Fleet journey generation.

Fig. 1 of the paper: hundreds of vehicles record journeys on-board
("e.g. at BMW Group 500 cars produce 1.5 TB per day"); the traces are
analyzed off-board per domain. This module generates that input: a
:class:`Fleet` of simulated vehicles sharing one database, each
:class:`JourneyRef` naming one reproducible journey. The sweep over the
recorded traces is :mod:`repro.fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.synthetic import build_dataset


class FleetError(ValueError):
    """Raised for invalid fleet configuration."""


@dataclass(frozen=True)
class JourneyRef:
    """Identifies one journey of one vehicle."""

    vehicle_id: int
    journey_id: int

    @property
    def name(self):
        return "vehicle{:03d}_journey{:03d}".format(
            self.vehicle_id, self.journey_id
        )

    def seed_offset(self):
        return self.vehicle_id * 1000 + self.journey_id


@dataclass
class Fleet:
    """A fleet of structurally identical vehicles (one Table 5 spec).

    All vehicles share the communication database (same model line);
    behaviour seeds differ per vehicle and journey, so traces differ the
    way different cars' drives do.
    """

    spec: object  # DatasetSpec
    num_vehicles: int
    journeys_per_vehicle: int

    def __post_init__(self):
        if self.num_vehicles < 1 or self.journeys_per_vehicle < 1:
            raise FleetError("fleet needs >= 1 vehicle and journey")
        # One reference bundle defines the shared database/parameters.
        self._reference = build_dataset(self.spec)

    @property
    def database(self):
        return self._reference.database

    @property
    def reference_bundle(self):
        return self._reference

    def journey_refs(self):
        """All journeys in deterministic order."""
        return [
            JourneyRef(v, j)
            for v in range(self.num_vehicles)
            for j in range(self.journeys_per_vehicle)
        ]

    def record_journey(self, ref, duration):
        """Simulate and record one journey's byte records."""
        bundle = build_dataset(self.spec, seed_offset=ref.seed_offset())
        return bundle.byte_records(duration)
