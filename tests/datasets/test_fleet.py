"""Fleet-scale batch processing."""

import pytest

from repro.core import PipelineConfig, PreprocessingPipeline
from repro.datasets import SYN_SPEC
from repro.datasets.fleet import Fleet, FleetError, JourneyRef
from repro.engine import EngineContext, TableStore
from repro.protocols.frames import BYTE_RECORD_COLUMNS


@pytest.fixture(scope="module")
def fleet():
    return Fleet(SYN_SPEC, num_vehicles=2, journeys_per_vehicle=2)


class TestFleet:
    def test_journey_refs_enumerated(self, fleet):
        refs = fleet.journey_refs()
        assert len(refs) == 4
        assert refs[0] == JourneyRef(0, 0)
        assert refs[-1] == JourneyRef(1, 1)

    def test_ref_names_unique(self, fleet):
        names = {r.name for r in fleet.journey_refs()}
        assert len(names) == 4

    def test_journeys_differ_across_vehicles(self, fleet):
        a = fleet.record_journey(JourneyRef(0, 0), 5.0)
        b = fleet.record_journey(JourneyRef(1, 0), 5.0)
        assert a != b

    def test_journeys_reproducible(self, fleet):
        ref = JourneyRef(1, 1)
        assert fleet.record_journey(ref, 5.0) == fleet.record_journey(ref, 5.0)

    def test_shared_database(self, fleet):
        assert set(fleet.database.alphabet().ids()) == set(
            fleet.reference_bundle.signal_ids
        )

    def test_validation(self):
        with pytest.raises(FleetError):
            Fleet(SYN_SPEC, num_vehicles=0, journeys_per_vehicle=1)


class TestJourneysThroughTheStore:
    """The loop ``examples/fleet_report.py`` runs: lines 3-6 of
    Algorithm 1 per journey, one stored signal table per journey name."""

    @pytest.fixture(scope="class")
    def stored(self, fleet, tmp_path_factory):
        bundle = fleet.reference_bundle
        pipeline = PreprocessingPipeline(
            PipelineConfig(catalog=bundle.catalog(bundle.alpha_ids[:2]))
        )
        store = TableStore(tmp_path_factory.mktemp("fleet_store"))
        ctx = EngineContext.serial()
        rows = {}
        for ref in fleet.journey_refs():
            k_b = ctx.table_from_rows(
                list(BYTE_RECORD_COLUMNS), fleet.record_journey(ref, 5.0)
            )
            k_s = pipeline.extract_signals(k_b, cache=False)
            rows[ref.name] = store.write(ref.name, k_s)["num_rows"]
        return ctx, store, rows

    def test_one_stored_table_per_journey(self, stored, fleet):
        _, store, _ = stored
        assert sorted(store.list_tables()) == sorted(
            r.name for r in fleet.journey_refs()
        )

    def test_every_journey_extracts_rows(self, stored):
        _, _, rows = stored
        assert len(rows) == 4 and all(n > 0 for n in rows.values())

    def test_read_back_journey(self, stored, fleet):
        ctx, store, rows = stored
        table = store.read(ctx, JourneyRef(0, 1).name)
        collected = table.collect()
        assert len(collected) == rows[JourneyRef(0, 1).name]
        assert {r[2] for r in collected} == set(
            fleet.reference_bundle.alpha_ids[:2]
        )
