"""End-to-end acceptance on the SYN fleet + lossy-input degradation."""

import pytest

from repro.discovery import (
    discover,
    discovery_degradation,
    pipeline_coverage,
    score_discovery,
)
from repro.network.dbcio import dumps_database, loads_database
from repro.obs import validate_report


class TestCleanSyn:
    def test_boundaries_and_encodings_recover(self, syn_truth, syn_result):
        report = score_discovery(syn_truth, syn_result)
        assert report.sections["totals"]["precision"] >= 0.95
        assert report.sections["totals"]["recall"] >= 0.95
        assert report.sections["totals"]["f1"] >= 0.95
        assert report.sections["totals"]["encoding_accuracy"] >= 0.95
        assert report.sections["totals"]["spurious_messages"] == 0
        assert report.sections["totals"]["messages"] == len(report.sections["messages"])

    def test_report_validates(self, syn_truth, syn_result):
        report = score_discovery(syn_truth, syn_result)
        report.set_meta(dataset="SYN")
        payload = validate_report(report.to_dict())
        assert payload["counters"]["discovery.messages"] >= 10
        assert "discovery.token_width_bits" in payload["histograms"]

    def test_synthesized_database_round_trips(self, syn_result):
        # DBC files hold one bus each (SYN reuses gateway-copied ids
        # across FC and BC), so round-trip channel by channel.
        database = syn_result.database
        channels = {m.channel for m in database.messages}
        seen = 0
        for channel in sorted(channels):
            text = dumps_database(database, channels=(channel,))
            reloaded = loads_database(text)
            for message in database.messages:
                if message.channel != channel:
                    continue
                seen += 1
                clone = reloaded.message(
                    message.channel, message.message_id
                )
                # GenMsgCycleTime is stored in whole milliseconds.
                assert clone.cycle_time == pytest.approx(
                    message.cycle_time, abs=1e-3
                )
                for signal in message.signals:
                    assert (
                        clone.signal(signal.name).encoding
                        == signal.encoding
                    )
        assert seen == len(database)

    def test_pipeline_interprets_synthesized_catalog(
        self, syn_truth, syn_result, syn_records
    ):
        coverage, covered = pipeline_coverage(
            syn_truth, syn_result, syn_records
        )
        missing = [name for name, hit in covered.items() if not hit]
        assert coverage >= 0.9, "uncovered: {}".format(missing)

    def test_partial_database_merge_keeps_documented_names(
        self, syn_truth, syn_records
    ):
        # Hand discovery half the truth: documented messages keep their
        # names and signals, the rest are synthesized.
        partial_messages = syn_truth.messages[: len(syn_truth.messages) // 2]
        from repro.network.database import NetworkDatabase

        partial = NetworkDatabase(tuple(partial_messages))
        result = discover(records=syn_records, partial=partial)
        for message in partial_messages:
            merged = result.database.message(
                message.channel, message.message_id
            )
            assert merged.name == message.name
            documented = {s.name for s in message.signals}
            assert documented <= {s.name for s in merged.signals}
        assert result.merge_stats["documented_messages"] >= 1
        assert result.merge_stats["recovered_messages"] >= 1


class TestLossyInputs:
    @pytest.fixture(scope="class")
    def sweep(self, syn_records, syn_truth):
        return discovery_degradation(
            syn_records, syn_truth, severities=(0.0, 0.5, 1.0), seed=7
        )

    def test_degrades_monotonically_without_crashing(self, sweep):
        # Corruption may only *destroy* recoverability. A small
        # tolerance absorbs boundary-effect noise in the middle of the
        # severity grid.
        for knob, points in sweep.items():
            scores = [totals["f1"] for _severity, totals in points]
            assert scores[0] >= 0.95, knob
            for earlier, later in zip(scores, scores[1:]):
                assert later <= earlier + 0.05, (
                    "{} got better under corruption: {}".format(knob, scores)
                )

    def test_full_severity_actually_hurts(self, sweep):
        assert any(
            points[-1][1]["f1"] < points[0][1]["f1"]
            for points in sweep.values()
        )

    def test_truncation_threads_short_payload_path(self, syn_records):
        from repro.vehicle.corruption import PayloadTruncation, corrupt

        model = PayloadTruncation(rate=0.3).at_severity(1.0)
        corrupted, _log = corrupt(syn_records, [model], seed=7)
        result = discover(records=corrupted)
        counters = result.metrics.counters()
        assert counters["discovery.short_payload_skipped"] > 0
