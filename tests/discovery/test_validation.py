"""Validation harness: observed boundaries, scoring and report schema."""

import json

import pytest

from repro.discovery import (
    DISCOVERY_REPORT_FORMAT,
    discover,
    discoverable_signals,
    matched_signal_names,
    observed_boundary,
    score_discovery,
    unscored_report,
)
from repro.discovery.observations import bit_statistics, collect_observations
from repro.network.database import MessageDefinition, NetworkDatabase, SignalDefinition
from repro.obs.report import ReportSchemaError, validate_report
from repro.protocols.signalcodec import SignalEncoding


def ramp_records(channel="FC", message_id=0x10, count=300):
    return [
        (i * 0.01, bytes([i % 256]), channel, message_id, ())
        for i in range(count)
    ]


def truth_database(message_id=0x10, bit_length=8, name="truth_sig"):
    return NetworkDatabase((
        MessageDefinition(
            name="TRUTH",
            message_id=message_id,
            channel="FC",
            protocol="CAN",
            payload_length=(bit_length + 7) // 8,
            signals=(
                SignalDefinition(name, SignalEncoding(0, bit_length)),
            ),
            cycle_time=0.01,
        ),
    ))


class TestObservedBoundary:
    def test_unexercised_top_bits_are_not_observed(self):
        # An 8-bit signal that only ever counts 0..15: the top nibble
        # is unobservable from payload statistics.
        stats = bit_statistics([bytes([i % 16]) for i in range(64)])
        encoding = SignalEncoding(0, 8)
        assert observed_boundary(encoding, stats) == [0, 1, 2, 3]

    def test_positions_beyond_the_trace_are_skipped(self):
        stats = bit_statistics([bytes([i % 4]) for i in range(32)])
        encoding = SignalEncoding(0, 16)
        assert observed_boundary(encoding, stats) == [0, 1]


class TestScoreDiscovery:
    def test_perfect_recovery_scores_one(self):
        records = ramp_records()
        result = discover(records=records)
        report = score_discovery(truth_database(), result)
        assert report.sections["totals"]["precision"] == 1.0
        assert report.sections["totals"]["recall"] == 1.0
        assert report.sections["totals"]["f1"] == 1.0
        assert report.sections["totals"]["encoding_accuracy"] == 1.0
        assert report.sections["totals"]["spurious_messages"] == 0
        (row,) = report.sections["messages"]
        assert row["channel"] == "FC"
        assert row["discoverable"] == row["matched"] == 1

    def test_observed_truth_is_self_consistent(self):
        # Truth documents a 16-bit signal but the trace only carries the
        # low byte -- the observed boundary is those 8 bits, which
        # discovery recovers, so recall does not punish the unobservable.
        records = ramp_records()
        result = discover(records=records)
        report = score_discovery(
            truth_database(bit_length=16), result
        )
        assert report.sections["totals"]["recall"] == 1.0

    def test_spurious_message_is_counted(self):
        records = ramp_records() + ramp_records(message_id=0x77)
        result = discover(records=records)
        report = score_discovery(truth_database(), result)
        assert report.sections["totals"]["spurious_messages"] == 1

    def test_gauges_are_exported(self):
        result = discover(records=ramp_records())
        report = score_discovery(truth_database(), result)
        gauges = report.metrics.snapshot()["gauges"]
        assert gauges["discovery.boundary_f1"] == 1.0
        assert gauges["discovery.encoding_accuracy"] == 1.0

    def test_degraded_observations_score_against_clean_truth(self):
        records = ramp_records()
        clean = collect_observations(records)
        # Corrupt the stream by dropping to the low nibble only.
        corrupted = [
            (t, bytes([p[0] & 0x0F]), b, m, i)
            for t, p, b, m, i in records
        ]
        result = discover(records=corrupted)
        report = score_discovery(
            truth_database(), result, truth_observations=clean
        )
        assert report.sections["totals"]["recall"] < 1.0


class TestHelpers:
    def test_matched_signal_names(self):
        result = discover(records=ramp_records())
        names = matched_signal_names(truth_database(), result)
        assert names == {"truth_sig": "disc_fc_10_b0"}

    def test_discoverable_signals_skips_silent_messages(self):
        result = discover(records=ramp_records())
        truth = truth_database(message_id=0x99)
        assert discoverable_signals(truth, result.observations) == []


class TestReportSchema:
    def test_scored_report_validates(self):
        result = discover(records=ramp_records())
        report = score_discovery(truth_database(), result)
        payload = validate_report(report.to_dict())
        assert payload["format"] == DISCOVERY_REPORT_FORMAT
        assert validate_report(report.to_json())

    def test_unscored_report_validates_with_zero_scores(self):
        result = discover(records=ramp_records())
        report = unscored_report(result)
        payload = validate_report(report.to_dict())
        assert payload["messages"] == []
        assert payload["totals"]["recovered"] == 1
        assert payload["totals"]["f1"] == 0.0
        assert payload["counters"]["discovery.messages"] == 1

    def test_meta_round_trips(self):
        result = discover(records=ramp_records())
        report = unscored_report(result)
        report.set_meta(trace="/tmp/x.trc")
        payload = json.loads(report.to_json())
        assert payload["meta"]["trace"] == "/tmp/x.trc"

    def test_wrong_format_is_rejected(self):
        result = discover(records=ramp_records())
        payload = score_discovery(truth_database(), result).to_dict()
        payload["format"] = "repro.obs/1"
        with pytest.raises(ReportSchemaError, match="format"):
            validate_report(payload)

    def test_missing_total_field_is_rejected(self):
        result = discover(records=ramp_records())
        payload = score_discovery(truth_database(), result).to_dict()
        del payload["totals"]["f1"]
        with pytest.raises(ReportSchemaError, match="totals.f1"):
            validate_report(payload)

    def test_missing_message_field_is_rejected(self):
        result = discover(records=ramp_records())
        payload = score_discovery(truth_database(), result).to_dict()
        del payload["messages"][0]["precision"]
        with pytest.raises(ReportSchemaError,
                           match="messages\\[0\\].precision"):
            validate_report(payload)

    def test_non_numeric_score_is_rejected(self):
        result = discover(records=ramp_records())
        payload = score_discovery(truth_database(), result).to_dict()
        payload["totals"]["f1"] = "perfect"
        with pytest.raises(ReportSchemaError,
                           match="totals.f1 must be a number"):
            validate_report(payload)

    def test_every_problem_is_listed(self):
        result = discover(records=ramp_records())
        payload = score_discovery(truth_database(), result).to_dict()
        del payload["messages"][0]["channel"]
        payload["messages"].append("row")
        payload["totals"]["recall"] = None
        with pytest.raises(ReportSchemaError) as excinfo:
            validate_report(payload)
        message = str(excinfo.value)
        assert "messages[0].channel must be present" in message
        assert "messages[1] must be an object" in message
        assert "totals.recall must be a number" in message

    def test_missing_sections_are_rejected(self):
        result = discover(records=ramp_records())
        payload = score_discovery(truth_database(), result).to_dict()
        payload["messages"] = {}
        payload["totals"] = []
        with pytest.raises(ReportSchemaError) as excinfo:
            validate_report(payload)
        assert "messages must be a list" in str(excinfo.value)
        assert "totals must be an object" in str(excinfo.value)
