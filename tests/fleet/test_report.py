"""The repro.fleet/1 report shape: building, merging, validation."""

from __future__ import annotations

import pytest

from repro.fleet import FLEET_REPORT_FORMAT, FleetReport, validate_fleet_report
from repro.obs import ReportSchemaError


def _payload(index=0, stage_seconds=None, counters=None, rows_out=5):
    return {
        "job_id": "job{:02d}".format(index),
        "index": index,
        "trace": "traces/j{}.trc".format(index),
        "trace_rows": 100,
        "rows_out": rows_out,
        "stage_seconds": stage_seconds or {"interpret": 0.5, "reduce": 0.25},
        "report": {"counters": counters or {"pipeline.rows": 100}},
    }


class TestFleetReport:
    def test_merge_job_payload_builds_stage_histograms(self):
        report = FleetReport()
        report.merge_job_payload(_payload(0))
        report.merge_job_payload(_payload(1))
        snap = report.metrics.snapshot()
        assert snap["histograms"]["fleet.stage_seconds.interpret"]["count"] == 2
        assert snap["histograms"]["fleet.stage_seconds.reduce"]["count"] == 2
        assert snap["histograms"]["fleet.rows_out"]["count"] == 2

    def test_per_trace_counters_sum_exactly(self):
        report = FleetReport()
        report.merge_job_payload(_payload(0, counters={"pipeline.rows": 3}))
        report.merge_job_payload(_payload(1, counters={"pipeline.rows": 4}))
        assert report.metrics.snapshot()["counters"]["pipeline.rows"] == 7

    def test_job_rows_validate_status(self):
        report = FleetReport()
        report.add_job_row("a" * 16, 0, "traces/j0.trc", "done")
        with pytest.raises(ValueError, match="unknown job status"):
            report.add_job_row("b" * 16, 1, "traces/j1.trc", "exploded")

    def test_skipped_is_not_a_job_status(self):
        report = FleetReport()
        with pytest.raises(ValueError, match="unknown job status"):
            report.add_job_row("a" * 16, 0, "traces/j0.trc", "skipped")

    def test_to_dict_carries_format_and_tables(self):
        report = FleetReport()
        report.add_job_row("a" * 16, 0, "traces/j0.trc", "failed")
        report.add_failure_row(
            {"job_id": "a" * 16, "error": "boom", "stage": "fleet.job"}
        )
        payload = report.to_dict()
        assert payload["format"] == FLEET_REPORT_FORMAT
        assert payload["jobs"][0]["status"] == "failed"
        assert payload["failures"][0]["error"] == "boom"

    def test_round_trip_validates(self):
        report = FleetReport()
        report.set_meta(dataset="SYN", jobs=2)
        report.merge_job_payload(_payload(0))
        report.add_job_row("a" * 16, 0, "traces/j0.trc", "done",
                           trace_rows=100, rows_out=5)
        report.add_job_row("b" * 16, 1, "traces/j1.trc", "cached")
        assert validate_fleet_report(report.to_json()) is not None


class TestValidator:
    def _valid(self):
        report = FleetReport()
        report.add_job_row("a" * 16, 0, "traces/j0.trc", "done")
        return report.to_dict()

    def test_rejects_wrong_format(self):
        payload = self._valid()
        payload["format"] = "repro.obs/1"
        with pytest.raises(ReportSchemaError, match="format must be"):
            validate_fleet_report(payload)

    def test_rejects_missing_tables(self):
        payload = self._valid()
        del payload["jobs"]
        with pytest.raises(ReportSchemaError, match="jobs must be a list"):
            validate_fleet_report(payload)

    def test_rejects_bad_job_row(self):
        payload = self._valid()
        payload["jobs"][0]["status"] = "exploded"
        payload["jobs"][0]["rows_out"] = -1
        with pytest.raises(ReportSchemaError) as excinfo:
            validate_fleet_report(payload)
        assert "status must be one of" in str(excinfo.value)
        assert "rows_out must be an int" in str(excinfo.value)

    def test_rejects_bad_failure_row(self):
        payload = self._valid()
        payload["failures"] = [{"job_id": "", "error": ""}]
        with pytest.raises(ReportSchemaError, match="failures\\[0\\]"):
            validate_fleet_report(payload)

    def test_rejects_non_json(self):
        with pytest.raises(ReportSchemaError, match="not valid JSON"):
            validate_fleet_report("{nope")

    def test_delegates_obs_section_checks(self):
        payload = self._valid()
        payload["counters"] = {"broken": "NaN"}
        with pytest.raises(ReportSchemaError, match="counter"):
            validate_fleet_report(payload)
