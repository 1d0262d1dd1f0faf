"""The repro.fleet/1 report: building, merging, validation."""

from __future__ import annotations

import pytest

from repro.fleet import FLEET_REPORT_FORMAT
from repro.fleet.orchestrator import add_job_row, merge_job_payload
from repro.obs import ReportSchemaError, RunReport, validate_report


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


def _report():
    return RunReport("fleet.run", format=FLEET_REPORT_FORMAT)


class TestFleetReport:
    def test_starts_with_empty_tables(self):
        assert _report().sections == {"jobs": [], "failures": []}

    def test_merge_job_payload_builds_stage_histograms(self):
        report = _report()
        merge_job_payload(report.metrics, _payload(0))
        merge_job_payload(report.metrics, _payload(1))
        snap = report.metrics.snapshot()
        assert snap["histograms"]["fleet.stage_seconds.interpret"]["count"] == 2
        assert snap["histograms"]["fleet.stage_seconds.reduce"]["count"] == 2
        assert snap["histograms"]["fleet.rows_out"]["count"] == 2

    def test_per_trace_counters_sum_exactly(self):
        report = _report()
        merge_job_payload(report.metrics,
                          _payload(0, counters={"pipeline.rows": 3}))
        merge_job_payload(report.metrics,
                          _payload(1, counters={"pipeline.rows": 4}))
        assert report.metrics.snapshot()["counters"]["pipeline.rows"] == 7

    def test_job_rows_validate_status(self):
        report = _report()
        add_job_row(report, "a" * 16, 0, "traces/j0.trc", "done")
        with pytest.raises(ValueError, match="unknown job status"):
            add_job_row(report, "b" * 16, 1, "traces/j1.trc", "exploded")
        assert len(report.sections["jobs"]) == 1

    def test_skipped_is_not_a_job_status(self):
        with pytest.raises(ValueError, match="unknown job status"):
            add_job_row(_report(), "a" * 16, 0, "traces/j0.trc", "skipped")

    def test_to_dict_carries_format_and_tables(self):
        report = _report()
        add_job_row(report, "a" * 16, 0, "traces/j0.trc", "failed")
        report.sections["failures"].append(
            {"job_id": "a" * 16, "error": "boom", "stage": "fleet.job"}
        )
        payload = report.to_dict()
        assert payload["format"] == FLEET_REPORT_FORMAT
        assert payload["jobs"][0]["status"] == "failed"
        assert payload["failures"][0]["error"] == "boom"

    def test_round_trip_validates(self):
        report = _report()
        report.set_meta(dataset="SYN", jobs=2)
        merge_job_payload(report.metrics, _payload(0))
        add_job_row(report, "a" * 16, 0, "traces/j0.trc", "done",
                    trace_rows=100, rows_out=5)
        add_job_row(report, "b" * 16, 1, "traces/j1.trc", "cached")
        payload = validate_report(report.to_json())
        assert payload["format"] == FLEET_REPORT_FORMAT


class TestValidator:
    def _valid(self):
        report = _report()
        add_job_row(report, "a" * 16, 0, "traces/j0.trc", "done")
        return report.to_dict()

    def test_rejects_wrong_format(self):
        payload = self._valid()
        payload["format"] = "repro.obs/1"
        with pytest.raises(ReportSchemaError, match="format") as excinfo:
            validate_report(payload)
        assert "'jobs'" in str(excinfo.value)
        assert "'failures'" in str(excinfo.value)

    def test_rejects_missing_tables(self):
        payload = self._valid()
        del payload["jobs"]
        with pytest.raises(ReportSchemaError, match="jobs must be a list"):
            validate_report(payload)

    def test_rejects_bad_job_row(self):
        payload = self._valid()
        payload["jobs"][0]["status"] = "exploded"
        payload["jobs"][0]["rows_out"] = -1
        with pytest.raises(ReportSchemaError) as excinfo:
            validate_report(payload)
        assert "status must be one of" in str(excinfo.value)
        assert "rows_out must be an int" in str(excinfo.value)

    def test_rejects_bad_job_identity(self):
        payload = self._valid()
        payload["jobs"][0]["job_id"] = ""
        payload["jobs"][0]["trace"] = 7
        payload["jobs"][0]["index"] = True
        with pytest.raises(ReportSchemaError) as excinfo:
            validate_report(payload)
        message = str(excinfo.value)
        assert "jobs[0].job_id must be a non-empty string" in message
        assert "jobs[0].trace must be a string" in message
        assert "jobs[0].index must be an int >= 0" in message

    def test_rejects_non_object_job_row(self):
        payload = self._valid()
        payload["jobs"].append("row")
        with pytest.raises(ReportSchemaError, match="jobs\\[1\\] must be"):
            validate_report(payload)

    def test_rejects_bad_failure_row(self):
        payload = self._valid()
        payload["failures"] = [{"job_id": "", "error": ""}]
        with pytest.raises(ReportSchemaError, match="failures\\[0\\]"):
            validate_report(payload)

    def test_rejects_non_json(self):
        with pytest.raises(ReportSchemaError, match="not valid JSON"):
            validate_report("{nope")

    def test_delegates_obs_section_checks(self):
        payload = self._valid()
        payload["counters"] = {"broken": "NaN"}
        with pytest.raises(ReportSchemaError, match="counter"):
            validate_report(payload)
