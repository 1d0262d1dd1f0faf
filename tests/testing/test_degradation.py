"""Degradation harness: severity sweeps, report schema, CLI."""

import json

import pytest

from repro.core.pipeline import PipelineConfig
from repro.datasets import SPECS, build_dataset
from repro.obs import ReportSchemaError, RunReport, validate_report
from repro.testing.degradation import (
    DEGRADE_REPORT_FORMAT,
    KNOBS,
    DegradationError,
    degradation_summary,
    lossy_config,
    points,
    run_degradation,
)
SWEEP_KNOBS = (
    "frame_drop", "exact_duplicate", "payload_truncation", "clock_skew",
)


@pytest.fixture(scope="module")
def bundle():
    return build_dataset(SPECS["SYN"])


@pytest.fixture(scope="module")
def records(bundle):
    return bundle.byte_records(6.0)


@pytest.fixture(scope="module")
def config(bundle):
    return PipelineConfig(
        catalog=bundle.catalog(),
        constraints=bundle.default_constraints(),
    )


@pytest.fixture(scope="module")
def report(records, config):
    return run_degradation(
        records,
        config,
        knobs={name: KNOBS[name] for name in SWEEP_KNOBS},
        severities=(0.0, 1.0),
        seed=3,
    )


class TestSeverityZeroGate:
    """Severity 0 must reproduce the perfect run byte for byte."""

    @pytest.mark.parametrize("knob", SWEEP_KNOBS)
    def test_byte_identical(self, report, knob):
        (point,) = [
            p for p in points(report, knob) if p["severity"] == 0.0
        ]
        assert point["byte_identical"] is True
        assert point["records_out"] == point["records_in"]
        assert point["corruption_events"] == 0
        assert point["signal_recovery"] == 1.0
        assert point["spurious_rate"] == 0.0
        assert point["reduction_ratio_delta"] == 0.0
        assert point["r_out_recovery"] == 1.0
        assert point["dedup_correctness"] == 1.0


class TestSweepMetrics:
    def test_every_knob_and_severity_present(self, report):
        assert len(points(report)) == len(SWEEP_KNOBS) * 2
        for knob in SWEEP_KNOBS:
            assert sorted(
                p["severity"] for p in points(report, knob)
            ) == [0.0, 1.0]

    def test_frame_drop_loses_signal_rows(self, report):
        (point,) = [
            p for p in points(report, "frame_drop") if p["severity"] == 1.0
        ]
        assert point["corruption_events"] > 0
        assert point["records_out"] < point["records_in"]
        assert point["signal_recovery"] < 1.0
        assert point["spurious_rate"] == 0.0

    def test_exact_duplicates_fully_absorbed(self, report):
        """Satellite fix: byte-identical gateway replays must not change
        the pipeline output at all."""
        (point,) = [
            p
            for p in points(report, "exact_duplicate")
            if p["severity"] == 1.0
        ]
        assert point["corruption_events"] > 0
        assert point["exact_duplicates_dropped"] > 0
        assert point["signal_recovery"] == 1.0
        assert point["spurious_rate"] == 0.0
        assert point["r_out_recovery"] == 1.0
        assert point["dedup_correctness"] == 1.0
        assert point["reduction_ratio_delta"] == 0.0

    def test_truncation_skipped_not_fatal(self, report):
        """Satellite fix: truncated payloads surface as a counter, never
        as an aborted run or garbage values."""
        (point,) = [
            p
            for p in points(report, "payload_truncation")
            if p["severity"] == 1.0
        ]
        assert point["corruption_events"] > 0
        assert point["short_payload_skipped"] > 0
        assert point["spurious_rate"] == 0.0

    def test_gauges_mirror_curves(self, report):
        gauges = report.metrics.gauges()
        for point in points(report):
            name = "degrade.{}.{:g}.signal_recovery".format(
                point["knob"], point["severity"]
            )
            assert gauges[name] == point["signal_recovery"]

    def test_baseline_summary(self, report, records):
        assert report.sections["baseline"]["records"] == len(records)
        assert report.sections["baseline"]["k_s_rows"] > 0
        assert report.sections["baseline"]["r_out_rows"] > 0

    def test_summary_text(self, report):
        text = degradation_summary(report)
        for knob in SWEEP_KNOBS:
            assert knob in text
        assert "yes" in text and "no" in text


class TestReportSchema:
    def test_round_trip_validates(self, report):
        payload = validate_report(report.to_dict())
        assert payload["format"] == DEGRADE_REPORT_FORMAT
        validate_report(report.to_json())

    def test_write_and_reload(self, report, tmp_path):
        path = report.write(tmp_path / "degrade.json")
        payload = validate_report(
            json.loads(path.read_text())
        )
        assert len(payload["curves"]) == len(points(report))

    def test_rejects_wrong_format(self, report):
        payload = report.to_dict()
        payload["format"] = "repro.obs/1"
        with pytest.raises(ReportSchemaError, match="format"):
            validate_report(payload)

    def test_rejects_missing_baseline(self, report):
        payload = report.to_dict()
        del payload["baseline"]
        with pytest.raises(ReportSchemaError, match="baseline"):
            validate_report(payload)

    def test_rejects_bad_curve_point(self, report):
        payload = report.to_dict()
        payload["curves"][0]["signal_recovery"] = 1.5
        with pytest.raises(ReportSchemaError, match="signal_recovery"):
            validate_report(payload)
        payload = report.to_dict()
        payload["curves"][0]["byte_identical"] = "yes"
        with pytest.raises(ReportSchemaError, match="byte_identical"):
            validate_report(payload)

    def test_lists_every_bad_field(self, report):
        payload = report.to_dict()
        payload["baseline"]["records"] = -1
        payload["baseline"]["reduction_ratio"] = "high"
        point = payload["curves"][0]
        point.update(knob="", severity=-1.0, records_out=1.5,
                     corruption_counts=[])
        del point["spurious_rate"]
        with pytest.raises(ReportSchemaError) as excinfo:
            validate_report(payload)
        message = str(excinfo.value)
        for expected in (
            "baseline.records must be an int >= 0",
            "baseline.reduction_ratio must be a number",
            "curves[0].knob must be a non-empty string",
            "curves[0].severity must be a number >= 0",
            "curves[0].records_out must be an int >= 0",
            "curves[0].corruption_counts must be an object",
            "curves[0].spurious_rate must be a number in [0, 1]",
        ):
            assert expected in message

    def test_rejects_curves_that_are_not_a_list(self, report):
        payload = report.to_dict()
        payload["curves"] = {}
        with pytest.raises(ReportSchemaError, match="curves must be a list"):
            validate_report(payload)

    def test_rejects_non_object(self):
        with pytest.raises(ReportSchemaError):
            validate_report([])
        with pytest.raises(ReportSchemaError):
            validate_report("not json {")

    def test_empty_report_shape(self):
        report = RunReport("degrade.run", format=DEGRADE_REPORT_FORMAT)
        payload = report.to_dict()
        # An empty report lacks baseline counts, so it must NOT validate:
        # the schema demands at least the baseline summary.
        with pytest.raises(ReportSchemaError):
            validate_report(payload)


class TestHarnessValidation:
    def test_rejects_empty_knobs(self, records, config):
        with pytest.raises(DegradationError):
            run_degradation(records, config, knobs={})

    def test_rejects_empty_severities(self, records, config):
        with pytest.raises(DegradationError):
            run_degradation(records, config, severities=())

    def test_rejects_negative_severity(self, records, config):
        with pytest.raises(DegradationError):
            run_degradation(records, config, severities=(-1.0,))

    def test_lossy_config(self, config):
        hardened = lossy_config(config)
        assert hardened.short_payload == "skip"
        assert lossy_config(hardened) is hardened
        assert config.short_payload == "raise"


class TestDegradeCli:
    @pytest.fixture
    def trace(self, records, tmp_path):
        from repro.tracefile import binlog

        path = tmp_path / "journey.btrc"
        binlog.dump_records(records, path)
        return path

    def test_smoke(self, trace, tmp_path):
        import io

        from repro.cli import main

        out = io.StringIO()
        out_report = tmp_path / "degrade.json"
        code = main(
            [
                "degrade", "--dataset", "SYN", "--trace", str(trace),
                "--severities", "0,1", "--knobs",
                "frame_drop,exact_duplicate", "--out-report",
                str(out_report),
            ],
            out=out,
        )
        assert code == 0
        payload = validate_report(
            json.loads(out_report.read_text())
        )
        assert {p["knob"] for p in payload["curves"]} == {
            "frame_drop", "exact_duplicate",
        }
        assert "frame_drop" in out.getvalue()
        assert "baseline:" in out.getvalue()

    def test_unknown_knob_is_structured_error(self, trace, capsys):
        from repro.cli import main

        code = main(
            [
                "degrade", "--dataset", "SYN", "--trace", str(trace),
                "--knobs", "nope",
            ]
        )
        assert code == 2
        assert "error: degrade:" in capsys.readouterr().err

    def test_bad_severities_is_structured_error(self, trace, capsys):
        from repro.cli import main

        code = main(
            [
                "degrade", "--dataset", "SYN", "--trace", str(trace),
                "--severities", "0,zap",
            ]
        )
        assert code == 2
        assert "error: degrade:" in capsys.readouterr().err

    def test_missing_trace_is_structured_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "degrade", "--dataset", "SYN", "--trace",
                str(tmp_path / "absent.btrc"),
            ]
        )
        assert code == 2
        assert "error: trace:" in capsys.readouterr().err
