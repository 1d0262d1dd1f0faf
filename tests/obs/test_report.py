"""RunReport serialization, its sections and the schema validation of
every report format."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    REPORT_FORMAT,
    ReportSchemaError,
    RunReport,
    validate_report,
)
from repro.obs.report import (
    DEGRADE_REPORT_FORMAT,
    DISCOVERY_REPORT_FORMAT,
    FLEET_REPORT_FORMAT,
    SECTION_RULES,
)

#: One valid set of sections per format.
SAMPLE_SECTIONS = {
    REPORT_FORMAT: {},
    FLEET_REPORT_FORMAT: {
        "jobs": [{"job_id": "a" * 16, "index": 0, "trace": "traces/j0.trc",
                  "status": "done"}],
        "failures": [],
    },
    DEGRADE_REPORT_FORMAT: {
        "baseline": {"records": 10, "k_s_rows": 6, "r_out_rows": 2,
                     "reduction_ratio": 0.5},
        "curves": [],
    },
    DISCOVERY_REPORT_FORMAT: {
        "messages": [],
        "totals": dict.fromkeys(
            SECTION_RULES[DISCOVERY_REPORT_FORMAT]["totals"][1], 0
        ),
    },
}


def make_report(form=REPORT_FORMAT):
    report = RunReport("test.run", format=form)
    report.sections.update(SAMPLE_SECTIONS[form])
    report.set_meta(dataset="SYN")
    with report.span("stage", rows_in=10) as span:
        span.set(rows_out=5)
    report.metrics.inc("executor.shuffles", 2)
    report.metrics.set_gauge("selectivity", 0.5)
    report.metrics.observe("task_seconds", 0.01)
    return report


class TestRunReport:
    def test_to_dict_is_valid(self):
        payload = make_report().to_dict()
        assert validate_report(payload) is payload
        assert payload["format"] == REPORT_FORMAT
        assert payload["meta"] == {"dataset": "SYN"}
        assert payload["counters"]["executor.shuffles"] == 2

    def test_json_roundtrip_validates(self):
        text = make_report().to_json()
        payload = validate_report(text)
        assert payload["name"] == "test.run"

    def test_write_and_reload(self, tmp_path):
        path = tmp_path / "report.json"
        make_report().write(str(path))
        payload = json.loads(path.read_text())
        validate_report(payload)

    def test_to_text_mentions_spans_and_metrics(self):
        text = make_report().to_text()
        assert "test.run" in text
        assert "stage" in text
        assert "executor.shuffles" in text
        assert "task_seconds" in text

    def test_merge_registry(self):
        report = RunReport("r")
        other = MetricsRegistry()
        other.inc("executor.tasks_run", 7)
        report.merge_registry(other)
        assert report.metrics.counter("executor.tasks_run").value == 7


class TestValidateReport:
    def test_rejects_wrong_format_tag(self):
        payload = make_report().to_dict()
        payload["format"] = "something/else"
        with pytest.raises(ReportSchemaError):
            validate_report(payload)

    def test_rejects_negative_span_seconds(self):
        payload = make_report().to_dict()
        payload["spans"][0]["seconds"] = -1.0
        with pytest.raises(ReportSchemaError):
            validate_report(payload)

    def test_rejects_non_integer_counter(self):
        payload = make_report().to_dict()
        payload["counters"]["executor.shuffles"] = "two"
        with pytest.raises(ReportSchemaError):
            validate_report(payload)

    def test_rejects_missing_spans(self):
        payload = make_report().to_dict()
        del payload["spans"]
        with pytest.raises(ReportSchemaError):
            validate_report(payload)

    def test_rejects_invalid_json_text(self):
        with pytest.raises(ReportSchemaError):
            validate_report("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(ReportSchemaError):
            validate_report([1, 2, 3])

    def test_error_lists_every_problem(self):
        payload = make_report().to_dict()
        payload["format"] = "bad"
        payload["name"] = ""
        try:
            validate_report(payload)
        except ReportSchemaError as exc:
            message = str(exc)
        assert "format" in message and "name" in message

    def test_nested_span_children_checked(self):
        payload = make_report().to_dict()
        payload["spans"][0]["children"] = [{"name": "", "seconds": 0.0}]
        with pytest.raises(ReportSchemaError):
            validate_report(payload)


class TestReportMerge:
    def test_merge_combines_metrics_and_spans(self):
        a = make_report()
        b = make_report()
        before_seconds = a.spans.seconds("stage")
        assert a.merge(b) is a
        assert a.metrics.counter("executor.shuffles").value == 4
        assert a.metrics.histogram("task_seconds").count == 2
        assert a.spans.seconds("stage") >= before_seconds
        assert len(a.spans.spans) == 1

    def test_merge_keeps_existing_meta(self):
        a = RunReport("fleet").set_meta(dataset="SYN")
        b = RunReport("job").set_meta(dataset="LIG", trace="t1.trc")
        a.merge(b)
        assert a.meta == {"dataset": "SYN", "trace": "t1.trc"}

    def test_merge_prefix_scopes_metric_names(self):
        a = RunReport("fleet")
        b = RunReport("job")
        b.metrics.inc("rows_out", 5)
        a.merge(b, prefix="job.")
        assert a.metrics.counter("job.rows_out").value == 5

    def test_merged_report_still_validates(self):
        a = make_report()
        a.merge(make_report())
        assert validate_report(a.to_dict())


class TestSections:
    def test_every_format_has_a_sample(self):
        assert set(SAMPLE_SECTIONS) == set(SECTION_RULES)

    @pytest.mark.parametrize("form", sorted(SECTION_RULES))
    def test_a_new_report_starts_with_every_section_empty(self, form):
        report = RunReport("r", format=form)
        assert report.format == form
        assert {name: type(value) for name, value in report.sections.items()} \
            == {name: kind for name, (kind, _) in SECTION_RULES[form].items()}
        assert not any(report.sections.values())

    @pytest.mark.parametrize("form", sorted(SECTION_RULES))
    def test_sections_serialize_as_top_level_fields(self, form):
        report = make_report(form)
        payload = validate_report(report.to_dict())
        assert payload["format"] == form
        for name, value in SAMPLE_SECTIONS[form].items():
            assert payload[name] == value
            assert payload[name] is not report.sections[name]

    def test_unknown_format_is_refused(self):
        with pytest.raises(ValueError, match="unknown report format"):
            RunReport("r", format="repro.nothing/1")

    @pytest.mark.parametrize("form", ["repro.nothing/1", None, ["x"], {}])
    def test_unknown_format_is_rejected(self, form):
        payload = make_report().to_dict()
        payload["format"] = form
        with pytest.raises(ReportSchemaError, match="format must be one of"):
            validate_report(payload)

    def test_a_section_of_another_format_is_rejected(self):
        payload = make_report(DEGRADE_REPORT_FORMAT).to_dict()
        payload["jobs"] = []
        with pytest.raises(ReportSchemaError) as excinfo:
            validate_report(payload)
        assert "has no section 'jobs'" in str(excinfo.value)


def _malformed_str(text):
    return text[: len(text) // 2]


def _malformed_bytes(text):
    return b"\xff" + text.encode("utf-8")


class TestMalformedInput:
    """Every format turns undecodable JSON into one ReportSchemaError."""

    @pytest.mark.parametrize("form", sorted(SECTION_RULES))
    @pytest.mark.parametrize("spoil", [_malformed_str, _malformed_bytes])
    def test_malformed_text_is_one_schema_error(self, form, spoil):
        text = make_report(form).to_json()
        with pytest.raises(ReportSchemaError, match="not valid JSON"):
            validate_report(spoil(text))

    @pytest.mark.parametrize("form", sorted(SECTION_RULES))
    def test_good_bytes_validate(self, form):
        payload = validate_report(make_report(form).to_json().encode())
        assert payload["format"] == form

    @pytest.mark.parametrize("form", sorted(SECTION_RULES))
    def test_valid_json_that_is_not_an_object_is_one_schema_error(
        self, form
    ):
        text = json.dumps([make_report(form).to_dict()])
        with pytest.raises(ReportSchemaError, match="must be a JSON object"):
            validate_report(text.encode())


class TestAtomicWrite:
    @pytest.mark.parametrize("form", sorted(SECTION_RULES))
    def test_unencodable_report_leaves_the_previous_file(self, form,
                                                          tmp_path):
        path = tmp_path / "report.json"
        make_report(form).write(path)
        before = path.read_bytes()
        loop = []
        loop.append(loop)
        report = make_report(form).set_meta(loop=loop)
        with pytest.raises(ValueError, match="Circular"):
            report.write(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_write_returns_the_path_and_ends_with_a_newline(self, tmp_path):
        path = make_report().write(str(tmp_path / "report.json"))
        assert path == tmp_path / "report.json"
        assert path.read_text().endswith("}\n")
