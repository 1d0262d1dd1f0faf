"""Run reports: spans + metrics + metadata + sections, serializable and
validated.

A :class:`RunReport` is the one unit of observability output: the
pipeline returns one per run, the CLI writes one with ``--report FILE``,
the fuzz harness embeds one in every divergence reproducer, and the
fleet sweep, the degradation sweep and discovery scoring each emit one
with their tables as *sections*. The JSON shape is versioned (the
``format`` field): every format shares the spans/counters/gauges/
histograms sections of ``repro.obs/1`` and adds the sections
:data:`SECTION_RULES` lists for it, so :func:`validate_report` checks
any report structurally without a JSON Schema dependency, and a new
format is one entry of that table.
"""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder

#: Version tags of the serialized report shapes.
REPORT_FORMAT = "repro.obs/1"
FLEET_REPORT_FORMAT = "repro.fleet/1"
DEGRADE_REPORT_FORMAT = "repro.degrade/1"
DISCOVERY_REPORT_FORMAT = "repro.discovery/1"

#: Terminal statuses a fleet job row may carry. ``cached`` means the
#: job's checkpoint predates this sweep (it was skipped by resume).
JOB_STATUSES = ("done", "cached", "failed", "pending")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


# A field rule is (what the value must be, its test, whether it must be
# there); a field the rule leaves optional is checked only when present.
_PRESENT = ("present", lambda value: True, True)
_TEXT = ("a non-empty string",
         lambda value: isinstance(value, str) and value != "", True)
_STRING = ("a string", lambda value: isinstance(value, str), True)
_BOOL = ("a bool", lambda value: isinstance(value, bool), True)
_NUMBER = ("a number", _is_number, True)
_RATE = ("a number in [0, 1]",
         lambda value: _is_number(value) and 0.0 <= value <= 1.0, True)
_COUNT = ("an int >= 0", _is_count, True)
_STATUS = ("one of " + "/".join(JOB_STATUSES),
           lambda value: value in JOB_STATUSES, True)


def _optional(rule):
    return rule[:2] + (False,)


#: Per format, its sections beyond the shared ones: name -> (``list`` of
#: row objects or one ``dict``, {field: rule}).
SECTION_RULES = {
    REPORT_FORMAT: {},
    FLEET_REPORT_FORMAT: {
        "jobs": (list, {
            "job_id": _TEXT, "trace": _STRING, "status": _STATUS,
            "index": _optional(_COUNT), "trace_rows": _optional(_COUNT),
            "rows_out": _optional(_COUNT),
        }),
        "failures": (list, {"job_id": _TEXT, "error": _TEXT}),
    },
    DEGRADE_REPORT_FORMAT: {
        "baseline": (dict, {
            "records": _COUNT, "k_s_rows": _COUNT, "r_out_rows": _COUNT,
            "reduction_ratio": _NUMBER,
        }),
        "curves": (list, {
            "knob": _TEXT, "byte_identical": _BOOL,
            "signal_recovery": _RATE, "spurious_rate": _RATE,
            "r_out_recovery": _RATE, "dedup_correctness": _RATE,
            "severity": ("a number >= 0",
                         lambda value: _is_number(value) and value >= 0,
                         True),
            "reduction_ratio": _NUMBER, "reduction_ratio_delta": _NUMBER,
            "records_in": _COUNT, "records_out": _COUNT,
            "corruption_events": _COUNT, "short_payload_skipped": _COUNT,
            "exact_duplicates_dropped": _COUNT,
            "corruption_counts": _optional(
                ("an object", lambda value: isinstance(value, dict), True)
            ),
        }),
    },
    DISCOVERY_REPORT_FORMAT: {
        "messages": (list, {
            "channel": _PRESENT, "message_id": _PRESENT, "frames": _PRESENT,
            "discoverable": _PRESENT, "recovered": _PRESENT,
            "matched": _PRESENT, "precision": _NUMBER, "recall": _NUMBER,
            "f1": _NUMBER,
        }),
        "totals": (dict, {
            name: _NUMBER for name in (
                "messages", "discoverable", "recovered", "matched",
                "precision", "recall", "f1", "encoding_matched",
                "encoding_accuracy", "spurious_messages",
                "constant_tokens", "checksum_tokens",
            )
        }),
    },
}


class ReportSchemaError(ValueError):
    """Raised by :func:`validate_report` for malformed report payloads."""


class RunReport:
    """One component run's observability bundle.

    Parameters
    ----------
    name:
        What ran, e.g. ``"pipeline.run"`` or ``"fuzz.divergence"``.
    metrics, spans:
        Existing registry/recorder to adopt; fresh ones by default.
    format:
        A key of :data:`SECTION_RULES`; :attr:`sections` starts with
        each of its sections empty, for the producer to fill.
    """

    def __init__(self, name, metrics=None, spans=None, format=REPORT_FORMAT):
        if format not in SECTION_RULES:
            raise ValueError("unknown report format {!r}".format(format))
        self.name = name
        self.format = format
        self.meta = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanRecorder()
        self.sections = {
            section: kind() for section, (kind, _) in
            SECTION_RULES[format].items()
        }

    def set_meta(self, **entries):
        self.meta.update(entries)
        return self

    def span(self, name, **attrs):
        return self.spans.span(name, **attrs)

    def merge_registry(self, registry, prefix=""):
        """Fold a component's registry (e.g. an executor's) in."""
        registry.merge_into(self.metrics, prefix=prefix)
        return self

    def merge(self, other, prefix=""):
        """Fold another :class:`RunReport` into this one; returns self.

        Aggregation semantics (what the fleet layer applies per-trace
        reports with): counters add, gauges take *other*'s value,
        histograms extend with *other*'s observations, spans merge by
        name with seconds accumulating, and *other*'s meta entries fill
        in only keys this report does not set yet. *prefix* is applied
        to metric names only (span names stay comparable across runs).
        """
        self.metrics.merge(other.metrics, prefix=prefix)
        self.spans.merge(other.spans)
        for key, value in other.meta.items():
            self.meta.setdefault(key, value)
        return self

    # -- serialization ---------------------------------------------------
    def to_dict(self):
        payload = {
            "format": self.format,
            "name": self.name,
            "meta": dict(self.meta),
            "spans": self.spans.to_list(),
        }
        payload.update(self.metrics.snapshot())
        for section, value in self.sections.items():
            payload[section] = (
                [dict(row) for row in value] if isinstance(value, list)
                else dict(value)
            )
        return payload

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False,
                          default=str)

    def write(self, path):
        """Serialize, then replace *path* in one staged rename: a report
        that cannot be encoded leaves the previous file as it was."""
        # Imported here: the engine imports this package.
        from repro.engine.storage import atomic_write_bytes

        text = self.to_json() + "\n"
        return atomic_write_bytes(path, text.encode("utf-8"))

    def to_text(self):
        """Human-readable summary (span tree + non-zero metrics)."""
        lines = ["run report: {}".format(self.name)]
        for key, value in sorted(self.meta.items()):
            lines.append("  meta {} = {}".format(key, value))
        if self.spans.spans:
            lines.append("spans:")
            for span in self.spans.spans:
                _render_span(span, lines, indent=1)
        counters = self.metrics.counters()
        if counters:
            lines.append("counters:")
            for name, value in counters.items():
                lines.append("  {} = {}".format(name, value))
        gauges = self.metrics.gauges()
        if gauges:
            lines.append("gauges:")
            for name, value in gauges.items():
                lines.append("  {} = {}".format(name, value))
        histograms = self.metrics.histograms()
        if histograms:
            lines.append("histograms:")
            for name, summary in histograms.items():
                lines.append(
                    "  {}: n={} mean={:.6f} p50={} p95={}".format(
                        name,
                        summary["count"],
                        summary.get("mean", 0.0),
                        summary.get("p50", "-"),
                        summary.get("p95", "-"),
                    )
                )
        return "\n".join(lines)


def _render_span(span, lines, indent):
    attrs = ""
    if span.attrs:
        attrs = "  [{}]".format(
            ", ".join(
                "{}={}".format(k, v) for k, v in sorted(span.attrs.items())
            )
        )
    lines.append(
        "{}{} {:.6f}s{}".format("  " * indent, span.name, span.seconds, attrs)
    )
    for child in span.children:
        _render_span(child, lines, indent + 1)


# ---------------------------------------------------------------------------
# Structural validation (the "report schema")
# ---------------------------------------------------------------------------


def _fail(errors, message):
    errors.append(message)


def _check_span(span, path, errors):
    if not isinstance(span, dict):
        return _fail(errors, "{}: span must be an object".format(path))
    if not isinstance(span.get("name"), str) or not span.get("name"):
        _fail(errors, "{}: span needs a non-empty string 'name'".format(path))
    seconds = span.get("seconds")
    if not _is_number(seconds) or seconds < 0:
        _fail(errors, "{}: span 'seconds' must be a number >= 0".format(path))
    attrs = span.get("attrs", {})
    if not isinstance(attrs, dict):
        _fail(errors, "{}: span 'attrs' must be an object".format(path))
    children = span.get("children", [])
    if not isinstance(children, list):
        return _fail(errors, "{}: span 'children' must be a list".format(path))
    for i, child in enumerate(children):
        _check_span(child, "{}.children[{}]".format(path, i), errors)


_HISTOGRAM_NUMERIC = ("total", "mean", "min", "max", "p50", "p95")


_SHARED_KEYS = ("format", "name", "meta", "spans", "counters", "gauges",
                "histograms")


def _check_fields(value, path, fields, errors):
    if not isinstance(value, dict):
        return _fail(errors, "{} must be an object".format(path))
    for key, (must_be, test, required) in fields.items():
        if key in value:
            valid = test(value[key])
        else:
            valid = not required
        if not valid:
            _fail(errors, "{}.{} must be {}".format(path, key, must_be))


def _check_sections(payload, errors):
    form = payload.get("format")
    rules = SECTION_RULES.get(form) if isinstance(form, str) else None
    if rules is None:
        return _fail(errors, "format must be one of {}, got {!r}".format(
            "/".join(SECTION_RULES), form))
    for key in payload:
        if key not in _SHARED_KEYS and key not in rules:
            _fail(errors, "format {!r} has no section {!r}".format(form, key))
    for section, (kind, fields) in rules.items():
        value = payload.get(section)
        if not isinstance(value, kind):
            _fail(errors, "{} must be {}".format(
                section, "a list" if kind is list else "an object"))
        elif kind is dict:
            _check_fields(value, section, fields, errors)
        else:
            for i, row in enumerate(value):
                _check_fields(
                    row, "{}[{}]".format(section, i), fields, errors
                )


def validate_report(payload):
    """Check a report payload against the shape of its ``format``.

    The shared sections follow the ``repro.obs/1`` rules; the format's
    own sections follow its entry of :data:`SECTION_RULES`, and a section
    the format does not list is an error. Returns the payload when valid;
    raises :class:`ReportSchemaError` listing every problem otherwise.
    Accepts a dict or its JSON as ``str`` or ``bytes``.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except ValueError as exc:
            raise ReportSchemaError("report is not valid JSON: {}".format(exc))
    errors = []
    if not isinstance(payload, dict):
        raise ReportSchemaError("report must be a JSON object")
    _check_sections(payload, errors)
    if not isinstance(payload.get("name"), str) or not payload.get("name"):
        _fail(errors, "name must be a non-empty string")
    if not isinstance(payload.get("meta", {}), dict):
        _fail(errors, "meta must be an object")
    spans = payload.get("spans")
    if not isinstance(spans, list):
        _fail(errors, "spans must be a list")
    else:
        for i, span in enumerate(spans):
            _check_span(span, "spans[{}]".format(i), errors)
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        _fail(errors, "counters must be an object")
    else:
        for name, value in counters.items():
            if not _is_count(value):
                _fail(errors, "counters[{!r}] must be an int >= 0".format(name))
    gauges = payload.get("gauges")
    if not isinstance(gauges, dict):
        _fail(errors, "gauges must be an object")
    else:
        for name, value in gauges.items():
            if not _is_number(value):
                _fail(errors, "gauges[{!r}] must be a number".format(name))
    histograms = payload.get("histograms")
    if not isinstance(histograms, dict):
        _fail(errors, "histograms must be an object")
    else:
        for name, summary in histograms.items():
            if not isinstance(summary, dict):
                _fail(errors, "histograms[{!r}] must be an object".format(name))
                continue
            if not _is_count(summary.get("count")):
                _fail(errors, "histograms[{!r}].count must be an int >= 0"
                      .format(name))
            for key in _HISTOGRAM_NUMERIC:
                if key in summary and not _is_number(summary[key]):
                    _fail(errors, "histograms[{!r}].{} must be a number"
                          .format(name, key))
    if errors:
        raise ReportSchemaError(
            "invalid run report: {}".format("; ".join(errors))
        )
    return payload
