"""Declarative parameterization documents (core.params)."""

import json

import pytest

from repro.core import (
    CycleViolationExtension,
    GapExtension,
    MinimumGap,
    RollingAggregateExtension,
    UnchangedValue,
    UnchangedWithinCycle,
    ValueInSet,
)
from repro.core.params import (
    ParameterizationError,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


def malformed_documents(signal):
    """``(id, document, what the error must name)`` per malformed shape
    or type, for a database that has *signal*."""

    def constraint(**fields):
        return {
            "signals": [signal],
            "constraints": [dict(signal=signal, **fields)],
        }

    def extension(**fields):
        return {
            "signals": [signal],
            "extensions": [dict(signal=signal, **fields)],
        }

    return [
        ("top-level-list", [signal], "object"),
        ("signals-number", {"signals": 5}, "signals"),
        ("signals-string", {"signals": signal}, "signals"),
        ("signals-empty", {"signals": []}, "signals"),
        ("signals-mixed", {"signals": [signal, 3]}, "signals"),
        ("constraint-string", {"signals": [signal], "constraints": ["x"]},
         "constraint"),
        ("constraints-object", {"signals": [signal], "constraints": {}},
         "constraints"),
        ("constraint-signal-number",
         {"signals": [signal],
          "constraints": [{"signal": 5, "type": "unchanged"}]},
         "signal"),
        ("constraint-type-missing", constraint(), "type"),
        ("cycle-time-missing", constraint(type="unchanged_within_cycle"),
         "cycle_time"),
        ("cycle-time-nan",
         constraint(type="unchanged_within_cycle", cycle_time=float("nan")),
         "cycle_time"),
        ("min-gap-string", constraint(type="minimum_gap", min_gap="abc"),
         "min_gap"),
        ("min-gap-bool", constraint(type="minimum_gap", min_gap=True),
         "min_gap"),
        ("values-number", constraint(type="value_in_set", values=3),
         "values"),
        ("values-nested", constraint(type="value_in_set", values=[[1]]),
         "values"),
        ("enabled-string", constraint(type="unchanged", enabled="yes"),
         "enabled"),
        ("dedup-channels-string",
         {"signals": [signal], "dedup_channels": "no"}, "dedup_channels"),
        ("drop-exact-duplicates-number",
         {"signals": [signal], "drop_exact_duplicates": 0},
         "drop_exact_duplicates"),
        ("extensions-string", {"signals": [signal], "extensions": "gap"},
         "extensions"),
        ("extension-number", {"signals": [signal], "extensions": [3]},
         "extension"),
        ("extension-signal-empty",
         {"signals": [signal],
          "extensions": [{"signal": "", "type": "gap"}]},
         "signal"),
        ("expected-cycle-string",
         extension(type="cycle_violation", expected_cycle="0.1"),
         "expected_cycle"),
        ("gap-suffix-number", extension(type="gap", suffix=3), "suffix"),
    ]


@pytest.fixture
def document():
    return {
        "signals": ["wpos", "wvel", "heat"],
        "constraints": [
            {
                "signal": "wvel",
                "type": "unchanged_within_cycle",
                "cycle_time": 0.1,
                "tolerance": 2.0,
            },
            {"signal": "heat", "type": "unchanged"},
            {"signal": "wpos", "type": "minimum_gap", "min_gap": 0.5},
            {"signal": "heat", "type": "value_in_set", "values": ["off"]},
        ],
        "extensions": [
            {"signal": "wpos", "type": "gap"},
            {
                "signal": "wvel",
                "type": "cycle_violation",
                "expected_cycle": 0.1,
                "tolerance": 1.8,
            },
            {
                "signal": "wpos",
                "type": "rolling",
                "window": 5.0,
                "statistic": "max",
            },
        ],
        "branch": {"sax_alphabet": 5, "trend_fraction": 0.01},
        "dedup_channels": False,
    }


class TestFromDict:
    def test_catalog_selected(self, document, wiper_database):
        config = config_from_dict(document, wiper_database)
        assert set(config.catalog.signal_ids()) == {"wpos", "wvel", "heat"}

    def test_constraints_built(self, document, wiper_database):
        config = config_from_dict(document, wiper_database)
        (c,) = config.constraints.for_signal("wvel")
        assert isinstance(c.functions[0], UnchangedWithinCycle)
        assert c.functions[0].tolerance == 2.0
        types = {
            type(c.functions[0])
            for c in config.constraints
        }
        assert types == {
            UnchangedWithinCycle, UnchangedValue, MinimumGap, ValueInSet,
        }

    def test_extensions_built(self, document, wiper_database):
        config = config_from_dict(document, wiper_database)
        types = {type(e) for e in config.extensions}
        assert types == {
            GapExtension, CycleViolationExtension, RollingAggregateExtension,
        }

    def test_branch_config(self, document, wiper_database):
        config = config_from_dict(document, wiper_database)
        assert config.branch_config.sax.alphabet_size == 5
        assert config.branch_config.trend_fraction == 0.01
        assert config.dedup_channels is False

    def test_missing_signals_rejected(self, wiper_database):
        with pytest.raises(ParameterizationError):
            config_from_dict({}, wiper_database)

    def test_unknown_constraint_type_rejected(self, wiper_database):
        document = {
            "signals": ["wpos"],
            "constraints": [{"signal": "wpos", "type": "fancy"}],
        }
        with pytest.raises(ParameterizationError):
            config_from_dict(document, wiper_database)

    def test_unknown_extension_type_rejected(self, wiper_database):
        document = {
            "signals": ["wpos"],
            "extensions": [{"signal": "wpos", "type": "fancy"}],
        }
        with pytest.raises(ParameterizationError):
            config_from_dict(document, wiper_database)

    def test_constraint_without_signal_rejected(self, wiper_database):
        document = {
            "signals": ["wpos"],
            "constraints": [{"type": "unchanged"}],
        }
        with pytest.raises(ParameterizationError):
            config_from_dict(document, wiper_database)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("swab_buffer", 0),
            ("swab_buffer", 1),
            ("swab_buffer", "40"),
            ("swab_buffer", 40.0),
            ("swab_buffer", True),
            ("swab_error_fraction", -1),
            ("swab_error_fraction", float("nan")),
            ("swab_error_fraction", "0.05"),
            ("trend_fraction", -0.02),
            ("trend_fraction", float("inf")),
            ("rate_threshold", -1.0),
            ("rate_threshold", None),
            ("outlier_threshold", 0),
            ("outlier_threshold", -3.5),
            ("smoothing_window", "5"),
            ("sax_alphabet", "3"),
        ],
    )
    def test_bad_branch_value_rejected_naming_the_key(
        self, key, value, wiper_database
    ):
        document = {"signals": ["wpos"], "branch": {key: value}}
        with pytest.raises(ParameterizationError, match=key):
            config_from_dict(document, wiper_database)

    @pytest.mark.parametrize("document, named", [
        pytest.param(document, named, id=case)
        for case, document, named in malformed_documents("wpos")
    ])
    def test_malformed_document_rejected_naming_the_key(
        self, document, named, wiper_database
    ):
        with pytest.raises(ParameterizationError, match=named):
            config_from_dict(document, wiper_database)

    def test_branch_must_be_an_object(self, wiper_database):
        with pytest.raises(ParameterizationError, match="branch"):
            config_from_dict(
                {"signals": ["wpos"], "branch": [40]}, wiper_database
            )


class TestRoundTrip:
    def test_dict_round_trip(self, document, wiper_database):
        config = config_from_dict(document, wiper_database)
        rebuilt = config_from_dict(
            config_to_dict(config), wiper_database
        )
        assert config_to_dict(rebuilt) == config_to_dict(config)

    def test_outlier_and_smoothing_knobs_round_trip(
        self, document, wiper_database
    ):
        document["branch"].update(outlier_threshold=2.0, smoothing_window=9)
        config = config_from_dict(document, wiper_database)
        emitted = config_to_dict(config)["branch"]
        assert emitted["outlier_threshold"] == 2.0
        assert emitted["smoothing_window"] == 9
        rebuilt = config_from_dict(
            config_to_dict(config), wiper_database
        ).branch_config
        assert rebuilt.outlier_detector.threshold == 2.0
        assert rebuilt.smoother.window == 9

    def test_default_knobs_keep_older_documents_byte_stable(
        self, document, wiper_database
    ):
        emitted = config_to_dict(config_from_dict(document, wiper_database))
        assert "outlier_threshold" not in emitted["branch"]
        assert "smoothing_window" not in emitted["branch"]

    def test_file_round_trip(self, document, wiper_database, tmp_path):
        config = config_from_dict(document, wiper_database)
        path = tmp_path / "params.json"
        saved = save_config(config, path)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(saved)
        )
        loaded = load_config(path, wiper_database)
        assert config_to_dict(loaded) == config_to_dict(config)

    def test_round_tripped_config_runs(self, document, wiper_database,
                                        wiper_trace, tmp_path):
        from repro.core import PreprocessingPipeline

        config = config_from_dict(document, wiper_database)
        path = tmp_path / "params.json"
        save_config(config, path)
        loaded = load_config(path, wiper_database)
        result = PreprocessingPipeline(loaded).run(wiper_trace)
        assert set(result.outcomes) == {"wpos", "wvel", "heat"}
