"""Declarative pipeline parameterization.

The paper's framework "requires one-time parameterization" per domain
(abstract). This module gives that parameterization a durable, reviewable
form: a JSON-compatible dict describing the signals to extract, the
reduction constraints ``C``, the extension rules ``E`` and the branch
tuning -- convertible to a :class:`~repro.core.pipeline.PipelineConfig`
against a communication database, and back.

Schema::

    {
      "signals": ["wpos", "wvel"],
      "constraints": [
        {"signal": "wvel", "type": "unchanged_within_cycle",
         "cycle_time": 0.1, "tolerance": 1.5},
        {"signal": "heat", "type": "unchanged"},
        {"signal": "x", "type": "minimum_gap", "min_gap": 0.5},
        {"signal": "y", "type": "value_in_set", "values": ["idle"]}
      ],
      "extensions": [
        {"signal": "wpos", "type": "gap"},
        {"signal": "status", "type": "cycle_violation",
         "expected_cycle": 0.1, "tolerance": 1.8},
        {"signal": "wpos", "type": "rolling",
         "window": 10.0, "statistic": "mean"}
      ],
      "branch": {"sax_alphabet": 3, "swab_error_fraction": 0.05,
                 "trend_fraction": 0.02, "smoothing_window": 5,
                 "rate_threshold": 1.0},
      "dedup_channels": true
    }
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.analysis.outliers import ZScoreDetector
from repro.analysis.sax import MIN_ALPHABET, SaxEncoder
from repro.analysis.smoothing import MovingAverage
from repro.core.branches import BranchConfig
from repro.core.classification import ClassifierConfig, is_numeric_type
from repro.core.extension import (
    CycleViolationExtension,
    ExtensionSet,
    GapExtension,
    RollingAggregateExtension,
)
from repro.core.pipeline import PipelineConfig
from repro.core.reduction import (
    Constraint,
    ConstraintSet,
    MinimumGap,
    UnchangedValue,
    UnchangedWithinCycle,
    ValueInSet,
)


class ParameterizationError(ValueError):
    """Raised for unknown rule types or malformed parameter documents."""


#: Source of the defaults for the branch knobs that ``config_to_dict``
#: emits only when they differ.
_DEFAULT_BRANCH = BranchConfig()
_DEFAULT_OUTLIER_THRESHOLD = _DEFAULT_BRANCH.outlier_detector.threshold
_DEFAULT_SMOOTHING_WINDOW = _DEFAULT_BRANCH.smoother.window


def _build_constraint(spec):
    kind = _rule_kind(spec, "constraint")
    if kind == "unchanged":
        function = UnchangedValue()
    elif kind == "unchanged_within_cycle":
        function = UnchangedWithinCycle(
            cycle_time=_number(spec, "constraint", "cycle_time"),
            tolerance=_number(spec, "constraint", "tolerance", 1.5),
        )
    elif kind == "minimum_gap":
        function = MinimumGap(
            min_gap=_number(spec, "constraint", "min_gap")
        )
    elif kind == "value_in_set":
        values = spec.get("values")
        if not isinstance(values, list) or not all(
            isinstance(v, _SCALARS) for v in values
        ):
            raise ParameterizationError(
                "constraint 'values' must be a list of numbers, strings, "
                "booleans or nulls, got {!r}".format(values)
            )
        function = ValueInSet(frozenset(values))
    else:
        raise ParameterizationError(
            "unknown constraint type {!r}".format(kind)
        )
    return Constraint(
        spec["signal"], _flag(spec, "constraint", "enabled", True),
        (function,),
    )


def _constraint_to_dict(constraint):
    (function,) = constraint.functions
    out = {"signal": constraint.signal_id}
    if not constraint.enabled:
        out["enabled"] = False
    if isinstance(function, UnchangedValue):
        out["type"] = "unchanged"
    elif isinstance(function, UnchangedWithinCycle):
        out.update(
            type="unchanged_within_cycle",
            cycle_time=function.cycle_time,
            tolerance=function.tolerance,
        )
    elif isinstance(function, MinimumGap):
        out.update(type="minimum_gap", min_gap=function.min_gap)
    elif isinstance(function, ValueInSet):
        out.update(type="value_in_set", values=sorted(function.values))
    else:
        raise ParameterizationError(
            "constraint function {!r} has no declarative form".format(
                type(function).__name__
            )
        )
    return out


def _build_extension(spec):
    kind = _rule_kind(spec, "extension")
    signal = spec["signal"]
    if kind == "gap":
        suffix = spec.get("suffix", "Gap")
        if not isinstance(suffix, str) or not suffix:
            raise ParameterizationError(
                "extension 'suffix' must be a non-empty string, got "
                "{!r}".format(suffix)
            )
        return GapExtension(signal, suffix=suffix)
    if kind == "cycle_violation":
        return CycleViolationExtension(
            signal,
            expected_cycle=_number(spec, "extension", "expected_cycle"),
            tolerance=_number(spec, "extension", "tolerance", 1.5),
        )
    if kind == "rolling":
        return RollingAggregateExtension(
            signal,
            window=_number(spec, "extension", "window"),
            statistic=spec.get("statistic", "mean"),
        )
    raise ParameterizationError("unknown extension type {!r}".format(kind))


def _extension_to_dict(rule):
    if isinstance(rule, GapExtension):
        return {"signal": rule.signal_id, "type": "gap", "suffix": rule.suffix}
    if isinstance(rule, CycleViolationExtension):
        return {
            "signal": rule.signal_id,
            "type": "cycle_violation",
            "expected_cycle": rule.expected_cycle,
            "tolerance": rule.tolerance,
        }
    if isinstance(rule, RollingAggregateExtension):
        return {
            "signal": rule.signal_id,
            "type": "rolling",
            "window": rule.window,
            "statistic": rule.statistic,
        }
    raise ParameterizationError(
        "extension {!r} has no declarative form".format(type(rule).__name__)
    )


#: Cell types a ``value_in_set`` constraint may list (hashable JSON).
_SCALARS = (str, int, float, bool, type(None))

#: Default of a key that must be given.
_REQUIRED = object()


def _object(value, what):
    if not isinstance(value, dict):
        raise ParameterizationError(
            "{} must be an object, got {!r}".format(what, value)
        )
    return value


def _list(document, key):
    value = document.get(key, [])
    if not isinstance(value, list):
        raise ParameterizationError(
            "{!r} must be a list, got {!r}".format(key, value)
        )
    return value


def _rule_kind(spec, what):
    """The ``type`` of a constraint or extension entry, once the entry
    is an object naming its signal."""
    _object(spec, "each {}".format(what))
    signal = spec.get("signal")
    if not isinstance(signal, str) or not signal:
        raise ParameterizationError(
            "{} needs a 'signal' name, got {!r}".format(what, signal)
        )
    return spec.get("type")


def _flag(spec, where, key, default):
    value = spec.get(key, default)
    if not isinstance(value, bool):
        raise ParameterizationError(
            "{} {!r} must be true or false, got {!r}".format(
                where, key, value
            )
        )
    return value


def _integer(spec, where, key, default, minimum):
    value = spec.get(key, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < minimum
    ):
        raise ParameterizationError(
            "{} {!r} must be an integer >= {}, got {!r}".format(
                where, key, minimum, value
            )
        )
    return value


def _number(spec, where, key, default=_REQUIRED):
    """A finite number; the rule dataclasses check their own ranges."""
    if default is _REQUIRED and key not in spec:
        raise ParameterizationError(
            "{} {!r} is required".format(where, key)
        )
    value = spec.get(key, default)
    if not is_numeric_type(type(value)) or not math.isfinite(value):
        raise ParameterizationError(
            "{} {!r} must be a finite number, got {!r}".format(
                where, key, value
            )
        )
    return value


def _build_branch_config(spec):
    _object(spec, "'branch'")

    def number(key, default, positive=False):
        value = _number(spec, "branch", key, default)
        if value <= 0 if positive else value < 0:
            raise ParameterizationError(
                "branch {!r} must be a finite {} number, got {!r}".format(
                    key, "positive" if positive else "non-negative", value
                )
            )
        return value

    def integer(key, default, minimum):
        return _integer(spec, "branch", key, default, minimum)

    return BranchConfig(
        outlier_detector=ZScoreDetector(
            threshold=number(
                "outlier_threshold", _DEFAULT_OUTLIER_THRESHOLD, True
            )
        ),
        smoother=MovingAverage(
            window=integer("smoothing_window", _DEFAULT_SMOOTHING_WINDOW, 1)
        ),
        sax=SaxEncoder(
            alphabet_size=integer("sax_alphabet", 3, MIN_ALPHABET)
        ),
        swab_error_fraction=number("swab_error_fraction", 0.05),
        swab_buffer=integer("swab_buffer", 40, 2),
        trend_fraction=number("trend_fraction", 0.02),
        classifier=ClassifierConfig(
            rate_threshold=number("rate_threshold", 1.0)
        ),
    )


def config_from_dict(document, database):
    """Build a :class:`PipelineConfig` from a parameter document.

    *database* supplies the translation catalog (``U_rel``); the
    document's ``signals`` select ``U_comb`` from it.
    """
    _object(document, "the parameter document")
    signals = document.get("signals")
    if (
        not isinstance(signals, list) or not signals
        or not all(isinstance(s, str) for s in signals)
    ):
        raise ParameterizationError(
            "document must list 'signals' by name, got {!r}".format(signals)
        )
    catalog = database.translation_catalog(signals)
    constraints = ConstraintSet(
        tuple(_build_constraint(c) for c in _list(document, "constraints"))
    )
    extensions = ExtensionSet(
        tuple(_build_extension(e) for e in _list(document, "extensions"))
    )
    return PipelineConfig(
        catalog=catalog,
        constraints=constraints,
        extensions=extensions,
        branch_config=_build_branch_config(document.get("branch", {})),
        dedup_channels=_flag(document, "document", "dedup_channels", True),
        short_payload=document.get("short_payload", "raise"),
        drop_exact_duplicates=_flag(
            document, "document", "drop_exact_duplicates", True
        ),
    )


def config_to_dict(config):
    """Serialize a :class:`PipelineConfig` back to a parameter document.

    Only declaratively-expressible constraints/extensions (one function
    per constraint, the bundled rule types) are supported -- which is
    exactly what :func:`config_from_dict` produces.
    """
    branch = config.branch_config
    out = {
        "signals": sorted(set(config.catalog.signal_ids())),
        "constraints": [
            _constraint_to_dict(c) for c in config.constraints
        ],
        "extensions": [
            _extension_to_dict(e) for e in config.extensions
        ],
        "branch": {
            "sax_alphabet": branch.sax.alphabet_size,
            "swab_error_fraction": branch.swab_error_fraction,
            "swab_buffer": branch.swab_buffer,
            "trend_fraction": branch.trend_fraction,
            "rate_threshold": branch.classifier.rate_threshold,
        },
        "dedup_channels": config.dedup_channels,
    }
    # Knobs added after the first documents are emitted only when
    # non-default, keeping older documents byte-stable.
    detector, smoother = branch.outlier_detector, branch.smoother
    if (
        isinstance(detector, ZScoreDetector)
        and detector.threshold != _DEFAULT_OUTLIER_THRESHOLD
    ):
        out["branch"]["outlier_threshold"] = detector.threshold
    if (
        isinstance(smoother, MovingAverage)
        and smoother.window != _DEFAULT_SMOOTHING_WINDOW
    ):
        out["branch"]["smoothing_window"] = smoother.window
    if config.short_payload != "raise":
        out["short_payload"] = config.short_payload
    if not config.drop_exact_duplicates:
        out["drop_exact_duplicates"] = False
    return out


def load_config(path, database):
    """Read a JSON parameter file into a :class:`PipelineConfig`."""
    with open(Path(path)) as fh:
        document = json.load(fh)
    return config_from_dict(document, database)


def save_config(config, path):
    """Write a :class:`PipelineConfig` as a JSON parameter file."""
    document = config_to_dict(config)
    with open(Path(path), "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
    return document
