"""Tier-1 guards for names that code outside ``src/`` binds to.

``perf/`` is not in tier-1 ``testpaths``, yet its tracer wraps ``repro``
callables *by name*: renaming one passes tier-1 and then breaks every
traced benchmark run. The first test resolves every traced name, the
second every executor counter ``perf/workloads.py`` reads off
``executor.metrics``. The rest keep Algorithm 1 past interpretation
single-copy: the calls that *are* lines 7-28 may appear in one module
of ``repro.core`` only (in the spirit of the ``perf_counter``
containment guard in ``tests/obs``), and no module of it goes back to
the engine to split or deduplicate.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CORE = ROOT / "src" / "repro" / "core"


def _perf_targets():
    # Loaded by path and only read: perf/ is the benchmark's tree.
    spec = importlib.util.spec_from_file_location(
        "_perf_trace_for_guard", ROOT / "perf" / "trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, path", sorted({(t[0], t[1]) for t in _perf_targets()})
)
def test_every_traced_callable_resolves(module_name, path):
    target = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(target, part), "{}.{} is gone".format(
            module_name, path
        )
        target = getattr(target, part)
    assert callable(target)


def _perf_engine_counters():
    # Parsed, not imported: perf/ is the benchmark's tree.
    tree = ast.parse(
        (ROOT / "perf" / "workloads.py").read_text(encoding="utf-8")
    )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "_ENGINE_COUNTERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perf/workloads.py lost _ENGINE_COUNTERS")


@pytest.mark.parametrize("name", _perf_engine_counters())
def test_every_executor_counter_read_outside_the_engine_resolves(name):
    from repro.engine import EngineContext

    assert getattr(EngineContext.serial().executor.metrics, name) == 0


def _callers(name):
    """``(module, enclosing top-level definition)`` of every call
    ``name(...)`` or ``x.name(...)`` in repro.core."""
    callers = set()
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                if called == name:
                    callers.add((path.name, getattr(top, "name", None)))
    return callers


@pytest.mark.parametrize(
    "name",
    ["ChannelGroup", "process_branch", "classify", "flags", "carry_after"],
)
def test_algorithm_1_past_interpretation_has_one_call_site(name):
    assert {module for module, _scope in _callers(name)} == {"sequence.py"}


@pytest.mark.parametrize("name", ["distinct", "fromkeys"])
def test_core_deduplicates_in_the_shared_stage_only(name):
    assert _callers(name) == set()


def test_core_splits_on_the_engine_in_split_signal_types_only():
    assert _callers("split_by_key") == {
        ("splitting.py", "split_signal_types")
    }
