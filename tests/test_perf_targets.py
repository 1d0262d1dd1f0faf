"""Tier-1 guards for names that code outside ``src/`` binds to.

``perf/`` is not in tier-1 ``testpaths``, yet its tracer wraps ``repro``
callables *by name*: renaming one passes tier-1 and then breaks every
traced benchmark run. The first test resolves every traced name, the
second every executor counter ``perf/workloads.py`` reads off
``executor.metrics``. The rest keep Algorithm 1 past interpretation
single-copy: the calls that *are* lines 7-28 may appear in one module
of ``repro.core`` only (in the spirit of the ``perf_counter``
containment guard in ``tests/obs``), and no module of it goes back to
the engine to split or deduplicate. The last group keeps a packed plane
packed: cells are decoded by the plane class, whole columns are
compressed and transposed in one named function each, ``m_info`` is
indexed by ``_RuleKernels._scalar_rule`` alone (the per-rule kernels
never see the column), ``value_order_key`` is called for tied
timestamps only, and ``Table.cache`` goes through
``Executor.execute``, the name the tracer wraps. The last two keep
replay a merge (one stable ``lexsort``, no ``Condition`` to negotiate an
order through) and the ``m_info`` TLV codec single-copy in ``binlog``;
the ones after them keep the stream path at one ``queue.put`` per chunk,
one ``_RuleKernels`` per session, one lines 2-6 task per sealed window
and no scan of the pending windows per frame. The engine-surface guards
keep the engine at what the program issues: every public ``Table``
method, ``EngineContext`` constructor and ``repro.engine`` export has a
caller outside the engine, and every defaulted parameter of those
methods and of the executor constructors is set to something other
than its default by one, or is listed with its reason. The last
guard but one keeps Table 3's "is this value a number" (``int``/``float``,
not ``bool``) in one function of ``repro.core``, which its callers ask
once per value type: no other scope of it tests against
``(int, float)``. Two more keep lines 7-28 one pass per run: a run
opens one reduce, extend and branch span whatever its signal count, and
a numeric signal type's values never leave their float64 plane for an
object ``astype``. One keeps α set-level: on SYN the stride pass fits
every accepted SWAB buffer (a span fitter per α sequence at most, for
its tail) and no SAX or trend method runs once per SWAB segment. The last two keep unpickling to the fleet checkpoint
reader: no stored table, stream log or other file is read through
``pickle.load``, and the stream path does not import ``pickle``.
Another keeps one report class: every report format is an entry of the
rule table in ``repro.obs.report``, not another wrapper around
``RunReport``. Two
more keep every engine task and fleet job at one run: no module defines
or imports a fault-injection or attempt-loop name, and no signature
takes a fault or retry parameter.
"""

import ast
import functools
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CORE = SRC / "core"
ENGINE = SRC / "engine"
STREAM = ROOT / "src" / "repro" / "stream"
TRACEFILE = ROOT / "src" / "repro" / "tracefile"


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
    ["ChannelGroup", "classify_segments", "classify", "flags",
     "carry_after"],
)
def test_algorithm_1_past_interpretation_has_one_call_site(name):
    assert {module for module, _scope in _callers(name)} == {"sequence.py"}


def test_core_deduplicates_in_the_shared_stage_only():
    assert _callers("distinct") == set()
    assert _callers("fromkeys") == set()
    assert {
        scope for module, scope in _callers("setdefault")
        if module == "sequence.py"
    } == {"_order"}


def test_value_order_key_is_called_for_tied_timestamps_only():
    """``_order`` is where values are keyed, and it runs on the runs of
    tied elements, only when a sequence has one."""
    assert _callers("value_order_key") == {("sequence.py", "_order")}
    assert _callers("_order") == {("sequence.py", "split_sequences")}
    tree = ast.parse((CORE / "sequence.py").read_text(encoding="utf-8"))
    [split] = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "split_sequences"
    ]
    [ties] = [
        node for node in ast.walk(split)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "tied.any()"
    ]
    assert any(
        isinstance(node, ast.Call) and _name(node.func) == "_order"
        for node in ast.walk(ties)
    )


def test_core_splits_on_the_engine_in_split_signal_types_only():
    assert _callers("split_by_key") == {
        ("splitting.py", "split_signal_types")
    }


def _scopes(directories, matches):
    """``(module, Class.function)`` of every AST node *matches* accepts
    under *directories* (the innermost enclosing definitions)."""
    found = set()

    def visit(node, module, scope):
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            scope = scope + (node.name,)
        if matches(node):
            found.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for directory in directories:
        for path in sorted(directory.glob("*.py")):
            visit(_parsed(path), path.name, ())
    return found


@functools.lru_cache(maxsize=None)
def _parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_a_packed_cell_is_decoded_by_the_plane_class_only():
    def reads_decode_hook(node):
        return isinstance(node, ast.Attribute) and node.attr == "decode"

    readers = _scopes([ENGINE], reads_decode_hook)
    assert {scope.split(".")[0] for _module, scope in readers} == {
        "BytesColumn"
    }


def test_whole_columns_are_compressed_and_transposed_in_one_place_each():
    def compresses(node):
        return isinstance(node, ast.Call) and _name(node.func) == "compress"

    def transposes(node):  # zip(*columns) / zip(*x.columns)
        return (
            isinstance(node, ast.Call) and _name(node.func) == "zip"
            and any(
                isinstance(a, ast.Starred) and _name(a.value) == "columns"
                for a in node.args
            )
        )

    assert _scopes([ENGINE, CORE], compresses) == {
        ("columnar.py", "compress_column")
    }
    assert _scopes([ENGINE, CORE], transposes) == {
        ("columnar.py", "columns_to_rows")
    }
    # ... and the narrow task's filter compresses through that function.
    from repro.engine import operations
    from repro.engine.columnar import compress_column

    def calls_compress_column(node):
        return isinstance(node, ast.Call) and \
            _name(node.func) == "compress_column"

    assert _scopes([ENGINE, CORE], calls_compress_column) == {
        ("operations.py", "PartitionTask.__call__")
    }
    assert operations.compress_column is compress_column


def test_m_info_cells_are_indexed_by_the_scalar_fallback_only():
    def indexes(node):
        return isinstance(node, ast.Subscript) and \
            _name(node.value) == "m_infos"

    def iterates(node):  # for/comprehension over it, or zip(...)/list(...)
        if isinstance(node, (ast.For, ast.comprehension)):
            return _name(node.iter) == "m_infos"
        return isinstance(node, ast.Call) and any(
            _name(arg) == "m_infos" for arg in node.args
        )

    assert _scopes([ENGINE, CORE], indexes) == {
        ("interpretation.py", "_RuleKernels._scalar_rule")
    }
    assert _scopes([ENGINE, CORE], iterates) == set()


def test_table_cache_reaches_the_executor_through_execute_only():
    def inner_execution(node):
        return _name(node) == "_execute_partitions"

    assert {m for m, _scope in _scopes([ENGINE, CORE], inner_execution)} == {
        "executor.py"
    }
    tree = ast.parse((ENGINE / "table.py").read_text(encoding="utf-8"))
    [cache] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "cache"
    ]
    on_executor = [
        node.func.attr for node in ast.walk(cache)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and _name(node.func.value) == "executor"
    ]
    assert on_executor == ["execute"]


def test_stream_delivery_order_is_one_lexsort_and_no_negotiation():
    def negotiates(node):  # asyncio.Condition(...), x.wait_for(...)
        return _name(node) in ("Condition", "wait_for")

    def orders(node):  # np.lexsort(...), heapq.merge(...), sorted(...)
        return isinstance(node, ast.Call) and _name(node.func) in (
            "lexsort", "argsort", "merge", "sort"
        )

    assert _scopes([STREAM], negotiates) == set()
    assert _scopes([STREAM], orders) == {
        # A list source is put in time order once; delivery is one sort.
        ("receivers.py", "ReplaySource.__init__"),
        ("receivers.py", "merge"),
        ("service.py", "StreamIngestService._run_vehicle"),
    }


def test_the_m_info_codec_is_defined_in_binlog_only():
    def sizes_a_format(node):
        return _name(node) == "calcsize"

    def defines_a_tag(node):
        return isinstance(node, ast.Assign) and any(
            (_name(target) or "").startswith("_TAG_")
            for target in node.targets
        )

    # colbin sizes each fixed-stride section once, when a file is opened.
    assert _scopes([TRACEFILE], sizes_a_format) == {
        ("colbin.py", "ColumnarTraceReader._fixed_section")
    }
    assert _scopes([TRACEFILE], defines_a_tag) == {("binlog.py", "")}
    from repro.tracefile import binlog, colbin

    assert colbin._pack_info is binlog.pack_info
    assert colbin.unpack_info is binlog.unpack_info


def test_stream_delivery_puts_chunks_through_one_queue_put():
    def puts(node):
        return isinstance(node, ast.Call) and _name(node.func) in (
            "put", "put_nowait"
        )

    assert _scopes([STREAM], puts) == {("receivers.py", "deliver")}
    [deliver] = [
        node for node in _parsed(STREAM / "receivers.py").body
        if isinstance(node, ast.AsyncFunctionDef) and node.name == "deliver"
    ]
    # Two calls: the chunk (a list, inside the loop) and the end marker.
    assert sorted(
        ast.unparse(node.args[0]) for node in ast.walk(deliver) if puts(node)
    ) == ["None", "chunk[:granted]"]


def _stream_shaped_run(tmp_path, monkeypatch):
    """Two journeys through the service; (context, service, how many
    ``_RuleKernels`` were built, how often the pending windows were
    scanned for sealable ones)."""
    import asyncio
    import random

    from repro.core import interpretation
    from repro.core.params import config_from_dict
    from repro.engine import EngineContext
    from repro.stream import (
        ReplaySource, StreamConfig, StreamIngestService, WindowAssembler,
    )
    from repro.testing.generator import generate_journey_case

    calls = {"kernels": 0, "scans": 0}

    def counted(function, name):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        interpretation._RuleKernels, "__init__",
        counted(interpretation._RuleKernels.__init__, "kernels"),
    )
    monkeypatch.setattr(
        WindowAssembler, "_seal_ready",
        counted(WindowAssembler._seal_ready, "scans"),
    )
    context = EngineContext.serial()
    service = StreamIngestService(tmp_path, StreamConfig(
        window_seconds=0.5, grace_seconds=0.25, checkpoint_every=20
    ))
    for seed in (5, 6):
        case = generate_journey_case(random.Random(seed))
        service.add_vehicle(
            "v{}".format(seed), ReplaySource(case.records),
            config_from_dict(case.params, case.database), context,
        )
    assert not asyncio.run(service.serve()).killed
    return context, service, calls


def test_a_session_compiles_lines_4_to_6_once_and_runs_one_task_per_window(
    tmp_path, monkeypatch
):
    context, service, calls = _stream_shaped_run(tmp_path, monkeypatch)
    sealed = sum(s.windows_sealed for s in service.sessions.values())
    assert sealed > 2 * len(service.sessions)  # a multi-window session
    assert calls["kernels"] == len(service.sessions)
    assert context.executor.metrics.tasks_run <= sealed
    for session in service.sessions.values():
        assert "_kernels" not in repr(session.export_state())


def test_pending_windows_are_scanned_when_one_seals_not_per_frame(
    tmp_path, monkeypatch
):
    _context, service, calls = _stream_shaped_run(tmp_path, monkeypatch)
    sealed = sum(s.windows_sealed for s in service.sessions.values())
    frames = sum(s.frames_ingested for s in service.sessions.values())
    assert calls["scans"] <= sealed < frames / 4

    def sorts_pending(node):
        return isinstance(node, ast.Call) and _name(node.func) == "sorted" \
            and ast.unparse(node.args[0]) == "self._pending"

    assert _scopes([STREAM], sorts_pending) == {
        ("assembler.py", "WindowAssembler._seal_ready"),
        ("assembler.py", "WindowAssembler.flush"),
    }


#: What simulated task and job failures were made of: a fault policy,
#: an attempt loop with its counter helper and their two errors. Every
#: task and job runs once, so none of them may come back.
_DELETED_FAULT_NAMES = (
    "FaultPolicy", "run_attempts", "count_attempts", "TaskError",
    "InjectedFaultError",
)

#: Parameters that set fault injection or a retry budget.
_FAULT_AND_RETRY_PARAMETERS = (
    "fault_policy", "commit_policy", "max_retries", "max_task_retries",
    "retry_backoff",
)


@pytest.mark.parametrize("name", _DELETED_FAULT_NAMES)
def test_no_module_defines_or_imports_a_deleted_fault_name(name):
    def defines_or_imports(node):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            return node.name == name
        if isinstance(node, ast.alias):
            return node.name.rpartition(".")[2] == name
        if isinstance(node, ast.Assign):
            return name in map(_name, node.targets)
        return False

    packages = sorted({path.parent for path in SRC.rglob("*.py")})
    assert _scopes(packages, defines_or_imports) == set()


@pytest.mark.parametrize("parameter", _FAULT_AND_RETRY_PARAMETERS)
def test_no_signature_takes_a_fault_or_retry_parameter(parameter):
    def takes_it(node):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        args = node.args
        return parameter in {
            arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
        }

    packages = sorted({path.parent for path in SRC.rglob("*.py")})
    assert _scopes(packages, takes_it) == set()


#: Public engine surface nobody outside the engine calls yet, and why it
#: stays. An entry that gains a caller must leave the list.
_UNCALLED_ENGINE_SURFACE = {}

#: Public methods the guard cannot check: they share their name with a
#: builtin type's method or with a method of a class in the caller files,
#: so ``x.name(...)`` there does not tell a ``Table``/``EngineContext``
#: receiver from the namesake's.
_UNCHECKABLE_ENGINE_SURFACE = {
    "Table.select": "RuleCatalog.select, ColumnarTraceReader.select",
    "Table.join": "str.join",
    "Table.union": "set.union",
    "Table.sort": "list.sort",
    "Table.count": "list.count, Histogram.count",
}


def _engine_surface():
    """``repro.engine.__all__`` plus every public method of ``Table``
    and ``EngineContext`` (properties are attributes, not operators)."""
    import repro.engine
    from repro.engine.context import EngineContext
    from repro.engine.table import Table

    surface = list(repro.engine.__all__)
    for cls in (Table, EngineContext):
        surface.extend(
            "{}.{}".format(cls.__name__, name)
            for name, member in vars(cls).items()
            if not name.startswith("_") and not isinstance(member, property)
        )
    return surface


def _caller_files():
    """Where a caller keeps engine surface alive: ``src/repro`` outside
    ``engine/`` and ``testing/``; ``engine/storage.py``, whose exported
    ``TableStore`` calls the ``Table`` API on behalf of its own callers;
    ``benchmarks/``; and ``perf/workloads.py``."""
    return [
        path for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in ("engine", "testing")
    ] + [
        ENGINE / "storage.py",
        *sorted((ROOT / "benchmarks").glob("*.py")),
        ROOT / "perf" / "workloads.py",
    ]


@functools.lru_cache(maxsize=None)
def _used_outside_the_engine():
    """``(methods called, names referenced, methods defined)`` in the
    caller files: the attribute names of every ``x.name(...)`` call;
    every name, attribute and imported name; and the method names of
    every class defined there."""
    called, referenced, defined = set(), set(), set()
    for path in _caller_files():
        for node in ast.walk(_parsed(path)):
            if isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
            elif isinstance(node, (ast.Name, ast.Attribute)):
                referenced.add(_name(node))
            elif isinstance(node, ast.ClassDef):
                defined.update(
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                )
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return called, referenced, defined


def test_the_unchecked_engine_surface_is_exactly_the_name_collisions():
    _called, _referenced, defined = _used_outside_the_engine()
    builtin = set().union(*map(dir, (
        str, bytes, list, tuple, dict, set, frozenset, io.IOBase,
    )))
    colliding = {
        qualified for qualified in _engine_surface()
        if "." in qualified
        and qualified.rpartition(".")[2] in builtin | defined
    }
    assert colliding == set(_UNCHECKABLE_ENGINE_SURFACE)


@pytest.mark.parametrize("qualified", [
    qualified for qualified in _engine_surface()
    if qualified not in _UNCHECKABLE_ENGINE_SURFACE
])
def test_the_engine_surface_has_callers_outside_the_engine(qualified):
    owner, _, name = qualified.rpartition(".")
    called, referenced, _defined = _used_outside_the_engine()
    # A method counts as used when something calls it by name (a bare
    # name would match any variable); an export when anything names it.
    used = name in (called if owner else referenced)
    if qualified in _UNCALLED_ENGINE_SURFACE:
        assert not used, "{} has a caller now: drop it from the " \
            "allowlist".format(qualified)
    else:
        assert used, "nothing outside repro.engine uses {}".format(
            qualified
        )


#: Executor classes a caller builds by name (``Executor(...)``); the
#: knob guard covers their constructors too. There is one executor, so
#: one name.
_EXECUTORS = ("Executor",)

#: Defaulted parameters of the public engine surface that no caller sets
#: to anything but their default, and why they stay. An entry that gains
#: a caller must leave the list.
_UNSET_ENGINE_KNOBS = {
    "Executor.default_parallelism": "callers set it through "
        "EngineContext.serial(default_parallelism=), whose knob is guarded",
}


def _engine_knob_parameters():
    """``{called name: (qualified name, parameters in call order)}`` for
    every public ``Table`` method, ``EngineContext`` constructor and
    executor constructor (:data:`_EXECUTORS`) that has a defaulted
    parameter."""
    import inspect

    from repro.engine import executor
    from repro.engine.context import EngineContext
    from repro.engine.table import Table

    owners = {"Table": Table, "EngineContext": EngineContext}
    methods = {}
    for qualified in _engine_surface():
        owner, _, name = qualified.rpartition(".")
        if owner not in owners:
            continue
        params = [
            p for p in inspect.signature(
                getattr(owners[owner], name)
            ).parameters.values()
            if p.name != "self"
        ]
        if any(p.default is not p.empty for p in params):
            methods[name] = (qualified, params)
    for name in _EXECUTORS:
        methods[name] = (name, list(
            inspect.signature(getattr(executor, name)).parameters.values()
        ))
    return methods


def _engine_knobs():
    return [
        "{}.{}".format(qualified, p.name)
        for qualified, params in _engine_knob_parameters().values()
        for p in params if p.default is not p.empty
    ]


def _sets(value, default):
    """Whether argument *value* (an AST node) may differ from *default*:
    any expression but a literal equal to it."""
    try:
        return ast.literal_eval(value) != default
    except (ValueError, TypeError, SyntaxError):
        return True


@functools.lru_cache(maxsize=None)
def _knobs_set_outside_the_engine():
    """Every ``Owner.method.parameter`` some call ``x.method(...)`` (or
    ``Executor(...)``) in the caller files passes a value other than the
    default, by keyword or by position (a ``*args``/``**kwargs`` spread
    counts as setting what it could reach). A method named like a
    namesake's (:data:`_UNCHECKABLE_ENGINE_SURFACE`) counts keywords
    only: ``os.path.join(a, b, c)`` is not a join that sets its third
    parameter."""
    methods = _engine_knob_parameters()
    found = set()
    for path in _caller_files():
        for node in ast.walk(_parsed(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                and func.id in _EXECUTORS else None
            )
            if called not in methods:
                continue
            qualified, params = methods[called]
            args = node.args
            if qualified in _UNCHECKABLE_ENGINE_SURFACE:
                args = []
            for index, param in enumerate(params):
                if param.default is param.empty:
                    continue
                spread = any(
                    isinstance(a, ast.Starred) for a in args[:index + 1]
                ) or any(kw.arg is None for kw in node.keywords)
                given = [
                    kw.value for kw in node.keywords if kw.arg == param.name
                ]
                if index < len(args) and not isinstance(
                    args[index], ast.Starred
                ):
                    given.append(args[index])
                if spread or any(_sets(v, param.default) for v in given):
                    found.add("{}.{}".format(qualified, param.name))
    return frozenset(found)


@pytest.mark.parametrize("knob", _engine_knobs())
def test_every_engine_knob_is_set_by_a_caller_outside_the_engine(knob):
    set_outside = knob in _knobs_set_outside_the_engine()
    if knob in _UNSET_ENGINE_KNOBS:
        assert not set_outside, "{} is set by a caller now: drop it from " \
            "the allowlist".format(knob)
    else:
        assert set_outside, "nothing outside repro.engine sets {} to " \
            "anything but its default".format(knob)


def test_the_numeric_value_test_is_spelled_in_one_function_of_core():
    def tests_int_and_float(node):  # isinstance(v, (int, float)), ...
        if not (
            isinstance(node, ast.Call)
            and _name(node.func) in ("isinstance", "issubclass")
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
        ):
            return False
        return {"int", "float"} <= {_name(e) for e in node.args[1].elts}

    assert _scopes([CORE], tests_int_and_float) == {
        ("classification.py", "is_numeric_type")
    }


def _lig_run(monkeypatch=None, spans=None):
    """Algorithm 1 over four seconds of LIG (180 signal types)."""
    from repro.core import PipelineConfig, PreprocessingPipeline
    from repro.datasets import SPECS, build_dataset
    from repro.engine import EngineContext
    from repro.obs import RunReport

    bundle = build_dataset(SPECS["LIG"])
    report = RunReport("pipeline.run")
    if spans is not None:
        opened = report.spans.span

        def counting(name, *args, **kwargs):
            spans[name] = spans.get(name, 0) + 1
            return opened(name, *args, **kwargs)

        report.spans.span = counting
    return PreprocessingPipeline(PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints(),
    )).run(bundle.record_table(EngineContext.serial(), 4.0), report)


def test_a_run_opens_one_span_per_stage_whatever_the_signal_count():
    """Lines 7-28 run once over one segmented set: the reduce, extend
    and branch spans are opened once per run, not once per sequence."""
    spans = {}
    result = _lig_run(spans=spans)
    assert len(result.outcomes) == 180
    assert {name: spans[name] for name in ("reduce", "extend", "branch")} \
        == {"reduce": 1, "extend": 1, "branch": 1}


def test_numeric_signal_types_take_no_object_astype(monkeypatch):
    """Between split and ``R_out`` the values of a numeric signal type
    stay in their float64 or int64 plane. ``astype`` on a value array of
    objects happens in the plane builder and in the object-kind paths
    of α's type split and β's translation only; a run whose signal types
    are all typed (LIG: floats, ints and labels) never enters those
    paths, nor Table 3's per-value path."""
    import repro.core.branches as branches
    import repro.core.classification as classification
    from repro.core.model import OBJECT

    def casts(node):
        return isinstance(node, ast.Call) and _name(node.func) == "astype"

    assert {
        (module, scope) for module, scope in _scopes([CORE], casts)
        if module in ("branches.py", "classification.py")
    } == {("branches.py", "_alpha"), ("branches.py", "_ranks")}

    def untyped(*args, **kwargs):
        raise AssertionError("an object plane reached a typed stage")

    for name in ("numeric_mask", "all_numeric"):
        monkeypatch.setattr(branches, name, untyped)
    monkeypatch.setattr(classification, "_value_criteria", untyped)
    from repro.core import sequence

    built = []
    build = sequence.Sequences.build.__func__

    def spy(cls, *args, **kwargs):
        built.append(build(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sequence.Sequences, "build", classmethod(spy))
    result = _lig_run()
    assert OBJECT not in built[0].kinds.tolist()
    assert {o.classification.branch for o in result.outcomes.values()} \
        == {"alpha", "beta", "gamma"}


def test_alpha_fits_accepted_swab_buffers_in_one_pass_per_run(monkeypatch):
    """On 30 s of SYN every full SWAB buffer is accepted whole, so the
    stride pass fits all of them: a ``_SpanFitter`` is built at most
    once per α sequence, for its partial tail. SAX symbols and slope
    trends are taken for all SWAB segments at once, never one call per
    segment."""
    import repro.core.branches as branches
    from repro.analysis import segmentation
    from repro.analysis.sax import SaxEncoder
    from repro.analysis.trend import TrendClassifier
    from repro.core import PipelineConfig, PreprocessingPipeline
    from repro.datasets import SPECS, build_dataset
    from repro.engine import EngineContext

    fitted, swabbed = [], []
    init, swab = segmentation._SpanFitter.__init__, branches.swab

    def counted_init(self, values):
        fitted.append(len(values))
        init(self, values)

    def counted_swab(values, *args, **kwargs):
        swabbed.append(len(values))
        return swab(values, *args, **kwargs)

    def per_segment(*args, **kwargs):
        raise AssertionError("α called a per-segment SAX or trend method")

    monkeypatch.setattr(segmentation._SpanFitter, "__init__", counted_init)
    monkeypatch.setattr(branches, "swab", counted_swab)
    monkeypatch.setattr(SaxEncoder, "symbol_for_level", per_segment)
    monkeypatch.setattr(TrendClassifier, "classify_slope", per_segment)
    bundle = build_dataset(SPECS["SYN"])
    result = PreprocessingPipeline(PipelineConfig(
        catalog=bundle.catalog(), constraints=bundle.default_constraints(),
    )).run(bundle.record_table(EngineContext.serial(), 30.0))
    assert result.r_out.collect()
    buffer = branches.BranchConfig().swab_buffer
    assert min(swabbed) > 2 * buffer
    assert len(fitted) <= len(swabbed)
    assert all(size < buffer for size in fitted)


#: Every scope of ``src/repro`` that unpickles: none. ``pickle.load``
#: runs whatever the bytes name, so nothing read from disk goes through
#: it. The fleet driver unpickles its workers' outcomes inside the
#: standard library's ``Connection.recv`` and has no call of its own in
#: ``src/repro``.
_UNPICKLING_SCOPES = set()


def test_nothing_in_src_unpickles():
    def unpickles(node):  # pickle.load(s) / pickle.Unpickler / from pickle
        if isinstance(node, ast.Attribute):
            return _name(node.value) == "pickle" and node.attr in (
                "load", "loads", "Unpickler"
            )
        return isinstance(node, ast.ImportFrom) and node.module == "pickle"

    found = set()

    def visit(node, module, scope):
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            scope = scope + (node.name,)
        if unpickles(node):
            found.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(SRC.rglob("*.py")):
        visit(_parsed(path), path.relative_to(SRC).as_posix(), ())
    assert found == _UNPICKLING_SCOPES
    assert not any(module.startswith("engine/") for module, _ in found)


def _imported_modules(tree):
    """Top-level names of the modules *tree* imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_the_engine_has_no_process_boundary():
    """Engine work never leaves the driver: no module of the engine
    imports ``multiprocessing`` or ``pickle``, and :mod:`repro.fleet`'s
    job runner is the one module that starts a process -- one
    ``Process`` per job, and no pool anywhere."""
    assert [
        path.name for path in sorted((SRC / "engine").glob("*.py"))
        if {"multiprocessing", "pickle"} & _imported_modules(_parsed(path))
    ] == []

    def calls(tree, names):
        return {
            node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        }

    starters = {
        path.relative_to(SRC).as_posix(): calls(
            _parsed(path), ("Pool", "Process", "ProcessPoolExecutor")
        )
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {module: found for module, found in starters.items() if found} \
        == {"fleet/workers.py": {"Process"}}
    assert not any(
        "concurrent" in _imported_modules(_parsed(path))
        for path in sorted(SRC.rglob("*.py"))
    )


def test_the_stream_path_does_not_import_pickle():
    """Session checkpoints are CRC'd logs of column sections: neither
    the stream package nor the runner it drives imports ``pickle``."""
    def imports_pickle(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "pickle" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.module == "pickle"

    paths = sorted(STREAM.glob("*.py")) + [CORE / "incremental.py"]
    assert [
        path.name for path in paths
        if any(map(imports_pickle, ast.walk(_parsed(path))))
    ] == []


def test_the_stream_checkpoint_does_not_import_the_fleet():
    """Both write through ``engine.storage.atomic_write_bytes``."""
    modules = []
    for node in ast.walk(_parsed(STREAM / "checkpoint.py")):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "repro.engine.storage" in modules
    assert [m for m in modules if m.split(".")[:2] == ["repro", "fleet"]] \
        == []


def test_every_report_format_is_one_entry_of_the_rule_table():
    """A report format is one entry of ``repro.obs.report.SECTION_RULES``
    and every report is a ``RunReport``: each ``*REPORT_FORMAT`` constant
    under ``src/repro`` names a key of the table, and no other class
    defines ``to_dict`` and ``write``, or is a ``*Report`` that
    serializes itself."""
    from repro.obs.report import SECTION_RULES

    formats = {}
    serializers = set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(_parsed(path)):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _name(target) and _name(target).endswith(
                        "REPORT_FORMAT"
                    ):
                        formats[module, _name(target)] = getattr(
                            node.value, "value", None
                        )
            elif isinstance(node, ast.ClassDef):
                methods = {
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
                if {"to_dict", "write"} <= methods or (
                    node.name.endswith("Report")
                    and methods & {"to_dict", "to_json", "write"}
                ):
                    serializers.add((module, node.name))
    assert formats and all(
        value in SECTION_RULES for value in formats.values()
    ), formats
    assert serializers == {("obs/report.py", "RunReport")}


def _lig_trace(tmp_path, suffix, seconds=2.0):
    """Two seconds of LIG in the trace format *suffix*; its bundle."""
    from repro.datasets import SPECS, build_dataset
    from repro.tracefile import codec_for

    bundle = build_dataset(SPECS["LIG"])
    path = tmp_path / ("lig" + suffix)
    codec_for(path).dump_records(bundle.byte_records(seconds), path)
    return path, bundle


@pytest.mark.parametrize("partitions", [1, 4])
def test_lines_4_to_6_gather_payload_words_once_per_partition(
    tmp_path, monkeypatch, partitions
):
    """A ``_RuleKernels.batch_call`` decodes every vector slot of its
    partition in one ``VectorTable.decode`` -- one gather of payload
    words -- whatever the rule count (LIG: 185 rules on 36 keys)."""
    from repro.core import interpretation
    from repro.core.interpretation import interpret
    from repro.core.preselection import preselect
    from repro.engine import EngineContext
    from repro.protocols.signalcodec import VectorTable
    from repro.tracefile import codec_for

    path, bundle = _lig_trace(tmp_path, ".btrc")
    catalog = bundle.catalog()
    assert len(catalog) == 185
    calls = {"decode": 0, "batch_call": 0}

    def counted(function, name):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(VectorTable, "decode",
                        counted(VectorTable.decode, "decode"))
    monkeypatch.setattr(
        interpretation._RuleKernels, "batch_call",
        counted(interpretation._RuleKernels.batch_call, "batch_call"),
    )
    context = EngineContext.serial(default_parallelism=partitions)
    k_pre = preselect(codec_for(path).load_table(context, path), catalog)
    assert interpret(k_pre, catalog).count() > 10 * len(catalog)
    assert calls == {"decode": partitions, "batch_call": partitions}


@pytest.mark.parametrize("suffix", [".ctrc", ".btrc"])
def test_trace_readers_hand_b_id_over_coded(tmp_path, suffix):
    """``load_table`` of both binary formats gives each partition a
    dictionary-coded ``b_id`` column, and preselection keeps it coded."""
    from repro.core.preselection import preselect
    from repro.engine import EngineContext
    from repro.engine.columnar import DictColumn
    from repro.tracefile import codec_for

    path, bundle = _lig_trace(tmp_path, suffix)
    context = EngineContext.serial(default_parallelism=3)
    k_b = codec_for(path).load_table(context, path)
    # Every other key, so preselection drops rows.
    catalog = bundle.catalog()
    kept = sorted(catalog.preselection_keys())[::2]
    catalog = catalog.restrict_channels({b_id for _m_id, b_id in kept})
    k_pre = preselect(k_b, catalog).cache()
    assert k_pre.count() < k_b.count()
    for table in (k_b, k_pre):
        parts = table.plan.partitions
        assert len(parts) == 3
        for part in parts:
            assert isinstance(part.columns[2], DictColumn)


def test_table_6_values_reach_the_store_as_planes(tmp_path, monkeypatch):
    """Extraction, the split by signal type and the table store's write
    move ``K_s`` as typed planes on a SYN ``.ctrc``: the decoded values
    leave the kernels as a ``ValueColumn``, so the split gathers no
    column cell by cell (``gather_column``'s list path) and the store
    picks no layout from cells (``_build_column``): it is called only
    on the empty row lists of groups absent from an input partition."""
    from repro.core import PipelineConfig, PreprocessingPipeline
    from repro.core.splitting import split_signal_types
    from repro.datasets import SPECS, build_dataset
    from repro.engine import EngineContext, TableStore, columnar, storage
    from repro.tracefile import colbin

    bundle = build_dataset(SPECS["SYN"])
    path = tmp_path / "syn.ctrc"
    colbin.dump_records(bundle.byte_records(4.0), path)
    built, gathered = [], []

    def build(values):
        built.append(len(values))
        return layout(values)

    def gather(column, indices):
        moved = move(column, indices)
        gathered.append(type(moved).__name__)
        return moved

    layout, move = columnar._build_column, columnar.gather_column
    for module in (columnar, storage):
        monkeypatch.setattr(module, "_build_column", build)
    monkeypatch.setattr(columnar, "gather_column", gather)
    catalog = bundle.catalog()
    k_s = PreprocessingPipeline(PipelineConfig(catalog=catalog)) \
        .extract_signals(colbin.load_table(EngineContext.serial(), path))
    store = TableStore(tmp_path / "store")
    for s_id, table in split_signal_types(
        k_s, sorted(set(catalog.signal_ids()))
    ).items():
        store.write(s_id, table)
    assert set(built) == {0}
    assert "ValueColumn" in gathered
    assert set(gathered) <= {"array", "BytesColumn", "DictColumn",
                             "ValueColumn"}, gathered
