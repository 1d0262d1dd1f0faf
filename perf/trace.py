"""Span tracing installed from outside the program.

The benchmark may not edit ``src/repro``, so a traced operation wraps
the *public* callables at each layer boundary (``TARGETS``) for as long
as it runs and restores the originals afterwards. Spans stay in memory;
the caller writes them out when the run ends.

A module-level function such as ``swab`` is bound by ``from ... import``
in every module that uses it, so its wrapper is rebound in every loaded
``repro`` module whose attribute *is* the original object. Load the
program (one warm-up operation) before :meth:`Tracer.install`: a module
imported while wrappers are installed would bind a wrapper that
:meth:`Tracer.remove` cannot find.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Attribute set on every installed wrapper, so leftovers can be found.
WRAPPER_MARK = "__perf_span__"

ROOT_SPAN = "operation"
ROOT_LAYER = "bench"


def _swab_points(counts, args, _result):
    counts["analysis.swab_points"] += len(args[0])


def _checkpoint_bytes(counts, _args, result):
    counts["stream.checkpoint_bytes"] += os.path.getsize(result)


#: (module, attribute or Class.method, span name); the layer of a span is
#: the first component of its name. No per-row function is listed: the
#: finest grain is one call per segment (``symbol_for_level``,
#: ``classify_slope``).
TARGETS = (
    ("repro.tracefile.colbin", "load_table", "tracefile.load"),
    ("repro.tracefile.colbin", "load_records", "tracefile.load"),
    ("repro.tracefile.binlog", "load_table", "tracefile.load"),
    ("repro.tracefile.binlog", "load_records", "tracefile.load"),
    ("repro.engine.executor", "Executor.execute", "engine.execute"),
    ("repro.engine.executor", "Executor.execute_split", "engine.execute"),
    ("repro.engine.storage", "TableStore.write", "engine.store_write"),
    ("repro.engine.storage", "TableStore.read", "engine.store_read"),
    ("repro.core.reduction", "reduce_signal", "core.reduce_signal"),
    ("repro.core.extension", "apply_extensions", "core.apply_extensions"),
    ("repro.core.classification", "classify", "core.classify"),
    ("repro.core.branches", "process_branch", "core.process_branch"),
    ("repro.core.representation", "merge_results", "core.merge_results"),
    ("repro.core.incremental", "IncrementalRunner.process_window",
     "core.process_window"),
    ("repro.core.incremental", "IncrementalRunner.finalize",
     "core.finalize"),
    ("repro.analysis.segmentation", "swab", "analysis.swab"),
    ("repro.analysis.sax", "SaxEncoder.encode_word", "analysis.sax"),
    ("repro.analysis.sax", "SaxEncoder.encode_values", "analysis.sax"),
    ("repro.analysis.sax", "SaxEncoder.symbol_for_level", "analysis.sax"),
    ("repro.analysis.outliers", "ZScoreDetector.mask", "analysis.outliers"),
    ("repro.analysis.smoothing", "MovingAverage.smooth",
     "analysis.smoothing"),
    ("repro.analysis.trend", "TrendClassifier.classify_slope",
     "analysis.trend"),
    ("repro.analysis.trend", "TrendClassifier.classify_gradient",
     "analysis.trend"),
    ("repro.stream.checkpoint", "StreamCheckpointer.save_session",
     "stream.checkpoint"),
    ("repro.stream.service", "StreamIngestService.serve", "stream.serve"),
    ("repro.stream.service", "StreamIngestService.finalize_all",
     "stream.finalize"),
)

#: span name -> hook(counts, args, result) run after each call.
COUNT_HOOKS = {
    "analysis.swab": _swab_points,
    "stream.checkpoint": _checkpoint_bytes,
}


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "op")

    def __init__(self, id, parent, name, layer, start, op):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.op = op

    @property
    def seconds(self):
        return self.end - self.start

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Tracer:
    """Records nested spans of one traced operation at a time.

    The program is single-threaded and every wrapped callable except
    ``serve`` is synchronous, so a plain stack gives each span its
    parent; ``serve``'s span simply stays open underneath the spans of
    the tasks it runs.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []
        self._op = None

    # -- recording -------------------------------------------------------
    def _open(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer,
                    time.perf_counter(), self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Root span of one traced operation; wrappers live only inside."""
        self._op = op_id
        self.install()
        root = self._open(ROOT_SPAN, ROOT_LAYER)
        try:
            yield root
        finally:
            self._close(root)
            self.remove()
            self._op = None

    def _wrap(self, fn, name):
        tracer = self
        layer = name.partition(".")[0]
        hook = COUNT_HOOKS.get(name)

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span = tracer._open(name, layer)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if hook is not None:
                    hook(tracer.counts, args, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer._open(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if hook is not None:
                    hook(tracer.counts, args, result)
                return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        # Import every target first: a module imported half-way through
        # would copy an already rebound wrapper out of reach of remove().
        modules = [importlib.import_module(t[0]) for t in TARGETS]
        functions = {}  # id(original function) -> (original, wrapper)
        for module, (_module_name, path, name) in zip(modules, TARGETS):
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                self._bind(owner, attr, original, self._wrap(original, name))
            else:
                original = getattr(module, path)
                functions[id(original)] = (
                    original, self._wrap(original, name))
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if id(value) in functions:
                    self._bind(module, key, *functions[id(value)])

    def _bind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


def leftover_wrappers():
    """``module.attr`` of every wrapper still bound in a repro module or
    on a class defined in one (empty once :meth:`Tracer.remove` ran)."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, WRAPPER_MARK):
                found.append("{}.{}".format(module.__name__, key))
            elif isinstance(value, type) and \
                    value.__module__ == module.__name__:
                found.extend(
                    "{}.{}.{}".format(module.__name__, key, attr)
                    for attr, member in vars(value).items()
                    if hasattr(member, WRAPPER_MARK)
                )
    return found


# -- analysis of one operation's spans -----------------------------------
def self_seconds(spans):
    """span id -> duration minus the time its direct children cover.

    Children of one span never overlap (one thread, synchronous calls),
    so the sum of their durations is the union the definition asks for.
    """
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    return {span.id: span.seconds - covered[span.id] for span in spans}


def self_by(spans, key):
    """Total self time grouped by ``key(span)``."""
    own = self_seconds(spans)
    totals = defaultdict(float)
    for span in spans:
        totals[key(span)] += own[span.id]
    return totals


def inclusive_seconds(spans, name):
    """Wall time inside the outermost spans called *name*."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and by_id[parent].name != name:
            parent = by_id[parent].parent
        if parent is None:
            total += span.seconds
    return total


def call_count(spans, name):
    return sum(1 for span in spans if span.name == name)
