"""Columnar partition kernels: codegen for fused narrow-step chains.

The interpreted execution path runs every narrow stage as a tree of
bound closures dispatched per row per step: ``FilterStep`` and
``ProjectStep`` each re-materialize the partition list, and every
``BoundBinary`` costs a Python call frame per row. For the paper's hot
loops -- preselection filters, the u1/u2 interpretation maps, reduction
projections -- that dispatch overhead dominates the actual work.

This module lowers a narrow chain to a :class:`ColumnarPartitionTask`
that runs it as *segments*: every maximal Filter/Project run becomes
one generated kernel over the column buffers of a
:class:`~repro.engine.columnar.ColumnarPartition`, and every
``FlatMapStep`` / ``MapPartitionStep`` between two kernels is a barrier
run through its own ``step.run`` on row tuples -- unless the partition
function publishes a ``batch_call(partition)`` method (the whole-
partition twin of an ``apply`` callable's ``batch_call(*columns)``),
which receives and returns a ``ColumnarPartition`` and so is no
barrier at all. Inside a kernel

* bound expressions become inline Python expressions over per-element
  variables (``_v1 == _c0 and _v2 in _c1``) with literals, frozensets
  and user callables hoisted into the kernel's globals as ``_c<n>``
  constants;
* filters become selection masks applied to every column with
  :func:`~repro.engine.columnar.compress_column` (packed planes stay
  packed), pass-through projection columns are zero-copy
  buffer references, and computed columns are single list
  comprehensions zipping exactly the columns the expression reads.

Row tuples exist only around barriers and at the task's output
boundary; the lowering is total over step types, so the only chains
that run interpreted are those with nothing to compile (no Filter or
Project) and those whose expressions cannot be inlined
(:class:`CodegenError`, counted as ``executor.kernel_fallbacks``).

Generated source is *structural*: constant values never appear in it,
so two plans that differ only in literals share one compiled code
object. The process-local code cache is keyed by the source string --
equivalently by (structural hash, schema), since column indices are
part of the source. Workers receive the picklable task spec (the
original steps) and compile lazily on first use; code objects are
never pickled.

Semantics match the interpreted path row-for-row (the differential fuzz
oracle compares the two on every case) -- steps run step-major in both,
masks and comprehensions evaluate the same expression on the same
surviving rows with the same short-circuiting -- with one documented
relaxation: a kernel evaluates a projection expression-major (whole
column at a time) instead of row-major, which can reorder *exceptions*
(never rows) between two output expressions of one projection.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.engine.columnar import (
    ColumnarPartition,
    columns_to_rows,
    compress_column,
)

from repro.engine.expressions import (
    BoundAnd,
    BoundApply,
    BoundBinary,
    BoundColumn,
    BoundInSet,
    BoundLiteral,
    BoundOr,
    BoundUnary,
)
from repro.engine.operations import FilterStep, MapPartitionStep, ProjectStep
from repro.engine.optimizer import ComposedApply
from repro.obs import stopwatch

#: Python operator symbols for :data:`repro.engine.expressions._BINARY_OPS`.
_BINARY_SYMBOLS = {
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
}

#: Expression trees nested deeper than this are not inlined (CPython's
#: parser has a finite stack for nested parentheses); the task falls
#: back to the interpreter instead.
_MAX_EXPR_DEPTH = 60


class CodegenError(Exception):
    """An expression that cannot be lowered to source.

    *reason* is a short slug (``expr_depth``, ``unknown_op``) the
    executor appends to ``executor.kernel_fallbacks.<reason>``.
    """

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


class _Lowering:
    """Accumulates hoisted constants while an expression tree is lowered."""

    def __init__(self):
        self.constants = []

    def const(self, value):
        name = "_c{}".format(len(self.constants))
        self.constants.append(value)
        return name


class _ElementScope:
    """Column-element naming for one kernel expression.

    A column reference renders as a per-element loop variable
    ``_v<i>``; the scope records which columns an expression actually
    reads so its comprehension zips exactly those buffers. An opaque
    callable needs the whole row and reads every column.
    """

    def __init__(self, width):
        self.width = width
        self.used = set()

    def col_ref(self, index):
        self.used.add(index)
        return "_v{}".format(index)

    def row_ref(self):
        if self.width == 0:
            return "()"
        self.used.update(range(self.width))
        return "({},)".format(
            ", ".join("_v{}".format(i) for i in range(self.width))
        )


def lower_expression(expr, ctx, scope, depth=0):
    """Lower one bound expression to a Python source expression.

    Column references render as *scope*'s per-element variables
    (``_v2``), whole-row consumers as a tuple display over every
    column; constant values are hoisted into *ctx*. Unknown
    bound-expression types are lowered as an opaque call of the object
    itself (``_c3((_v0, _v1,))``), which is exactly the interpreter's
    semantics -- lowering is therefore total over every callable bound
    expression, present or future.
    """
    if depth > _MAX_EXPR_DEPTH:
        raise CodegenError(
            "expression nests too deeply to inline", "expr_depth"
        )
    d = depth + 1

    if isinstance(expr, BoundColumn):
        return scope.col_ref(expr.index)
    if isinstance(expr, BoundLiteral):
        return ctx.const(expr.value)
    if isinstance(expr, BoundAnd):
        return "(bool({}) and bool({}))".format(
            lower_expression(expr.left, ctx, scope, d),
            lower_expression(expr.right, ctx, scope, d),
        )
    if isinstance(expr, BoundOr):
        return "(bool({}) or bool({}))".format(
            lower_expression(expr.left, ctx, scope, d),
            lower_expression(expr.right, ctx, scope, d),
        )
    if isinstance(expr, BoundBinary):
        symbol = _BINARY_SYMBOLS.get(expr.op)
        if symbol is None:
            raise CodegenError(
                "unknown binary op {!r}".format(expr.op), "unknown_op"
            )
        return "({} {} {})".format(
            lower_expression(expr.left, ctx, scope, d),
            symbol,
            lower_expression(expr.right, ctx, scope, d),
        )
    if isinstance(expr, BoundUnary):
        inner = lower_expression(expr.operand, ctx, scope, d)
        if expr.op == "not":
            return "(not {})".format(inner)
        if expr.op == "is_null":
            return "({} is None)".format(inner)
        if expr.op == "is_not_null":
            return "({} is not None)".format(inner)
        raise CodegenError(
            "unknown unary op {!r}".format(expr.op), "unknown_op"
        )
    if isinstance(expr, BoundInSet):
        return "({} in {})".format(
            lower_expression(expr.operand, ctx, scope, d),
            ctx.const(expr.values),
        )
    if isinstance(expr, BoundApply):
        args = ", ".join(scope.col_ref(i) for i in expr.indices)
        return "{}({})".format(ctx.const(expr.func), args)
    if isinstance(expr, ComposedApply):
        args = ", ".join(
            lower_expression(p, ctx, scope, d) for p in expr.producers
        )
        return "{}({})".format(ctx.const(expr.func), args)
    # Unknown bound expression: call the object itself, which is the
    # interpreter's contract for any bound expression.
    return "{}({})".format(ctx.const(expr), scope.row_ref())


# ---------------------------------------------------------------------------
# Step-chain lowering
# ---------------------------------------------------------------------------


def _column_source(expr, ctx, width):
    """Source expression producing one whole output column for *expr*.

    Pass-through columns are zero-copy buffer references and literals
    replicate without a loop. Applies whose callable publishes a
    ``batch_call`` method are lowered as ONE whole-column call --
    ``batch_call`` receives the argument columns and must return the
    list ``[func(*cells) for cells in zip(*columns)]``; domain layers
    use it to hoist per-row setup out of the loop (see
    ``repro.core.interpretation``). Everything else evaluates as an
    element comprehension over exactly the columns it reads.
    """
    if isinstance(expr, BoundColumn):
        return "_cols[{}]".format(expr.index)
    if isinstance(expr, BoundLiteral):
        return "[{}] * _n".format(ctx.const(expr.value))
    batch = getattr(getattr(expr, "func", None), "batch_call", None)
    if callable(batch):
        if isinstance(expr, BoundApply):
            args = ", ".join("_cols[{}]".format(i) for i in expr.indices)
            return "{}({})".format(ctx.const(batch), args)
        if isinstance(expr, ComposedApply):
            args = ", ".join(
                _column_source(p, ctx, width) for p in expr.producers
            )
            return "{}({})".format(ctx.const(batch), args)
    scope = _ElementScope(width)
    source = lower_expression(expr, ctx, scope)
    return _element_comprehension(source, sorted(scope.used))


def _element_comprehension(source, used):
    """One list comprehension evaluating *source* per element.

    *used* is the sorted set of column indices the expression reads:
    zero columns iterate ``range(_n)`` (the expression is still
    evaluated once per row, matching the interpreter), one column skips
    the ``zip``.
    """
    if not used:
        return "[{} for _i in range(_n)]".format(source)
    if len(used) == 1:
        index = used[0]
        return "[{} for _v{} in _cols[{}]]".format(source, index, index)
    variables = ", ".join("_v{}".format(i) for i in used)
    columns = ", ".join("_cols[{}]".format(i) for i in used)
    return "[{} for {} in zip({})]".format(source, variables, columns)


def lower_columnar_segment(steps, width):
    """Lower a pure Filter/Project run to ``(source, constants)``.

    The generated ``_ckernel(_cols, _n)`` maps (column buffers, row
    count) to (column buffers, row count) without ever materializing a
    row tuple: filters build a selection mask and compress every live
    column (skipped entirely when the mask is all-true); projections
    reuse input buffers for pass-through columns, replicate literals
    and compute everything else as one comprehension over exactly the
    columns it reads. *width* is the input column count.
    """
    ctx = _Lowering()
    lines = ["def _ckernel(_cols, _n):"]
    current_width = width
    for step in steps:
        if isinstance(step, FilterStep):
            scope = _ElementScope(current_width)
            predicate = lower_expression(step.predicate, ctx, scope)
            mask = _element_comprehension(predicate, sorted(scope.used))
            lines.append("    if _n:")
            lines.append("        _mask = {}".format(mask))
            lines.append("        if not all(_mask):")
            lines.append(
                "            _cols = "
                "[_compress(_c, _mask) for _c in _cols]"
            )
            if current_width:
                # A compressed column's length is the surviving row
                # count.
                lines.append("            _n = len(_cols[0])")
            else:
                lines.append("            _n = sum(1 for _m in _mask if _m)")
        else:
            items = [
                _column_source(expr, ctx, current_width)
                for expr in step.exprs
            ]
            # The list display evaluates against the *old* _cols before
            # the rebinding, so pass-through refs stay valid.
            lines.append("    _cols = [")
            for item in items:
                lines.append("        {},".format(item))
            lines.append("    ]")
            current_width = len(step.exprs)
    lines.append("    return _cols, _n")
    return "\n".join(lines) + "\n", ctx.constants


def _segment_chain(steps, width):
    """Split *steps* into Filter/Project runs and row barriers.

    Returns ``(run, step, width)`` entries in chain order: a kernel
    segment has ``run`` (a tuple of Filter/Project steps) and no
    ``step``; a barrier -- ``FlatMapStep`` or ``MapPartitionStep``, run
    as-is between generated kernels -- the reverse. *width* is the
    entry's input column count, threaded through projections and the
    barriers' declared ``out_width``.
    """
    chain = []
    run = []
    run_width = width
    for step in steps:
        if isinstance(step, (FilterStep, ProjectStep)):
            if not run:
                run_width = width
            run.append(step)
            if isinstance(step, ProjectStep):
                width = len(step.exprs)
            continue
        if run:
            chain.append((tuple(run), None, run_width))
            run = []
        chain.append((None, step, width))
        width = step.out_width
    if run:
        chain.append((tuple(run), None, run_width))
    return chain


# ---------------------------------------------------------------------------
# Process-local compile cache
# ---------------------------------------------------------------------------

_CODE_CACHE = {}  # source string -> code object


def clear_kernel_cache():
    """Drop every cached code object (test isolation helper)."""
    _CODE_CACHE.clear()


def kernel_cache_size():
    """Number of distinct kernel code objects compiled in this process."""
    return len(_CODE_CACHE)


def _compile_source(source, registry=None):
    """Compile *source* through the process-local structural cache.

    With a *registry* (the owning executor's ``obs``), cache misses
    count as ``executor.kernels_compiled`` (plus a
    ``executor.kernel_compile_seconds`` observation) and hits as
    ``executor.kernel_cache_hits``. Workers compile without a registry;
    their compiles are invisible to driver metrics by design.
    """
    code = _CODE_CACHE.get(source)
    if code is not None:
        if registry is not None:
            registry.inc("executor.kernel_cache_hits")
        return code
    with stopwatch() as watch:
        code = compile(source, "<repro-kernel>", "exec")
    _CODE_CACHE[source] = code
    if registry is not None:
        registry.inc("executor.kernels_compiled")
        registry.observe("executor.kernel_compile_seconds", watch.seconds)
    return code


def _bind_kernel(code, constants):
    """Materialize the kernel function with its hoisted constants."""
    namespace = {"_c{}".format(i): v for i, v in enumerate(constants)}
    namespace["_compress"] = compress_column
    exec(code, namespace)  # noqa: S102 -- source is generated, not user input
    return namespace["_ckernel"]


def _partition_batch(step):
    """The ``batch_call`` a partition function publishes, else None.

    The columnar hook for :meth:`Table.map_partitions
    <repro.engine.table.Table.map_partitions>`: ``func(rows)`` stays the
    row form every path can run, ``func.batch_call(partition)`` maps a
    :class:`ColumnarPartition` to the ``ColumnarPartition`` of the same
    rows and is what a columnar task calls instead.
    """
    if isinstance(step, MapPartitionStep):
        batch = getattr(step.func, "batch_call", None)
        if callable(batch):
            return batch
    return None


def _bind_partition_kernel(batch):
    """Give a partition function's ``batch_call`` the kernel signature."""

    def kernel(columns, length):
        out = batch(ColumnarPartition(columns, length))
        return list(out.columns), len(out)

    return kernel


def _build_phases(steps, width, registry=None):
    """Compile the per-partition phases of a step chain.

    Returns ``(phases, kernel_id)``: *phases* mirrors
    :func:`_segment_chain` with every Filter/Project run replaced by
    its bound ``_ckernel`` and every columnar partition function by its
    ``batch_call``; *kernel_id* digests the generated sources.
    """
    phases = []
    digest = hashlib.sha1()
    for run, step, in_width in _segment_chain(steps, width):
        kernel = None
        batch = _partition_batch(step)
        if run is not None:
            source, constants = lower_columnar_segment(run, in_width)
            digest.update(source.encode("utf-8"))
            code = _compile_source(source, registry=registry)
            kernel = _bind_kernel(code, constants)
        elif batch is not None:
            digest.update(type(step.func).__qualname__.encode("utf-8"))
            kernel = _bind_partition_kernel(batch)
        phases.append((kernel, step, in_width))
    return phases, "c" + digest.hexdigest()[:10]


@dataclass(frozen=True)
class ColumnarPartitionTask:
    """A narrow chain running column-wise between its row barriers.

    Accepts either a :class:`~repro.engine.columnar.ColumnarPartition`
    (columnar sources pass their buffers straight through) or a row
    list (transposed on entry to the first kernel). ``emit`` selects
    the output boundary of a chain that ends in a kernel: ``"rows"``
    transposes back to a row list (collect/storage edges, where result
    collection expects row tuples); ``"partition"`` wraps the kernel's
    output columns in a ``ColumnarPartition`` so a downstream wide
    stage or :meth:`~repro.engine.table.Table.cache` keeps the buffers
    without a transpose round-trip. A chain that ends in a
    barrier emits that barrier's row list either way. Only the
    picklable spec (steps, width, kernel_id, emit) travels to worker
    processes; the bound phases are rebuilt lazily per process from
    the structural code cache and memoized on the instance.
    """

    steps: tuple
    width: int
    kernel_id: str = ""
    emit: str = "rows"

    def __call__(self, partition):
        phases = getattr(self, "_phases", None)
        if phases is None:
            phases, _kernel_id = _build_phases(self.steps, self.width)
            object.__setattr__(self, "_phases", phases)
        # The partition is in one layout at a time: *rows*, or (when
        # rows is None) *columns* and *length*.
        rows, columns, length = partition, None, 0
        if isinstance(partition, ColumnarPartition):
            rows = None
            columns, length = list(partition.columns), len(partition)
        for kernel, step, width in phases:
            if kernel is None:
                if rows is None:
                    rows = columns_to_rows(columns, length)
                rows = step.run(rows)
                continue
            if rows is not None:
                # Transient row lists skip the typed-buffer build: a
                # bare zip(*) transpose is one C pass and tuple columns
                # work everywhere the kernel touches them (compress,
                # zip, element comprehensions). Empty inputs -- an
                # empty partition, or a barrier that produced nothing
                # -- still need *width* placeholder columns so
                # pass-through refs stay indexable.
                if not isinstance(rows, list):
                    rows = list(rows)
                length = len(rows)
                columns = list(zip(*rows)) if length else [()] * width
                rows = None
            columns, length = kernel(columns, length)
        if rows is not None:
            return rows
        if self.emit == "partition":
            return ColumnarPartition(columns, length)
        return columns_to_rows(columns, length)

    def __getstate__(self):
        return (self.steps, self.width, self.kernel_id, self.emit)

    def __setstate__(self, state):
        steps, width, kernel_id, emit = state
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "kernel_id", kernel_id)
        object.__setattr__(self, "emit", emit)


def compile_columnar_task(steps, width, registry=None, emit="rows"):
    """Compile a narrow-step chain into a :class:`ColumnarPartitionTask`.

    *width* is the chain's input column count. Returns None when there
    is nothing to gain (no Filter, Project or columnar partition
    function in the chain -- a bare flat-map or row partition map runs
    just as fast interpreted). Raises
    :class:`CodegenError` when the chain contains an expression that
    cannot be lowered; callers fall back to the interpreted
    :class:`~repro.engine.operations.PartitionTask` and count
    ``executor.kernel_fallbacks``.
    """
    steps = tuple(steps)
    if not any(
        isinstance(s, (FilterStep, ProjectStep))
        or _partition_batch(s) is not None
        for s in steps
    ):
        return None
    phases, kernel_id = _build_phases(steps, width, registry=registry)
    task = ColumnarPartitionTask(steps, width, kernel_id, emit)
    object.__setattr__(task, "_phases", phases)
    return task
