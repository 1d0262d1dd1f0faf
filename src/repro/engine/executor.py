"""Plan executors.

Two executors share one physical planning strategy and run every task in
the driver process:

* :class:`SerialExecutor` is the reference implementation and stands in
  for single-machine tools.
* :class:`SimulatedClusterExecutor` runs the same tasks and charges their
  measured durations to a cluster-makespan model, standing in for the
  Spark cluster of the paper.

Both produce identical results for identical plans; determinism is part of
the framework's contract (Sec. 1 of the paper, "Preserving determinism").
Real parallelism is per journey: :mod:`repro.fleet` runs whole traces in
worker processes of its own (DESIGN.md). Every task runs once; an
exception it raises fails its stage as an :class:`ExecutionError`.
"""

from __future__ import annotations

import numpy as np

from repro.engine import plan as logical
from repro.engine.columnar import ColumnarPartition, as_row_partition
from repro.engine.errors import ExecutionError, PlanError
from repro.engine.operations import (
    BroadcastJoinTask,
    FilterStep,
    FlatMapStep,
    MapPartitionStep,
    PartitionTask,
    ProjectStep,
    SortPartitionTask,
    SplitRouteTask,
    is_column_step,
    split_evenly,
)
from repro.obs import MetricsRegistry, stopwatch

#: Counter names every executor pre-creates (so run reports always show
#: them, zero-valued, even for runs that never shuffled or split).
#: ``kernel_fallbacks``, ``columnar_fallbacks`` and
#: ``columnar_exchange_bytes`` always read 0 (no stage counts them); they
#: stay because the benchmark reads them off ``executor.metrics``.
_EXECUTOR_COUNTERS = (
    "tasks_run",
    "shuffles",
    "broadcast_joins",
    "rows_shuffled",
    "splits",
    "split_groups",
    "split_rows",
    "kernel_fallbacks",
    "columnar_tasks",
    "columnar_fallbacks",
    "columnar_exchange_bytes",
)


class ExecutorMetrics:
    """Counters accumulated across one executor's lifetime.

    A read-only view over the executor's :class:`MetricsRegistry`
    (``executor.obs``), kept for its established attribute API
    (``metrics.tasks_run`` etc.); new counters/gauges/histograms live on
    the registry directly and flow into run reports from there.
    """

    def __init__(self, registry=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        for name in _EXECUTOR_COUNTERS:
            self.registry.counter("executor." + name)

    def __getattr__(self, name):
        # Only reached for names normal lookup misses: the counters.
        if name in _EXECUTOR_COUNTERS:
            return self.registry.counter("executor." + name).value
        raise AttributeError(name)

    def reset(self):
        for name in _EXECUTOR_COUNTERS:
            self.registry.counter("executor." + name).value = 0


class Executor:
    """Base executor: physical planning plus a task-running strategy.

    Parameters
    ----------
    default_parallelism:
        Partition count used for shuffles and splits.

    A plan runs as it is built. Each narrow chain is one
    :class:`~repro.engine.operations.PartitionTask`, which may hand a
    :class:`~repro.engine.columnar.ColumnarPartition` to the next stage;
    the join, repartition and sort run on rows, and
    :meth:`execute_split` routes typed columns.
    """

    def __init__(self, default_parallelism=4):
        if default_parallelism < 1:
            raise ValueError("default_parallelism must be >= 1")
        self.default_parallelism = default_parallelism
        self.obs = MetricsRegistry()
        self.metrics = ExecutorMetrics(self.obs)
        self._stage_seq = 0

    # -- task running (strategy implemented by subclasses) ---------------
    def run_tasks(self, task, inputs, stage="task"):
        raise NotImplementedError

    def _timed_partition(self, task, x, stage):
        """Run one partition once; returns ``(value, seconds)``.

        The duration lands in the ``executor.task_seconds`` histograms
        (global and per stage kind), which is where run reports read
        task timings from. An exception propagates to :meth:`_run`,
        which raises it as an :class:`ExecutionError`.
        """
        with stopwatch() as watch:
            value = task(x)
        self._observe_task(stage, watch.seconds)
        return value, watch.seconds

    def _observe_task(self, stage, seconds):
        kind = stage.split("[", 1)[0]
        self.obs.observe("executor.task_seconds", seconds)
        self.obs.observe("executor.task_seconds.{}".format(kind), seconds)

    # -- physical planning -----------------------------------------------
    def execute(self, node, as_rows=True):
        """Materialize a plan node into a list of partitions.

        This is the collect/storage edge: whatever layout the stages
        used internally, callers receive row lists. ``as_rows=False``
        (:meth:`Table.cache`) keeps each partition in the layout its
        last stage produced, so packed columns stay packed. Joins and
        unions recurse through :meth:`_execute_partitions` instead, so
        a traced run counts one ``execute`` per collect, not per side.
        """
        if not as_rows:
            return self._execute_partitions(node)
        return self._execute_row_partitions(node)

    def _execute_row_partitions(self, node):
        """Execute *node* into row lists, untraced (see :meth:`execute`)."""
        return [
            as_row_partition(p)
            for p in self._execute_partitions(node, to_rows=True)
        ]

    def count(self, node):
        """Number of rows *node* yields, without landing them as rows.

        Partition lengths of the layout-preserving execution: a
        columnar partition is never transposed, so lazily decoded
        columns (``m_info`` of a ``.ctrc``) stay undecoded.
        """
        return sum(len(p) for p in self._execute_partitions(node))

    def _execute_partitions(self, node, to_rows=False):
        """Execute *node*, preserving partition layout.

        Returns a list of partitions that may mix row lists and
        :class:`~repro.engine.columnar.ColumnarPartition` buffers --
        whichever layout each stage produced. With ``to_rows`` the
        trailing narrow chain emits row lists directly (saving the
        final transpose for the caller-facing :meth:`execute` edge);
        without it, a chain that ends on columns emits a columnar
        partition so downstream wide stages consume buffers.
        """
        base, steps = self._linearize(node)
        partitions = self._execute_wide(base)
        columnar_bytes = sum(
            p.nbytes() for p in partitions
            if isinstance(p, ColumnarPartition)
        )
        if columnar_bytes:
            self.obs.set_gauge("executor.partition_bytes", columnar_bytes)
        if steps:
            if any(map(is_column_step, steps)):
                self.obs.inc("executor.columnar_tasks")
            task = PartitionTask(
                tuple(steps), len(base.schema),
                "rows" if to_rows else "partition",
            )
            partitions = self._run(task, partitions, "narrow")
        return partitions

    def _run(self, task, inputs, stage="stage"):
        label = "{}[{}]".format(stage, self._stage_seq)
        self._stage_seq += 1
        self.obs.inc("executor.tasks_run", len(inputs))
        try:
            with stopwatch() as watch:
                outputs = self.run_tasks(task, inputs, stage=label)
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError("task execution failed: {}".format(exc), exc)
        self.obs.observe("executor.stage_seconds.{}".format(stage),
                         watch.seconds)
        return outputs

    @staticmethod
    def _linearize(node):
        """Peel the chain of narrow ops above the first wide node."""
        steps = []
        while node.narrow:
            steps.append(_narrow_step(node))
            node = node.child
        steps.reverse()
        return node, steps

    def _execute_wide(self, node):
        if isinstance(node, logical.Source):
            # Columnar source partitions pass through untouched (they
            # are read-only by contract); row partitions are copied so
            # tasks can never alias a caller's list.
            return [
                p if isinstance(p, ColumnarPartition) else list(p)
                for p in node.partitions
            ]
        if isinstance(node, logical.Join):
            return self._execute_join(node)
        if isinstance(node, logical.Union):
            # Layout-preserving: each side keeps whatever layout its
            # stages produced; consumers handle mixed partition lists.
            return (
                self._execute_partitions(node.left)
                + self._execute_partitions(node.right)
            )
        if isinstance(node, logical.Sort):
            return self._execute_sort(node)
        if isinstance(node, logical.Repartition):
            return self._execute_repartition(node)
        raise PlanError("unknown plan node {!r}".format(type(node).__name__))

    def _execute_join(self, node):
        """A broadcast hash join: the right side (the rule catalog, in
        Algorithm 1) becomes one in-memory index probed by one row task
        per left partition -- the plan Spark picks for a small side."""
        left_parts = self._execute_row_partitions(node.left)
        left_keys = tuple(node.left.schema.index_of(k) for k in node.keys)
        right_keys = tuple(node.right.schema.index_of(k) for k in node.keys)
        self.obs.inc("executor.broadcast_joins")
        task = BroadcastJoinTask(
            left_keys,
            _broadcast_index(
                self._execute_row_partitions(node.right), right_keys
            ),
        )
        return self._run(task, left_parts, "broadcast-join")

    def _execute_sort(self, node):
        child_parts = self.execute(node.child)
        schema = node.child.schema
        key_indices = tuple(schema.index_of(k) for k in node.keys)
        rows = [r for p in child_parts for r in p]
        self.obs.inc("executor.shuffles")
        self.obs.inc("executor.rows_shuffled", len(rows))
        task = SortPartitionTask(key_indices)
        # Routed through the task runner so cost models charge the sort
        # as one (serial) task; executors with a single input run it in
        # the driver anyway.
        [ordered] = self._run(task, [rows], "sort")
        return split_evenly(ordered, self.default_parallelism)

    def _execute_repartition(self, node):
        rows = [r for p in self.execute(node.child) for r in p]
        self.obs.inc("executor.shuffles")
        self.obs.inc("executor.rows_shuffled", len(rows))
        return split_evenly(rows, node.num_partitions)

    # -- single-pass split (Table.split_by_key) --------------------------
    def execute_split(self, node, key, keys=None):
        """Split *node*'s rows by the *key* column in one routed pass.

        Returns ``(groups, num_partitions)`` where *groups* maps each
        key value to its list of partitions, co-partitioned with the
        input (group partition ``i`` holds the rows of input partition
        ``i`` with that key value, in order). When *keys* is given the
        result holds exactly those keys in that order, with absent keys
        mapped to empty partition lists; otherwise keys are discovered
        from the data, in first-seen order.

        The routing is one :class:`SplitRouteTask` per input partition
        (stage kind ``split``) ordering its columns by group; the driver cuts
        each group's :class:`ColumnarPartition` as a slice. One shuffle
        stage for every group, and no row tuple.
        """
        child_parts = self.execute(node, as_rows=False)
        key_index = node.schema.index_of(key)
        num_partitions = len(child_parts)
        groups = {}
        total_rows = 0
        task = SplitRouteTask(key_index, len(node.schema))
        routed = self._run(task, child_parts, "split")
        for part_index, part in enumerate(routed):
            total_rows += len(part)
            *columns, route = part.columns
            codes = np.asarray(route.codes)
            cuts = (np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist()
            for start, stop in zip([0] + cuts, cuts + [len(part)]):
                if start == stop:
                    continue  # an empty partition has no run
                value = route.values[codes[start]]
                group = [column[start:stop] for column in columns]
                parts = groups.get(value)
                if parts is None:
                    parts = groups[value] = [
                        [] for _unused in range(num_partitions)
                    ]
                parts[part_index] = ColumnarPartition(group, stop - start)
        self.obs.inc("executor.shuffles")
        self.obs.inc("executor.rows_shuffled", total_rows)
        self.obs.inc("executor.splits")
        self.obs.inc("executor.split_groups", len(groups))
        self.obs.inc("executor.split_rows", total_rows)
        if keys is None:
            return groups, num_partitions
        return {
            value: groups[value] if value in groups
            else [[] for _unused in range(num_partitions)]
            for value in keys
        }, num_partitions


def _broadcast_index(right_parts, right_keys):
    """Build the broadcast hash map: key tuple -> right row remainders."""
    index = {}
    drop = set(right_keys)
    for part in right_parts:
        for row in part:
            key = tuple(row[i] for i in right_keys)
            rem = tuple(v for i, v in enumerate(row) if i not in drop)
            index.setdefault(key, []).append(rem)
    return index


def _narrow_step(node):
    if isinstance(node, logical.Filter):
        return FilterStep(node.predicate)
    if isinstance(node, logical.Project):
        return ProjectStep(node.exprs)
    if isinstance(node, logical.FlatMap):
        return FlatMapStep(node.func, len(node.schema))
    if isinstance(node, logical.MapPartitions):
        return MapPartitionStep(node.func, len(node.schema))
    raise PlanError(
        "node {!r} is marked narrow but has no physical step".format(
            type(node).__name__
        )
    )


class SerialExecutor(Executor):
    """Run every task in the driver process, one partition at a time."""

    def run_tasks(self, task, inputs, stage="task"):
        return [self._timed_partition(task, x, stage)[0] for x in inputs]


class SimulatedClusterExecutor(SerialExecutor):
    """Serial execution with a measured cluster-makespan cost model.

    The reproduction's stand-in for the paper's 70-node Spark cluster:
    every per-partition task runs serially (results are bit-identical to
    :class:`SerialExecutor`), but each task's wall time is measured and
    the executor accumulates the *makespan* that ``num_workers``
    parallel workers would need -- longest-processing-time-first
    assignment of the measured task durations, plus a fixed per-stage
    coordination latency.

    ``simulated_seconds`` is therefore an estimate of the distributed
    wall time, derived from real single-core execution; it charges no
    transfer, and on two real cores a process pool measured far below
    it (EXPERIMENTS.md, Fig. 5). The benchmarks report it alongside the
    raw wall time.
    """

    def __init__(self, num_workers=10, stage_latency=0.001,
                 default_parallelism=None):
        if default_parallelism is None:
            default_parallelism = num_workers
        super().__init__(default_parallelism=default_parallelism)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.stage_latency = stage_latency
        self.simulated_seconds = 0.0
        #: Sum of raw task durations (no makespan division); wall time
        #: minus this is driver-side work not covered by the model.
        self.serial_task_seconds = 0.0

    def reset_clock(self):
        self.simulated_seconds = 0.0
        self.serial_task_seconds = 0.0

    def run_tasks(self, task, inputs, stage="task"):
        if not inputs:
            # A zero-partition stage schedules no tasks; charging the
            # per-stage coordination latency for it would make empty
            # stages cost a full stage_latency each.
            return []
        outputs = []
        durations = []
        for x in inputs:
            output, seconds = self._timed_partition(task, x, stage)
            outputs.append(output)
            durations.append(seconds)
        self.simulated_seconds += self._makespan(durations) + self.stage_latency
        self.serial_task_seconds += sum(durations)
        return outputs

    def _makespan(self, durations):
        """LPT greedy assignment of task durations to workers.

        Workers beyond the task count would stay idle, so at most one
        load per task is kept: the cost is the stage's, whatever
        ``num_workers`` is.
        """
        loads = [0.0] * min(self.num_workers, len(durations))
        for duration in sorted(durations, reverse=True):
            index = loads.index(min(loads))
            loads[index] += duration
        return max(loads) if loads else 0.0
