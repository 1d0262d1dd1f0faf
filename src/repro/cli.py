"""Command-line interface.

The off-board analysis workflow of Fig. 1 as a tool: simulate journeys,
inspect raw traces, extract domain signals into a table store and run the
full preprocessing pipeline from a declarative parameter file.

Subcommands
-----------
``simulate``  record a journey of one of the SYN/LIG/STA vehicles
``stats``     row/channel/message statistics of a raw trace file
``export-dbc`` write a data set's communication database as DBC files
``extract``   lines 3-6: signal extraction into a table store
``pipeline``  full Algorithm 1 run; prints summary + state representation
``degrade``   corruption severity sweep: perfect vs corrupted pipeline runs
``fleet``     checkpointed multi-trace sweeps: prepare / run / resume / status
``stream``    always-on windowed ingest: serve / status (kill-resumable)
``discover``  DBC-less signal discovery: raw trace in, recovered DBC +
              ``repro.discovery/1`` report out
``dbc``       database tooling: ``diff`` two DBC files structurally

Operational errors (a missing or corrupt catalog, an unreadable trace
file) exit with status 2 and a single structured ``error: <kind>: ...``
line on stderr -- never a traceback.

Examples
--------
::

    python -m repro.cli simulate --dataset SYN --duration 20 --out j0.trc
    python -m repro.cli stats --trace j0.trc
    python -m repro.cli extract --dataset SYN --trace j0.trc \
        --signals syn_num_000,syn_num_001 --store ./store
    python -m repro.cli pipeline --dataset SYN --trace j0.trc \
        --params params.json --max-rows 15
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.params import (
    ParameterizationError,
    config_from_dict,
    load_config,
)
from repro.core.pipeline import PipelineConfig, PreprocessingPipeline
from repro.datasets import SPECS, build_dataset
from repro.engine import EngineContext, TableStore
from repro.network.dbcio import dump_database
from repro.obs import stopwatch
from repro.engine.errors import EngineError, ExecutionError
from repro.protocols import ShortPayloadError
from repro.tracefile import (
    BinaryTraceError,
    ColumnarTraceError,
    TraceFormatError,
    codec_for,
)


#: Faults of a trace's content that surface mid-run: a corrupt ``m_info``
#: cell, a payload too short for a rule under ``short_payload="raise"``.
_TRACE_FAULTS = (ColumnarTraceError, BinaryTraceError, ShortPayloadError)


class CliError(Exception):
    """An operational error to report as one structured line, exit 2.

    ``kind`` names the failing subsystem (``trace``, ``catalog``,
    ``fleet``, ``params``) so scripts can dispatch on the prefix without
    parsing prose.
    """

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def _load_trace(ctx, path):
    return _read_trace(path, lambda codec: codec.load_table(ctx, path))


def _load_records(path, packed=False):
    """A trace's byte records: with *packed* as the codec's loader hands
    them out (a ``.btrc``/``.ctrc`` cell is decoded where it is read),
    else every cell decoded here."""
    return _read_trace(path, lambda codec: codec.load_records(path)
                       if packed else list(codec.load_records(path)))


def _read_trace(path, load):
    """Run ``load(codec)`` on the codec for *path*'s suffix, turning
    every trace-file error into one ``error: trace:`` line."""
    try:
        return load(codec_for(path))
    except FileNotFoundError:
        raise CliError("trace", "trace file {!r} does not exist".format(
            str(path)))
    except IsADirectoryError:
        raise CliError("trace", "{!r} is a directory, not a trace "
                       "file".format(str(path)))
    except (TraceFormatError, BinaryTraceError, ColumnarTraceError) as exc:
        raise CliError("trace", "trace file {!r} is corrupt: {}".format(
            str(path), exc))


def _bundle(args):
    spec = SPECS[args.dataset]
    return build_dataset(spec, seed_offset=getattr(args, "journey", 0))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args, out=sys.stdout):
    bundle = _bundle(args)
    records = bundle.byte_records(args.duration)
    count = codec_for(args.out).dump_records(records, args.out)
    print(
        "wrote {} records ({} s of {} journey {}) to {}".format(
            count, args.duration, args.dataset, args.journey, args.out
        ),
        file=out,
    )
    return 0


def cmd_stats(args, out=sys.stdout):
    records = _load_records(args.trace)
    if not records:
        print("empty trace", file=out)
        return 0
    channels = {}
    messages = {}
    for t, payload, b_id, m_id, _mi in records:
        channels[b_id] = channels.get(b_id, 0) + 1
        messages[(b_id, m_id)] = messages.get((b_id, m_id), 0) + 1
    duration = records[-1][0] - records[0][0]
    print("rows           : {}".format(len(records)), file=out)
    print("duration       : {:.3f} s".format(duration), file=out)
    print("message types  : {}".format(len(messages)), file=out)
    for b_id in sorted(channels):
        print(
            "channel {:8s}: {} rows, {} message types".format(
                str(b_id),
                channels[b_id],
                sum(1 for key in messages if key[0] == b_id),
            ),
            file=out,
        )
    return 0


def cmd_export_dbc(args, out=sys.stdout):
    bundle = _bundle(args)
    database = bundle.database
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for channel in database.channels():
        safe = str(channel).replace("/", "_")
        path = out_dir / "{}_{}.dbc".format(args.dataset.lower(), safe)
        dump_database(database, path, channels=[channel])
        print("wrote {}".format(path), file=out)
    return 0


def cmd_extract(args, out=sys.stdout):
    bundle = _bundle(args)
    ctx = EngineContext.serial()
    k_b = _load_trace(ctx, args.trace)
    signals = [s for s in args.signals.split(",") if s]
    catalog = bundle.database.translation_catalog(signals)
    pipeline = PreprocessingPipeline(PipelineConfig(catalog=catalog))
    store = TableStore(args.store)
    with stopwatch() as watch:
        k_s = pipeline.extract_signals(k_b, cache=False)
        manifest = store.write(args.table, k_s)
    print(
        "extracted {} signal instances of {} signals into {}/{} "
        "in {:.2f} s".format(
            manifest["num_rows"], len(signals), args.store, args.table,
            watch.seconds,
        ),
        file=out,
    )
    return 0


def _pipeline_config(args, bundle):
    """The pipeline parameterization: a params file when given (a bad
    one is one ``error: params:`` line), else per-signal
    unchanged-within-cycle constraints."""
    if args.params:
        try:
            return load_config(args.params, bundle.database)
        except FileNotFoundError:
            raise CliError("params", "parameter file {!r} does not "
                           "exist".format(str(args.params)))
        except ValueError as exc:
            raise CliError("params", "parameter file {!r} is invalid: "
                           "{}".format(str(args.params), exc))
    document = {
        "signals": list(bundle.signal_ids),
        "constraints": [
            {
                "signal": s,
                "type": "unchanged_within_cycle",
                "cycle_time": bundle.cycle_times[s],
            }
            for s in bundle.signal_ids
        ],
    }
    return config_from_dict(document, bundle.database)


def cmd_pipeline(args, out=sys.stdout):
    bundle = _bundle(args)
    ctx = EngineContext.serial()
    k_b = _load_trace(ctx, args.trace)
    config = _pipeline_config(args, bundle)
    result = PreprocessingPipeline(config).run(k_b)
    print("counts : {}".format(result.counts), file=out)
    print(
        "timings: {}".format(
            {k: round(v, 3) for k, v in result.timings.items()}
        ),
        file=out,
    )
    print("classification:", file=out)
    for s_id, (dtype, branch) in sorted(
        result.classification_summary().items()
    ):
        print("  {:20s} {} ({})".format(s_id, dtype, branch), file=out)
    representation = result.state_representation()
    print(representation.to_markdown(max_rows=args.max_rows), file=out)
    if args.output:
        Path(args.output).write_text(representation.to_markdown())
        print("state representation written to {}".format(args.output), file=out)
    if args.report:
        result.report.set_meta(dataset=args.dataset, trace=str(args.trace))
        result.report.write(args.report)
        print("run report written to {}".format(args.report), file=out)
    return 0


def cmd_profile(args, out=sys.stdout):
    """Per-signal profile of a trace (rates, gaps, expected branches)."""
    from repro.core.interpretation import interpret
    from repro.core.preselection import preselect
    from repro.core.profiling import profile_report, profile_trace

    bundle = _bundle(args)
    ctx = EngineContext.serial()
    k_b = _load_trace(ctx, args.trace)
    catalog = bundle.database.translation_catalog()
    k_s = interpret(preselect(k_b, catalog), catalog)
    profiles = profile_trace(k_s)
    print(profile_report(profiles, sort_by=args.sort), file=out)
    return 0


def cmd_report(args, out=sys.stdout):
    """Full pipeline run + markdown verification report."""
    from repro.mining.report import ReportOptions, generate_report

    bundle = _bundle(args)
    ctx = EngineContext.serial()
    k_b = _load_trace(ctx, args.trace)
    config = _pipeline_config(args, bundle)
    result = PreprocessingPipeline(config).run(k_b)
    report = generate_report(
        result,
        title="Verification report: {} ({})".format(args.trace, args.dataset),
        options=ReportOptions(state_rows=args.state_rows),
    )
    text = report.to_markdown()
    if args.out:
        Path(args.out).write_text(text)
        print("report written to {}".format(args.out), file=out)
    else:
        print(text, file=out)
    return 0


def cmd_degrade(args, out=sys.stdout):
    """Severity sweep: perfect vs corrupted runs of the same trace."""
    from repro.testing.degradation import (
        KNOBS,
        degradation_summary,
        run_degradation,
    )

    bundle = _bundle(args)
    records = _load_records(args.trace)
    config = _pipeline_config(args, bundle)
    try:
        severities = tuple(
            float(s) for s in args.severities.split(",") if s
        )
    except ValueError:
        raise CliError("degrade", "severities must be a comma-separated "
                       "list of numbers, got {!r}".format(args.severities))
    knobs = dict(KNOBS)
    if args.knobs:
        wanted = [k for k in args.knobs.split(",") if k]
        unknown = sorted(set(wanted) - set(KNOBS))
        if unknown:
            raise CliError("degrade", "unknown knobs {}; available: "
                           "{}".format(unknown, sorted(KNOBS)))
        knobs = {k: KNOBS[k] for k in wanted}
    try:
        report = run_degradation(
            records, config, knobs=knobs, severities=severities,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError("degrade", str(exc))
    report.set_meta(dataset=args.dataset, trace=str(args.trace))
    print(degradation_summary(report), file=out)
    print(
        "baseline: {records} records -> {k_s_rows} K_s rows -> "
        "{r_out_rows} R_out rows (reduction {reduction_ratio:.3f})".format(
            **report.sections["baseline"]
        ),
        file=out,
    )
    if args.out_report:
        report.write(args.out_report)
        print(
            "degradation report written to {}".format(args.out_report),
            file=out,
        )
    return 0


def cmd_show_params(args, out=sys.stdout):
    """Print a starter parameter document for a data set."""
    bundle = _bundle(args)
    document = {
        "signals": list(bundle.signal_ids),
        "constraints": [
            {
                "signal": s,
                "type": "unchanged_within_cycle",
                "cycle_time": bundle.cycle_times[s],
                "tolerance": 1.5,
            }
            for s in bundle.signal_ids
        ],
        "extensions": [],
        "branch": {"sax_alphabet": 3},
        "dedup_channels": True,
    }
    json.dump(document, out, indent=2)
    out.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Fleet subcommands
# ---------------------------------------------------------------------------


def _fleet_guard(fn, *fn_args, **fn_kwargs):
    """Run a fleet entry point, mapping its errors to structured lines."""
    from repro.fleet import CatalogError, FleetRunError

    try:
        return fn(*fn_args, **fn_kwargs)
    except CatalogError as exc:
        raise CliError("catalog", str(exc))
    except FleetRunError as exc:
        raise CliError("fleet", str(exc))


def _print_fleet_result(result, out):
    counts = {
        status: sum(1 for s in result.statuses.values() if s == status)
        for status in ("done", "cached", "failed")
    }
    print(
        "jobs   : {} total, {} executed, {} cached, {} failed".format(
            len(result.catalog), counts["done"], counts["cached"],
            counts["failed"],
        ),
        file=out,
    )
    print(
        "rows   : {} trace rows -> {} reduced rows".format(
            result.summary.get("trace_rows", 0),
            result.summary.get("rows_out", 0),
        ),
        file=out,
    )
    for job_id, row in sorted(result.failed.items()):
        print(
            "failed : {} trace={} stage={}: {}".format(
                job_id, row.get("trace"), row.get("stage"), row.get("error"),
            ),
            file=out,
        )


def cmd_fleet_prepare(args, out=sys.stdout):
    from repro import fleet

    params = None
    if args.params:
        try:
            params = json.loads(Path(args.params).read_text())
        except FileNotFoundError:
            raise CliError("params", "parameter file {!r} does not "
                           "exist".format(str(args.params)))
        except ValueError as exc:
            raise CliError("params", "parameter file {!r} is invalid: "
                           "{}".format(str(args.params), exc))
    try:
        catalog = _fleet_guard(
            fleet.prepare_run, args.run_dir, args.dataset, args.traces,
            duration=args.duration, params=params, trace_format=args.format,
        )
    except ParameterizationError as exc:
        raise CliError("params", "parameter file {!r} is invalid: "
                       "{}".format(str(args.params), exc))
    print(
        "catalogued {} jobs ({} traces of {:.1f} s) under {}".format(
            len(catalog), args.traces, args.duration, args.run_dir
        ),
        file=out,
    )
    return 0


def cmd_fleet_run(args, out=sys.stdout):
    from repro import fleet

    result = _fleet_guard(
        fleet.run, args.run_dir, workers=args.workers
    )
    _print_fleet_result(result, out)
    print("report : {}".format(Path(args.run_dir) / fleet.REPORT_FILE),
          file=out)
    return 1 if result.failed else 0


def cmd_fleet_resume(args, out=sys.stdout):
    from repro import fleet

    result = _fleet_guard(
        fleet.resume, args.run_dir, workers=args.workers
    )
    print("resumed: {} re-executed, {} reused from checkpoints".format(
        len(result.executed), len(result.cached)), file=out)
    _print_fleet_result(result, out)
    return 1 if result.failed else 0


def cmd_fleet_status(args, out=sys.stdout):
    from repro import fleet

    info = _fleet_guard(fleet.status, args.run_dir)
    print(
        "{}: {} jobs, {} completed, {} failed, {} pending, "
        "aggregated={}".format(
            info["run_dir"], info["jobs"], info["completed"],
            info["failed"], info["pending"],
            "yes" if info["aggregated"] else "no",
        ),
        file=out,
    )
    for row in info["failures"]:
        print(
            "failed : {} trace={} stage={}: {}".format(
                row.get("job_id"), row.get("trace"), row.get("stage"),
                row.get("error"),
            ),
            file=out,
        )
    return 0


# ---------------------------------------------------------------------------
# Stream subcommands
# ---------------------------------------------------------------------------


def cmd_stream_serve(args, out=sys.stdout):
    import asyncio

    from repro.obs import MetricsRegistry
    from repro.stream import (
        ReplaySource,
        StreamConfig,
        StreamError,
        StreamIngestService,
    )

    bundle = _bundle(args)
    ctx = EngineContext.serial()
    config = _pipeline_config(args, bundle)
    try:
        stream_config = StreamConfig(
            window_seconds=args.window,
            grace_seconds=args.grace,
            checkpoint_every=args.checkpoint_every,
        )
    except StreamError as exc:
        raise CliError("stream", str(exc))
    metrics = MetricsRegistry()
    service = StreamIngestService(
        args.run_dir, stream_config, metrics=metrics
    )
    vehicles = {}
    try:
        for trace in args.traces:
            vehicle_id = Path(trace).stem
            records = _load_records(trace, packed=True)
            service.add_vehicle(
                vehicle_id, ReplaySource(records), config, ctx
            )
            vehicles[vehicle_id] = str(trace)
        service.checkpointer.write_manifest({
            "dataset": args.dataset,
            "window_seconds": args.window,
            "grace_seconds": args.grace,
            "vehicles": vehicles,
            "params": str(args.params) if args.params else None,
        })
        result = asyncio.run(service.serve(max_frames=args.max_frames))
    except StreamError as exc:
        raise CliError("stream", str(exc))
    except ExecutionError as exc:
        # The session's message names the vehicle whose frames failed.
        if not isinstance(exc.cause, _TRACE_FAULTS):
            raise
        raise CliError("trace", str(exc))
    counters = metrics.counters()
    resumed = counters.get("stream.resume.sessions", 0)
    if resumed:
        print(
            "resumed: {} sessions from checkpoints, {} frames already "
            "covered".format(
                resumed, counters.get("stream.resume.frames_skipped", 0)
            ),
            file=out,
        )
    for vehicle_id, summary in sorted(result.sessions.items()):
        print(
            "session {}: {} frames, {} windows sealed, {} late drops, "
            "drained={}".format(
                vehicle_id, summary["frames_ingested"],
                summary["windows_sealed"], summary["late_dropped"],
                "yes" if summary["drained"] else "no",
            ),
            file=out,
        )
    print(
        "stream : {} frames delivered, {} checkpoints committed".format(
            result.frames_delivered, counters.get("stream.checkpoints", 0)
        ),
        file=out,
    )
    if result.killed:
        print(
            "killed : frame budget spent mid-stream; re-run serve on {} "
            "to resume".format(args.run_dir),
            file=out,
        )
        return 1
    if args.finalize:
        try:
            results = service.finalize_all()
        except StreamError as exc:
            raise CliError("stream", str(exc))
        for vehicle_id, final in sorted(results.items()):
            print(
                "final  : {} -> {} reduced rows".format(
                    vehicle_id, final.r_out.count()
                ),
                file=out,
            )
    return 0


def cmd_stream_status(args, out=sys.stdout):
    import time

    from repro.stream import StreamCheckpointer, StreamError

    checkpointer = StreamCheckpointer(args.run_dir)
    try:
        manifest = checkpointer.read_manifest()
    except StreamError as exc:
        raise CliError("stream", str(exc))
    print(
        "{}: stream run of dataset {}, window {} s (+{} s grace)".format(
            args.run_dir, manifest.get("dataset"),
            manifest.get("window_seconds"), manifest.get("grace_seconds"),
        ),
        file=out,
    )
    # Every vehicle the run serves, committed or not, and any logged one.
    vehicles = manifest.get("vehicles")
    session_ids = sorted(
        {*(vehicles if isinstance(vehicles, dict) else ()),
         *checkpointer.session_ids()}, key=str,
    )
    if not session_ids:
        print("no session checkpoints committed yet", file=out)
        return 0
    now = time.time()
    for vehicle_id in session_ids:
        try:
            payload = checkpointer.session_payload(vehicle_id)
        except StreamError as exc:
            raise CliError("stream", str(exc))
        if payload is None:
            print("session {}: no record committed".format(vehicle_id),
                  file=out)
            continue
        mtime = checkpointer.checkpoint_mtime(vehicle_id)
        age = " checkpoint age {:.1f} s".format(now - mtime) \
            if mtime is not None else ""
        print(
            "session {}: {} frames, {} windows sealed, drained={},{}".format(
                vehicle_id, payload.get("frames_ingested"),
                payload.get("windows_sealed"),
                "yes" if payload.get("drained") else "no", age,
            ),
            file=out,
        )
    return 0


# ---------------------------------------------------------------------------
# Discovery subcommands
# ---------------------------------------------------------------------------


def _load_dbc(path):
    """DBC file -> NetworkDatabase, with structured error lines."""
    from repro.network.dbcio import DbcError, load_database

    try:
        return load_database(path)
    except FileNotFoundError:
        raise CliError("dbc", "database file {!r} does not exist".format(
            str(path)))
    except IsADirectoryError:
        raise CliError("dbc", "{!r} is a directory, not a database "
                       "file".format(str(path)))
    except (DbcError, ValueError) as exc:
        raise CliError("dbc", "database file {!r} is invalid: {}".format(
            str(path), exc))


def _load_partial(paths):
    """Combine --partial-dbc files into one documented database."""
    from repro.network.database import DatabaseError, NetworkDatabase

    if not paths:
        return None
    messages = []
    for path in paths:
        messages.extend(_load_dbc(path).messages)
    try:
        return NetworkDatabase(tuple(messages))
    except DatabaseError as exc:
        raise CliError(
            "dbc", "conflicting partial databases: {}".format(exc)
        )


def cmd_discover(args, out=sys.stdout):
    from repro.discovery import (
        DiscoveryConfig,
        DiscoveryError,
        discover,
        pipeline_coverage,
        score_discovery,
        unscored_report,
    )

    records = _load_records(args.trace)
    partial = _load_partial(args.partial_dbc)
    try:
        config = DiscoveryConfig(min_frames=args.min_frames)
    except DiscoveryError as exc:
        raise CliError("params", str(exc))
    if not records:
        raise CliError(
            "trace", "trace file {!r} is empty; nothing to "
            "discover".format(str(args.trace))
        )
    result = discover(records=records, partial=partial, config=config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for channel in result.database.channels():
        safe = str(channel).replace("/", "_")
        path = out_dir / "recovered_{}.dbc".format(safe)
        dump_database(result.database, path, channels=[channel])
        print("wrote {}".format(path), file=out)
    classes = {
        name.rsplit(".", 1)[1]: value
        for name, value in result.metrics.counters().items()
        if name.startswith("discovery.tokens.")
    }
    print(
        "discovered {} signals in {} messages ({} translation "
        "tuples){}".format(
            sum(len(d.signals) for d in result.messages.values()),
            len(result.messages),
            len(result.catalog),
            " [{}]".format(
                ", ".join(
                    "{} {}".format(value, name)
                    for name, value in sorted(classes.items())
                )
            ) if classes else "",
        ),
        file=out,
    )
    if partial is not None:
        print(
            "merged partial database: {} documented signals kept, {} "
            "recovered added, {} overlapping tokens dropped".format(
                result.merge_stats["documented_signals"],
                result.merge_stats["recovered_signals"],
                result.merge_stats["overlap_dropped"],
            ),
            file=out,
        )
    report = None
    if args.dataset:
        bundle = _bundle(args)
        report = score_discovery(bundle.database, result)
        totals = report.sections["totals"]
        print(
            "vs {} ground truth: precision {:.3f}, recall {:.3f}, "
            "F1 {:.3f}, encoding accuracy {:.3f}".format(
                args.dataset, totals["precision"], totals["recall"],
                totals["f1"], totals["encoding_accuracy"],
            ),
            file=out,
        )
        if args.coverage:
            coverage, _detail = pipeline_coverage(
                bundle.database, result, records
            )
            print(
                "pipeline coverage: {:.3f} of discoverable signals "
                "interpreted end to end".format(coverage),
                file=out,
            )
    if args.report:
        if report is None:
            report = unscored_report(result)
        report.set_meta(
            trace=str(args.trace),
            partial_databases=[str(p) for p in args.partial_dbc],
        )
        report.write(args.report)
        print("wrote {}".format(args.report), file=out)
    return 0


def cmd_dbc_diff(args, out=sys.stdout):
    from repro.network.dbcio import diff_databases

    actual = _load_dbc(args.actual)
    recovered = _load_dbc(args.recovered)
    diff = diff_databases(actual, recovered)
    for line in diff.describe():
        print(line, file=out)
    counts = diff.counts()
    print(
        "diff: {}".format(
            ", ".join(
                "{} {}".format(value, name)
                for name, value in sorted(counts.items())
            )
        ),
        file=out,
    )
    if diff.is_empty():
        print("databases are structurally identical", file=out)
        return 0
    return 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-vehicle network trace preprocessing (DAC'18 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset(p):
        p.add_argument(
            "--dataset", choices=sorted(SPECS), required=True,
            help="which synthetic vehicle (Table 5 data set)",
        )
        p.add_argument(
            "--journey", type=int, default=0,
            help="journey index (varies behaviour seeds)",
        )

    p = sub.add_parser("simulate", help="record a journey to a trace file")
    add_dataset(p)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--out", required=True,
                   help="output file (.trc = text, .btrc = binary)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="summarize a raw trace file")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-dbc", help="write per-channel DBC files")
    add_dataset(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export_dbc)

    p = sub.add_parser("extract", help="extract signals into a table store")
    add_dataset(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--signals", required=True,
                   help="comma-separated signal ids")
    p.add_argument("--store", required=True)
    p.add_argument("--table", default="extraction")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pipeline", help="run the full Algorithm 1")
    add_dataset(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--params", help="JSON parameter file (see core.params)")
    p.add_argument("--max-rows", type=int, default=10)
    p.add_argument("--output", help="write the full state table here")
    p.add_argument("--report",
                   help="write the run's observability report (JSON) here")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("profile", help="per-signal trace profile")
    add_dataset(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--sort", choices=["count", "rate", "signal"],
                   default="rate")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report", help="markdown verification report")
    add_dataset(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--params", help="JSON parameter file")
    p.add_argument("--out", help="write the report here (default: stdout)")
    p.add_argument("--state-rows", type=int, default=0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "degrade",
        help="corruption severity sweep: perfect vs corrupted pipeline runs",
    )
    add_dataset(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--params", help="JSON parameter file (see core.params)")
    p.add_argument("--severities", default="0,0.5,1",
                   help="comma-separated severity factors (default 0,0.5,1)")
    p.add_argument("--knobs",
                   help="comma-separated corruption knob subset "
                        "(default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-report",
                   help="write the repro.degrade/1 report (JSON) here")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("show-params", help="print a starter parameter file")
    add_dataset(p)
    p.set_defaults(func=cmd_show_params)

    p = sub.add_parser("fleet", help="checkpointed multi-trace sweeps")
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    def add_run_args(fp):
        fp.add_argument("--run-dir", required=True,
                        help="sweep directory (catalog + checkpoints)")
        fp.add_argument("--workers", type=int, default=1)

    fp = fleet_sub.add_parser(
        "prepare", help="simulate journeys and write the job catalog")
    fp.add_argument("--run-dir", required=True)
    fp.add_argument("--dataset", choices=sorted(SPECS), required=True)
    fp.add_argument("--traces", type=int, default=4,
                    help="number of journeys to simulate")
    fp.add_argument("--duration", type=float, default=6.0)
    fp.add_argument("--params", help="JSON parameter file (see core.params)")
    fp.add_argument("--format", choices=["trc", "btrc"], default="trc")
    fp.set_defaults(func=cmd_fleet_prepare)

    fp = fleet_sub.add_parser("run", help="execute the catalogued sweep")
    add_run_args(fp)
    fp.set_defaults(func=cmd_fleet_run)

    fp = fleet_sub.add_parser(
        "resume", help="continue a killed sweep from its checkpoints")
    add_run_args(fp)
    fp.set_defaults(func=cmd_fleet_resume)

    fp = fleet_sub.add_parser(
        "status", help="inspect a sweep without running anything")
    fp.add_argument("--run-dir", required=True)
    fp.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser(
        "stream", help="always-on windowed ingest (kill-resumable)")
    stream_sub = p.add_subparsers(dest="stream_command", required=True)

    sp = stream_sub.add_parser(
        "serve",
        help="stream recorded traces through per-vehicle sessions")
    add_dataset(sp)
    sp.add_argument("--run-dir", required=True,
                    help="checkpoint directory (resumed when re-run)")
    sp.add_argument("--traces", nargs="+", required=True,
                    help="trace files; each becomes one vehicle session")
    sp.add_argument("--params", help="JSON parameter file (see core.params)")
    sp.add_argument("--window", type=float, default=1.0,
                    help="window length in seconds")
    sp.add_argument("--grace", type=float, default=0.5,
                    help="late-arrival grace before a window seals")
    sp.add_argument("--checkpoint-every", type=int, default=200,
                    help="checkpoint cadence in frames per session")
    sp.add_argument("--max-frames", type=int,
                    help="stop after this many delivered frames "
                         "(emulates a mid-stream kill)")
    sp.add_argument("--finalize", action="store_true",
                    help="finalize drained sessions and print row counts")
    sp.set_defaults(func=cmd_stream_serve)

    sp = stream_sub.add_parser(
        "status", help="inspect committed session checkpoints")
    sp.add_argument("--run-dir", required=True)
    sp.set_defaults(func=cmd_stream_status)

    p = sub.add_parser(
        "discover",
        help="recover signal boundaries and a DBC from a raw trace "
             "(no database needed)",
    )
    p.add_argument("--trace", required=True,
                   help="raw trace file (.trc text, .btrc binary)")
    p.add_argument("--out-dir", required=True,
                   help="directory for per-channel recovered DBC files")
    p.add_argument("--partial-dbc", action="append", default=[],
                   help="documented partial DBC to merge (documented "
                        "signals win; repeatable)")
    p.add_argument("--report",
                   help="write the repro.discovery/1 report (JSON) here")
    p.add_argument("--dataset", choices=sorted(SPECS),
                   help="score against this data set's ground-truth "
                        "database")
    p.add_argument("--journey", type=int, default=0,
                   help="journey index (with --dataset)")
    p.add_argument("--coverage", action="store_true",
                   help="with --dataset: also run the pipeline on the "
                        "synthesized catalog and report coverage")
    p.add_argument("--min-frames", type=int, default=8,
                   help="minimum frames per message before tokenizing")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser(
        "dbc", help="communication-database tooling")
    dbc_sub = p.add_subparsers(dest="dbc_command", required=True)

    dp = dbc_sub.add_parser(
        "diff",
        help="structurally compare two DBC files (exit 1 on deltas)")
    dp.add_argument("--actual", required=True,
                    help="the reference (ground truth) DBC file")
    dp.add_argument("--recovered", required=True,
                    help="the DBC file to compare against it")
    dp.set_defaults(func=cmd_dbc_diff)

    return parser


def main(argv=None, out=sys.stdout):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out=out)
    except CliError as exc:
        print("error: {}: {}".format(exc.kind, exc), file=sys.stderr)
        return 2
    except (EngineError, BinaryTraceError) as exc:
        # What sits inside an m_info cell of a .ctrc or .btrc table, and
        # whether a payload holds the bytes a rule reads, is checked when
        # a rule reads the frame, mid-run; a task's failure may arrive
        # wrapped.
        cause = getattr(exc, "cause", None) or exc
        if not isinstance(cause, _TRACE_FAULTS):
            raise
        print("error: trace: {}".format(cause), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
