"""CLI subcommands, driven in-process through main()."""

import io
import json

import pytest

from repro.cli import build_parser, main
from tests.core.test_params import malformed_documents


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "j0.trc"
    code, _out = run_cli(
        "simulate", "--dataset", "SYN", "--duration", "10", "--out", str(path)
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_trace(self, tmp_path):
        path = tmp_path / "t.trc"
        code, out = run_cli(
            "simulate", "--dataset", "SYN", "--duration", "5",
            "--out", str(path),
        )
        assert code == 0
        assert path.is_file()
        assert "records" in out

    def test_binary_format_by_suffix(self, tmp_path):
        path = tmp_path / "t.btrc"
        run_cli(
            "simulate", "--dataset", "SYN", "--duration", "5",
            "--out", str(path),
        )
        assert path.read_bytes()[:8] == b"IVNTRACE"

    def test_journey_seed_changes_trace(self, tmp_path):
        a, b = tmp_path / "a.trc", tmp_path / "b.trc"
        run_cli("simulate", "--dataset", "SYN", "--duration", "5",
                "--out", str(a))
        run_cli("simulate", "--dataset", "SYN", "--duration", "5",
                "--journey", "1", "--out", str(b))
        assert a.read_text() != b.read_text()


class TestStats:
    def test_reports_channels(self, trace_file):
        code, out = run_cli("stats", "--trace", str(trace_file))
        assert code == 0
        assert "rows" in out
        assert "channel FC" in out
        assert "channel K-LIN" in out


class TestExportDbc:
    def test_writes_one_file_per_channel(self, tmp_path):
        code, out = run_cli(
            "export-dbc", "--dataset", "SYN", "--out-dir", str(tmp_path)
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.dbc"))
        assert len(files) == 5
        from repro.network.dbcio import load_database

        db = load_database(tmp_path / files[0])
        assert len(db) > 0


class TestExtract:
    def test_extracts_into_store(self, trace_file, tmp_path):
        store = tmp_path / "store"
        code, out = run_cli(
            "extract", "--dataset", "SYN", "--trace", str(trace_file),
            "--signals", "syn_num_000,syn_num_001",
            "--store", str(store),
        )
        assert code == 0
        assert "extracted" in out
        from repro.engine import EngineContext, TableStore

        loaded = TableStore(store).read(EngineContext.serial(), "extraction")
        signals = {r[2] for r in loaded.collect()}
        assert signals == {"syn_num_000", "syn_num_001"}


class TestPipeline:
    def test_default_parameterization(self, trace_file, tmp_path):
        output = tmp_path / "state.md"
        code, out = run_cli(
            "pipeline", "--dataset", "SYN", "--trace", str(trace_file),
            "--max-rows", "3", "--output", str(output),
        )
        assert code == 0
        assert "classification:" in out
        assert "| t |" in out
        assert output.is_file()

    def test_report_flag_writes_valid_schema(self, trace_file, tmp_path):
        report_path = tmp_path / "run-report.json"
        code, out = run_cli(
            "pipeline", "--dataset", "SYN", "--trace", str(trace_file),
            "--max-rows", "2", "--report", str(report_path),
        )
        assert code == 0
        assert "run report written to" in out
        from repro.obs import validate_report

        payload = validate_report(report_path.read_text())
        assert payload["meta"]["dataset"] == "SYN"
        assert "workers" not in payload["meta"]
        span_names = {s["name"] for s in payload["spans"]}
        assert span_names >= {
            "preselect", "interpret", "split", "reduce", "extend",
            "branch", "merge",
        }
        assert payload["counters"]["pipeline.merge.rows_out"] > 0
        assert "executor.tasks_run" in payload["counters"]

    def test_with_params_file(self, trace_file, tmp_path):
        params = {
            "signals": ["syn_num_000"],
            "constraints": [],
            "branch": {"sax_alphabet": 3},
        }
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(params))
        code, out = run_cli(
            "pipeline", "--dataset", "SYN", "--trace", str(trace_file),
            "--params", str(params_path), "--max-rows", "2",
        )
        assert code == 0
        assert "syn_num_000" in out
        assert "syn_num_001" not in out

    @pytest.mark.parametrize(
        "key, value",
        [("swab_buffer", 0), ("swab_buffer", "40"),
         ("swab_error_fraction", -1)],
    )
    def test_bad_branch_params_are_one_error_line(
        self, trace_file, tmp_path, capsys, key, value
    ):
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(
            {"signals": ["syn_num_000"], "branch": {key: value}}
        ))
        code, _out = run_cli(
            "pipeline", "--dataset", "SYN", "--trace", str(trace_file),
            "--params", str(params_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: params:") and key in err

    @pytest.mark.parametrize("document, named", [
        pytest.param(document, named, id=case)
        for case, document, named in malformed_documents("syn_num_000")
    ])
    def test_malformed_params_are_one_error_line(
        self, trace_file, tmp_path, capsys, document, named
    ):
        params_path = tmp_path / "p.json"
        params_path.write_text(json.dumps(document))
        code, out = run_cli(
            "pipeline", "--dataset", "SYN", "--trace", str(trace_file),
            "--params", str(params_path),
        )
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: params:") and named in err


class TestWorkersFlag:
    """Single-trace commands run serially; only ``fleet run|resume``
    take ``--workers`` (worker processes, one journey each)."""

    @pytest.mark.parametrize("argv", [
        ["extract", "--signals", "syn_num_000", "--store", "st"],
        ["pipeline"],
        ["report"],
    ], ids=["extract", "pipeline", "report"])
    def test_single_trace_commands_reject_workers(self, trace_file, capsys,
                                                  argv):
        command, *rest = argv
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--dataset", "SYN", "--trace", str(trace_file),
                    *rest, "--workers", "2")
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_fleet_commands_keep_workers(self, command):
        args = build_parser().parse_args(
            ["fleet", command, "--run-dir", "sweep", "--workers", "2"])
        assert args.workers == 2


class TestProfile:
    def test_profiles_all_signals(self, trace_file):
        code, out = run_cli(
            "profile", "--dataset", "SYN", "--trace", str(trace_file)
        )
        assert code == 0
        assert "rate/s" in out
        assert "syn_num_000" in out
        assert "alpha" in out

    def test_sort_by_signal(self, trace_file):
        code, out = run_cli(
            "profile", "--dataset", "SYN", "--trace", str(trace_file),
            "--sort", "signal",
        )
        assert code == 0
        lines = [l for l in out.splitlines()[2:] if l.strip()]
        names = [l.split()[0] for l in lines]
        assert names == sorted(names)


class TestReport:
    def test_report_to_stdout(self, trace_file):
        code, out = run_cli(
            "report", "--dataset", "SYN", "--trace", str(trace_file)
        )
        assert code == 0
        assert "# Verification report" in out
        assert "## Signals" in out

    def test_report_to_file(self, trace_file, tmp_path):
        path = tmp_path / "report.md"
        code, out = run_cli(
            "report", "--dataset", "SYN", "--trace", str(trace_file),
            "--out", str(path), "--state-rows", "3",
        )
        assert code == 0
        text = path.read_text()
        assert "## State representation (first 3 rows)" in text


class TestShowParams:
    def test_prints_valid_starter_document(self):
        code, out = run_cli("show-params", "--dataset", "SYN")
        assert code == 0
        document = json.loads(out)
        assert len(document["signals"]) == 13
        assert all(
            c["type"] == "unchanged_within_cycle"
            for c in document["constraints"]
        )


class TestDiscover:
    def test_happy_path_writes_loadable_dbc_and_valid_report(
        self, trace_file, tmp_path
    ):
        out_dir = tmp_path / "recovered"
        report_path = tmp_path / "report.json"
        code, out = run_cli(
            "discover", "--trace", str(trace_file),
            "--out-dir", str(out_dir),
            "--dataset", "SYN", "--report", str(report_path),
        )
        assert code == 0
        assert "discovered" in out
        assert "translation tuples" in out
        assert "vs SYN ground truth" in out
        from repro.network.dbcio import load_database

        dbc_files = sorted(out_dir.glob("recovered_*.dbc"))
        assert dbc_files
        db = load_database(dbc_files[0])
        assert len(db) > 0
        from repro.obs import validate_report

        payload = validate_report(report_path.read_text())
        assert payload["meta"]["trace"] == str(trace_file)
        assert payload["counters"]["discovery.messages"] > 0

    def test_coverage_flag_runs_the_pipeline(self, trace_file, tmp_path):
        code, out = run_cli(
            "discover", "--trace", str(trace_file),
            "--out-dir", str(tmp_path / "d"),
            "--dataset", "SYN", "--coverage",
        )
        assert code == 0
        assert "pipeline coverage:" in out

    def test_report_without_dataset_is_unscored(
        self, trace_file, tmp_path
    ):
        report_path = tmp_path / "report.json"
        code, out = run_cli(
            "discover", "--trace", str(trace_file),
            "--out-dir", str(tmp_path / "d"),
            "--report", str(report_path),
        )
        assert code == 0
        from repro.obs import validate_report

        payload = validate_report(report_path.read_text())
        assert payload["messages"] == []
        assert payload["totals"]["f1"] == 0.0

    def test_partial_database_merges(self, trace_file, tmp_path):
        truth_dir = tmp_path / "truth"
        run_cli("export-dbc", "--dataset", "SYN",
                "--out-dir", str(truth_dir))
        code, out = run_cli(
            "discover", "--trace", str(trace_file),
            "--out-dir", str(tmp_path / "d"),
            "--partial-dbc", str(truth_dir / "syn_FC.dbc"),
        )
        assert code == 0
        assert "merged partial database" in out

    def test_missing_trace_errors(self, tmp_path, capsys):
        code, _out = run_cli(
            "discover", "--trace", str(tmp_path / "ghost.trc"),
            "--out-dir", str(tmp_path / "d"),
        )
        assert code == 2
        assert "error: trace:" in capsys.readouterr().err

    def test_corrupt_trace_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_text("this is not a trace\n")
        code, _out = run_cli(
            "discover", "--trace", str(bad),
            "--out-dir", str(tmp_path / "d"),
        )
        assert code == 2
        assert "error: trace:" in capsys.readouterr().err

    def test_conflicting_partial_databases_error(
        self, trace_file, tmp_path, capsys
    ):
        truth_dir = tmp_path / "truth"
        run_cli("export-dbc", "--dataset", "SYN",
                "--out-dir", str(truth_dir))
        fc = str(truth_dir / "syn_FC.dbc")
        code, _out = run_cli(
            "discover", "--trace", str(trace_file),
            "--out-dir", str(tmp_path / "d"),
            "--partial-dbc", fc, "--partial-dbc", fc,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: dbc: conflicting partial databases" in err

    def test_bad_min_frames_errors(self, trace_file, tmp_path, capsys):
        code, _out = run_cli(
            "discover", "--trace", str(trace_file),
            "--out-dir", str(tmp_path / "d"), "--min-frames", "1",
        )
        assert code == 2
        assert "error: params:" in capsys.readouterr().err


class TestDbcDiff:
    @pytest.fixture(scope="class")
    def truth_dir(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("dbc")
        code, _out = run_cli(
            "export-dbc", "--dataset", "SYN", "--out-dir", str(out_dir)
        )
        assert code == 0
        return out_dir

    def test_identical_databases_exit_zero(self, truth_dir):
        fc = str(truth_dir / "syn_FC.dbc")
        code, out = run_cli("dbc", "diff", "--actual", fc,
                            "--recovered", fc)
        assert code == 0
        assert "databases are structurally identical" in out

    def test_differing_databases_exit_one(self, truth_dir):
        code, out = run_cli(
            "dbc", "diff",
            "--actual", str(truth_dir / "syn_FC.dbc"),
            "--recovered", str(truth_dir / "syn_BC.dbc"),
        )
        assert code == 1
        assert "diff:" in out

    def test_missing_file_errors(self, truth_dir, tmp_path, capsys):
        code, _out = run_cli(
            "dbc", "diff",
            "--actual", str(truth_dir / "syn_FC.dbc"),
            "--recovered", str(tmp_path / "ghost.dbc"),
        )
        assert code == 2
        assert "error: dbc:" in capsys.readouterr().err


    def test_non_finite_scaling_is_one_dbc_error_line(
        self, truth_dir, tmp_path, capsys
    ):
        bad = tmp_path / "nan.dbc"
        bad.write_text(
            'BO_ 5 SPEED: 2 ECU\n'
            ' SG_ s : 0|8@1+ (nan,0) [0|255] "" Vector__XXX\n'
        )
        code, out = run_cli(
            "dbc", "diff",
            "--actual", str(truth_dir / "syn_FC.dbc"),
            "--recovered", str(bad),
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: dbc: database file {!r} is invalid: SG_ scale 'nan' on "
            "line 2 is not a finite number\n".format(str(bad))
        )

    def test_repeated_message_id_is_one_dbc_error_line(
        self, truth_dir, tmp_path, capsys
    ):
        bad = tmp_path / "twice.dbc"
        bad.write_text(
            'BO_ 5 SPEED: 2 ECU\n'
            ' SG_ s : 0|8@1+ (1,0) [0|255] "" Vector__XXX\n'
            'BO_ 5 SPEED_COPY: 1 ECU\n'
        )
        code, out = run_cli(
            "dbc", "diff",
            "--actual", str(truth_dir / "syn_FC.dbc"),
            "--recovered", str(bad),
        )
        assert (code, out) == (2, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: dbc: database file") and \
            "BO_ 5 on line 3 repeats the message id of line 1" in err


@pytest.mark.parametrize("suffix", [".trc", ".btrc", ".ctrc"])
@pytest.mark.parametrize("command", ["pipeline", "stats"])
def test_missing_trace_is_reported_as_missing_by_every_codec(
    command, suffix, tmp_path, capsys
):
    path = tmp_path / ("nope" + suffix)
    code, out = run_cli(command, "--dataset", "SYN", "--trace", str(path)) \
        if command == "pipeline" else run_cli(command, "--trace", str(path))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: trace: trace file {!r} does not exist\n".format(str(path))
    )


@pytest.mark.parametrize("suffix", [".btrc", ".ctrc"])
def test_non_utf8_m_info_key_is_one_trace_error_line(
    suffix, tmp_path, capsys
):
    """``stats`` reads every cell; ``stream serve`` moves the cell packed
    and never reads it, as a pipeline run without ``required_info``."""
    from repro.tracefile import codec_for

    path = tmp_path / ("bad" + suffix)
    codec_for(path).dump_records(
        [(0.0, b"\x00", "FC", 1, (("protocol", "CAN"),))], path
    )
    path.write_bytes(path.read_bytes().replace(b"protocol", b"\xffrotocol"))
    code, _out = run_cli(
        "stream", "serve", "--dataset", "SYN",
        "--run-dir", str(tmp_path / "run"), "--traces", str(path),
    )
    assert code == 0
    code, out = run_cli("stats", "--trace", str(path))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: trace: trace file {!r} is corrupt: text field is not UTF-8 "
        "(invalid start byte)\n".format(str(path))
    )


@pytest.fixture(scope="module")
def short_payload_trace(tmp_path_factory):
    """4 s of SYN as ``T.btrc``, record 386's payload cut to 0 bytes."""
    from repro.tracefile import binlog

    path = tmp_path_factory.mktemp("short") / "T.btrc"
    code, _out = run_cli("simulate", "--dataset", "SYN", "--duration", "4",
                         "--out", str(path))
    assert code == 0
    records = list(binlog.load_records(path))
    records[386] = (records[386][0], b"") + tuple(records[386][2:])
    binlog.dump_records(records, path)
    return path


SHORT = ("frame t=2.001775 b_id 'BC' m_id 1792: payload of 0 bytes too "
         "short for relevant bytes 0..1")


def test_short_payload_is_one_trace_error_line(short_payload_trace, capsys):
    code, out = run_cli("pipeline", "--dataset", "SYN",
                        "--trace", str(short_payload_trace))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: trace: {}\n".format(SHORT)


def test_short_payload_error_names_the_truncated_record(
    short_payload_trace, capsys
):
    """The line says where in the trace the fault is: the truncated
    record's timestamp, channel and message id."""
    from repro.tracefile import binlog

    records = binlog.load_records(short_payload_trace)
    assert len(records) == 771
    t, payload, b_id, m_id, _info = records[386]
    assert payload == b""
    code, _out = run_cli("pipeline", "--dataset", "SYN",
                         "--trace", str(short_payload_trace))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trace: frame t={!r} b_id {!r} m_id {}: "
                          "payload of 0 bytes".format(t, b_id, m_id))
    # No other record of the trace has that timestamp.
    assert [r[0] for r in records].count(t) == 1


def test_short_payload_stops_stream_serve_naming_the_vehicle(
    short_payload_trace, tmp_path, capsys
):
    """The commits before the failing window stay whole records: the run
    directory still reads, and a resume fails the same way without
    touching the log."""
    from tests.stream.logs import record_spans

    serve = ("stream", "serve", "--dataset", "SYN", "--run-dir",
             str(tmp_path), "--traces", str(short_payload_trace),
             "--checkpoint-every", "100")
    log = tmp_path / "checkpoints" / "stream-session-T.log"
    datas = []
    for _run in range(2):
        code, out = run_cli(*serve)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == \
            "error: trace: vehicle 'T': {}\n".format(SHORT)
        datas.append(log.read_bytes())
    spans = record_spans(datas[0])
    assert spans and spans[-1][1] == len(datas[0]) and datas[1] == datas[0]
    code, out = run_cli("stream", "status", "--run-dir", str(tmp_path))
    assert code == 0
    assert "session T: {} frames".format(100 * len(spans)) in out


class TestStream:
    @pytest.fixture(scope="class")
    def short_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "v0.trc"
        code, _out = run_cli(
            "simulate", "--dataset", "SYN", "--duration", "3",
            "--out", str(path),
        )
        assert code == 0
        return path

    def test_serve_drains_and_finalizes(self, short_trace, tmp_path):
        code, out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(tmp_path / "run"),
            "--traces", str(short_trace), "--finalize",
        )
        assert code == 0
        assert "session v0:" in out
        assert "drained=yes" in out
        assert "final  : v0 ->" in out

    def test_kill_and_resume_roundtrip(self, short_trace, tmp_path):
        run_dir = tmp_path / "run"
        code, out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(run_dir), "--traces", str(short_trace),
            "--max-frames", "200", "--checkpoint-every", "50",
        )
        assert code == 1
        assert "killed" in out
        assert "drained=no" in out

        code, out = run_cli("stream", "status", "--run-dir", str(run_dir))
        assert code == 0
        assert "session v0:" in out
        assert "drained=no" in out

        code, out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(run_dir), "--traces", str(short_trace),
            "--checkpoint-every", "50", "--finalize",
        )
        assert code == 0
        assert "resumed: 1 sessions from checkpoints" in out
        assert "drained=yes" in out

        code, out = run_cli("stream", "status", "--run-dir", str(run_dir))
        assert code == 0
        assert "drained=yes" in out

    def test_status_lists_a_vehicle_that_has_not_committed(self, tmp_path):
        """The budget is spent on v0 before v1 gets a frame: v1 has no
        log, and status names it all the same."""
        traces = []
        for journey in (0, 1):
            traces.append(str(tmp_path / "v{}.btrc".format(journey)))
            assert run_cli(
                "simulate", "--dataset", "SYN", "--duration", "6",
                "--journey", str(journey), "--out", traces[-1],
            )[0] == 0
        run_dir = str(tmp_path / "run")
        code, _out = run_cli(
            "stream", "serve", "--dataset", "SYN", "--run-dir", run_dir,
            "--traces", *traces, "--max-frames", "900",
            "--checkpoint-every", "100",
        )
        assert code == 1
        code, out = run_cli("stream", "status", "--run-dir", run_dir)
        assert code == 0
        lines = out.splitlines()[1:]
        assert lines[0].startswith("session v0: 900 frames,")
        assert lines[1:] == ["session v1: no record committed"]

    def test_resume_under_another_window_is_one_error_line(
        self, killed_run, short_trace, capsys
    ):
        """The log was made at the default 1.0 s window and 0.5 s grace:
        a resume at 2.0 s / 0.0 s is refused before ``stream.json`` is
        rewritten."""
        from repro.stream import STREAM_MANIFEST_FILE

        run_dir, _checkpoint = killed_run
        manifest = (run_dir / STREAM_MANIFEST_FILE).read_bytes()
        code, out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(run_dir), "--traces", str(short_trace),
            "--window", "2.0", "--grace", "0.0",
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: stream: vehicle 'v0': its log was made with "
            "window_seconds=1.0, grace_seconds=0.5, not the "
            "window_seconds=2.0, grace_seconds=0.0 of this service\n"
        )
        assert (run_dir / STREAM_MANIFEST_FILE).read_bytes() == manifest

    def test_status_on_non_stream_directory_errors(self, tmp_path, capsys):
        code, _out = run_cli("stream", "status", "--run-dir", str(tmp_path))
        assert code == 2
        assert "error: stream:" in capsys.readouterr().err

    def test_serve_missing_trace_errors(self, tmp_path, capsys):
        code, _out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(tmp_path / "run"),
            "--traces", str(tmp_path / "ghost.trc"),
        )
        assert code == 2
        assert "error: trace:" in capsys.readouterr().err

    def test_serve_rejects_bad_window(self, short_trace, tmp_path, capsys):
        code, _out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(tmp_path / "run"),
            "--traces", str(short_trace), "--window", "0",
        )
        assert code == 2
        assert "error: stream:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--window", "window_seconds must be positive"),
        ("--grace", "grace_seconds must not be negative"),
    ])
    def test_serve_rejects_a_nan_window_or_grace(
        self, short_trace, tmp_path, capsys, flag, message
    ):
        code, out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(tmp_path / "run"),
            "--traces", str(short_trace), flag, "nan",
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: stream: {}\n".format(
            message
        )

    @pytest.fixture
    def killed_run(self, short_trace, tmp_path):
        """A run directory holding one committed session checkpoint."""
        run_dir = tmp_path / "run"
        code, _out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(run_dir), "--traces", str(short_trace),
            "--max-frames", "120", "--checkpoint-every", "50",
        )
        assert code == 1
        [checkpoint] = (run_dir / "checkpoints").glob("*.log")
        return run_dir, checkpoint

    def _rewrite(self, checkpoint, edit):
        from tests.stream.logs import rewrite_heads

        rewrite_heads(checkpoint, edit)

    def _serve_error(self, run_dir, short_trace, capsys):
        code, out = run_cli(
            "stream", "serve", "--dataset", "SYN",
            "--run-dir", str(run_dir), "--traces", str(short_trace),
        )
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: stream: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("field", [
        "vehicle_id", "cursors", "drained", "origin", "keys",
        "last_window_end",
    ])
    def test_serve_on_checkpoint_lacking_a_field_is_one_error_line(
        self, killed_run, short_trace, capsys, field
    ):
        run_dir, checkpoint = killed_run
        self._rewrite(checkpoint, lambda head: head.pop(field))
        err = self._serve_error(run_dir, short_trace, capsys)
        assert "'stream-session-v0'" in err and repr(field) in err

    def test_serve_on_checkpoint_with_negative_cursor_is_one_error_line(
        self, killed_run, short_trace, capsys
    ):
        run_dir, checkpoint = killed_run

        def rewind(head):
            for pair in head["cursors"]:
                pair[1] = -1

        self._rewrite(checkpoint, rewind)
        err = self._serve_error(run_dir, short_trace, capsys)
        assert "'stream-session-v0'" in err and "negative" in err

    @pytest.mark.parametrize("field, value, complaint", [
        ("cursors", [["FC"]], "record 0 is malformed: ValueError"),
        ("keys", [["s", "FC", "1", 0]], "record 0 is malformed"),
        ("keys", [["s", "FC", 9, 0]], "record 0 is malformed"),
        ("origin", "0.5", "field 'origin' has type str"),
    ])
    def test_serve_on_checkpoint_with_misshapen_head_is_one_error_line(
        self, killed_run, short_trace, capsys, field, value, complaint
    ):
        run_dir, checkpoint = killed_run
        self._rewrite(checkpoint, lambda head: head.update({field: value}))
        err = self._serve_error(run_dir, short_trace, capsys)
        assert "checkpoint 'stream-session-v0' is not a usable session " \
            "snapshot: " in err and complaint in err

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_timestamp_is_one_stream_error_line(
        self, tmp_path, capsys, t
    ):
        from repro.tracefile import binlog

        path = tmp_path / "v0.btrc"
        binlog.dump_records(
            [(0.0, b"\x00", "FC", 1, ()), (t, b"\x00", "FC", 1, ()),
             (0.5, b"\x00", "FC", 1, ())], path
        )
        err = self._serve_error(tmp_path / "run", path, capsys)
        assert "vehicle 'v0', channel 'FC', frame " in err
        assert "timestamp {!r}".format(t) in err

    def test_a_half_written_last_record_is_a_torn_tail(
        self, killed_run, short_trace
    ):
        """The kill cut the last commit short: it is dropped, the run
        resumes from the record before it and drains."""
        from tests.stream.logs import record_spans

        run_dir, checkpoint = killed_run
        data = checkpoint.read_bytes()
        (_first, first_end), (start, end) = record_spans(data)
        checkpoint.write_bytes(data[: (start + end) // 2])
        code, out = run_cli("stream", "status", "--run-dir", str(run_dir))
        assert code == 0 and "session v0: 50 frames" in out
        code, out = run_cli(
            "stream", "serve", "--dataset", "SYN", "--run-dir",
            str(run_dir), "--traces", str(short_trace),
            "--checkpoint-every", "50", "--finalize",
        )
        assert code == 0
        assert "resumed: 1 sessions from checkpoints, 50 frames" in out
        assert checkpoint.read_bytes()[:start] == data[:start]

    def test_a_corrupt_earlier_record_is_one_error_line(
        self, killed_run, short_trace, capsys
    ):
        run_dir, checkpoint = killed_run
        data = bytearray(checkpoint.read_bytes())
        data[40] ^= 0xFF  # inside the first of two records
        checkpoint.write_bytes(bytes(data))
        err = self._serve_error(run_dir, short_trace, capsys)
        assert "'stream-session-v0' cannot be read: record 0 at byte 0 " \
            "fails its checksum" in err
        code, _out = run_cli("stream", "status", "--run-dir", str(run_dir))
        assert code == 2
        assert "cannot be read" in capsys.readouterr().err

    @pytest.mark.parametrize("document", ["[1, 2]", '"x"', "5", "null", "true"])
    def test_status_on_non_object_manifest_is_one_error_line(
        self, tmp_path, capsys, document
    ):
        from repro.stream import STREAM_MANIFEST_FILE

        (tmp_path / STREAM_MANIFEST_FILE).write_text(document)
        code, out = run_cli("stream", "status", "--run-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: stream: ") and err.count("\n") == 1
        assert "not a JSON object" in err

    def test_every_truncation_of_the_manifest_is_one_error_line(
        self, killed_run, capsys
    ):
        from repro.stream import STREAM_MANIFEST_FILE

        run_dir, _checkpoint = killed_run
        path = run_dir / STREAM_MANIFEST_FILE
        data = path.read_bytes()
        for size in range(len(data.rstrip())):
            path.write_bytes(data[:size])
            code, out = run_cli("stream", "status", "--run-dir", str(run_dir))
            err = capsys.readouterr().err
            assert (code, out) == (2, ""), size
            assert err.startswith("error: stream: "), size
            assert err.count("\n") == 1, size
