"""CLI smoke tests: repro fleet run / resume / status + structured errors."""

from __future__ import annotations

import io
import json
import shutil

import pytest

from repro import cli, fleet


def _run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


class TestFleetCommands:
    def test_run_then_status(self, run_dir):
        code, text = _run(["fleet", "run", "--run-dir", str(run_dir)])
        assert code == 0
        assert "4 total, 4 executed" in text
        code, text = _run(["fleet", "status", "--run-dir", str(run_dir)])
        assert code == 0
        assert "4 jobs, 4 completed, 0 failed, 0 pending" in text
        assert "aggregated=yes" in text

    def test_resume_reports_reuse(self, run_dir):
        _run(["fleet", "run", "--run-dir", str(run_dir)])
        code, text = _run(["fleet", "resume", "--run-dir", str(run_dir)])
        assert code == 0
        assert "0 re-executed, 4 reused from checkpoints" in text

    def test_prepare_writes_catalog(self, tmp_path):
        target = tmp_path / "sweep"
        code, text = _run([
            "fleet", "prepare", "--run-dir", str(target),
            "--dataset", "SYN", "--traces", "2", "--duration", "2",
        ])
        assert code == 0
        assert "catalogued 2 jobs" in text
        assert fleet.JobCatalog.load(target).dataset == "SYN"

    def test_failed_job_sets_exit_code(self, run_dir):
        victim = fleet.JobCatalog.load(run_dir).jobs[0]
        (run_dir / victim.trace).write_text("garbage\n")
        code, text = _run(["fleet", "run", "--run-dir", str(run_dir)])
        assert code == 1
        assert "1 failed" in text
        [line] = [x for x in text.splitlines() if x.startswith("failed :")]
        assert line.startswith("failed : {} trace={} stage=fleet.job: "
                               "job ".format(victim.job_id, victim.trace))
        assert "attempts" not in line


class TestStructuredErrors:
    """Operational errors are one ``error: <kind>: ...`` line, exit 2."""

    def test_status_on_missing_catalog(self, tmp_path, capsys):
        code, _ = _run(["fleet", "status", "--run-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: catalog: no catalog")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_prepare_with_bad_params_writes_no_catalog(self, tmp_path,
                                                       capsys):
        params = tmp_path / "params.json"
        params.write_text('{"signals": "not-a-list"}')
        target = tmp_path / "sweep"
        code, _ = _run([
            "fleet", "prepare", "--run-dir", str(target), "--dataset", "SYN",
            "--traces", "2", "--duration", "2", "--params", str(params),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: params: ")
        assert err.count("\n") == 1
        assert not (target / fleet.CATALOG_FILE).exists()

    @pytest.mark.parametrize("document", [
        '{"signals": []}',
        '{"signals": ["NoSuchSignal"]}',
        '{"signals": ["syn_num_000"], "constraints": [{"signal": '
        '"syn_num_000", "type": "bogus"}]}',
    ])
    def test_prepare_rejects_each_bad_document(self, tmp_path, capsys,
                                               document):
        params = tmp_path / "params.json"
        params.write_text(document)
        target = tmp_path / "sweep"
        code, _ = _run([
            "fleet", "prepare", "--run-dir", str(target), "--dataset", "SYN",
            "--traces", "1", "--duration", "1", "--params", str(params),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: params: ")
        assert not target.exists()

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_max_inflight_flag_is_gone(self, run_dir, capsys, command):
        # The in-flight bound is --workers; the old flag is a usage error.
        with pytest.raises(SystemExit) as excinfo:
            _run(["fleet", command, "--run-dir", str(run_dir),
                  "--max-inflight", "2"])
        assert excinfo.value.code == 2
        assert "--max-inflight" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_retries_flag_is_gone(self, run_dir, capsys, command):
        # Every job runs once; there is no retry budget to set.
        with pytest.raises(SystemExit) as excinfo:
            _run(["fleet", command, "--run-dir", str(run_dir),
                  "--retries", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --retries 2" in \
            capsys.readouterr().err

    def test_run_on_corrupt_catalog(self, tmp_path, capsys):
        (tmp_path / fleet.CATALOG_FILE).write_text("{broken")
        code, _ = _run(["fleet", "run", "--run-dir", str(tmp_path)])
        assert code == 2
        assert "error: catalog:" in capsys.readouterr().err

    def test_pipeline_on_missing_trace(self, capsys):
        code, _ = _run([
            "pipeline", "--dataset", "SYN", "--trace", "no-such.trc",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: trace: trace file 'no-such.trc' does not " \
            "exist\n"

    def test_pipeline_on_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_text("not a trace line\n")
        code, _ = _run([
            "pipeline", "--dataset", "SYN", "--trace", str(bad),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace:")
        assert "corrupt" in err

    def test_pipeline_on_missing_params_file(self, fleet_template, tmp_path,
                                             capsys):
        trace = sorted((fleet_template / "traces").iterdir())[0]
        local = tmp_path / trace.name
        shutil.copyfile(trace, local)
        code, _ = _run([
            "pipeline", "--dataset", "SYN", "--trace", str(local),
            "--params", str(tmp_path / "none.json"),
        ])
        assert code == 2
        assert "error: params:" in capsys.readouterr().err


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


class TestTamperedCatalog:
    """A catalog field edited by hand is one ``error: catalog:`` line
    and exit 2: nothing runs, nothing is written."""

    @pytest.mark.parametrize("command", ["status", "run"])
    @pytest.mark.parametrize("where, field, value", [
        ("job", "trace", 5),
        ("job", "trace", "../../../etc/hostname"),
        ("job", "trace", "/etc/hostname"),
        ("job", "index", "x"),
        ("job", "index", 1),
        ("job", "index", False),
        ("job", "job_id", 5),
        ("job", "trace_sha256", None),
        ("job", "trace_bytes", -1),
        ("job", "trace_bytes", "4"),
        ("catalog", "dataset", 5),
        ("catalog", "dataset", "NOPE"),
        ("catalog", "params", [1]),
        ("catalog", "params", "x"),
    ])
    def test_is_one_error_line_and_runs_nothing(
        self, run_dir, capsys, command, where, field, value
    ):
        path = run_dir / fleet.CATALOG_FILE
        catalog = json.loads(path.read_text())
        (catalog["jobs"][0] if where == "job" else catalog)[field] = value
        path.write_text(json.dumps(catalog))
        before = _tree(run_dir)
        code, out = _run(["fleet", command, "--run-dir", str(run_dir)])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: catalog: ") and err.count("\n") == 1
        assert _tree(run_dir) == before

    def test_every_truncation_of_a_catalog_is_one_error_line(
        self, fleet_template, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        trace = run_dir / "traces" / "j0.trc"
        trace.parent.mkdir(parents=True)
        shutil.copyfile(
            sorted((fleet_template / "traces").iterdir())[0], trace
        )
        fleet.make_catalog(
            run_dir, [trace], "SYN", params={"signals": ["syn_num_000"]}
        )
        path = run_dir / fleet.CATALOG_FILE
        data = path.read_bytes()
        for size in range(len(data.rstrip())):
            path.write_bytes(data[:size])
            code, out = _run(["fleet", "status", "--run-dir", str(run_dir)])
            err = capsys.readouterr().err
            assert (code, out) == (2, ""), size
            assert err.startswith("error: catalog: "), size
            assert err.count("\n") == 1, size
