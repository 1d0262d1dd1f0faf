"""Outside bytes through the CLI: damaged parameter JSON and DBC files.

Every truncation offset and one single-bit flip per byte (bit ``i % 8``
of byte ``i``) of a parameter document goes through ``repro pipeline
--params``, and of a DBC file through the commands that load one with
``_load_dbc``: ``dbc diff`` and ``discover --partial-dbc``. All in
process, through :func:`repro.cli.main`. A damaged file either still
loads -- a flipped digit can leave a valid document -- or is one
``error: params:`` / ``error: dbc:`` line with exit status 2 and no
output file; never a traceback. Three hand-written geometry flaws (a
signal wider than its message, overlapping bits, two messages of one
id) are always that line.
"""

import contextlib
import functools
import io
import json

import pytest

from repro import cli

#: Three SYN signals under every constraint and extension kind the
#: schema names, and a branch section.
PARAMS = {
    "signals": ["syn_num_000", "syn_ord_000", "syn_cat_000"],
    "constraints": [
        {"signal": "syn_num_000", "type": "unchanged_within_cycle",
         "cycle_time": 0.02, "tolerance": 1.5},
        {"signal": "syn_num_000", "type": "unchanged"},
        {"signal": "syn_ord_000", "type": "minimum_gap", "min_gap": 0.1},
        {"signal": "syn_cat_000", "type": "value_in_set", "values": ["a"]},
    ],
    "extensions": [
        {"signal": "syn_num_000", "type": "gap"},
        {"signal": "syn_ord_000", "type": "cycle_violation",
         "expected_cycle": 0.1, "tolerance": 1.8},
        {"signal": "syn_num_000", "type": "rolling", "window": 1.0,
         "statistic": "mean"},
    ],
    "branch": {"sax_alphabet": 4},
}


def damaged(data):
    """``(name, bytes)`` of every truncation of *data*, then of one bit
    flip per byte."""
    for cut in range(len(data)):
        yield "cut {}".format(cut), data[:cut]
    for i in range(len(data)):
        flipped = bytes([data[i] ^ (1 << i % 8)])
        yield "flip {}".format(i), data[:i] + flipped + data[i + 1:]


@pytest.fixture(autouse=True)
def one_parser(monkeypatch):
    # Building the argparse tree is most of an in-process call; parsing
    # leaves the parser as it was, so one serves every case.
    monkeypatch.setattr(
        cli, "build_parser", functools.lru_cache(None)(cli.build_parser)
    )


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def syn_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("outside")
    trace = root / "syn.btrc"
    for argv in (
        ("simulate", "--dataset", "SYN", "--duration", "0.5",
         "--out", str(trace)),
        ("export-dbc", "--dataset", "SYN", "--out-dir", str(root / "dbc")),
    ):
        assert cli.main(list(argv), out=io.StringIO()) == 0
    return trace, root / "dbc" / "syn_FC.dbc"


def test_every_damaged_parameter_file_is_one_params_line_or_loads(
    syn_files, tmp_path
):
    trace, _dbc = syn_files
    params, output, report = (tmp_path / name for name in (
        "params.json", "state.csv", "report.json"))
    data = json.dumps(PARAMS, separators=(",", ":")).encode("utf-8")
    params.write_bytes(data)
    argv = ("pipeline", "--dataset", "SYN", "--trace", str(trace),
            "--params", str(params), "--output", str(output),
            "--report", str(report))
    assert run(*argv)[0] == 0
    failed = 0
    for name, damage in damaged(data):
        output.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        params.write_bytes(damage)
        code, out, err = run(*argv)
        if code == 0:
            continue
        failed += 1
        assert (code, out) == (2, ""), name
        assert err.startswith("error: params: "), name
        assert err.count("\n") == 1, name
        assert not output.exists() and not report.exists(), name
    assert failed >= len(data)  # every truncation, and flips besides


def test_every_damaged_dbc_is_one_dbc_line_or_loads(syn_files, tmp_path):
    trace, dbc = syn_files
    data = dbc.read_bytes()
    damaged_dbc, out_dir, report = (tmp_path / name for name in (
        "damaged.dbc", "recovered", "disc.json"))
    failed = 0
    for name, damage in damaged(data):
        damaged_dbc.write_bytes(damage)
        code, out, err = run("dbc", "diff", "--actual", str(damaged_dbc),
                             "--recovered", str(dbc))
        if code in (0, 1):  # loaded: identical, or a structural delta
            continue
        failed += 1
        for code, out, err in [(code, out, err), run(
            "discover", "--trace", str(trace), "--out-dir", str(out_dir),
            "--partial-dbc", str(damaged_dbc), "--report", str(report),
        )]:
            assert (code, out) == (2, ""), name
            assert err.startswith("error: dbc: "), name
            assert err.count("\n") == 1, name
        assert not out_dir.exists() and not report.exists(), name
    assert failed > 0


def _dbc(*messages):
    """A DBC file of *messages*, each ``(BO_ line, SG_ lines)``."""
    lines = ['VERSION ""', "", "BU_: ECU", ""]
    for head, *signals in messages:
        lines += [head] + [" " + signal for signal in signals] + [""]
    return "\n".join(lines).encode("utf-8")


def _sg(name, start, length):
    return 'SG_ {} : {}|{}@1+ (1,0) [0|255] "" Vector__XXX'.format(
        name, start, length)


#: The geometry flaws of a DBC parser that trusts its input: each names
#: what is wrong on its one error line.
FLAWED_DBCS = {
    "wider-than-dlc": (
        _dbc(("BO_ 100 Msg: 1 ECU", _sg("C", 0, 16))),
        "signal 'C' does not fit in 1-byte payload",
    ),
    "overlapping-bits": (
        _dbc(("BO_ 100 Msg: 2 ECU", _sg("A", 0, 8), _sg("B", 4, 8))),
        "signals 'A' and 'B' overlap in message 'Msg'",
    ),
    # One id is one message, so two BO_ blocks of one id would fill one
    # signal container.
    "shared-signal-container": (
        _dbc(("BO_ 100 Msg: 1 ECU", _sg("A", 0, 8)),
             ("BO_ 100 Other: 1 ECU", _sg("B", 0, 8))),
        "BO_ 100 on line 8 repeats the message id of line 5",
    ),
}


@pytest.mark.parametrize("flaw", sorted(FLAWED_DBCS))
def test_a_flawed_dbc_is_one_dbc_line(syn_files, tmp_path, flaw):
    trace, dbc = syn_files
    data, reason = FLAWED_DBCS[flaw]
    flawed, out_dir, report = (tmp_path / name for name in (
        "flawed.dbc", "recovered", "disc.json"))
    flawed.write_bytes(data)
    for code, out, err in [
        run("dbc", "diff", "--actual", str(flawed), "--recovered", str(dbc)),
        run("discover", "--trace", str(trace), "--out-dir", str(out_dir),
            "--partial-dbc", str(flawed), "--report", str(report)),
    ]:
        assert (code, out) == (2, "")
        assert err.startswith("error: dbc: ") and reason in err
        assert err.count("\n") == 1
    assert not out_dir.exists() and not report.exists()

