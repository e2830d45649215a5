import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

import dpinv
from dpinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tau_command(capsys):
    code, out, _ = run(capsys, "tau", "[x^(1)|lim]", "[x^(1)|lim]")
    assert code == 0
    assert out.strip() == "2*[x^(2)|lim] + [xx^(1)|lim]"


def test_tau_identity(capsys):
    code, out, _ = run(capsys, "tau", "[|n=2]", "[x^(1)|n=2]")
    assert code == 0
    assert out.strip() == "[x^(1)|n=2]"


def test_tau_malformed_bracket_reports_caret(capsys):
    code, _, err = run(capsys, "tau", "[x^(2 |n=2]", "[x^(1)|n=2]")
    assert code == 2
    lines = err.splitlines()
    assert lines[0].startswith("error:")
    assert "^" in lines[-1]
    # caret under the offending character
    assert lines[-1].index("^") == lines[1].index("[") + 6


def test_tau_context_mismatch(capsys):
    code, _, err = run(capsys, "tau", "[x^(1)|n=1]", "[x^(1)|n=2]")
    assert code == 2
    assert "context" in err


def test_pi_command(capsys):
    code, out, _ = run(capsys, "pi", "[x^(1)|n=2]")
    assert code == 0
    assert out.strip() == "x[x][1][1] + x[x][2][2]"
    code, out, _ = run(capsys, "pi", "[x^(2)|n=2]")
    assert code == 0
    assert out.strip() == "-x[x][1][2]*x[x][2][1] + x[x][1][1]*x[x][2][2]"


def test_pi_command_two_factors(capsys):
    # the coefficient of t1 t2 in det(t0 I + t1 X + t2 Y): tr X tr Y - tr XY
    code, out, _ = run(capsys, "pi", "[x^(1) y^(1)|n=2]")
    assert code == 0
    assert out.strip() == (
        "x[x][2][2]*x[y][1][1] - x[x][2][1]*x[y][1][2] "
        "- x[x][1][2]*x[y][2][1] + x[x][1][1]*x[y][2][2]")


def test_pi_requires_level(capsys):
    code, _, err = run(capsys, "pi", "[x^(1)|lim]")
    assert code == 2
    assert "truncated context" in err


def test_sym_command(capsys):
    code, out, _ = run(capsys, "sym", "m[2]")
    assert code == 0
    assert out.strip() == "-2*e[2] + e[1,1]@2"


@pytest.mark.parametrize("argv, message", [
    (("pi", "[|n=0]"), "matrix order must be at least 1"),
    (("sym", "m[1,1,1]@2"), "m_(1, 1, 1) vanishes in 2 variables"),
    (("sym", "e[3]@2"), "e_3 vanishes in 2 variables"),
    (("sym", "m[1,2]"), "partition parts must be weakly decreasing"),
    (("verify", "--n", "1.."), "bad level list '1..'"),
    (("verify", "--n", "a"), "bad level list 'a'"),
    (("verify", "--n", "1,,3"), "bad level list '1,,3'"),
    (("verify", "--n", "0..2"), "bad level list '0..2'"),
    # a parse error prints its text and a caret under the offset
    (("sym", "e[]@-1"), "expected an integer (at position 4)\n"
                        "  e[]@-1\n"
                        "      ^"),
    (("sym", "   e[2,x]"), "expected an integer (at position 7)\n"
                           "     e[2,x]\n"
                           "         ^"),
    (("tau", "2²*[x^(1)|lim]", "[x^(1)|lim]"),
     "expected '*' (at position 1)\n"
     "  2²*[x^(1)|lim]\n"
     "   ^"),
    (("pi", "[x^(1)|n=2] 3"), "unexpected character '3' (at position 12)\n"
                              "  [x^(1)|n=2] 3\n"
                              "              ^"),
    # x[x][1][1]^132 is past the packing bound
    (("pi", f"[{'x' * 132}^(1)|n=1]"),
     "an exponent reached 128, the packing's bound"),
    (("verify", "--maxdeg", "-3"), "--maxdeg must be at least 0, not -3"),
    (("verify", "--workers", "-4"), "--workers must be at least 0, not -4"),
])
def test_out_of_range_input_is_a_clear_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_an_over_long_integer_is_a_clear_error(capsys):
    # int() raised a bare ValueError past its 4300-digit limit
    long = "9" * 5000
    code, out, err = run(capsys, "tau", "[x^(1)|lim]", f"[x^({long})|lim]")
    assert code == 2 and out == ""
    assert err == ("error: integer of 5000 digits is too long (at position 4)"
                   f"\n  [x^({long})|lim]\n      ^\n")
    code, out, err = run(capsys, "verify", "--n", f"1..{long}")
    assert code == 2 and out == ""
    assert err == f"error: bad level list '1..{long}'\n"


def test_negative_letter_count_is_a_clear_error(capsys):
    # it sliced the letter pool from its end and ran over 25 letters
    code, out, err = run(capsys, "tau", "[x^(1)|lim]", "[x^(1)|lim]",
                         "--letters", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: need at least one letter, not -1\n"


def test_verify_all_pass_and_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--thm", "2.2.2", "--n", "2",
                       "--letters", "2", "--maxdeg", "2",
                       "--workers", "1", "--out", str(out_path))
    assert code == 0
    assert "all pass" in out
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    assert all(set(e) == {"theorem", "n", "multidegree", "lhs_rank",
                          "rhs_rank", "kernel_rank", "pass", "millis"}
               for e in report["entries"])


def test_verify_without_out_prints_json(capsys):
    code, out, _ = run(capsys, "verify", "--thm", "zubkov", "--n", "1",
                       "--letters", "1", "--maxdeg", "3", "--workers", "1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert {e["theorem"] for e in report["entries"]} == {"zubkov"}


def test_verify_maxdeg_zero_is_empty(tmp_path, capsys):
    out_path = tmp_path / "empty.json"
    code, _, _ = run(capsys, "verify", "--maxdeg", "0", "--workers", "1",
                     "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["entries"] == []


def test_verify_range_syntax(tmp_path, capsys):
    out_path = tmp_path / "ch.json"
    code, _, _ = run(capsys, "verify", "--thm", "ch", "--n", "1..2",
                     "--maxdeg", "2", "--workers", "1",
                     "--out", str(out_path))
    assert code == 0
    ns = {e["n"] for e in json.loads(out_path.read_text())["entries"]}
    assert ns == {1, 2}


def test_verify_worker_counts_byte_identical(tmp_path, capsys):
    a = tmp_path / "w1.json"
    b = tmp_path / "w2.json"
    base = ["verify", "--thm", "all", "--n", "1..2", "--letters", "2",
            "--maxdeg", "2", "--seed", "11"]
    assert run(capsys, *base, "--workers", "1", "--out", str(a))[0] == 0
    assert run(capsys, *base, "--workers", "2", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_pool_has_no_more_workers_than_cells(monkeypatch, capsys):
    # a stand-in pool that starts no process: it records its size and maps
    # in this process
    import concurrent.futures
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, out, _ = run(capsys, "verify", "--thm", "2.2.2", "--n", "2",
                       "--maxdeg", "1", "--workers", "5000")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 3
    assert sizes == [3]


def test_importing_the_cli_loads_no_process_pool():
    # only a verify run with more than one worker needs multiprocessing
    code = "import sys, dpinv.cli; print('multiprocessing' in sys.modules)"
    src = os.path.dirname(os.path.dirname(dpinv.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "False"


def test_verify_report_bytes_are_pinned(tmp_path, capsys):
    base = ["verify", "--thm", "all", "--n", "1..3", "--maxdeg", "4",
            "--seed", "7"]
    for extra, prefix in (([], "6536b7b582e34640"),
                          (["--strict-z"], "00e75e580104fbb1")):
        for workers in ("1", "2"):
            path = tmp_path / f"report{len(extra)}{workers}.json"
            assert run(capsys, *base, *extra, "--workers", workers,
                       "--out", str(path))[0] == 0
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest.startswith(prefix), (extra, workers)


def test_verify_timing_records_cell_wall_times(capsys, monkeypatch):
    # a clock that advances 0.25 s per reading: the runner reads it before
    # and after each cell, so every cell takes 250 ms on it
    import dpinv.cli as cli
    ticks = itertools.count()
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks) / 4)
    base = ["verify", "--thm", "2.2.2", "--n", "3", "--maxdeg", "4",
            "--workers", "1"]
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert [e["millis"] for e in json.loads(out)["entries"]] == [0] * 15
    code, out, _ = run(capsys, *base, "--timing")
    assert code == 0
    assert [e["millis"] for e in json.loads(out)["entries"]] == [250] * 15


def test_verify_unknown_theorem(capsys):
    code, _, err = run(capsys, "verify", "--thm", "fermat")
    assert code == 2
    assert "unknown theorem" in err


def test_verify_failing_entry_gives_exit_one(tmp_path, capsys, monkeypatch):
    import dpinv.cli as cli
    from dpinv.theorems import VerifyEntry

    def fake_run_job(job):
        return VerifyEntry("ch", 1, (), 0, 0, 0, False)

    monkeypatch.setattr(cli, "_run_job", fake_run_job)
    out_path = tmp_path / "fail.json"
    code, out, _ = run(capsys, "verify", "--thm", "ch", "--n", "1",
                       "--maxdeg", "1", "--workers", "1",
                       "--out", str(out_path))
    assert code == 1
    assert "FAIL" in out
    assert json.loads(out_path.read_text())["pass"] is False


def test_universal_command(tmp_path, capsys):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": ["x"], "relations": ["x^2"]}))
    code, out, _ = run(capsys, "universal", str(pres), "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["ideal_generators"] == ["x[x][1][1]^2"]
    assert data["images"]["x"] == [["x[x][1][1]"]]


def test_universal_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "universal", str(bad), "--n", "1")
    assert code == 2
    assert "cannot read" in err


def test_universal_bad_presentation(tmp_path, capsys):
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps({"generators": ["x"], "relations": ["x*q"]}))
    code, _, err = run(capsys, "universal", str(bad), "--n", "1")
    assert code == 2
    assert "bad presentation" in err


@pytest.mark.parametrize("text, n, message", [
    ("[1, 2]", "1", "bad presentation: presentation must be a JSON object"),
    ('{"generators": ["x"], "relations": ["x^2"]}', "0",
     "matrix order must be at least 1"),
    ('{"generators": ["x"], "relations": [1]}', "1",
     "bad presentation: generators and relations must be lists of strings"),
    ('{"generators": ["x"], "relations": "x"}', "1",
     "bad presentation: generators and relations must be lists of strings"),
    ('{"generators": [1, 2]}', "1",
     "bad presentation: generators and relations must be lists of strings"),
    ('{"generators": ["xy"]}', "1", "bad presentation: letters must be "
     "single alphabetic characters, not 'xy'"),
    ('{"generators": ["x"], "relations": ["x^200"]}', "1",
     "bad presentation: exponent 200 is not below the packing's bound 128 "
     "(at position 2)"),
    ('{"generators": ["x"], "relations": ["x^99999999"]}', "1",
     "bad presentation: exponent 99999999 is not below the packing's bound "
     "128 (at position 2)"),
    ('{"generators": ["x"], "relations": ["x^100*x^100"]}', "2",
     "an exponent reached 128, the packing's bound"),
])
def test_universal_bad_input_is_a_clear_error(tmp_path, capsys, text, n,
                                              message):
    # each ended in a traceback or was misread
    pres = tmp_path / "pres.json"
    pres.write_text(text)
    code, out, err = run(capsys, "universal", str(pres), "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def unwritable(tmp_path, kind):
    return tmp_path / "missing" / "out.json" if kind == "missing" else tmp_path


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_verify_unwritable_out_exits_two_before_any_cell(
        tmp_path, capsys, monkeypatch, kind):
    import dpinv.cli as cli

    def no_run(cfg):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_verify", no_run)
    path = unwritable(tmp_path, kind)
    code, out, err = run(capsys, "verify", "--thm", "zubkov", "--n", "1",
                         "--maxdeg", "2", "--workers", "1",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_universal_unwritable_out_exits_two_before_the_build(
        tmp_path, capsys, monkeypatch, kind):
    import dpinv.cli as cli

    def no_build(pres, n):
        raise AssertionError("the ring was built")

    monkeypatch.setattr(cli, "build_An", no_build)
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": ["x"], "relations": ["x^2"]}))
    path = unwritable(tmp_path, kind)
    code, out, err = run(capsys, "universal", str(pres), "--n", "1",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")


def test_universal_out_file(tmp_path, capsys):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": ["x"], "relations": ["x^2"]}))
    path = tmp_path / "ring.json"
    code, out, _ = run(capsys, "universal", str(pres), "--n", "1",
                       "--out", str(path))
    assert code == 0
    assert out == f"universal ring data -> {path}\n"
    assert json.loads(path.read_text())["ideal_generators"] == \
        ["x[x][1][1]^2"]
