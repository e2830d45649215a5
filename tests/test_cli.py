import hashlib
import json

import pytest

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
])
def test_out_of_range_input_is_a_clear_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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


def test_verify_timing_records_cell_wall_times(capsys):
    base = ["verify", "--thm", "2.2.2", "--n", "3", "--maxdeg", "4",
            "--workers", "1"]
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert all(e["millis"] == 0 for e in json.loads(out)["entries"])
    code, out, _ = run(capsys, *base, "--timing")
    assert code == 0
    millis = [e["millis"] for e in json.loads(out)["entries"]]
    assert all(isinstance(m, int) and m >= 0 for m in millis)
    assert any(m > 0 for m in millis)


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
