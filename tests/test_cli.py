import json
import os
import pathlib
import subprocess
import sys

import pytest

import garside
from garside import GarsideStructure
from garside.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_matches_golden(capsys):
    code, out, err = run(capsys, ["analyze", "--fixture", "M1", "--json"])
    assert code == 0
    assert json.loads(out) == json.loads(
        (DATA / "analyze_m1.json").read_text())


def test_analyze_text(capsys):
    code, out, _ = run(capsys, ["analyze", "--fixture", "B3"])
    assert code == 0
    assert "presentation: B3" in out
    assert "thin: yes" in out
    assert "minimal_garside: s1s2s1" in out


def test_analyze_reports_non_garside_probe(capsys):
    code, out, _ = run(capsys, ["analyze", "--fixture", "M3"])
    assert code == 0
    assert "thin: yes" in out
    assert "note: primitive-pair mcms that are not Garside: ab, ba" in out


def test_normalize(capsys):
    code, out, _ = run(capsys, ["normalize", "--fixture", "M1", "aaa"])
    assert (code, out) == (0, "aa a\n")
    code, out, _ = run(capsys, ["normalize", "--fixture", "M1",
                                "--delta", "aa", "aaa"])
    assert (code, out) == (0, "aa a\n")
    code, out, _ = run(capsys, ["normalize", "--fixture", "M1", "--json",
                                "aaa"])
    assert code == 0
    assert json.loads(out) == {"element": "aaa", "factors": ["aa", "a"],
                               "span": "primitives"}
    code, out, _ = run(capsys, ["normalize", "--fixture", "M1", "1"])
    assert (code, out) == (0, "1\n")


def test_all_normal_forms(capsys):
    code, out, _ = run(capsys, ["all-normal-forms", "--fixture", "M1",
                                "aaaa"])
    assert (code, out) == (0, "aa aa\nab ab\n")


def test_word_problem(capsys):
    code, out, _ = run(capsys, ["word-problem", "--fixture", "M1",
                                "b' a", "a' b"])
    assert code == 0
    assert out == "equal\nleft:  D' ab\nright: D' ab\n"
    code, out, _ = run(capsys, ["word-problem", "--fixture", "M1", "--json",
                                "b' a", "a"])
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is False
    assert data["delta"] == "aa"
    assert data["left"] == {"k": 1, "factors": ["ab"]}


def test_automaton_dot(capsys):
    code, out, _ = run(capsys, ["automaton", "--fixture", "M1",
                                "--delta", "aa"])
    assert code == 0
    assert out.startswith("digraph normal_forms {")
    assert '"aa" -> "aa"' in out
    assert "fail" not in out
    code, full, _ = run(capsys, ["automaton", "--fixture", "M1",
                                 "--delta", "aa", "--full"])
    assert code == 0 and "fail" in full
    code, out, _ = run(capsys, ["automaton", "--fixture", "M1", "--json"])
    assert code == 0
    assert json.loads(out)["alphabet"] == ["a", "b", "ab", "aa", "D'"]


def test_growth_csv_and_json(capsys):
    code, out, _ = run(capsys, ["growth", "--fixture", "M1", "-n", "3"])
    assert code == 0
    assert out.splitlines() == ["n,count", "0,1", "1,4", "2,4", "3,4"]
    code, out, _ = run(capsys, ["growth", "--fixture", "M1", "-n", "4",
                                "--mode", "group", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 5, 8, 8, 8]
    assert data["mode"] == "group"
    assert data["counts_elements"] is True


def test_graph(capsys):
    code, out, _ = run(capsys, ["graph", "--fixture", "M1",
                                "--span", "a b aa ab"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph characteristic {"
    edges = sorted(l.strip() for l in lines if "->" in l)
    assert edges == [
        '"1" -> "a" [label="a"];',
        '"1" -> "b" [label="b"];',
        '"a" -> "aa" [label="a"];',
        '"a" -> "ab" [label="b"];',
        '"b" -> "aa" [label="b"];',
        '"b" -> "ab" [label="a"];',
    ]


def test_graph_warns_on_non_spanning_set(capsys):
    code, out, err = run(capsys, ["graph", "--fixture", "M1", "--span", "a"])
    assert code == 0
    assert "warning: the set does not span" in err
    assert out.startswith("digraph characteristic {")


def test_distance(capsys):
    code, out, _ = run(capsys, ["distance", "--fixture", "M1",
                                "aa aa", "ab ab"])
    assert (code, out) == (0, "2\n")
    code, out, _ = run(capsys, ["distance", "--fixture", "B3",
                                "s1", "s1 s2", "--json"])
    assert code == 0
    assert json.loads(out) == {"distance": 1, "delta": "s1s2s1"}


def test_prove(capsys):
    code, out, _ = run(capsys, ["prove", "--fixture", "M1", "a a", "b b"])
    assert (code, out) == (0, "relations used: 1\nsteps: 1\n")
    code, out, _ = run(capsys, ["prove", "--fixture", "M1", "--identity",
                                "a b a' b'"])
    assert (code, out) == (0, "relations used: 1\nsteps: 7\n")
    code, out, _ = run(capsys, ["prove", "--fixture", "M1", "a a"])
    assert code == 1


def test_presentation_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("# square-free pair\ngens: x y\nrels: xy = yx\n")
    code, out, _ = run(capsys, ["normalize", "--file", str(path),
                                "--span", "x y xy", "xxy"])
    assert code == 0
    assert out == "xy x\n"


def test_exit_code_usage_errors(capsys):
    code, _, err = run(capsys, [])
    assert code == 1 and "error" in err
    code, _, err = run(capsys, ["analyze", "--fixture", "nope"])
    assert code == 1 and "unknown fixture" in err
    code, _, err = run(capsys, ["normalize", "aaa"])
    assert code == 1 and "no presentation given" in err
    code, _, err = run(capsys, ["normalize", "--fixture", "M1",
                                "--span", "a", "b"])
    assert code == 1 and "spanning" in err


def test_analyze_radius_zero(capsys):
    code, out, _ = run(capsys, ["analyze", "--fixture", "M1", "--json",
                                "--radius", "0"])
    assert code == 0
    assert json.loads(out)["cancellativity"] == {"status": "pass",
                                                 "radius": 0}


def test_options_only_where_read(capsys):
    for argv in (["analyze", "--fixture", "M1", "--seed", "1"],
                 ["normalize", "--fixture", "M1", "--radius", "3", "aaa"],
                 ["prove", "--fixture", "M1", "--bound", "3", "a", "a"],
                 ["graph", "--fixture", "M1", "--garside-norm", "3"],
                 ["graph", "--fixture", "M1", "--json"]):
        code, _, err = run(capsys, argv)
        assert code == 1 and "unrecognized arguments" in err, argv


def test_exit_code_resource_cap(capsys):
    code, _, err = run(capsys, ["analyze", "--fixture", "M3",
                                "--cache-cap", "100"])
    assert code == 2
    assert "resource cap exceeded" in err


def test_growth_checks_uniform_length_at_the_given_radius(capsys):
    # the M1 ball has 7 elements up to norm 3, 9 up to norm 4, 11 up to 5
    base = ["growth", "--fixture", "M1", "--delta", "aa", "-n", "2"]
    code, out, _ = run(capsys, base + ["--ball-cap", "7", "--radius", "0"])
    assert code == 0 and out.splitlines()[0] == "n,count"
    code, _, err = run(capsys, base + ["--ball-cap", "7"])
    assert code == 2 and "at norm 4" in err
    code, _, err = run(capsys, base + ["--ball-cap", "10", "--radius", "5"])
    assert code == 2 and "at norm 5" in err


def test_negative_radius_and_bound_are_rejected(capsys):
    for argv in (["analyze", "--fixture", "M1", "--radius", "-3"],
                 ["growth", "--fixture", "M1", "--radius", "-1"],
                 ["graph", "--fixture", "M1", "--bound", "-2"],
                 ["growth", "--fixture", "M1", "--delta", "aa", "-n", "-2"],
                 ["analyze", "--fixture", "M1", "--garside-norm", "-1"],
                 ["normalize", "--fixture", "M1", "--cache-cap", "-5", "aaa"],
                 ["normalize", "--fixture", "M1", "--ball-cap", "-1", "aaa"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "", argv
        assert "expected a non-negative integer" in err, argv


def test_other_runtime_errors_exit_1(capsys, monkeypatch):
    def fail(self, x):
        raise RuntimeError("no power of the Garside element")

    monkeypatch.setattr(GarsideStructure, "embedding_exponent", fail)
    code, out, err = run(capsys, ["word-problem", "--fixture", "M1",
                                  "--delta", "aa", "b' a", "a"])
    assert code == 1 and out == ""
    assert err == "error: no power of the Garside element\n"


def test_python_m_garside_cli_runs_without_warnings():
    src = pathlib.Path(garside.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "garside.cli", "normalize", "--fixture", "M1",
         "aaa"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "aa a\n"
