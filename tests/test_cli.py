import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@pytest.mark.parametrize("name", ["M2", "M3"])
def test_analyze_matches_golden_on_thin_fixtures(capsys, name):
    # their simples strictly contain Div(delta), read after the proof
    code, out, err = run(capsys, ["analyze", "--fixture", name, "--json"])
    assert code == 0
    assert out == (DATA / f"analyze_{name.lower()}.json").read_text()


def test_analyze_matches_golden_where_cancellation_fails(tmp_path, capsys):
    path = tmp_path / "ab_aa.txt"
    path.write_text("gens: a b\nrels: ab = aa\n")
    code, out, _ = run(capsys, ["analyze", "--json", "--file", str(path)])
    assert code == 0
    golden = json.loads((DATA / "analyze_ab_aa.json").read_text())
    # the presentation is named by the path it was read from
    golden["presentation"] = str(path)
    assert json.loads(out) == golden


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


def test_graph_warning_states_the_bound(capsys):
    code, _, err = run(capsys, ["graph", "--fixture", "M1", "--span", "a",
                                "--bound", "3"])
    assert code == 0
    assert err == ("warning: the set does not span: spanning: fail "
                   "(bound 3) witness={'missing_atom': 'b'}\n")


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


@pytest.mark.parametrize("argv", [
    ["prove", "--fixture", "M1", "a a", "a b"],
    ["prove", "--fixture", "M1", "--identity", "a"]])
def test_grid_errors_exit_1_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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


# two options of which a run reads only one
@pytest.mark.parametrize("argv,names", [
    (["normalize", "--delta", "aa", "--span", "a b", "aaa"],
     ("--delta", "--span")),
    (["all-normal-forms", "--span", "a b", "--delta", "aa", "aaa"],
     ("--delta", "--span")),
    (["graph", "--delta", "aa", "--span", "a b"], ("--delta", "--span")),
    (["prove", "--delta", "aa", "--span", "a b", "a a", "b b"],
     ("--delta", "--span")),
    (["word-problem", "--delta", "aa", "--garside-norm", "0", "a", "a"],
     ("--delta", "--garside-norm")),
    (["automaton", "--garside-norm", "2", "--delta", "aa"],
     ("--delta", "--garside-norm")),
    (["growth", "--delta", "aa", "--garside-norm", "2"],
     ("--delta", "--garside-norm")),
    (["distance", "--delta", "aa", "--garside-norm", "2", "a", "a"],
     ("--delta", "--garside-norm")),
    (["automaton", "--json", "--full"], ("--json", "--full")),
    (["prove", "--identity", "a a'", "b b"], ("--identity", "right")),
    (["prove", "a a", "--identity", "b b"], ("--identity", "right"))],
    ids=["normalize", "all-normal-forms", "graph", "prove", "word-problem",
         "automaton", "growth", "distance", "automaton-json-full",
         "prove-identity", "prove-left-identity-right"])
def test_options_that_exclude_each_other_are_usage_errors(capsys, argv,
                                                          names):
    code, out, err = run(capsys, [argv[0], "--fixture", "M1", *argv[1:]])
    assert code == 1 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "not allowed with" in errors[0]
    assert all(f"argument {name}" in errors[0] for name in names)


def test_an_inverse_mark_is_an_unknown_symbol_in_a_positive_word(capsys):
    with pytest.raises(garside.PresentationError) as exc:
        garside.fixture("M1").encode_word("a'")
    assert str(exc.value) == "unknown symbol at position 1 in word \"a'\""
    code, out, err = run(capsys, ["normalize", "--fixture", "M1", "a'"])
    assert (code, out) == (1, "")
    assert err == "error: unknown symbol at position 1 in word \"a'\"\n"


def test_analyze_notes_a_structure_that_build_structure_refuses(capsys):
    # bb = aa, baab = bbaa, ba = aa: the search finds aa, whose star map
    # is not a bijection; the report is printed all the same
    code, out, err = run(capsys, ["analyze", "--json", "--file",
                                  str(DATA / "random3.txt")])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["minimal_garside"] == ["aa"]
    assert report["garside_structures"] == []
    assert "structure for aa refused: the star map is not a bijection; " \
           "the monoid is probably not cancellative" in report["notes"]


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


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(garside.cli, "cmd_word_problem", fail)
    code, out, err = run(capsys, ["word-problem", "--fixture", "M1",
                                  "--delta", "aa", "b' a", "a"])
    assert code == 2 and out == ""
    assert err == "resource cap exceeded: out of memory\n"
    assert "Traceback" not in err


def python_env(hashseed=None):
    """The environment of a fresh interpreter that imports this package."""
    src = pathlib.Path(garside.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_python(args, hashseed=None):
    """``python args`` in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=python_env(hashseed), timeout=60)


def run_module(argv, hashseed=None):
    """``python -m garside.cli argv`` in a fresh interpreter."""
    return run_python(["-m", "garside.cli", *argv], hashseed)


def test_python_m_garside_cli_runs_without_warnings():
    proc = run_module(["normalize", "--fixture", "M1", "aaa"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "aa a\n"


def test_a_closed_stdout_is_not_a_failure():
    # a reader that stopped early, like ``| head -c 100``, before the
    # answer is written: the command exits 0 and says nothing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "garside.cli", "normalize", "--fixture",
             "M1", "aaa"], stdout=write_end, stderr=subprocess.PIPE,
            text=True, env=python_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


# the layers below the command line, which a command imports as it runs
LAYERS = ("structure", "normal", "delta", "automaton")
LOADED = """
import sys
before = set(sys.modules)
{}
new = set(sys.modules) - before
print(" ".join(sorted(m for m in new
                      if m.startswith("garside.") or m == "dataclasses")))
"""


def loaded_by(code):
    """Modules of the package, and ``dataclasses``, that ``code`` loads
    in a fresh interpreter, read from the last line of its output."""
    proc = run_python(["-c", LOADED.format(code)])
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.splitlines()[-1].split()
    return {n.removeprefix("garside.") for n in names}


def test_importing_the_cli_loads_no_layer_and_no_dataclasses():
    assert loaded_by("import garside.cli") == {
        "cli", "congruence", "presentation", "reports", "rewrite"}


@pytest.mark.parametrize("argv,layers", [
    (["graph", "--fixture", "M1"], {"structure"}),
    (["normalize", "--fixture", "M1", "aaa"], {"structure", "normal"}),
    (["normalize", "--fixture", "B3", "--delta", "s1s2s1", "s1s2s2"],
     {"structure", "normal"}),
    (["word-problem", "--fixture", "M1", "a b'", "b' a"],
     {"structure", "normal", "delta"})])
def test_a_command_loads_only_its_own_layers(argv, layers):
    code = ("import contextlib, io\n"
            "from garside.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0")
    loaded = loaded_by(code)
    assert "dataclasses" not in loaded
    assert loaded & set(LAYERS) == layers


def test_public_names_resolve_to_their_defining_modules():
    namespace = {}
    exec("from garside import *", namespace)
    for name in garside.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"garside.{garside._MODULE_OF[name]}")
        value = getattr(garside, name)
        assert value is getattr(module, name) is namespace[name], name
        if callable(value) and hasattr(value, "__qualname__"):
            assert value.__module__ == module.__name__, name
    with pytest.raises(AttributeError):
        garside.no_such_name


def test_dir_lists_the_public_names_before_they_load():
    code = ("import sys, garside\n"
            "missing = set(garside.__all__) - set(dir(garside))\n"
            "assert not missing, sorted(missing)\n"
            "assert 'garside.delta' not in sys.modules")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr


def test_analyze_output_does_not_depend_on_the_hash_seed(tmp_path):
    # a b = a a is not left cancellative; its primitive closure notes an
    # incomplete mcm search, once, for the first pair it tries
    path = tmp_path / "pres.txt"
    path.write_text("gens: a b\nrels: ab = aa\n")
    argv = ["analyze", "--json", "--file", str(path)]
    first, second = (run_module(argv, hashseed=seed) for seed in (0, 2))
    assert first.returncode == second.returncode == 0
    assert "mcm search incomplete for pair (b, a)" in first.stdout
    assert first.stdout == second.stdout


# positional arguments and options of each subcommand
COMMANDS = {
    "analyze": ([], "--json --bound --radius --garside-norm"),
    "normalize": (["word"], "--json --delta --span"),
    "all-normal-forms": (["word"], "--json --delta --span"),
    "word-problem": (["signed", "signed"], "--json --delta --garside-norm"),
    "automaton": ([], "--json --delta --garside-norm --full"),
    "growth": ([], "--json --delta --garside-norm --radius -n --mode"),
    "graph": ([], "--delta --span --bound"),
    "distance": (["word", "word"], "--json --delta --garside-norm"),
    "prove": (["word", "word"], "--json --delta --span --identity")}
FLAGS = ("--json", "--full", "--identity")
FUZZ_FIXTURES = {"M1": ["a", "b"], "M3": ["a", "b", "c"], "B3": ["s1", "s2"],
                 "free_comm(2)": ["a", "b"], "B9": ["a"]}


@st.composite
def cli_runs(draw):
    """(presentation file text, argv): mostly well-formed, so that most
    runs get past parsing, with a share of malformed pieces."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(FUZZ_FIXTURES)))
        gens, text = FUZZ_FIXTURES[name], ""
        source = ["--fixture", name]
    else:
        gens = draw(st.lists(st.sampled_from(["a", "b", "c", "s1", "s2"]),
                             min_size=1, max_size=3, unique=True))
        rels = []
        for _ in range(draw(st.integers(0, 2))):
            n = draw(st.integers(1, 3))
            side = st.lists(st.sampled_from(gens), min_size=n, max_size=n)
            rels.append("".join(draw(side)) + " = " + "".join(draw(side)))
        text = f"gens: {' '.join(gens)}\nrels: {'; '.join(rels)}\n"
        text = draw(st.sampled_from(
            [text] * 6 + [text.replace("rels:", "rel:"), text + "gens: a\n",
                          text.replace("=", "= a", 1), ""]))
        source = ["--file", "PATH"]
    letter = st.sampled_from(gens + ["z"])  # z is in no alphabet
    word = st.lists(letter, max_size=4).map("".join)
    signed = st.lists(st.tuples(letter, st.sampled_from(["", "'"])),
                      max_size=4).map(lambda t: " ".join(a + b for a, b in t))
    values = st.one_of(st.integers(-1, 4).map(str), word,
                       st.sampled_from(["x", "group", "monoid", "-"]))
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[command]
    # now and then an option that the subcommand does not take
    option = st.sampled_from(options.split() * 9 + ["--full", "--span"])
    argv = [command] + source
    for _ in range(draw(st.integers(0, 2))):
        name = draw(option)
        argv += [name] if name in FLAGS else [name, draw(values)]
    for kind in positional:
        argv.append(draw(signed if kind == "signed" else word))
    # small caps keep each run short; a cap that fires exits 2
    return text, argv + ["--cache-cap", "20000", "--ball-cap", "300"]


def test_cli_fuzz_exits_0_1_or_2_without_traceback(tmp_path, capsys):
    path = tmp_path / "pres.txt"

    @settings(derandomize=True, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cli_runs())
    def check(case):
        text, argv = case
        path.write_text(text)
        argv = [str(path) if a == "PATH" else a for a in argv]
        code, _, err = run(capsys, argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv

    check()
