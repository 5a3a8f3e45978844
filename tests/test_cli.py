"""End-to-end tests of the command-line front end, driven through main()
so exit codes and report bytes are checked exactly."""

import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import hqsynth
from hqsynth import cli
from hqsynth.cli import main
from hqsynth.common import format_fraction, parse_fraction
from hqsynth.evaluation import expected_value, simulate
from hqsynth.formulas import MAX_NESTING, parse
from hqsynth.transducers import load_transducer

HD_FORMULA = ("((X data) -> !close)"
              " & (((!(X data)) -> close) | factor{1/2} (X close))")

HD_SPEC = {"inputs": ["data"], "outputs": ["close"], "formula": HD_FORMULA}

# its optimal controller's samples take the three values 0, 2/3 and 1
UNTIL_FACTOR_SPEC = {"inputs": ["i0", "i1"], "outputs": ["o"],
                     "formula": "((!i1 U X (factor{2/3} i0)) U i0)"}

SMALL_SPEC = {"inputs": ["i"], "outputs": ["o"],
              "formula": "wavg{1/2}(X i, o)", "assumption": "i"}

UNIFORM_DATA = {
    "inputs": ["data"], "outputs": ["close"],
    "states": [{"id": 0, "input": []}, {"id": 1, "input": ["data"]}],
    "initial": 0,
    "transitions": [
        {"from": s, "output": o, "to": t, "prob": "1/2"}
        for s in (0, 1) for o in ([], ["close"]) for t in (0, 1)
    ],
}


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment for a `python -m hqsynth.cli` child: this hqsynth
    first on its path, and the terminal width its help text is wrapped to."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hqsynth.__file__)))
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestSynthCommand:
    def test_plain_report_and_saved_transducer(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        out = tmp_path / "ctrl.json"
        dot = tmp_path / "ctrl.dot"
        code, text, _ = run(capsys, "synth", spec, "--out", str(out),
                            "--dot", str(dot))
        assert code == 0
        assert "result = OK" in text
        assert "expected = 3/4" in text
        T = load_transducer(str(out))
        assert expected_value(T, parse(HD_FORMULA)) == Fraction(3, 4)
        assert dot.read_text().startswith("digraph")

    def test_threshold_flag_overrides_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        code, text, _ = run(capsys, "synth", spec, "--threshold", "1/2")
        assert code == 0
        assert "expected = 3/4" in text
        assert "floor = 1/2" in text
        assert "threshold = 1/2" in text

    def test_unrealizable_exit_code(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        code, text, _ = run(capsys, "synth", spec, "--threshold", "3/5")
        assert code == 2
        assert "result = UNREALIZABLE" in text
        assert "threshold = 3/5" in text

    def test_assume_inline(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(SMALL_SPEC, **{"assumption": "!i"}))
        code, text, _ = run(capsys, "synth", spec, "--assume-inline", "i")
        assert code == 0
        assert "assumption_probability = 1/2" in text
        assert "expected = 3/4" in text

    def test_threshold_flag_is_validated(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        code, text, err = run(capsys, "synth", spec, "--threshold", "3/2")
        assert (code, text, err) == (1, "", "error: threshold must lie in [0,1]\n")

    def test_assume_inline_with_a_hard_constraint_is_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(HD_SPEC, threshold="1/2",
                                         hard_constraint="true"))
        code, text, err = run(capsys, "synth", spec, "--assume-inline", "true")
        assert (code, text) == (1, "")
        assert err == "error: hard constraint and assumption cannot be combined\n"

    def test_assume_inline_over_outputs_is_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        code, text, err = run(capsys, "synth", spec, "--assume-inline", "close")
        assert (code, text, err) == (1, "", "error: assumption must range over inputs only\n")

    def test_threshold_flag_is_applied_before_assume_inline(self, tmp_path, capsys):
        # the threshold is checked before the inline assumption is parsed,
        # so a bad threshold is reported even when the assumption is malformed
        spec = write_spec(tmp_path, SMALL_SPEC)
        code, text, err = run(capsys, "synth", spec, "--threshold", "3/2",
                              "--assume-inline", "X")
        assert (code, text, err) == (1, "", "error: threshold must lie in [0,1]\n")

    def test_json_report_parses_with_sorted_keys(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        code, text, _ = run(capsys, "synth", spec, "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["result"] == "OK"
        assert doc["expected"] == "3/4"
        assert list(doc) == sorted(doc)

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        rep = tmp_path / "report.txt"
        code, text, _ = run(capsys, "synth", spec, "--report", str(rep))
        assert code == 0
        assert rep.read_text(encoding="utf-8") == text

    def test_embedded_distribution(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(HD_SPEC, distribution=UNIFORM_DATA))
        code, text, _ = run(capsys, "synth", spec)
        assert code == 0
        assert "expected = 3/4" in text

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        _, first, _ = run(capsys, "synth", spec, "--json")
        _, second, _ = run(capsys, "synth", spec, "--json")
        assert first == second


class TestEvalCommand:
    @pytest.fixture()
    def hd(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        ctrl = str(tmp_path / "ctrl.json")
        assert run(capsys, "synth", spec, "--out", ctrl)[0] == 0
        return spec, ctrl

    def test_expected(self, hd, capsys):
        code, text, _ = run(capsys, "eval", *hd)
        assert code == 0
        assert "expected = 3/4" in text

    def test_worst_case(self, hd, capsys):
        code, text, _ = run(capsys, "eval", *hd, "--mode", "worst-case")
        assert code == 0
        assert "worst-case = 1/2" in text

    def test_almost_sure(self, hd, capsys):
        code, text, _ = run(capsys, "eval", *hd, "--mode", "almost-sure")
        assert code == 0
        assert "almost-sure = 1/2" in text

    def test_conditional_needs_assumption(self, hd, capsys):
        code, _, err = run(capsys, "eval", *hd, "--mode", "conditional")
        assert code == 1
        assert "assumption" in err

    def test_conditional_with_assumption(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SMALL_SPEC)
        ctrl = str(tmp_path / "small.json")
        assert run(capsys, "synth", spec, "--out", ctrl)[0] == 0
        code, text, _ = run(capsys, "eval", spec, ctrl, "--mode", "conditional")
        assert code == 0
        assert "conditional = 3/4" in text

    def test_alphabet_mismatch(self, tmp_path, capsys, hd):
        other = write_spec(tmp_path, {"inputs": ["noise"], "outputs": ["encode"],
                                      "formula": "encode"}, name="other.json")
        code, _, err = run(capsys, "eval", other, hd[1])
        assert code == 1
        assert "alphabet" in err


class TestSimulateCommand:
    def test_report_and_reproducibility(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        ctrl = str(tmp_path / "ctrl.json")
        assert run(capsys, "synth", spec, "--out", ctrl)[0] == 0
        code, text, _ = run(capsys, "simulate", spec, ctrl,
                            "--samples", "500", "--seed", "9")
        assert code == 0
        assert "samples = 500" in text
        assert "seed = 9" in text
        assert "exact = 3/4" in text
        assert "estimate = " in text and "stderr = " in text
        again = run(capsys, "simulate", spec, ctrl, "--samples", "500", "--seed", "9")
        assert again[1] == text

    def test_rejects_nonpositive_samples(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        ctrl = str(tmp_path / "ctrl.json")
        assert run(capsys, "synth", spec, "--out", ctrl)[0] == 0
        code, _, err = run(capsys, "simulate", spec, ctrl, "--samples", "0")
        assert code == 1
        assert "samples" in err


class TestSimulateStatistics:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("simulate")
        spec = write_spec(tmp, UNTIL_FACTOR_SPEC)
        ctrl = str(tmp / "ctrl.json")
        assert main(["synth", spec, "--out", ctrl]) == 0
        return spec, ctrl

    @pytest.mark.parametrize("samples", [1, 2, 200])
    @pytest.mark.parametrize("seed", range(5))
    def test_against_the_per_sample_formulas(self, pair, capsys, seed, samples):
        spec, ctrl = pair
        capsys.readouterr()
        T = load_transducer(ctrl)
        mean, xs, _ = simulate(T, parse(UNTIL_FACTOR_SPEC["formula"]), samples, seed)
        n = len(xs)
        assert n == samples
        assert mean == sum(xs, Fraction(0)) / n
        if n == 200:
            assert len(set(xs)) == 3
        stderr = (math.sqrt(float(sum((x - mean) ** 2 for x in xs) / (n - 1)) / n)
                  if n > 1 else 0.0)
        code, text, _ = run(capsys, "simulate", spec, ctrl,
                            "--samples", str(samples), "--seed", str(seed))
        assert code == 0
        assert f"estimate = {format_fraction(mean)}\n" in text
        assert f"stderr = {stderr!r}\n" in text


def run_captured(argv):
    """`main(argv)` with its own stdout and stderr buffers, as a long-lived
    caller such as the benchmark worker runs each command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestRepeatedCalls:
    def test_each_call_matches_a_fresh_process(self, tmp_path, monkeypatch):
        # the parser is built once per process; no call may see what an
        # earlier one parsed, printed or failed on, nor the streams it
        # printed to: the last call repeats the first
        monkeypatch.setenv("COLUMNS", "80")
        spec = write_spec(tmp_path, HD_SPEC)
        ctrl = str(tmp_path / "ctrl.json")
        argvs = [["synth", spec, "--no-such-flag"],
                 ["synth", spec, "--out", ctrl],
                 ["synth", "--help"],
                 ["frobnicate", spec],
                 ["eval", spec, ctrl],
                 ["simulate", spec, ctrl, "--samples", "50", "--seed", "3"],
                 ["synth", spec, "--no-such-flag"]]
        in_process = [run_captured(argv) for argv in argvs]
        assert [r[0] for r in in_process] == [1, 0, 0, 1, 0, 0, 1]
        env = subprocess_env()
        for argv, got in zip(argvs, in_process):
            proc = subprocess.run([sys.executable, "-m", "hqsynth.cli", *argv],
                                  capture_output=True, text=True, env=env)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        assert cli._build_parser() is cli._build_parser()


# a controller over HD_SPEC's alphabet that never closes
NEVER_CLOSE = {"inputs": ["data"], "outputs": ["close"], "initial": 0,
               "states": [{"id": 0, "label": []}],
               "transitions": [{"from": 0, "input": i, "to": 0} for i in ([], ["data"])]}


def served(spec, ctrl=None):
    """What `main` gets for these files from the memo of parsed files."""
    got = cli._read_parsed(spec, "utf-8", cli._spec_from_text)
    if ctrl is None:
        return got
    return got, cli._read_parsed(ctrl, None, cli.transducer_from_text)


class TestParsedFiles:
    """`main` parses a file's text once; every call still reads its file."""

    def test_files_rewritten_in_place_are_read_again(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        ctrl = tmp_path / "ctrl.json"
        assert run(capsys, "synth", spec, "--out", str(ctrl))[0] == 0
        assert run(capsys, "eval", spec, str(ctrl)) == (0, "expected = 3/4\ndecimal = 0.75\n", "")
        ctrl.write_text(json.dumps(NEVER_CLOSE))
        assert run(capsys, "eval", spec, str(ctrl)) == (0, "expected = 1/2\ndecimal = 0.5\n", "")
        write_spec(tmp_path, dict(HD_SPEC, formula="!close"))
        assert run(capsys, "eval", spec, str(ctrl)) == (0, "expected = 1\ndecimal = 1.0\n", "")
        code, text, _ = run(capsys, "simulate", spec, str(ctrl), "--samples", "5")
        assert (code, text.splitlines()[4]) == (0, "exact = 1")
        assert run(capsys, "synth", spec)[1].startswith("result = OK\nexpected = 1\n")

    def test_malformed_files_fail_on_every_call(self, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        spec = write_spec(tmp_path, HD_SPEC)
        no_formula = json.dumps({"inputs": ["data"], "outputs": ["close"]})
        too_deep = "[" * 100_000 + "]" * 100_000
        for path in (first, first, second):
            path.write_text(no_formula, encoding="utf-8")
            assert run(capsys, "synth", str(path)) == (
                1, "", f"error: {path}: spec is missing 'formula'\n")
        for path in (first, first, second):
            path.write_text(too_deep, encoding="utf-8")
            assert run(capsys, "eval", spec, str(path)) == (
                1, "", f"error: {path}: JSON nests too deeply\n")
        assert not {no_formula, too_deep} & {key[1] for key in cli._parsed_files}
        for path in (first, second):
            path.write_text(json.dumps(HD_SPEC), encoding="utf-8")
            assert run(capsys, "synth", str(path))[:2] == run(capsys, "synth", spec)[:2]
        assert served(str(first)) is served(str(second)) is served(spec)

    def test_public_loaders_return_new_objects(self, tmp_path, capsys):
        spec = write_spec(tmp_path, HD_SPEC)
        ctrl = str(tmp_path / "ctrl.json")
        assert run(capsys, "synth", spec, "--out", ctrl)[0] == 0
        assert run(capsys, "eval", spec, ctrl)[0] == 0
        shared_spec, shared_ctrl = served(spec, ctrl)
        specs = [cli.load_spec_file(spec) for _ in range(2)]
        ctrls = [load_transducer(ctrl) for _ in range(2)]
        assert len({id(shared_spec), *map(id, specs)}) == 3
        assert len({id(shared_spec.formula), *(id(s.formula) for s in specs)}) == 3
        assert len({id(shared_ctrl), *map(id, ctrls)}) == 3
        assert len({id(shared_ctrl.delta), *(id(T.delta) for T in ctrls)}) == 3

    def test_entries_are_bounded(self, tmp_path, capsys):
        size = cli.PARSED_FILES_SIZE
        texts = [json.dumps(HD_SPEC) + " " * k for k in range(size + 3)]
        paths = [tmp_path / f"spec{k}.json" for k in range(len(texts))]
        for k, (path, text) in enumerate(zip(paths, texts)):
            path.write_text(text, encoding="utf-8")
            assert run(capsys, "synth", str(path))[0] == 0
            if k == size - 1:
                assert run(capsys, "synth", str(paths[0]))[0] == 0  # used again
            assert len(cli._parsed_files) <= size
        kept = {key[1] for key in cli._parsed_files}
        assert texts[0] in kept and texts[-1] in kept and texts[1] not in kept

    def test_commands_leave_what_they_get_unchanged(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(HD_SPEC, distribution=UNIFORM_DATA,
                                         assumption="data"))
        ctrl = str(tmp_path / "ctrl.json")
        assert run(capsys, "synth", spec, "--out", ctrl)[0] == 0
        assert run(capsys, "eval", spec, ctrl)[0] == 0
        objects = served(spec, ctrl)
        before = [pickle.dumps(x) for x in objects]
        argvs = [["synth", spec], ["synth", spec, "--threshold", "1/2"],
                 ["synth", spec, "--assume-inline", "!data"],
                 *(["eval", spec, ctrl, "--mode", mode] for mode in MODES),
                 ["simulate", spec, ctrl, "--samples", "20"]]
        for argv in argvs:
            assert run(capsys, *argv)[0] in (0, 2), argv
            got = served(spec, ctrl)
            assert got[0] is objects[0] and got[1] is objects[1], argv
            assert [pickle.dumps(x) for x in got] == before, argv

    def test_state_ceiling_is_read_with_the_text(self, tmp_path, capsys, monkeypatch):
        # the parsers check alphabets against the ceiling: a parse made under
        # another ceiling is not served
        spec = write_spec(tmp_path, {"inputs": ["a", "c"], "outputs": ["b", "d"],
                                     "formula": "G (a -> X b)"})
        ctrl = str(tmp_path / "ctrl.json")
        assert run(capsys, "synth", spec, "--out", ctrl)[0] == 0
        assert run(capsys, "eval", spec, ctrl)[0] == 0
        for ceiling, atoms in (("5", 4), ("3", 2)):
            monkeypatch.setenv("HQSYNTH_STATE_CEILING", ceiling)
            assert run(capsys, "eval", spec, ctrl) == (
                1, "", f"error: alphabet of {atoms} atoms exceeded the state ceiling "
                       f"of {ceiling}; set HQSYNTH_STATE_CEILING to raise it\n")


MODES = ["expected", "conditional", "almost-sure", "worst-case"]
SUBCOMMANDS = ["synth", "eval", "simulate"]
# every option and flag; unique prefixes of them, and "--s", ambiguous in
# simulate; "--opt=value" forms; the end of options and the help flags
OPTION_TOKENS = ["--out", "--dot", "--threshold", "--assume-inline", "--report",
                 "--json", "--mode", "--samples", "--seed",
                 "--o", "--d", "--thr", "--assume", "--rep", "--j", "--mo",
                 "--sa", "--se", "--s", "--h",
                 "--out=x.json", "--threshold=3/5", "--mode=expected",
                 "--samples=5", "--seed=-1", "--json=x",
                 "--", "-h", "--help"]
VALUES = ["x.json", "", "-1", "+5", "1_0", "x", *MODES, "best-case"]


def argparse_attrs(argv):
    """`vars` of what argparse reads from `argv`, None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


class TestCanonicalReader:
    def test_agrees_with_argparse(self):
        # Skipped where Hypothesis is not installed, as the other property
        # tests are: the package itself needs only the standard library.
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def near_canonical(draw):
            # mostly the subcommand's own positional count, options with a
            # value and flags, so that many draws are canonical and the rest
            # just miss it
            name = draw(st.sampled_from(SUBCOMMANDS))
            _, _, positionals, options, flags = cli._COMMANDS[name]
            count = draw(st.sampled_from([len(positionals)] * 3 + [0, 1, 2, 3]))
            argv = [name] + draw(st.lists(st.sampled_from(VALUES),
                                          min_size=count, max_size=count))
            item = (st.tuples(st.sampled_from([o[0] for o in options]),
                              st.sampled_from(VALUES))
                    | st.tuples(st.sampled_from([f[0] for f in flags]))
                    | st.tuples(st.sampled_from(OPTION_TOKENS),
                                st.sampled_from([*VALUES, *OPTION_TOKENS]))
                    | st.tuples(st.sampled_from(OPTION_TOKENS)))
            for tokens in draw(st.lists(item, max_size=4)):
                argv += tokens
            return argv

        tokens = st.sampled_from(SUBCOMMANDS + OPTION_TOKENS + VALUES)

        @hypothesis.settings(max_examples=500, deadline=None)
        @hypothesis.given(st.one_of(near_canonical(), st.lists(tokens, max_size=8)))
        def check(argv):
            got = cli._read_canonical(argv)
            assert got is None or got == argparse_attrs(argv), argv

        check()

    @pytest.mark.parametrize("argv", [
        ["synth", "x.json"],
        ["synth", "x.json", "--out", "", "--dot", "d", "--threshold", "3/5",
         "--assume-inline", "G i", "--report", "r", "--json", "--json"],
        ["eval", "s", "c", "--mode", "worst-case", "--mode", "almost-sure"],
        ["simulate", "s", "c", "--samples", "+5", "--seed", "1_0", "--samples", "7"],
    ])
    def test_reads_canonical_forms(self, argv):
        got = cli._read_canonical(argv)
        assert got is not None and got == argparse_attrs(argv)

    @pytest.mark.parametrize("argv", [
        [],
        ["-h"],
        ["--help"],
        ["synth", "--help"],
        ["syn", "x.json"],                                 # abbreviated subcommand
        ["frobnicate", "x.json"],
        ["synth", "x.json", "--thr", "3/5"],               # abbreviated option
        ["synth", "x.json", "--threshold=3/5"],
        ["synth", "--threshold", "3/5", "x.json"],         # option before positional
        ["synth", "x.json", "--", "y"],
        ["synth", "-x.json"],                              # positional starting with -
        ["simulate", "s", "c", "--seed", "-1"],            # value starting with -
        ["simulate", "s", "c", "--samples", "x"],          # bad int
        ["eval", "s", "c", "--mode", "best-case"],         # bad choice
        ["eval", "s", "c", "--mode", "best-case", "--mode", "expected"],
        ["eval", "s"],                                     # missing positional
        ["synth", "a.json", "b.json"],                     # extra positional
        ["synth", "x.json", "--out"],                      # option without value
        ["synth", "x.json", "--no-such-flag"],
    ])
    def test_declines_other_forms(self, argv):
        assert cli._read_canonical(argv) is None

    def test_canonical_call_leaves_out_argparse(self, tmp_path):
        # a canonical call in a fresh process pays for neither argparse nor
        # the `locale` its gettext imports; help still comes from argparse
        src = os.path.dirname(os.path.dirname(os.path.abspath(hqsynth.__file__)))
        code = "\n".join([
            "import contextlib, io, json, sys",
            "sys.path.insert(0, sys.argv[1])",
            "from hqsynth.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()) as report:",
            "    synth = main(['synth', sys.argv[2]])",
            "loaded = sorted({'argparse', 'locale'} & set(sys.modules))",
            "with contextlib.redirect_stdout(io.StringIO()) as text:",
            "    help_code = main(['--help'])",
            "print(json.dumps([synth, report.getvalue(), loaded, help_code, text.getvalue()]))",
        ])
        env = subprocess_env()
        proc = subprocess.run([sys.executable, "-I", "-c", code, src,
                               write_spec(tmp_path, HD_SPEC)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        synth, report, loaded, help_code, text = json.loads(proc.stdout)
        assert (synth, loaded, help_code) == (0, [], 0)
        assert report.startswith("result = OK\nexpected = 3/4\n")
        fresh = subprocess.run([sys.executable, "-m", "hqsynth.cli", "--help"],
                               capture_output=True, text=True, env=env)
        assert (fresh.returncode, fresh.stdout) == (0, text)


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "synth", "/nonexistent/spec.json")
        assert code == 1
        assert "error:" in err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert run(capsys, "synth", str(p))[0] == 1

    def test_unknown_spec_key(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(HD_SPEC, fomula="oops"))
        code, _, err = run(capsys, "synth", spec)
        assert code == 1
        assert "fomula" in err

    def test_bad_formula(self, tmp_path, capsys):
        spec = write_spec(tmp_path, dict(HD_SPEC, formula="a &"))
        assert run(capsys, "synth", spec)[0] == 1

    def test_bad_distribution_ids(self, tmp_path, capsys):
        bad = dict(UNIFORM_DATA, states=[{"id": 1, "input": []},
                                         {"id": 0, "input": ["data"]}])
        spec = write_spec(tmp_path, dict(HD_SPEC, distribution=bad))
        code, _, err = run(capsys, "synth", spec)
        assert code == 1
        assert "0..n-1" in err

    @pytest.mark.parametrize("doc, controller, field", [
        (dict(HD_SPEC, threshold=0.5), None, "threshold"),
        ({"inputs": "ab", "outputs": ["o"], "formula": "a -> o"}, None, "inputs"),
        (dict(HD_SPEC, inputs=[["data"]]), None, "inputs"),
        (dict(HD_SPEC, distribution=dict(
            UNIFORM_DATA, states=[{"id": 0}, {"id": 1, "input": ["data"]}])), None,
         "input of distribution state 0"),
        (dict(HD_SPEC, formula=5), None, "formula"),
        (dict(HD_SPEC, distribution=dict(UNIFORM_DATA, states=3)), None,
         "distribution states"),
        (dict(HD_SPEC, distribution=dict(UNIFORM_DATA, transitions=[
            {"from": 0, "output": [], "prob": "1"}])), None, "'to'"),
        (HD_SPEC, {"inputs": ["data"], "outputs": ["close"], "initial": 0,
                   "transitions": []}, "'states'"),
    ], ids=["float-threshold", "string-atoms", "nested-atoms", "state-without-input",
            "number-formula", "number-states", "transition-without-to",
            "controller-without-states"])
    def test_malformed_field_types(self, tmp_path, capsys, doc, controller, field):
        spec = write_spec(tmp_path, doc)
        if controller is None:
            code, _, err = run(capsys, "synth", spec)
        else:
            ctrl = write_spec(tmp_path, controller, "ctrl.json")
            code, _, err = run(capsys, "eval", spec, ctrl)
        assert code == 1
        assert err.startswith("error:")
        assert field in err

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"inputs": ["a"], "outputs": ["b"],
                                     "formula": "X " * 1200 + "a"})
        code, _, err = run(capsys, "synth", spec)
        assert code == 1
        assert err.startswith("error:")
        assert f"deeper than {MAX_NESTING} levels" in err

    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_deeply_nested_json_is_an_error(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        if command == "synth":
            code, _, err = run(capsys, "synth", str(deep))
        else:
            code, _, err = run(capsys, "eval", write_spec(tmp_path, HD_SPEC), str(deep))
        assert code == 1
        assert err.startswith("error:")
        assert "nests too deeply" in err

    def test_alphabet_past_the_ceiling_is_an_error(self, tmp_path, capsys):
        # 2^21 input letters exceed the default ceiling of 10^6
        inputs = [f"i{j}" for j in range(21)]
        spec = write_spec(tmp_path, {"inputs": inputs, "outputs": ["o"],
                                     "formula": "i0 -> o"})
        code, _, err = run(capsys, "synth", spec)
        assert code == 1
        assert err.startswith("error:")
        assert "alphabet of 21 atoms" in err

    @pytest.mark.parametrize("formula, expected", [
        ("X " * MAX_NESTING + "a", Fraction(1, 2)),
        ("wavg{1/2}(true, " * MAX_NESTING + "a" + ")" * MAX_NESTING,
         1 - Fraction(1, 2 ** (MAX_NESTING + 1))),
    ], ids=["next", "wavg"])
    def test_nesting_at_the_limit_certifies(self, tmp_path, capsys, formula, expected):
        spec = write_spec(tmp_path, {"inputs": ["a"], "outputs": ["b"], "formula": formula})
        code, text, _ = run(capsys, "synth", spec)
        assert code == 0
        assert "result = OK" in text
        assert f"expected = {expected.numerator}/{expected.denominator}" in text

    @pytest.mark.parametrize("where", ["flag", "spec", "distribution"])
    def test_exponent_notation_is_rejected_at_once(self, tmp_path, where):
        # Fraction("1e999999999") would build a billion-digit integer; each
        # entry point of a rational rejects the literal instead.  A child
        # process, so a regression fails on the timeout rather than hanging.
        # A literal in a spec file is named by its field, the flag's is not.
        huge = "1e999999999"
        argv = ["synth", write_spec(tmp_path, HD_SPEC), "--threshold", huge]
        field = ""
        if where == "spec":
            argv = ["synth", write_spec(tmp_path, dict(HD_SPEC, threshold=huge))]
            field = f"{argv[1]}: threshold: "
        elif where == "distribution":
            rows = [dict(tr, prob=huge) for tr in UNIFORM_DATA["transitions"]]
            argv = ["synth", write_spec(tmp_path, dict(
                HD_SPEC, distribution=dict(UNIFORM_DATA, transitions=rows)))]
            field = "distribution transition prob: "
        code = ("import json, sys, time; from hqsynth.cli import main; "
                "t = time.perf_counter(); c = main(json.loads(sys.argv[1])); "
                "print(json.dumps([c, time.perf_counter() - t]))")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                              capture_output=True, text=True, env=subprocess_env(),
                              timeout=60)
        status, seconds = json.loads(proc.stdout)
        assert status == 1
        assert proc.stderr == f"error: {field}bad rational literal '{huge}': " \
                              "exponent notation is not accepted\n"
        assert seconds < 1

    @pytest.mark.parametrize("text, value", [("3/8", Fraction(3, 8)), ("1", 1),
                                             ("0.375", Fraction(3, 8)), (" 1/2 ", Fraction(1, 2))])
    def test_rational_syntax_still_accepted(self, text, value):
        assert parse_fraction(text) == value

    def test_usage_errors_exit_one_not_two(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1
        assert run(capsys)[0] == 1
        assert run(capsys, "eval", "only-one-arg")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_state_ceiling_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HQSYNTH_STATE_CEILING", "2")
        spec = write_spec(tmp_path, HD_SPEC)
        code, _, err = run(capsys, "synth", spec)
        assert code == 1
        assert "state ceiling" in err

    def test_state_ceiling_below_one_is_refused(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, HD_SPEC)
        for raw in ("0", "-5", "abc"):
            monkeypatch.setenv("HQSYNTH_STATE_CEILING", raw)
            assert run(capsys, "synth", spec) == (
                1, "", f"error: HQSYNTH_STATE_CEILING must be a positive integer, "
                       f"got {raw!r}\n")


def test_console_script_entry_point(tmp_path):
    spec = write_spec(tmp_path, HD_SPEC)
    proc = subprocess.run([sys.executable, "-m", "hqsynth.cli", "synth", spec,
                           "--json"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["expected"] == "3/4"


def test_import_leaves_out_dataclasses_and_inspect():
    # start-up cost guard: every command pays for what `hqsynth.cli` imports.
    # -S keeps site hooks of the environment from importing either module.
    src = os.path.dirname(os.path.dirname(os.path.abspath(hqsynth.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hqsynth.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
