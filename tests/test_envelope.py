"""The envelope: specs of the scaling families near the state ceiling, with
their outcome and state counts pinned.  The counts are deterministic, so a
change that shrinks an automaton re-records its row and declares it, and one
that grows an automaton or turns an answer into an `error:` line fails here.

Each row is one `synth` through `cli.main`, and for the X chain `eval` and
`simulate` too; the reports and `error:` lines are compared whole.
"""

import json

import pytest

from hqsynth.cli import main

from scenarios import battery_formula


def nested_until(levels: int) -> str:
    """`b U (b U ... (b U a))` with `levels` untils."""
    formula = "a"
    for _ in range(levels):
        formula = f"b U ({formula})"
    return formula


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, formula: str, inputs, outputs) -> str:
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"inputs": inputs, "outputs": outputs, "formula": formula}),
                    encoding="utf-8")
    return str(spec)


def synth(tmp_path, capsys, formula: str, inputs, outputs):
    return run(capsys, ["synth", write_spec(tmp_path, formula, inputs, outputs)])


def report(expected, decimal, automata, states, transducer, values) -> str:
    """A `synth` report whose MDP and product have `states` states."""
    return (f"result = OK\nexpected = {expected}\ndecimal = {decimal}\n"
            f"automaton_states = {automata}\nmdp_states = {states}\n"
            f"product_states = {states}\ntransducer_states = {transducer}\n"
            f"values = {values}\n")


@pytest.fixture(autouse=True)
def default_ceiling(monkeypatch):
    monkeypatch.delenv("HQSYNTH_STATE_CEILING", raising=False)


class TestNestedUntil:
    """`b U (b U ... a)` over input a and output b."""

    def test_eight_levels(self, tmp_path, capsys):
        assert synth(tmp_path, capsys, nested_until(8), ["a"], ["b"]) == (0, (
            "result = OK\n"
            "expected = 1\n"
            "decimal = 1.0\n"
            "automaton_states = 6, 936\n"
            "mdp_states = 938\n"
            "product_states = 938\n"
            "transducer_states = 80\n"
            "values = 0, 1\n"), "")

    def test_ten_levels_is_refused(self, tmp_path, capsys):
        # Today's answer, not a settled one: the tableau's kept composition
        # prefixes count against the ceiling, so the chain that synthesized
        # with DPW 6 + 1850 before they were kept is refused.  ROADMAP item
        # 13 decides whether this refusal stays; if it goes, this row pins
        # the answer instead.
        assert synth(tmp_path, capsys, nested_until(10), ["a"], ["b"]) == (
            1, "", "error: tableau memos exceeded the state ceiling of 1000000; "
                   "set HQSYNTH_STATE_CEILING to raise it\n")


HARD_DRIVE = "min(max(!(X data), !close), max(max(!(!(X data)), close), factor{1/2} (X close)))"
GF3 = "(G F i0) | (G F i1) & (F i0 | !i0) & (F i1 | !i1) & (F i2 | !i2)"

# family -> (formula, inputs, outputs, its whole `synth` report)
FAMILIES = {
    "G^4": ("G " * 4 + "a", ["a"], ["b"], report(0, 0.0, "66, 3", 66, 66, "0, 1")),
    "G^8": ("G " * 8 + "a", ["a"], ["b"], report(0, 0.0, "500, 3", 500, 500, "0, 1")),
    "gf-or": ("G F i0 | G F i1", ["i0", "i1"], ["o"], report(1, 1.0, "12, 60", 79, 79, "0, 1")),
    "gf3": (GF3, ["i0", "i1", "i2"], ["o"], report(1, 1.0, "12, 2249", 2362, 2362, "0, 1")),
    "hard-drive-6-unused-outputs": (HARD_DRIVE, ["data"], ["close"] + [f"u{k}" for k in range(6)],
                                    report("3/4", 0.75, "5, 4, 5", 6, 6, "0, 1/2, 1")),
    "battery3": (str(battery_formula(3)), ["station"], ["replace"],
                 report("1/2", 0.5, "16, 12, 10, 8", 21, 11, "0, 1/3, 2/3, 1")),
    "battery4": (str(battery_formula(4)), ["station"], ["replace"],
                 report("1/2", 0.5, "20, 16, 14, 12, 10", 29, 13, "0, 1/4, 1/2, 3/4, 1")),
    "battery5": (str(battery_formula(5)), ["station"], ["replace"],
                 report("1/2", 0.5, "24, 20, 18, 16, 14, 12", 38, 15,
                        "0, 1/5, 2/5, 3/5, 4/5, 1")),
    "battery6": (str(battery_formula(6)), ["station"], ["replace"],
                 report("1/2", 0.5, "28, 24, 22, 20, 18, 16, 14", 48, 17,
                        "0, 1/6, 1/3, 1/2, 2/3, 5/6, 1")),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scaling_family(tmp_path, capsys, family):
    formula, inputs, outputs, want = FAMILIES[family]
    assert synth(tmp_path, capsys, formula, inputs, outputs) == (0, want, "")


class TestNextChain:
    """`X^60 i` over input i and output o.  Its covers have one branch each,
    so no branch is extended and the tableau memos are never checked: below
    its 62 states the tableau automaton's own guard refuses, in `synth`,
    `eval` and `simulate` alike."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "X " * 60 + "i", ["i"], ["o"])
        ctrl = str(tmp_path / "ctrl.json")
        assert run(capsys, ["synth", spec, "--out", ctrl])[0] == 0
        return [["synth", spec], ["eval", spec, ctrl],
                ["simulate", spec, ctrl, "--samples", "20", "--seed", "0"]]

    @pytest.mark.parametrize("ceiling, what", [
        (20, "tableau automaton"), (61, "tableau automaton"), (62, "determinized automaton"),
        (63, "linear system"), (100, "linear system")])
    def test_refused(self, files, capsys, monkeypatch, ceiling, what):
        monkeypatch.setenv("HQSYNTH_STATE_CEILING", str(ceiling))
        for argv in files:
            assert run(capsys, argv) == (
                1, "", f"error: {what} exceeded the state ceiling of {ceiling}; "
                       "set HQSYNTH_STATE_CEILING to raise it\n"), argv[0]

    def test_a_lower_ceiling_refuses_what_was_served(self, files, capsys, monkeypatch):
        # The analyses kept for `eval` and `simulate` at the default ceiling
        # are not served under one that refuses their automata or their
        # linear system.
        answers = [run(capsys, argv) for argv in files[1:]]
        assert [code for code, _, _ in answers] == [0, 0]
        for ceiling, what in ((62, "determinized automaton"), (63, "linear system")):
            monkeypatch.setenv("HQSYNTH_STATE_CEILING", str(ceiling))
            for argv in files[1:]:
                assert run(capsys, argv) == (
                    1, "", f"error: {what} exceeded the state ceiling of {ceiling}; "
                           "set HQSYNTH_STATE_CEILING to raise it\n"), argv[0]
        monkeypatch.delenv("HQSYNTH_STATE_CEILING")
        assert [run(capsys, argv) for argv in files[1:]] == answers

    def test_answers_at_200(self, files, capsys, monkeypatch):
        monkeypatch.setenv("HQSYNTH_STATE_CEILING", "200")
        assert [run(capsys, argv) for argv in files] == [
            (0, report("1/2", 0.5, "63, 63", 63, 63, "0, 1"), ""),
            (0, "expected = 1/2\ndecimal = 0.5\n", ""),
            (0, "samples = 20\nseed = 0\nestimate = 2/5\nestimate_decimal = 0.4\n"
                "exact = 1/2\nexact_decimal = 0.5\nstderr = 0.11239029738980327\n", "")]
