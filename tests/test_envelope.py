"""The envelope: specs of the scaling families near the state ceiling, with
their outcome and state counts pinned.  The counts are deterministic, so a
change that shrinks an automaton re-records its row and declares it, and one
that grows an automaton or turns an answer into an `error:` line fails here.

Each row is one `synth` through `cli.main`; the reports are compared whole.
"""

import json

import pytest

from hqsynth.cli import main


def nested_until(levels: int) -> str:
    """`b U (b U ... (b U a))` with `levels` untils."""
    formula = "a"
    for _ in range(levels):
        formula = f"b U ({formula})"
    return formula


def synth(tmp_path, capsys, formula: str, inputs, outputs):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"inputs": inputs, "outputs": outputs, "formula": formula}),
                    encoding="utf-8")
    code = main(["synth", str(spec)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
