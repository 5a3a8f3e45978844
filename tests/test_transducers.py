"""Transducer structure, execution semantics, serialization."""

import json
import os
import random

import pytest

from hqsynth.common import all_letters
from hqsynth.formulas import LassoWord
from hqsynth.transducers import (
    Transducer,
    computation_lasso,
    exec_inputs,
    load_transducer,
    save_transducer,
    transducer_from_json,
    transducer_to_dot,
    transducer_to_json,
)

from oracles import random_lasso, random_transducer

E = frozenset()
CLOSE = frozenset({"close"})
DATA = frozenset({"data"})


def close_second_cycle():
    lets = [E, DATA]
    return Transducer(frozenset({"data"}), frozenset({"close"}),
                      [0, 1, 2, 3], 0,
                      {(q, i): min(q + 1, 3) for q in range(4) for i in lets},
                      {0: E, 1: E, 2: CLOSE, 3: E})


class TestValidation:
    def test_partial_transition_table_rejected(self):
        with pytest.raises(ValueError):
            Transducer(frozenset({"a"}), frozenset(), [0], 0,
                       {(0, frozenset({"a"})): 0}, {0: E})

    def test_label_outside_outputs_rejected(self):
        with pytest.raises(ValueError):
            Transducer(frozenset(), frozenset(), [0], 0,
                       {(0, E): 0}, {0: CLOSE})

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError):
            Transducer(frozenset(), frozenset(), [0], 7, {(0, E): 0}, {0: E})

    def test_transition_on_a_letter_outside_the_inputs_rejected(self):
        delta = {(0, E): 0, (0, DATA): 0, (0, CLOSE): 0}
        with pytest.raises(ValueError, match="outside the states and inputs"):
            Transducer(frozenset({"data"}), frozenset(), [0], 0, delta, {0: E})

    def test_transition_from_an_unknown_state_rejected(self):
        delta = {(0, E): 0, (0, DATA): 0, (9, E): 0}
        with pytest.raises(ValueError, match="from 9 on"):
            Transducer(frozenset({"data"}), frozenset(), [0], 0, delta, {0: E})

    @pytest.mark.parametrize("extra,why", [
        ({"from": 0, "input": [], "to": 3}, "given twice"),
        ({"from": 0, "input": ["zz"], "to": 3}, "outside the states and inputs"),
        ({"from": 7, "input": [], "to": 3}, "outside the states and inputs"),
    ], ids=["repeated", "outside-inputs", "unknown-state"])
    def test_ambiguous_controller_file_is_an_error(self, tmp_path, capsys, extra, why):
        # a controller file that gives a (state, input) pair twice, or a
        # transition the machine cannot take, would run as some other machine
        from hqsynth.cli import main

        doc = transducer_to_json(close_second_cycle())
        doc["transitions"].append(extra)
        ctrl = tmp_path / "ctrl.json"
        ctrl.write_text(json.dumps(doc), encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"inputs": ["data"], "outputs": ["close"],
                                    "formula": "F close"}), encoding="utf-8")
        assert main(["eval", str(spec), str(ctrl)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert why in captured.err

    @pytest.mark.parametrize("how", ["renamed", "beside"])
    def test_boolean_state_ids_rejected(self, tmp_path, capsys, how):
        # JSON true is not the state 1: renamed, it would run as state 1;
        # next to 1, it would be reported as a duplicate id
        from hqsynth.cli import main

        inputs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "bench", "inputs")
        with open(os.path.join(inputs, "gf2_controller.json")) as fh:
            doc = json.load(fh)
        if how == "renamed":
            doc["states"] = [{**st, "id": True} if st["id"] == 1 else st
                             for st in doc["states"]]
            doc["transitions"] = [{k: True if k in ("from", "to") and v == 1 else v
                                   for k, v in tr.items()} for tr in doc["transitions"]]
        else:
            doc["states"].append({"id": True, "label": []})
        with pytest.raises(ValueError, match="must be integers or strings, not True"):
            transducer_from_json(doc)
        ctrl = tmp_path / "ctrl.json"
        ctrl.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["eval", os.path.join(inputs, "gf2.json"), str(ctrl)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: controller state ids must be integers "
                                "or strings, not True\n")

    def test_input_letters_are_built_once(self, monkeypatch):
        import hqsynth.transducers as transducers

        calls = []
        monkeypatch.setattr(transducers, "all_letters",
                            lambda atoms: calls.append(atoms) or all_letters(atoms))
        T = random_transducer(random.Random(5), {"i0", "i1"}, {"o"}, 40)
        assert len(T) == 40
        assert calls == [frozenset({"i0", "i1"})]


class TestExecution:
    def test_outputs_come_from_the_entered_state(self):
        T = close_second_cycle()
        letters = exec_inputs(T, [DATA, E, E])
        assert letters == [DATA, CLOSE, E]

    def test_computation_matches_manual_unroll(self):
        rng = random.Random(501)
        for _ in range(40):
            T = random_transducer(rng, ["i"], ["o"], rng.randint(1, 4))
            w = random_lasso(rng, ["i"])
            comp = computation_lasso(T, w)
            q = T.initial
            for j in range(30):
                q = T.step(q, w.letter(j))
                assert comp.letter(j) == (w.letter(j) | T.output(q))

    def test_computation_is_a_lasso_over_both_alphabets(self):
        T = close_second_cycle()
        w = LassoWord.make([DATA], [E, DATA], frozenset({"data"}))
        comp = computation_lasso(T, w)
        assert comp.atoms == frozenset({"data", "close"})
        assert len(comp.period) % len(w.period) == 0


class TestSerialization:
    def test_json_round_trip_preserves_behaviour(self):
        rng = random.Random(502)
        for _ in range(20):
            T = random_transducer(rng, ["i"], ["o", "p"], rng.randint(1, 5))
            U = transducer_from_json(transducer_to_json(T))
            assert U.inputs == T.inputs and U.outputs == T.outputs
            q_t, q_u = T.initial, U.initial
            for _ in range(40):
                i = rng.choice(all_letters(T.inputs))
                q_t, q_u = T.step(q_t, i), U.step(q_u, i)
                assert T.output(q_t) == U.output(q_u)

    def test_file_round_trip_and_determinism(self, tmp_path):
        T = close_second_cycle()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_transducer(T, p1)
        save_transducer(T, p2)
        assert p1.read_bytes() == p2.read_bytes()
        U = load_transducer(p1)
        assert exec_inputs(U, [DATA, E, E]) == [DATA, CLOSE, E]

    def test_schema_fields(self):
        doc = transducer_to_json(close_second_cycle())
        assert set(doc) == {"inputs", "outputs", "states", "initial",
                            "transitions"}
        assert all(set(s) == {"id", "label"} for s in doc["states"])
        assert all(set(t) == {"from", "input", "to"}
                   for t in doc["transitions"])
        json.dumps(doc)  # serializable as-is

    def test_dot_export(self):
        dot = transducer_to_dot(close_second_cycle())
        assert dot.startswith("digraph")
        assert "close" in dot
