"""Acceptance gate: ten numbered criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints a PASS line visible under ``-s``).  Every
comparison is exact rational equality; the two timed suites assert their
own wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

from hqsynth.automata import dpw_for, run_lasso
from hqsynth.booleanize import EqualTo
from hqsynth.cli import main
from hqsynth.evaluation import (
    AssumptionHasZeroProbability,
    almost_sure_value,
    conditional_almost_sure_floor,
    conditional_expected_value,
    expected_value,
    worst_case_value,
)
from hqsynth.formulas import eval_lasso, implies, parse, values
from hqsynth.mdp import (
    almost_sure_parity,
    cwr_states,
    max_end_components,
    solve_mean_payoff,
)
from hqsynth.synthesis import (
    SynthesisResult,
    SynthesisSpec,
    achievability_mdp,
    prob_of_assumption,
    synthesize,
)

import scenarios as S
from oracles import (
    oracle_cwr,
    oracle_mean_payoff,
    oracle_mecs,
    oracle_parity_win,
    random_formula,
    random_lasso,
    random_parity_mdp,
    random_pre_mdp,
    random_reward_mdp,
    random_transducer,
)

HALF = Fraction(1, 2)


def _ok(n, detail):
    print(f"PASS criterion {n}: {detail}")


def test_criterion_01_hard_drive_evaluation():
    t0 = time.perf_counter()
    phi = S.hard_drive_formula()
    T1, T2 = S.close_first_cycle(), S.close_second_cycle()
    assert expected_value(T1, phi) == HALF
    assert expected_value(T2, phi) == Fraction(3, 4)
    assert worst_case_value(T1, phi) == 0
    assert almost_sure_value(T1, phi) == 0
    assert worst_case_value(T2, phi) == HALF
    assert almost_sure_value(T2, phi) == HALF
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(1, f"six hard-drive values exact in {elapsed:.2f}s")


def test_criterion_02_hard_drive_synthesis_optimal():
    phi = S.hard_drive_formula()
    res = synthesize(SynthesisSpec(S.HD_INPUTS, S.HD_OUTPUTS, phi))
    assert res.expected_value == Fraction(3, 4)
    assert expected_value(res.transducer, phi) == Fraction(3, 4)
    RM, _ = achievability_mdp(phi, S.HD_INPUTS, S.HD_OUTPUTS)
    best = oracle_mean_payoff(RM)
    assert best == Fraction(3, 4)
    _ok(2, "synthesized 3/4; exhaustive memoryless enumeration finds no more")


def test_criterion_03_message_scenario():
    phi = S.message_formula()
    T3 = S.encode_cycles({0, 1, 2, 3})
    assert worst_case_value(T3, phi) == Fraction(3, 4)
    assert almost_sure_value(T3, phi) == Fraction(3, 4)
    assert expected_value(T3, phi) == Fraction(3, 4)
    T2 = S.encode_cycles({0, 1})
    assert expected_value(T2, phi) == Fraction(5, 8)

    res = synthesize(SynthesisSpec(S.MSG_INPUTS, S.MSG_OUTPUTS, phi))
    assert res.expected_value == Fraction(3, 4)

    res = synthesize(SynthesisSpec(S.MSG_INPUTS, S.MSG_OUTPUTS, phi,
                                   threshold=Fraction(3, 8)))
    assert isinstance(res, SynthesisResult)
    assert res.expected_value >= Fraction(5, 8)
    assert res.almost_sure_floor >= Fraction(3, 8)
    assert almost_sure_value(res.transducer, phi) >= Fraction(3, 8)
    _ok(3, "message values exact; thresholded synthesis certified")


def test_criterion_04_assumption_scenario():
    psi = S.pair_constant_noise_assumption()
    assert prob_of_assumption(psi, S.MSG_INPUTS) == Fraction(1, 4)
    phi = S.message_formula()
    T4 = S.reactive_encoder(False)
    T5 = S.reactive_encoder(True)
    assert conditional_expected_value(T4, phi, psi) == Fraction(11, 16)
    assert conditional_expected_value(T5, phi, psi) == Fraction(13, 16)
    res = synthesize(SynthesisSpec(S.MSG_INPUTS, S.MSG_OUTPUTS, phi,
                                   assumption=psi))
    assert res.expected_value == Fraction(13, 16)
    assert res.assumption_probability == Fraction(1, 4)
    assert conditional_expected_value(res.transducer, phi, psi) == Fraction(13, 16)
    _ok(4, "assumption probability 1/4; conditional values 11/16 and 13/16; "
           "conditional synthesis reaches 13/16")


def test_criterion_05_persistence_has_probability_zero():
    assert prob_of_assumption(parse("F G !req"), frozenset({"req"})) == 0
    _ok(5, "a uniformly random input sequence eventually-always avoids req "
           "with probability exactly 0")


def test_criterion_06_battery_closed_form():
    k, t, p = 4, 2, HALF
    oracle = S.battery_closed_form(k, t, p)
    assert oracle == Fraction(5, 8)
    got = expected_value(S.battery_replace_from(t, k), S.battery_formula(k))
    assert got == oracle
    _ok(6, f"battery value {got} matches the closed form at (k,t,p)=({k},{t},{p})")


def test_criterion_07_value_automata_partition_language():
    t0 = time.perf_counter()
    rng = random.Random(20260823)
    atoms = frozenset({"p", "q"})
    n_formulas, n_checks = 0, 0
    for _ in range(200):
        f = random_formula(rng, ["p", "q"], rng.randint(1, 8))
        vals = values(f, atoms)
        assert len(vals) <= 2 ** 8
        dpws = [dpw_for(f, EqualTo(v), atoms) for v in vals]
        for _ in range(20):
            w = random_lasso(rng, ["p", "q"])
            got = eval_lasso(f, w)
            for v, A in zip(vals, dpws):
                assert run_lasso(A, w) == (got == v), (f, v, w)
                n_checks += 1
        n_formulas += 1
    elapsed = time.perf_counter() - t0
    assert n_formulas >= 200 and elapsed < 300.0
    _ok(7, f"{n_formulas} formulas, {n_checks} membership checks, "
           f"{elapsed:.2f}s, no disagreement")


def test_criterion_08_mdp_algorithms_match_exhaustive_oracles():
    rng = random.Random(808)
    for k in range(100):
        M = random_pre_mdp(rng, rng.randint(2, 8))
        got = sorted((frozenset(Scc) for Scc, _ in max_end_components(M)), key=min)
        assert got == oracle_mecs(M), k

        P = random_parity_mdp(rng, rng.randint(2, 8))
        cw, _ = cwr_states(P)
        assert cw == oracle_cwr(P), k
        W, _ = almost_sure_parity(P)
        assert W == oracle_parity_win(P), k

        R = random_reward_mdp(rng, rng.randint(2, 8))
        v, _ = solve_mean_payoff(R)
        assert v == oracle_mean_payoff(R), k
    _ok(8, "100 random MDPs of each flavor match subset and strategy "
           "enumeration exactly")


def test_criterion_09_conditional_threshold_equals_guarded_unconditional():
    rng = random.Random(909)
    done = 0
    while done < 50:
        T = random_transducer(rng, ["i"], ["o"], rng.randint(1, 3))
        phi = random_formula(rng, ["i", "o"], rng.randint(1, 6))
        psi = random_formula(rng, ["i"], rng.randint(1, 4), boolean=True)
        try:
            floor = conditional_almost_sure_floor(T, phi, psi)
        except AssumptionHasZeroProbability:
            continue
        guarded = almost_sure_value(T, implies(psi, phi))
        thresholds = set(values(phi, frozenset({"i", "o"})))
        thresholds |= {Fraction(0), HALF, Fraction(1)}
        for t in thresholds:
            assert (floor >= t) == (guarded >= t), (floor, guarded, t)
        done += 1
    _ok(9, f"{done} instances agree at every candidate threshold")


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    spec = tmp_path / "hd.json"
    spec.write_text(json.dumps({
        "inputs": ["data"], "outputs": ["close"],
        "formula": "((X data) -> !close)"
                   " & (((!(X data)) -> close) | factor{1/2} (X close))",
    }), encoding="utf-8")
    small = tmp_path / "small.json"
    small.write_text(json.dumps({
        "inputs": ["i"], "outputs": ["o"],
        "formula": "wavg{1/2}(X i, o)", "assumption": "i",
    }), encoding="utf-8")

    def once(tag):
        outdir = tmp_path / tag
        outdir.mkdir()
        ctrl = outdir / "ctrl.json"
        texts = []
        for argv in (
            ["synth", str(spec), "--out", str(ctrl),
             "--dot", str(outdir / "ctrl.dot"), "--json"],
            ["synth", str(spec), "--threshold", "1/2"],
            ["synth", str(small), "--json"],
            ["eval", str(spec), str(ctrl)],
            ["eval", str(spec), str(ctrl), "--mode", "worst-case"],
            ["eval", str(spec), str(ctrl), "--mode", "almost-sure", "--json"],
            ["simulate", str(spec), str(ctrl), "--samples", "300", "--seed", "5"],
        ):
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        return texts, files

    first = once("run1")
    second = once("run2")
    assert first == second
    _ok(10, "every command reproduced byte for byte across runs")
