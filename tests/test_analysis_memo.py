"""The evaluators' memo of analyses: one product chain per content key,
served to synth's certificate, `eval` and `simulate` alike, and never an
answer that the same call would not give with every cache cleared."""

import contextlib
import io
import os
import random
from fractions import Fraction

import pytest

from hqsynth import automata, cli, evaluation
from hqsynth.booleanize import SCOPE
from hqsynth.cli import main
from hqsynth.common import StateLimitExceeded, all_letters
from hqsynth.evaluation import (
    almost_sure_value,
    conditional_almost_sure_floor,
    conditional_expected_value,
    expected_value,
    simulate,
)
from hqsynth.formulas import Atom, Factor, parse
from hqsynth.mdp import DistributionMDP
from hqsynth.transducers import Transducer

import scenarios as S
from oracles import random_formula, random_transducer, state_ceiling_of

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "inputs")
E = frozenset()


def clear_caches():
    """Forget every automaton, parsed file and analysis the process keeps."""
    automata._dpw_cache.clear()
    SCOPE.serve(None)
    cli._parsed_files.clear()
    evaluation._analyses.clear()


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def answer(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except (ValueError, StateLimitExceeded) as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def chains(monkeypatch):
    """The arguments of every product chain built from here on, with an
    empty memo of analyses."""
    built = []
    real = evaluation.product_chain
    monkeypatch.setattr(evaluation, "product_chain",
                        lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(evaluation, "_analyses", {})
    return built


def noise_process(rows):
    """An output-blind process over input `noise` and output `encode`: from
    either state, `rows` = [(next state, probability), ...]; state 1 emits
    noise."""
    trans = {(s, o): rows for s in (0, 1) for o in all_letters(frozenset({"encode"}))}
    return DistributionMDP({"noise"}, {"encode"}, [E, frozenset({"noise"})], 0, trans)


# --- one chain per analysis ----------------------------------------------


@pytest.mark.parametrize("name, extra", [
    ("hard_drive", []), ("hard_drive", ["--threshold", "1/2"]),
    ("gf2_sticky", ["--threshold", "1/2"]), ("until_o", [])])
def test_synth_then_eval_and_simulate_build_one_chain(chains, tmp_path, name, extra):
    spec, ctrl = os.path.join(INPUTS, name + ".json"), str(tmp_path / "ctrl.json")
    argvs = [["synth", spec, "--out", ctrl, *extra],
             ["eval", spec, ctrl, "--mode", "expected"],
             ["eval", spec, ctrl, "--mode", "almost-sure"],
             ["simulate", spec, ctrl, "--samples", "50", "--seed", "3"]]
    warm = [run(argvs[0])]
    # the certificate's expected value and floor read one analysis
    assert len(chains) == 1
    warm += [run(argv) for argv in argvs[1:]]
    assert len(chains) == 1
    cold = []
    for argv in argvs:
        clear_caches()
        cold.append(run(argv))
    assert warm == cold
    assert [code for code, _, _ in warm] == [0, 0, 0, 0]


def test_an_assumption_is_part_of_the_key(chains, tmp_path):
    spec, ctrl = os.path.join(INPUTS, "message_assume.json"), str(tmp_path / "ctrl.json")
    assert run(["synth", spec, "--out", ctrl])[0] == 0
    assert len(chains) == 1  # conditional, with the assumption's automaton
    assert run(["eval", spec, ctrl, "--mode", "conditional"])[0] == 0
    assert len(chains) == 1
    for mode in ("expected", "almost-sure"):
        assert run(["eval", spec, ctrl, "--mode", mode])[0] == 0
    assert len(chains) == 2  # unconditional, without it


def test_a_copy_of_the_content_is_served(chains):
    phi, T = S.hard_drive_formula(), S.close_second_cycle()
    want = expected_value(T, phi)
    copy = Transducer(set(T.inputs), set(T.outputs), reversed(T.states), T.initial,
                      dict(reversed(list(T.delta.items()))), dict(T.labels))
    assert expected_value(copy, phi) == want
    assert almost_sure_value(copy, phi) == almost_sure_value(T, phi)
    assert len(chains) == 1


def _changed(T, rng):
    """Copies of T with one transition, or one state's label, changed."""
    (q, i), t = rng.choice(sorted(T.delta.items(), key=repr))
    delta = dict(T.delta)
    delta[(q, i)] = next(s for s in T.states if s != t)
    p = rng.choice(T.states)
    labels = dict(T.labels)
    labels[p] = rng.choice([o for o in all_letters(T.outputs) if o != T.labels[p]])
    return [Transducer(T.inputs, T.outputs, T.states, T.initial, delta, T.labels),
            Transducer(T.inputs, T.outputs, T.states, T.initial, T.delta, labels)]


def test_other_transitions_or_labels_are_analysed_anew(chains):
    rng = random.Random(5)
    phi = parse("max(X o, G F min(i, X o))")
    for _ in range(6):
        T = random_transducer(rng, {"i"}, {"o"}, 3)
        for other in _changed(T, rng):
            expected_value(T, phi)
            almost_sure_value(T, phi)
            before = len(chains)
            got = (expected_value(other, phi), almost_sure_value(other, phi))
            assert len(chains) == before + 1
            evaluation._analyses.clear()
            assert got == (expected_value(other, phi), almost_sure_value(other, phi))


def test_a_transducer_changed_in_place_is_analysed_anew(chains):
    phi = parse("G F o")
    T = Transducer({"i"}, {"o"}, [0, 1], 0,
                   {(0, E): 0, (0, frozenset({"i"})): 1, (1, E): 1, (1, frozenset({"i"})): 1},
                   {0: E, 1: E})
    assert expected_value(T, phi) == 0
    T.labels[1] = frozenset({"o"})
    assert expected_value(T, phi) == 1
    T.delta[(0, frozenset({"i"}))] = 0
    assert expected_value(T, phi) == 0
    assert len(chains) == 3


def test_a_process_with_other_rows_is_analysed_anew(chains):
    phi, T = S.message_formula(), S.encode_cycles({0, 1})
    half = noise_process([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    want = expected_value(T, phi, half)
    # the same rows in a process of their own are served
    assert expected_value(T, phi, noise_process([(0, Fraction(1, 2)),
                                                 (1, Fraction(1, 2))])) == want
    assert len(chains) == 1
    quarter = noise_process([(0, Fraction(3, 4)), (1, Fraction(1, 4))])
    got = expected_value(T, phi, quarter)
    assert len(chains) == 2
    evaluation._analyses.clear()
    assert got == expected_value(T, phi, quarter) != want
    # uniform inputs are a process of their own
    expected_value(T, phi)
    assert len(chains) == 4


def test_a_failed_analysis_is_not_kept(chains):
    enc, noise = frozenset({"encode"}), frozenset({"noise"})
    reactive = Transducer(noise, enc, [0, 1, 2], 0,
                          {(0, E): 1, (0, noise): 2, (1, E): 1, (1, noise): 2,
                           (2, E): 1, (2, noise): 2},
                          {0: E, 1: E, 2: enc})
    sensitive = DistributionMDP(noise, enc, [E, noise], 0, {
        (s, o): [(0, Fraction(1, 2)), (1, Fraction(1, 2))] if o else [(0, Fraction(1))]
        for s in (0, 1) for o in all_letters(enc)})
    for _ in range(2):
        with pytest.raises(ValueError, match="output-sensitive"):
            expected_value(reactive, S.message_formula(), sensitive)
    assert evaluation._analyses == {}
    phi, T = S.hard_drive_formula(), S.close_second_cycle()
    with state_ceiling_of(3):
        for _ in range(2):
            with pytest.raises(StateLimitExceeded):
                expected_value(T, phi)
    assert evaluation._analyses == {}
    assert expected_value(T, phi) == Fraction(3, 4)
    assert len(evaluation._analyses) == 1


def test_the_memo_is_bounded_and_least_recently_used(chains):
    T, o = S.close_second_cycle(), Atom("close")

    def weighted(k):
        return Factor(Fraction(k, 1000), o)

    expected_value(T, weighted(1))
    for k in range(2, evaluation.ANALYSES_SIZE + 10):
        if k % 8 == 0:
            # a hit makes the first analysis the most recently used
            before = len(chains)
            expected_value(T, weighted(1))
            assert len(chains) == before
        expected_value(T, weighted(k))
        assert len(evaluation._analyses) <= evaluation.ANALYSES_SIZE
    assert len(evaluation._analyses) == evaluation.ANALYSES_SIZE
    before = len(chains)
    expected_value(T, weighted(1))
    assert len(chains) == before
    expected_value(T, weighted(2))  # dropped long ago
    assert len(chains) == before + 1


# --- warm equals cold ----------------------------------------------------

# (spec, controller) pairs of bench/inputs
BENCH_PAIRS = [("hard_drive", None), ("until_o", None), ("gf2", "gf2_controller"),
               ("gf2_sticky", "gf2_controller"), ("message", "encode_always"),
               ("message_assume", "encode_always")]


@pytest.fixture(scope="module")
def bench_argvs(tmp_path_factory):
    """`eval` in every exact mode and `simulate` of each pair; a spec
    without a controller gets the one `synth` writes for it."""
    out = tmp_path_factory.mktemp("controllers")
    argvs = []
    for name, ctrl in BENCH_PAIRS:
        spec = os.path.join(INPUTS, name + ".json")
        if ctrl is None:
            ctrl = str(out / f"{name}.ctrl.json")
            assert run(["synth", spec, "--out", ctrl])[0] == 0
        else:
            ctrl = os.path.join(INPUTS, ctrl + ".json")
        modes = ["expected", "almost-sure"] + (["conditional"] if "assume" in name else [])
        argvs += [["eval", spec, ctrl, "--mode", mode] for mode in modes]
        argvs.append(["simulate", spec, ctrl, "--samples", "40", "--seed", "9"])
    return argvs


def _random_process(rng):
    """A two-state process over input i and output o, whose rows follow
    the output or not."""
    def row():
        p = Fraction(rng.randint(1, 3), 4)
        return [(0, p), (1, 1 - p)]

    blind = rng.random() < 0.5
    shared = [row(), row()]
    trans = {(s, o): shared[s] if blind else row()
             for s in (0, 1) for o in all_letters(frozenset({"o"}))}
    return DistributionMDP({"i"}, {"o"}, [E, frozenset({"i"})], 0, trans)


def _random_calls(rng, count):
    """Library calls of every mode on random small specs over input i and
    output o: a random controller, formula, assumption and input process."""
    calls = []
    for _ in range(count):
        T = random_transducer(rng, {"i"}, {"o"}, rng.randint(1, 3))
        phi = random_formula(rng, {"i", "o"}, rng.randint(2, 5))
        psi = random_formula(rng, {"i"}, rng.randint(1, 3), boolean=True)
        dist = _random_process(rng) if rng.random() < 0.5 else None
        calls += [lambda T=T, phi=phi, dist=dist: expected_value(T, phi, dist),
                  lambda T=T, phi=phi, dist=dist: almost_sure_value(T, phi, dist),
                  lambda T=T, phi=phi, psi=psi, dist=dist:
                      conditional_expected_value(T, phi, psi, dist),
                  lambda T=T, phi=phi, psi=psi, dist=dist:
                      conditional_almost_sure_floor(T, phi, psi, dist),
                  lambda T=T, phi=phi, dist=dist: simulate(T, phi, 30, 4, dist)]
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_warm_answers_equal_cold_answers(bench_argvs, seed):
    rng = random.Random(seed)
    calls = [lambda argv=argv: run(argv) for argv in bench_argvs] + _random_calls(rng, 6)
    rng.shuffle(calls)
    warm = [answer(call) for call in calls]
    cold = []
    for call in calls:
        clear_caches()
        cold.append(answer(call))
    assert warm == cold
