"""Controller synthesis: optimal values, thresholds, assumptions, and the
shape of extracted controllers."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hqsynth.cli import main
from hqsynth.common import all_letters
from hqsynth.evaluation import (
    almost_sure_value,
    conditional_almost_sure_floor,
    conditional_expected_value,
    expected_value,
    worst_case_value,
)
from hqsynth.formulas import (
    FALSE,
    MAX_NESTING,
    Atom,
    Min,
    Next,
    Not,
    ParseError,
    Until,
    check_nesting,
    parse,
)
from hqsynth.mdp import DistributionMDP
from hqsynth.synthesis import (
    SynthesisResult,
    SynthesisSpec,
    Unrealizable,
    achievability_mdp,
    prob_of_assumption,
    synthesize,
)

import scenarios as S
from oracles import oracle_mean_payoff, random_formula

HALF = Fraction(1, 2)
E = frozenset()


def committed_outputs(T):
    """Every state's successors share a label: the controller decides its
    output before reading the input it reacts to."""
    for q in T.states:
        labels = {T.labels[T.delta[(q, i)]] for i in all_letters(T.inputs)}
        assert len(labels) == 1, q


class TestSpecValidation:
    def test_rejects_bad_specs(self):
        plain = parse("a -> b")
        with pytest.raises(ValueError):
            SynthesisSpec(frozenset("a"), frozenset("a"), plain)
        with pytest.raises(ValueError):
            SynthesisSpec(frozenset("a"), frozenset("b"), parse("a & c"))
        with pytest.raises(ValueError):
            SynthesisSpec(frozenset("a"), frozenset("b"), plain,
                          assumption=parse("factor{1/2} a"))
        with pytest.raises(ValueError):
            SynthesisSpec(frozenset("a"), frozenset("b"), plain,
                          assumption=parse("b"))
        with pytest.raises(ValueError):
            SynthesisSpec(frozenset("a"), frozenset("b"), plain,
                          threshold=Fraction(3, 2))
        with pytest.raises(ValueError):
            SynthesisSpec(frozenset("a"), frozenset("b"), plain,
                          hard_constraint=parse("b"))
        with pytest.raises(ValueError):
            SynthesisSpec(frozenset("a"), frozenset("b"), plain,
                          assumption=parse("a"), threshold=HALF,
                          hard_constraint=parse("b"))

    def test_accepts_plain_strings_for_alphabets(self):
        spec = SynthesisSpec({"a"}, {"b"}, parse("a -> b"))
        assert isinstance(spec.inputs, frozenset)


class TestHardDriveSynthesis:
    def spec(self, **kw):
        return SynthesisSpec(S.HD_INPUTS, S.HD_OUTPUTS, S.hard_drive_formula(), **kw)

    def test_optimal_value(self):
        res = synthesize(self.spec())
        assert isinstance(res, SynthesisResult)
        assert res.expected_value == Fraction(3, 4)
        assert expected_value(res.transducer, S.hard_drive_formula()) == Fraction(3, 4)
        committed_outputs(res.transducer)
        assert res.stats

    def test_solver_agrees_with_enumeration_oracle(self):
        RM, _ = achievability_mdp(S.hard_drive_formula(), S.HD_INPUTS, S.HD_OUTPUTS)
        assert oracle_mean_payoff(RM) == Fraction(3, 4)

    def test_threshold_half_keeps_optimum(self):
        res = synthesize(self.spec(threshold=HALF))
        assert isinstance(res, SynthesisResult)
        assert res.expected_value == Fraction(3, 4)
        assert res.almost_sure_floor >= HALF
        assert almost_sure_value(res.transducer, S.hard_drive_formula()) >= HALF
        committed_outputs(res.transducer)

    def test_threshold_three_fifths_unrealizable(self):
        res = synthesize(self.spec(threshold=Fraction(3, 5)))
        assert isinstance(res, Unrealizable)
        assert res.threshold == Fraction(3, 5)
        assert res.losing_region

    def test_threshold_zero_equals_plain(self):
        res = synthesize(self.spec(threshold=Fraction(0)))
        assert res.expected_value == Fraction(3, 4)

    def test_hard_constraint_mode(self):
        # never close against incoming data, with certainty; the best
        # schedule still earns 3/4 in expectation
        spec = self.spec(threshold=Fraction(1),
                         hard_constraint=parse("(X data) -> !close"))
        res = synthesize(spec)
        assert isinstance(res, SynthesisResult)
        assert res.expected_value == Fraction(3, 4)
        assert almost_sure_value(res.transducer, parse("(X data) -> !close")) == 1

    def test_dispatcher_routes_by_constraints(self):
        assert isinstance(synthesize(self.spec()), SynthesisResult)
        assert isinstance(synthesize(self.spec(threshold=Fraction(3, 5))),
                          Unrealizable)


def uniform_data_process():
    trans = {}
    for s in (0, 1):
        for o in all_letters(S.HD_OUTPUTS):
            trans[(s, o)] = [(0, HALF), (1, HALF)]
    return DistributionMDP(S.HD_INPUTS, S.HD_OUTPUTS,
                           [E, frozenset({"data"})], 0, trans)


def indistinct_process():
    """Two successors with the same observed letter: untrackable."""
    trans = {}
    for s in (0, 1, 2):
        for o in all_letters(S.HD_OUTPUTS):
            trans[(s, o)] = [(1, HALF), (2, HALF)]
    return DistributionMDP(S.HD_INPUTS, S.HD_OUTPUTS, [E, E, E], 0, trans)


class TestDistributions:
    def test_uniform_process_matches_default(self):
        spec = SynthesisSpec(S.HD_INPUTS, S.HD_OUTPUTS, S.hard_drive_formula(),
                             distribution=uniform_data_process())
        res = synthesize(spec)
        assert res.expected_value == Fraction(3, 4)

    def test_untrackable_process_rejected(self):
        spec = SynthesisSpec(S.HD_INPUTS, S.HD_OUTPUTS, S.hard_drive_formula(),
                             distribution=indistinct_process())
        with pytest.raises(ValueError):
            synthesize(spec)


class TestAssumptionProbability:
    def test_single_atom(self):
        msg = S.MSG_INPUTS
        assert prob_of_assumption(parse("noise"), msg) == HALF
        assert prob_of_assumption(parse("!noise"), msg) == HALF
        assert prob_of_assumption(parse("noise & !noise"), msg) == 0

    def test_pairwise_constant(self):
        psi = S.pair_constant_noise_assumption()
        assert prob_of_assumption(psi, S.MSG_INPUTS) == Fraction(1, 4)

    @pytest.mark.parametrize("psi, prob", [("i", Fraction(2, 3)), ("X i", Fraction(8, 9)),
                                           ("G F i", 1), ("G !i", 0)])
    def test_input_process_with_outputs(self, psi, prob):
        # state 1 emits i and is absorbing, state 0 leaves for it with
        # probability 2/3 a step, under either output letter
        i, o = frozenset({"i"}), frozenset({"o"})
        rows = {0: [(0, Fraction(1, 3)), (1, Fraction(2, 3))], 1: [(1, 1)]}
        dist = DistributionMDP(i, o, [frozenset(), i], 0,
                               {(s, out): row for s, row in rows.items() for out in (E, o)})
        assert prob_of_assumption(parse(psi), i, dist) == prob


class TestAssumptionSynthesis:
    def small(self, **kw):
        return SynthesisSpec(frozenset({"i"}), frozenset({"o"}),
                             parse("wavg{1/2}(X i, o)"),
                             assumption=parse("i"), **kw)

    def test_small_conditional_optimum(self):
        # conditioning on the first input leaves the second free, so the
        # best the controller adds is its own constant output: 3/4
        res = synthesize(self.small())
        assert res.expected_value == Fraction(3, 4)
        assert res.assumption_probability == HALF
        got = conditional_expected_value(res.transducer, parse("wavg{1/2}(X i, o)"),
                                         parse("i"))
        assert got == Fraction(3, 4)

    def test_small_conditional_threshold(self):
        res = synthesize(self.small(threshold=HALF))
        assert isinstance(res, SynthesisResult)
        assert res.expected_value == Fraction(3, 4)
        assert res.almost_sure_floor >= HALF
        got = conditional_almost_sure_floor(res.transducer, parse("wavg{1/2}(X i, o)"),
                                            parse("i"))
        assert got >= HALF

    def test_sure_assumption_reduces_to_plain(self):
        spec = SynthesisSpec(frozenset({"i"}), frozenset({"o"}),
                             parse("wavg{1/2}(X i, o)"),
                             assumption=parse("i | !i"))
        res = synthesize(spec)
        assert res.assumption_probability == 1
        assert res.expected_value == Fraction(3, 4)

    def test_dispatcher_routes_assumption(self):
        assert isinstance(synthesize(self.small()), SynthesisResult)
        assert isinstance(synthesize(self.small(threshold=HALF)), SynthesisResult)


class TestRandomSpecs:
    def test_synthesis_beats_sampled_controllers_and_certifies(self):
        # synthesize re-evaluates its own controller internally; here we add an
        # external check plus a sampled lower-bound comparison
        rng = random.Random(701)
        from oracles import random_transducer
        for k in range(10):
            phi = random_formula(rng, ["i", "o"], rng.randint(1, 5))
            spec = SynthesisSpec(frozenset({"i"}), frozenset({"o"}), phi)
            res = synthesize(spec)
            committed_outputs(res.transducer)
            assert expected_value(res.transducer, phi) == res.expected_value
            for _ in range(5):
                rival = random_transducer(rng, ["i"], ["o"], rng.randint(1, 3))
                assert expected_value(rival, phi) <= res.expected_value

    def test_threshold_at_worst_case_optimum_is_realizable(self):
        rng = random.Random(702)
        for k in range(6):
            phi = random_formula(rng, ["i", "o"], rng.randint(1, 4))
            spec = SynthesisSpec(frozenset({"i"}), frozenset({"o"}), phi)
            base = synthesize(spec)
            floor = almost_sure_value(base.transducer, phi)
            res = synthesize(SynthesisSpec(frozenset({"i"}), frozenset({"o"}),
                                           phi, threshold=floor))
            assert isinstance(res, SynthesisResult)
            assert res.expected_value >= base.expected_value
            assert res.almost_sure_floor >= floor


# Nested chains build automata of several hundred states (500 for eight
# levels of G, where G a needs 3) and linear systems of the same size.
@pytest.mark.parametrize("formula, value", [
    ("G G G G G G G G a", 0),
    ("F F F F F F F F a", 1),
    ("a U a U a U a U a U a U b", 1),
])
def test_nested_chain_certifies(formula, value):
    res = synthesize(SynthesisSpec(frozenset({"a"}), frozenset({"b"}), parse(formula)))
    assert isinstance(res, SynthesisResult)
    assert res.expected_value == value


# Formulas built through the constructors skip `parse` and its nesting
# limit; the spec and the evaluators apply it themselves, without recursing.
def x_chain(levels):
    f = Atom("a")
    for _ in range(levels):
        f = Next(f)
    return f


def until_chain(levels):
    # right-nested; false U φ has the value of φ, so the automata stay small
    f = Atom("a")
    for _ in range(levels):
        f = Until(FALSE, f)
    return f


CHAINS = {"next": x_chain, "until": until_chain}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_deep_chain_is_rejected_before_it_recurses(chain):
    deep = CHAINS[chain](1500)
    ab = (frozenset({"a"}), frozenset({"b"}))
    with pytest.raises(ValueError, match=f"formula nests deeper than {MAX_NESTING}"):
        synthesize(SynthesisSpec(*ab, deep))
    with pytest.raises(ValueError, match="assumption nests deeper"):
        SynthesisSpec(*ab, Atom("b"), assumption=deep)
    with pytest.raises(ValueError, match="hard constraint nests deeper"):
        SynthesisSpec(*ab, Atom("b"), threshold=HALF, hard_constraint=deep)
    T = synthesize(SynthesisSpec(*ab, Atom("b"))).transducer
    for evaluate in (expected_value, almost_sure_value, worst_case_value):
        with pytest.raises(ValueError, match="formula nests deeper"):
            evaluate(T, deep)
    with pytest.raises(ValueError, match="assumption nests deeper"):
        conditional_expected_value(T, Atom("b"), deep)


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_chain_at_the_nesting_limit_certifies(chain):
    f = CHAINS[chain](MAX_NESTING)
    res = synthesize(SynthesisSpec(frozenset({"a"}), frozenset({"b"}), f,
                                   assumption=f, threshold=HALF))
    assert isinstance(res, SynthesisResult)
    assert res.expected_value == 1
    assert expected_value(res.transducer, f) == HALF


def test_nesting_counts_g_and_implies_as_one_level():
    # `parse` takes G and -> at one level each, though they desugar to
    # negations around an until or a max; a run of negations does count.
    assert check_nesting(parse("G " * MAX_NESTING + "a")) is None
    assert check_nesting(parse("a -> " * MAX_NESTING + "b")) is None
    negations = Atom("a")
    for _ in range(MAX_NESTING + 3):
        negations = Not(negations)
    with pytest.raises(ValueError, match="nests deeper"):
        check_nesting(negations)
    # 2^100 paths, but a subformula shared by many paths is walked once
    shared = Atom("a")
    for _ in range(MAX_NESTING):
        shared = Min((shared, shared))
    assert check_nesting(shared) is None
    with pytest.raises(ValueError, match="nests deeper"):
        check_nesting(Next(shared))


# `&` and `|` take no parse level, nor do the left sides of `U` and `->`,
# but each is an operator on the path to the deepest X.
ONE_LEVEL_OVER = {
    "and": "a & " + "X " * MAX_NESTING + "b",
    "implies": "X " * MAX_NESTING + "a -> b",
    "until": "X " * MAX_NESTING + "a U b",
}


@pytest.mark.parametrize("name", sorted(ONE_LEVEL_OVER))
def test_parse_rejects_what_a_spec_would(name):
    text = ONE_LEVEL_OVER[name]
    with pytest.raises(ParseError, match=f"formula nests deeper than {MAX_NESTING} levels"):
        parse(text)
    f = parse(text.replace("X ", "", 1))
    io = (frozenset({"a", "b"}), frozenset({"o"}))
    SynthesisSpec(*io, f)
    SynthesisSpec(*io, Atom("o"), assumption=f)
    SynthesisSpec(*io, Atom("o"), threshold=HALF, hard_constraint=f)


def test_every_formula_parse_accepts_passes_the_spec_check():
    # Texts wrapped in random operators, around the limit either way.
    wrappers = ["X {}", "!{}", "G {}", "F {}", "factor{{1/2}} {}", "({})", "a & {}",
                "{} & a", "a | {}", "{} U b", "b U {}", "{} -> b", "b -> {}",
                "min(a, {})", "wavg{{1/2}}({}, a)"]
    rng = random.Random(15)
    accepted = rejected = 0
    ab = (frozenset({"a"}), frozenset({"b"}))
    for _ in range(200):
        text = "a"
        for _ in range(rng.randint(100, 300)):
            text = rng.choice(wrappers).format(text)
        try:
            f = parse(text)
        except ParseError:
            rejected += 1
            continue
        accepted += 1
        check_nesting(f)
        SynthesisSpec(*ab, f)
    assert accepted > 20 and rejected > 20


# --- golden reports ------------------------------------------------------

GOLDEN_HD = {"inputs": ["data"], "outputs": ["close"],
             "formula": "((X data) -> !close)"
                        " & (((!(X data)) -> close) | factor{1/2} (X close))"}
GOLDEN_SMALL = {"inputs": ["i"], "outputs": ["o"], "formula": "wavg{1/2}(X i, o)"}
UNIFORM_DATA = {
    "inputs": ["data"], "outputs": ["close"],
    "states": [{"id": 0, "input": []}, {"id": 1, "input": ["data"]}],
    "initial": 0,
    "transitions": [
        {"from": s, "output": o, "to": t, "prob": "1/2"}
        for s in (0, 1) for o in ([], ["close"]) for t in (0, 1)
    ],
}
# An input process whose rows depend on the output letter.
SENSITIVE_ROWS = [
    (0, [], [(0, "1/3"), (2, "1/3"), (3, "1/3")]),
    (0, ["o"], [(1, "3/4"), (2, "1/4")]),
    (1, [], [(0, "1/2"), (1, "1/4"), (2, "1/4")]),
    (1, ["o"], [(1, "1/2"), (3, "1/2")]),
    (2, [], [(0, "1/8"), (1, "3/8"), (2, "3/8"), (3, "1/8")]),
    (2, ["o"], [(0, "3/7"), (1, "2/7"), (3, "2/7")]),
    (3, [], [(1, "1/2"), (2, "1/6"), (3, "1/3")]),
    (3, ["o"], [(0, "1/5"), (1, "3/10"), (2, "1/5"), (3, "3/10")]),
]
SENSITIVE = {
    "inputs": ["i0", "i1"], "outputs": ["o"],
    "formula": "max(factor{2/3} (i0), false)",
    "distribution": {
        "inputs": ["i0", "i1"], "outputs": ["o"],
        "states": [{"id": s, "input": letter}
                   for s, letter in enumerate([[], ["i0"], ["i1"], ["i0", "i1"]])],
        "initial": 1,
        "transitions": [{"from": s, "output": o, "to": t, "prob": p}
                        for s, o, row in SENSITIVE_ROWS for t, p in row],
    },
}

# One spec per synthesis mode: (mode, spec, extra synth flags, exit code,
# sha256 of the --out controller, exact report).
GOLDEN = [
    ("plain", GOLDEN_HD, [], 0,
     "fff4d92a45bbc0ce69f5516312165abfc0d6b91c90386bff85722d9551234c22",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "automaton_states = 5, 4, 5\n"
     "mdp_states = 6\n"
     "product_states = 6\n"
     "transducer_states = 6\n"
     "values = 0, 1/2, 1\n"),
    ("threshold", GOLDEN_HD, ["--threshold", "1/2"], 0,
     "fff4d92a45bbc0ce69f5516312165abfc0d6b91c90386bff85722d9551234c22",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "threshold = 1/2\n"
     "floor = 1/2\n"
     "automaton_states = 4, 5\n"
     "mdp_states = 4\n"
     "product_states = 6\n"
     "transducer_states = 6\n"
     "values = 1/2, 1\n"),
    ("unrealizable", GOLDEN_HD, ["--threshold", "3/5"], 2,
     None,
     "result = UNREALIZABLE\n"
     "threshold = 3/5\n"
     "losing_states = 4\n"
     "mdp_states = 5\n"),
    ("hard-constraint",
     dict(GOLDEN_HD, threshold="1", hard_constraint="(X data) -> !close"), [], 0,
     "fff4d92a45bbc0ce69f5516312165abfc0d6b91c90386bff85722d9551234c22",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "threshold = 1\n"
     "floor = 1\n"
     "automaton_states = 5, 4, 5\n"
     "mdp_states = 5\n"
     "product_states = 7\n"
     "transducer_states = 6\n"
     "values = 0, 1/2, 1\n"),
    ("assumption", dict(GOLDEN_SMALL, assumption="i"), [], 0,
     "2a5d328e4f1737c5a1facc2ead8077ed6e137ca029af22bbc18273469df42fd9",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "assumption_probability = 1/2\n"
     "automaton_states = 4, 5, 4\n"
     "mdp_states = 11\n"
     "product_states = 11\n"
     "reset_states = 5\n"
     "transducer_states = 7\n"
     "values = 0, 1/2, 1\n"),
    ("assumption-threshold", dict(GOLDEN_SMALL, assumption="i", threshold="1/2"), [], 0,
     "2a5d328e4f1737c5a1facc2ead8077ed6e137ca029af22bbc18273469df42fd9",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "threshold = 1/2\n"
     "floor = 1/2\n"
     "assumption_probability = 1/2\n"
     "automaton_states = 5, 4\n"
     "mdp_states = 7\n"
     "product_states = 11\n"
     "reset_states = 3\n"
     "transducer_states = 7\n"
     "values = 1/2, 1\n"),
    ("sure-assumption", dict(GOLDEN_SMALL, assumption="i | !i"), [], 0,
     "9721b6a60065a24e9f5f02c41e10bfb12b6274aaf7d2b895c58617442ce4026d",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "assumption_probability = 1\n"
     "automaton_states = 4, 5, 4\n"
     "mdp_states = 6\n"
     "product_states = 6\n"
     "transducer_states = 4\n"
     "values = 0, 1/2, 1\n"),
    ("sure-assumption-threshold",
     dict(GOLDEN_SMALL, assumption="i | !i", threshold="1/2"), [], 0,
     "9721b6a60065a24e9f5f02c41e10bfb12b6274aaf7d2b895c58617442ce4026d",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "threshold = 1/2\n"
     "floor = 1/2\n"
     "assumption_probability = 1\n"
     "automaton_states = 5, 4\n"
     "mdp_states = 4\n"
     "product_states = 6\n"
     "transducer_states = 4\n"
     "values = 1/2, 1\n"),
    ("input-process", dict(GOLDEN_HD, distribution=UNIFORM_DATA), [], 0,
     "95f3a83fe82eea18031673fe51a5288ae68065d71249c9e6a356c9169ef16d32",
     "result = OK\n"
     "expected = 3/4\n"
     "decimal = 0.75\n"
     "automaton_states = 5, 4, 5\n"
     "mdp_states = 11\n"
     "product_states = 6\n"
     "transducer_states = 9\n"
     "values = 0, 1/2, 1\n"),
    ("output-sensitive-process", SENSITIVE, [], 0,
     "43bbf07fc9cbc1a3c84df36fe20a2508c8079b17b4987726efac528775c41310",
     "result = OK\n"
     "expected = 2/3\n"
     "decimal = 0.6666666666666666\n"
     "automaton_states = 3, 3\n"
     "mdp_states = 9\n"
     "product_states = 3\n"
     "transducer_states = 9\n"
     "values = 0, 2/3\n"),
]


@pytest.mark.parametrize("mode, doc, flags, code, digest, report", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_golden_synth_report_and_controller(tmp_path, capsys, mode, doc, flags,
                                            code, digest, report):
    spec = tmp_path / "spec.json"
    ctrl = tmp_path / "ctrl.json"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", str(spec), "--out", str(ctrl)] + flags) == code
    assert capsys.readouterr().out == report
    if digest is None:
        assert not ctrl.exists()
    else:
        assert hashlib.sha256(ctrl.read_bytes()).hexdigest() == digest
