"""Exact transducer evaluation: expected, conditional, almost-sure,
worst-case, and the Monte-Carlo cross-check."""

import random
from fractions import Fraction

import pytest

from hqsynth.evaluation import (
    AssumptionHasZeroProbability,
    almost_sure_value,
    conditional_almost_sure_floor,
    conditional_expected_value,
    expected_value,
    simulate,
    worst_case_value,
    worst_case_witness,
)
from hqsynth.formulas import FALSE, TRUE, eval_lasso, implies, parse
from hqsynth.mdp import DistributionMDP
from hqsynth.transducers import Transducer, computation_lasso

import scenarios as S
from oracles import random_formula, random_lasso, random_transducer

HALF = Fraction(1, 2)
E = frozenset()


class TestHardDrive:
    phi = S.hard_drive_formula()

    def test_close_early(self):
        T = S.close_first_cycle()
        assert expected_value(T, self.phi) == HALF
        assert worst_case_value(T, self.phi) == 0
        assert almost_sure_value(T, self.phi) == 0

    def test_close_late(self):
        T = S.close_second_cycle()
        assert expected_value(T, self.phi) == Fraction(3, 4)
        assert worst_case_value(T, self.phi) == HALF
        assert almost_sure_value(T, self.phi) == HALF


class TestTrivialFormulas:
    def test_true_is_one_in_every_mode(self):
        T = S.close_first_cycle()
        assert expected_value(T, TRUE) == 1
        assert almost_sure_value(T, TRUE) == 1
        assert worst_case_value(T, TRUE) == 1

    def test_false_is_zero(self):
        T = S.close_first_cycle()
        assert expected_value(T, FALSE) == 0
        assert worst_case_value(T, FALSE) == 0


class TestConditional:
    def test_conditioning_on_the_sure_event_changes_nothing(self):
        T = S.close_second_cycle()
        phi = S.hard_drive_formula()
        assert conditional_expected_value(T, phi, TRUE) == expected_value(T, phi)

    def test_hand_computed_split(self):
        # value is X data; conditioning on data arriving forces value 1
        T = S.close_second_cycle()
        phi = parse("X data")
        psi = parse("X data")
        assert expected_value(T, phi) == HALF
        assert conditional_expected_value(T, phi, psi) == 1

    def test_zero_probability_assumption_raises(self):
        T = S.close_second_cycle()
        with pytest.raises(AssumptionHasZeroProbability):
            conditional_expected_value(T, S.hard_drive_formula(), FALSE)

    def test_assumption_must_be_boolean_over_inputs(self):
        T = S.close_second_cycle()
        with pytest.raises(ValueError):
            conditional_expected_value(T, S.hard_drive_formula(),
                                       parse("factor{1/2} data"))
        with pytest.raises(ValueError):
            conditional_expected_value(T, S.hard_drive_formula(),
                                       parse("X close"))

    def test_conditional_threshold_equals_unconditional_on_implication(self):
        rng = random.Random(601)
        for _ in range(12):
            T = random_transducer(rng, ["i"], ["o"], rng.randint(1, 3))
            phi = random_formula(rng, ["i", "o"], rng.randint(1, 5))
            psi = random_formula(rng, ["i"], rng.randint(1, 4), boolean=True)
            try:
                floor = conditional_almost_sure_floor(T, phi, psi)
            except AssumptionHasZeroProbability:
                continue
            guarded = almost_sure_value(T, implies(psi, phi))
            for t in {Fraction(0), Fraction(1, 4), HALF, Fraction(1), floor}:
                assert (floor >= t) == (guarded >= t), (phi, psi, t)


class TestWorstCase:
    def test_witness_is_replayable_and_minimal_on_samples(self):
        rng = random.Random(602)
        for _ in range(15):
            T = random_transducer(rng, ["i"], ["o"], rng.randint(1, 3))
            phi = random_formula(rng, ["i", "o"], rng.randint(1, 5))
            value, word = worst_case_witness(T, phi)
            assert eval_lasso(phi, computation_lasso(T, word)) == value
            for _ in range(20):
                w = random_lasso(rng, ["i"])
                assert eval_lasso(phi, computation_lasso(T, w)) >= value

    def test_worst_never_exceeds_almost_sure_nor_expected(self):
        rng = random.Random(603)
        for _ in range(10):
            T = random_transducer(rng, ["i"], ["o"], rng.randint(1, 3))
            phi = random_formula(rng, ["i", "o"], rng.randint(1, 5))
            w = worst_case_value(T, phi)
            a = almost_sure_value(T, phi)
            s = expected_value(T, phi)
            assert w <= a <= s


def uniform_noise_process(outputs):
    from hqsynth.common import all_letters
    trans = {}
    for s in (0, 1):
        for o in all_letters(frozenset(outputs)):
            trans[(s, o)] = [(0, HALF), (1, HALF)]
    return DistributionMDP({"noise"}, frozenset(outputs),
                           [frozenset(), frozenset({"noise"})], 0, trans)


def noise_only_under_encoding():
    """Noise can appear in a cycle only if that cycle's output encodes."""
    from hqsynth.common import all_letters
    enc = frozenset({"encode"})
    trans = {}
    for s in (0, 1):
        for o in all_letters(enc):
            if o == enc:
                trans[(s, o)] = [(0, HALF), (1, HALF)]
            else:
                trans[(s, o)] = [(0, Fraction(1))]
    return DistributionMDP({"noise"}, enc,
                           [frozenset(), frozenset({"noise"})], 0, trans)


def alternating_noise():
    """noise, quiet, noise, quiet, ... regardless of outputs."""
    from hqsynth.common import all_letters
    trans = {}
    for o in all_letters(frozenset({"encode"})):
        trans[(0, o)] = [(1, Fraction(1))]
        trans[(1, o)] = [(0, Fraction(1))]
    return DistributionMDP({"noise"}, frozenset({"encode"}),
                           [frozenset(), frozenset({"noise"})], 0, trans)


class TestDistributionDriven:
    def test_uniform_process_agrees_with_default(self):
        phi = S.message_formula()
        D = uniform_noise_process({"encode"})
        for T in (S.encode_cycles({0, 1}), S.encode_cycles({0, 1, 2, 3})):
            assert expected_value(T, phi, D) == expected_value(T, phi)
            assert almost_sure_value(T, phi, D) == almost_sure_value(T, phi)

    def test_noise_only_under_encoding(self):
        # cycles 0/1 encode (worth 3/4 no matter what), cycles 2/3 stay
        # silent and therefore quiet (worth 1): average 7/8
        phi = S.message_formula()
        D = noise_only_under_encoding()
        T = S.encode_cycles({0, 1})
        assert expected_value(T, phi, D) == Fraction(7, 8)
        assert almost_sure_value(T, phi, D) == Fraction(7, 8)
        # never encoding makes every cycle quiet and perfect
        T0 = S.encode_cycles(set())
        assert expected_value(T0, phi, D) == 1
        assert expected_value(T0, phi) == HALF

    def test_deterministic_alternating_noise(self):
        # first process state emits noise at cycle 0, then alternates
        phi = S.message_formula()
        D = alternating_noise()
        assert expected_value(S.encode_cycles({0, 2}), phi, D) == Fraction(7, 8)
        T0 = S.encode_cycles(set())
        assert expected_value(T0, phi, D) == HALF
        assert almost_sure_value(T0, phi, D) == HALF

    def test_reactive_transducer_with_output_sensitive_process_rejected(self):
        # state 0 picks its output from the input just read, so the process
        # cannot be told the output before drawing that input
        enc = frozenset({"encode"})
        noise = frozenset({"noise"})
        T = Transducer(frozenset({"noise"}), enc, [0, 1, 2], 0,
                       {(0, E): 1, (0, noise): 2,
                        (1, E): 1, (1, noise): 2,
                        (2, E): 1, (2, noise): 2},
                       {0: E, 1: E, 2: enc})
        with pytest.raises(ValueError):
            expected_value(T, S.message_formula(), noise_only_under_encoding())
        # the same transducer is fine under an output-blind process
        assert expected_value(T, parse("encode"), alternating_noise()) in (0, 1)

    def test_worst_case_ignores_distribution_support(self):
        phi = S.message_formula()
        T = S.encode_cycles({0, 1})
        assert worst_case_value(T, phi) == Fraction(3, 8)


class TestSimulate:
    def test_single_sample_on_deterministic_inputs(self):
        # one input letter only: the chain is deterministic, so a single
        # sample already equals the exact value
        T = Transducer(frozenset(), frozenset({"o"}), [0, 1], 0,
                       {(0, frozenset()): 1, (1, frozenset()): 1},
                       {0: frozenset(), 1: frozenset({"o"})})
        phi = parse("X o")
        mean, xs, exact = simulate(T, phi, 1, seed=7)
        assert mean == exact == expected_value(T, phi) == 1

    def test_seeded_runs_reproduce(self):
        T = S.close_second_cycle()
        phi = S.hard_drive_formula()
        a = simulate(T, phi, 200, seed=42)
        b = simulate(T, phi, 200, seed=42)
        assert a == b

    def test_estimate_tracks_exact_value(self):
        T = S.close_second_cycle()
        phi = S.hard_drive_formula()
        mean, xs, exact = simulate(T, phi, 4000, seed=11)
        assert exact == expected_value(T, phi)
        assert len(xs) == 4000
        assert all(x in (0, HALF, 1, Fraction(3, 4)) for x in xs)
        assert abs(mean - expected_value(T, phi)) < Fraction(1, 20)
