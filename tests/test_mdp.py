"""MDP machinery: induced processes, end components, parity, mean payoff."""

import random
from fractions import Fraction

import pytest

from hqsynth import mdp
from hqsynth.automata import dpw_for
from hqsynth.booleanize import EqualTo
from hqsynth.common import InternalConsistencyError, StateLimitExceeded, all_letters
from hqsynth.evaluation import product_chain
from hqsynth.formulas import Atom
from hqsynth.mdp import (
    DistributionMDP,
    MarkovChain,
    MecRewardMismatch,
    ParityMDP,
    PreMDP,
    RewardMDP,
    UniformInputs,
    almost_sure_parity,
    cwr_states,
    induced_chain,
    induced_pre_mdp,
    max_end_components,
    mc_ergodic_analysis,
    solve_linear_system,
    solve_mean_payoff,
)
from hqsynth.transducers import Transducer

import oracles as O
from oracles import product

HALF = Fraction(1, 2)
ONE = Fraction(1)


def fraction_rows(M):
    """The rows of an MDP ({(state, action index): row}) or of a chain
    ([row]) as (successor, `Fraction` probability) pairs, read from its
    weights over its denominator."""
    def read(row):
        return tuple((t, Fraction(w, M.den)) for t, w in row)

    if isinstance(M.weights, dict):
        return {key: read(row) for key, row in M.weights.items()}
    return [read(row) for row in M.weights]


def single_action(rows_by_state, initial=0):
    n = len(rows_by_state)
    trans = {(s, 0): tuple(rows_by_state[s]) for s in range(n)}
    return PreMDP(list(range(n)), initial, [("go",)] * n, trans)


class TestValidation:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            single_action([[(0, HALF)]])

    def test_rewards_in_unit_interval(self):
        with pytest.raises(ValueError):
            RewardMDP([0], 0, [("go",)], {(0, 0): ((0, ONE),)}, [Fraction(2)])

    def test_ranks_start_at_one(self):
        with pytest.raises(ValueError):
            ParityMDP([0], 0, [("go",)], {(0, 0): ((0, ONE),)}, [0])


class TestProbabilityTypes:
    """Floats (and bools) never enter the value path: a probability must be
    an int or a Fraction."""

    @pytest.mark.parametrize("p", [0.5, True], ids=["float", "bool"])
    def test_pre_mdp_rejects(self, p):
        with pytest.raises(ValueError) as exc:
            single_action([[(0, p), (0, HALF)]])
        assert str(exc.value) == f"probability {p!r} at row (0, 0) is not an int or a Fraction"

    @pytest.mark.parametrize("p", [0.5, True], ids=["float", "bool"])
    def test_markov_chain_rejects(self, p):
        with pytest.raises(ValueError) as exc:
            MarkovChain([0, 1], 0, [((0, p), (1, HALF)), ((1, ONE),)])
        assert str(exc.value) == f"probability {p!r} at row 0 is not an int or a Fraction"

    def test_markov_chain_of_floats_rejected(self):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            MarkovChain([0, 1], 0, [((0, 0.5), (1, 0.5)), ((1, 1),)])

    @pytest.mark.parametrize("p", [0.5, True], ids=["float", "bool"])
    def test_distribution_rejects(self, p):
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            coin_distribution(p)

    def test_int_and_fraction_rows_read_back_as_fractions(self):
        M = single_action([[(1, HALF), (0, HALF)], [(1, 1)]])
        assert M.den == 2 and M.weights[(0, 0)] == ((1, 1), (0, 1))
        rows = fraction_rows(M)
        assert rows[(1, 0)] == ((1, ONE),)
        assert all(type(p) is Fraction for row in rows.values() for _, p in row)
        C = MarkovChain([0, 1], 0, [((0, Fraction(1, 3)), (1, Fraction(2, 3))), ((1, 1),)])
        assert C.den == 3 and fraction_rows(C) == [((0, Fraction(1, 3)), (1, Fraction(2, 3))),
                                                   ((1, ONE),)]

    @pytest.mark.parametrize("rewards", [[0.25, 0.5], [True, 1], ["1/2", 0]],
                             ids=["float", "bool", "str"])
    def test_reward_mdp_rejects(self, rewards):
        trans = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),)}
        with pytest.raises(ValueError, match="reward .* is not an int or a Fraction"):
            RewardMDP([0, 1], 0, [("a", "b"), ("go",)], trans, rewards)

    def test_zero_entries_are_dropped(self):
        M = single_action([[(1, ONE), (0, Fraction(0))], [(1, ONE)]])
        assert M.successors(0, 0) == [1]
        process = coin_distribution(ONE)
        assert process.den == 1
        # masks over the joint alphabet {i, o}: {i} is 1, the empty output 0
        assert process.branches(0, 0) == ((1, 1, 1),)


class TestInducedUniform:
    def test_input_split_gives_half_half(self):
        io = frozenset({"i", "o"})
        prod = product([dpw_for(Atom("i"), EqualTo(ONE), atoms=io)])
        M = induced_pre_mdp(prod, UniformInputs({"i"}, {"o"}))
        rows = fraction_rows(M)
        for a in range(len(M.actions[0])):
            assert sum(p for _, p in rows[(0, a)]) == 1
            assert all(p == HALF for _, p in rows[(0, a)])

    def test_single_letter_input_is_deterministic(self):
        io = frozenset({"o"})
        prod = product([dpw_for(Atom("o"), EqualTo(ONE), atoms=io)])
        M = induced_pre_mdp(prod, UniformInputs(set(), {"o"}))
        for (s, a), rows in fraction_rows(M).items():
            assert len(rows) == 1 and rows[0][1] == 1


def coin_distribution(p, outputs=("o",)):
    """Two-state input process over {i}: next letter is {i} with chance p."""
    trans = {}
    for s in (0, 1):
        for o in all_letters(frozenset(outputs)):
            trans[(s, o)] = [(1, p), (0, 1 - p)]
    return DistributionMDP({"i"}, set(outputs), [frozenset(), frozenset({"i"})],
                           0, trans)


KEEP = object()


def data_distribution(initial=0, close_row=KEEP):
    """The hard-drive data process: data arrives with chance 1/2 whatever
    the output.  `close_row` replaces the row of state 0 under output
    {close}, or deletes it when None."""
    trans = {(s, o): [(0, HALF), (1, HALF)]
             for s in (0, 1) for o in all_letters(frozenset({"close"}))}
    if close_row is None:
        del trans[(0, frozenset({"close"}))]
    elif close_row is not KEEP:
        trans[(0, frozenset({"close"}))] = close_row
    return DistributionMDP({"data"}, {"close"}, [frozenset(), frozenset({"data"})],
                           initial, trans)


AC, BD = frozenset({"a", "c"}), frozenset({"b", "d"})


def _random_process(rng, sensitive: bool):
    """A random input process over inputs {a, c} and outputs {b, d}, whose
    outputs sort between the inputs.  Output-insensitive, each state lists
    one law under every output, in a different order, sometimes with an
    entry split in two or a zero entry added; output-sensitive, each row is
    drawn on its own.  Input labels may repeat."""
    n = rng.randint(2, 5)
    iota = [rng.choice(all_letters(AC)) for _ in range(n)]

    def law():
        weights = [rng.randint(0, 3) for _ in range(n)]
        weights[rng.randrange(n)] += 1
        return [(t, Fraction(w, sum(weights))) for t, w in enumerate(weights) if w]

    trans = {}
    for s in range(n):
        shared = law()
        for o in all_letters(BD):
            row = law() if sensitive else list(shared)
            rng.shuffle(row)
            if rng.random() < 0.3:
                t, p = row.pop()
                row += [(t, p / 2), (t, p / 2)]
            if rng.random() < 0.3:
                row.insert(rng.randrange(len(row) + 1), (rng.randrange(n), Fraction(0)))
            trans[(s, o)] = row
    return DistributionMDP(AC, BD, iota, 0, trans), iota, trans


def test_process_masks_agree_with_the_frozenset_rows():
    # `branches`, `next_state` and `insensitive_at` answer in masks over the
    # sorted joint alphabet a < b < c < d; each must agree, in order, with
    # the frozenset rows the process was built from.
    def mask(letter):
        return sum(1 << "abcd".index(x) for x in letter)

    rng = random.Random(2311)
    for k in range(40):
        process, iota, trans = _random_process(rng, sensitive=k % 2 == 1)
        for s in range(len(iota)):
            laws = []
            for o in all_letters(BD):
                row = trans[(s, o)]
                want = tuple((mask(iota[t]), t, p * process.den) for t, p in row if p)
                assert process.branches(s, mask(o)) == want
                for i in all_letters(AC):
                    emitting = [t for t, p in row if p and iota[t] == i]
                    if len(set(emitting)) <= 1:
                        assert process.next_state(s, mask(o), mask(i)) == \
                            (emitting[0] if emitting else None)
                law: dict = {}
                for t, p in row:
                    law[t] = law.get(t, Fraction(0)) + p
                laws.append({t: p for t, p in law.items() if p})
            assert process.insensitive_at(s) == all(law == laws[0] for law in laws)
        if k % 2 == 0:
            assert process.output_insensitive()


class TestAlphabetMismatch:
    """An automaton must read exactly the letters of the process driving
    it: one over fewer atoms lacks rows for some letters, and one over more
    atoms would have its letters misread as masks."""

    A, AB, ABC = frozenset({"a"}), frozenset({"a", "b"}), frozenset({"a", "b", "c"})

    @pytest.mark.parametrize("atoms", [A, ABC], ids=["subset", "superset"])
    def test_induced_mdp(self, atoms):
        dpw = dpw_for(Atom("a"), EqualTo(ONE), atoms=atoms)
        with pytest.raises(ValueError, match="disagree on the alphabet"):
            induced_pre_mdp(dpw, UniformInputs({"a"}, {"b"}))
        with pytest.raises(ValueError, match="disagree on the alphabet"):
            induced_pre_mdp(product([dpw]), UniformInputs({"a"}, {"b"}))

    @pytest.mark.parametrize("atoms", [A, ABC], ids=["subset", "superset"])
    def test_product_chain(self, atoms):
        T = Transducer({"a"}, {"b"}, [0], 0,
                       {(0, i): 0 for i in all_letters(self.A)}, {0: frozenset({"b"})})
        good = dpw_for(Atom("a"), EqualTo(ONE), atoms=self.AB)
        assert product_chain(T, [good]).n > 0  # the same alphabet is fine
        bad = dpw_for(Atom("a"), EqualTo(ONE), atoms=atoms)
        with pytest.raises(ValueError, match="disagree on the alphabet"):
            product_chain(T, [good, bad])


class TestDistributionValidation:
    def test_well_formed_process_constructs(self):
        assert data_distribution().initial == 0

    @pytest.mark.parametrize("initial, close_row, message", [
        (7, KEEP, "initial state 7"),
        (0, [(0, HALF), (2, HALF)], "leads outside the 2 states"),
        (0, None, "no distribution row"),
    ], ids=["initial-out-of-range", "target-out-of-range", "missing-row"])
    def test_malformed_process_rejected(self, initial, close_row, message):
        with pytest.raises(ValueError, match=message):
            data_distribution(initial, close_row)


class TestOutputInsensitivity:
    """A process ignores the output where its rows are one distribution,
    however each row lists it."""

    @pytest.mark.parametrize("close_row", [
        [(1, HALF), (0, HALF)],
        [(0, HALF), (1, HALF), (1, Fraction(0))],
        [(0, Fraction(1, 4)), (1, HALF), (0, Fraction(1, 4))],
    ], ids=["reordered", "zero-entry", "repeated"])
    def test_one_distribution_listed_apart_is_insensitive(self, close_row):
        process = data_distribution(close_row=close_row)
        assert [process.insensitive_at(s) for s in (0, 1)] == [True, True]
        assert process.output_insensitive()

    def test_another_distribution_is_sensitive(self):
        process = data_distribution(close_row=[(0, Fraction(1, 4)), (1, Fraction(3, 4))])
        assert [process.insensitive_at(s) for s in (0, 1)] == [False, True]
        assert not process.output_insensitive()

    def test_reordered_rows_evaluate_like_the_plain_process(self):
        # The controller echoes the input, so its successors carry different
        # labels: only an output-insensitive process can evaluate it.
        from hqsynth.evaluation import expected_value
        from hqsynth.formulas import parse
        from hqsynth.transducers import Transducer

        none, data = frozenset(), frozenset({"data"})
        delta = {(q, letter): int(letter == data) for q in (0, 1) for letter in (none, data)}
        T = Transducer({"data"}, {"close"}, [0, 1], 0, delta,
                       {0: none, 1: frozenset({"close"})})
        f = parse("G F (close & X data)")
        reordered = data_distribution(close_row=[(1, HALF), (0, HALF)])
        assert expected_value(T, f, reordered) == expected_value(T, f, data_distribution())


class TestInducedDistribution:
    def test_fair_coin_matches_uniform(self):
        io = frozenset({"i", "o"})
        prod = product([dpw_for(Atom("i"), EqualTo(ONE), atoms=io)])
        uni = induced_pre_mdp(prod, UniformInputs({"i"}, {"o"}))
        via_d = induced_pre_mdp(prod, coin_distribution(HALF))
        uni_index = {lab[0]: s for s, lab in enumerate(uni.labels)}
        uni_rows, via_d_rows = fraction_rows(uni), fraction_rows(via_d)
        for s, (q, sd) in enumerate(via_d.labels):
            for a in range(len(via_d.actions[s])):
                agg: dict = {}
                for t, p in via_d_rows[(s, a)]:
                    q2 = via_d.labels[t][0]
                    agg[q2] = agg.get(q2, Fraction(0)) + p
                want = {uni.labels[t][0]: p
                        for t, p in uni_rows[(uni_index[q], a)]}
                assert agg == want

    def test_biased_coin_probabilities(self):
        io = frozenset({"i", "o"})
        prod = product([dpw_for(Atom("i"), EqualTo(ONE), atoms=io)])
        M = induced_pre_mdp(prod, coin_distribution(Fraction(1, 4)))
        probs = sorted(p for p in
                       (p for _, p in fraction_rows(M)[(0, 0)]))
        assert probs == [Fraction(1, 4), Fraction(3, 4)]

    def test_stochasticity_on_random_instances(self):
        rng = random.Random(401)
        io = frozenset({"i", "o"})
        for _ in range(10):
            f = O.random_formula(rng, ["i", "o"], rng.randint(1, 5))
            vs_d = dpw_for(f, EqualTo(ONE), atoms=io)
            prod = product([vs_d])
            M = induced_pre_mdp(prod, coin_distribution(Fraction(1, 3)))
            for (s, a), rows in fraction_rows(M).items():
                assert sum(p for _, p in rows) == 1


class TestEndComponents:
    def test_cycle_is_one_component(self):
        M = single_action([[(1, ONE)], [(2, ONE)], [(0, ONE)]])
        mecs = max_end_components(M)
        assert len(mecs) == 1
        assert frozenset(mecs[0][0]) == frozenset({0, 1, 2})

    def test_two_absorbing_sinks(self):
        M = single_action([[(1, HALF), (2, HALF)], [(1, ONE)], [(2, ONE)]])
        sets = sorted(frozenset(S) for S, _ in max_end_components(M))
        assert sets == [frozenset({1}), frozenset({2})]

    def test_matches_subset_oracle(self):
        rng = random.Random(402)
        for _ in range(25):
            M = O.random_pre_mdp(rng, rng.randint(2, 6))
            got = sorted((frozenset(S) for S, _ in max_end_components(M)),
                         key=min)
            assert got == O.oracle_mecs(M)

    def test_component_action_sets_are_closed(self):
        rng = random.Random(403)
        for _ in range(15):
            M = O.random_pre_mdp(rng, rng.randint(2, 6))
            for S, acts in max_end_components(M):
                S = frozenset(S)
                for s in S:
                    assert acts[s]
                    for a in acts[s]:
                        assert all(t in S for t, p in fraction_rows(M)[(s, a)] if p > 0)


def test_mecs_within_match_subset_oracle():
    rng = random.Random(411)
    for _ in range(40):
        M = O.random_pre_mdp(rng, rng.randint(2, 6))
        W = frozenset(s for s in range(M.n) if rng.random() < 0.6)
        inside = [S for S in O.ec_state_sets(M) if S <= W]
        want = sorted((S for S in inside if not any(S < T for T in inside)), key=min)
        got = max_end_components(M, W)
        assert [frozenset(S) for S, _ in got] == want
        for S, acts in got:
            assert set(acts) == S
            for s in S:
                assert acts[s]
                for a in acts[s]:
                    assert all(t in S for t, p in fraction_rows(M)[(s, a)] if p > 0)


def parity(rows_by_rank):
    """Single-action parity MDP from [(successor-row, rank), ...]."""
    rows = [r for r, _ in rows_by_rank]
    ranks = [d for _, d in rows_by_rank]
    n = len(rows)
    trans = {(s, 0): tuple(rows[s]) for s in range(n)}
    return ParityMDP(list(range(n)), 0, [("go",)] * n, trans, ranks)


class TestControllablyWinRecurrent:
    def test_even_self_loop_qualifies(self):
        M = parity([([(0, ONE)], 2)])
        assert 0 in cwr_states(M)[0]

    def test_odd_self_loop_does_not(self):
        M = parity([([(0, ONE)], 1)])
        assert 0 not in cwr_states(M)[0]

    def test_three_state_mix(self):
        M = parity([([(1, ONE)], 2), ([(0, ONE)], 1), ([(2, ONE)], 3)])
        got, witness = cwr_states(M)
        assert set(got) == O.oracle_cwr(M)
        for q in got:
            assert q in witness[q][0]

    def test_matches_subset_oracle(self):
        rng = random.Random(404)
        for _ in range(25):
            M = O.random_parity_mdp(rng, rng.randint(2, 6))
            got, witness = cwr_states(M)
            assert set(got) == O.oracle_cwr(M)
            # each witness is an end component with the right top rank
            for q, (U, acts) in witness.items():
                assert frozenset(U) in O.ec_state_sets(M)
                assert M.rank[q] == max(M.rank[p] for p in U)
                assert M.rank[q] % 2 == 0
                for s in U:
                    assert acts[s]
                    for a in acts[s]:
                        assert all(t in U for t, p in fraction_rows(M)[(s, a)] if p > 0)


class TestAlmostSureParity:
    def test_all_even_wins_everywhere(self):
        M = parity([([(1, ONE)], 2), ([(0, ONE)], 4)])
        W, _ = almost_sure_parity(M)
        assert set(W) == {0, 1}

    def test_all_odd_loses_everywhere(self):
        M = parity([([(1, ONE)], 1), ([(0, ONE)], 3)])
        W, _ = almost_sure_parity(M)
        assert set(W) == set()

    def test_matches_enumeration_oracle(self):
        rng = random.Random(405)
        for _ in range(30):
            M = O.random_parity_mdp(rng, rng.randint(2, 6))
            W, strat = almost_sure_parity(M)
            assert set(W) == O.oracle_parity_win(M)

    def test_witness_strategy_wins_exactly(self):
        rng = random.Random(406)
        for _ in range(20):
            M = O.random_parity_mdp(rng, rng.randint(2, 6))
            W, strat = almost_sure_parity(M)
            if not W:
                continue
            choice = {s: strat.get(s, 0) for s in range(M.n)}
            rows = O.chain_of_strategy(M, choice)
            reach = O.reach_sets(M.n, lambda s: rows[s].keys())
            bottoms = O.bottom_components(M.n, lambda s: rows[s].keys())
            for w in W:
                assert reach[w] <= set(W)
                for c in bottoms:
                    if c & reach[w]:
                        assert max(M.rank[s] for s in c) % 2 == 0


class TestMeanPayoff:
    def test_single_absorbing_state(self):
        M = RewardMDP([0], 0, [("go",)], {(0, 0): ((0, ONE),)}, [Fraction(2, 3)])
        value, choice = solve_mean_payoff(M)
        assert value == Fraction(2, 3)

    def test_picks_the_better_sink(self):
        trans = {(0, 0): ((1, ONE),), (0, 1): ((2, ONE),),
                 (1, 0): ((1, ONE),), (2, 0): ((2, ONE),)}
        M = RewardMDP([0, 1, 2], 0, [("a", "b"), ("go",), ("go",)], trans,
                      [Fraction(0), Fraction(0), ONE])
        value, choice = solve_mean_payoff(M)
        assert value == 1
        assert choice[0] == 1

    @staticmethod
    def count_policy_evaluations(monkeypatch):
        calls = []
        evaluate = mdp._evaluate_policy

        def counted(*args):
            calls.append(list(args[4]))  # the policy evaluated
            return evaluate(*args)

        monkeypatch.setattr(mdp, "_evaluate_policy", counted)
        return calls

    def test_unchanged_normalization_is_not_evaluated_again(self, monkeypatch):
        # state 0's first action attains nothing its second does: iteration
        # ends on the policy normalization picks, already evaluated
        calls = self.count_policy_evaluations(monkeypatch)
        trans = {(0, 0): ((1, ONE),), (0, 1): ((2, ONE),),
                 (1, 0): ((1, ONE),), (2, 0): ((2, ONE),)}
        M = RewardMDP([0, 1, 2], 0, [("a", "b"), ("go",), ("go",)], trans,
                      [Fraction(0), Fraction(0), ONE])
        assert solve_mean_payoff(M) == (1, {0: 1, 1: 0, 2: 0})
        assert len(calls) == 2

    def test_changed_normalization_is_evaluated_again(self, monkeypatch):
        # 0 -a-> 1 or 0 -b-> sink 3 (reward 1); 1 -a-> sink 2 (reward 0) or
        # 1 -b-> sink 3.  Iteration moves 0 to b while 1 is still worth 0;
        # once 1 takes b, 0's first action ties, so normalization moves 0
        # back to a, and that policy is evaluated and checked again.
        calls = self.count_policy_evaluations(monkeypatch)
        trans = {(0, 0): ((1, ONE),), (0, 1): ((3, ONE),),
                 (1, 0): ((2, ONE),), (1, 1): ((3, ONE),),
                 (2, 0): ((2, ONE),), (3, 0): ((3, ONE),)}
        M = RewardMDP([0, 1, 2, 3], 0, [("a", "b"), ("a", "b"), ("go",), ("go",)],
                      trans, [Fraction(0), Fraction(0), Fraction(0), ONE])
        assert solve_mean_payoff(M) == (1, {0: 0, 1: 1, 2: 0, 3: 0})
        assert len(calls) == 3 and calls[-1] != calls[-2]

    def test_mixed_reward_component_rejected(self):
        trans = {(0, 0): ((1, ONE),), (1, 0): ((0, ONE),)}
        M = RewardMDP([0, 1], 0, [("go",)] * 2, trans, [Fraction(0), ONE])
        with pytest.raises(MecRewardMismatch):
            solve_mean_payoff(M)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(407)
        for _ in range(30):
            M = O.random_reward_mdp(rng, rng.randint(2, 6))
            value, strat = solve_mean_payoff(M)
            assert value == O.oracle_mean_payoff(M)

    def test_returned_strategy_attains_the_value(self):
        rng = random.Random(408)
        for _ in range(20):
            M = O.random_reward_mdp(rng, rng.randint(2, 6))
            value, primary = solve_mean_payoff(M)
            choice = {s: primary.get(s, 0) for s in range(M.n)}
            got = O.chain_value(O.chain_of_strategy(M, choice),
                                M.initial, M.reward)
            assert got == value


class TestErgodicAnalysis:
    def test_irreducible_chain(self):
        C = MarkovChain([0, 1], 0, [((1, ONE),), ((0, ONE),)])
        comps, rho = mc_ergodic_analysis(C)
        assert len(comps) == 1 and rho == [ONE]

    def test_fair_coin_split(self):
        C = MarkovChain([0, 1, 2], 0,
                        [((1, HALF), (2, HALF)), ((1, ONE),), ((2, ONE),)])
        comps, rho = mc_ergodic_analysis(C)
        assert sorted(map(frozenset, comps), key=min) == \
            [frozenset({1}), frozenset({2})]
        assert rho == [HALF, HALF]

    def test_matches_naive_absorption(self):
        rng = random.Random(409)
        for _ in range(25):
            n = rng.randint(2, 6)
            rows_d = [dict() for _ in range(n)]
            for s in range(n):
                for t, p in O._random_row(rng, n):
                    rows_d[s][t] = rows_d[s].get(t, Fraction(0)) + p
            C = MarkovChain(list(range(n)), 0,
                            [tuple(r.items()) for r in rows_d])
            comps, rho = mc_ergodic_analysis(C)
            assert sum(rho) == 1
            reach0 = O.reach_sets(n, lambda s: rows_d[s].keys())[0]
            naive = [c for c in O.bottom_components(n, lambda s: rows_d[s].keys())
                     if c <= reach0]
            assert sorted(map(frozenset, comps), key=min) == naive
            for c, r in zip(comps, rho):
                want = O.absorption_probability(
                    rows_d, 0, frozenset(c),
                    [d for d in naive if d != frozenset(c)])
                assert r == want

    def test_induced_chain_roundtrip(self):
        rng = random.Random(410)
        M = O.random_pre_mdp(rng, 5)
        choice = {s: 0 for s in range(M.n)}
        C = induced_chain(M, choice)
        assert C.n == M.n
        for s in range(M.n):
            assert sum(p for _, p in fraction_rows(C)[s]) == 1


def test_sparse_solve_matches_dense_oracle():
    rng = random.Random(411)
    solved = singular = 0
    while solved < 200:
        k, width = rng.randint(1, 12), rng.randint(1, 3)
        density = rng.choice([0.2, 0.5, 1.0])
        matrix = []
        for _ in range(k):
            fill = 1.0 if rng.random() < 0.2 else density
            matrix.append([Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                           if rng.random() < fill else Fraction(0)
                           for _ in range(k + width)])
        rows = [{c: x for c, x in enumerate(row) if x} for row in matrix]
        try:
            want = O.dense_solve(matrix)
        except InternalConsistencyError:
            singular += 1
            with pytest.raises(InternalConsistencyError):
                solve_linear_system(rows, width)
            continue
        assert solve_linear_system(rows, width) == want
        solved += 1
    assert singular > 0


def test_singular_system_raises():
    rows = [{0: ONE, 1: ONE, 2: ONE}, {0: 2 * ONE, 1: 2 * ONE, 2: HALF}]
    with pytest.raises(InternalConsistencyError, match="singular"):
        solve_linear_system(rows, 1)


class TestSolverCeiling:
    # 8 nonzeros stored at first; eliminating column 0 fills two more,
    # so the peak is 10.
    ROWS = [{0: ONE, 1: ONE, 2: ONE, 3: ONE}, {0: ONE, 1: 2 * ONE}, {0: ONE, 2: 3 * ONE}]

    def test_fill_in_past_the_ceiling_raises(self):
        with O.state_ceiling_of(9), \
                pytest.raises(StateLimitExceeded, match="linear system") as exc:
            solve_linear_system(self.ROWS, 1)
        assert exc.value.limit == 9

    def test_ceiling_at_the_peak_passes(self):
        with O.state_ceiling_of(10):
            assert solve_linear_system(self.ROWS, 1) == [[6], [-3], [-2]]

    def test_ergodic_analysis_passes_its_ceiling_on(self):
        C = MarkovChain([0, 1, 2], 0,
                        [((1, HALF), (2, HALF)), ((1, ONE),), ((2, ONE),)])
        with O.state_ceiling_of(2), pytest.raises(StateLimitExceeded, match="linear system"):
            mc_ergodic_analysis(C)
        with O.state_ceiling_of(3):
            assert mc_ergodic_analysis(C)[1] == [HALF, HALF]
