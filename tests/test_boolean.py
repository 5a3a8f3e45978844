"""Threshold compilation: graded formula + value predicate -> Boolean LTL.

The central contract is semantic: a lasso satisfies the compiled formula
exactly when its graded value meets the predicate.  Everything is checked
by evaluating both sides on words, never by comparing syntax trees.
"""

import random
from fractions import Fraction

from hqsynth.booleanize import AtLeast, EqualTo, GreaterThan, booleanize
from hqsynth.formulas import (
    Atom,
    LassoWord,
    candidate_values,
    Not,
    conj,
    eval_lasso,
    is_boolean,
    parse,
    values,
)

from oracles import (
    bexpr_to_formula,
    fraction_booleanize,
    fraction_candidates,
    oracle_eval,
    random_formula,
    random_lasso,
)
from scenarios import battery_formula, hard_drive_formula, message_formula


def holds(beta, word):
    v = eval_lasso(bexpr_to_formula(beta), word)
    assert v in (0, 1)
    return v == 1


def constant_lassos(atoms):
    from hqsynth.common import all_letters
    return [LassoWord.make([], [letter], frozenset(atoms))
            for letter in all_letters(atoms)]


def test_boolean_fragment_passes_through():
    f = conj(Atom("p"), Atom("q"))
    beta = booleanize(f, AtLeast(Fraction(1)))
    assert is_boolean(bexpr_to_formula(beta))
    for w in constant_lassos(["p", "q"]):
        assert holds(beta, w) == (eval_lasso(f, w) == 1)


def test_unreachable_threshold_collapses_to_false():
    beta = booleanize(parse("factor{1/2} p"), AtLeast(Fraction(3, 4)))
    for w in constant_lassos(["p"]):
        assert not holds(beta, w)
    from hqsynth.booleanize import B_FALSE
    assert beta == B_FALSE


def test_weighted_average_half_behaves_like_disjunction():
    f = parse("wavg{1/2}(p, q)")
    beta = booleanize(f, AtLeast(Fraction(1, 2)))
    for w in constant_lassos(["p", "q"]):
        assert holds(beta, w) == bool(w.period[0])


def test_at_least_zero_always_holds():
    rng = random.Random(201)
    for _ in range(30):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
        beta = booleanize(f, AtLeast(Fraction(0)))
        for _ in range(5):
            assert holds(beta, random_lasso(rng, ["a", "b"]))


def test_greater_than_one_never_holds():
    rng = random.Random(202)
    for _ in range(30):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
        beta = booleanize(f, GreaterThan(Fraction(1)))
        for _ in range(5):
            assert not holds(beta, random_lasso(rng, ["a", "b"]))


def test_at_least_matches_semantics():
    rng = random.Random(203)
    for _ in range(60):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 7))
        for v in values(f):
            beta = booleanize(f, AtLeast(v))
            assert is_boolean(bexpr_to_formula(beta))
            for _ in range(6):
                w = random_lasso(rng, ["a", "b"])
                assert holds(beta, w) == (oracle_eval(f, w) >= v), (f, v, w)


def test_equal_to_matches_semantics():
    rng = random.Random(204)
    for _ in range(60):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 7))
        for v in values(f):
            beta = booleanize(f, EqualTo(v))
            for _ in range(6):
                w = random_lasso(rng, ["a", "b"])
                assert holds(beta, w) == (oracle_eval(f, w) == v), (f, v, w)


def test_strictly_greater_matches_semantics():
    rng = random.Random(205)
    for _ in range(40):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
        for v in values(f):
            beta = booleanize(f, GreaterThan(v))
            for _ in range(5):
                w = random_lasso(rng, ["a", "b"])
                assert holds(beta, w) == (oracle_eval(f, w) > v), (f, v, w)


def test_threshold_monotone_in_v():
    rng = random.Random(206)
    for _ in range(30):
        f = random_formula(rng, ["a", "b"], rng.randint(1, 6))
        vs = values(f)
        for _ in range(5):
            w = random_lasso(rng, ["a", "b"])
            sat = [holds(booleanize(f, AtLeast(v)), w) for v in vs]
            # once the threshold passes the word's value, satisfaction
            # flips from True to False and stays there
            assert sat == sorted(sat, reverse=True)


def test_negation_swaps_to_dual_threshold():
    rng = random.Random(207)
    for _ in range(30):
        f = random_formula(rng, ["a"], rng.randint(1, 5))
        v = Fraction(1, 2)
        beta = booleanize(Not(f), AtLeast(v))
        for _ in range(5):
            w = random_lasso(rng, ["a"])
            assert holds(beta, w) == (1 - oracle_eval(f, w) >= v)


def test_shared_memo_gives_the_trees_of_fresh_calls():
    # Unlike the semantic tests above, this compares syntax trees: reusing
    # the memo across the predicates of one formula must not change what
    # is built.  Parsing anew gives a distinct formula object and so a
    # fresh memo.
    rng = random.Random(408)
    preds = [AtLeast, GreaterThan, EqualTo]
    for _ in range(40):
        text = str(random_formula(rng, ["a", "b"], rng.randint(2, 9)))
        shared = parse(text)
        cases = [pred(v) for v in values(shared, frozenset({"a", "b"})) for pred in preds]
        trees = [booleanize(shared, p) for p in cases]
        assert trees == [booleanize(parse(text), p) for p in cases]


def test_integer_bounds_give_the_trees_of_fraction_bounds():
    # Bounds travel as integer numerator and denominator and candidate
    # values as numerators over one denominator; the recursion on `Fraction`
    # bounds builds the same trees, over the candidate values of the
    # automaton draws and the worked examples and a few more thresholds.
    rng = random.Random(8)
    preds = [AtLeast, GreaterThan, EqualTo]
    extra = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(-1, 2),
             Fraction(3, 2)]
    formulas = [random_formula(rng, ["a", "b"], rng.randint(1, 10)) for _ in range(300)]
    formulas += [hard_drive_formula(), message_formula(), battery_formula(8)]
    for f in formulas:
        assert candidate_values(f) == sorted(fraction_candidates(f)), str(f)
        for v in candidate_values(f) + extra:
            for pred in preds:
                assert booleanize(f, pred(v)) == fraction_booleanize(f, pred(v)), (str(f), pred(v))
