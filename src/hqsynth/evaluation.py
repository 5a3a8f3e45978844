"""Exact evaluation of transducers against quantitative temporal formulas.

The workhorse is a product Markov chain: the transducer driven by the input
process, tracked by one deterministic parity automaton per attainable value
(plus one for the assumption, when conditioning).  Every run is absorbed
into an ergodic component, each ergodic component is accepted by exactly
one value automaton, and absorption probabilities are computed by an exact
linear solve.  Expected, conditional, and almost-sure values all read off
that decomposition with Fraction arithmetic throughout.

Worst-case evaluation is adversarial instead of stochastic: a parity lasso
search over the product of the transducer with each value automaton, in
ascending value order.

The chain is driven by an input process (uniform inputs when `dist` is
None).  Input processes are output-dependent in general, which creates a
chicken and egg problem: the process needs the current output letter
before the input is drawn, but a transducer's output may depend on the
input just read.  Evaluation therefore requires, at every reachable
process state, either rows that ignore the output or a transducer state
whose successors share one label; anything else is rejected rather than
silently approximated.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .booleanize import AtLeast, EqualTo
from .common import (InternalConsistencyError, all_letters, explore, letter_masks,
                     probability_row)
from .automata import dpw_for, parity_lasso
from .formulas import Formula, LassoWord, check_nesting, eval_lasso, is_boolean, values
from .mdp import MarkovChain, input_process, mc_ergodic_analysis
from .transducers import Transducer, computation_lasso


class AssumptionHasZeroProbability(ValueError):
    """Conditioning on a probability-zero assumption is undefined."""


def _check_formula(T: Transducer, formula: Formula):
    check_nesting(formula)
    if not formula.atoms() <= T.inputs | T.outputs:
        raise ValueError("formula uses atoms the transducer does not carry")


def _moves(T: Transducer) -> dict:
    """{state: {input mask: (successor, the successor's output mask)}} of a
    transducer, masks over its joint alphabet, inputs in `all_letters`
    order: its letters looked up once."""
    masks = letter_masks(T.inputs | T.outputs)
    out = {q: masks[lab] for q, lab in T.labels.items()}
    return {q: {masks[i]: (T.delta[(q, i)], out[T.delta[(q, i)]])
                for i in all_letters(T.inputs)}
            for q in T.states}


def product_chain(T: Transducer, automata, dist=None) -> MarkovChain:
    """The chain over (transducer state, automaton state tuple, process state).

    The process must be told the output letter before it draws the input;
    see the module docstring.
    """
    process = input_process(dist, T.inputs, T.outputs)
    if process.inputs != T.inputs or process.outputs != T.outputs:
        raise ValueError("input process and transducer disagree on alphabets")
    if any(a.atoms != T.inputs | T.outputs for a in automata):
        raise ValueError("automaton and input process disagree on the alphabet")
    moves = _moves(T)

    def expand(state, number):
        t, qs, sd = state
        step = moves[t]
        committed = 0
        if not process.insensitive_at(sd):
            labels = {o for _, o in step.values()}
            if len(labels) != 1:
                raise ValueError(
                    "output-sensitive input process needs outputs committed one "
                    "step ahead: all successors of a transducer state must share "
                    "a label")
            (committed,) = labels
        rows = [a.rows[q] for a, q in zip(automata, qs)]
        branches = []
        for i, sd2, w in process.branches(sd, committed):
            t2, o = step[i]
            branches.append(((t2, tuple([row[i | o] for row in rows]), sd2), w))
        return probability_row(branches, number)

    init = (T.initial, tuple(a.initial for a in automata), process.initial)
    states, rows = explore(init, expand, "evaluation product")
    return MarkovChain(states, 0, rows, den=process.den)


def _component_accepts(chain: MarkovChain, comp, pos: int, dpw) -> bool:
    # the automaton's states visited infinitely often are exactly its
    # projections of the ergodic component
    top = max(dpw.rank[chain.labels[s][1][pos]] for s in comp)
    return top % 2 == 0


def _classify(chain: MarkovChain, bottoms, dpws, vals):
    out = []
    for comp in bottoms:
        hits = [v for pos, (dpw, v) in enumerate(zip(dpws, vals))
                if _component_accepts(chain, comp, pos, dpw)]
        if len(hits) != 1:
            raise InternalConsistencyError(
                f"ergodic component accepted by {len(hits)} value automata")
        out.append(hits[0])
    return out


def _setup(T: Transducer, formula: Formula, extras=(), dist=None):
    _check_formula(T, formula)
    atoms = T.inputs | T.outputs
    vals = values(formula, atoms)
    dpws = [dpw_for(formula, EqualTo(v), atoms) for v in vals]
    extra_dpws = [dpw_for(g, AtLeast(Fraction(1)), atoms) for g in extras]
    chain = product_chain(T, dpws + extra_dpws, dist)
    bottoms, rho = mc_ergodic_analysis(chain)
    comp_values = _classify(chain, bottoms, dpws, vals)
    return chain, bottoms, rho, comp_values, len(dpws)


def check_assumption(assumption: Formula, inputs):
    """Reject an assumption that is not a classical formula over the inputs."""
    check_nesting(assumption, "assumption")
    if not is_boolean(assumption):
        raise ValueError("assumption must be a classical formula")
    if not assumption.atoms() <= inputs:
        raise ValueError("assumption must range over inputs only")


def outcomes(T: Transducer, formula: Formula, assumption=None, dist=None):
    """(probability, value) of each ergodic component of the product chain;
    given an assumption, of the components where it holds, with their
    probabilities conditioned on it."""
    if assumption is None:
        _, _, rho, comp_values, _ = _setup(T, formula, (), dist)
        return list(zip(rho, comp_values))
    check_assumption(assumption, T.inputs)
    chain, bottoms, rho, comp_values, n_vals = _setup(T, formula, (assumption,), dist)
    psi_dpw = dpw_for(assumption, AtLeast(Fraction(1)), T.inputs | T.outputs)
    kept = [(p, v) for comp, p, v in zip(bottoms, rho, comp_values)
            if _component_accepts(chain, comp, n_vals, psi_dpw)]
    mass = sum((p for p, _ in kept), Fraction(0))
    if mass == 0:
        raise AssumptionHasZeroProbability("the assumption holds with probability 0")
    return [(p / mass, v) for p, v in kept]


def expectation(outs) -> Fraction:
    return sum((p * v for p, v in outs), Fraction(0))


def floor_of(outs) -> Fraction:
    """The smallest value among (probability, value) outcomes with mass."""
    return min(v for p, v in outs if p > 0)


def expected_value(T: Transducer, formula: Formula, dist=None) -> Fraction:
    return expectation(outcomes(T, formula, None, dist))


def conditional_expected_value(T: Transducer, formula: Formula, assumption: Formula,
                               dist=None) -> Fraction:
    return expectation(outcomes(T, formula, assumption, dist))


def almost_sure_value(T: Transducer, formula: Formula, dist=None) -> Fraction:
    """The largest value the computation reaches with probability one, i.e.
    the smallest value among ergodic components that carry mass."""
    return floor_of(outcomes(T, formula, None, dist))


def conditional_almost_sure_floor(T: Transducer, formula: Formula, assumption: Formula,
                                  dist=None) -> Fraction:
    """The largest value reached with conditional probability one, given
    the assumption."""
    return floor_of(outcomes(T, formula, assumption, dist))


# --- worst case ----------------------------------------------------------


def worst_case_witness(T: Transducer, formula: Formula):
    """(value, input lasso word) attaining the minimum over all input words.

    Works through the attainable values in ascending order and stops at the
    first with an accepting lasso in the product of the transducer and that
    value's automaton.  The witness is replayed through the transducer and
    re-evaluated before being returned.
    """
    _check_formula(T, formula)
    atoms = T.inputs | T.outputs
    letters, moves = all_letters(atoms), _moves(T)
    pos = {q: k for k, q in enumerate(T.states)}
    # targets[k]: (input mask, successor's position, its output mask) of
    # each input, from state k
    targets = [[(i, pos[t2], o) for i, (t2, o) in moves[q].items()] for q in T.states]
    for v in values(formula, atoms):
        dpw = dpw_for(formula, EqualTo(v), atoms)

        def succ(node, rows=dpw.rows):
            tk, q = node
            return [(i, (k2, rows[q][i | o])) for i, k2, o in targets[tk]]

        found = parity_lasso((pos[T.initial], dpw.initial), succ,
                             lambda node: dpw.rank[node[1]])
        if found is None:
            continue
        prefix, cycle = found
        witness = LassoWord.make([letters[i] for i in prefix],
                                 [letters[i] for i in cycle], T.inputs)
        if eval_lasso(formula, computation_lasso(T, witness)) != v:
            raise InternalConsistencyError("worst-case witness replay disagrees")
        return v, witness
    raise InternalConsistencyError("no attainable value has an accepting lasso")


def worst_case_value(T: Transducer, formula: Formula) -> Fraction:
    return worst_case_witness(T, formula)[0]


# --- simulation ----------------------------------------------------------


def simulate(T: Transducer, formula: Formula, samples: int, seed: int, dist=None):
    """Monte-Carlo check of the exact pipeline: (mean, per-sample values,
    exact expected value), the exact value read off the same analysis.

    Walks the same product chain with a seeded generator until absorption;
    the sample's value is the value of the component entered.  Bit-for-bit
    reproducible for a fixed seed: each step draws u = r / 2^53 and takes
    the first successor whose cumulative probability exceeds u, compared
    in ints as r * den < (cumulative weight) * 2^53.
    """
    import random

    chain, bottoms, rho, comp_values, _ = _setup(T, formula, (), dist)
    component = {s: k for k, comp in enumerate(bottoms) for s in comp}
    rng = random.Random(seed)
    rows, den = chain.weights, chain.den
    hits = []
    for _ in range(samples):
        s = chain.initial
        steps = 0
        while s not in component:
            r = rng.getrandbits(53) * den
            acc = 0
            nxt = None
            for t, w in rows[s]:
                acc += w
                if r < acc << 53:
                    nxt = t
                    break
            s = nxt if nxt is not None else rows[s][-1][0]
            steps += 1
            if steps > 1_000_000:
                raise InternalConsistencyError("simulation failed to absorb")
        hits.append(component[s])
    # Tallied by component, in ints: one term per component entered.
    mean = sum((comp_values[k] * c for k, c in Counter(hits).items()), Fraction(0)) \
        / samples if samples else Fraction(0)
    return mean, [comp_values[k] for k in hits], expectation(zip(rho, comp_values))
