"""Int-weight rows against the Fraction-row oracles, on every benchmark spec,
and the exact type of every value the library returns."""

import json
import os
from fractions import Fraction

import pytest

from hqsynth.automata import ProductPreAutomaton, dpw_for
from hqsynth.booleanize import EqualTo
from hqsynth.cli import load_spec_file
from hqsynth.evaluation import (
    almost_sure_value,
    conditional_almost_sure_floor,
    conditional_expected_value,
    expected_value,
    product_chain,
    worst_case_value,
)
from hqsynth.formulas import values
from hqsynth.mdp import UniformInputs, induced_pre_mdp, solve_mean_payoff
from hqsynth.synthesis import SynthesisResult, achievability_mdp, synthesize

from oracles import induced_fraction_rows, product_chain_fraction_rows

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "bench", "inputs")


def _spec_names():
    names = []
    for name in sorted(os.listdir(INPUTS)):
        with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "formula" in doc:  # not a controller
            names.append(name[:-len(".json")])
    return names


SPECS = _spec_names()


def _spec(name):
    return load_spec_file(os.path.join(INPUTS, name + ".json"))


def _processes(spec):
    """Uniform inputs, and the spec's own process when it has one."""
    out = [UniformInputs(spec.inputs, spec.outputs)]
    if spec.distribution is not None:
        out.append(spec.distribution)
    return out


def _value_automata(spec):
    atoms = spec.inputs | spec.outputs
    return [dpw_for(spec.formula, EqualTo(v), atoms) for v in values(spec.formula, atoms)]


def _by_label(labels, rows, den):
    """Weight rows as {label: [{successor label: Fraction}]}, after checking
    that every weight is a positive int and every row sums to `den`."""
    out = {}
    for s, state_rows in enumerate(rows):
        out[labels[s]] = []
        for row in state_rows:
            assert all(type(w) is int and w > 0 for _, w in row)
            assert sum(w for _, w in row) == den
            out[labels[s]].append({labels[t]: Fraction(w, den) for t, w in row})
    return out


def _plain(spec):
    return spec.replace(threshold=None, hard_constraint=None)


def test_every_spec_is_covered():
    assert len(SPECS) >= 10
    assert any(_spec(name).distribution is not None for name in SPECS)


@pytest.mark.parametrize("name", SPECS)
def test_induced_rows_match_fraction_oracle(name):
    spec = _spec(name)
    prod = ProductPreAutomaton(_value_automata(spec))
    for process in _processes(spec):
        M = induced_pre_mdp(prod, process)
        rows = [[M.weights[(s, a)] for a in range(len(M.actions[s]))] for s in range(M.n)]
        assert _by_label(M.labels, rows, M.den) == induced_fraction_rows(prod, process)


@pytest.mark.parametrize("name", SPECS)
def test_product_chain_rows_match_fraction_oracle(name):
    spec = _spec(name)
    T = synthesize(_plain(spec)).transducer
    dpws = _value_automata(spec)
    for process in _processes(spec):
        C = product_chain(T, dpws, process)
        got = _by_label(C.labels, [[row] for row in C.weights], C.den)
        assert got == product_chain_fraction_rows(T, dpws, process)


def _assert_fraction(x):
    assert type(x) is Fraction, f"{x!r} is a {type(x).__name__}"


@pytest.mark.parametrize("name", SPECS)
def test_values_are_fractions(name):
    spec = _spec(name)
    variants = [_plain(spec)]
    # the threshold of defect_hard_constraint still fails its floor check
    if spec.threshold is not None and name != "defect_hard_constraint":
        variants.append(spec)
    for variant in variants:
        res = synthesize(variant)
        if not isinstance(res, SynthesisResult):
            continue
        _assert_fraction(res.expected_value)
        for x in (res.almost_sure_floor, res.assumption_probability):
            if x is not None:
                _assert_fraction(x)
    T = synthesize(variants[0]).transducer
    process, psi = spec.distribution, spec.assumption
    if psi is None:
        _assert_fraction(expected_value(T, spec.formula, process))
        _assert_fraction(almost_sure_value(T, spec.formula, process))
    else:
        _assert_fraction(conditional_expected_value(T, spec.formula, psi, process))
        _assert_fraction(conditional_almost_sure_floor(T, spec.formula, psi, process))
    _assert_fraction(worst_case_value(T, spec.formula))
    RM, _ = achievability_mdp(spec.formula, spec.inputs, spec.outputs, process)
    _assert_fraction(solve_mean_payoff(RM)[0])

