"""Int-weight rows against the Fraction-row oracles, on every benchmark spec
and on random specs whose outputs sort between the inputs, and the exact
type of every value the library returns."""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from hqsynth.automata import ProductPreAutomaton, determinize, dpw_for, ltl_to_nbw, run_lasso
from hqsynth.booleanize import AtLeast, EqualTo, booleanize
from hqsynth.cli import load_spec_file
from hqsynth.common import InternalConsistencyError, all_letters
from hqsynth.evaluation import (
    almost_sure_value,
    conditional_almost_sure_floor,
    conditional_expected_value,
    expected_value,
    product_chain,
    worst_case_value,
    worst_case_witness,
)
from hqsynth.formulas import parse, values
from hqsynth.mdp import DistributionMDP, UniformInputs, induced_pre_mdp, solve_mean_payoff
from hqsynth.synthesis import SynthesisResult, SynthesisSpec, achievability_mdp, synthesize
from hqsynth.transducers import transducer_from_json

from oracles import (
    induced_fraction_rows,
    letter_table,
    oracle_eval,
    plain_determinize,
    product_chain_fraction_rows,
    random_formula,
    random_lasso,
    random_transducer,
)

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



# --- alphabets whose outputs sort between the inputs ----------------------
#
# Inputs {a, c} and outputs {b, d} interleave in the joint alphabet's bit
# order a, b, c, d: an input letter's bitmask over the inputs alone is not
# its bitmask over the joint alphabet, which indexes every automaton's rows.
# The bench/inputs specs have one output, or inputs that sort first.

AC, BD = frozenset({"a", "c"}), frozenset({"b", "d"})
ABCD = AC | BD


def _interleaved_process(rng):
    """An output-sensitive input process over AC: one state per input
    letter, so the process is told apart by the inputs it emits."""
    letters = all_letters(AC)
    trans = {}
    for s in range(len(letters)):
        for o in all_letters(BD):
            weights = [rng.randint(0, 3) for _ in letters]
            weights[rng.randrange(len(letters))] += 1
            trans[(s, o)] = [(t, Fraction(w, sum(weights))) for t, w in enumerate(weights)]
    return DistributionMDP(AC, BD, letters, 0, trans)


def _interleaved_specs():
    """Seeded random specs over inputs AC and outputs BD, each with uniform
    inputs and with a random input process."""
    rng = random.Random(2357)
    specs = []
    while len(specs) < 10:
        f = random_formula(rng, sorted(ABCD), rng.randint(4, 8))
        if f.atoms() & AC and f.atoms() & BD:  # reads an input and an output
            specs.append((f, [UniformInputs(AC, BD), _interleaved_process(rng)]))
    return specs


INTERLEAVED = _interleaved_specs()


@pytest.mark.parametrize("k", range(len(INTERLEAVED)))
def test_interleaved_dpw_rows_match_the_plain_table(k):
    f, _ = INTERLEAVED[k]
    letters = all_letters(ABCD)
    rng = random.Random(k)
    for v in values(f, ABCD):
        nbw = ltl_to_nbw(booleanize(f, EqualTo(v)), ABCD)
        dpw, want = determinize(nbw), plain_determinize(nbw)
        assert dpw.n_states == want.n_states and dpw.rank == want.rank
        table = letter_table(want)
        for q in range(dpw.n_states):
            assert [dpw.rows[q][m] for m in range(len(letters))] == \
                [table[(q, letter)] for letter in letters]
        for _ in range(10):
            w = random_lasso(rng, sorted(ABCD))
            assert run_lasso(dpw, w) == (oracle_eval(f, w) == v), (f, w)


@pytest.mark.parametrize("k", range(len(INTERLEAVED)))
def test_interleaved_induced_rows_match_fraction_oracle(k):
    f, processes = INTERLEAVED[k]
    dpws = [dpw_for(f, EqualTo(v), ABCD) for v in values(f, ABCD)]
    for automaton in (ProductPreAutomaton(dpws), dpws[0]):
        for process in processes:
            M = induced_pre_mdp(automaton, process)
            rows = [[M.weights[(s, a)] for a in range(len(M.actions[s]))]
                    for s in range(M.n)]
            assert _by_label(M.labels, rows, M.den) == \
                induced_fraction_rows(automaton, process)


@pytest.mark.parametrize("k", range(len(INTERLEAVED)))
def test_interleaved_product_chain_rows_match_fraction_oracle(k):
    f, processes = INTERLEAVED[k]
    dpws = [dpw_for(f, EqualTo(v), ABCD) for v in values(f, ABCD)]
    rng = random.Random(k)
    for process in processes:
        # a synthesized controller, and under uniform inputs a random one
        uniform = isinstance(process, UniformInputs)
        spec = SynthesisSpec(AC, BD, f, distribution=None if uniform else process)
        controllers = [synthesize(spec).transducer]
        if uniform:
            controllers.append(random_transducer(rng, AC, BD, 5))
        for T in controllers:
            C = product_chain(T, dpws, process)
            got = _by_label(C.labels, [[row] for row in C.weights], C.den)
            assert got == product_chain_fraction_rows(T, dpws, process)


@pytest.mark.parametrize("k", range(len(INTERLEAVED)))
def test_interleaved_synthesis_certifies(k):
    # `synthesize` re-evaluates its controller and `worst_case_witness`
    # replays its witness, so a step on a wrong mask in extraction, the
    # restricted MDP, the worst-case search or the assumption chain shows
    # up as an InternalConsistencyError or a changed assumption probability.
    f, processes = INTERLEAVED[k]
    for process in processes:
        dist = None if isinstance(process, UniformInputs) else process
        spec = SynthesisSpec(AC, BD, f, distribution=dist)
        worst_case_witness(synthesize(spec).transducer, f)
        synthesize(spec.replace(threshold=Fraction(1, 2)))
    res = synthesize(SynthesisSpec(AC, BD, f, assumption=parse("a | X c")))
    assert res.assumption_probability == Fraction(3, 4)


# --- induced MDPs restricted to safe actions, and assumption chains -------


def _kept_rows_oracle(full, start, safe):
    """{label: {output letter index: row}} of the oracle MDP `full` cut down
    to the output letters whose successors are all safe, over the labels
    reachable through them; None when a reached label keeps no letter."""
    kept: dict = {}
    queue = [start]
    while queue:
        lab = queue.pop()
        if lab in kept:
            continue
        kept[lab] = {a: row for a, row in enumerate(full[lab]) if all(map(safe, row))}
        if not kept[lab]:
            return None
        for row in kept[lab].values():
            queue.extend(row)
    return kept


def _safe_regions(full, rng):
    """A random set of labels, and the largest part of it in which every
    label keeps a letter whose successors all stay inside."""
    drawn = {lab for lab in full if rng.random() < 0.85}
    region = set(drawn)
    while True:
        smaller = {lab for lab in region
                   if any(all(t in region for t in row) for row in full[lab])}
        if smaller == region:
            return [drawn, region]
        region = smaller


SAFE_CASES = SPECS + [f"interleaved{k}" for k in range(len(INTERLEAVED))]


def _safe_case(name):
    """(automaton, process) pairs: the value automata product of a benchmark
    spec, or the product and first value automaton of an interleaved spec,
    each under uniform inputs and the spec's own process."""
    if name in SPECS:
        spec = _spec(name)
        return [(ProductPreAutomaton(_value_automata(spec)), p) for p in _processes(spec)]
    f, processes = INTERLEAVED[int(name[len("interleaved"):])]
    dpws = [dpw_for(f, EqualTo(v), ABCD) for v in values(f, ABCD)]
    return [(a, p) for a in (ProductPreAutomaton(dpws), dpws[0]) for p in processes]


@pytest.mark.parametrize("name", SAFE_CASES)
def test_safe_induced_mdp_matches_the_oracle(name):
    # Kept letters' rows equal the oracle's, every dropped letter has an
    # unsafe successor, and the labels are exactly those the kept actions
    # reach; a reached state that keeps no letter is an error.
    rng = random.Random(SAFE_CASES.index(name))
    for automaton, process in _safe_case(name):
        full = induced_fraction_rows(automaton, process)
        start = (automaton.initial, process.initial)
        # actions are output masks over the sorted joint alphabet, listed by
        # the oracle in the order of `all_letters(process.outputs)`
        joint = sorted(process.inputs | process.outputs)
        masks = [sum(1 << joint.index(a) for a in o) for o in all_letters(process.outputs)]
        for region in _safe_regions(full, rng):
            want = _kept_rows_oracle(full, start, region.__contains__)
            if want is None:
                with pytest.raises(InternalConsistencyError, match="no safe action"):
                    induced_pre_mdp(automaton, process, safe=region.__contains__)
                continue
            M = induced_pre_mdp(automaton, process, safe=region.__contains__)
            rows = [[M.weights[(s, a)] for a in range(len(M.actions[s]))]
                    for s in range(M.n)]
            by_label = _by_label(M.labels, rows, M.den)
            got = {lab: dict(zip(map(masks.index, M.actions[s]), by_label[lab]))
                   for s, lab in enumerate(M.labels)}
            assert got == want


def _insensitive_process(rng):
    """An output-insensitive input process over AC and BD whose rows list
    one law per state in a different order under each output, some with an
    entry split in two or a zero entry added."""
    letters = all_letters(AC)
    trans = {}
    for s in range(len(letters)):
        weights = [rng.randint(0, 3) for _ in letters]
        weights[rng.randrange(len(letters))] += 1
        law = [(t, Fraction(w, sum(weights))) for t, w in enumerate(weights) if w]
        for o in all_letters(BD):
            row = list(law)
            rng.shuffle(row)
            if rng.random() < 0.3:
                t, p = row.pop()
                row += [(t, p / 2), (t, p / 2)]
            if rng.random() < 0.3:
                row.insert(rng.randrange(len(row) + 1), (rng.randrange(len(letters)), 0))
            trans[(s, o)] = row
    return DistributionMDP(AC, BD, letters, 0, trans)


def test_assumption_rows_do_not_depend_on_the_output():
    # An assumption ranges over the inputs, so under an output-insensitive
    # process every action of its induced MDP has action 0's row: the chain
    # under the empty output letter is the chain of every action.
    rng = random.Random(1729)
    cases = []
    for name in SPECS:
        spec = _spec(name)
        if spec.assumption is not None:
            atoms = spec.inputs | spec.outputs
            cases += [(spec.assumption, atoms, p) for p in _processes(spec)]
    while len(cases) < 30:
        psi = random_formula(rng, sorted(AC), rng.randint(2, 7))
        if psi.atoms():
            cases.append((psi, ABCD, rng.choice([UniformInputs(AC, BD),
                                                 _insensitive_process(rng)])))
    for psi, atoms, process in cases:
        assert process.output_insensitive()
        M = induced_pre_mdp(dpw_for(psi, AtLeast(Fraction(1)), atoms), process)
        assert all(M.actions[s][0] == 0 for s in range(M.n))  # the empty output
        for s in range(M.n):
            for a in range(len(M.actions[s])):
                assert M.weights[(s, a)] == M.weights[(s, 0)], (psi, s, a)


def test_worst_case_witness_digest():
    # One digest over the worst-case witnesses of the controllers synthesized
    # for every benchmark spec and of the committed gf2 controller, recorded
    # when the lasso's prefix and cycle searches were two searches.
    with open(os.path.join(INPUTS, "gf2_controller.json"), encoding="utf-8") as fh:
        gf2 = transducer_from_json(json.load(fh))
    controllers = [(synthesize(_plain(_spec(name))).transducer, _spec(name).formula)
                   for name in SPECS]
    controllers.append((gf2, _spec("gf2").formula))
    digest = hashlib.sha256()
    for T, f in controllers:
        value, w = worst_case_witness(T, f)
        text = repr((str(value), [sorted(i) for i in w.prefix],
                     [sorted(i) for i in w.period]))
        digest.update(text.encode())
    assert digest.hexdigest() == \
        "53afb8736cacf7ade45f42c47659936717f720f3df2734175885f379f23fe9b7"
