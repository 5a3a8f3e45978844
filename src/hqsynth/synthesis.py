"""Controller synthesis maximizing the expected satisfaction value.

One pipeline, `synthesize`: build one parity automaton per attainable
value of the formula, take their synchronized product, turn it into an MDP
whose actions are output letters (chosen before the same step's input is
drawn), attach to every state the largest value achievable from it with
probability one, and solve for optimal mean payoff.  The optimal memoryless
choice is then refined into a two-phase strategy: once the induced chain is
absorbed into an end component carrying a positive reward, play switches to
the embedded parity-winning strategy of that value's automaton, which locks
the value in almost surely.  The controller is extracted and re-evaluated
before it is returned.

The spec's optional fields add two optional pieces to that pipeline:
  * a floor, when a threshold t is set: the automaton for "value at least
    t" of the formula (or of the hard constraint, or of "assumption
    implies formula") is built first and answers unrealizability.  It then
    joins the product after the value automata; only output letters that
    stay inside its almost-surely-winning region remain actions, values
    below t are dropped (unless the floor is on a hard constraint), and any
    run about to violate the floor is redirected to that region's winning
    strategy;
  * an assumption reset, when the assumption has a probability strictly
    between 0 and 1 (probability 1 drops it): the assumption automaton
    joins the product last, and the MDP is analyzed in a copy in which
    every state whose assumption component is doomed jumps back to the
    initial state.  Renewal makes the ordinary expectation of the copy
    equal the conditional expectation of the real chain, which is how the
    returned value is certified.

The order of construction (floor automaton, value automata, assumption
automaton) fixes the numbering of MDP states, which breaks ties in policy
iteration and so decides the controller; changing it changes controllers.

The environment is the spec's input process, uniform inputs when it has
none; every MDP here labels its states (automaton state, process state).

Extracted controllers commit each output one step ahead: the transducer
state entered on input i is labeled with the output decided before i was
read, so every state's successors share a label.  Controllers of this shape
are exactly the ones the MDP view can price, and they remain evaluable
under output-sensitive input processes.
"""

from __future__ import annotations

from fractions import Fraction

from .automata import ProductPreAutomaton, dpw_for
from .booleanize import AtLeast, EqualTo
from .common import (InternalConsistencyError, all_letters, explore, letter_masks,
                     parse_fraction)
from .evaluation import (
    AssumptionHasZeroProbability,
    almost_sure_value,
    check_assumption,
    conditional_expected_value,
    expectation,
    expected_value,
    floor_of,
    outcomes,
)
from .formulas import Formula, check_nesting, implies, values
from .mdp import (
    DistributionMDP,
    ParityMDP,
    PreMDP,
    RewardMDP,
    almost_sure_parity,
    induced_chain,
    induced_pre_mdp,
    input_process,
    mc_ergodic_analysis,
    solve_mean_payoff,
)
from .transducers import Transducer


class SynthesisSpec:
    def __init__(self, inputs, outputs, formula: Formula,
                 assumption: Formula | None = None,
                 threshold: Fraction | None = None,
                 hard_constraint: Formula | None = None,
                 distribution: DistributionMDP | None = None):
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        self.formula = formula
        self.assumption = assumption
        self.threshold = threshold
        self.hard_constraint = hard_constraint
        self.distribution = distribution
        if self.inputs & self.outputs:
            raise ValueError("inputs and outputs must be disjoint")
        check_nesting(self.formula)
        if not self.formula.atoms() <= self.inputs | self.outputs:
            raise ValueError("formula uses atoms outside the declared alphabet")
        if self.assumption is not None:
            check_assumption(self.assumption, self.inputs)
        if self.threshold is not None:
            t = self.threshold
            if isinstance(t, str):
                t = parse_fraction(t)
            elif type(t) is not int and not isinstance(t, Fraction):
                raise ValueError(f"threshold {t!r} is not an int, a Fraction "
                                 "or a rational string")
            self.threshold = Fraction(t)
            if not 0 <= self.threshold <= 1:
                raise ValueError("threshold must lie in [0,1]")
        if self.hard_constraint is not None:
            if self.threshold is None:
                raise ValueError("a hard constraint needs a threshold")
            if self.assumption is not None:
                raise ValueError("hard constraint and assumption cannot be combined")
            check_nesting(self.hard_constraint, "hard constraint")
            if not self.hard_constraint.atoms() <= self.inputs | self.outputs:
                raise ValueError("hard constraint uses atoms outside the alphabet")
        process = input_process(self.distribution, self.inputs, self.outputs)
        if process.inputs != self.inputs or process.outputs != self.outputs:
            raise ValueError("input process and spec disagree on alphabets")

    def replace(self, **changes) -> SynthesisSpec:
        """A copy of the spec with the given fields changed, validated anew."""
        return SynthesisSpec(**{**vars(self), **changes})


class SynthesisResult:
    def __init__(self, transducer: Transducer, expected_value: Fraction,
                 almost_sure_floor: Fraction | None = None,
                 assumption_probability: Fraction | None = None,
                 stats: dict | None = None):
        self.transducer = transducer
        self.expected_value = expected_value
        self.almost_sure_floor = almost_sure_floor
        self.assumption_probability = assumption_probability
        self.stats = {} if stats is None else stats


class Unrealizable:
    """No controller keeps the value above the threshold almost surely.

    Not an error: a legitimate outcome carrying the losing states of the
    threshold automaton's MDP as a diagnostic.
    """

    def __init__(self, threshold: Fraction, losing_region: tuple,
                 stats: dict | None = None):
        self.threshold = threshold
        self.losing_region = losing_region
        self.stats = {} if stats is None else stats


# --- shared machinery ----------------------------------------------------
#
# Every MDP below is driven by an input process and labels its states
# (automaton state, process state); under a product automaton the first
# entry is the tuple of component states.


def _component_win(dpw, M):
    """Almost-sure parity winning region of one automaton's induced MDP M,
    as (winning keys, key -> winning output mask)."""
    ranks = [dpw.rank[q] for q, _ in M.labels]
    PM = ParityMDP(M.labels, M.initial, M.actions, M.weights, ranks, den=M.den)
    win, strat = almost_sure_parity(PM)
    keys = frozenset(M.labels[s] for s in win)
    outs = {M.labels[s]: M.actions[s][a] for s, a in strat.items()}
    return keys, outs


def _gamma_rewards(M, vals, wins):
    """Per-state reward: the largest value whose automaton projection is
    almost-surely winnable.  Only read on end-component states, where it is
    constant on every maximal end component; `solve_mean_payoff` checks that."""
    gamma = []
    for qs, sd in M.labels:
        best = Fraction(0)
        for pos, (v, w) in enumerate(zip(vals, wins)):
            if v > best and (qs[pos], sd) in w:
                best = v
        gamma.append(best)
    return gamma


def _install_triggers(M, primary, vals, att, t):
    """Absorption analysis of the primary strategy's chain.

    Positive-reward components switch to the matching value's winning
    strategy.  Zero-reward components whose threshold automaton `att`
    (placed right after the value automata) would reject switch to the
    floor strategy instead (only meaningful for a positive threshold t).
    Returns the trigger map and the exact expected reward of the refined
    strategy.
    """
    chain = induced_chain(M, primary)
    bottoms, rho = mc_ergodic_analysis(chain)
    triggers = {}
    realized = Fraction(0)
    for comp, p in zip(bottoms, rho):
        g = M.reward[min(comp)]
        realized += p * g
        if g > 0:
            key = ("win", vals.index(g))
            for s in comp:
                triggers[s] = key
        elif att is not None and t > 0:
            top = max(att.rank[chain.labels[s][0][len(vals)]] for s in comp)
            if top % 2 == 1:
                for s in comp:
                    triggers[s] = ("floor",)
    return triggers, realized


def _extract(prod, M, primary, triggers, phase_letters, process) -> Transducer:
    """Turn a two-phase MDP strategy into a transducer.

    Output commitment is off by one against the letter semantics: the
    output appearing at a position belongs to the state entered on that
    position's input.  Transducer states therefore carry the output chosen
    one step earlier, and every state's successors share their label.
    Memory is the current phase; triggers fire on entry.  The process state
    is tracked from the observed inputs; inputs the process cannot emit lead
    to an absorbing sink.  Worst-case evaluation, which ignores the process,
    reads the sink's label: it is empty, except where the process reads the
    output, where it is the committed output so that successors share a label.
    """
    letters, masks = all_letters(prod.atoms), letter_masks(prod.atoms)
    in_letters = all_letters(process.inputs)
    in_masks = [masks[i] for i in in_letters]
    index_of = {lab: s for s, lab in enumerate(M.labels)}
    trigger_by_label = {M.labels[s]: key for s, key in triggers.items()}

    def act(m, lab):
        if m is None:
            s = index_of.get(lab)
            if s is None:
                raise InternalConsistencyError("primary play left the analyzed region")
            return M.actions[s][primary[s]]
        pos, outs = phase_letters[m]
        qs, sd = lab
        out = outs.get((qs[pos], sd))
        if out is None:
            raise InternalConsistencyError("phase play left its winning region")
        return out

    def upd(m, lab):
        return trigger_by_label.get(lab) if m is None else m

    # nodes are (MDP label, phase, stored output mask); sinks are (None, None,
    # output mask)
    def expand(node, number):
        lab, m, stored = node
        if lab is None:
            return stored, [number(node)] * len(in_masks)
        out = act(m, lab)
        qs, sd = lab
        row = prod.rows[qs]
        sink = (None, None, 0 if process.insensitive_at(sd) else out)
        succs = []
        for i in in_masks:
            sd2 = process.next_state(sd, out, i)
            if sd2 is None:
                succs.append(number(sink))
            else:
                lab2 = (row[i | out], sd2)
                succs.append(number((lab2, upd(m, lab2), out)))
        return stored, succs

    start = M.labels[M.initial]
    m0 = upd(None, start)
    nodes, rows = explore((start, m0, act(m0, start)), expand, "transducer extraction")
    delta = {(k, i): j for k, (_, succs) in enumerate(rows)
             for i, j in zip(in_letters, succs)}
    labels = {k: letters[stored] for k, (stored, _) in enumerate(rows)}
    return Transducer(process.inputs, process.outputs, range(len(nodes)), 0,
                      delta, labels)


# --- assumption probability ----------------------------------------------


def _assumption_chain(psi_dpw, process):
    """(probability that the input word satisfies the assumption, the
    (automaton state, process state) keys inside rejecting ergodic
    components, where the assumption fails surely), from one analysis of
    the assumption automaton's chain under the input process.

    The chain is the induced MDP under action 0, the empty output letter.
    That is exact: the assumption ranges over inputs only
    (`check_assumption`), so the automaton's rows do not depend on output
    bits, and both callers require an output-insensitive process, so every
    action's row equals action 0's and numbers no other state.
    """
    M = induced_pre_mdp(psi_dpw, process)
    bottoms, rho = mc_ergodic_analysis(induced_chain(M, [0] * M.n))
    prob = Fraction(0)
    rejecting = set()
    for comp, p in zip(bottoms, rho):
        keys = [M.labels[s] for s in comp]
        if max(psi_dpw.rank[q] for q, _ in keys) % 2 == 0:
            prob += p
        else:
            rejecting.update(keys)
    return prob, rejecting


def prob_of_assumption(assumption: Formula, inputs, dist=None) -> Fraction:
    """Probability that the input word satisfies a classical formula."""
    inputs = frozenset(inputs)
    check_assumption(assumption, inputs)
    process = input_process(dist, inputs, frozenset())
    if not process.output_insensitive():
        raise ValueError("assumption probability needs an output-insensitive input process")
    # over the process's outputs too, as the induced MDP's letters are; the
    # assumption reads none of them
    dpw = dpw_for(assumption, AtLeast(Fraction(1)), inputs | process.outputs)
    return _assumption_chain(dpw, process)[0]


# --- the pipeline --------------------------------------------------------


def achievability_mdp(formula: Formula, inputs, outputs, dist=None):
    """(reward MDP, metadata) for the plain expected-value problem: the MDP
    `synthesize` solves for a spec with no threshold and no assumption."""
    return _reward_mdp(formula, input_process(dist, inputs, outputs))


def _reward_mdp(formula, process, low=None, att=None, att_win=None, assumption=None):
    """(reward MDP, metadata) over the product of the value automata, then
    the threshold automaton `att` when given, then the assumption's.

    Values below `low` are left out.  With `att`, only output letters that
    keep every input inside its winning region `att_win` are actions.  With
    an assumption (its automaton and rejecting keys), every state whose
    assumption component is doomed jumps back to the initial state; the
    metadata keeps the MDP before those resets and the list of reset states.
    """
    atoms = process.inputs | process.outputs
    vals = values(formula, atoms)
    dpws = [dpw_for(formula, EqualTo(v), atoms) for v in vals]
    if low is not None:
        first = next((i for i, v in enumerate(vals) if v >= low), None)
        if first is None:
            raise InternalConsistencyError(
                "threshold automaton is winnable but no value reaches it")
        vals, dpws = vals[first:], dpws[first:]
    parts = dpws + ([att] if att is not None else [])
    if assumption is not None:
        psi_dpw, rejecting = assumption
        parts.append(psi_dpw)
    prod = ProductPreAutomaton(parts)
    pos = len(dpws)
    safe = None if att is None else (lambda lab: (lab[0][pos], lab[1]) in att_win)
    M = induced_pre_mdp(prod, process, safe=safe)
    played, reset = M, []
    if assumption is not None:
        reset = [s for s, (qs, sd) in enumerate(M.labels) if (qs[-1], sd) in rejecting]
        trans = dict(M.weights)
        for s in reset:
            for a in range(len(M.actions[s])):
                trans[(s, a)] = ((M.initial, M.den),)
        played = PreMDP(M.labels, M.initial, M.actions, trans, den=M.den)
    wins = []
    sigma = []
    for dpw in dpws:
        w, s = _component_win(dpw, induced_pre_mdp(dpw, process))
        wins.append(w)
        sigma.append(s)
    gamma = _gamma_rewards(played, vals, wins)
    RM = RewardMDP(played.labels, played.initial, played.actions, played.weights,
                   gamma, den=played.den)
    meta = {
        "values": vals,
        "dpws": dpws,
        "product": prod,
        "wins": wins,
        "sigma": sigma,
        "mdp": M,
        "reset": reset,
    }
    return RM, meta


def synthesize(spec: SynthesisSpec):
    """Maximal expected value of the formula, conditional on the assumption
    when the spec has one, subject to an almost-sure floor of the threshold
    when it has one.

    The floor is on the formula itself, on the hard constraint when one is
    given (the expectation is still over the formula's value), or under an
    assumption on (assumption implies formula): "value at least t whenever
    the assumption holds" is the unconditional floor of that formula.
    Returns `Unrealizable` when no controller keeps the floor.
    """
    process = input_process(spec.distribution, spec.inputs, spec.outputs)
    if not process.label_deterministic():
        raise ValueError(
            "controller extraction needs an input process whose next state "
            "is determined by the observed input letter")
    atoms, t = spec.inputs | spec.outputs, spec.threshold
    psi, pr, assumption = spec.assumption, None, None
    if psi is not None:
        if not process.output_insensitive():
            raise ValueError(
                "conditional synthesis needs an output-insensitive input process")
        psi_dpw = dpw_for(psi, AtLeast(Fraction(1)), atoms)
        pr, rejecting = _assumption_chain(psi_dpw, process)
        if pr == 0:
            raise AssumptionHasZeroProbability("the assumption holds with probability 0")
        if pr == 1:
            psi = None
        else:
            assumption = (psi_dpw, rejecting)

    att = att_win = att_sigma = None
    if t is not None:
        if spec.hard_constraint is not None:
            floor_formula = spec.hard_constraint
        elif psi is not None:
            floor_formula = implies(psi, spec.formula)
        else:
            floor_formula = spec.formula
        att = dpw_for(floor_formula, AtLeast(t), atoms)
        att_M = induced_pre_mdp(att, process)
        att_win, att_sigma = _component_win(att, att_M)
        if att_M.labels[att_M.initial] not in att_win:
            losing = tuple(lab for lab in att_M.labels if lab not in att_win)
            return Unrealizable(t, losing, {"mdp_states": att_M.n})

    low = t if spec.hard_constraint is None else None
    RM, meta = _reward_mdp(spec.formula, process, low, att, att_win, assumption)
    vals = meta["values"]
    value, primary = solve_mean_payoff(RM)
    triggers, realized = _install_triggers(RM, primary, vals, att, t)
    if spec.hard_constraint is None and realized != value:
        raise InternalConsistencyError("refined strategy changes the expected reward")
    # runs through a reset state fail the assumption and do not count
    for s in meta["reset"]:
        primary[s] = 0
    phase_letters = {("win", i): (i, sigma) for i, sigma in enumerate(meta["sigma"])}
    if att is not None:
        phase_letters[("floor",)] = (len(vals), att_sigma)
    T = _extract(meta["product"], meta["mdp"], primary, triggers, phase_letters, process)

    # A floor on the formula reads off the analysis that certifies the expected
    # value; without one, the public evaluators certify it, so that the spans
    # bench/tracer.py records for them still time the certificate.
    if t is not None and spec.hard_constraint is None:
        outs = outcomes(T, spec.formula, psi, process)
        check = expectation(outs)
    elif psi is None:
        check = expected_value(T, spec.formula, process)
    else:
        check = conditional_expected_value(T, spec.formula, psi, process)
    if spec.hard_constraint is not None:
        # floor redirects may add value on top of the reward lower bound
        if check < value:
            raise InternalConsistencyError("re-evaluation below the solved value")
        value = check
    elif check != value:
        raise InternalConsistencyError(
            f"certificate mismatch: reported {value}, re-evaluated {check}")
    floor = None
    if t is not None:
        floor = almost_sure_value(T, floor_formula, process) \
            if spec.hard_constraint is not None else floor_of(outs)
        if floor < t:
            raise InternalConsistencyError(
                f"almost-sure floor {floor} fails the threshold {t}")

    stats = {
        "values": [str(v) for v in vals],
        "automaton_states": [d.n_states for d in meta["dpws"]],
        "product_states": len(meta["product"]),
        "mdp_states": RM.n,
        "transducer_states": len(T),
    }
    if t is not None:
        stats["threshold"] = str(t)
    if psi is not None:
        stats["reset_states"] = len(meta["reset"])
    return SynthesisResult(
        transducer=T,
        expected_value=value,
        almost_sure_floor=floor,
        assumption_probability=pr,
        stats=stats,
    )
