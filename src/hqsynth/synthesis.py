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

Extracted controllers commit each output one step ahead: the transducer
state entered on input i is labeled with the output decided before i was
read, so every state's successors share a label.  Controllers of this shape
are exactly the ones the MDP view can price, and they remain evaluable
under output-sensitive input processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .automata import ProductPreAutomaton, dpw_for
from .booleanize import AtLeast, EqualTo
from .common import (
    InternalConsistencyError,
    StateLimitExceeded,
    all_letters,
    state_ceiling,
)
from .evaluation import (
    AssumptionHasZeroProbability,
    almost_sure_value,
    conditional_almost_sure_floor,
    conditional_expected_value,
    expected_value,
)
from .formulas import Formula, implies, is_boolean, values
from .mdp import (
    DistributionMDP,
    MarkovChain,
    ParityMDP,
    PreMDP,
    RewardMDP,
    almost_sure_parity,
    induced_chain,
    induced_pre_mdp,
    induced_pre_mdp_dist,
    max_end_components,
    mc_ergodic_analysis,
    solve_mean_payoff,
)
from .transducers import Transducer


@dataclass
class SynthesisSpec:
    inputs: frozenset
    outputs: frozenset
    formula: Formula
    assumption: Formula | None = None
    threshold: Fraction | None = None
    hard_constraint: Formula | None = None
    distribution: DistributionMDP | None = None

    def __post_init__(self):
        self.inputs = frozenset(self.inputs)
        self.outputs = frozenset(self.outputs)
        if self.inputs & self.outputs:
            raise ValueError("inputs and outputs must be disjoint")
        if not self.formula.atoms() <= self.inputs | self.outputs:
            raise ValueError("formula uses atoms outside the declared alphabet")
        if self.assumption is not None:
            if not is_boolean(self.assumption):
                raise ValueError("assumption must be a classical formula")
            if not self.assumption.atoms() <= self.inputs:
                raise ValueError("assumption must range over inputs only")
        if self.threshold is not None:
            self.threshold = Fraction(self.threshold)
            if not 0 <= self.threshold <= 1:
                raise ValueError("threshold must lie in [0,1]")
        if self.hard_constraint is not None:
            if self.threshold is None:
                raise ValueError("a hard constraint needs a threshold")
            if self.assumption is not None:
                raise ValueError("hard constraint and assumption cannot be combined")
            if not self.hard_constraint.atoms() <= self.inputs | self.outputs:
                raise ValueError("hard constraint uses atoms outside the alphabet")
        if self.distribution is not None:
            d = self.distribution
            if d.inputs != self.inputs or d.outputs != self.outputs:
                raise ValueError("input process and spec disagree on alphabets")


@dataclass
class SynthesisResult:
    transducer: Transducer
    expected_value: Fraction
    almost_sure_floor: Fraction | None = None
    assumption_probability: Fraction | None = None
    stats: dict = field(default_factory=dict)


@dataclass
class Unrealizable:
    """No controller keeps the value above the threshold almost surely.

    Not an error: a legitimate outcome carrying the losing states of the
    threshold automaton's MDP as a diagnostic.
    """

    threshold: Fraction
    losing_region: tuple
    stats: dict = field(default_factory=dict)


# --- shared machinery ----------------------------------------------------


def _induced(automaton, inputs, outputs, dist, ceiling):
    if dist is None:
        return induced_pre_mdp(automaton, inputs, outputs, ceiling=ceiling)
    return induced_pre_mdp_dist(automaton, dist, outputs, ceiling=ceiling)


def _proj_key(pos, label, dist):
    # MDP labels are product tuples, or (tuple, process state) pairs
    if dist is None:
        return label[pos]
    return (label[0][pos], label[1])


def _att_state(pos, label, dist):
    return label[pos] if dist is None else label[0][pos]


def _component_win(dpw, M, outputs, dist):
    """Almost-sure parity winning region of one automaton's induced MDP M,
    as (winning keys, key -> winning output letter)."""
    if dist is None:
        ranks = [dpw.rank[lab] for lab in M.labels]
    else:
        ranks = [dpw.rank[lab[0]] for lab in M.labels]
    PM = ParityMDP(M.labels, M.initial, M.actions, M.trans, ranks, validate=False)
    win, strat = almost_sure_parity(PM)
    out_letters = all_letters(outputs)
    keys = frozenset(M.labels[s] for s in win)
    letters = {M.labels[s]: out_letters[a] for s, a in strat.items()}
    return keys, letters


def _gamma_rewards(M, vals, wins, dist):
    """Per-state reward: the largest value whose automaton projection is
    almost-surely winnable, for states inside some end component; 0 outside.
    Constant on every maximal end component, which is asserted."""
    gamma = [Fraction(0)] * M.n
    for states, _acts in max_end_components(M):
        for s in states:
            best = Fraction(0)
            for pos, (v, w) in enumerate(zip(vals, wins)):
                if v > best and _proj_key(pos, M.labels[s], dist) in w:
                    best = v
            gamma[s] = best
        if len({gamma[s] for s in states}) != 1:
            raise InternalConsistencyError("end component mixes reward values")
    return gamma


def _induced_restricted(prod, att_pos, att_win, inputs, outputs, dist, ceiling):
    """Induced MDP keeping only output letters under which every possible
    input stays inside the threshold automaton's winning region."""
    limit = state_ceiling(ceiling)
    out_letters = all_letters(frozenset(outputs))
    in_letters = all_letters(frozenset(inputs))
    weight = Fraction(1, len(in_letters))
    start = prod.initial if dist is None else (prod.initial, dist.initial)
    labels = [start]
    index = {start: 0}
    actions = []
    trans = {}
    k = 0
    while k < len(labels):
        lab = labels[k]
        allowed = []
        branch_lists = []
        for o in out_letters:
            if dist is None:
                branches = [(prod.step(lab, i | o), None, weight) for i in in_letters]
            else:
                qs, sd = lab
                branches = [(prod.step(qs, dist.label(sd2) | o), sd2, p)
                            for sd2, p in dist.rows(sd, o) if p > 0]
            if all(_proj_key(att_pos, (q, sd2) if dist is not None else q, dist)
                   in att_win for q, sd2, _ in branches):
                allowed.append(o)
                branch_lists.append(branches)
        if not allowed:
            raise InternalConsistencyError("winning region is not action-closed")
        for a, branches in enumerate(branch_lists):
            acc: dict[int, Fraction] = {}
            for q, sd2, p in branches:
                succ = q if dist is None else (q, sd2)
                j = index.get(succ)
                if j is None:
                    j = index[succ] = len(labels)
                    labels.append(succ)
                    if len(labels) > limit:
                        raise StateLimitExceeded("restricted product MDP", limit)
                acc[j] = acc.get(j, Fraction(0)) + p
            trans[(k, a)] = tuple(sorted(acc.items()))
        actions.append(tuple(allowed))
        k += 1
    return PreMDP(labels, 0, actions, trans, validate=False)


def _install_triggers(M, primary, vals, dist, att=None, t=None):
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
            top = max(att.rank[_att_state(len(vals), chain.labels[s], dist)]
                      for s in comp)
            if top % 2 == 1:
                for s in comp:
                    triggers[s] = ("floor",)
    return triggers, realized


_DEAD = ("dead",)


def _extract(prod, M, primary, triggers, phase_letters, inputs, outputs, dist,
             ceiling=None) -> Transducer:
    """Turn a two-phase MDP strategy into a transducer.

    Output commitment is off by one against the letter semantics: the
    output appearing at a position belongs to the state entered on that
    position's input.  Transducer states therefore carry the output chosen
    one step earlier, and every state's successors share their label.
    Memory is the current phase; triggers fire on entry.  Under an input
    process, the process state is tracked from the observed inputs, and
    impossible inputs lead to an absorbing unlabeled state.
    """
    limit = state_ceiling(ceiling)
    in_letters = all_letters(frozenset(inputs))
    index_of = {lab: s for s, lab in enumerate(M.labels)}
    trigger_by_label = {M.labels[s]: key for s, key in triggers.items()}

    def act(m, lab):
        if m is None:
            s = index_of.get(lab)
            if s is None:
                raise InternalConsistencyError("primary play left the analyzed region")
            return M.actions[s][primary[s]]
        pos, letters = phase_letters[m]
        letter = letters.get(_proj_key(pos, lab, dist))
        if letter is None:
            raise InternalConsistencyError("phase play left its winning region")
        return letter

    def upd(m, lab):
        return trigger_by_label.get(lab) if m is None else m

    def step(lab, i, o):
        if dist is None:
            return prod.step(lab, i | o)
        qs, sd = lab
        cand = [sd2 for sd2, p in dist.rows(sd, o) if p > 0 and dist.label(sd2) == i]
        if not cand:
            return None
        if len(cand) > 1:
            raise InternalConsistencyError("input process tracking is ambiguous")
        return (prod.step(qs, i | o), cand[0])

    start = M.labels[M.initial]
    m0 = upd(None, start)
    first = (start, m0, act(m0, start))
    nodes = [first]
    index = {first: 0}
    delta = {}
    labels = {}
    k = 0
    while k < len(nodes):
        node = nodes[k]
        if node == _DEAD:
            labels[k] = frozenset()
            for i in in_letters:
                delta[(k, i)] = k
            k += 1
            continue
        lab, m, stored = node
        labels[k] = stored
        out = act(m, lab)
        for i in in_letters:
            lab2 = step(lab, i, out)
            succ = _DEAD if lab2 is None else (lab2, upd(m, lab2), out)
            j = index.get(succ)
            if j is None:
                j = index[succ] = len(nodes)
                nodes.append(succ)
                if len(nodes) > limit:
                    raise StateLimitExceeded("transducer extraction", limit)
            delta[(k, i)] = j
        k += 1
    return Transducer(inputs, outputs, list(range(len(nodes))), 0, delta, labels)


def _require_trackable(dist):
    if dist is not None and not dist.label_deterministic():
        raise ValueError(
            "controller extraction needs an input process whose next state "
            "is determined by the observed input letter")


def _output_insensitive(dist) -> bool:
    if dist is None:
        return True
    base_letters = all_letters(dist.outputs)
    for s in range(dist.n):
        rows = dist.rows(s, frozenset())
        if any(dist.rows(s, o) != rows for o in base_letters):
            return False
    return True


# --- assumption probability ----------------------------------------------


def _input_chain(step_fn, initial, inputs, dist, ceiling):
    """Chain of an input-driven automaton under the input process (outputs
    fixed to the empty letter, legitimate only for insensitive processes)."""
    limit = state_ceiling(ceiling)
    in_letters = all_letters(frozenset(inputs))
    weight = Fraction(1, len(in_letters))
    start = initial if dist is None else (initial, dist.initial)
    labels = [start]
    index = {start: 0}
    rows = []
    k = 0
    while k < len(labels):
        lab = labels[k]
        acc: dict[int, Fraction] = {}
        if dist is None:
            branches = [(step_fn(lab, i), weight) for i in in_letters]
        else:
            q, sd = lab
            branches = [((step_fn(q, dist.label(sd2)), sd2), p)
                        for sd2, p in dist.rows(sd, frozenset()) if p > 0]
        for succ, p in branches:
            j = index.get(succ)
            if j is None:
                j = index[succ] = len(labels)
                labels.append(succ)
                if len(labels) > limit:
                    raise StateLimitExceeded("assumption chain", limit)
            acc[j] = acc.get(j, Fraction(0)) + p
        rows.append(tuple(sorted(acc.items())))
        k += 1
    return MarkovChain(labels, 0, rows, validate=False)


def prob_of_assumption(assumption: Formula, inputs, dist=None, ceiling=None) -> Fraction:
    """Probability that the input word satisfies a classical formula."""
    if not is_boolean(assumption):
        raise ValueError("assumption must be a classical formula")
    inputs = frozenset(inputs)
    if not assumption.atoms() <= inputs:
        raise ValueError("assumption must range over inputs only")
    if not _output_insensitive(dist):
        raise ValueError("assumption probability needs an output-insensitive input process")
    dpw = dpw_for(assumption, AtLeast(Fraction(1)), inputs, ceiling=ceiling)
    chain = _input_chain(dpw.step, dpw.initial, inputs, dist, ceiling)
    bottoms, rho = mc_ergodic_analysis(chain)
    total = Fraction(0)
    for comp, p in zip(bottoms, rho):
        qs = [chain.labels[s] if dist is None else chain.labels[s][0] for s in comp]
        if max(dpw.rank[q] for q in qs) % 2 == 0:
            total += p
    return total


def _rejecting_keys(psi_dpw, inputs, dist, ceiling):
    """Assumption-automaton states (paired with the process state when one
    is given) inside rejecting ergodic components of the input chain: once
    there, the assumption fails surely."""
    chain = _input_chain(psi_dpw.step, psi_dpw.initial, inputs, dist, ceiling)
    bottoms, _ = mc_ergodic_analysis(chain)
    rej = set()
    for comp in bottoms:
        labs = [chain.labels[s] for s in comp]
        qs = [lab if dist is None else lab[0] for lab in labs]
        if max(psi_dpw.rank[q] for q in qs) % 2 == 1:
            rej.update(labs)
    return rej




# --- the pipeline --------------------------------------------------------


def achievability_mdp(formula: Formula, inputs, outputs, dist=None, ceiling=None):
    """(reward MDP, metadata) for the plain expected-value problem: the MDP
    `synthesize` solves for a spec with no threshold and no assumption."""
    return _reward_mdp(formula, frozenset(inputs), frozenset(outputs), dist, ceiling)


def _reward_mdp(formula, inputs, outputs, dist, ceiling,
                low=None, att=None, att_win=None, psi=None):
    """(reward MDP, metadata) over the product of the value automata, then
    the threshold automaton `att` when given, then the assumption's.

    Values below `low` are left out.  With `att`, only output letters that
    keep every input inside its winning region `att_win` are actions.  With
    an assumption psi, every state whose assumption component is doomed
    jumps back to the initial state; the metadata keeps the MDP before
    those resets and the list of reset states.
    """
    atoms = inputs | outputs
    vals = values(formula, atoms, ceiling=ceiling)
    dpws = [dpw_for(formula, EqualTo(v), atoms, ceiling=ceiling) for v in vals]
    if low is not None:
        first = next((i for i, v in enumerate(vals) if v >= low), None)
        if first is None:
            raise InternalConsistencyError(
                "threshold automaton is winnable but no value reaches it")
        vals, dpws = vals[first:], dpws[first:]
    parts = dpws + ([att] if att is not None else [])
    if psi is not None:
        psi_dpw = dpw_for(psi, AtLeast(Fraction(1)), atoms, ceiling=ceiling)
        parts.append(psi_dpw)
    prod = ProductPreAutomaton(parts, ceiling=ceiling)
    if att is None:
        M = _induced(prod, inputs, outputs, dist, ceiling)
    else:
        M = _induced_restricted(prod, len(dpws), att_win, inputs, outputs,
                                dist, ceiling)
    played, reset = M, []
    if psi is not None:
        rej = _rejecting_keys(psi_dpw, inputs, dist, ceiling)
        reset = [s for s in range(M.n)
                 if _proj_key(len(parts) - 1, M.labels[s], dist) in rej]
        trans = dict(M.trans)
        for s in reset:
            for a in range(len(M.actions[s])):
                trans[(s, a)] = ((M.initial, Fraction(1)),)
        played = PreMDP(M.labels, M.initial, M.actions, trans, validate=False)
    wins = []
    sigma = []
    for dpw in dpws:
        w, s = _component_win(dpw, _induced(dpw, inputs, outputs, dist, ceiling),
                              outputs, dist)
        wins.append(w)
        sigma.append(s)
    gamma = _gamma_rewards(played, vals, wins, dist)
    RM = RewardMDP(played.labels, played.initial, played.actions, played.trans,
                   gamma, validate=False)
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


def synthesize(spec: SynthesisSpec, ceiling=None):
    """Maximal expected value of the formula, conditional on the assumption
    when the spec has one, subject to an almost-sure floor of the threshold
    when it has one.

    The floor is on the formula itself, on the hard constraint when one is
    given (the expectation is still over the formula's value), or under an
    assumption on (assumption implies formula): "value at least t whenever
    the assumption holds" is the unconditional floor of that formula.
    Returns `Unrealizable` when no controller keeps the floor.
    """
    dist = spec.distribution
    _require_trackable(dist)
    inputs, outputs, t = spec.inputs, spec.outputs, spec.threshold
    psi, pr = spec.assumption, None
    if psi is not None:
        if not _output_insensitive(dist):
            raise ValueError(
                "conditional synthesis needs an output-insensitive input process")
        pr = prob_of_assumption(psi, inputs, dist, ceiling)
        if pr == 0:
            raise AssumptionHasZeroProbability("the assumption holds with probability 0")
        if pr == 1:
            psi = None

    att = att_win = att_sigma = None
    if t is not None:
        if spec.hard_constraint is not None:
            floor_formula = spec.hard_constraint
        elif psi is not None:
            floor_formula = implies(psi, spec.formula)
        else:
            floor_formula = spec.formula
        att = dpw_for(floor_formula, AtLeast(t), inputs | outputs, ceiling=ceiling)
        att_M = _induced(att, inputs, outputs, dist, ceiling)
        att_win, att_sigma = _component_win(att, att_M, outputs, dist)
        if att_M.labels[att_M.initial] not in att_win:
            losing = tuple(lab for lab in att_M.labels if lab not in att_win)
            return Unrealizable(t, losing, {"mdp_states": att_M.n})

    low = t if spec.hard_constraint is None else None
    RM, meta = _reward_mdp(spec.formula, inputs, outputs, dist, ceiling,
                           low, att, att_win, psi)
    vals = meta["values"]
    value, strat = solve_mean_payoff(RM)
    triggers, realized = _install_triggers(RM, strat.primary, vals, dist, att, t)
    if spec.hard_constraint is None and realized != value:
        raise InternalConsistencyError("refined strategy changes the expected reward")
    # runs through a reset state fail the assumption and do not count
    primary = dict(strat.primary)
    for s in meta["reset"]:
        primary[s] = 0
    phase_letters = {("win", i): (i, sigma) for i, sigma in enumerate(meta["sigma"])}
    if att is not None:
        phase_letters[("floor",)] = (len(vals), att_sigma)
    T = _extract(meta["product"], meta["mdp"], primary, triggers, phase_letters,
                 inputs, outputs, dist, ceiling)

    if psi is None:
        check = expected_value(T, spec.formula, dist, ceiling)
    else:
        check = conditional_expected_value(T, spec.formula, psi, dist, ceiling)
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
        if psi is None:
            floor = almost_sure_value(T, floor_formula, dist, ceiling)
        else:
            floor = conditional_almost_sure_floor(T, spec.formula, psi, dist, ceiling)
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
