"""Markov decision processes over output actions, and their analyses.

A pre-MDP here always arises from a deterministic automaton whose letters
split into inputs and outputs: the controller picks the output letter, the
environment draws the input letter, and the automaton state advances on the
bitmask of their union over the joint alphabet, `rows[q][mask]`, the masks
of a process state's branches built once per call (`masked_branches`);
actions and input processes keep frozenset letters.  Every solver below is
exact.

Probabilities are carried as positive int weights over one denominator
`den` shared by every row of an input process, and of every MDP and chain
built from it: a row is ((successor, weight), ...), its weights summing to
`den`, so building, merging and checking rows is int arithmetic.  They turn
into `Fraction`s only at the linear solver: its system for x = P x + b is
built with each row scaled by `den`, eliminated fraction-free, and solved
into `Fraction`s.  Values and rewards are `Fraction`s.  Constructors also
take rows of `Fraction` (or int) probabilities, turned into weights over
the lcm of their denominators, and `PreMDP.trans` and `MarkovChain.rows`
read the rows back as `Fraction` probabilities.  Any other probability, a
float or a bool, is rejected with a `ValueError`.

The environment is an input process with one interface: `UniformInputs`
draws every input letter with the same probability, `DistributionMDP` is a
finite-state process whose rows may depend on the output letter.  Each has
an `initial` state, a denominator `den`, `branches(s, o)` listing (input
letter, next state, weight > 0) under output letter o,
`insensitive_at(s)` and `output_insensitive()` telling whether rows ignore
the output (as distributions: the order a row lists them in, repeated
successors and zero entries do not count), and `next_state(s, o, i)` tracking the process from an
observed input.  `input_process` turns the `dist=None` of public entry
points into `UniformInputs`, so an induced MDP always labels its states
(automaton state, process state).

The analyses are the standard toolbox: maximal end components, the
even-rank-stratified controllably-win-recurrent states, almost-sure parity
winning (target the c.w.r. witnesses, then an almost-sure attractor), and
mean payoff through the end-component quotient.  Mean payoff is only
solved for reward functions constant on each maximal end component; the
achievability rewards used by synthesis have that shape by construction,
and the precondition is checked rather than trusted.

An analysis of a sub-MDP restricts the MDP it is given: `max_end_components`
takes the state set to stay `within`, and `almost_sure_reach` the allowed
actions `acts` of each state, so every state and action index they return
is one of that MDP.  Strategies are plain maps state -> action index.
Absorption probabilities and policy values come from one builder of the
sinks-first system x = P x + b.  It stores each row sparsely, as a map
from column to nonzero entry, and `solve_linear_system` eliminates on those
rows; the nonzeros stored at once count against the state ceiling.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .common import (
    InternalConsistencyError,
    StateLimitExceeded,
    all_letters,
    explore,
    format_fraction,
    letter_masks,
    probability_row,
    state_ceiling,
    strongly_connected_components,
)


def _check_probability(p, where: str):
    """Reject a probability that is not an int or a `Fraction`: a float (or
    a bool) would put inexact arithmetic on the value path."""
    if type(p) is not int and type(p) is not Fraction:
        raise ValueError(f"probability {p!r} at {where} is not an int or a Fraction")


def _to_weights(rows: dict):
    """({key: ((successor, weight), ...)}, den) for a map of rows of
    (successor, probability) pairs: int weights over the lcm `den` of every
    probability's denominator, zero entries dropped."""
    den = 1
    for key, row in rows.items():
        for _, p in row:
            _check_probability(p, f"row {key}")
            den = lcm(den, p.denominator)
    return {key: tuple((t, p.numerator * (den // p.denominator)) for t, p in row if p)
            for key, row in rows.items()}, den


class PreMDP:
    """States are indices; `labels[s]` keeps the underlying object.

    `actions[s]` lists the available action labels.  `weights[(s, a)]` is
    the row of (state, action index): ((successor, weight), ...) over the
    denominator `den`.  Without `den`, `trans` holds the rows as
    (successor, probability) pairs instead, turned into weights.
    """

    def __init__(self, labels, initial, actions, trans, validate=True, den=None):
        self.labels = list(labels)
        self.initial = initial
        self.actions = [tuple(a) for a in actions]
        if den is None:
            trans, den = _to_weights(trans)
        self.weights = trans
        self.den = den
        if validate:
            self._validate()

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def trans(self) -> dict:
        """The rows as (successor, `Fraction` probability) pairs."""
        den = self.den
        return {key: tuple((t, Fraction(w, den)) for t, w in row)
                for key, row in self.weights.items()}

    def _validate(self):
        if not 0 <= self.initial < self.n:
            raise ValueError("initial state out of range")
        for s in range(self.n):
            if not self.actions[s]:
                raise ValueError(f"state {s} has no actions")
            for a in range(len(self.actions[s])):
                row = self.weights[(s, a)]
                total = sum(w for _, w in row)
                if total != self.den:
                    raise ValueError(f"transition ({s},{a}) sums to "
                                     f"{format_fraction(Fraction(total, self.den))}")
                if any(w < 0 for _, w in row):
                    raise ValueError(f"negative probability at ({s},{a})")

    def successors(self, s: int, a: int):
        return [t for t, _ in self.weights[(s, a)]]


class RewardMDP(PreMDP):
    def __init__(self, labels, initial, actions, trans, reward, validate=True, den=None):
        super().__init__(labels, initial, actions, trans, validate, den)
        self.reward = list(reward)
        if validate:
            for s, r in enumerate(self.reward):
                if not 0 <= r <= 1:
                    raise ValueError(f"reward {r} at state {s} outside [0, 1]")


class ParityMDP(PreMDP):
    def __init__(self, labels, initial, actions, trans, rank, validate=True, den=None):
        super().__init__(labels, initial, actions, trans, validate, den)
        self.rank = list(rank)
        if validate:
            for s, d in enumerate(self.rank):
                if d < 1:
                    raise ValueError(f"rank {d} at state {s} below 1")


class MarkovChain:
    """`weights[s]` is the row of state s, ((successor, weight), ...) over
    the denominator `den`.  Without `den`, `rows` holds (successor,
    probability) pairs instead, turned into weights."""

    def __init__(self, labels, initial, rows, validate=True, den=None):
        self.labels = list(labels)
        self.initial = initial
        if den is None:
            weights, den = _to_weights(dict(enumerate(rows)))
            rows = weights.values()
        self.weights = [tuple(r) for r in rows]
        self.den = den
        if validate:
            for s, row in enumerate(self.weights):
                if sum(w for _, w in row) != den:
                    raise ValueError(f"row {s} does not sum to 1")

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def rows(self) -> list:
        """The rows as (successor, `Fraction` probability) pairs."""
        den = self.den
        return [tuple((t, Fraction(w, den)) for t, w in row) for row in self.weights]

    def successors(self, s: int):
        return [t for t, _ in self.weights[s]]


class UniformInputs:
    """Input process drawing every input letter with the same probability,
    whatever the output: weight 1 over the denominator 2^|inputs|.  It has
    the single state 0, and `branches` follows the order of `all_letters`.
    What `dist=None` stands for."""

    initial = 0

    def __init__(self, inputs, outputs):
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        letters = all_letters(self.inputs)
        self.den = len(letters)
        self._branches = tuple((i, 0, 1) for i in letters)

    def branches(self, s: int, output: frozenset):
        return self._branches

    def insensitive_at(self, s: int) -> bool:
        return True

    def output_insensitive(self) -> bool:
        return True

    def label_deterministic(self) -> bool:
        return True

    def next_state(self, s: int, output: frozenset, letter: frozenset):
        return 0


class DistributionMDP:
    """Input process: an MDP over output actions whose states carry input
    letters.  The input consumed at a step is the label of the state the
    process moves into, so the initial state's label is never read.

    `trans[(s, o)]` lists (next state, probability) pairs, ints or
    `Fraction`s.  They are turned into weights once, over the lcm `den` of
    their denominators; `branches` returns the positive ones, in the order
    of the rows.
    """

    def __init__(self, inputs, outputs, iota, initial, trans):
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        self.iota = [frozenset(x) for x in iota]
        self.initial = initial
        self.trans = trans
        out_letters = all_letters(self.outputs)
        n = len(self.iota)

        def known(t):
            return type(t) is int and 0 <= t < n

        if not known(initial):
            raise ValueError(f"initial state {initial!r} is not one of the {n} states")
        rows = {}
        for s, lab in enumerate(self.iota):
            if not lab <= self.inputs:
                raise ValueError(f"state {s} labeled outside the inputs")
            for o in out_letters:
                row = self.trans.get((s, o))
                where = f"({s},{set(o)})"
                if row is None:
                    raise ValueError(f"no distribution row at {where}")
                if not all(known(t) for t, _ in row):
                    raise ValueError(f"distribution row at {where} "
                                     f"leads outside the {n} states")
                for _, p in row:
                    _check_probability(p, where)
                if sum(p for _, p in row) != 1:
                    raise ValueError(f"distribution rows at {where} do not sum to 1")
                if any(p < 0 for _, p in row):
                    raise ValueError(f"negative probability at {where}")
                rows[(s, o)] = row
        weights, self.den = _to_weights(rows)
        self._branches = {key: tuple((self.iota[t], t, w) for t, w in row)
                          for key, row in weights.items()}
        # A row's law: weights merged per successor and sorted, so rows
        # listing one distribution in another order, with repeats or with
        # zero entries, compare equal.
        laws = {}
        for key, row in weights.items():
            law: dict = {}
            for t, w in row:
                law[t] = law.get(t, 0) + w
            laws[key] = sorted(law.items())
        self._insensitive = [
            all(laws[(s, o)] == laws[(s, frozenset())] for o in out_letters)
            for s in range(n)]

    def branches(self, s: int, output: frozenset):
        return self._branches[(s, output)]

    def insensitive_at(self, s: int) -> bool:
        return self._insensitive[s]

    def output_insensitive(self) -> bool:
        return all(self._insensitive)

    def label_deterministic(self) -> bool:
        """At most one positive successor per (state, output, input letter);
        needed when a controller must track this process from the inputs
        it observes."""
        return all(len({i for i, _, _ in b}) == len(b) for b in self._branches.values())

    def next_state(self, s: int, output: frozenset, letter: frozenset):
        """The state entered when the process emits `letter` under `output`,
        or None when it cannot emit it; assumes `label_deterministic`."""
        return next((t for i, t, _ in self.branches(s, output) if i == letter), None)


def input_process(dist, inputs, outputs):
    """The input process `dist`, or uniform inputs over the alphabets when
    it is None: the one place that tells the two apart."""
    return UniformInputs(inputs, outputs) if dist is None else dist


def masked_branches(process, atoms, outputs):
    """A function from a process state to its branches under each of the
    `outputs`, as ((mask of input and output over `atoms`, next state,
    weight), ...), each state's built once."""
    masks = letter_masks(atoms)
    memo: dict = {}

    def at(sd) -> list:
        got = memo.get(sd)
        if got is None:
            got = memo[sd] = [tuple((masks[i] | masks[o], sd2, w)
                                    for i, sd2, w in process.branches(sd, o))
                              for o in outputs]
        return got

    return at


# --- induced MDPs --------------------------------------------------------


def induced_pre_mdp(automaton, process, ceiling: int | None = None) -> PreMDP:
    """MDP of a deterministic automaton over 2^(I+O) under an input process:
    the action fixes the output letter, the process draws the input letter.
    States are (automaton state, process state) pairs.
    """
    out_letters = all_letters(process.outputs)
    branches = masked_branches(process, automaton.atoms, out_letters)

    def expand(lab, number):
        q, sd = lab
        row = automaton.rows[q]
        return [probability_row([((row[m], sd2), w) for m, sd2, w in bs], number)
                for bs in branches(sd)]

    labels, rows = explore((automaton.initial, process.initial), expand,
                           "induced MDP", ceiling)
    trans = {(s, a): row for s, acts in enumerate(rows) for a, row in enumerate(acts)}
    return PreMDP(labels, 0, [out_letters] * len(labels), trans, den=process.den)


# Kept under its old name too, for callers that look builders up by name.
induced_pre_mdp_dist = induced_pre_mdp


def induced_chain(M: PreMDP, choice: dict) -> MarkovChain:
    """The Markov chain of a memoryless action choice (state -> action index)."""
    rows = [M.weights[(s, choice[s])] for s in range(M.n)]
    return MarkovChain(M.labels, M.initial, rows, validate=False, den=M.den)


# --- end components ------------------------------------------------------


def max_end_components(M: PreMDP, within=None):
    """Maximal end components of M restricted to the states `within` (all
    states when None), as (state set, per-state action-index sets), sorted
    by smallest member state.  Only actions that stay inside `within` count.
    """
    out = []
    queue = [frozenset(range(M.n)) if within is None else frozenset(within)]
    # post[s][a]: the successors of (s, a) with positive probability
    post = {s: [M.successors(s, a) for a in range(len(M.actions[s]))] for s in queue[0]}
    while queue:
        block = set(queue.pop())
        while block:
            acts = {}
            dead = set()
            for s in block:
                keep = [a for a, ts in enumerate(post[s]) if all(t in block for t in ts)]
                if keep:
                    acts[s] = keep
                else:
                    dead.add(s)
            if dead:
                block -= dead
                continue

            def succ(s):
                return list(dict.fromkeys(t for a in acts[s] for t in post[s][a]))

            comps = strongly_connected_components(sorted(block), succ)
            if len(comps) > 1:
                queue.extend(frozenset(c) for c in comps)
                break
            comp = comps[0]
            if len(comp) == 1 and comp[0] not in succ(comp[0]):
                break
            out.append((frozenset(block),
                        {s: frozenset(acts[s]) for s in block}))
            break
    out.sort(key=lambda ec: min(ec[0]))
    return out


def cwr_states(M: ParityMDP):
    """Controllably-win-recurrent states with one witness end component each.

    q qualifies iff its rank d is even and maximal in some end component
    containing q; the witness is the maximal end component of the
    rank-at-most-d restriction around q.
    """
    cwr = set()
    witness = {}
    for d in sorted({r for r in M.rank if r % 2 == 0}):
        allowed = [s for s in range(M.n) if M.rank[s] <= d]
        for states, acts in max_end_components(M, allowed):
            for s in states:
                if M.rank[s] == d:
                    cwr.add(s)
                    witness[s] = (states, acts)
    return cwr, witness


def almost_sure_reach(M: PreMDP, target: set, acts: dict | None = None):
    """(states reaching `target` with probability 1, attractor choice).

    `acts` maps each state of the sub-MDP to analyze to its allowed action
    indices, tried in the order given; by default every state and action.
    Classic two-level fixpoint: grow the target backwards through actions
    that stay in the kept set and may enter the grown set, keep what grew,
    and repeat until the kept set stops shrinking.  The choice map of the
    last sweep covers the winning states outside the target.
    """
    if acts is None:
        acts = {s: range(len(M.actions[s])) for s in range(M.n)}
    allowed = set(acts)
    target = set(target) & allowed
    while True:
        reach = set(target)
        choice = {}
        frontier = True
        while frontier:
            frontier = False
            for s in sorted(allowed - reach):
                for a in acts[s]:
                    succs = M.successors(s, a)
                    if all(t in allowed for t in succs) and any(t in reach for t in succs):
                        reach.add(s)
                        choice[s] = a
                        frontier = True
                        break
        if reach == allowed:
            return allowed, choice
        allowed = reach


def almost_sure_parity(M: ParityMDP):
    """(winning set, memoryless witness strategy map state -> action index).

    Strategy shape: inside each c.w.r. witness, walk to the designated
    c.w.r. state and loop; elsewhere in the winning set, play the
    almost-sure attractor toward the witnesses.  States are tied to the
    innermost (smallest even rank) witness containing them, so a run can
    only descend through nested witnesses and must settle in one.
    """
    cwr, witness = cwr_states(M)
    distinct = []
    for q in sorted(cwr):
        w = witness[q]
        if w not in distinct:
            distinct.append(w)

    assigned: dict[int, tuple] = {}
    for states, acts in sorted(distinct, key=lambda w: (max(M.rank[s] for s in w[0]), min(w[0]))):
        for s in sorted(states):
            if s not in assigned:
                assigned[s] = (states, acts)

    strategy: dict[int, int] = {}
    for states, acts in distinct:
        mine = [s for s in sorted(states) if s in assigned and assigned[s] == (states, acts)]
        if not mine:
            continue
        top = max(M.rank[s] for s in states)
        goal = min(s for s in states if M.rank[s] == top)
        inner = _witness_visiting_choice(M, states, acts, goal)
        for s in mine:
            strategy[s] = inner[s]

    targets = set(assigned)
    win, attract = almost_sure_reach(M, targets)
    for s, a in attract.items():
        if s not in strategy:
            strategy[s] = a
    return win, strategy


def _witness_visiting_choice(M: PreMDP, states, acts, goal: int):
    """Within an end component, head for `goal`; at `goal`, stay inside."""
    ordered = {s: sorted(acts[s]) for s in states}
    _, attract = almost_sure_reach(M, {goal}, ordered)
    choice = {}
    for s in sorted(states):
        if s == goal:
            choice[s] = ordered[s][0]
        elif s in attract:
            choice[s] = attract[s]
        else:
            raise InternalConsistencyError(
                f"witness component cannot steer {s} to its designated state")
    return choice


# --- mean payoff ---------------------------------------------------------


class MecRewardMismatch(ValueError):
    def __init__(self, states, rewards):
        super().__init__(
            "mean-payoff solver needs a constant reward on each maximal end "
            f"component; states {sorted(states)} carry rewards "
            f"{sorted(set(map(format_fraction, rewards)))}")
        self.states = states


def solve_mean_payoff(M: RewardMDP, ceiling: int | None = None):
    """(optimal expected mean payoff from the initial state, memoryless
    optimal choice map state -> action index).

    Reduction: collapse each maximal end component to a node that can
    either absorb its constant reward or play one of its exiting actions,
    keep other states as singleton nodes, and maximize the expected
    absorbed reward by exact policy iteration.  The choice is pulled back
    to the original states (inside a component: steer to the member whose
    exiting action was chosen, or anywhere inside when absorbing).
    """
    mecs = max_end_components(M)
    for states, _ in mecs:
        rewards = {M.reward[s] for s in states}
        if len(rewards) > 1:
            raise MecRewardMismatch(states, [M.reward[s] for s in states])

    node_of = {}
    for i, (states, _) in enumerate(mecs):
        for s in states:
            node_of[s] = i
    singles = [s for s in range(M.n) if s not in node_of]
    for j, s in enumerate(singles):
        node_of[s] = len(mecs) + j
    n_nodes = len(mecs) + len(singles)

    # Node actions: ("stay",) or ("via", state, action index).
    node_actions: list[list] = [[] for _ in range(n_nodes)]
    node_rows: dict = {}
    for i, (states, _) in enumerate(mecs):
        node_actions[i].append(("stay",))
        for s in sorted(states):
            for a in range(len(M.actions[s])):
                if all(node_of[t] == i for t in M.successors(s, a)):
                    continue
                _add_node_action(M, node_of, node_actions, node_rows, i, s, a)
    for j, s in enumerate(singles):
        i = len(mecs) + j
        for a in range(len(M.actions[s])):
            _add_node_action(M, node_of, node_actions, node_rows, i, s, a)

    terminal = [M.reward[min(states)] for states, _ in mecs]
    den = M.den
    policy = [0] * n_nodes
    values = _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy,
                              den, ceiling)
    while True:
        improved = False
        ints, ends = _scaled(values, terminal, den)
        for i in range(n_nodes):
            best_a, best_v = policy[i], ints[i] * den
            for a in range(len(node_actions[i])):
                v = _policy_action_value(i, a, node_actions, node_rows, ends, ints)
                if v > best_v:
                    best_a, best_v = a, v
                    improved = True
            policy[i] = best_a
        if not improved:
            break
        values = _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy,
                                  den, ceiling)
    for i in range(n_nodes):
        here = ints[i] * den
        for a in range(len(node_actions[i])):
            if _policy_action_value(i, a, node_actions, node_rows, ends, ints) == here:
                policy[i] = a
                break
    normalized = _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy,
                                  den, ceiling)
    if normalized != values:
        raise InternalConsistencyError("argmax normalization changed the value")
    values = normalized

    primary: dict[int, int] = {}
    for j, s in enumerate(singles):
        i = len(mecs) + j
        _, _, a = node_actions[i][policy[i]]
        primary[s] = a
    for i, (states, acts) in enumerate(mecs):
        act = node_actions[i][policy[i]]
        if act == ("stay",):
            for s in states:
                primary[s] = min(acts[s])
        else:
            _, exit_state, exit_action = act
            inner = _witness_visiting_choice(M, states, acts, exit_state)
            for s in states:
                primary[s] = inner[s] if s != exit_state else exit_action
    return values[node_of[M.initial]], primary


def _add_node_action(M, node_of, node_actions, node_rows, i, s, a):
    dist: dict[int, int] = {}
    for t, w in M.weights[(s, a)]:
        j = node_of[t]
        dist[j] = dist.get(j, 0) + w
    node_rows[(i, len(node_actions[i]))] = tuple(sorted(dist.items()))
    node_actions[i].append(("via", s, a))


def _scaled(values, terminal, den):
    """(values, terminal rewards times `den`) of a policy evaluation as ints,
    scaled by the lcm of their denominators: a positive factor keeps `<`."""
    scale = lcm(*(x.denominator for x in values), *(x.denominator for x in terminal))
    return ([x.numerator * (scale // x.denominator) for x in values],
            [x.numerator * (scale // x.denominator) * den for x in terminal])


def _policy_action_value(i, a, node_actions, node_rows, ends, ints):
    """The value of node i's action a times `den`, on `_scaled` ints."""
    if node_actions[i][a] == ("stay",):
        return ends[i]
    return sum(w * ints[j] for j, w in node_rows[(i, a)])


def _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy, den, ceiling):
    # Unknowns for nodes not absorbing; stay-nodes pin their terminal value.
    # Ordered sinks first, as in mc_ergodic_analysis.
    comps = strongly_connected_components(
        range(n_nodes), lambda i: [j for j, _ in node_rows.get((i, policy[i]), ())])
    unknown = [i for comp in comps for i in comp
               if node_actions[i][policy[i]] != ("stay",)]
    rows = {i: node_rows[(i, policy[i])] for i in unknown}
    sol = _solve_absorption(unknown, rows, lambda j: (0, terminal[j]), 1, den, ceiling)
    return [sol[i][0] if i in sol else terminal[i] for i in range(n_nodes)]


def _solve_absorption(unknowns, rows, known, width, den, ceiling):
    """Solve x = P x + b exactly, the unknowns in the order given: `rows[s]`
    lists the (successor, weight) pairs of unknown s over `den`, and a
    successor t that is not an unknown adds weight * x to right-hand side
    c, where (c, x) = known(t).  Each equation is built times `den`, so
    the system is int wherever the known values are.  Returns unknown ->
    solution row, one entry per right-hand side."""
    pos = {s: r for r, s in enumerate(unknowns)}
    k = len(unknowns)
    system = []
    for s in unknowns:
        row = {pos[s]: den}
        for t, w in rows[s]:
            if t in pos:
                col, v = pos[t], -w
            else:
                c, x = known(t)
                col, v = k + c, w * x
            row[col] = row.get(col, 0) + v
        system.append({col: v for col, v in row.items() if v})
    sol = solve_linear_system(system, width, ceiling)
    return {s: sol[r] for s, r in pos.items()}


def solve_linear_system(rows, width, ceiling=None):
    """Gauss-Jordan elimination on k sparse augmented rows of ints or
    Fractions: `rows[r]` maps a column to its nonzero entry, columns 0..k-1
    being the unknowns and k + c right-hand side c < `width`.  Returns the k
    solution rows of Fractions, one entry per right-hand side.  Storing more
    nonzeros at once than the state ceiling raises `StateLimitExceeded`.

    The elimination is fraction-free: each row is scaled to ints, a row r
    is eliminated by a pivot row as (pivot) * r - r[col] * (pivot row), and
    then divided by the gcd of its entries.  That is the Fraction
    elimination up to a nonzero factor per row, so pivots and stored
    nonzeros are the same; each solution entry is one Fraction at the end.
    """
    limit = state_ceiling(ceiling)
    k = len(rows)
    m = [_int_row(row) for row in rows]
    stored = sum(map(len, m))
    if stored > limit:
        raise StateLimitExceeded("linear system", limit)
    # holding[c]: the positions of the rows with a nonzero in unknown column c
    holding = [set() for _ in range(k)]
    for r, row in enumerate(m):
        for c in row:
            if c < k:
                holding[c].add(r)
    for col in range(k):
        pivot = min((r for r in holding[col] if r >= col), default=None)
        if pivot is None:
            raise InternalConsistencyError("singular linear system")
        if pivot != col:
            for r, other in ((col, pivot), (pivot, col)):
                for c in m[r].keys() - m[other].keys():
                    if c < k:
                        holding[c].discard(r)
                        holding[c].add(other)
            m[col], m[pivot] = m[pivot], m[col]
        prow = m[col]
        lead = prow[col]
        items = list(prow.items())
        # ascending positions, as the running count of stored nonzeros is
        # checked after each row
        for r in sorted(holding[col]):
            if r == col:
                continue
            row = m[r]
            factor = row[col]
            before = len(row)
            if lead != 1:
                for c in row:
                    row[c] *= lead
            for c, v in items:
                x = row.get(c, 0) - factor * v
                if x:
                    if c < k and c not in row:
                        holding[c].add(r)
                    row[c] = x
                else:
                    del row[c]
                    if c < k:
                        holding[c].discard(r)
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
            stored += len(row) - before
            if stored > limit:
                raise StateLimitExceeded("linear system", limit)
    return [[Fraction(row.get(k + c, 0), row[r]) for c in range(width)]
            for r, row in enumerate(m)]


def _int_row(row: dict) -> dict:
    """A copy of a row of ints or Fractions, times the lcm of their
    denominators: a row of ints."""
    scale = lcm(*(v.denominator for v in row.values()))
    if scale == 1:
        return {c: v.numerator for c, v in row.items()}
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


# --- Markov chain analysis ----------------------------------------------


def mc_ergodic_analysis(C: MarkovChain, ceiling: int | None = None):
    """(ergodic components, absorption probabilities from the initial state).

    Ergodic components are the bottom strongly connected components;
    absorption probabilities come from one exact linear solve and sum to 1.
    """
    # the components reachable from the initial state, sinks first
    comps = strongly_connected_components([C.initial], C.successors)
    bottoms = []
    for comp in comps:
        compset = set(comp)
        if all(t in compset for s in comp for t in C.successors(s)):
            bottoms.append(frozenset(comp))
    bottoms.sort(key=min)

    comp_of = {}
    for i, comp in enumerate(bottoms):
        for s in comp:
            comp_of[s] = i
    # unknowns sinks first: elimination then fills in only within components
    transient = [s for comp in comps for s in comp if s not in comp_of]
    sol = _solve_absorption(transient, C.weights, lambda t: (comp_of[t], 1), len(bottoms),
                            C.den, ceiling)
    if C.initial in sol:
        rho = list(sol[C.initial])
    else:
        rho = [Fraction(1) if comp_of[C.initial] == i else Fraction(0)
               for i in range(len(bottoms))]
    if sum(rho) != 1:
        raise InternalConsistencyError("absorption probabilities do not sum to 1")
    return bottoms, rho
