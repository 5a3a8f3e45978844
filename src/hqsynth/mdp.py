"""Markov decision processes over output actions, and their analyses.

A pre-MDP here always arises from a deterministic automaton whose letters
split into inputs and outputs: the controller picks the output letter, the
environment draws the input letter, and the automaton state advances.  All
probabilities and rewards are `Fraction`s; every solver below is exact.

The environment is an input process with one interface: `UniformInputs`
draws every input letter with the same probability, `DistributionMDP` is a
finite-state process whose rows may depend on the output letter.  Each has
an `initial` state, `branches(s, o)` listing (input letter, next state,
p > 0) under output letter o, `insensitive_at(s)` and `output_insensitive()`
telling whether rows ignore the output, and `next_state(s, o, i)` tracking
the process from an observed input.  `input_process` turns the `dist=None`
of public entry points into `UniformInputs`, so an induced MDP always
labels its states (automaton state, process state).

The analyses are the standard toolbox: maximal end components, the
even-rank-stratified controllably-win-recurrent states, almost-sure parity
winning (target the c.w.r. witnesses, then an almost-sure attractor), and
mean payoff through the end-component quotient.  Mean payoff is only
solved for reward functions constant on each maximal end component; the
achievability rewards used by synthesis have that shape by construction,
and the precondition is checked rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .common import (
    InternalConsistencyError,
    all_letters,
    explore,
    format_fraction,
    probability_row,
    strongly_connected_components,
)


class PreMDP:
    """States are indices; `labels[s]` keeps the underlying object.

    `actions[s]` lists the available action labels; transitions are keyed
    by (state, action index) and map to ((successor, probability), ...).
    """

    def __init__(self, labels, initial, actions, trans, validate=True):
        self.labels = list(labels)
        self.initial = initial
        self.actions = [tuple(a) for a in actions]
        self.trans = trans
        if validate:
            self._validate()

    @property
    def n(self) -> int:
        return len(self.labels)

    def _validate(self):
        if not 0 <= self.initial < self.n:
            raise ValueError("initial state out of range")
        for s in range(self.n):
            if not self.actions[s]:
                raise ValueError(f"state {s} has no actions")
            for a in range(len(self.actions[s])):
                rows = self.trans[(s, a)]
                total = sum(p for _, p in rows)
                if total != 1:
                    raise ValueError(f"transition ({s},{a}) sums to {total}")
                if any(p < 0 for _, p in rows):
                    raise ValueError(f"negative probability at ({s},{a})")

    def successors(self, s: int, a: int):
        return [t for t, p in self.trans[(s, a)] if p > 0]

    def action_index(self, s: int, label) -> int:
        return self.actions[s].index(label)


class RewardMDP(PreMDP):
    def __init__(self, labels, initial, actions, trans, reward, validate=True):
        super().__init__(labels, initial, actions, trans, validate)
        self.reward = list(reward)
        if validate:
            for s, r in enumerate(self.reward):
                if not 0 <= r <= 1:
                    raise ValueError(f"reward {r} at state {s} outside [0, 1]")


class ParityMDP(PreMDP):
    def __init__(self, labels, initial, actions, trans, rank, validate=True):
        super().__init__(labels, initial, actions, trans, validate)
        self.rank = list(rank)
        if validate:
            for s, d in enumerate(self.rank):
                if d < 1:
                    raise ValueError(f"rank {d} at state {s} below 1")


class MarkovChain:
    def __init__(self, labels, initial, rows, validate=True):
        self.labels = list(labels)
        self.initial = initial
        self.rows = [tuple(r) for r in rows]
        if validate:
            for s, row in enumerate(self.rows):
                if sum(p for _, p in row) != 1:
                    raise ValueError(f"row {s} does not sum to 1")

    @property
    def n(self) -> int:
        return len(self.labels)

    def successors(self, s: int):
        return [t for t, p in self.rows[s] if p > 0]


class UniformInputs:
    """Input process drawing every input letter with the same probability,
    whatever the output; it has the single state 0, and `branches` follows
    the order of `all_letters`.  What `dist=None` stands for."""

    initial = 0

    def __init__(self, inputs, outputs):
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        letters = all_letters(self.inputs)
        weight = Fraction(1, len(letters))
        self._branches = tuple((i, 0, weight) for i in letters)

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
    `branches` follows the order of the rows.
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
        for s, lab in enumerate(self.iota):
            if not lab <= self.inputs:
                raise ValueError(f"state {s} labeled outside the inputs")
            for o in out_letters:
                rows = self.trans.get((s, o))
                if rows is None:
                    raise ValueError(f"no distribution row at ({s},{set(o)})")
                if not all(known(t) for t, _ in rows):
                    raise ValueError(f"distribution row at ({s},{set(o)}) "
                                     f"leads outside the {n} states")
                if sum(p for _, p in rows) != 1:
                    raise ValueError(f"distribution rows at ({s},{set(o)}) do not sum to 1")
                if any(p < 0 for _, p in rows):
                    raise ValueError(f"negative probability at ({s},{set(o)})")
        self._insensitive = [
            all(self.trans[(s, o)] == self.trans[(s, frozenset())] for o in out_letters)
            for s in range(len(self.iota))]

    def branches(self, s: int, output: frozenset):
        return [(self.iota[t], t, p) for t, p in self.trans[(s, output)] if p > 0]

    def insensitive_at(self, s: int) -> bool:
        return self._insensitive[s]

    def output_insensitive(self) -> bool:
        return all(self._insensitive)

    def label_deterministic(self) -> bool:
        """At most one positive successor per (state, output, input letter);
        needed when a controller must track this process from the inputs
        it observes."""
        return all(len({i for i, _, _ in b}) == len(b)
                   for b in (self.branches(s, o) for s, o in self.trans))

    def next_state(self, s: int, output: frozenset, letter: frozenset):
        """The state entered when the process emits `letter` under `output`,
        or None when it cannot emit it; assumes `label_deterministic`."""
        return next((t for i, t, _ in self.branches(s, output) if i == letter), None)


def input_process(dist, inputs, outputs):
    """The input process `dist`, or uniform inputs over the alphabets when
    it is None: the one place that tells the two apart."""
    return UniformInputs(inputs, outputs) if dist is None else dist


@dataclass
class Strategy:
    """Memoryless map plus an optional switch into per-trigger phase maps.

    `primary[s]` is the action index played before any switch.  When the
    run first hits a state in `triggers`, play moves to the phase map named
    there and stays with it.  Memoryless strategies leave both empty.
    """

    primary: dict
    phases: dict = field(default_factory=dict)
    triggers: dict = field(default_factory=dict)

    def memoryless(self) -> bool:
        return not self.triggers


# --- induced MDPs --------------------------------------------------------


def induced_pre_mdp(automaton, process, ceiling: int | None = None) -> PreMDP:
    """MDP of a deterministic automaton over 2^(I+O) under an input process:
    the action fixes the output letter, the process draws the input letter.
    States are (automaton state, process state) pairs.
    """
    out_letters = all_letters(process.outputs)

    def expand(lab, number):
        q, sd = lab
        return [probability_row([((automaton.step(q, i | o), sd2), p)
                                 for i, sd2, p in process.branches(sd, o)], number)
                for o in out_letters]

    labels, rows = explore((automaton.initial, process.initial), expand,
                           "induced MDP", ceiling)
    trans = {(s, a): row for s, acts in enumerate(rows) for a, row in enumerate(acts)}
    return PreMDP(labels, 0, [out_letters] * len(labels), trans)


# Kept under its old name too, for callers that look builders up by name.
induced_pre_mdp_dist = induced_pre_mdp


def induced_chain(M: PreMDP, choice: dict) -> MarkovChain:
    """The Markov chain of a memoryless action choice (state -> action index)."""
    rows = [M.trans[(s, choice[s])] for s in range(M.n)]
    return MarkovChain(M.labels, M.initial, rows, validate=False)


# --- end components ------------------------------------------------------


def max_end_components(M: PreMDP):
    """Maximal end components as (state set, per-state action-index sets),
    sorted by smallest member state."""
    out = []
    queue = [frozenset(range(M.n))]
    while queue:
        block = set(queue.pop())
        while True:
            acts = {}
            dead = set()
            for s in block:
                keep = [a for a in range(len(M.actions[s]))
                        if all(t in block for t in M.successors(s, a))]
                if keep:
                    acts[s] = keep
                else:
                    dead.add(s)
            if dead:
                block -= dead
                if not block:
                    break
                continue

            def succ(s):
                seen = []
                for a in acts[s]:
                    for t in M.successors(s, a):
                        if t not in seen:
                            seen.append(t)
                return seen

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


def _restricted_mdp_actions(M: PreMDP, allowed: set):
    """Per-state surviving action indices when play must stay in `allowed`."""
    return {
        s: [a for a in range(len(M.actions[s]))
            if all(t in allowed for t in M.successors(s, a))]
        for s in allowed
    }


def cwr_states(M: ParityMDP):
    """Controllably-win-recurrent states with one witness end component each.

    q qualifies iff its rank d is even and maximal in some end component
    containing q; the witness is the maximal end component of the
    rank-at-most-d restriction around q.
    """
    cwr = set()
    witness = {}
    for d in sorted({r for r in M.rank if r % 2 == 0}):
        allowed = {s for s in range(M.n) if M.rank[s] <= d}
        if not allowed:
            continue
        sub = _subset_mdp(M, allowed)
        for states, acts in max_end_components(sub):
            orig_states = frozenset(sub.labels[s] for s in states)
            orig_acts = {sub.labels[s]: frozenset(
                _lift_action_indices(M, sub, s, acts[s])) for s in states}
            for s in orig_states:
                if M.rank[s] == d:
                    cwr.add(s)
                    witness[s] = (orig_states, orig_acts)
    return cwr, witness


def _subset_mdp(M: PreMDP, allowed: set) -> PreMDP:
    """Restriction to `allowed` keeping only inside-staying actions.

    States left without any such action get an empty action list; the end
    component machinery then discards them instead of inventing loops.
    """
    order = sorted(allowed)
    index = {s: i for i, s in enumerate(order)}
    acts_keep = _restricted_mdp_actions(M, set(allowed))
    actions = []
    trans = {}
    for i, s in enumerate(order):
        keep = acts_keep[s]
        actions.append(tuple(keep))
        for j, a in enumerate(keep):
            trans[(i, j)] = tuple((index[t], p) for t, p in M.trans[(s, a)])
    initial = index.get(M.initial, 0)
    return PreMDP(order, initial, actions, trans, validate=False)


def _lift_action_indices(M: PreMDP, sub: PreMDP, sub_state: int, sub_acts):
    # Sub-MDP action labels are the original action indices themselves.
    return [sub.actions[sub_state][a] for a in sub_acts]


def almost_sure_reach(M: PreMDP, target: set, domain: set | None = None):
    """(states reaching `target` with probability 1, attractor choice).

    Classic two-level fixpoint: repeatedly keep the states that can reach
    the target with positive probability without ever leaving the kept set.
    The returned choice map covers the winning states outside the target.
    """
    universe = set(range(M.n)) if domain is None else set(domain)
    target = set(target) & universe
    allowed = set(universe)
    while True:
        reach = set(target)
        frontier = True
        while frontier:
            frontier = False
            for s in sorted(allowed - reach):
                for a in range(len(M.actions[s])):
                    succs = M.successors(s, a)
                    if all(t in allowed for t in succs) and any(t in reach for t in succs):
                        reach.add(s)
                        frontier = True
                        break
        if reach == allowed:
            break
        allowed = reach
    choice = {}
    # Rank states by distance to the target for a proper attractor.
    dist = {s: 0 for s in target}
    frontier = set(target)
    while frontier:
        nxt = set()
        for s in sorted(allowed - set(dist)):
            for a in range(len(M.actions[s])):
                succs = M.successors(s, a)
                if all(t in allowed for t in succs) and any(t in frontier or t in dist for t in succs):
                    dist[s] = 1 + min(dist[t] for t in succs if t in dist)
                    choice[s] = a
                    nxt.add(s)
                    break
        frontier = nxt
    return allowed, choice


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
    index = {s: i for i, s in enumerate(sorted(states))}
    order = sorted(states)
    sub_actions = []
    sub_trans = {}
    for i, s in enumerate(order):
        keep = sorted(acts[s])
        sub_actions.append(tuple(keep))
        for j, a in enumerate(keep):
            sub_trans[(i, j)] = tuple((index[t], p) for t, p in M.trans[(s, a)])
    sub = PreMDP(order, index.get(goal, 0), sub_actions, sub_trans, validate=False)
    _, attract = almost_sure_reach(sub, {index[goal]})
    choice = {}
    for s in order:
        i = index[s]
        if s == goal:
            choice[s] = sub_actions[i][0]
        elif i in attract:
            choice[s] = sub_actions[i][attract[i]]
        else:
            raise InternalConsistencyError(
                f"witness component cannot steer {s} to its designated state")
    # Map sub action labels (= original indices) straight through.
    return choice


# --- mean payoff ---------------------------------------------------------


class MecRewardMismatch(ValueError):
    def __init__(self, states, rewards):
        super().__init__(
            "mean-payoff solver needs a constant reward on each maximal end "
            f"component; states {sorted(states)} carry rewards "
            f"{sorted(set(map(format_fraction, rewards)))}")
        self.states = states


def solve_mean_payoff(M: RewardMDP):
    """(optimal expected mean payoff from the initial state, Strategy).

    Reduction: collapse each maximal end component to a node that can
    either absorb its constant reward or play one of its exiting actions,
    keep other states as singleton nodes, and maximize the expected
    absorbed reward by exact policy iteration.  The strategy is pulled back
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
    policy = [0] * n_nodes
    values = _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy)
    while True:
        improved = False
        for i in range(n_nodes):
            best_a, best_v = policy[i], values[i]
            for a in range(len(node_actions[i])):
                v = _policy_action_value(i, a, node_actions, node_rows, terminal, values)
                if v > best_v:
                    best_a, best_v = a, v
                    improved = True
            policy[i] = best_a
        if not improved:
            break
        values = _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy)
    for i in range(n_nodes):
        for a in range(len(node_actions[i])):
            if _policy_action_value(i, a, node_actions, node_rows, terminal, values) == values[i]:
                policy[i] = a
                break
    normalized = _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy)
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
    return values[node_of[M.initial]], Strategy(primary=primary)


def _add_node_action(M, node_of, node_actions, node_rows, i, s, a):
    dist: dict[int, Fraction] = {}
    for t, p in M.trans[(s, a)]:
        if p == 0:
            continue
        j = node_of[t]
        dist[j] = dist.get(j, Fraction(0)) + p
    node_rows[(i, len(node_actions[i]))] = tuple(sorted(dist.items()))
    node_actions[i].append(("via", s, a))


def _policy_action_value(i, a, node_actions, node_rows, terminal, values):
    act = node_actions[i][a]
    if act == ("stay",):
        return terminal[i]
    return sum(p * values[j] for j, p in node_rows[(i, a)])


def _evaluate_policy(n_nodes, node_actions, node_rows, terminal, policy):
    # Unknowns for nodes not absorbing; stay-nodes pin their terminal value.
    # Ordered sinks first, as in mc_ergodic_analysis.
    comps = strongly_connected_components(
        range(n_nodes), lambda i: [j for j, _ in node_rows.get((i, policy[i]), ())])
    unknown = [i for comp in comps for i in comp
               if node_actions[i][policy[i]] != ("stay",)]
    pos = {i: k for k, i in enumerate(unknown)}
    k = len(unknown)
    matrix = [[Fraction(0)] * (k + 1) for _ in range(k)]
    for i in unknown:
        r = pos[i]
        matrix[r][r] += 1
        for j, p in node_rows[(i, policy[i])]:
            if j in pos:
                matrix[r][pos[j]] -= p
            else:
                matrix[r][k] += p * terminal[j]
    sol = solve_linear_system(matrix)
    values = list(terminal) + [Fraction(0)] * (n_nodes - len(terminal))
    for i in range(n_nodes):
        values[i] = sol[pos[i]][0] if i in pos else terminal[i]
    return values


def solve_linear_system(matrix):
    """Gaussian elimination on an augmented k x (k+w) matrix of Fractions:
    k unknowns and w right-hand sides, read off the row width.  Returns the
    k solution rows, one entry per right-hand side."""
    k = len(matrix)
    m = [row[:] for row in matrix]
    for col in range(k):
        pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
        if pivot is None:
            raise InternalConsistencyError("singular linear system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(k):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[r][k:] for r in range(k)]


# --- Markov chain analysis ----------------------------------------------


def mc_ergodic_analysis(C: MarkovChain):
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
    pos = {s: r for r, s in enumerate(transient)}
    k = len(transient)
    width = len(bottoms)
    matrix = [[Fraction(0)] * (k + width) for _ in range(k)]
    for s in transient:
        r = pos[s]
        matrix[r][r] += 1
        for t, p in C.rows[s]:
            if p == 0:
                continue
            if t in pos:
                matrix[r][pos[t]] -= p
            else:
                matrix[r][k + comp_of[t]] += p
    sol = solve_linear_system(matrix)
    rho = []
    for i in range(width):
        if C.initial in pos:
            rho.append(sol[pos[C.initial]][i])
        else:
            rho.append(Fraction(1) if comp_of[C.initial] == i else Fraction(0))
    if sum(rho) != 1:
        raise InternalConsistencyError("absorption probabilities do not sum to 1")
    return bottoms, rho
