"""Independent reference implementations backing the test suite.

Everything here is deliberately naive: explicit unrolling with a proven
window bound, subset enumeration, mutual-reachability component detection,
dense rational elimination, full strategy enumeration.  None of it shares
algorithms with the package, so agreement is evidence rather than
tautology.  Runtime is exponential in places; callers keep instances tiny.
The helpers only tests use (product projections, DOT export) live here
too, outside the package.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from fractions import Fraction

from hqsynth.automata import DPW, NBW, ProductPreAutomaton
from hqsynth.common import STATE_CEILING_ENV, InternalConsistencyError, all_letters, explore
from hqsynth.formulas import (
    Atom,
    FalseFormula,
    Factor,
    LassoWord,
    Max,
    Min,
    Next,
    Not,
    TrueFormula,
    Until,
    WAvg,
)
from hqsynth.mdp import ParityMDP, PreMDP, RewardMDP, UniformInputs
from hqsynth.transducers import Transducer

ZERO = Fraction(0)
ONE = Fraction(1)


@contextmanager
def state_ceiling_of(limit: int):
    """`HQSYNTH_STATE_CEILING` set to `limit` inside the block, and restored
    (or unset again) after it, however the block ends."""
    before = os.environ.get(STATE_CEILING_ENV)
    os.environ[STATE_CEILING_ENV] = str(limit)
    try:
        yield
    finally:
        if before is None:
            del os.environ[STATE_CEILING_ENV]
        else:
            os.environ[STATE_CEILING_ENV] = before


# --- formula evaluation by unrolling -------------------------------------


def oracle_eval(formula, word: LassoWord) -> Fraction:
    """Evaluate at position 0 by explicit split-point unrolling.

    Until at position j is a supremum over split points k >= j.  The
    running minimum of the left argument can only change while new
    position classes appear, so it settles within prefix plus one period;
    past that point the right argument just cycles.  Splits up to prefix
    plus two periods beyond j therefore cover every attainable value.
    """
    window = len(word.prefix) + 2 * len(word.period) + 2
    memo: dict = {}

    def val(f, j):
        key = (id(f), j)
        if key in memo:
            return memo[key]
        if isinstance(f, TrueFormula):
            v = ONE
        elif isinstance(f, FalseFormula):
            v = ZERO
        elif isinstance(f, Atom):
            v = ONE if f.name in word.letter(j) else ZERO
        elif isinstance(f, Not):
            v = 1 - val(f.child, j)
        elif isinstance(f, Min):
            v = min((val(g, j) for g in f.args), default=ONE)
        elif isinstance(f, Max):
            v = max((val(g, j) for g in f.args), default=ZERO)
        elif isinstance(f, Factor):
            v = f.lam * val(f.child, j)
        elif isinstance(f, WAvg):
            v = f.lam * val(f.left, j) + (1 - f.lam) * val(f.right, j)
        elif isinstance(f, Next):
            v = val(f.child, j + 1)
        elif isinstance(f, Until):
            best = val(f.right, j)
            guard = ONE
            for k in range(j, j + window):
                guard = min(guard, val(f.left, k))
                best = max(best, min(guard, val(f.right, k + 1)))
            v = best
        else:
            raise TypeError(f"unknown node {f!r}")
        memo[key] = v
        return v

    return val(formula, 0)


def bexpr_to_formula(e):
    """Lift a compiled Boolean expression back into the graded AST so the
    same lasso evaluators apply (Boolean connectives are the 0/1 fragment)."""
    from hqsynth.booleanize import (BAnd, BAtom, BFalse, BNext, BNot, BOr,
                                    BTrue, BUntil)
    from hqsynth.formulas import FALSE, TRUE

    if isinstance(e, BTrue):
        return TRUE
    if isinstance(e, BFalse):
        return FALSE
    if isinstance(e, BAtom):
        return Atom(e.name)
    if isinstance(e, BNot):
        return Not(bexpr_to_formula(e.child))
    if isinstance(e, BAnd):
        return Min(tuple(bexpr_to_formula(a) for a in e.args))
    if isinstance(e, BOr):
        return Max(tuple(bexpr_to_formula(a) for a in e.args))
    if isinstance(e, BNext):
        return Next(bexpr_to_formula(e.child))
    if isinstance(e, BUntil):
        return Until(bexpr_to_formula(e.left), bexpr_to_formula(e.right))
    raise TypeError(f"unknown Boolean node {e!r}")


# --- value automata the plain way ----------------------------------------
#
# The three shortcuts that build the value automata with less work, undone:
# vacuity decided through covers alone, candidate values kept when the parity
# search finds a lasso on their determinized automaton, and thresholds
# carried as `Fraction`s.


def plain_vacuity(cover, weak):
    """The vacuity test of a tableau (its `cover` function and `weak` mask)
    without the shortcut through singletons and pairs: a set is vacuous when
    every branch of its cover has a vacuous next-step set once `weak` drops
    its untils and releases.  It keeps a memo of its own."""
    memo = {0: False}

    def vacuous(obls):
        stack = [obls]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            for _, _, nxt, _ in cover(top):
                nxt &= weak
                if nxt not in memo:
                    stack.append(nxt)
                    break
                if not memo[nxt]:
                    memo[top] = False
                    break
            else:
                memo[top] = True
        return memo[obls]

    return vacuous


def fraction_candidates(formula) -> frozenset:
    """The candidate values of `formula` as a set of `Fraction`s."""
    kids = [fraction_candidates(c) for c in formula.children()]
    if isinstance(formula, TrueFormula):
        return frozenset({ONE})
    if isinstance(formula, FalseFormula):
        return frozenset({ZERO})
    if isinstance(formula, Atom):
        return frozenset({ZERO, ONE})
    if isinstance(formula, Not):
        return frozenset(1 - v for v in kids[0])
    if isinstance(formula, (Min, Max)):
        pick = min if isinstance(formula, Min) else max
        out = frozenset({ONE if pick is min else ZERO})
        for vs in kids:
            out = frozenset(pick(x, y) for x in out for y in vs)
        return out
    if isinstance(formula, Factor):
        return frozenset(formula.lam * v for v in kids[0])
    if isinstance(formula, WAvg):
        return frozenset(formula.lam * x + (1 - formula.lam) * y
                         for x in kids[0] for y in kids[1])
    if isinstance(formula, Next):
        return kids[0]
    if isinstance(formula, Until):
        return kids[0] | kids[1]
    raise TypeError(f"unknown node {formula!r}")


def fraction_booleanize(formula, predicate):
    """The Boolean formula `booleanize` builds, from a threshold recursion
    on `Fraction` bounds keyed by (subformula, bound, strictness), through
    the same hash-consing constructors."""
    from hqsynth.booleanize import (B_FALSE, B_TRUE, AtLeast, EqualTo, GreaterThan,
                                    band, batom, bnext, bnot, bor, buntil)

    memo: dict = {}

    def clears(f, v, strict):
        key = (f, v, strict)
        if key not in memo:
            memo[key] = step(f, v, strict)
        return memo[key]

    def step(f, v, strict):
        if v < 0 or (v == 0 and not strict):
            return B_TRUE
        if v > 1 or (v == 1 and strict):
            return B_FALSE
        if isinstance(f, TrueFormula):
            return B_TRUE
        if isinstance(f, FalseFormula):
            return B_FALSE
        if isinstance(f, Atom):
            return batom(f.name)
        if isinstance(f, Not):
            return bnot(clears(f.child, 1 - v, not strict))
        if isinstance(f, Min):
            return band(*[clears(a, v, strict) for a in f.args])
        if isinstance(f, Max):
            return bor(*[clears(a, v, strict) for a in f.args])
        if isinstance(f, Factor):
            return B_FALSE if f.lam == 0 else clears(f.child, v / f.lam, strict)
        if isinstance(f, Next):
            return bnext(clears(f.child, v, strict))
        if isinstance(f, Until):
            return buntil(clears(f.left, v, strict), clears(f.right, v, strict))
        if f.lam == 1:
            return clears(f.left, v, strict)
        if f.lam == 0:
            return clears(f.right, v, strict)
        # the disjuncts of the pairs (x, y) minimal in both coordinates
        ys = sorted(fraction_candidates(f.right))
        disjuncts, least = [], None
        for x in sorted(fraction_candidates(f.left)):
            for y in ys:
                if least is not None and y >= least:
                    break
                mixed = f.lam * x + (1 - f.lam) * y
                if mixed > v or (not strict and mixed == v):
                    disjuncts.append(band(clears(f.left, x, False), clears(f.right, y, False)))
                    least = y
                    break
        return bor(*disjuncts)

    v = Fraction(predicate.bound)
    if isinstance(predicate, AtLeast):
        return clears(formula, v, False)
    if isinstance(predicate, GreaterThan):
        return clears(formula, v, True)
    assert isinstance(predicate, EqualTo)
    return band(clears(formula, v, False), bnot(clears(formula, v, True)))


def dpw_decided_values(formula, atoms) -> list:
    """The candidate values some word attains, each decided by the parity
    search on its determinized value automaton."""
    from hqsynth.automata import determinize, dpw_nonempty_from, ltl_to_nbw
    from hqsynth.booleanize import EqualTo

    out = []
    for v in sorted(fraction_candidates(formula)):
        dpw = determinize(ltl_to_nbw(fraction_booleanize(formula, EqualTo(v)), atoms))
        if dpw_nonempty_from(dpw, dpw.initial):
            out.append(v)
    return out


# --- graph primitives (mutual reachability, no SCC algorithm) ------------


def reach_sets(n, succ):
    """succ: state -> iterable of successors; returns list of closed sets."""
    out = []
    for s in range(n):
        seen = {s}
        queue = [s]
        while queue:
            u = queue.pop()
            for w in succ(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append(seen)
    return out


def bottom_components(n, succ):
    """Bottom components via mutual reachability, as sorted frozensets."""
    reach = reach_sets(n, succ)
    bottoms = set()
    for s in range(n):
        comp = frozenset(t for t in reach[s] if s in reach[t])
        # bottom iff nothing outside the component is reachable from it
        if reach[s] == set(comp):
            bottoms.add(comp)
    return sorted(bottoms, key=min)


# --- automata: rows by letter, lasso membership, products, export --------


def letter_table(automaton) -> dict:
    """{(state, letter): entry} of an automaton's `rows`, a list indexed by
    state number or a dict keyed by state: the entry of state q on the
    letter holding the atoms at the set bits of m over the sorted atoms is
    `rows[q][m]`."""
    atoms = sorted(automaton.atoms)
    letters = [frozenset(a for k, a in enumerate(atoms) if m >> k & 1)
               for m in range(1 << len(atoms))]
    rows = automaton.rows
    return {(q, letter): row[m]
            for q, row in (rows.items() if isinstance(rows, dict) else enumerate(rows))
            for m, letter in enumerate(letters)}


def nbw_accepts_lasso(nbw: NBW, word: LassoWord) -> bool:
    """Membership of an ultimately periodic word, decided on the finite
    position graph: accept iff some reachable fair edge lies on a cycle,
    that is, its target reaches its source."""
    table = letter_table(nbw)
    start = (0, nbw.initial)
    edges: dict = {}
    queue = [start]
    while queue:
        node = queue.pop()
        if node in edges:
            continue
        pos, q = node
        letter = frozenset(word.letter(pos) & nbw.atoms)
        edges[node] = [((word.succ(pos), tgt), fair)
                       for tgt, fair in table[(q, letter)]]
        queue.extend(w for w, _ in edges[node])
    nodes = sorted(edges)
    index = {v: i for i, v in enumerate(nodes)}
    reach = reach_sets(len(nodes), lambda i: [index[w] for w, _ in edges[nodes[i]]])
    return any(fair and index[v] in reach[index[w]]
               for v in nodes for w, fair in edges[v])


# --- Safra's construction the plain way ----------------------------------
#
# `automata.determinize` merges a stepped tree in two passes over its node
# names, memoized across trees and letters; this one builds the children
# lists and walks subtrees, step by step, and checks every tree it reaches.


def check_safra_tree(tree):
    """Assert the invariants of a Safra tree given as (parent name, label)
    pairs, nodes named by position from 1 and the root's parent 0: parents
    come before their children, the root's label is nonempty, a child's
    label is inside its parent's, siblings are disjoint, and no node's
    label is the union of its children's labels."""
    labels = [0] + [lab for _, lab in tree]
    covered = [0] * len(labels)  # union of each node's children's labels
    for name, (par, lab) in enumerate(tree, 1):
        assert (par == 0) == (name == 1), tree
        assert par < name, tree
        assert lab, tree
        if par:
            assert lab & ~labels[par] == 0, tree
            assert lab & covered[par] == 0, tree
        covered[par] |= lab
    for name in range(1, len(labels)):
        assert labels[name] != covered[name], tree


def plain_determinize(nbw: NBW) -> DPW:
    """Safra's construction on the trees of `automata.determinize`, with the
    same names, priorities and exploration order, so the two automata must
    be equal; every tree reached passes `check_safra_tree`."""
    letters, table = all_letters(nbw.atoms), letter_table(nbw)
    n = max(1, len(nbw.states))
    top_name = 2 * n + 2
    neutral = 2 * top_name + 1
    ceil_prio = 2 * top_name + 2

    def post(label, letter):
        alls = fair = 0
        for q in range(len(nbw.states)):
            if label >> q & 1:
                for tgt, is_fair in table[(q, letter)]:
                    alls |= 1 << tgt
                    if is_fair:
                        fair |= 1 << tgt
        return alls, fair

    def tree_step(tree, letter):
        if not tree:
            return tree, 1
        # the child that node v grows for its fair successors is named k + v
        k = len(tree)
        size = 2 * k + 1
        parent = [0] * size
        label = [0] * size
        names = list(range(1, k + 1))
        for name, (par, lab) in enumerate(tree, 1):
            parent[name] = par
            label[name], fair = post(lab, letter)
            if fair:
                parent[k + name] = name
                label[k + name] = fair
                names.append(k + name)
        children: list[list] = [[] for _ in range(size)]
        for name in names:
            children[parent[name]].append(name)

        def subtree(name):
            out = [name]
            for v in out:
                out.extend(children[v])
            return out

        # Horizontal merge: a state stays with the oldest sibling holding it.
        for kids in children:
            seen = 0
            for c in kids:
                clash = label[c] & seen
                if clash:
                    for d in subtree(c):
                        label[d] &= ~clash
                seen |= label[c]

        if not label[1]:
            return (), 1
        removed = [not label[name] for name in range(size)]

        # Vertical merge: a node whose children cover it absorbs them.
        marked = []
        stack = [1]
        while stack:
            v = stack.pop()
            ch = [c for c in children[v] if not removed[c]]
            cover = 0
            for c in ch:
                cover |= label[c]
            if ch and label[v] == cover:
                marked.append(v)
                for c in ch:
                    for d in subtree(c):
                        removed[d] = True
            else:
                stack.extend(ch)

        cands = []
        gone = [name for name in names if removed[name]]
        if gone:
            cands.append(2 * gone[0] - 1)
        if marked:
            cands.append(2 * min(marked))
        prio = min(cands) if cands else neutral

        rename = [0] * size
        alive = [name for name in names if not removed[name]]
        for new, name in enumerate(alive, 1):
            rename[name] = new
        return tuple((rename[parent[name]], label[name]) for name in alive), prio

    def expand(state, number):
        tree = state[0]
        check_safra_tree(tree)
        return [number(tree_step(tree, letter)) for letter in letters]

    init_tree = ((0, 1 << nbw.initial),)
    states, rows = explore((init_tree, neutral), expand, "determinized automaton")
    rank = [ceil_prio - prio for (_, prio) in states]
    return DPW(nbw.atoms, len(states), 0, rows, rank)


def assert_same_dpw(got: DPW, want: DPW):
    """The two automata have the same states, transitions and ranks."""
    assert got.n_states == want.n_states
    assert letter_table(got) == letter_table(want)
    assert got.rank == want.rank


class Product(ProductPreAutomaton):
    """The synchronized product, with its projections spelled out."""

    def proj(self, i: int, s: tuple):
        return s[i]


def product(components) -> Product:
    return Product(components)


def dpw_to_dot(dpw: DPW, name: str = "dpw") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for q in range(dpw.n_states):
        shape = "doublecircle" if dpw.rank[q] % 2 == 0 else "circle"
        lines.append(f'  q{q} [shape={shape} label="q{q}\\nrank {dpw.rank[q]}"];')
    lines.append(f"  init [shape=point]; init -> q{dpw.initial};")
    grouped: dict = {}
    table = letter_table(dpw)
    for letter in all_letters(dpw.atoms):
        for q in range(dpw.n_states):
            grouped.setdefault((q, table[(q, letter)]), []).append(letter)
    for (q, t), letts in sorted(grouped.items()):
        label = " | ".join("{" + ",".join(sorted(l)) + "}" for l in letts)
        lines.append(f'  q{q} -> q{t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


# --- Markov chains as dense row dicts ------------------------------------


def chain_of_strategy(M: PreMDP, choice) -> list:
    """Row dicts of the chain a memoryless action choice induces."""
    rows = []
    for s in range(M.n):
        row: dict = {}
        for t, w in M.weights[(s, choice[s])]:
            if w > 0:
                row[t] = row.get(t, ZERO) + Fraction(w, M.den)
        rows.append(row)
    return rows


def dense_solve(matrix):
    """Gauss-Jordan elimination on a dense augmented k x (k+w) matrix of
    Fractions: k unknowns and w right-hand sides, read off the row width.
    Returns the k solution rows, one entry per right-hand side."""
    k = len(matrix)
    m = [list(row) for row in matrix]
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


def absorption_probability(rows, start, target, others) -> Fraction:
    """Probability of reaching `target` before any of the `others`."""
    absorbed = set(target)
    blocked = set().union(*others) if others else set()
    if start in absorbed:
        return ONE
    if start in blocked:
        return ZERO
    # states that can never reach any listed component have probability 0
    # and must not enter the linear system (they would make it singular)
    reach = reach_sets(len(rows), lambda s: rows[s].keys())
    free = [s for s in range(len(rows))
            if s not in absorbed | blocked and reach[s] & (absorbed | blocked)]
    if start not in free:
        return ZERO
    idx = {s: i for i, s in enumerate(free)}
    system = []
    for s in free:
        row = [ZERO] * (len(free) + 1)
        row[idx[s]] = ONE
        for t, p in rows[s].items():
            if t in idx:
                row[idx[t]] -= p
            elif t in absorbed:
                row[len(free)] += p
        system.append(row)
    return dense_solve(system)[idx[start]][0]


def chain_value(rows, start, reward) -> Fraction:
    """Expected long-run reward from `start`: absorption-weighted bottom
    rewards.  Demands a constant reward on every reachable bottom."""
    n = len(rows)
    bottoms = bottom_components(n, lambda s: rows[s].keys())
    total = ZERO
    for i, comp in enumerate(bottoms):
        vals = {reward[s] for s in comp}
        rho = absorption_probability(rows, start, comp,
                                     [c for j, c in enumerate(bottoms) if j != i])
        if rho > 0:
            assert len(vals) == 1, f"bottom {sorted(comp)} mixes rewards {vals}"
            total += rho * vals.pop()
    return total


# --- rows as Fraction probabilities -------------------------------------
#
# The induced MDP and the evaluation product as they were built while rows
# held `Fraction` probabilities: every branch probability read from the
# process's definition, added up per successor label.  Rows are keyed by
# state label, so no state numbering is shared with the package.


def process_branches(process, s, output):
    """(input letter, next state, probability) triples of an input process
    from its definition: 1/2^|inputs| per letter when uniform, else its rows
    as given, zero entries left out."""
    if isinstance(process, UniformInputs):
        letters = all_letters(process.inputs)
        return [(i, 0, Fraction(1, len(letters))) for i in letters]
    return [(process.iota[t], t, p) for t, p in process.trans[(s, output)] if p > 0]


def _label_rows(start, expand) -> dict:
    """{label: rows} over the labels reachable from `start`; `expand(label)`
    lists the label's rows, each a {successor label: probability} dict."""
    rows: dict = {}
    queue = [start]
    while queue:
        lab = queue.pop()
        if lab not in rows:
            rows[lab] = expand(lab)
            for row in rows[lab]:
                queue.extend(row)
    return rows


def _fraction_row(branches) -> dict:
    row: dict = {}
    for succ, p in branches:
        row[succ] = row.get(succ, ZERO) + p
    return row


def induced_fraction_rows(automaton, process) -> dict:
    """{(automaton state, process state): one row per output letter} of the
    MDP a deterministic automaton induces under an input process."""
    out_letters, table = all_letters(process.outputs), letter_table(automaton)

    def expand(lab):
        q, sd = lab
        return [_fraction_row(((table[(q, i | o)], sd2), p)
                              for i, sd2, p in process_branches(process, sd, o))
                for o in out_letters]

    return _label_rows((automaton.initial, process.initial), expand)


def product_chain_fraction_rows(T: Transducer, automata, process) -> dict:
    """{(transducer state, automaton states, process state): [row]} of the
    chain of a transducer driven by an input process, tracked by automata;
    where the process reads the output, the transducer's successors share
    the committed one."""
    in_letters, tables = all_letters(T.inputs), [letter_table(a) for a in automata]

    def expand(lab):
        t, qs, sd = lab
        committed = frozenset()
        if not process.insensitive_at(sd):
            (committed,) = {T.labels[T.delta[(t, i)]] for i in in_letters}
        branches = []
        for i, sd2, p in process_branches(process, sd, committed):
            t2 = T.delta[(t, i)]
            letter = i | T.labels[t2]
            branches.append(
                ((t2, tuple(table[(q, letter)] for table, q in zip(tables, qs)), sd2), p))
        return [_fraction_row(branches)]

    init = (T.initial, tuple(a.initial for a in automata), process.initial)
    return _label_rows(init, expand)


# --- end components by subset enumeration --------------------------------


def ec_state_sets(M: PreMDP):
    """All subsets that carry an end component, as frozensets."""
    out = set()
    states = list(range(M.n))
    for r in range(1, M.n + 1):
        for combo in itertools.combinations(states, r):
            S = frozenset(combo)
            allowed = []
            ok = True
            for s in combo:
                acts = [a for a in range(len(M.actions[s]))
                        if all(t in S for t, w in M.weights[(s, a)] if w > 0)]
                if not acts:
                    ok = False
                    break
                allowed.append(acts)
            if not ok:
                continue
            pos = {s: i for i, s in enumerate(combo)}
            succ = [set() for _ in combo]
            for s, acts in zip(combo, allowed):
                for a in acts:
                    for t, w in M.weights[(s, a)]:
                        if w > 0:
                            succ[pos[s]].add(pos[t])
            reach = reach_sets(len(combo), lambda i: succ[i])
            if all(len(rs) == len(combo) for rs in reach):
                out.add(S)
    return out


def oracle_mecs(M: PreMDP):
    sets = ec_state_sets(M)
    return sorted((S for S in sets
                   if not any(S < T for T in sets)), key=min)


def oracle_cwr(M: ParityMDP):
    return {q for S in ec_state_sets(M) for q in S
            if M.rank[q] % 2 == 0 and M.rank[q] == max(M.rank[p] for p in S)}


# --- strategy enumeration ------------------------------------------------


def all_choices(M: PreMDP):
    return itertools.product(*[range(len(M.actions[s])) for s in range(M.n)])


def oracle_parity_win(M: ParityMDP):
    """States from which some memoryless strategy wins almost surely: every
    bottom of the induced chain reachable from the state has even top rank."""
    win: set = set()
    for choice in all_choices(M):
        rows = chain_of_strategy(M, choice)
        reach = reach_sets(M.n, lambda s: rows[s].keys())
        bottoms = bottom_components(M.n, lambda s: rows[s].keys())
        bad = set().union(*(c for c in bottoms
                            if max(M.rank[s] for s in c) % 2 == 1), frozenset())
        win |= {s for s in range(M.n) if not reach[s] & bad}
    return win


def oracle_mean_payoff(M: RewardMDP) -> Fraction:
    return max(chain_value(chain_of_strategy(M, choice), M.initial, M.reward)
               for choice in all_choices(M))


# --- random instance generators ------------------------------------------

_LAMBDAS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
            Fraction(1, 4), Fraction(3, 4)]


def random_formula(rng, atoms, size, boolean=False, until=True):
    """A formula of the requested node count (graded operators and until
    optional)."""
    atoms = sorted(atoms)
    if size <= 1:
        roll = rng.random()
        if roll < 0.8 and atoms:
            return Atom(rng.choice(atoms))
        from hqsynth.formulas import FALSE, TRUE
        return TRUE if roll < 0.9 else FALSE
    unary = ["not", "next", "factor"]
    binary = ["min", "max", "until", "wavg"]
    if boolean:
        unary = ["not", "next"]
        binary = ["min", "max", "until"]
    if not until:
        binary.remove("until")
    if size == 2:
        op = rng.choice(unary)
    else:
        op = rng.choice(unary + binary * 2)
    if op in ("not", "next", "factor"):
        child = random_formula(rng, atoms, size - 1, boolean, until)
        if op == "not":
            return Not(child)
        if op == "next":
            return Next(child)
        return Factor(rng.choice(_LAMBDAS), child)
    left_size = rng.randint(1, size - 2)
    left = random_formula(rng, atoms, left_size, boolean, until)
    right = random_formula(rng, atoms, size - 1 - left_size, boolean, until)
    if op == "min":
        return Min((left, right))
    if op == "max":
        return Max((left, right))
    if op == "wavg":
        return WAvg(rng.choice(_LAMBDAS), left, right)
    return Until(left, right)


def random_nbw(rng, atoms, n, density=0.3, fair=0.4) -> NBW:
    """An NBW on states 0..n-1 with initial state 0: each (state, letter,
    target) triple is an edge with probability `density`, and each edge is
    fair with probability `fair`."""
    rows = [[tuple((t, rng.random() < fair) for t in range(n) if rng.random() < density)
             for _ in all_letters(atoms)] for _ in range(n)]
    return NBW(atoms, range(n), 0, rows)


def random_lasso(rng, atoms, max_prefix=3, max_period=3) -> LassoWord:
    atoms = sorted(atoms)

    def letter():
        return frozenset(a for a in atoms if rng.random() < 0.5)

    prefix = [letter() for _ in range(rng.randint(0, max_prefix))]
    period = [letter() for _ in range(rng.randint(1, max_period))]
    return LassoWord.make(prefix, period, frozenset(atoms))


def _random_row(rng, n, den=4):
    targets = rng.sample(range(n), rng.randint(1, min(3, n)))
    weights = [rng.randint(1, den) for _ in targets]
    total = sum(weights)
    return tuple((t, Fraction(w, total)) for t, w in zip(targets, weights))


def random_pre_mdp(rng, n, max_actions=2) -> PreMDP:
    actions = [tuple(range(rng.randint(1, max_actions))) for _ in range(n)]
    trans = {(s, a): _random_row(rng, n)
             for s in range(n) for a in range(len(actions[s]))}
    return PreMDP(list(range(n)), 0, actions, trans)


def random_parity_mdp(rng, n, max_actions=2, max_rank=4) -> ParityMDP:
    base = random_pre_mdp(rng, n, max_actions)
    rank = [rng.randint(1, max_rank) for _ in range(n)]
    return ParityMDP(base.labels, 0, base.actions, base.weights, rank, den=base.den)


def random_reward_mdp(rng, n, max_actions=2) -> RewardMDP:
    """Rewards are drawn per maximal end component so the solver's
    constant-reward precondition holds by construction."""
    base = random_pre_mdp(rng, n, max_actions)
    reward = [ZERO] * n
    for comp in oracle_mecs(base):
        r = Fraction(rng.randint(0, 4), 4)
        for s in comp:
            reward[s] = r
    return RewardMDP(base.labels, 0, base.actions, base.weights, reward, den=base.den)


def random_transducer(rng, inputs, outputs, n) -> Transducer:
    in_letters = all_letters(inputs)
    out_letters = all_letters(outputs)
    labels = {q: rng.choice(out_letters) for q in range(n)}
    delta = {(q, i): rng.randrange(n) for q in range(n) for i in in_letters}
    return Transducer(frozenset(inputs), frozenset(outputs),
                      list(range(n)), 0, delta, labels)
