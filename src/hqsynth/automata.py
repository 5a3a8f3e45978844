"""Boolean LTL to deterministic parity automata.

The pipeline is classic: negation normal form, a tableau-built Buchi
automaton, then a Safra-style determinization into a parity automaton.
These local conventions keep it fast and the halves compatible:

* The tableau works on small ints.  A `Tableau` interns the negation
  normal forms of the Boolean formulas it is given in one node table:
  every structurally distinct subformula gets an id, so node equality is
  int equality, a set of obligations (and the `done`, next-step and
  postponed sets of a branch) is an int bitmask, and literals and letters
  are bitmasks over the sorted atoms.  Tableau states are (obligation
  bitmask, counter) pairs.

* Ids follow creation order in post-order walks of the formulas, so
  every node comes after its operands.  The tableau expands obligations
  in ascending id, and that order fixes the state numbering and edge order
  of the Buchi automaton, hence the determinized automaton and the
  tie-breaks of every later analysis.  Nodes are never renumbered: a node
  no formula reaches leaves a gap in the ids, which keeps the relative
  order of the others.

* Covers are composed, not re-derived.  A state's cover is the list of
  branches a depth-first expansion of its obligations reaches, in
  ascending id; each obligation's expansion finishes before the next one
  starts, and reads only the `done` bits inside its own closure.  So the
  branches of one node are memoized under (node, `done` within its
  closure) and composed in depth-first order (an AND's operands in
  sequence, an OR's alternatives in order, an until's right branch before
  its postponing left one, a release's both-operands branch before its
  postponing right one), filtering literal clashes when branches combine.
  A state's cover extends the memoized cover of its obligations without
  the highest id by that id.

* One tableau serves every automaton of a formula.  The Boolean formulas
  of a formula's candidate values and thresholds share most of their
  subformulas, so `dpw_for` builds them all on one tableau over their
  alphabet, held and replaced with the memo in `booleanize.SCOPE`: they
  share the node table, the walk memo from Boolean subformulas to nodes
  (keyed by identity: `booleanize` hash-conses its formulas, so a
  subformula common to several of them is one object, walked once), the
  closures, the `weak` mask and atom bits, the branch expansions, the
  covers, the vacuity memo and the letters each literal set fits.  Each
  automaton keeps its own root, its order of untils, its degeneralization
  counter and the prefixes of its covers, which are dropped after it.  The
  ids, and so the Buchi automaton's numbering, then depend on the formulas
  built before, but its deterministic automaton does not: a cover's set
  of (pos, neg, nxt, post) branches does not depend on the order of the
  ids, vacuity is semantic, and Safra's steps on sets of Buchi states do
  not change when those states are renamed, so the transitions and ranks
  come out equal.  `ltl_to_nbw` called without a tableau builds on a
  fresh one, so its Buchi automaton is the same bit for bit however often
  it is called.  A shared tableau's memo entries, and the branches its
  expansions and covers hold, count against the state ceiling of the
  automaton being built; when those of the automata before fill it,
  `dpw_for` builds on a fresh tableau instead, so a build fails only where
  it would fail alone.

* Unsatisfiable branches are pruned while covers are composed.  Call a
  set of obligations vacuous when every branch of its cover has a vacuous
  next-step set once its untils and releases are dropped (read as true);
  the empty set never is.  Dropping obligations weakens a set, so a
  vacuous set has no model and a dropped branch starts no infinite run:
  the language is unchanged.  The test reads each obligation on its own,
  so adding obligations keeps a vacuous set vacuous, and a branch's
  next-step set only grows as it is composed.  So a branch is dropped as
  soon as its weakened next-step set holds a vacuous singleton or pair
  (when two parts combine, only the pairs across them are new), and a
  cover keeps the branches whose whole weakened next-step set is not
  vacuous, in order.  A set is vacuous when none of its branches
  survives; the test stops at the first that does.

* One trampoline serves expansions, covers and vacuity.  Each needs the
  others, so they are generators that yield what they need, run on one
  explicit stack: formulas built through the library can nest deeper than
  the recursion limit.  Without untils and releases every next-step set
  is shallower than the set it came from, and an expansion needs only the
  nodes below it, so no request waits on itself.

* The intermediate Buchi automaton carries acceptance on transitions, one
  fairness index per until subformula (a transition is fair for an until
  when that until was not postponed across it), degeneralized with a
  round-robin counter.  Transition acceptance is what the determinization
  consumes, so no state-based translation step is needed.

* Determinization uses compact ordered trees of Buchi state sets, each
  label an int bitmask over the Buchi states, with the successor masks of
  each label on every letter memoized for one `determinize` call.  Node
  names are kept compact after every step by an order-preserving rename;
  the priority of a step is derived from the smallest name removed and the
  smallest name marked before renaming.  Priorities are turned into ranks
  on the target state, so the result is a state-ranked automaton accepting
  when the maximal rank seen infinitely often is even.  Letters whose Buchi
  successor rows are equal (they differ only in atoms the formula leaves
  alone, say) step every tree alike, so a tree is stepped once per class of
  such letters, and once per tree whatever the priorities of the states
  holding it; targets are still numbered in letter order.

* A step merges in two linear passes over the node names in ascending
  order, which visits parents before children and older siblings before
  younger ones.  Both rest on Safra's invariant: a child's label is inside
  its parent's, and siblings are disjoint.  The horizontal pass gives each
  node its image less the states of its parent's older children and of
  the older siblings of its ancestors; the vertical pass removes empty
  nodes, marks a live node whose label is the union of its children's, and
  removes everything below a removed or marked node.  A step depends only
  on the tree's shape (its parents) and each node's (all, fair) successor
  masks, so it is memoized on that pair for one `determinize` call, across
  trees and letter classes.

* `dpw_for` keeps the last DPW_CACHE_SIZE automata it built, dropping the
  least recently used.  `formulas.values` asks it for the value automaton
  of each candidate value only if some word has that value: the Buchi
  automaton decides that with one pass over its strongly connected
  components (a fair transition inside one), and only the nonempty ones
  are determinized.  The cache keeps the verdict with each automaton, and
  an empty verdict in its place, so a candidate is decided once.

Everything downstream (products, runs, emptiness) works on the ranked
deterministic form.  Every automaton here, and the product, keeps its
transitions as rows: `rows[q][m]` is state q's entry on letter m, the
bitmask m over the sorted atoms (`common.all_letters`).  Frozenset letters
remain only at the boundary: `trans` views the rows as a table keyed by
(state, letter), `step` reads one entry, and constructors take such tables.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from .booleanize import (
    BAnd,
    BAtom,
    BExpr,
    BFalse,
    BNext,
    BNot,
    BOr,
    BTrue,
    BUntil,
    SCOPE,
    booleanize,
)
from .common import (
    InternalConsistencyError,
    StateLimitExceeded,
    all_letters,
    explore,
    letter_masks,
    state_ceiling,
    strongly_connected_components,
)
from .formulas import Formula, LassoWord


# --- the tableau -------------------------------------------------------

TRUE, FALSE, LIT, AND, OR, NEXT, UNTIL, RELEASE = range(8)

# what a `StateLimitExceeded` from the memos of a shared tableau names
TABLEAU_MEMOS = "tableau memos"


class Tableau:
    """The tableau of Boolean formulas over one alphabet: one interned node
    table of their negation normal forms and the memos of the construction,
    shared by every automaton built on it.

    `kind[i]` is one of TRUE, FALSE, LIT, AND, OR, NEXT, UNTIL, RELEASE and
    `args[i]` holds its operands: (atom name, negated) for a literal, the
    child ids otherwise.  Structurally equal subformulas share one id, so
    equality is id equality and a set of nodes is an int bitmask.  Ids
    follow creation order in post-order walks of the formulas added, so
    every node comes after its operands; a node no formula reaches any more
    only leaves a gap in the ids.  The tableau expands obligations in
    ascending id, and that order fixes the numbering and edge order of
    every tableau automaton.  With `prune` false, no branch is dropped as
    vacuous.
    """

    def __init__(self, atoms, prune: bool = True):
        self.atoms = frozenset(atoms)
        self.letters = all_letters(self.atoms)
        self.kind: list = []
        self.args: list = []
        self.index: dict = {}
        # closure[j]: j and every node its expansion pops; a next-step
        # operand waits for the next state, so it is not part of it.
        self.closure: list = []
        # `weak` drops the untils and releases from a set.
        self.weak = -1
        # Atoms outside the alphabet get bits above every letter, so a
        # literal asserting one matches no letter.
        self.atom_bit = {name: 1 << i for i, name in enumerate(sorted(self.atoms))}
        # The walk memo, keyed by (id of a Boolean subformula, negated); the
        # formulas walked are held, so those ids stay valid.  Hash-consed
        # formulas share subformulas as objects, so those are walked once.
        self.made: dict = {}
        self.held: list = []
        self.true = self._make(TRUE, ())
        self.false = self._make(FALSE, ())
        self.expansions: dict = {}
        self.covers: dict = {}
        self.vacuous_sets: dict = {0: False}
        # partners[b]: the nodes c (as bits) whose pair with node b (a bit)
        # is decided, and those of them whose pair is vacuous
        self.partners: dict = {}
        self.fits: dict = {}
        # The branches of obligation sets on the way to a cover; they belong
        # to one automaton and are dropped after it.
        self.prefixes: dict = {0: ((0, 0, 0, 0, 0),)}
        # The memo entries and the branches the expansions and covers hold,
        # in a list `covers_of` can add to without holding the tableau.
        self.size = [1]
        self.prune = prune
        # the (weak mask, limit) of the last `covers_of` and its function
        self.served = (None, None, None)

    # --- the node table

    def _make(self, k, a) -> int:
        key = (k, a)
        j = self.index.get(key)
        if j is None:
            j = len(self.kind)
            closure = 1 << j
            if k == LIT:
                self.atom_bit.setdefault(a[0], 1 << len(self.atom_bit))
            elif k != NEXT:
                for c in a:
                    closure |= self.closure[c]
            if k in (UNTIL, RELEASE):
                self.weak &= ~(1 << j)
            self.kind.append(k)
            self.args.append(a)
            self.closure.append(closure)
            self.index[key] = j
        return j

    def _junction(self, k, parts) -> int:
        # Flatten nested junctions of the same kind, drop units, absorb on
        # zeros and drop repeats of the parts given directly.
        unit, zero = (self.true, self.false) if k == AND else (self.false, self.true)
        kind, args = self.kind, self.args
        flat = []
        for a in parts:
            if a == zero:
                return zero
            if a == unit:
                continue
            if kind[a] == k:
                flat.extend(args[a])
            elif a not in flat:
                flat.append(a)
        if not flat:
            return unit
        return flat[0] if len(flat) == 1 else self._make(k, tuple(flat))

    def add(self, beta: BExpr) -> int:
        """The id of the negation normal form of `beta`, interning the nodes
        it needs.  The walk stops at every (subexpression, negated) pair the
        memo holds, from this formula or one added before."""
        made = self.made
        j = made.get((id(beta), False))
        if j is not None:
            return j
        self.held.append(beta)
        make = self._make
        # Post-order over (subexpression, negated) pairs, without recursion.
        stack = [(beta, False, None)]
        while stack:
            e, neg, kids = stack.pop()
            if kids is None:
                if (id(e), neg) in made:  # reached twice in this walk
                    continue
                kids = ((e.child, not neg),) if isinstance(e, BNot) else \
                    tuple((c, neg) for c in e.children())
                stack.append((e, neg, kids))
                stack.extend((c, n, None) for c, n in reversed(kids) if (id(c), n) not in made)
                continue
            got = [made[(id(c), n)] for c, n in kids]
            if isinstance(e, (BTrue, BFalse)):
                j = self.true if isinstance(e, BTrue) != neg else self.false
            elif isinstance(e, BAtom):
                j = make(LIT, (e.name, neg))
            elif isinstance(e, BNot):
                j = got[0]
            elif isinstance(e, (BAnd, BOr)):
                j = self._junction(OR if isinstance(e, BAnd) == neg else AND, got)
            elif isinstance(e, BNext):
                j = make(NEXT, tuple(got))
            elif isinstance(e, BUntil):
                j = make(RELEASE if neg else UNTIL, tuple(got))
            else:
                raise TypeError(f"unknown node {type(e).__name__}")
            made[(id(e), neg)] = j
        return made[(id(beta), False)]

    def untils(self, root: int) -> list:
        """The until nodes below `root`, in breadth-first order from it."""
        kind, args = self.kind, self.args
        seen = {root}
        queue = [root]
        for j in queue:
            if kind[j] != LIT:
                for c in args[j]:
                    if c not in seen:
                        seen.add(c)
                        queue.append(c)
        return [j for j in queue if kind[j] == UNTIL]

    # --- the memos

    def memo_size(self) -> int:
        """The entries of the memos and the branches they hold."""
        return self.size[0]

    def covers_of(self, limit: int | None = None):
        """The memoized `cover` function of this tableau over the nodes made
        so far.  With a `limit`, more memo entries and branches than that,
        the branches being composed included, raise `StateLimitExceeded`
        naming TABLEAU_MEMOS."""
        if self.served[:2] == (self.weak, limit):
            return self.served[2]
        kind, args, closure, atom_bit = self.kind, self.args, self.closure, self.atom_bit
        expansions, covers, prefixes = self.expansions, self.covers, self.prefixes
        vacuous_sets, partners, size = self.vacuous_sets, self.partners, self.size
        # Unpruned, every weakened next-step set is empty, never vacuous.
        weak = self.weak if self.prune else 0
        bound = float("inf") if limit is None else limit

        # Branches are (done, pos, neg, nxt, post): `done` the obligations
        # discharged so far, pos/neg atom bitmasks, nxt the obligations for
        # the next step and post the untils postponed across it.  Branch
        # lists are tuples: the memos outlive each automaton, and the
        # garbage collector stops scanning a tuple of ints once it has seen
        # it, where it would scan a list at every full collection.
        #
        # The generators below yield what they need and receive it: a
        # (node, done) key for an expansion, an int for whether that
        # weakened set is vacuous.  No singleton or pair inside the weakened
        # next-step set of a branch they compose is vacuous, and so none
        # inside a set they ask about.

        def clash(news, olds):
            """Whether a node of `news` and a node of `olds` make a vacuous
            pair."""
            while news:
                b = news & -news
                news ^= b
                seen, bad = partners.get(b, (0, 0))
                if bad & olds:
                    return True
                todo = olds & ~seen
                while todo:
                    c = todo & -todo
                    todo ^= c
                    got = vacuous_sets.get(b | c)
                    if got is None:
                        got = yield b | c
                    for x, y in ((b, c), (c, b)):
                        seen, bad = partners.get(x, (0, 0))
                        partners[x] = (seen | y, bad | y if got else bad)
                    if got:
                        return True
            return False

        def extend(branches, f):
            """`branches`, each followed by the expansion of obligation `f`,
            in depth-first order without repeats or vacuous pairs."""
            out: dict = {}
            for branch in branches:
                if size[0] + len(out) > bound:
                    raise StateLimitExceeded(TABLEAU_MEMOS, limit)
                done, pos, neg, nxt, post = branch
                if done >> f & 1:
                    out[branch] = None
                    continue
                key = (f, done & closure[f])
                sub = expansions.get(key)
                if sub is None:
                    sub = yield key
                old = nxt & weak
                fresh = weak & ~old
                for done2, pos2, neg2, nxt2, post2 in sub:
                    if pos2 & neg or neg2 & pos:
                        continue
                    # Only a pair across the parts can be vacuous, and there
                    # is none when one part holds the other's nodes.
                    if nxt2 & fresh and old & ~nxt2:
                        bad = vacuous_sets.get(old | nxt2 & weak)
                        if bad is None:
                            bad = yield from clash(nxt2 & fresh, old & ~nxt2)
                        if bad:
                            continue
                    out[(done | done2, pos | pos2, neg | neg2, nxt | nxt2, post | post2)] = None
            return tuple(out)

        def expansion(f, done):
            """The branches that discharge node `f` alone, starting from
            `done` (the discharged obligations inside `f`'s closure, `f` not
            among them)."""
            done |= 1 << f
            k = kind[f]
            base = ((done, 0, 0, 0, 0),)
            if k == TRUE:
                return base
            if k == FALSE:
                return ()
            if k == LIT:
                name, negated = args[f]
                bit = atom_bit[name]
                return ((done, 0, bit, 0, 0) if negated else (done, bit, 0, 0, 0),)
            if k == NEXT:
                nxt = 1 << args[f][0]
                if nxt & weak:
                    bad = vacuous_sets.get(nxt)
                    if bad is None:
                        bad = yield nxt
                    if bad:
                        return ()
                return ((done, 0, 0, nxt, 0),)
            if k == AND:
                for c in args[f]:
                    base = yield from extend(base, c)
                return base
            if k == OR:
                alternatives = []
                for a in args[f]:
                    alternatives += yield from extend(base, a)
            else:
                # UNTIL: the right operand now, or the left one and the until
                # again next step; RELEASE: both operands now, or the right
                # one and the release again next step.
                left, right = args[f]
                if k == UNTIL:
                    now = yield from extend(base, right)
                    later = yield from extend(base, left)
                    marks = (1 << f, 1 << f)
                else:
                    now = yield from extend((yield from extend(base, left)), right)
                    later = yield from extend(base, right)
                    marks = (1 << f, 0)
                alternatives = [*now, *((d, p, n, x | marks[0], s | marks[1])
                                         for d, p, n, x, s in later)]
            return tuple(dict.fromkeys(alternatives))

        def kept(obls, first):
            """The (pos, neg, nxt, post) branches of `obls` whose weakened
            next-step set is not vacuous, in the order of a depth-first
            expansion of the obligations in ascending id (the known branches
            of a prefix of them, extended by the others, lowest first); with
            `first`, the first of them only."""
            rest, tops = obls, []
            while rest not in prefixes:
                tops.append(rest.bit_length() - 1)
                rest &= ~(1 << tops[-1])
            branches = prefixes[rest]
            for top in reversed(tops):
                rest |= 1 << top
                branches = prefixes[rest] = yield from extend(branches, top)
            out = []
            for branch in branches:
                nxt = branch[3] & weak
                bad = vacuous_sets.get(nxt)
                if bad is None:
                    bad = yield nxt
                if not bad:
                    out.append(branch[1:])
                    if first:
                        break
            return out

        def decide(obls):
            """Whether the weakened set `obls` is vacuous."""
            got = covers.get(obls)
            if got is None:
                got = yield from kept(obls, True)
            return not got

        def cover(obls: int) -> tuple:
            """The (pos, neg, nxt, post) branches that discharge `obls`, none
            of them with a vacuous weakened next-step set, composed on one
            explicit stack that serves every request."""
            got = covers.get(obls)
            if got is not None:
                return got
            stack = [(None, kept(obls, False))]
            value = None
            while True:
                key, it = stack[-1]
                try:
                    want = it.send(value)
                except StopIteration as stop:
                    value = stop.value
                    stack.pop()
                    if key is None:
                        got = covers[obls] = tuple(dict.fromkeys(value))
                        size[0] += 1 + len(got)
                        return got
                    if type(key) is int:
                        vacuous_sets[key] = value
                        size[0] += 1
                    else:
                        expansions[key] = value
                        size[0] += 1 + len(value)
                    continue
                stack.append((want, decide(want) if type(want) is int else expansion(*want)))
                value = None

        # No closure here holds the tableau, so a dropped tableau is freed at
        # once, not by the cycle collector.
        self.served = (self.weak, limit, cover)
        return cover


class LetterRows(Mapping):
    """The read-only table {(state, letter): entry} over `rows`, a list
    indexed by state number or a dict keyed by state: the entry of s on
    letter m of `all_letters(atoms)` is `rows[s][m]`, and none is stored."""

    def __init__(self, rows, atoms):
        self._rows, self._letters, self._masks = rows, all_letters(atoms), letter_masks(atoms)
        self._states = range(len(rows)) if isinstance(rows, list) else rows

    def __getitem__(self, key):
        s, letter = key
        if s not in self._states or letter not in self._masks:
            raise KeyError(key)
        return self._rows[s][self._masks[letter]]

    def __iter__(self):
        return ((s, letter) for s in self._states for letter in self._letters)

    def __len__(self):
        return len(self._states) * len(self._letters)


class _ByLetter:
    """`trans` and `step`: an automaton's `rows` read by frozenset letter,
    for tests and library callers."""

    @cached_property
    def trans(self) -> LetterRows:
        return LetterRows(self.rows, self.atoms)

    def step(self, s, letter: frozenset):
        return self.trans[(s, letter)]


def _rows(trans, n: int, atoms) -> list:
    """The rows given as a list or tuple, or those of a {(state, letter):
    entry} table, checked to cover the states 0..n-1 and every letter m of
    `all_letters(atoms)`."""
    # a type test, not isinstance(trans, Mapping): the first check of a type
    # against an ABC walks the ABC's subclasses, once in every fresh process
    if not isinstance(trans, (list, tuple)):
        try:
            return [tuple(trans[(q, letter)] for letter in all_letters(atoms)) for q in range(n)]
        except KeyError as exc:
            raise ValueError(f"missing transition {exc.args[0]}") from None
    rows = list(trans)
    if len(rows) != n or any(len(row) != 1 << len(atoms) for row in rows):
        raise ValueError(f"rows do not cover {n} states and {1 << len(atoms)} letters")
    return rows


class NBW(_ByLetter):
    """Nondeterministic Buchi automaton with acceptance on transitions.

    `rows[q][m]` lists the (successor, fair) pairs of state q on letter m,
    where `fair` means the transition counts toward acceptance.  A run is
    accepting when it takes fair transitions infinitely often.
    """

    def __init__(self, atoms, states, initial, trans):
        self.atoms = frozenset(atoms)
        self.states = list(states)
        self.initial = initial
        self.rows = _rows(trans, len(self.states), self.atoms)

    def __len__(self):
        return len(self.states)


def ltl_to_nbw(beta: BExpr, atoms=None, ceiling: int | None = None,
               tableau: Tableau | None = None) -> NBW:
    """The tableau automaton of `beta` over `atoms`, built on `tableau`.

    Its states are (obligation bitmask over node ids, degeneralization
    counter) pairs; letters are bitmasks too, letter j of `all_letters`
    being the bitmask j over the sorted atoms.  Without a `tableau`, a fresh
    one serves this call alone.  A tableau passed in serves its own atoms as
    the alphabet and outlives the call, so its memo entries and branches count
    against the state ceiling too, checked while covers are composed: more of
    them raise `StateLimitExceeded` naming TABLEAU_MEMOS.
    """
    limit = None
    if tableau is None:
        tableau = Tableau(_bexpr_atoms(beta) if atoms is None else atoms)
    else:
        limit = state_ceiling(ceiling)
    root = tableau.add(beta)
    untils = tableau.untils(root)
    m = len(untils)
    letters = tableau.letters
    cover, fits = tableau.covers_of(limit), tableau.fits

    def expand(state, number):
        obls, k = state
        by_letter = [[] for _ in letters]
        for pos, neg, nxt, post in cover(obls):
            if m == 0:
                k2, fair = 0, True
            elif not post >> untils[k] & 1:
                k2 = (k + 1) % m
                fair = k == m - 1
            else:
                k2, fair = k, False
            fit = fits.get((pos, neg))
            if fit is None:
                fit = fits[(pos, neg)] = tuple(letter for letter in range(len(letters))
                                               if not (pos & ~letter or neg & letter))
            edge = ((nxt, k2), fair)
            for letter in fit:
                by_letter[letter].append(edge)
        # Successors are numbered on first use, letter by letter.
        ids: dict = {}
        row = []
        for edges in by_letter:
            out = []
            for tgt, fair in dict.fromkeys(edges):
                j = ids.get(tgt)
                if j is None:
                    j = ids[tgt] = number(tgt)
                out.append((j, fair))
            row.append(tuple(out))
        return tuple(row)

    try:
        states, rows = explore((1 << root, 0), expand, "tableau automaton", ceiling)
    finally:
        tableau.prefixes.clear()
        tableau.prefixes[0] = ((0, 0, 0, 0, 0),)
    return NBW(tableau.atoms, states, 0, rows)


def _bexpr_atoms(e: BExpr) -> frozenset:
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, BAtom):
            out.add(node.name)
        stack.extend(node.children())
    return frozenset(out)


# --- determinization -----------------------------------------------------


class DPW(_ByLetter):
    """Deterministic parity automaton; accepts when the maximal rank seen
    infinitely often is even.  `rows[q][m]` is the successor of q on letter m."""

    def __init__(self, atoms, n_states, initial, trans, rank):
        self.atoms = frozenset(atoms)
        self.n_states = n_states
        self.initial = initial
        self.rows = _rows(trans, n_states, self.atoms)
        self.rank = rank
        for q in range(n_states):
            if not 1 <= rank[q]:
                raise ValueError(f"state {q} has rank {rank[q]} below 1")

    def __len__(self):
        return self.n_states


def determinize(nbw: NBW, ceiling: int | None = None) -> DPW:
    n = max(1, len(nbw.states))
    top_name = 2 * n + 2
    neutral = 2 * top_name + 1
    ceil_prio = 2 * top_name + 2

    # succ[m][q]: the (all, fair) successor bitmasks of state q on letter m
    succ = []
    for m in range(1 << len(nbw.atoms)):
        row = []
        for nbw_row in nbw.rows:
            alls = fair = 0
            for tgt, is_fair in nbw_row[m]:
                alls |= 1 << tgt
                if is_fair:
                    fair |= 1 << tgt
            row.append((alls, fair))
        succ.append(tuple(row))
    # Letters with one successor row step every tree alike: classes maps a
    # row to the position of its class, cls[i] is the class of letter i.
    classes: dict = {}
    cls = [classes.setdefault(row, len(classes)) for row in succ]
    posts: dict = {}

    def post(label: int) -> tuple:
        """The (all, fair) successor bitmasks of a label on each class."""
        states = []
        rest = label
        while rest:
            low = rest & -rest
            states.append(low.bit_length() - 1)
            rest ^= low
        out = []
        for row in classes:
            alls = fair = 0
            for q in states:
                a, f = row[q]
                alls |= a
                fair |= f
            out.append((alls, fair))
        got = posts[label] = tuple(out)
        return got

    def merge(shape, images):
        """The tree and priority of a step from a tree with parents `shape`
        whose labels have the (all, fair) successor masks `images`."""
        # Nodes are named by position from 1; the child that node v grows
        # for its fair successors is named k + v, after all its siblings.
        k = len(shape)
        parent = [0, *shape, *range(1, k + 1)]
        label = [0] * (2 * k + 1)
        names = list(range(1, k + 1))
        for v, (alls, fair) in enumerate(images, 1):
            label[v] = alls
            if fair:
                label[k + v] = fair
                names.append(k + v)
        if not label[1]:
            return (), 1
        # Horizontal merge: a state stays with the oldest sibling holding it.
        # forbid[v] holds the states of the older siblings of v and of its
        # ancestors, seen[v] the labels of v's children so far.
        forbid = [0] * len(label)
        seen = [0] * len(label)
        for v in names:
            p = parent[v]
            forbid[v] = forbid[p] | seen[p]
            label[v] &= ~forbid[v]
            seen[p] |= label[v]
        # Vertical merge: a node whose children cover it absorbs them.
        # cut[v]: v is removed or absorbs its children, so they are removed.
        cut = [False] * len(label)
        alive = []
        gone = marked = 0
        for v in names:
            if cut[parent[v]] or not label[v]:
                cut[v] = True
                gone = gone or v
            else:
                alive.append(v)
                if label[v] == seen[v]:
                    cut[v] = True
                    marked = marked or v
        prio = min(2 * gone - 1 if gone else neutral, 2 * marked if marked else neutral)
        rename = [0] * len(label)
        for new, v in enumerate(alive, 1):
            rename[v] = new
        return tuple((rename[parent[v]], label[v]) for v in alive), prio

    # Steps are memoized on (shape, images) across trees and letter classes,
    # and states that differ only in priority share their tree's steps; the
    # empty tree steps to itself with priority 1 on every letter.
    merged: dict = {}
    steps: dict = {(): [((), 1)] * len(classes)}

    def expand(state, number):
        tree = state[0]
        step = steps.get(tree)
        if step is None:
            shape = tuple([par for par, _ in tree])
            step = steps[tree] = []
            for images in zip(*[posts.get(lab) or post(lab) for _, lab in tree]):
                key = (shape, images)
                got = merged.get(key)
                if got is None:
                    got = merged[key] = merge(shape, images)
                step.append(got)
        # targets are numbered in letter order, as if every letter stepped
        return tuple([number(step[c]) for c in cls])

    init_tree = ((0, 1 << nbw.initial),)
    states, rows = explore((init_tree, neutral), expand, "determinized automaton", ceiling)
    rank = [ceil_prio - prio for (_, prio) in states]
    return DPW(nbw.atoms, len(states), 0, rows, rank)


# --- value automata ------------------------------------------------------

# The automata `dpw_for` built last, least recently used first; the oldest
# is dropped past DPW_CACHE_SIZE entries.  Unlike the scope of `booleanize`,
# this cache is keyed by value, holds nothing keyed by identity, and
# outlives formulas: a batch of calls hits it across formulas.
DPW_CACHE_SIZE = 256
_dpw_cache: dict = {}


def dpw_for(formula: Formula, predicate, atoms=None, ceiling: int | None = None,
            nonempty: bool = False) -> DPW | None:
    """The deterministic parity automaton of {words : predicate holds of the
    word's satisfaction value}.  With `nonempty`, None when no word is in
    that set, decided on the Buchi automaton before it is determinized."""
    if atoms is None:
        atoms = formula.atoms()
    atoms = frozenset(atoms)
    key = (formula, predicate, atoms, state_ceiling(ceiling))
    # an entry is (the automaton, or None while only its emptiness was
    # asked for, and whether no word is in the set)
    dpw, empty = _dpw_cache.pop(key, (None, None))
    if empty is None or (dpw is None and not nonempty):
        nbw = _shared_nbw(booleanize(formula, predicate), atoms, ceiling)
        empty = not nbw_nonempty(nbw)
        dpw = None if nonempty and empty else determinize(nbw, ceiling)
        if len(_dpw_cache) >= DPW_CACHE_SIZE:
            del _dpw_cache[next(iter(_dpw_cache))]
    _dpw_cache[key] = (dpw, empty)
    return None if nonempty and empty else dpw


def _shared_nbw(beta: BExpr, atoms: frozenset, ceiling) -> NBW:
    """The tableau automaton of `beta`, a reduction of the formula
    `booleanize` served last, built on that scope's tableau over `atoms`."""
    tableau = SCOPE.tableau
    if tableau is None or tableau.atoms != atoms:
        tableau = SCOPE.tableau = Tableau(atoms)
    fresh = not tableau.covers
    try:
        return ltl_to_nbw(beta, atoms, ceiling, tableau)
    except StateLimitExceeded as exc:
        if fresh or exc.what != TABLEAU_MEMOS:
            raise
    # The memos of the automata built before filled the tableau: this one
    # starts a fresh tableau, so it fails only where it fails alone.
    SCOPE.tableau = Tableau(atoms)
    return ltl_to_nbw(beta, atoms, ceiling, SCOPE.tableau)


# --- products ------------------------------------------------------------


class ProductPreAutomaton(_ByLetter):
    """Reachable synchronized product of deterministic components.

    States are tuples of component states; projection i is plain tuple
    indexing.  Components only need `initial` and `rows`; `rows[s][m]` is
    the successor of s on letter m.
    """

    def __init__(self, components, ceiling: int | None = None):
        if not components:
            raise ValueError("product needs at least one component")
        atoms = components[0].atoms
        for c in components[1:]:
            if c.atoms != atoms:
                raise ValueError("product components disagree on the alphabet")
        self.atoms = atoms
        self.components = list(components)
        self.initial = tuple(c.initial for c in components)
        parts = [c.rows for c in self.components]

        def expand(s, number):
            row = tuple(zip(*[rows[q] for rows, q in zip(parts, s)]))
            for t in row:
                number(t)
            return row

        self.states, rows = explore(self.initial, expand, "product automaton", ceiling)
        self.rows = dict(zip(self.states, rows))

    def __len__(self):
        return len(self.states)


# --- runs and emptiness --------------------------------------------------


def run_lasso(dpw: DPW, word: LassoWord) -> bool:
    if not word.atoms <= dpw.atoms:
        raise ValueError("lasso alphabet is not covered by the automaton")

    def fit(letter):
        return frozenset(letter & dpw.atoms)

    q = dpw.initial
    for letter in word.prefix:
        q = dpw.step(q, fit(letter))
    starts = {}
    visits = []
    while q not in starts:
        starts[q] = len(visits)
        seen = []
        for letter in word.period:
            seen.append(q)
            q = dpw.step(q, fit(letter))
        visits.append(seen)
    cycle = [s for block in visits[starts[q]:] for s in block]
    return max(dpw.rank[s] for s in cycle) % 2 == 0


def dpw_nonempty_from(dpw: DPW, q: int) -> bool:
    return accepting_lasso_from(dpw, q) is not None


def nbw_nonempty(nbw: NBW) -> bool:
    """Whether `nbw` accepts some word: whether a fair transition lies inside
    a strongly connected component reachable from the initial state."""
    succ: list = [set() for _ in nbw.states]
    fair_edges = []
    for q, row in enumerate(nbw.rows):
        for edges in row:
            for t, fair in edges:
                succ[q].add(t)
                if fair:
                    fair_edges.append((q, t))
    component = {}
    for i, comp in enumerate(strongly_connected_components([nbw.initial], succ.__getitem__)):
        for q in comp:
            component[q] = i
    return any(q in component and component[q] == component[t] for q, t in fair_edges)


def accepting_lasso_from(dpw: DPW, q: int):
    """A lasso word accepted from q, or None."""
    letters = all_letters(dpw.atoms)
    found = parity_lasso(q, lambda s: list(zip(letters, dpw.rows[s])),
                         lambda s: dpw.rank[s])
    if found is None:
        return None
    return LassoWord(tuple(found[0]), tuple(found[1]), dpw.atoms)


def parity_lasso(init, succ, rank):
    """(prefix labels, cycle labels) of a reachable lasso whose maximal
    rank on the cycle is even, or None.

    `succ(x)` lists (label, successor) pairs.  Stratified search: within
    the states of rank at most d, any cycle through a rank-d state has even
    maximal rank.
    """
    reach = {init}
    stack = [init]
    while stack:
        x = stack.pop()
        for _, y in succ(x):
            if y not in reach:
                reach.add(y)
                stack.append(y)
    for d in sorted({rank(x) for x in reach if rank(x) % 2 == 0}):
        sub = {x for x in reach if rank(x) <= d}
        for comp in strongly_connected_components(
                sorted(sub), lambda x: [y for _, y in succ(x) if y in sub]):
            if all(rank(x) != d for x in comp):
                continue
            if len(comp) == 1 and all(y != comp[0] for _, y in succ(comp[0])):
                continue
            u = min(x for x in comp if rank(x) == d)
            prefix = [] if init == u else _label_path(init, u, reach, succ)
            return prefix, _label_path(u, u, set(comp), succ)
    return None


def _label_path(src, goal, allowed, succ):
    """Labels of a shortest nonempty path from `src` to `goal` whose inner
    states lie in `allowed`; breadth first, successors in `succ` order."""
    back = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for x in frontier:
            for lab, y in succ(x):
                if y == goal:
                    out = [lab]
                    while back[x] is not None:
                        x, lab = back[x]
                        out.append(lab)
                    return out[::-1]
                if y in allowed and y not in back:
                    back[y] = (x, lab)
                    nxt.append(y)
        frontier = nxt
    raise InternalConsistencyError("lasso target unreachable")
