"""Reduction of value predicates on quality formulas to Boolean LTL.

`booleanize(f, AtLeast(v))` builds a crisp formula that holds on exactly
the words where f's satisfaction value reaches v.  One recursion serves
"at least" and the dual "strictly above", because complementation to 1
swaps the two.  It is memoized per (subformula, bound, strictness), and
so are the candidate values of subformulas that weighted averages
enumerate: nested averages ask for the same subformulas at the same bounds
many times over.  The memo is kept for the most recent formula, so the
predicates of its candidate values share it.

The Boolean formulas are hash-consed: the constructors `batom`, `bnot`,
`band`, `bor`, `bnext` and `buntil` return one object per structurally
distinct node, looked up in an intern table by the atom's name or by the
node's class and the identities of its children.  So `band` and `bor` drop
repeated parts by identity, without comparing trees, and the formulas of one
formula's predicates share their common subformulas as objects, which the
tableau's walk memo in `automata` then meets once.  The table has the scope
of the memo: `booleanize` starts a new one with each new formula and drops
the old one with the memo, so it holds the nodes of one formula (and of any
calls to the constructors since).  Nodes made by calling a class directly
are never merged, which leaves the trees right but may keep repeats.

The recursion runs on integers.  A bound is carried as its numerator and
denominator in lowest terms, so memo keys are tuples of ints (hashing a
`Fraction` costs a Python-level call), and each node kind has its step in
a table keyed by type.  Candidate values come as numerators over one
denominator per subformula, so the pairs a weighted average tries are
compared by cross-multiplying integers.  The trees are the ones the same
recursion builds on `Fraction` bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .common import Record, interleave, text
from .formulas import (
    Atom,
    FalseFormula,
    Factor,
    Formula,
    Max,
    Min,
    Next,
    Not,
    TrueFormula,
    Until,
    WAvg,
    candidate_value_sets,
)


# --- Boolean expression nodes --------------------------------------------


class BExpr(Record):
    __slots__ = ()

    def children(self) -> tuple["BExpr", ...]:
        return ()

    def __str__(self):
        return text(self)

    def _pieces(self) -> list:
        """The pieces of the node's text: strings and child nodes."""
        raise NotImplementedError


class BTrue(BExpr):
    __slots__ = ()

    def _pieces(self):
        return ["true"]


class BFalse(BExpr):
    __slots__ = ()

    def _pieces(self):
        return ["false"]


class BAtom(BExpr):
    __slots__ = ("name",)

    def _pieces(self):
        return [self.name]


class BNot(BExpr):
    __slots__ = ("child",)

    def children(self):
        return (self.child,)

    def _pieces(self):
        return ["!(", self.child, ")"]


class BAnd(BExpr):
    __slots__ = ("args",)

    def children(self):
        return self.args

    def _pieces(self):
        return ["(", *interleave(self.args, " & "), ")"]


class BOr(BExpr):
    __slots__ = ("args",)

    def children(self):
        return self.args

    def _pieces(self):
        return ["(", *interleave(self.args, " | "), ")"]


class BNext(BExpr):
    __slots__ = ("child",)

    def children(self):
        return (self.child,)

    def _pieces(self):
        return ["X (", self.child, ")"]


class BUntil(BExpr):
    __slots__ = ("left", "right")

    def children(self):
        return (self.left, self.right)

    def _pieces(self):
        return ["(", self.left, " U ", self.right, ")"]


B_TRUE = BTrue()
B_FALSE = BFalse()

# The intern table of the constructors below, keyed by an atom's name or by
# (class, ids of the children); a node in the table holds its children, so
# those ids stay valid while it is there.
_nodes: dict = {}


def _interned(key, cls, *fields) -> BExpr:
    node = _nodes.get(key)
    if node is None:
        node = _nodes[key] = cls(*fields)
    return node


def batom(name: str) -> BExpr:
    return _interned(name, BAtom, name)


def bnot(e: BExpr) -> BExpr:
    if isinstance(e, BTrue):
        return B_FALSE
    if isinstance(e, BFalse):
        return B_TRUE
    if isinstance(e, BNot):
        return e.child
    return _interned((BNot, id(e)), BNot, e)


def _junction(cls, unit, zero, parts) -> BExpr:
    """The `cls` junction of `parts`: nested ones of its class flattened,
    units dropped, a zero absorbing the rest, and repeats dropped.
    Interned nodes are equal exactly when they are one object, so repeats
    go by identity."""
    flat: dict = {}
    for p in parts:
        if isinstance(p, zero.__class__):
            return zero
        if isinstance(p, unit.__class__):
            continue
        for q in p.args if isinstance(p, cls) else (p,):
            flat.setdefault(id(q), q)
    if not flat:
        return unit
    if len(flat) == 1:
        return next(iter(flat.values()))
    return _interned((cls, *flat), cls, tuple(flat.values()))


def band(*parts: BExpr) -> BExpr:
    return _junction(BAnd, B_TRUE, B_FALSE, parts)


def bor(*parts: BExpr) -> BExpr:
    return _junction(BOr, B_FALSE, B_TRUE, parts)


def bnext(e: BExpr) -> BExpr:
    if isinstance(e, (BTrue, BFalse)):
        return e
    return _interned((BNext, id(e)), BNext, e)


def buntil(left: BExpr, right: BExpr) -> BExpr:
    if isinstance(right, (BTrue, BFalse)):
        return right
    if isinstance(left, BFalse):
        return right
    return _interned((BUntil, id(left), id(right)), BUntil, left, right)


# --- value predicates ----------------------------------------------------


class AtLeast(Record):
    __slots__ = ("bound",)

    def holds(self, x: Fraction) -> bool:
        return x >= self.bound

    def __str__(self):
        return f">={self.bound}"


class GreaterThan(Record):
    __slots__ = ("bound",)

    def holds(self, x: Fraction) -> bool:
        return x > self.bound

    def __str__(self):
        return f">{self.bound}"


class EqualTo(Record):
    __slots__ = ("bound",)

    def holds(self, x: Fraction) -> bool:
        return x == self.bound

    def __str__(self):
        return f"={self.bound}"


# The formula last booleanized and its threshold memo.  The value automata
# of one formula are built one candidate value after another, and their
# reductions share most (subformula, bound) pairs; holding the formula
# keeps the identity keys of its memo valid.
_recent: tuple | None = None


def booleanize(f: Formula, predicate) -> BExpr:
    global _recent, _nodes
    recent = _recent
    if recent is None or recent[0] is not f:
        # The memo and the intern table of the formula before go together.
        _nodes = {}
        recent = _recent = (f, _Thresholds())
    thresholds = recent[1]
    n, d = Fraction(predicate.bound).as_integer_ratio()
    if isinstance(predicate, AtLeast):
        return thresholds.clears(f, n, d, False)
    if isinstance(predicate, GreaterThan):
        return thresholds.clears(f, n, d, True)
    if isinstance(predicate, EqualTo):
        return band(thresholds.clears(f, n, d, False), bnot(thresholds.clears(f, n, d, True)))
    raise TypeError(f"unknown predicate {predicate!r}")


class _Thresholds:
    """The threshold recursion of `booleanize` on one formula.  A bound n/d
    is carried as its numerator and denominator in lowest terms, so the memo
    keys (subformula identity, n, d, strictness) hash as ints, and the
    candidate values of subformulas that weighted averages enumerate come as
    integer numerators over one denominator, memoized by identity too.
    Identity keys are safe because the formula being reduced, held next to
    the memo, keeps its subformulas alive."""

    def __init__(self):
        self.memo: dict = {}
        self.values = candidate_value_sets()

    def clears(self, f: Formula, n: int, d: int, strict: bool) -> BExpr:
        """The Boolean formula of "f's value is at least n/d" (strict:
        "above n/d")."""
        key = (id(f), n, d, strict)
        got = self.memo.get(key)
        if got is None:
            if n < 0 or (n == 0 and not strict):
                got = B_TRUE
            elif n > d or (n == d and strict):
                got = B_FALSE
            else:
                # The bound lies strictly inside the value range [0, 1].
                step = _STEPS.get(type(f))
                if step is None:
                    raise TypeError(f"unknown node {type(f).__name__}")
                got = step(self, f, n, d, strict)
            self.memo[key] = got
        return got

    def _atom(self, f: Atom, n, d, strict) -> BExpr:
        return batom(f.name)

    def _not(self, f: Not, n, d, strict) -> BExpr:
        # Complementation to 1 swaps "at least" with "strictly above".
        return bnot(self.clears(f.child, d - n, d, not strict))

    def _min(self, f: Min, n, d, strict) -> BExpr:
        return band(*[self.clears(a, n, d, strict) for a in f.args])

    def _max(self, f: Max, n, d, strict) -> BExpr:
        return bor(*[self.clears(a, n, d, strict) for a in f.args])

    def _factor(self, f: Factor, n, d, strict) -> BExpr:
        p, q = f.lam.as_integer_ratio()
        if p == 0:
            return B_FALSE
        n, d = n * q, d * p
        g = gcd(n, d)
        return self.clears(f.child, n // g, d // g, strict)

    def _next(self, f: Next, n, d, strict) -> BExpr:
        return bnext(self.clears(f.child, n, d, strict))

    def _until(self, f: Until, n, d, strict) -> BExpr:
        return buntil(self.clears(f.left, n, d, strict), self.clears(f.right, n, d, strict))

    def _avg(self, f: WAvg, n, d, strict) -> BExpr:
        # The average clears the bound iff some pair of attainable child
        # values does, and both children reach their half of that pair.
        # Enumerating a superset of the attainable values is still sound:
        # extra pairs only add disjuncts that imply one already present.
        p, q = f.lam.as_integer_ratio()
        if p == q:
            return self.clears(f.left, n, d, strict)
        if p == 0:
            return self.clears(f.right, n, d, strict)
        # Only the pairs minimal in both coordinates give disjuncts.  The
        # average grows with each child value, so for a left value x the one
        # candidate is the least right value y that clears the bound, and
        # (x, y) is minimal iff y is below the y of every smaller x.  With
        # x = i/dl and y = j/dr, the average times q dl dr d is
        # p dr d i + (q - p) dl d j, against the bound's n q dl dr.
        dl, xs = self.values(f.left)
        dr, ys = self.values(f.right)
        a, b, bound = p * dr * d, (q - p) * dl * d, n * q * dl * dr
        disjuncts, least = [], None
        for i in xs:
            for j in ys:
                if least is not None and j >= least:
                    break
                mixed = a * i + b * j
                if mixed > bound or (not strict and mixed == bound):
                    gi, gj = gcd(i, dl), gcd(j, dr)
                    disjuncts.append(band(self.clears(f.left, i // gi, dl // gi, False),
                                          self.clears(f.right, j // gj, dr // gj, False)))
                    least = j
                    break
        return bor(*disjuncts)


# The step of the threshold recursion for each kind of node.
_STEPS = {
    TrueFormula: lambda self, f, n, d, strict: B_TRUE,
    FalseFormula: lambda self, f, n, d, strict: B_FALSE,
    Atom: _Thresholds._atom,
    Not: _Thresholds._not,
    Min: _Thresholds._min,
    Max: _Thresholds._max,
    Factor: _Thresholds._factor,
    WAvg: _Thresholds._avg,
    Next: _Thresholds._next,
    Until: _Thresholds._until,
}
