"""Reduction of value predicates on quality formulas to Boolean LTL.

`booleanize(f, AtLeast(v))` builds a crisp formula that holds on exactly
the words where f's satisfaction value reaches v.  One recursion serves
"at least" and the dual "strictly above", because complementation to 1
swaps the two.  It is memoized per (subformula, bound, strictness), and
so are the candidate values of subformulas that weighted averages
enumerate: nested averages ask for the same subformulas at the same bounds
many times over.  The memo is kept for the most recent formula, so the
predicates of its candidate values share it.

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

from .common import Record
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


class BTrue(BExpr):
    __slots__ = ()

    def __str__(self):
        return "true"


class BFalse(BExpr):
    __slots__ = ()

    def __str__(self):
        return "false"


class BAtom(BExpr):
    __slots__ = ("name",)

    def __str__(self):
        return self.name


class BNot(BExpr):
    __slots__ = ("child",)

    def children(self):
        return (self.child,)

    def __str__(self):
        return f"!({self.child})"


class BAnd(BExpr):
    __slots__ = ("args",)

    def children(self):
        return self.args

    def __str__(self):
        return "(" + " & ".join(str(a) for a in self.args) + ")"


class BOr(BExpr):
    __slots__ = ("args",)

    def children(self):
        return self.args

    def __str__(self):
        return "(" + " | ".join(str(a) for a in self.args) + ")"


class BNext(BExpr):
    __slots__ = ("child",)

    def children(self):
        return (self.child,)

    def __str__(self):
        return f"X ({self.child})"


class BUntil(BExpr):
    __slots__ = ("left", "right")

    def children(self):
        return (self.left, self.right)

    def __str__(self):
        return f"({self.left} U {self.right})"


B_TRUE = BTrue()
B_FALSE = BFalse()


def bnot(e: BExpr) -> BExpr:
    if isinstance(e, BTrue):
        return B_FALSE
    if isinstance(e, BFalse):
        return B_TRUE
    if isinstance(e, BNot):
        return e.child
    return BNot(e)


def band(*parts: BExpr) -> BExpr:
    flat: list[BExpr] = []
    for p in parts:
        if isinstance(p, BFalse):
            return B_FALSE
        if isinstance(p, BTrue):
            continue
        if isinstance(p, BAnd):
            flat.extend(p.args)
        else:
            flat.append(p)
    seen: list[BExpr] = []
    for p in flat:
        if p not in seen:
            seen.append(p)
    if not seen:
        return B_TRUE
    if len(seen) == 1:
        return seen[0]
    return BAnd(tuple(seen))


def bor(*parts: BExpr) -> BExpr:
    flat: list[BExpr] = []
    for p in parts:
        if isinstance(p, BTrue):
            return B_TRUE
        if isinstance(p, BFalse):
            continue
        if isinstance(p, BOr):
            flat.extend(p.args)
        else:
            flat.append(p)
    seen: list[BExpr] = []
    for p in flat:
        if p not in seen:
            seen.append(p)
    if not seen:
        return B_FALSE
    if len(seen) == 1:
        return seen[0]
    return BOr(tuple(seen))


def bnext(e: BExpr) -> BExpr:
    if isinstance(e, (BTrue, BFalse)):
        return e
    return BNext(e)


def buntil(left: BExpr, right: BExpr) -> BExpr:
    if isinstance(right, (BTrue, BFalse)):
        return right
    if isinstance(left, BFalse):
        return right
    return BUntil(left, right)


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
    global _recent
    recent = _recent
    if recent is None or recent[0] is not f:
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
        return BAtom(f.name)

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
