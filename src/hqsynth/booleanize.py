"""Reduction of value predicates on quality formulas to Boolean LTL.

`booleanize(f, AtLeast(v))` builds a crisp formula that holds on exactly
the words where f's satisfaction value reaches v.  One recursion serves
"at least" and the dual "strictly above", because complementation to 1
swaps the two.  It is memoized per (subformula, bound, strictness), and
so are the candidate values of subformulas that weighted averages
enumerate: nested averages ask for the same subformulas at the same bounds
many times over.  The memo is kept for the most recent formula, so the
predicates of its candidate values share it.
"""

from __future__ import annotations

from fractions import Fraction

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
    if isinstance(predicate, AtLeast):
        return thresholds.clears(f, Fraction(predicate.bound), False)
    if isinstance(predicate, GreaterThan):
        return thresholds.clears(f, Fraction(predicate.bound), True)
    if isinstance(predicate, EqualTo):
        v = Fraction(predicate.bound)
        return band(thresholds.clears(f, v, False), bnot(thresholds.clears(f, v, True)))
    raise TypeError(f"unknown predicate {predicate!r}")


class _Thresholds:
    """The threshold recursion of `booleanize` on one formula, memoized by
    (subformula identity, bound, strictness), with the candidate values of
    subformulas memoized by identity too.  Identity keys are safe because
    the formula being reduced, held next to the memo, keeps its subformulas
    alive."""

    def __init__(self):
        self.memo: dict = {}
        self.values = candidate_value_sets()

    def clears(self, f: Formula, v: Fraction, strict: bool) -> BExpr:
        """The Boolean formula of "f's value is at least v" (strict:
        "above v")."""
        key = (id(f), v, strict)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = self._clears(f, v, strict)
        return got

    def _clears(self, f: Formula, v: Fraction, strict: bool) -> BExpr:
        if v < 0 or (v == 0 and not strict):
            return B_TRUE
        if v > 1 or (v == 1 and strict):
            return B_FALSE
        # The bound lies strictly inside the value range [0, 1] from here on.
        if isinstance(f, TrueFormula):
            return B_TRUE
        if isinstance(f, FalseFormula):
            return B_FALSE
        if isinstance(f, Atom):
            return BAtom(f.name)
        if isinstance(f, Not):
            # Complementation to 1 swaps "at least" with "strictly above".
            return bnot(self.clears(f.child, 1 - v, not strict))
        if isinstance(f, Min):
            return band(*[self.clears(a, v, strict) for a in f.args])
        if isinstance(f, Max):
            return bor(*[self.clears(a, v, strict) for a in f.args])
        if isinstance(f, Factor):
            if f.lam == 0:
                return B_FALSE
            return self.clears(f.child, v / f.lam, strict)
        if isinstance(f, WAvg):
            return self._avg(f, v, strict)
        if isinstance(f, Next):
            return bnext(self.clears(f.child, v, strict))
        if isinstance(f, Until):
            return buntil(self.clears(f.left, v, strict), self.clears(f.right, v, strict))
        raise TypeError(f"unknown node {type(f).__name__}")

    def _avg(self, f: WAvg, v: Fraction, strict: bool) -> BExpr:
        # The average clears the bound iff some pair of attainable child
        # values does, and both children reach their half of that pair.
        # Enumerating a superset of the attainable values is still sound:
        # extra pairs only add disjuncts that imply one already present.
        if f.lam == 1:
            return self.clears(f.left, v, strict)
        if f.lam == 0:
            return self.clears(f.right, v, strict)
        # Only the pairs minimal in both coordinates give disjuncts.  The
        # average grows with each child value, so for a left value x the one
        # candidate is the least right value y that clears the bound, and
        # (x, y) is minimal iff y is below the y of every smaller x.
        ys = sorted(self.values(f.right))
        disjuncts, least = [], None
        for x in sorted(self.values(f.left)):
            for y in ys:
                if least is not None and y >= least:
                    break
                mixed = f.lam * x + (1 - f.lam) * y
                if mixed > v or (not strict and mixed == v):
                    disjuncts.append(band(self.clears(f.left, x, False),
                                          self.clears(f.right, y, False)))
                    least = y
                    break
        return bor(*disjuncts)
