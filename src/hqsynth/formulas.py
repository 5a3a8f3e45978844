"""Multi-valued linear temporal formulas over [0, 1].

The satisfaction value of a formula on an infinite word is a rational in
[0, 1].  Atoms are crisp (0 or 1 depending on letter membership) and the
quality operators mix values: `Min`/`Max` generalize conjunction and
disjunction, `Not` is complementation to 1, `Factor` rescales by a constant
in [0, 1], and `WAvg` takes a convex combination of two subformulas.
`Next` and `Until` keep their usual shapes, with `Until` taking the best
split position (the supremum is attained because only finitely many values
arise).

Surface conveniences (`&`, `|`, `->`, `F`, `G`) are desugared at
construction time, so the core AST has exactly ten node kinds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from .common import Record, interleave, parse_fraction, text


class Formula(Record):
    """Base class for all core AST nodes.

    Equality is structural, and the hash, structural too, is computed once
    per node and kept in the `_hash` slot, so hashing a formula again (a key
    of the automaton cache, say) costs no walk of its tree.  `_hash` is a
    cache, not a field: each node class lists only its fields.  Hashing,
    equality and `size` run on explicit stacks, since formulas built through
    the constructors can nest deeper than the recursion limit.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # Children first, so a node's key hashes cached child hashes only.
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [c for c in node.children() if not hasattr(c, "_hash")]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            object.__setattr__(node, "_hash", hash(node._key(node)))
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            for name in a.__slots__:
                x, y = getattr(a, name), getattr(b, name)
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x.__class__ is tuple and y.__class__ is tuple and len(x) == len(y):
                    stack.extend(zip(x, y))
                elif x != y:
                    return False
        return True

    def __str__(self):
        return text(self)

    def _pieces(self) -> list:
        """The pieces of the node's text: strings and child nodes."""
        raise NotImplementedError

    def size(self) -> int:
        n = 0
        stack = [self]
        while stack:
            n += 1
            stack.extend(stack.pop().children())
        return n

    def children(self) -> tuple["Formula", ...]:
        return ()

    def atoms(self) -> frozenset:
        out = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                out.add(node.name)
            stack.extend(node.children())
        return frozenset(out)


class TrueFormula(Formula):
    __slots__ = ()

    def _pieces(self):
        return ["true"]


class FalseFormula(Formula):
    __slots__ = ()

    def _pieces(self):
        return ["false"]


class Atom(Formula):
    __slots__ = ("name",)

    def _pieces(self):
        return [self.name]


class Not(Formula):
    __slots__ = ("child",)

    def children(self):
        return (self.child,)

    def _pieces(self):
        return ["!", *_operand(self.child)]


class Min(Formula):
    __slots__ = ("args",)

    def children(self):
        return self.args

    def _pieces(self):
        return ["min(", *interleave(self.args, ", "), ")"]


class Max(Formula):
    __slots__ = ("args",)

    def children(self):
        return self.args

    def _pieces(self):
        return ["max(", *interleave(self.args, ", "), ")"]


class Factor(Formula):
    __slots__ = ("lam", "child")

    def children(self):
        return (self.child,)

    def _pieces(self):
        return [f"factor{{{self.lam}}} ", *_operand(self.child)]


class WAvg(Formula):
    __slots__ = ("lam", "left", "right")

    def children(self):
        return (self.left, self.right)

    def _pieces(self):
        return [f"wavg{{{self.lam}}}(", self.left, ", ", self.right, ")"]


class Next(Formula):
    __slots__ = ("child",)

    def children(self):
        return (self.child,)

    def _pieces(self):
        return ["X ", *_operand(self.child)]


class Until(Formula):
    __slots__ = ("left", "right")

    def children(self):
        return (self.left, self.right)

    def _pieces(self):
        return ["(", self.left, " U ", self.right, ")"]


TRUE = TrueFormula()
FALSE = FalseFormula()


def _operand(f: Formula) -> tuple:
    """The pieces of a prefix operator's operand: parenthesized unless it
    is an atom, a constant or a bracketed call."""
    if isinstance(f, (Atom, TrueFormula, FalseFormula, Min, Max, WAvg)):
        return (f,)
    return ("(", f, ")")


def conj(*args: Formula) -> Formula:
    return args[0] if len(args) == 1 else Min(tuple(args))


def disj(*args: Formula) -> Formula:
    return args[0] if len(args) == 1 else Max(tuple(args))


def implies(a: Formula, b: Formula) -> Formula:
    return Max((Not(a), b))


def eventually(f: Formula) -> Formula:
    return Until(TRUE, f)


def globally(f: Formula) -> Formula:
    return Not(Until(TRUE, Not(f)))


def is_boolean(f: Formula) -> bool:
    """Syntactic check that only classical connectives appear (no scaling,
    no weighted averaging), which keeps the value in {0,1} on every word."""
    if isinstance(f, (Factor, WAvg)):
        return False
    return all(is_boolean(c) for c in f.children())


# --- parser ---------------------------------------------------------------
#
# Precedence, loosest first: ->  |  &  U  unary.  `->` and `U` associate to
# the right, `&` and `|` flatten into n-ary Min/Max.

# Deepest nesting `parse` accepts.  While it parses, a level is a
# parenthesized group, the operand of a prefix operator, the right side of
# `U` or `->`, or the argument list of wavg/min/max; the formula it returns
# must then pass `check_nesting`, the measure specs and evaluators apply,
# so a formula `parse` accepts is accepted everywhere.  The parser and the
# quality-level recursions (booleanization, candidate values, lasso
# evaluation) take stack frames per level; this keeps them well inside
# Python's default recursion limit, so a deeper formula is a parse error,
# not a crash.
MAX_NESTING = 100


class ParseError(ValueError):
    pass


def check_nesting(f: Formula, what: str = "formula"):
    """Reject `f` with a `ValueError` when it nests deeper than MAX_NESTING
    levels: the quality-level recursions would overflow on it.  `parse`
    applies it to every formula it returns, and specs and evaluators to the
    formulas built through the constructors too.

    Every operator on a path from the root is one level, but a negation only
    when the two nodes below it are negations too, so `G φ`, which is
    `!(true U !φ)`, and `φ -> ψ`, which is `max(!φ, ψ)`, take one level
    each, as the parser counts them.  The walk is iterative; a
    subformula shared by several paths is walked again only when reached
    at a deeper level, so at most MAX_NESTING + 1 times.
    """
    deepest: dict = {}
    stack = [(f, 0)]
    while stack:
        node, level = stack.pop()
        kids = node.children()
        if not kids:
            continue
        if not isinstance(node, Not):
            level += 1
        elif isinstance(kids[0], Not) and isinstance(kids[0].child, Not):
            level += 1
        if level > MAX_NESTING:
            raise ValueError(f"{what} nests deeper than {MAX_NESTING} levels")
        if deepest.get(id(node), -1) < level:
            deepest[id(node)] = level
            for c in kids:
                stack.append((c, level))


# A token is a run of word characters (an atom, a keyword or a number), the
# arrow, a `{` with the word characters and slashes after it (where a
# rational literal goes), or any other single character.  Whitespace, as
# `str.isspace` has it, only separates tokens.  The pattern is compiled on
# the first parse, into the `re` module's cache, not at import.
_TOKEN = r"\w+|->|\{\s*[\w/]*|\S"

_KEYWORDS = {"X", "F", "G", "U", "factor", "wavg", "min", "max"}

_PREFIX = {"!": Not, "X": Next, "F": eventually, "G": globally}


class _Tokens:
    """The tokens of `text`, ending in the empty string, and `i`, the index
    of the next one.  Their positions are looked up only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.toks = re.findall(_TOKEN, text)
        self.toks.append("")
        self.i = 0
        self.depth = 0

    def deeper(self):
        """One nesting level deeper, for the parse of an operand."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"formula nests deeper than {MAX_NESTING} levels", self.end())

    def error(self, msg: str, pos: int | None = None):
        """Raise `msg` at `pos`, by default where the next token starts."""
        if pos is None:
            pos = self.spans()[self.i][0]
        raise ParseError(f"{msg} at position {pos} in {self.text!r}")

    def spans(self) -> list:
        """(start, end) of each token, and of the end of the text."""
        n = len(self.text)
        return [m.span() for m in re.finditer(_TOKEN, self.text)] + [(n, n)]

    def end(self) -> int:
        """Where the token just taken ends."""
        return self.spans()[self.i - 1][1]

    def take(self, tok: str) -> bool:
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok: str):
        if not self.take(tok):
            self.error(f"expected {tok!r}")

    def coefficient(self) -> Fraction:
        """The `{rational}` of factor and wavg, in [0, 1]: the literal is
        the digits and slashes after the brace."""
        tok = self.toks[self.i]
        if tok[:1] != "{":
            self.error("expected '{'")
        self.i += 1
        rest = tok[1:].lstrip()
        literal = rest
        if not rest.replace("/", "").isdigit():
            literal = rest[:next((k for k, c in enumerate(rest)
                                  if not (c.isdigit() or c == "/")), len(rest))]
        if not literal:
            self.error("expected a rational literal", self.end() - len(rest))
        try:
            lam = parse_fraction(literal)
        except ValueError as exc:
            self.error(str(exc), self.end() - len(rest) + len(literal))
        if literal != rest:
            self.error("expected '}'", self.end() - len(rest) + len(literal))
        self.expect("}")
        if not 0 <= lam <= 1:
            self.error(f"coefficient {lam} outside [0, 1]", self.end())
        return lam


def parse(text: str) -> Formula:
    toks = _Tokens(text)
    f = _parse_implies(toks)
    if toks.toks[toks.i]:
        toks.error("trailing input")
    # The parse levels above guard the parser's own recursion; the formula
    # must also pass the measure every spec and evaluator applies, where
    # `&` and `|` and the left sides of `U` and `->` take levels too.
    try:
        check_nesting(f)
    except ValueError as exc:
        raise ParseError(f"{exc} in {text!r}") from None
    return f


def _parse_implies(toks: _Tokens) -> Formula:
    left = _parse_or(toks)
    if toks.take("->"):
        toks.deeper()
        f = implies(left, _parse_implies(toks))
        toks.depth -= 1
        return f
    return left


def _parse_or(toks: _Tokens) -> Formula:
    parts = [_parse_and(toks)]
    while toks.take("|"):
        parts.append(_parse_and(toks))
    return disj(*parts)


def _parse_and(toks: _Tokens) -> Formula:
    parts = [_parse_until(toks)]
    while toks.take("&"):
        parts.append(_parse_until(toks))
    return conj(*parts)


def _parse_until(toks: _Tokens) -> Formula:
    left = _parse_unary(toks)
    if toks.take("U"):
        toks.deeper()
        f = Until(left, _parse_until(toks))
        toks.depth -= 1
        return f
    return left


def _parse_unary(toks: _Tokens) -> Formula:
    tok = toks.toks[toks.i]
    build = _PREFIX.get(tok)
    if build is not None:
        toks.i += 1
    elif tok == "factor":
        toks.i += 1
        build = partial(Factor, toks.coefficient())
    else:
        return _parse_atomic(toks)
    toks.deeper()
    f = build(_parse_unary(toks))
    toks.depth -= 1
    return f


def _parse_atomic(toks: _Tokens) -> Formula:
    tok = toks.toks[toks.i]
    if tok == "(":
        toks.i += 1
        toks.deeper()
        f = _parse_implies(toks)
        toks.depth -= 1
        toks.expect(")")
        return f
    if tok == "wavg":
        toks.i += 1
        lam = toks.coefficient()
        toks.expect("(")
        toks.deeper()
        a = _parse_implies(toks)
        toks.expect(",")
        b = _parse_implies(toks)
        toks.depth -= 1
        toks.expect(")")
        return WAvg(lam, a, b)
    if tok == "min" or tok == "max":
        toks.i += 1
        return (Min if tok == "min" else Max)(tuple(_parse_args(toks)))
    if not (tok[:1].isalnum() or tok[:1] == "_"):
        toks.error("expected an identifier")
    toks.i += 1
    if tok == "true":
        return TRUE
    if tok == "false":
        return FALSE
    if tok in _KEYWORDS:
        toks.error(f"operator {tok!r} used as an atom", toks.end())
    return Atom(tok)


def _parse_args(toks: _Tokens) -> list:
    toks.expect("(")
    toks.deeper()
    args = [_parse_implies(toks)]
    while toks.take(","):
        args.append(_parse_implies(toks))
    toks.depth -= 1
    toks.expect(")")
    if len(args) < 2:
        toks.error("min/max need at least two arguments", toks.end())
    return args


# --- lasso words ----------------------------------------------------------


class LassoWord(Record):
    """The ultimately periodic word prefix . period^omega."""

    __slots__ = ("prefix", "period", "atoms")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.period:
            raise ValueError("lasso period must be nonempty")
        for letter in self.prefix + self.period:
            if not letter <= self.atoms:
                raise ValueError(f"letter {set(letter)} uses atoms outside {set(self.atoms)}")

    @staticmethod
    def make(prefix, period, atoms=None) -> "LassoWord":
        prefix = tuple(frozenset(p) for p in prefix)
        period = tuple(frozenset(p) for p in period)
        if atoms is None:
            atoms = frozenset().union(*prefix, *period) if (prefix or period) else frozenset()
        return LassoWord(prefix, period, frozenset(atoms))

    def positions(self) -> int:
        return len(self.prefix) + len(self.period)

    def letter(self, j: int) -> frozenset:
        if j < len(self.prefix):
            return self.prefix[j]
        return self.period[(j - len(self.prefix)) % len(self.period)]

    def succ(self, j: int) -> int:
        """Successor among the finitely many distinct suffix positions."""
        j += 1
        if j >= self.positions():
            return len(self.prefix)
        return j


def eval_lasso(formula: Formula, word: LassoWord) -> Fraction:
    """Exact satisfaction value of `formula` on the lasso word."""
    if not formula.atoms() <= word.atoms:
        missing = set(formula.atoms() - word.atoms)
        raise ValueError(f"word alphabet is missing atoms {missing}")
    n = word.positions()
    memo: dict[Formula, list[Fraction]] = {}

    def vals(f: Formula) -> list[Fraction]:
        got = memo.get(f)
        if got is not None:
            return got
        one, zero = Fraction(1), Fraction(0)
        if isinstance(f, TrueFormula):
            v = [one] * n
        elif isinstance(f, FalseFormula):
            v = [zero] * n
        elif isinstance(f, Atom):
            v = [one if f.name in word.letter(j) else zero for j in range(n)]
        elif isinstance(f, Not):
            v = [1 - x for x in vals(f.child)]
        elif isinstance(f, Min):
            cols = [vals(a) for a in f.args]
            v = [min(c[j] for c in cols) for j in range(n)]
        elif isinstance(f, Max):
            cols = [vals(a) for a in f.args]
            v = [max(c[j] for c in cols) for j in range(n)]
        elif isinstance(f, Factor):
            v = [f.lam * x for x in vals(f.child)]
        elif isinstance(f, WAvg):
            lv, rv = vals(f.left), vals(f.right)
            v = [f.lam * lv[j] + (1 - f.lam) * rv[j] for j in range(n)]
        elif isinstance(f, Next):
            cv = vals(f.child)
            v = [cv[word.succ(j)] for j in range(n)]
        elif isinstance(f, Until):
            v = _until_values(vals(f.left), vals(f.right), word)
        else:
            raise TypeError(f"unknown node {type(f).__name__}")
        memo[f] = v
        return v

    return vals(formula)[0]


def _until_values(left: list, right: list, word: LassoWord) -> list:
    # Iterate v(j) <- max(right(j), min(left(j), v(succ j))) to the fixpoint.
    # Starting from `right` this grows through the finite value lattice and
    # stabilizes once every split position within one wrap has been seen.
    n = word.positions()
    cur = list(right)
    for _ in range(n + len(word.period) + 1):
        nxt = [max(right[j], min(left[j], cur[word.succ(j)])) for j in range(n)]
        if nxt == cur:
            break
        cur = nxt
    return cur


def candidate_values(formula: Formula) -> list[Fraction]:
    """A finite superset of the attainable satisfaction values, sorted.

    Computed structurally: scalar images for pointwise operators, unions for
    the temporal ones (min/max over a set of scalars stays inside the set).
    """
    den, nums = candidate_value_sets()(formula)
    return [Fraction(n, den) for n in nums]


def candidate_value_sets():
    """The map from a formula to its candidate values as (common denominator,
    ascending numerators), in lowest terms over the set: integer arithmetic
    throughout, memoized by node identity across calls; the caller keeps the
    formulas it passes alive while it uses the map."""
    memo: dict = {}

    def scaled(parts):
        """(lcm of the denominators, each part's numerators over it)."""
        den = lcm(*(d for d, _ in parts))
        return den, [[n * (den // d) for n in ns] for d, ns in parts]

    def go(f: Formula) -> tuple:
        got = memo.get(id(f))
        if got is not None:
            return got
        if isinstance(f, TrueFormula):
            den, s = 1, {1}
        elif isinstance(f, FalseFormula):
            den, s = 1, {0}
        elif isinstance(f, Atom):
            den, s = 1, {0, 1}
        elif isinstance(f, Not):
            den, ns = go(f.child)
            s = {den - n for n in ns}
        elif isinstance(f, (Min, Max)):
            den, cols = scaled([go(a) for a in f.args])
            pick, s = (min, {den}) if isinstance(f, Min) else (max, {0})
            for ns in cols:
                s = {pick(x, y) for x in s for y in ns}
        elif isinstance(f, Factor):
            den, ns = go(f.child)
            p, q = f.lam.as_integer_ratio()
            den, s = den * q, {p * n for n in ns}
        elif isinstance(f, WAvg):
            den, (ls, rs) = scaled([go(f.left), go(f.right)])
            p, q = f.lam.as_integer_ratio()
            den, s = den * q, {p * x + (q - p) * y for x in ls for y in rs}
        elif isinstance(f, Next):
            den, ns = go(f.child)
            s = set(ns)
        elif isinstance(f, Until):
            den, (ls, rs) = scaled([go(f.left), go(f.right)])
            s = {*ls, *rs}
        else:
            raise TypeError(f"unknown node {type(f).__name__}")
        g = gcd(den, *s)
        got = memo[id(f)] = (den // g, tuple(sorted(n // g for n in s)))
        return got

    return go


def values(formula: Formula, atoms=None) -> list[Fraction]:
    """The attainable satisfaction values, sorted ascending.

    Candidates that no word can realize are pruned: `dpw_for` decides each
    one on its Buchi automaton, and determinizes only those some word
    realizes.
    """
    from . import automata
    from .booleanize import EqualTo

    if atoms is None:
        atoms = formula.atoms()
    return [v for v in candidate_values(formula)
            if automata.dpw_for(formula, EqualTo(v), atoms, nonempty=True) is not None]
