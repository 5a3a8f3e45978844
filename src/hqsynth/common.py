"""Shared helpers: exact rationals, alphabet letters, resource guards, the
one ceiling-guarded state-space explorer, and `Record`, the base of the
immutable value classes (formula, Boolean and predicate nodes, lasso words).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, methodcaller
from types import MappingProxyType

STATE_CEILING_ENV = "HQSYNTH_STATE_CEILING"
DEFAULT_STATE_CEILING = 10**6


class StateLimitExceeded(RuntimeError):
    """Raised when a construction, an alphabet or a linear system exceeds
    the ceiling."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} exceeded the state ceiling of {limit}; "
                         f"set {STATE_CEILING_ENV} to raise it")
        self.what = what
        self.limit = limit


class InternalConsistencyError(AssertionError):
    """A structural invariant that should hold by construction was violated."""


class Record:
    """An immutable value whose fields are the `__slots__` of its class.

    It takes its fields positionally or by keyword, and its repr reads
    `Until(left=Atom(name='a'), right=...)`, written without recursion.
    Records are equal when they are of one class with equal fields; against
    another class `==` returns `NotImplemented`, so `Not(a) != Next(a)`.
    Each class compares and hashes through an `attrgetter` (C code, no
    per-class code generated at import) over a class tag and its fields;
    the tag keeps a one-field record's hash apart from its field's.
    """

    __slots__ = ()
    _classes = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        Record._classes += 1
        cls._tag = Record._classes
        cls._key = attrgetter("_tag", *cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The field values of a call that names some fields by keyword."""
        names = cls.__slots__
        rest = names[len(args):]
        if len(args) > len(names) or kwargs.keys() != set(rest):
            raise TypeError(f"{cls.__qualname__}() takes the fields {names}, given "
                            f"{len(args)} positionally and {sorted(kwargs)} by keyword")
        return args + tuple(kwargs[name] for name in rest)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        return text(self, _repr_pieces)


def text(root, pieces=methodcaller("_pieces")) -> str:
    """The text of `root`, written without recursion, so a tree of any depth
    prints.  `pieces(x)`, by default `x._pieces()`, lists the pieces of x's
    text in order: a string is written as it is, any other piece is expanded
    by `pieces` in turn."""
    out = []
    stack = [root]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            out.append(x)
        else:
            stack.extend(reversed(pieces(x)))
    return "".join(out)


def interleave(items, sep: str) -> list:
    """`items` with `sep` between each two."""
    out = []
    for x in items:
        if out:
            out.append(sep)
        out.append(x)
    return out


def _repr_pieces(x) -> list:
    """The pieces of the repr of a record or a tuple: the records and tuples
    inside it left to expand, every other field as its repr."""
    if x.__class__ is tuple:
        head, fields, tail = "(", [("", v) for v in x], ",)" if len(x) == 1 else ")"
    else:
        head, tail = x.__class__.__qualname__ + "(", ")"
        fields = [(name + "=", getattr(x, name)) for name in x.__slots__]
    out = [head]
    for i, (label, v) in enumerate(fields):
        out.append(", " + label if i else label)
        out.append(v if v.__class__ is tuple or v.__class__.__repr__ is Record.__repr__
                   else repr(v))
    out.append(tail)
    return out


def state_ceiling() -> int:
    """`HQSYNTH_STATE_CEILING`, or 10^6 when it is unset: the one ceiling.
    Every guard calls this when it checks, so a value set between calls
    holds from the next check on."""
    raw = os.environ.get(STATE_CEILING_ENV)
    if not raw:
        return DEFAULT_STATE_CEILING
    try:
        limit = int(raw)
    except ValueError:
        limit = 0  # refused below, as is any value under 1
    if limit < 1:
        raise ValueError(f"{STATE_CEILING_ENV} must be a positive integer, got {raw!r}")
    return limit


def explore(start, expand, what: str):
    """(states, rows) of the state space reachable from `start`.

    States are numbered in discovery order and expanded in that same order
    (breadth first); the numbering breaks ties in later analyses, so every
    construction explores this way.  `expand(state, number)` returns the
    state's row, where `number(successor)` gives a successor's index and
    numbers it when new.  Reaching more states than `state_ceiling()`,
    read when the exploration starts, raises `StateLimitExceeded` naming
    `what`.
    """
    limit = state_ceiling()
    states = [start]
    index = {start: 0}

    def number(state) -> int:
        j = index.get(state)
        if j is None:
            j = index[state] = len(states)
            states.append(state)
            if len(states) > limit:
                raise StateLimitExceeded(what, limit)
        return j

    # the loop also walks the states `number` appends while it runs
    rows = [expand(state, number) for state in states]
    return states, rows


def probability_row(branches, number) -> tuple:
    """The ((index, weight), ...) row of (successor, int weight) branches:
    successors numbered in branch order, repeats added up, and the row
    sorted by index."""
    acc: dict = {}
    for succ, w in branches:
        j = number(succ)
        acc[j] = acc.get(j, 0) + w
    return tuple(sorted(acc.items()))


def json_document(text: str, path: str):
    """The JSON document `text`, read from the file `path`; one nested too
    deeply for the decoder is a `ValueError` naming the file."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nests too deeply") from None


def json_object(value, keys, what: str) -> dict:
    """`value`, checked to be a JSON object carrying every key in `keys`."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {value!r}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{what} is missing {key!r}")
    return value


def json_atoms(value, what: str) -> frozenset:
    if not isinstance(value, list) or not all(isinstance(a, str) for a in value):
        raise ValueError(f"{what} must be a list of atom names")
    return frozenset(value)


def json_letter(value, seen: dict, what: str) -> frozenset:
    """`json_atoms(value, what)`, looked up in `seen`, a dict kept by the
    reader of one document, when the same list was read before."""
    try:
        letter = seen.get(tuple(value)) if type(value) is list else None
    except TypeError:  # an entry that is not a name, rejected below
        letter = None
    if letter is None:
        letter = seen[tuple(value)] = json_atoms(value, what)
    return letter


def json_records(value, keys, what: str) -> list:
    """`value`, checked to be a list of JSON objects, each a `what` carrying
    every key in `keys`."""
    if not isinstance(value, list):
        raise ValueError(f"{what}s must be a list, not {value!r}")
    return [json_object(record, keys, what) for record in value]


def parse_fraction(text: str) -> Fraction:
    """Parse "num/den", an integer or a plain decimal into an exact rational.
    Exponent notation is rejected: `Fraction` would expand "1e999999999"
    into a billion-digit integer."""
    if "e" in text or "E" in text:
        raise ValueError(f"bad rational literal {text!r}: exponent notation is not accepted")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def all_letters(atoms) -> tuple[frozenset, ...]:
    """Every subset of the atom set; letter m holds the atoms at the set
    bits of m over the sorted atoms.  Inside the library letters travel as
    these bitmasks over the joint alphabet of inputs and outputs, from the
    input process through the induced MDP's actions to the evaluation
    chain, and index every automaton's rows; frozensets remain at the
    boundary (JSON, the CLI, the `DistributionMDP` constructor, `Transducer`
    and lasso words).  The last alphabets of up to 12 atoms are kept, but
    each call checks that the ceiling admits that many letters
    (`StateLimitExceeded`)."""
    return _alphabet(atoms)[0]


def letter_masks(atoms):
    """The read-only map {letter: its bitmask} over `all_letters(atoms)`."""
    return _alphabet(atoms)[1]


def _alphabet(atoms) -> tuple:
    names = tuple(sorted(atoms))
    limit = state_ceiling()
    if 1 << len(names) > limit:
        raise StateLimitExceeded(f"alphabet of {len(names)} atoms", limit)
    return (_kept_alphabet if len(names) <= 12 else _build_alphabet)(names)


def _build_alphabet(names: tuple) -> tuple:
    letters = tuple(frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
                    for mask in range(1 << len(names)))
    return letters, MappingProxyType({letter: mask for mask, letter in enumerate(letters)})


_kept_alphabet = lru_cache(maxsize=32)(_build_alphabet)


def strongly_connected_components(nodes, succ):
    """Tarjan's algorithm, iteratively (graphs here can be deep).

    Returns components in reverse topological order; within a component,
    order follows the discovery stack.  `succ` maps a node to an iterable
    of successor nodes.
    """
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    out: list = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in onstack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)
    return out
