"""Shared helpers: exact rationals, alphabet letters, resource guards."""

from __future__ import annotations

import os
from fractions import Fraction

STATE_CEILING_ENV = "HQSYNTH_STATE_CEILING"
DEFAULT_STATE_CEILING = 10**6


class StateLimitExceeded(RuntimeError):
    """Raised when an automaton or product construction exceeds the ceiling."""

    def __init__(self, what: str, limit: int):
        super().__init__(f"{what} exceeded the state ceiling of {limit}; "
                         f"set {STATE_CEILING_ENV} to raise it")
        self.what = what
        self.limit = limit


class InternalConsistencyError(AssertionError):
    """A structural invariant that should hold by construction was violated."""


def state_ceiling(override: int | None = None) -> int:
    if override is not None:
        return override
    raw = os.environ.get(STATE_CEILING_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"{STATE_CEILING_ENV} must be an integer, got {raw!r}")
    return DEFAULT_STATE_CEILING


def parse_fraction(text: str) -> Fraction:
    """Parse "num/den" or "num" into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def all_letters(atoms) -> list[frozenset]:
    """Every subset of the atom set, in a fixed bitmask order."""
    names = sorted(atoms)
    out = []
    for mask in range(1 << len(names)):
        out.append(frozenset(names[i] for i in range(len(names)) if mask >> i & 1))
    return out


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
