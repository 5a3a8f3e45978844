"""Finite-state transducers: input-driven transitions, output-labeled states.

A computation letter joins the input just read with the output of the state
the machine moved into, so the initial state's label never shows up.  That
convention is load-bearing for everything downstream; `exec_inputs` and
`computation_lasso` are the only two places that encode it.
"""

from __future__ import annotations

import json

from .common import (all_letters, json_atoms, json_document, json_letter, json_object,
                     json_records)
from .formulas import LassoWord


class Transducer:
    def __init__(self, inputs, outputs, states, initial, delta, labels):
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        self.states = list(states)
        self.initial = initial
        self.delta = dict(delta)
        self.labels = {q: frozenset(o) for q, o in labels.items()}
        self._validate()

    def _validate(self):
        ids = set(self.states)
        if len(ids) != len(self.states):
            raise ValueError("duplicate state ids")
        if self.initial not in ids:
            raise ValueError("initial state missing")
        letters = all_letters(self.inputs)
        for q in self.states:
            lab = self.labels.get(q)
            if lab is None:
                raise ValueError(f"state {q!r} has no output label")
            if not lab <= self.outputs:
                raise ValueError(f"state {q!r} labeled outside the outputs")
            for i in letters:
                tgt = self.delta.get((q, i))
                if tgt is None:
                    raise ValueError(f"missing transition from {q!r} on {set(i)}")
                if tgt not in ids:
                    raise ValueError(f"transition from {q!r} leads to unknown {tgt!r}")
        if len(self.delta) > len(self.states) * len(letters):
            q, i = next(k for k in self.delta if k[0] not in ids or k[1] not in letters)
            raise ValueError(f"transition from {q!r} on {set(i)} is outside the states "
                             "and inputs")

    def step(self, q, input_letter: frozenset):
        return self.delta[(q, frozenset(input_letter))]

    def output(self, q) -> frozenset:
        return self.labels[q]

    def __len__(self):
        return len(self.states)


def exec_inputs(T: Transducer, inputs) -> list:
    """The computation on a finite input sequence: letter j is the j-th
    input joined with the output of the state reached on it."""
    out = []
    q = T.initial
    for i in inputs:
        i = frozenset(i)
        if not i <= T.inputs:
            raise ValueError(f"input letter {set(i)} outside the inputs")
        q = T.step(q, i)
        out.append(i | T.output(q))
    return out


def computation_lasso(T: Transducer, word: LassoWord) -> LassoWord:
    """The computation on an ultimately periodic input word, again as a
    lasso.  The period is unrolled until the state at its start repeats."""
    if not word.atoms <= T.inputs:
        raise ValueError("input word uses atoms outside the inputs")
    q = T.initial
    prefix = []
    for i in word.prefix:
        q = T.step(q, i)
        prefix.append(i | T.output(q))
    starts = {}
    blocks = []
    while q not in starts:
        starts[q] = len(blocks)
        block = []
        for i in word.period:
            q = T.step(q, i)
            block.append(i | T.output(q))
        blocks.append(block)
    cut = starts[q]
    for block in blocks[:cut]:
        prefix.extend(block)
    period = [letter for block in blocks[cut:] for letter in block]
    return LassoWord(tuple(prefix), tuple(period), T.inputs | T.outputs)


# --- serialization -------------------------------------------------------


def transducer_to_json(T: Transducer) -> dict:
    return {
        "inputs": sorted(T.inputs),
        "outputs": sorted(T.outputs),
        "states": [{"id": q, "label": sorted(T.labels[q])} for q in T.states],
        "initial": T.initial,
        "transitions": [
            {"from": q, "input": sorted(i), "to": T.delta[(q, i)]}
            for q in T.states
            for i in all_letters(T.inputs)
        ],
    }


def transducer_from_json(doc: dict) -> Transducer:
    json_object(doc, ("inputs", "outputs", "states", "initial", "transitions"),
                "controller")
    records = json_records(doc["states"], ("id", "label"), "controller state")
    transitions = json_records(doc["transitions"], ("from", "input", "to"),
                               "controller transition")
    states = [st["id"] for st in records]
    _check_ids((doc["initial"], *states,
                *(tr[k] for tr in transitions for k in ("from", "to"))))
    frozen: dict = {}  # each distinct list of atom names, checked and frozen once
    labels = {st["id"]: json_letter(st["label"], frozen, "controller state label")
              for st in records}
    delta = {}
    for tr in transitions:
        key = (tr["from"], json_letter(tr["input"], frozen, "controller transition input"))
        if key in delta:
            raise ValueError(f"controller transition from {key[0]!r} on "
                             f"{sorted(key[1])} is given twice")
        delta[key] = tr["to"]
    return Transducer(json_atoms(doc["inputs"], "controller inputs"),
                      json_atoms(doc["outputs"], "controller outputs"),
                      states, doc["initial"], delta, labels)


def _check_ids(ids):
    for q in ids:
        if type(q) is not int and not isinstance(q, str):
            raise ValueError(f"controller state ids must be integers or strings, not {q!r}")


def save_transducer(T: Transducer, path: str):
    """Write `T` as `json.dumps(transducer_to_json(T), indent=2,
    sort_keys=True)` and a newline, in one write.  A transducer
    `load_transducer` would not read back (ids that are not ints or
    strings, atoms that are not strings) raises its `ValueError` before
    the file is opened."""
    text = _json_text(T)
    with open(path, "w") as fh:
        fh.write(text)


def _json_text(T: Transducer) -> str:
    """The text of `json.dumps(transducer_to_json(T), indent=2,
    sort_keys=True) + "\n"`, written directly: keys in sorted order, every
    nonempty list one item a line, two spaces an indent level, transitions
    in state order and, from each state, in `all_letters` order.  Only ids
    and atom names go through `json.dumps`, once each."""
    _check_ids(T.states)
    json_atoms(list(T.inputs), "controller inputs")
    json_atoms(list(T.outputs), "controller outputs")
    names = T.inputs | T.outputs
    ids = {q: str(q) if type(q) is int else json.dumps(q) for q in T.states}
    quoted = {a: json.dumps(a) for a in names}

    def atom_list(atoms, pad: str) -> str:
        if not atoms:
            return "[]"
        return ("[\n" + ",\n".join(f"{pad}  {quoted[a]}" for a in sorted(atoms))
                + f"\n{pad}]")

    def object_list(items) -> str:
        return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"

    labels: dict = {}
    for lab in T.labels.values():
        if lab not in labels:
            labels[lab] = atom_list(lab, "      ")
    letters = all_letters(T.inputs)
    inputs = [atom_list(i, "      ") for i in letters]
    states = [f'    {{\n      "id": {ids[q]},\n      "label": {labels[T.labels[q]]}\n    }}'
              for q in T.states]
    transitions = [
        f'    {{\n      "from": {ids[q]},\n      "input": {text},\n'
        f'      "to": {ids[T.delta[(q, i)]]}\n    }}'
        for q in T.states for i, text in zip(letters, inputs)]
    return (f'{{\n  "initial": {ids[T.initial]},\n'
            f'  "inputs": {atom_list(T.inputs, "  ")},\n'
            f'  "outputs": {atom_list(T.outputs, "  ")},\n'
            f'  "states": {object_list(states)},\n'
            f'  "transitions": {object_list(transitions)}\n}}\n')


def load_transducer(path: str) -> Transducer:
    """The controller file at `path`, read in the locale's encoding: a new
    `Transducer` on every call."""
    with open(path) as fh:
        return transducer_from_text(fh.read(), path)


def transducer_from_text(text: str, path: str) -> Transducer:
    """The controller whose JSON text `text` was read from the file `path`."""
    return transducer_from_json(json_document(text, path))


def transducer_to_dot(T: Transducer, name: str = "transducer") -> str:
    def fmt(letter):
        return "{" + ",".join(sorted(letter)) + "}"

    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for q in T.states:
        lines.append(f'  "{q}" [shape=circle label="{q}\\n/{fmt(T.labels[q])}"];')
    lines.append(f'  init [shape=point]; init -> "{T.initial}";')
    grouped: dict = {}
    for q in T.states:
        for i in all_letters(T.inputs):
            grouped.setdefault((q, T.delta[(q, i)]), []).append(i)
    for (q, t), letters in grouped.items():
        label = " | ".join(fmt(i) for i in letters)
        lines.append(f'  "{q}" -> "{t}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
