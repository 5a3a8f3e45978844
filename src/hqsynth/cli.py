"""Command-line front end: ``synth``, ``eval``, ``simulate``.

Spec files are JSON documents naming the alphabets and the formula, with
optional assumption, threshold, hard constraint, and input-process fields.
Reports are line-oriented ``key = value`` text (or JSON with ``--json``)
so they diff cleanly and can be scraped from shell scripts.  Exit codes:
0 on success, 2 when a requested threshold is proven unrealizable, 1 for
anything that went wrong.  All rationals cross the process boundary as
"num/den" strings; nothing is ever rounded except the decimal rendering
lines, which are a convenience and never read back.

The command line is declared once, in `_COMMANDS`.  A canonical command
line is read straight from it; argparse is imported and its parser built,
from the same table, only on the first call that needs it (help, a usage
error, an abbreviation, "--opt=value", "--", a value starting with "-"),
and reused after that.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

from .common import (
    StateLimitExceeded,
    all_letters,
    format_fraction,
    json_atoms,
    json_letter,
    json_object,
    json_records,
    parse_fraction,
)
from .evaluation import (
    almost_sure_value,
    conditional_expected_value,
    expected_value,
    simulate,
    worst_case_value,
)
from .formulas import Formula, parse
from .mdp import DistributionMDP
from .synthesis import SynthesisSpec, Unrealizable, synthesize
from .transducers import load_transducer, save_transducer, transducer_to_dot

_SPEC_KEYS = {"inputs", "outputs", "formula", "assumption", "threshold",
              "hard_constraint", "distribution"}


# --- file formats --------------------------------------------------------


def _rational(value, what: str) -> Fraction:
    if not isinstance(value, str):
        raise ValueError(f'{what} must be a "num/den" string, not {value!r}')
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _formula(value, what: str) -> Formula:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a formula string, not {value!r}")
    return parse(value)


def distribution_from_json(doc: dict) -> DistributionMDP:
    """Input-process JSON: states carry the input letter emitted on entry,
    transitions are (state, output letter) rows of "num/den" probabilities.
    """
    json_object(doc, ("inputs", "outputs", "states", "initial", "transitions"),
                "distribution")
    inputs = json_atoms(doc["inputs"], "distribution inputs")
    outputs = json_atoms(doc["outputs"], "distribution outputs")
    states = json_records(doc["states"], ("id",), "distribution state")
    n = len(states)

    def state_id(q):
        return q if type(q) is int and 0 <= q < n else None

    if [state_id(st["id"]) for st in states] != list(range(n)):
        raise ValueError("distribution state ids must be 0..n-1 in order")
    iota = []
    for s, st in enumerate(states):
        atoms = st.get("input")
        if type(atoms) is not list or not all(type(a) is str for a in atoms):
            atoms = json_atoms(atoms, f"input of distribution state {s}")
        iota.append(frozenset(atoms))
    trans = {(s, o): [] for s in range(n) for o in all_letters(outputs)}
    letters: dict = {}
    probs: dict = {}  # each distinct literal parsed once
    for tr in json_records(doc["transitions"], ("from", "output", "to", "prob"),
                           "distribution transition"):
        key = (state_id(tr["from"]),
               json_letter(tr["output"], letters, "distribution transition output"))
        if state_id(tr["to"]) is None or key not in trans:
            raise ValueError(f"distribution transition from unknown state/output {tr!r}")
        prob = tr["prob"]
        p = probs.get(prob) if isinstance(prob, str) else None
        if p is None:
            p = probs[prob] = _rational(prob, "distribution transition prob")
        trans[key].append((tr["to"], p))
    if state_id(doc["initial"]) is None:
        raise ValueError(f"distribution initial state {doc['initial']!r} is unknown")
    return DistributionMDP(inputs, outputs, iota, doc["initial"], trans)


def load_spec_file(path: str) -> SynthesisSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: spec must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown spec keys {sorted(unknown)}")
    for key in ("inputs", "outputs", "formula"):
        if key not in doc:
            raise ValueError(f"{path}: spec is missing {key!r}")
    return SynthesisSpec(
        inputs=json_atoms(doc["inputs"], f"{path}: inputs"),
        outputs=json_atoms(doc["outputs"], f"{path}: outputs"),
        formula=_formula(doc["formula"], f"{path}: formula"),
        assumption=(_formula(doc["assumption"], f"{path}: assumption")
                    if "assumption" in doc else None),
        threshold=(_rational(doc["threshold"], f"{path}: threshold")
                   if "threshold" in doc else None),
        hard_constraint=(_formula(doc["hard_constraint"], f"{path}: hard_constraint")
                         if "hard_constraint" in doc else None),
        distribution=(distribution_from_json(doc["distribution"])
                      if "distribution" in doc else None),
    )


# --- reports -------------------------------------------------------------


def _render(value):
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ", ".join(str(x) for x in value)
    return str(value)


def _emit(report: dict, json_mode: bool, report_path: str | None):
    if json_mode:
        doc = {k: (format_fraction(v) if isinstance(v, Fraction) else v)
               for k, v in report.items()}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(f"{k} = {_render(v)}\n" for k, v in report.items())
    sys.stdout.write(text)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_pair(args):
    spec = load_spec_file(args.spec)
    T = load_transducer(args.transducer)
    if T.inputs != spec.inputs or T.outputs != spec.outputs:
        raise ValueError("transducer alphabets do not match the spec")
    return spec, T


# --- commands ------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = load_spec_file(args.spec)
    if args.threshold is not None:
        spec = spec.replace(threshold=parse_fraction(args.threshold))
    if args.assume_inline is not None:
        spec = spec.replace(assumption=parse(args.assume_inline))
    res = synthesize(spec)
    if isinstance(res, Unrealizable):
        report = {"result": "UNREALIZABLE", "threshold": res.threshold,
                  "losing_states": len(res.losing_region)}
        for k in sorted(res.stats):
            report[k] = res.stats[k]
        _emit(report, args.json, args.report)
        return 2
    report = {"result": "OK", "expected": res.expected_value,
              "decimal": float(res.expected_value)}
    if spec.threshold is not None:
        report["threshold"] = spec.threshold
    if res.almost_sure_floor is not None:
        report["floor"] = res.almost_sure_floor
    if res.assumption_probability is not None:
        report["assumption_probability"] = res.assumption_probability
    for k in sorted(res.stats):
        report[k] = res.stats[k]
    if args.out:
        save_transducer(res.transducer, args.out)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(transducer_to_dot(res.transducer))
    _emit(report, args.json, args.report)
    return 0


def cmd_eval(args) -> int:
    spec, T = _load_pair(args)
    mode = args.mode
    if mode == "expected":
        v = expected_value(T, spec.formula, spec.distribution)
    elif mode == "conditional":
        if spec.assumption is None:
            raise ValueError("conditional mode needs an assumption in the spec file")
        v = conditional_expected_value(T, spec.formula, spec.assumption,
                                       spec.distribution)
    elif mode == "almost-sure":
        v = almost_sure_value(T, spec.formula, spec.distribution)
    else:
        # Worst case ranges over every input sequence and so ignores any
        # distribution the spec may carry.
        v = worst_case_value(T, spec.formula)
    _emit({mode: v, "decimal": float(v)}, args.json, args.report)
    return 0


def cmd_simulate(args) -> int:
    spec, T = _load_pair(args)
    if args.samples < 1:
        raise ValueError("--samples must be positive")
    mean, xs, exact = simulate(T, spec.formula, args.samples, args.seed,
                               spec.distribution)
    n = len(xs)
    if n > 1:
        # The samples repeat the values of the few components entered, one
        # object per value: tallied by object, in ints, since a Fraction's
        # hash runs in Python.  An equal value held by another object would
        # only be a term of its own.
        value_of = dict(zip(map(id, xs), xs))
        var = sum(((value_of[i] - mean) ** 2 * k for i, k in Counter(map(id, xs)).items()),
                  Fraction(0)) / (n - 1)
        stderr = math.sqrt(float(var) / n)
    else:
        stderr = 0.0
    _emit({"samples": n, "seed": args.seed,
           "estimate": mean, "estimate_decimal": float(mean),
           "exact": exact, "exact_decimal": float(exact),
           "stderr": stderr}, args.json, args.report)
    return 0


# --- argument plumbing ---------------------------------------------------

_MODES = ("expected", "conditional", "almost-sure", "worst-case")
_REPORT = ("--report", "report", None, None, None, "also write the report here")
_JSON = ("--json", "json", "machine-readable report")

# The command line, declared once.  Per subcommand: its help, its handler,
# its positionals as (dest, help), its valued options as (option, dest,
# default, `int` or a tuple of choices or None for a string, metavar, help)
# and its store_true flags as (option, dest, help).  `_read_canonical` and
# `_build_parser` both read it.
_COMMANDS = {
    "synth": ("synthesize an optimal transducer", cmd_synth,
              (("spec", "spec JSON file"),),
              (("--out", "out", None, None, None, "write the transducer as JSON here"),
               ("--dot", "dot", None, None, None, "write the transducer as Graphviz DOT here"),
               ("--threshold", "threshold", None, None, None,
                'almost-sure floor "num/den", overrides the spec file'),
               ("--assume-inline", "assume_inline", None, None, "FORMULA",
                "assumption formula, overrides the spec file"),
               _REPORT),
              (_JSON,)),
    "eval": ("evaluate a transducer exactly", cmd_eval,
             (("spec", "spec JSON file"), ("transducer", "transducer JSON file")),
             (("--mode", "mode", "expected", _MODES, None, None), _REPORT),
             (_JSON,)),
    "simulate": ("Monte-Carlo estimate against the exact value", cmd_simulate,
                 (("spec", "spec JSON file"), ("transducer", "transducer JSON file")),
                 (("--samples", "samples", 10000, int, None, None),
                  ("--seed", "seed", 0, int, None, None), _REPORT),
                 (_JSON,)),
}


def _read_canonical(argv) -> dict | None:
    """The attributes `parse_args` would set for `argv`, when it is canonical:
    a subcommand's exact name, then exactly its positionals, then only exact
    option names, each with a value, and exact flags, no positional or value
    starting with "-".  None for any other form, which is argparse's to read
    or refuse: help, abbreviations, "--opt=value", "--", a bad value."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, func, positionals, options, flags = entry
    n = len(positionals) + 1
    if len(argv) < n or any(value[:1] == "-" for value in argv[1:n]):
        return None
    attrs = {"command": argv[0], "func": func}
    attrs.update(zip([p[0] for p in positionals], argv[1:n]))
    attrs.update((o[1], o[2]) for o in options)
    attrs.update((f[1], False) for f in flags)
    valued = {o[0]: o for o in options}
    flag_dests = {f[0]: f[1] for f in flags}
    i = n
    while i < len(argv):
        token = argv[i]
        if token in flag_dests:
            attrs[flag_dests[token]] = True
            i += 1
            continue
        option = valued.get(token)
        if option is None or i + 1 == len(argv) or argv[i + 1][:1] == "-":
            return None
        _, dest, _, kind, _, _ = option
        value = argv[i + 1]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not None and value not in kind:
            return None
        attrs[dest] = value
        i += 2
    return attrs


@functools.cache
def _build_parser():
    """The argparse parser over `_COMMANDS`, built on the first `main` call
    that needs it and reused by every later one: `parse_args` keeps nothing
    from one call to the next."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with 2 on usage errors; 2 is reserved for
        # UNREALIZABLE here, so remap to the generic failure code.
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    ap = _Parser(prog="hqsynth",
                 description="Exact synthesis and evaluation of transducers "
                             "against quality-graded temporal specifications.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (text, func, positionals, options, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for dest, help_text in positionals:
            p.add_argument(dest, help=help_text)
        for option, dest, default, kind, metavar, help_text in options:
            p.add_argument(option, dest=dest, default=default,
                           type=int if kind is int else None,
                           choices=None if kind is int else kind,
                           metavar=metavar, help=help_text)
        for option, dest, help_text in flags:
            p.add_argument(option, dest=dest, action="store_true", help=help_text)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    attrs = _read_canonical(argv)
    if attrs is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    else:
        args = SimpleNamespace(**attrs)
    try:
        return args.func(args)
    except (OSError, ValueError, StateLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
