"""Command-line front end: ``synth``, ``eval``, ``simulate``.

Spec files are JSON documents naming the alphabets and the formula, with
optional assumption, threshold, hard constraint, and input-process fields.
Reports are line-oriented ``key = value`` text (or JSON with ``--json``)
so they diff cleanly and can be scraped from shell scripts.  Exit codes:
0 on success, 2 when a requested threshold is proven unrealizable, 1 for
anything that went wrong.  All rationals cross the process boundary as
"num/den" strings; nothing is ever rounded except the decimal rendering
lines, which are a convenience and never read back.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .common import (
    StateLimitExceeded,
    all_letters,
    format_fraction,
    json_atoms,
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
    return parse_fraction(value)


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
    iota = [json_atoms(st.get("input"), f"input of distribution state {s}")
            for s, st in enumerate(states)]
    trans = {(s, o): [] for s in range(n) for o in all_letters(outputs)}
    for tr in json_records(doc["transitions"], ("from", "output", "to", "prob"),
                           "distribution transition"):
        key = (state_id(tr["from"]), json_atoms(tr["output"], "distribution transition output"))
        if state_id(tr["to"]) is None or key not in trans:
            raise ValueError(f"distribution transition from unknown state/output {tr!r}")
        trans[key].append((tr["to"], _rational(tr["prob"], "distribution transition prob")))
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
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
        stderr = math.sqrt(float(var) / n)
    else:
        stderr = 0.0
    _emit({"samples": n, "seed": args.seed,
           "estimate": mean, "estimate_decimal": float(mean),
           "exact": exact, "exact_decimal": float(exact),
           "stderr": stderr}, args.json, args.report)
    return 0


# --- argument plumbing ---------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for UNREALIZABLE
    # here, so remap to the generic failure code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    ap = _Parser(prog="hqsynth",
                 description="Exact synthesis and evaluation of transducers "
                             "against quality-graded temporal specifications.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("synth", help="synthesize an optimal transducer")
    ps.add_argument("spec", help="spec JSON file")
    ps.add_argument("--out", help="write the transducer as JSON here")
    ps.add_argument("--dot", help="write the transducer as Graphviz DOT here")
    ps.add_argument("--threshold", help='almost-sure floor "num/den", overrides the spec file')
    ps.add_argument("--assume-inline", metavar="FORMULA",
                    help="assumption formula, overrides the spec file")
    ps.add_argument("--report", help="also write the report here")
    ps.add_argument("--json", action="store_true", help="machine-readable report")
    ps.set_defaults(func=cmd_synth)

    pe = sub.add_parser("eval", help="evaluate a transducer exactly")
    pe.add_argument("spec", help="spec JSON file")
    pe.add_argument("transducer", help="transducer JSON file")
    pe.add_argument("--mode", default="expected",
                    choices=["expected", "conditional", "almost-sure", "worst-case"])
    pe.add_argument("--report", help="also write the report here")
    pe.add_argument("--json", action="store_true", help="machine-readable report")
    pe.set_defaults(func=cmd_eval)

    pm = sub.add_parser("simulate", help="Monte-Carlo estimate against the exact value")
    pm.add_argument("spec", help="spec JSON file")
    pm.add_argument("transducer", help="transducer JSON file")
    pm.add_argument("--samples", type=int, default=10000)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--report", help="also write the report here")
    pm.add_argument("--json", action="store_true", help="machine-readable report")
    pm.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, StateLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
