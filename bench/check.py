"""Reference checks on hqsynth's answers.

An operation fails if it raised a traceback, if its exit code is not one
its reference allows, if a reported exact value differs from its
reference, or if its answers break an invariant that holds for any seed:

* worst-case <= almost-sure <= expected, for one controller;
* floor >= threshold, in a synthesis report;
* a simulate estimate lies within 5 standard errors of its exact value
  (the standard error floored at 1/samples, since a sample whose draws
  all agree reports 0);
* without an assumption, synthesis reports the expected value that
  evaluating its controller gives.
"""

from __future__ import annotations

from fractions import Fraction

# report keys whose values are exact rationals "num/den"
EXACT_KEYS = ("expected", "floor", "threshold", "assumption_probability",
              "almost-sure", "worst-case", "estimate", "exact")


def parse_report(text: str) -> dict:
    """`key = value` lines of a hqsynth report."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def exact_values(report: dict) -> dict:
    return {k: report[k] for k in EXACT_KEYS if k in report}


def _op_failure(op, reply) -> str | None:
    if reply.get("traceback"):
        return "traceback: " + reply["traceback"].strip().splitlines()[-1]
    if reply.get("code") not in op.codes:
        return f"exit code {reply.get('code')}, expected {' or '.join(map(str, op.codes))}"
    report = parse_report(reply["out"])
    for key, ref in op.values.items():
        if key not in report:
            return f"{key} missing, expected {ref}"
        if Fraction(report[key]) != Fraction(ref):
            return f"{key} = {report[key]}, expected {ref}"
    if "floor" in report and "threshold" in report \
            and Fraction(report["floor"]) < Fraction(report["threshold"]):
        return f"floor {report['floor']} below threshold {report['threshold']}"
    if op.role == "simulate":
        est, ex = Fraction(report["estimate"]), Fraction(report["exact"])
        stderr = max(float(report["stderr"]), 1 / int(report["samples"]))
        if abs(float(est - ex)) > 5 * stderr:
            return f"estimate {report['estimate']} is more than 5 standard errors from {ex}"
    return None


def _group_failures(ops, reports) -> dict:
    """Invariants across the operations on one controller."""
    by_role = {op.role: op for op in ops if op.id in reports}
    val = {role: Fraction(reports[op.id][role if role != "simulate" else "exact"])
           for role, op in by_role.items() if role != "synth"}
    out = {}
    if "worst-case" in val and "almost-sure" in val and val["worst-case"] > val["almost-sure"]:
        out[by_role["worst-case"].id] = "worst-case above almost-sure"
    if "almost-sure" in val and "expected" in val and val["almost-sure"] > val["expected"]:
        out[by_role["almost-sure"].id] = "almost-sure above expected"
    if "simulate" in val and "expected" in val and val["simulate"] != val["expected"]:
        out[by_role["simulate"].id] = "simulate's exact value differs from eval expected"
    synth = by_role.get("synth")
    if synth is not None and "expected" in val:
        rep = reports[synth.id]
        if "assumption_probability" not in rep and Fraction(rep["expected"]) != val["expected"]:
            out[synth.id] = "synthesis value differs from its controller's evaluation"
    return out


def check_batch(ops, replies: dict) -> dict:
    """{op id: reason} for every failed operation among those that ran.

    `replies` maps op id to the worker's reply, or to {"error": reason}
    when the worker died or timed out."""
    failures, reports, groups = {}, {}, {}
    for op in ops:
        reply = replies.get(op.id)
        if reply is None:
            continue
        reason = reply.get("error") or _op_failure(op, reply)
        if reason:
            failures[op.id] = reason
            continue
        reports[op.id] = parse_report(reply["out"])
        if op.group is not None:
            groups.setdefault(op.group, []).append(op)
    for group in groups.values():
        failures.update(_group_failures(group, reports))
    return failures
