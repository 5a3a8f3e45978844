"""Differential run of two hqsynth source trees on the same command lines.

    python3 tools/differential.py OLD_SRC NEW_SRC [--ignore KEY ...] [--shuffle SEED]

OLD_SRC and NEW_SRC are `src` directories (each holding `hqsynth/`).  Each
tree runs every command line in-process through `hqsynth.cli.main` in one
worker process of its own.  The command lines are:

* every spec under bench/inputs, synthesized with `synth --out` without a
  threshold and with the thresholds 1/2 and 3/4;
* small-specs batches 0-3 of seed 0 and 0-1 of seed 104729, generated by
  bench/workloads.py (read only), synthesized as the benchmark does;
* INTERLEAVED seeded random specs over inputs {a, c} and outputs {b, d},
  whose outputs sort between the inputs, so that a letter's bitmask over
  the inputs alone differs from its bitmask over the joint alphabet: drawn
  here with bench/workloads.py's formula generator (no until nested in
  another), every other one under an output-sensitive input process, the
  rest under uniform inputs and every fourth with an assumption, each
  synthesized without a threshold and with 1/2;
* XWINDOW seeded message-shaped specs over the same alphabet: `wavg`,
  `min` and `max` over views X^0..X^3 of one cell of `min`, `max` and
  `factor` over literals, whose value automata prune many vacuous tableau
  branches; each synthesized without a threshold and with 1/2;
* BATTERY seeded battery8-shaped specs over the same alphabet: a
  `G (l -> l')` conjunct with `min` and `max` windows over X^1..X^k, k up
  to 8, of literals and of `factor`ed literals, whose value automata decide
  long chains of single-branch tableau sets; each synthesized without a
  threshold and with 1/2;
* the XCHAIN spec `X^60 i` over input i and output o, whose covers have
  one branch each, synthesized without a threshold;
* USAGE command lines: those that end in a usage error (an unknown
  subcommand, an unknown flag, a missing positional, a bad `--mode`,
  `--samples 0`, `--samples x` and a `--threshold` in exponent notation,
  which must be refused before its power of ten is expanded), the `--help`
  of the program and of each subcommand, and the forms that only argparse
  reads (an abbreviated option, `--threshold=3/5`, an option before the
  positional and `--seed -1`), fifteen in all;
  run as given, spread evenly among the syntheses above, so that a parser
  or any other state kept from one call to the next shows up in the calls
  after them;
* for every controller either tree wrote: `eval` in the modes expected,
  almost-sure and worst-case, and `simulate`.  Each tree evaluates the
  controllers of both trees;
* CEILING lines: a few bench/inputs specs and the XCHAIN spec get `synth`
  without a threshold and with 1/2, `eval` in the modes expected and
  worst-case with the old tree's controller, and `simulate`, each under
  the state ceilings of CEILING_LINES, chosen so that the refusals come
  from different guards and some ceilings answer.  The tableau memos are
  checked only as a branch is extended, so where they outnumber the
  automaton's states the memo guard refuses first; XCHAIN extends none,
  so the tableau automaton's own guard refuses it.  They start with the
  pairs of SERVED_LINES: `eval` in the mode expected and `simulate` under
  the default ceiling, each followed by the same line under a ceiling that
  refuses it, so an analysis kept from the first and served under the
  second shows up in the plain order too;
* REWRITE steps, last and never shuffled, each tree in a directory of its
  own: one spec path is rewritten in place with REWRITE seeded random
  specs over the same alphabet in turn, then with a malformed one, then
  with the first again; each text is padded to one length and the file
  keeps its modification time, so only its content tells them apart.
  After each spec text, `synth --out` writes one controller path in turn.
  Every write, of the spec or of the controller, is followed by `eval` in
  the three modes and `simulate`, so a parse kept by path, size or
  modification time shows up as a difference.  The tree's directory is
  replaced by `{dir}` in the output before the comparison.

A command line that starts with WRITE is the worker's step, not the CLI's:
it writes a file in place.  One that starts with CEILING and a value runs
the rest with HQSYNTH_STATE_CEILING set to that value, restored after it,
so CEILING lines can run in any order.  Exit codes, standard output,
standard error and the sha256 of every written controller are compared.
Report lines `key = value` whose key is named by `--ignore` are left out of
the comparison.  With `--shuffle SEED`, the new tree runs the command lines
of the synth phase, of the follow-ups and of the CEILING lines in a
permutation drawn from SEED, and its results are put back in order before
the comparison: output that depends on what ran before in the same process
(a cache, a memo, the parser) shows up as a difference.  A worker that does
not finish within WORKER_TIMEOUT_S seconds is an error.  Every difference is
printed; the exit code is 1 if there is any, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
INPUTS = os.path.join(BENCH, "inputs")
THRESHOLDS = (None, "1/2", "3/4")
SMALL_SPECS = ((0, range(4)), (104729, range(2)))
INTERLEAVED = 20
XWINDOW = 12
BATTERY = 4
REWRITE = 4
LAMBDAS = ("1/4", "1/2", "3/4")
SIMULATE = ["--samples", "200", "--seed", "0"]
CTRL = "{ctrl}"  # stands for the controller's path in a follow-up command
WRITE = "{write}"  # [WRITE, path, text]: write text to path, keeping its mtime
CEILING = "{ceiling}"  # [CEILING, value, *argv]: run argv under that state ceiling
CEILING_ENV = "HQSYNTH_STATE_CEILING"
XCHAIN = "X " * 60 + "i"
# spec -> ceilings.  The first refusal at each comes from the alphabet (3),
# the tableau memos (20), the induced MDP (8, synth only), the tableau
# automaton (40), the determinized automaton (62, 170), the product
# automaton or the evaluation product (220) or a linear system (300); 60,
# 200 and 500 answer.
CEILING_LINES = {"hard_drive": ("3", "20", "60"), "defect_output_sensitive": ("8",),
                 "gf2": ("170", "220", "300", "500"), "xchain": ("40", "62", "200")}
# spec -> a ceiling at which the `eval` and `simulate` of its controller are
# refused by the determinized automaton (xchain at 62) or by the evaluation
# product (gf2 at 220), where the default ceiling answers.
SERVED_LINES = {"xchain": "62", "gf2": "220"}
DEFAULT_CEILING = "1000000"  # hqsynth's default state ceiling
TREES = ("old", "new")
WORKER_TIMEOUT_S = 900


# --- the worker: one tree, in-process -------------------------------------


def worker(src: str):
    """Run the JSON list of command lines on stdin through `cli.main` of
    the tree at `src`; print the JSON list of their results."""
    sys.path.insert(0, os.path.abspath(src))
    import hqsynth.cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(hqsynth.cli.__file__)))
    if where != os.path.abspath(src):
        raise ImportError(f"hqsynth imported from {where}, not from {src}")
    results = []
    for argv in json.load(sys.stdin):
        if argv[0] == WRITE:
            rewrite(*argv[1:])
            results.append({"code": None, "out": "", "err": ""})
            continue
        before = os.environ.get(CEILING_ENV)
        if argv[0] == CEILING:
            os.environ[CEILING_ENV], argv = argv[1], argv[2:]
        out, err = io.StringIO(), io.StringIO()
        code = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hqsynth.cli.main(argv)
        except Exception:  # an exception escaping the CLI is an answer too
            err.write("traceback: " + traceback.format_exc().strip().splitlines()[-1])
        finally:
            if before is None:
                os.environ.pop(CEILING_ENV, None)
            else:
                os.environ[CEILING_ENV] = before
        results.append({"code": code, "out": out.getvalue(), "err": err.getvalue()})
    json.dump(results, sys.stdout)


def rewrite(path: str, text: str):
    """Write `text` to `path` in place; a file that was there keeps its
    modification time."""
    before = os.stat(path) if os.path.exists(path) else None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if before is not None:
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def run_tree(src: str, argvs: list) -> list:
    try:
        proc = subprocess.run([sys.executable, "-I", os.path.abspath(__file__), "--worker", src],
                              input=json.dumps(argvs), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker for {src} did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_both(srcs: dict, argvs: dict, rng=None) -> dict:
    """{tree: results of running argvs[tree] in tree}, the trees in parallel.
    Given `rng`, the new tree runs its command lines in an order drawn from
    it; the results come back in the order of `argvs`."""
    order = {t: list(range(len(argvs[t]))) for t in srcs}
    if rng is not None:
        rng.shuffle(order["new"])
    with concurrent.futures.ThreadPoolExecutor(len(srcs)) as pool:
        futures = {t: pool.submit(run_tree, srcs[t], [argvs[t][k] for k in order[t]])
                   for t in srcs}
        results = {}
        for t, f in futures.items():
            results[t] = [None] * len(order[t])
            for k, result in zip(order[t], f.result()):
                results[t][k] = result
        return results


# --- the cases ----------------------------------------------------------------


def input_cases() -> list:
    """(id, synth argv without --out, follow-up argvs) per bench/inputs spec
    and threshold."""
    cases = []
    for name in sorted(os.listdir(INPUTS)):
        path = os.path.join(INPUTS, name)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "formula" not in doc:
            continue  # a controller or the pins
        follow = [["eval", path, CTRL, "--mode", mode]
                  for mode in ("expected", "almost-sure", "worst-case")]
        follow.append(["simulate", path, CTRL] + SIMULATE)
        for t in THRESHOLDS:
            flags = [] if t is None else ["--threshold", t]
            cases.append((f"{name[:-5]}.synth{'' if t is None else '-' + t}",
                          ["synth", path] + flags, follow))
    return cases


def small_spec_cases(specdir: str) -> list:
    """The same, for the small-specs batches: spec files are written to
    `specdir`, and each spec's evaluations and simulate are the batch's."""
    sys.path.insert(0, BENCH)
    import workloads

    cases = []
    for seed, indices in SMALL_SPECS:
        seeddir = os.path.join(specdir, str(seed))
        os.makedirs(seeddir)
        for index in indices:
            batch = workloads.small_specs(seed, index, seeddir)
            for path, doc in batch.files.items():
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            follow: dict = {}
            for op in batch.ops:
                if op.after is not None:
                    follow.setdefault(op.after, []).append(op.argv)
            for op in batch.ops:
                if op.after is None:
                    ctrl = op.argv[op.argv.index("--out") + 1]
                    synth = [a for a in op.argv if a not in ("--out", ctrl)]
                    cases.append((f"s{seed}.{op.id}", synth,
                                  [[CTRL if a == ctrl else a for a in argv]
                                   for argv in follow.get(op.id, [])]))
    return cases


def _interleaved_process(rng) -> dict:
    """An input process over {a, c} as spec JSON: one state per input letter,
    its rows drawn per output letter over {b, d}."""
    letters = [[], ["a"], ["c"], ["a", "c"]]
    transitions = []
    for s in range(len(letters)):
        for o in ([], ["b"], ["d"], ["b", "d"]):
            weights = [rng.randint(0, 3) for _ in letters]
            weights[rng.randrange(len(letters))] += 1
            transitions += [{"from": s, "output": o, "to": t, "prob": f"{w}/{sum(weights)}"}
                            for t, w in enumerate(weights) if w]
    return {"inputs": ["a", "c"], "outputs": ["b", "d"], "initial": 0,
            "states": [{"id": s, "input": i} for s, i in enumerate(letters)],
            "transitions": transitions}


def interleaved_cases(specdir: str) -> list:
    """The same, for INTERLEAVED specs over inputs {a, c} and outputs {b, d}."""
    sys.path.insert(0, BENCH)
    import workloads

    rng = random.Random("interleaved")
    cases = []
    for k in range(INTERLEAVED):
        doc = {"inputs": ["a", "c"], "outputs": ["b", "d"],
               "formula": workloads.render(workloads.random_formula(
                   rng, ["a", "b", "c", "d"], rng.randint(3, 8)))}
        if k % 2:
            doc["distribution"] = _interleaved_process(rng)
        elif k % 4 == 0:
            doc["assumption"] = "a | X c"
        path = os.path.join(specdir, f"interleaved{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        modes = ("expected", "almost-sure", "worst-case") + \
            (("conditional",) if "assumption" in doc else ())
        follow = [["eval", path, CTRL, "--mode", mode] for mode in modes]
        follow.append(["simulate", path, CTRL] + SIMULATE)
        for t in (None, "1/2"):
            flags = [] if t is None else ["--threshold", t]
            cases.append((f"interleaved{k}.synth{'' if t is None else '-' + t}",
                          ["synth", path] + flags, follow))
    return cases


def _cell(rng, size: int) -> str:
    """`min`, `max` and `factor` over `size` literals on {a, b, c, d}."""
    if size <= 1:
        body = rng.choice(("", "!")) + rng.choice("abcd")
        return f"factor{{{rng.choice(LAMBDAS)}}} {body}" if rng.random() < 0.3 else body
    left = rng.randint(1, size - 1)
    return f"{rng.choice(('min', 'max'))}({_cell(rng, left)}, {_cell(rng, size - left)})"


def xwindow_formula(rng) -> str:
    """A message-shaped formula: one cell of literals seen through a window
    of two to four of X^0..X^3, the views combined by `wavg`, `min` and
    `max`."""
    cell = _cell(rng, rng.randint(2, 3))
    views = [("X (" * j) + cell + (")" * j)
             for j in sorted(rng.sample(range(4), rng.randint(2, 4)))]
    while len(views) > 1:
        j = rng.randrange(len(views) - 1)
        op = rng.choice(("wavg", "wavg", "min", "max"))
        lam = f"{{{rng.choice(LAMBDAS)}}}" if op == "wavg" else ""
        views[j:j + 2] = [f"{op}{lam}({views[j]}, {views[j + 1]})"]
    return views[0]


def battery_formula(rng) -> str:
    """A battery8-shaped formula: `G (l -> l')` for an output literal l and
    an input literal l', written `!(true U !max(!l, l'))`, and-ed with a
    `max` of a window of input literals against one of output literals and
    with a window of `factor`ed output literals, each window a `min` or
    `max` over X^1..X^k."""
    k = rng.randint(6, 8)
    inp, out = rng.choice("ac"), rng.choice("bd")

    def lit(atom):
        return rng.choice(("", "!")) + atom

    def window(body):
        views = [("X (" * i) + body(i) + (")" * i) for i in range(1, k + 1)]
        return f"{rng.choice(('min', 'max'))}({', '.join(views)})"

    lo, hi = lit(inp), lit(out)
    guard = f"!(true U !max({lit(out)}, {lit(inp)}))"
    seen = f"max(!{window(lambda i: lo)}, {window(lambda i: hi)})"
    paid = window(lambda i: f"max(!{out}, factor{{{Fraction(i, k)}}} {out})")
    return f"min({guard}, {seen}, {paid})"


def window_cases(specdir: str, name: str, count: int, formula) -> list:
    """The same, for `count` specs over inputs {a, c} and outputs {b, d}
    whose formulas `formula` draws from a generator seeded with `name`."""
    rng = random.Random(name)
    cases = []
    for k in range(count):
        doc = {"inputs": ["a", "c"], "outputs": ["b", "d"], "formula": formula(rng)}
        path = os.path.join(specdir, f"{name}{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        follow = [["eval", path, CTRL, "--mode", mode]
                  for mode in ("expected", "almost-sure", "worst-case")]
        follow.append(["simulate", path, CTRL] + SIMULATE)
        for t in (None, "1/2"):
            flags = [] if t is None else ["--threshold", t]
            cases.append((f"{name}{k}.synth{'' if t is None else '-' + t}",
                          ["synth", path] + flags, follow))
    return cases


def xchain_case(specdir: str) -> list:
    """The same, for the XCHAIN spec, written to `specdir`."""
    path = os.path.join(specdir, "xchain.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"inputs": ["i"], "outputs": ["o"], "formula": XCHAIN}, fh)
    follow = [["eval", path, CTRL, "--mode", mode]
              for mode in ("expected", "almost-sure", "worst-case")]
    follow.append(["simulate", path, CTRL] + SIMULATE)
    return [("xchain.synth", ["synth", path], follow)]


def usage_cases() -> list:
    """(id, argv, None) per USAGE command line: no `--out`, no follow-ups."""
    hd = os.path.join(INPUTS, "hard_drive.json")
    gf2, ctrl = os.path.join(INPUTS, "gf2.json"), os.path.join(INPUTS, "gf2_controller.json")
    argvs = {
        "unknown-subcommand": ["frobnicate", hd],
        "unknown-flag": ["synth", hd, "--no-such-flag"],
        "missing-positional": ["eval", gf2],
        "bad-mode": ["eval", gf2, ctrl, "--mode", "best-case"],
        "samples-0": ["simulate", gf2, ctrl, "--samples", "0"],
        "samples-x": ["simulate", gf2, ctrl, "--samples", "x"],
        "threshold-huge": ["synth", hd, "--threshold", "1e999999999"],
        "abbreviation": ["synth", hd, "--thr", "3/5"],
        "option-equals": ["synth", hd, "--threshold=3/5"],
        "option-first": ["synth", "--threshold", "3/5", hd],
        "negative-seed": ["simulate", gf2, ctrl, "--samples", "20", "--seed", "-1"],
        "help": ["--help"],
        "synth-help": ["synth", "--help"],
        "eval-help": ["eval", "--help"],
        "simulate-help": ["simulate", "--help"],
    }
    return [(f"usage.{name}", argv, None) for name, argv in argvs.items()]


def ceiling_lines(specdir: str, ctrl_of) -> list:
    """The CLI command lines of SERVED_LINES and CEILING_LINES, each spec's
    `eval` and `simulate` with the controller `ctrl_of(case id)` of its
    plain synth.  A spec not under bench/inputs is read from `specdir`."""
    def pair(name):
        spec = os.path.join(INPUTS, name + ".json")
        if not os.path.exists(spec):
            spec = os.path.join(specdir, name + ".json")
        return spec, ctrl_of(name + ".synth")

    lines = []
    for name, ceiling in SERVED_LINES.items():
        spec, ctrl = pair(name)
        for argv in (["eval", spec, ctrl, "--mode", "expected"],
                     ["simulate", spec, ctrl] + SIMULATE):
            lines += [[CEILING, DEFAULT_CEILING, *argv], [CEILING, ceiling, *argv]]
    for name, ceilings in CEILING_LINES.items():
        spec, ctrl = pair(name)
        argvs = [["synth", spec], ["synth", spec, "--threshold", "1/2"],
                 *(["eval", spec, ctrl, "--mode", mode] for mode in ("expected", "worst-case")),
                 ["simulate", spec, ctrl] + SIMULATE]
        lines += [[CEILING, c, *argv] for c in ceilings for argv in argvs]
    return lines


def rewrite_steps(treedir: str) -> list:
    """The REWRITE command lines of one tree, in its directory `treedir`."""
    sys.path.insert(0, BENCH)
    import workloads

    rng = random.Random("rewrite")
    texts = [json.dumps({"inputs": ["a", "c"], "outputs": ["b", "d"],
                         "formula": workloads.render(workloads.random_formula(
                             rng, ["a", "b", "c", "d"], rng.randint(3, 8)))})
             for _ in range(REWRITE)]
    texts.append(json.dumps({"inputs": ["a", "c"], "formula": "b"}))  # no outputs
    width = max(map(len, texts))
    texts = [text.ljust(width) for text in texts]
    spec, ctrl = os.path.join(treedir, "spec.json"), os.path.join(treedir, "ctrl.json")
    follow = [["eval", spec, ctrl, "--mode", mode]
              for mode in ("expected", "almost-sure", "worst-case")]
    follow.append(["simulate", spec, ctrl] + SIMULATE)
    steps = []
    for k, text in enumerate(texts + texts[:1]):
        steps += [[WRITE, spec, text], *follow]
        if k < REWRITE:
            steps += [["synth", spec, "--out", ctrl], *follow]
    return steps


def spread(cases: list, extra: list) -> list:
    """`cases` with `extra` inserted at even intervals, in order."""
    out, step = [], len(cases) / (len(extra) + 1)
    for k, case in enumerate(extra):
        out += cases[round(k * step):round((k + 1) * step)] + [case]
    return out + cases[round(len(extra) * step):]


# --- comparison -----------------------------------------------------------


def _report(text: str, ignore) -> list:
    return [line for line in text.splitlines()
            if line.partition(" = ")[0] not in ignore]


def compare(label: str, old: dict, new: dict, ignore) -> list:
    """The differences between two results of one command line."""
    out = []
    for what in ("code", "out", "err"):
        a, b = old[what], new[what]
        if what == "out":
            a, b = _report(a, ignore), _report(b, ignore)
        if a != b:
            out.append(f"{label}: {what} differs\n  old: {a!r}\n  new: {b!r}")
    return out


def sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def differential(srcs: dict, workdir: str, ignore, rng=None) -> tuple[int, list]:
    specdir = os.path.join(workdir, "specs")
    os.makedirs(specdir)
    cases = input_cases() + small_spec_cases(specdir) + interleaved_cases(specdir) + \
        window_cases(specdir, "xwindow", XWINDOW, xwindow_formula) + \
        window_cases(specdir, "battery", BATTERY, battery_formula) + xchain_case(specdir)
    cases = spread(cases, usage_cases())
    ctrl = {t: os.path.join(workdir, t) for t in TREES}
    for path in ctrl.values():
        os.makedirs(path)

    def ctrl_path(tree, case_id):
        return os.path.join(ctrl[tree], case_id.replace("/", "_") + ".ctrl.json")

    synth = run_both(srcs, {t: [argv if follow is None else argv + ["--out", ctrl_path(t, cid)]
                                for cid, argv, follow in cases] for t in TREES}, rng)
    diffs, compared = [], 0
    follow_up, labels = [], []
    for k, (cid, _, follow) in enumerate(cases):
        compared += 1
        diffs += compare(cid, synth["old"][k], synth["new"][k], ignore)
        if follow is None:
            continue
        shas = {t: sha256(ctrl_path(t, cid)) for t in TREES}
        if shas["old"] != shas["new"]:
            diffs.append(f"{cid}: controller differs\n  old: {shas['old']}\n"
                         f"  new: {shas['new']}")
        for t in TREES:
            if shas[t] is not None:
                for argv in follow:
                    follow_up.append([ctrl_path(t, cid) if a == CTRL else a for a in argv])
                    labels.append(f"{cid} {argv[0]} {' '.join(argv[3:])} on the {t} controller")
    evals = run_both(srcs, {t: follow_up for t in TREES}, rng)
    for label, a, b in zip(labels, evals["old"], evals["new"]):
        compared += 1
        diffs += compare(label, a, b, ignore)
    lines = ceiling_lines(specdir, lambda cid: ctrl_path("old", cid))
    ceilinged = run_both(srcs, {t: lines for t in TREES}, rng)
    for argv, a, b in zip(lines, ceilinged["old"], ceilinged["new"]):
        compared += 1
        diffs += compare(f"ceiling {argv[1]}: {' '.join(argv[2:])}", a, b, ignore)
    dirs = {t: os.path.join(workdir, "rewrite-" + t) for t in TREES}
    steps = {}
    for t, path in dirs.items():
        os.makedirs(path)
        steps[t] = rewrite_steps(path)
    rewrites = run_both(srcs, steps)
    for k, argv in enumerate(steps["old"]):
        if argv[0] != WRITE:
            compared += 1
            a, b = ({key: value.replace(dirs[t], "{dir}") if isinstance(value, str) else value
                     for key, value in rewrites[t][k].items()} for t in TREES)
            label = " ".join(argv).replace(dirs["old"], "{dir}")
            diffs += compare(f"rewrite step {k}: {label}", a, b, ignore)
    return compared, diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", help="src directory of the old tree")
    ap.add_argument("new_src", help="src directory of the new tree")
    ap.add_argument("--ignore", nargs="+", default=[], metavar="KEY",
                    help="report keys left out of the comparison")
    ap.add_argument("--shuffle", type=int, metavar="SEED",
                    help="run the new tree's command lines of each phase in an "
                         "order drawn from SEED")
    args = ap.parse_args(argv)
    srcs = {"old": args.old_src, "new": args.new_src}
    for src in srcs.values():
        if not os.path.isfile(os.path.join(src, "hqsynth", "cli.py")):
            print(f"error: no hqsynth sources at {src}", file=sys.stderr)
            return 2
    workdir = tempfile.mkdtemp(prefix="hqsynth-differential-")
    try:
        rng = None if args.shuffle is None else random.Random(args.shuffle)
        compared, diffs = differential(srcs, workdir, set(args.ignore), rng)
    finally:
        shutil.rmtree(workdir)
    for d in diffs:
        print(d)
    print(f"{compared} command lines compared, {len(diffs)} differences"
          + (f" (ignoring {', '.join(sorted(args.ignore))})" if args.ignore else "")
          + (f" (new tree shuffled with seed {args.shuffle})"
             if args.shuffle is not None else ""))
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
