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
* for every controller either tree wrote: `eval` in the modes expected,
  almost-sure and worst-case, and `simulate`.  Each tree evaluates the
  controllers of both trees.

Exit codes, standard output, standard error and the sha256 of every written
controller are compared.  Report lines `key = value` whose key is named by
`--ignore` are left out of the comparison.  With `--shuffle SEED`, the new
tree runs the command lines of each phase (synth, then the follow-ups) in
a permutation drawn from SEED, and its results are put back in order before
the comparison: output that depends on what ran before in the same process
(a cache, a memo) shows up as a difference.  Every difference is printed;
the exit code is 1 if there is any, else 0.  Standard library only.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
INPUTS = os.path.join(BENCH, "inputs")
THRESHOLDS = (None, "1/2", "3/4")
SMALL_SPECS = ((0, range(4)), (104729, range(2)))
INTERLEAVED = 20
SIMULATE = ["--samples", "200", "--seed", "0"]
CTRL = "{ctrl}"  # stands for the controller's path in a follow-up command
TREES = ("old", "new")


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
        out, err = io.StringIO(), io.StringIO()
        code = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hqsynth.cli.main(argv)
        except Exception:  # an exception escaping the CLI is an answer too
            err.write("traceback: " + traceback.format_exc().strip().splitlines()[-1])
        results.append({"code": code, "out": out.getvalue(), "err": err.getvalue()})
    json.dump(results, sys.stdout)


def run_tree(src: str, argvs: list) -> list:
    proc = subprocess.run([sys.executable, "-I", os.path.abspath(__file__), "--worker", src],
                          input=json.dumps(argvs), capture_output=True, text=True)
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
    cases = input_cases() + small_spec_cases(specdir) + interleaved_cases(specdir)
    ctrl = {t: os.path.join(workdir, t) for t in TREES}
    for path in ctrl.values():
        os.makedirs(path)

    def ctrl_path(tree, case_id):
        return os.path.join(ctrl[tree], case_id.replace("/", "_") + ".ctrl.json")

    synth = run_both(srcs, {t: [argv + ["--out", ctrl_path(t, cid)]
                                for cid, argv, _ in cases] for t in TREES}, rng)
    diffs, compared = [], 0
    follow_up, labels = [], []
    for k, (cid, _, follow) in enumerate(cases):
        compared += 1
        diffs += compare(cid, synth["old"][k], synth["new"][k], ignore)
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
