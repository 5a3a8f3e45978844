"""The benchmark's workloads: each is a batch of hqsynth command lines.

Every operation is one `hqsynth` command line together with the reference
its answer is checked against.  All inputs come from this directory (the
committed files under `inputs/`, or specs generated here from the seed), so
editing the package's own tests cannot change what the benchmark runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
PINNED = os.path.join(INPUTS, "small_specs_pinned.json")

# The seed whose small-specs answers are pinned in PINNED, and a second
# seed kept out of tuning so that a claimed gain can be re-checked on it.
DEFAULT_SEED = 0
HOLDOUT_SEED = 104729

SIMULATE_SAMPLES = 200
SMALL_SPECS_PER_BATCH = 100

ANY_OUTCOME = (0, 2)  # a threshold may be met (0) or proven unrealizable (2)


@dataclass
class Op:
    """One hqsynth command line and what its answer must satisfy.

    `values` maps report keys to exact "num/den" references; `group` ties
    the operations on one spec together for the invariant checks; an op
    with `after` set runs only if that op exited 0 (it reads the controller
    the earlier op wrote)."""

    id: str
    argv: list
    codes: tuple = (0,)
    values: dict = field(default_factory=dict)
    group: str | None = None
    role: str = "synth"
    after: str | None = None


@dataclass
class Batch:
    """`fresh` = one new worker per operation (a CLI user's cold start);
    otherwise one long-lived worker runs the whole batch."""

    ops: list
    fresh: bool
    files: dict = field(default_factory=dict)  # relative path -> JSON doc


def _inp(name):
    return os.path.relpath(os.path.join(INPUTS, name))


def _role_of(argv):
    if argv[0] == "eval":
        return argv[argv.index("--mode") + 1] if "--mode" in argv else "expected"
    return argv[0]


_DASHED = {"worst_case": "worst-case", "almost_sure": "almost-sure"}


def _op(id, argv, codes=(0,), **values):
    """`values` are report keys, with worst_case and almost_sure standing
    for the eval report keys worst-case and almost-sure."""
    return Op(id, list(argv), codes, {_DASHED.get(k, k): v for k, v in values.items()},
              role=_role_of(argv))


def _simulate(id, spec, ctrl, rng, **values):
    return _op(id, ["simulate", spec, ctrl, "--samples", str(SIMULATE_SAMPLES),
                    "--seed", str(rng.randrange(1 << 30))], **values)


# --- scenarios: the paper's worked examples -------------------------------


def scenarios(seed: int) -> Batch:
    rng = random.Random(f"scenarios/{seed}")
    msg, msg_psi = _inp("message.json"), _inp("message_assume.json")
    hd, bat = _inp("hard_drive.json"), _inp("battery8.json")
    ops = [
        _op("hd.synth", ["synth", hd], expected="3/4"),
        _op("msg.synth", ["synth", msg], expected="3/4"),
        _op("msg.synth-3/8", ["synth", msg, "--threshold", "3/8"],
            expected="3/4", floor="3/4", threshold="3/8"),
        _op("msg.synth-assume", ["synth", msg_psi],
            expected="13/16", assumption_probability="1/4"),
        _op("msg.synth-assume-1/2", ["synth", msg_psi, "--threshold", "1/2"],
            expected="13/16", floor="3/4", threshold="1/2",
            assumption_probability="1/4"),
        _op("msg.worst-case", ["eval", msg, _inp("encode_always.json"),
                               "--mode", "worst-case"], worst_case="3/4"),
        # battery_closed_form(k=8, t=2, p=1/2)
        _op("battery.expected", ["eval", bat, _inp("battery_2_8.json")],
            expected="189/512"),
        _simulate("battery.simulate", bat, _inp("battery_2_8.json"), rng,
                  exact="189/512"),
        _op("hd.synth-3/5", ["synth", hd, "--threshold", "3/5"], codes=(2,),
            threshold="3/5"),
    ]
    rng.shuffle(ops)
    return Batch(ops, fresh=True)


# --- large-mdp: exact linear algebra over 80-242 state MDPs and chains ----


def large_mdp(seed: int) -> Batch:
    rng = random.Random(f"large-mdp/{seed}")
    gf2, ctrl = _inp("gf2.json"), _inp("gf2_controller.json")
    ops = [
        _op("gf2.synth", ["synth", gf2], expected="1"),
        _op("gf2.synth-sticky", ["synth", _inp("gf2_sticky.json")], expected="1"),
        _op("until-factor.synth", ["synth", _inp("until_factor.json")],
            expected="13/18"),
        _op("until-o.synth", ["synth", _inp("until_o.json")], expected="1"),
        _op("gf2.expected", ["eval", gf2, ctrl], expected="1"),
        _op("gf2.almost-sure", ["eval", gf2, ctrl, "--mode", "almost-sure"],
            almost_sure="1"),
        _op("gf2.worst-case", ["eval", gf2, ctrl, "--mode", "worst-case"],
            worst_case="0"),
        _simulate("gf2.simulate", gf2, ctrl, rng, exact="1"),
    ]
    for op in ops[4:]:
        op.group = "gf2"
    rng.shuffle(ops)
    return Batch(ops, fresh=True)


# --- small-specs: a seeded sweep of small random specs --------------------

_LAMBDAS = ["1/2", "1/3", "2/3", "1/4", "3/4"]
_THRESHOLDS = ["1/4", "1/2", "3/4"]
INPUT_ATOMS = ["i0", "i1"]
ALL_ATOMS = ["i0", "i1", "o"]
VARIANTS = ["plain", "threshold", "assumption", "assumption-threshold",
            "hard-constraint", "input-process"]


def random_formula(rng, atoms, size, boolean=False, until=True):
    """A formula tree with `size` nodes, with the same operator mix as the
    package's random-formula test oracle, except that no until nests in
    another: nested untils are the slow family (one of 5 nodes took 80 s),
    which large-mdp covers.  Trees are nested tuples (operator, lambda or
    None, children...) and atoms are strings."""
    atoms = sorted(atoms)
    if size <= 1:
        roll = rng.random()
        if roll < 0.8 and atoms:
            return rng.choice(atoms)
        return "true" if roll < 0.9 else "false"
    unary = ["not", "next"] if boolean else ["not", "next", "factor"]
    binary = ["min", "max"] + (["until"] if until else [])
    if not boolean:
        binary.append("wavg")
    op = rng.choice(unary) if size == 2 else rng.choice(unary + binary * 2)
    if op in ("not", "next", "factor"):
        child = random_formula(rng, atoms, size - 1, boolean, until)
        lam = rng.choice(_LAMBDAS) if op == "factor" else None
        return (op, lam, child)
    left_size = rng.randint(1, size - 2)
    until = until and op != "until"
    left = random_formula(rng, atoms, left_size, boolean, until)
    right = random_formula(rng, atoms, size - 1 - left_size, boolean, until)
    lam = rng.choice(_LAMBDAS) if op == "wavg" else None
    return (op, lam, left, right)


def render(tree) -> str:
    """hqsynth formula syntax, fully parenthesized."""
    if isinstance(tree, str):
        return tree
    op, lam, *kids = tree
    a = [render(k) for k in kids]
    return {
        "not": lambda: f"!({a[0]})",
        "next": lambda: f"X ({a[0]})",
        "factor": lambda: f"factor{{{lam}}} ({a[0]})",
        "until": lambda: f"(({a[0]}) U ({a[1]}))",
        "wavg": lambda: f"wavg{{{lam}}}({a[0]}, {a[1]})",
        "min": lambda: f"min({a[0]}, {a[1]})",
        "max": lambda: f"max({a[0]}, {a[1]})",
    }[op]()


def _holds(tree, word, j=0) -> bool:
    """Truth of an until-free Boolean tree at position j of a finite word
    (a list of sets of atoms) that is long enough for its X depth."""
    if tree in ("true", "false"):
        return tree == "true"
    if isinstance(tree, str):
        return tree in word[j]
    op, _, *kids = tree
    if op == "not":
        return not _holds(kids[0], word, j)
    if op == "next":
        return _holds(kids[0], word, j + 1)
    parts = (_holds(k, word, j) for k in kids)
    return all(parts) if op == "min" else any(parts)


def satisfiable(tree, atoms, depth) -> bool:
    """Whether some input word satisfies the until-free tree of X depth at
    most `depth`; under uniform inputs that means positive probability."""
    letters = [frozenset(a for k, a in enumerate(atoms) if m >> k & 1)
               for m in range(1 << len(atoms))]
    return any(_holds(tree, list(w))
               for w in itertools.product(letters, repeat=depth + 1))


def random_process(rng):
    """A trackable 4-state input process over i0, i1 (one state per input
    letter).  Its rows do not depend on the output letter: with rows that
    do, synthesis at this commit often fails (see KNOWN_DEFECTS)."""
    letters = [[], ["i0"], ["i1"], ["i0", "i1"]]
    transitions = []
    for s in range(4):
        weights = [rng.randint(0, 3) for _ in range(4)]
        if not any(weights):
            weights[rng.randrange(4)] = 1
        total = sum(weights)
        for out in ([], ["o"]):
            for t, w in enumerate(weights):
                if w:
                    transitions.append({"from": s, "output": out, "to": t,
                                        "prob": str(Fraction(w, total))})
    return {"inputs": INPUT_ATOMS, "outputs": ["o"],
            "states": [{"id": s, "input": letters[s]} for s in range(4)],
            "initial": rng.randrange(4), "transitions": transitions}


def random_spec(rng, variant):
    doc = {"inputs": INPUT_ATOMS, "outputs": ["o"],
           "formula": render(random_formula(rng, ALL_ATOMS, rng.randint(3, 6)))}
    if variant in ("threshold", "assumption-threshold"):
        doc["threshold"] = rng.choice(_THRESHOLDS)
    if variant in ("assumption", "assumption-threshold"):
        while True:
            size = rng.randint(2, 4)
            psi = random_formula(rng, INPUT_ATOMS, size, boolean=True, until=False)
            if satisfiable(psi, INPUT_ATOMS, size):
                break
        doc["assumption"] = render(psi)
    if variant == "hard-constraint":
        # until-free: a hard constraint with until can make synthesis raise
        # at this commit (see KNOWN_DEFECTS)
        doc["threshold"] = "1"
        doc["hard_constraint"] = render(random_formula(rng, ALL_ATOMS, rng.randint(2, 3),
                                                       boolean=True, until=False))
    if variant == "input-process":
        doc["distribution"] = random_process(rng)
    return doc


def small_specs(seed: int, index: int, workdir: str) -> Batch:
    """Batch `index` of the sweep: SMALL_SPECS_PER_BATCH new specs, five
    operations each (synth --out, three exact evaluations of the controller
    it wrote, and simulate), all in one long-lived worker."""
    rng = random.Random(f"small-specs/{seed}/{index}")
    ops, files = [], {}
    for k in range(SMALL_SPECS_PER_BATCH):
        variant = VARIANTS[k % len(VARIANTS)]
        doc = random_spec(rng, variant)
        name = f"b{index}s{k:03d}"
        spec = os.path.join(workdir, f"{name}.json")
        ctrl = os.path.join(workdir, f"{name}.ctrl.json")
        files[spec] = doc
        synth = _op(f"{name}.synth", ["synth", spec, "--out", ctrl],
                    codes=ANY_OUTCOME if "threshold" in doc else (0,))
        group = [synth]
        for mode in ("expected", "almost-sure", "worst-case"):
            group.append(_op(f"{name}.{mode}", ["eval", spec, ctrl, "--mode", mode]))
        group.append(_simulate(f"{name}.simulate", spec, ctrl, rng))
        for op in group:
            op.group = f"{name}:{variant}"
        for op in group[1:]:
            op.after = synth.id
        ops.extend(group)
    if seed == DEFAULT_SEED:
        _apply_pins(index, ops, files)
    return Batch(ops, fresh=False, files=files)


def specs_digest(files: dict) -> str:
    docs = [files[p] for p in sorted(files)]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def _apply_pins(index, ops, files):
    """Exit codes and exact values recorded for the first batches of the
    default seed.  Operations that failed when the pins were taken have
    none and keep their generic reference."""
    if not os.path.exists(PINNED):
        return
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    if index >= len(pinned["batches"]):
        return
    batch = pinned["batches"][index]
    if batch["digest"] != specs_digest(files):
        raise RuntimeError(f"{PINNED} does not match the small-specs generator")
    for op in ops:
        ref = batch["ops"].get(op.id)
        if ref is not None:
            op.codes = (ref["code"],)
            op.values = ref["values"]


# --- known defects --------------------------------------------------------

# Spec variants that small-specs leaves out because hqsynth answers them
# wrongly at this commit.  One reproduction of each runs after every
# small-specs run, outside its timing and its result; the diagnostics line
# says whether it still fails.  Once hqsynth is fixed, the variant belongs
# back in the generator.
KNOWN_DEFECTS = [
    # the README supports output-sensitive input processes for synthesis,
    # but synth extracts a controller whose successors do not share a label
    # and exits 1 (about half of such specs)
    _op("defect.output-sensitive-process",
        ["synth", _inp("defect_output_sensitive.json")]),
    # InternalConsistencyError: almost-sure floor 0 fails the threshold 1
    # (about 1 in 1500 specs with an until in the hard constraint)
    _op("defect.hard-constraint-until",
        ["synth", _inp("defect_hard_constraint.json")], codes=ANY_OUTCOME),
]


def batch_for(workload: str, seed: int, index: int, workdir: str) -> Batch:
    """The batch a run executes `index`-th.  scenarios and large-mdp repeat
    one fixed batch; small-specs draws new specs for every batch."""
    if workload == "scenarios":
        return scenarios(seed)
    if workload == "large-mdp":
        return large_mdp(seed)
    return small_specs(seed, index, workdir)


WORKLOADS = ("scenarios", "large-mdp", "small-specs")
