"""Per-layer spans recorded from outside hqsynth.

`Tracer.install()` replaces the listed public functions of hqsynth, in
every hqsynth module namespace that binds them, with wrappers that record
a span per call: name, start, end, parent span, operation id, and a size
(states or unknowns) where the layer has one.  `ProductPreAutomaton` is
wrapped through its constructor.  Spans stay in memory; `layer_metrics`
turns them into self times, counts and ratios.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import sys
import time


# (module, attribute) -> (span name, size of the call or None)
TRACED = {
    ("booleanize", "booleanize"): ("booleanize.booleanize", None),
    ("automata", "ltl_to_nbw"): ("automata.ltl_to_nbw", lambda a, r: len(r)),
    ("automata", "determinize"): ("automata.determinize", lambda a, r: r.n_states),
    ("automata", "dpw_for"): ("automata.dpw_for", None),
    ("automata", "dpw_nonempty_from"): ("automata.emptiness", None),
    ("formulas", "values"): ("formulas.values", lambda a, r: len(r)),
    ("mdp", "solve_linear_system"): ("mdp.linsolve", lambda a, r: len(a[0])),
    ("mdp", "mc_ergodic_analysis"): ("mdp.ergodic", lambda a, r: a[0].n),
    ("mdp", "induced_pre_mdp"): ("mdp.induced", lambda a, r: r.n),
    ("mdp", "induced_pre_mdp_dist"): ("mdp.induced", lambda a, r: r.n),
    ("mdp", "max_end_components"): ("mdp.mec", None),
    ("mdp", "almost_sure_parity"): ("mdp.parity", None),
    ("mdp", "solve_mean_payoff"): ("mdp.mean_payoff", None),
    ("synthesis", "synthesize"): (
        "synthesis", lambda a, r: len(r.transducer) if hasattr(r, "transducer") else 0),
    ("evaluation", "expected_value"): ("evaluation.exact", None),
    ("evaluation", "almost_sure_value"): ("evaluation.exact", None),
    ("evaluation", "conditional_expected_value"): ("evaluation.exact", None),
    ("evaluation", "conditional_almost_sure_floor"): ("evaluation.exact", None),
    ("evaluation", "product_chain"): ("evaluation.product_chain", lambda a, r: r.n),
    ("evaluation", "worst_case_witness"): ("evaluation.worst_case", None),
    ("evaluation", "simulate"): ("evaluation.simulate", None),
    ("transducers", "load_transducer"): ("transducers.io", None),
    ("transducers", "save_transducer"): ("transducers.io", None),
    ("cli", "main"): ("cli", None),
}

# span fields
NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None

    def begin_op(self, op_id):
        self.spans, self.stack, self.op = [], [], op_id

    def end_op(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                   tracer.op, 0]
            tracer.stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()
            if size is not None:
                rec[SIZE] = size(args, result)
            return result

        return traced

    def install(self):
        import hqsynth.automata
        import hqsynth.cli  # noqa: F401 - imports every traced module

        modules = [m for name, m in list(sys.modules.items())
                   if name == "hqsynth" or name.startswith("hqsynth.")]
        wrappers = {}
        for (mod, attr), (name, size) in TRACED.items():
            fn = getattr(sys.modules[f"hqsynth.{mod}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(fn, name, size))
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, hit[1])
        cls = hqsynth.automata.ProductPreAutomaton
        cls.__init__ = self._wrap(cls.__init__, "automata.product",
                                  lambda a, r: len(a[0]))


# --- derived metrics ---------------------------------------------------------

AUTOMATA = ("automata.ltl_to_nbw", "booleanize.booleanize", "automata.determinize")
LINALG = ("mdp.linsolve", "mdp.ergodic")

SELF_TIMES = {
    "automata.ltl_to_nbw_s": "automata.ltl_to_nbw",
    "booleanize.booleanize_s": "booleanize.booleanize",
    "automata.determinize_s": "automata.determinize",
    "automata.emptiness_s": "automata.emptiness",
    "mdp.linsolve_s": "mdp.linsolve",
    "mdp.ergodic_s": "mdp.ergodic",
    "mdp.induced_s": "mdp.induced",
    "mdp.mec_s": "mdp.mec",
    "mdp.parity_s": "mdp.parity",
    "mdp.mean_payoff_s": "mdp.mean_payoff",
    "synthesis.self_s": "synthesis",
    "evaluation.product_chain_s": "evaluation.product_chain",
    "evaluation.worst_case_s": "evaluation.worst_case",
    "evaluation.simulate_s": "evaluation.simulate",
    "cli.self_s": "cli",
    "transducers.io_s": "transducers.io",
}
SIZES = {
    "automata.nbw_states": "automata.ltl_to_nbw",
    "automata.dpw_states": "automata.determinize",
    "automata.product_states": "automata.product",
    "mdp.linsolve_unknowns": "mdp.linsolve",
    "mdp.ergodic_chain_states": "mdp.ergodic",
    "mdp.induced_states": "mdp.induced",
    "synthesis.transducer_states": "synthesis",
    "evaluation.product_chain_states": "evaluation.product_chain",
}
CALLS = {
    "automata.dpw_for_calls": "automata.dpw_for",
    "formulas.values_calls": "formulas.values",
    "mdp.linsolve_calls": "mdp.linsolve",
}


def layer_metrics(op_spans: list, batches: int):
    """(per-layer metrics, layer shares of operation time).

    Metrics are per-batch totals over the spans of every traced operation;
    `op_spans` holds one span list per operation, whose parents index into
    the same list.  A self time is a span's duration minus its children's.
    The shares are of the time inside `hqsynth.cli.main`."""
    self_s, size, calls = {}, {}, {}
    max_unknowns = 0
    dpw_calls = dpw_builds = candidates = kept = 0
    certify = op_time = 0.0
    for spans in op_spans:
        child_time = [0.0] * len(spans)
        has_child = [False] * len(spans)
        for rec in spans:
            if rec[PARENT] is not None:
                child_time[rec[PARENT]] += rec[END] - rec[START]
                has_child[rec[PARENT]] = True
        for k, rec in enumerate(spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            self_s[name] = self_s.get(name, 0.0) + dur - child_time[k]
            size[name] = size.get(name, 0) + rec[SIZE]
            calls[name] = calls.get(name, 0) + 1
            parent = spans[rec[PARENT]] if rec[PARENT] is not None else None
            if name == "cli":
                op_time += dur
            elif name == "mdp.linsolve":
                max_unknowns = max(max_unknowns, rec[SIZE])
            elif name == "automata.dpw_for":
                dpw_calls += 1
                dpw_builds += has_child[k]
                if parent is not None and parent[NAME] == "formulas.values":
                    candidates += 1
            elif name == "formulas.values":
                kept += rec[SIZE]
            elif name == "evaluation.exact" and parent is not None \
                    and parent[NAME] == "synthesis":
                certify += dur
    out = {m: self_s.get(n, 0.0) / batches for m, n in SELF_TIMES.items()}
    out.update({m: size.get(n, 0) / batches for m, n in SIZES.items()})
    out.update({m: calls.get(n, 0) / batches for m, n in CALLS.items()})
    out["mdp.linsolve_max_unknowns"] = max_unknowns
    out["synthesis.certify_s"] = certify / batches
    out["automata.dpw_cache_hit_ratio"] = 1 - dpw_builds / dpw_calls if dpw_calls else 0.0
    out["formulas.values_kept_ratio"] = kept / candidates if candidates else 0.0
    shares = {"automata": sum(self_s.get(n, 0.0) for n in AUTOMATA) / op_time,
              "linsolve+ergodic": sum(self_s.get(n, 0.0) for n in LINALG) / op_time}
    return out, shares
