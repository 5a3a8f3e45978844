"""hqsynth benchmark: time to an exact, checked answer from the command line.

    python3 bench/run.py --workload {scenarios,large-mdp,small-specs}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every operation is one `hqsynth` command
line, run in-process through `hqsynth.cli.main(argv)` inside a worker
process (bench/worker.py) that imports hqsynth from ./src.  One client runs
one operation at a time in a closed loop, like a user waiting on each
answer; with run.py and one worker at most two processes are busy.

The workload's batch (bench/workloads.py) is repeated until S seconds are
used, and every answer is checked against its reference (bench/check.py).
With --trace 0 the last line holds the end-to-end metrics; with --trace 1
untraced and traced batches alternate, and it holds the per-layer metrics
derived from spans recorded from outside the program (bench/tracer.py).
The spans are written to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import kernel  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SRC = "src"
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = ".bench_work"
OUT_DIR = ".bench_out"
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # stop starting operations after this long
# A long-lived worker gives one set-up sample per batch, too few for a
# steady median; that many spare workers are started and closed before it.
SPARE_STARTS = 3


# --- workers -----------------------------------------------------------------


class WorkerDied(Exception):
    pass


class Worker:
    """One worker process; its start-up to "ready" is one set-up sample."""

    def __init__(self, trace: bool, load: list, errlog, deadline: float):
        t0 = time.perf_counter()
        cmd = [sys.executable, "-I", WORKER, os.path.abspath(SRC)]
        if trace:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=errlog, text=True)
        self.deadline = deadline
        self.request({"load": load})
        self.setup_s = time.perf_counter() - t0

    def request(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
            timeout = max(0.0, min(OP_TIMEOUT_S, self.deadline - time.monotonic()))
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            if not ready:
                raise WorkerDied(f"no answer within {timeout:.0f} s")
            line = self.proc.stdout.readline()
            if not line:
                raise WorkerDied(f"worker exited with code {self.proc.wait()}")
        except BrokenPipeError:
            self.close(kill=True)
            raise WorkerDied(f"worker exited with code {self.proc.returncode}") from None
        except WorkerDied:
            self.close(kill=True)
            raise
        return json.loads(line)

    def kernel(self) -> float:
        return self.request({"kernel": True})["kernel_s"]

    def close(self, kill=False):
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


def _input_files(op) -> list:
    return [a for a in op.argv if a.endswith(".json") and os.path.exists(a)]


@dataclass
class Timed:
    """Timings of one operation.  `segment` is the batch wall time charged
    to it: starting its worker, if it needed one, plus the request round
    trip.  `setups` are the cold starts of the workers started for it
    (spares included).  `sample` indexes the last kernel sample taken
    before it."""

    latency: float
    segment: float
    setups: list
    sample: int


class BatchRun:
    def __init__(self):
        self.replies: dict = {}
        self.timed: list = []
        self.kernels: list = []  # reference kernel samples taken in workers
        self.rss_kb = 0
        self.spans: list = []

    def scales(self) -> list:
        """Per operation, the factor to the reference machine, from the
        kernel samples taken just before and just after it."""
        out = []
        for t in self.timed:
            around = self.kernels[t.sample:t.sample + 2]
            out.append(kernel.REFERENCE_S / (sum(around) / len(around)))
        return out

    def latencies(self) -> list:
        return [t.latency * k for t, k in zip(self.timed, self.scales())]

    def wall_s(self, scaled=True) -> float:
        scales = self.scales() if scaled else [1.0] * len(self.timed)
        return sum(t.segment * k for t, k in zip(self.timed, scales))


def run_batch(batch, trace: bool, errlog, deadline: float) -> BatchRun:
    """Run every operation of the batch once, in order, one at a time.

    The reference kernel runs before the batch's first operation, before
    any operation that follows SAMPLE_EVERY_S of operation time, and in
    every worker before it is closed, so each operation lies between two
    kernel samples."""
    res = BatchRun()
    worker = None
    since_sample = float("inf")
    try:
        for op in batch.ops:
            if time.monotonic() > deadline:
                break
            dep = res.replies.get(op.after) if op.after else None
            if op.after and (dep is None or dep.get("code") != 0):
                continue
            try:
                setups = []
                if worker is None and not batch.fresh:
                    for _ in range(SPARE_STARTS):
                        spare = Worker(trace, _input_files(op), errlog, deadline)
                        setups.append(spare.setup_s)
                        spare.close()
                t0 = time.perf_counter()
                if worker is None:
                    worker = Worker(trace, _input_files(op), errlog, deadline)
                    setups.append(worker.setup_s)
                t1 = time.perf_counter()
                if since_sample >= kernel.SAMPLE_EVERY_S:
                    res.kernels.append(worker.kernel())
                    since_sample = 0.0
                t2 = time.perf_counter()
                reply = worker.request({"op": op.id, "argv": op.argv})
                t3 = time.perf_counter()
                sample = len(res.kernels) - 1
                if batch.fresh:
                    res.kernels.append(worker.kernel())
                    since_sample = 0.0
                    worker.close()
                    worker = None
            except WorkerDied as exc:
                res.replies[op.id] = {"error": str(exc)}
                worker = None
                continue
            res.replies[op.id] = reply
            since_sample += reply["latency_s"]
            res.timed.append(Timed(reply["latency_s"], (t1 - t0) + (t3 - t2), setups, sample))
            res.rss_kb = max(res.rss_kb, reply["rss_kb"])
            if trace:
                res.spans.append(reply["spans"])
    finally:
        if worker is not None:
            try:
                res.kernels.append(worker.kernel())
            except WorkerDied:
                pass
            worker.close()
    return res


# --- one run ------------------------------------------------------------------


def band_mean(xs, lo, hi):
    """Mean of the values ranked between the lo and hi quantiles: a
    percentile smoothed over its neighbours."""
    xs = sorted(xs)
    a = int(lo * len(xs))
    return statistics.mean(xs[a:max(int(hi * len(xs)), a + 1)])


def end_to_end(runs) -> dict:
    """Medians over the run's batches and set-ups, latency percentiles over
    its operations.  Times are scaled to the reference machine operation by
    operation."""
    setups = [s * k for r in runs for t, k in zip(r.timed, r.scales()) for s in t.setups]
    lat = [x for r in runs for x in r.latencies()]
    # scenarios and large-mdp repeat 8-9 operations of very different
    # costs, 3-5 times a run: a plain percentile is one sample at the edge
    # of one operation's spread of times, a band mean averages several
    return {
        "wall_s": (statistics.median(r.wall_s() for r in runs), "s"),
        "op_p50_s": (band_mean(lat, 0.4, 0.6), "s"),
        "op_p90_s": (band_mean(lat, 0.85, 0.95), "s"),
        "setup_s": (statistics.median(setups), "s"),
        # a batch's peak is its largest worker; small-specs draws new specs
        # every batch, so the median keeps one rare large spec out
        "peak_rss_mb": (statistics.median(r.rss_kb for r in runs) / 1024, "MB"),
    }


UNITS = {"_s": "s", "_states": "count", "_calls": "count", "_unknowns": "count",
         "_ratio": "ratio"}


def per_layer(traced, plain):
    """(per-layer metrics with units, layer shares of operation time)."""
    metrics, shares = tracer.layer_metrics([s for r in traced for s in r.spans],
                                           len(traced))
    scale = statistics.median(k for r in traced for k in r.scales())
    metrics = {k: v * scale if k.endswith("_s") else v for k, v in metrics.items()}
    metrics["bench.trace_overhead_ratio"] = (statistics.median(r.wall_s() for r in traced)
                                             / statistics.median(r.wall_s() for r in plain))
    out = {}
    for name, value in metrics.items():
        unit = next(u for suffix, u in UNITS.items() if name.endswith(suffix))
        out[name] = (value, unit)
    return out, shares


def write_spans(workload, seed, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "fields": ["name", "start", "end", "parent", "op", "size"]})
                 + "\n")
        for r in traced:
            for spans in r.spans:
                fh.write(json.dumps(spans) + "\n")
    return path


def keep_failed_inputs(workload, batches, failures):
    """Copy the spec files of failed operations to .bench_out/ so they can
    be re-run by hand; the work directory itself is always removed."""
    out = os.path.join(OUT_DIR, f"failed-{workload}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    ops = {(k, op.id): op for k, b in enumerate(batches) for op in b.ops}
    for index, op_id, _ in failures:
        for path in _input_files(ops[index, op_id]):
            shutil.copy(path, out)
    return out


def known_defects(errlog) -> dict:
    """For each reproduction in workloads.KNOWN_DEFECTS, why it still fails,
    or "passes now".  A diagnostic: it is not timed and not in the result."""
    ops = workloads.KNOWN_DEFECTS
    r = run_batch(workloads.Batch(ops, fresh=True), False, errlog,
                  time.monotonic() + OP_TIMEOUT_S)
    failures = check.check_batch(ops, r.replies)
    return {op.id: failures.get(op.id, "passes now") for op in ops}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    kernel_start = kernel.reference_kernel()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    batches, plain, traced, failures = [], [], [], []  # failures: (batch, op, reason)
    attempted = 0
    try:
        with open(os.path.join(workdir, "worker.err"), "w") as errlog:
            while True:
                index = len(batches)
                batch = workloads.batch_for(workload, seed, index, os.path.relpath(workdir))
                batches.append(batch)
                for path, doc in batch.files.items():
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh, indent=1)
                for tracing in ((False, True) if trace else (False,)):
                    r = run_batch(batch, tracing, errlog, deadline)
                    (traced if tracing else plain).append(r)
                    attempted += len(r.replies)
                    failures += [(index, op_id, reason) for op_id, reason in
                                 check.check_batch(batch.ops, r.replies).items()]
                # go on while the next batch should end within half a batch
                # of the run's length, so that runs last `seconds` on average
                elapsed = time.monotonic() - start
                if elapsed * (1 + 0.5 / len(plain)) > seconds or time.monotonic() > deadline:
                    break
            defects = known_defects(errlog) if workload == "small-specs" else None
        if not all(r.timed for r in plain + traced):
            raise RuntimeError("a batch completed no operation; see "
                               + os.path.join(workdir, "worker.err"))
        failed_inputs = keep_failed_inputs(workload, batches, failures) if failures else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, shares = per_layer(traced, plain) if trace else (end_to_end(plain), None)
    lat = [x for r in plain for x in r.latencies()]
    diagnostics = {
        "workload": workload, "seed": seed, "holdout_seed": workloads.HOLDOUT_SEED,
        "batch_walls_s": [r.wall_s() for r in plain],
        "unscaled_batch_walls_s": [r.wall_s(scaled=False) for r in plain],
        "unscaled_traced_walls_s": [r.wall_s(scaled=False) for r in traced],
        "median_scale": statistics.median(k for r in plain for k in r.scales()),
        "ops_timed": len(lat),
        "ops_beyond_p90": None if trace else sum(x > metrics["op_p90_s"][0] for x in lat),
        "fail_ratio": len(failures) / attempted,
        "failures": [f"batch {k} {op_id}: {why}" for k, op_id, why in failures[:20]],
        "failed_inputs": failed_inputs,
        "known_defects": defects,
        "kernel_start_s": kernel_start, "kernel_end_s": kernel.reference_kernel(),
        "layer_shares": shares,
        "spans": write_spans(workload, seed, traced) if trace else None,
    }
    print("diagnostics " + json.dumps(diagnostics))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hqsynth", "cli.py")):
        print(f"error: no hqsynth sources at {os.path.abspath(SRC)}; "
              "run from the root of a checkout", file=sys.stderr)
        return 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
