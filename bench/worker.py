"""Benchmark worker: runs hqsynth command lines in-process, one at a time.

Started by run.py as `python3 -I bench/worker.py SRC_DIR [--trace]`.  It
speaks JSON lines on stdin/stdout:

    <- {"load": [paths]}        read the operation's input files
    -> {"ready": true}
    <- {"kernel": true}         time the reference kernel (bench/kernel.py)
    -> {"kernel_s": float}
    <- {"op": id, "argv": [...]}
    -> {"op": id, "code": int | null, "out": str, "err": str,
        "traceback": str | null, "latency_s": float, "rss_kb": int,
        "spans": [...]}         spans only when tracing
    <- EOF                      exit

The time from process start to "ready" is the set-up a command-line user
pays on every call: interpreter start, importing hqsynth, reading inputs.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_hqsynth(src):
    sys.path.insert(0, src)
    import hqsynth.cli

    where = os.path.dirname(os.path.abspath(hqsynth.cli.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"hqsynth imported from {where}, not from {src}")
    return hqsynth.cli


def main():
    src = sys.argv[1]
    tracing = "--trace" in sys.argv[2:]
    proto_in, proto_out = sys.stdin, sys.stdout
    cli = _import_hqsynth(src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import kernel

    tracer = None
    if tracing:
        import tracer as tracing_module

        tracer = tracing_module.Tracer()
        tracer.install()

    def send(doc):
        proto_out.write(json.dumps(doc) + "\n")
        proto_out.flush()

    for line in proto_in:
        msg = json.loads(line)
        if "load" in msg:
            for path in msg["load"]:
                with open(path, encoding="utf-8") as fh:
                    json.load(fh)
            send({"ready": True})
            continue
        if "kernel" in msg:
            send({"kernel_s": kernel.reference_kernel()})
            continue
        out, err = io.StringIO(), io.StringIO()
        code, tb = None, None
        if tracer is not None:
            tracer.begin_op(msg["op"])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(msg["argv"])
        except Exception:  # any exception escaping the CLI is a failed operation
            tb = traceback.format_exc()
        latency = time.perf_counter() - t0
        reply = {"op": msg["op"], "code": code, "out": out.getvalue(),
                 "err": err.getvalue(), "traceback": tb, "latency_s": latency,
                 "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            reply["spans"] = tracer.end_op()
        send(reply)


if __name__ == "__main__":
    main()
