"""Record the small-specs answers of the default seed as references.

    python3 bench/pin.py

Run from the root of a checkout.  Runs the first PINNED_BATCHES batches of
small-specs for the default seed once and writes, for every operation that
passed its generic checks, its exit code and exact values to
bench/inputs/small_specs_pinned.json.  Operations that failed get no pin,
so they keep failing until the program is fixed.
"""

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PINNED_BATCHES = 4


def main():
    if os.path.exists(workloads.PINNED):
        os.remove(workloads.PINNED)
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = os.path.relpath(tempfile.mkdtemp(prefix="pin-", dir=run.WORK_ROOT))
    batches = []
    try:
        with open(os.path.join(workdir, "worker.err"), "w") as errlog:
            for index in range(PINNED_BATCHES):
                batch = workloads.small_specs(workloads.DEFAULT_SEED, index, workdir)
                for path, doc in batch.files.items():
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                r = run.run_batch(batch, False, errlog, float("inf"))
                failures = check.check_batch(batch.ops, r.replies)
                pins = {op.id: {"code": r.replies[op.id]["code"],
                                "values": check.exact_values(
                                    check.parse_report(r.replies[op.id]["out"]))}
                        for op in batch.ops
                        if op.id in r.replies and op.id not in failures}
                batches.append({"digest": workloads.specs_digest(batch.files), "ops": pins})
                print(f"batch {index}: {len(pins)} pinned, {len(failures)} failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.PINNED, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "batches": batches}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
