"""Generate one workload's inputs, timing the package import with it.

    python3 bench/setup_inputs.py --workload index --seed 1 --out DIR [--trace]

Prints one JSON object: ``setup_s`` (import + generate + write, measured
from before the package import), ``loop_s`` (the mean of the calibration
loops timed just before and just after, see ``calibrate.py``), the input
digest and, with ``--trace``, the set-up layer aggregates.  The benchmark
runs this as a child process several times, so that set-up memory stays out
of the workload's peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    import calibrate
    import workloads

    calibrate.loop_s()  # warm-up: the first loop of a fresh process runs cold
    loop_before = calibrate.loop_s()
    start = time.perf_counter()
    tracer = None
    if args.trace:
        import transverse_index  # noqa: F401  (the tracer wraps loaded modules)
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        tracer.begin_op("setup")
    manifest = workloads.make_inputs(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    loop_s = (loop_before + calibrate.loop_s()) / 2
    doc = {"setup_s": setup_s, "loop_s": loop_s, "digest": workloads.input_digest(manifest)}
    if tracer is not None:
        stats = tracer.end_op()
        doc["stats"] = [[fn, site, stat.as_dict()] for (fn, site), stat in stats.items()]
        doc["missing"] = tracer.missing
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
