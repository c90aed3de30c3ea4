"""Self-check of the benchmark harness itself.

    python3 bench/selfcheck.py

Checks, for every workload, that
* the same seed generates identical inputs and a different seed different ones;
* the genuine output of every operation passes the correctness gate;
* deliberately corrupted outputs (a flipped residual sign, a dropped
  residual, an invented residual, an empty sweep, a wrong index value or per-point term, a wrong
  multiplicity) are each counted as failed operations;
* installing the tracer wraps its targets, and removing it restores every
  binding.

Exits 0 when every check holds, 1 otherwise.  Takes about a minute.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile

import checks
import layertrace
import run
import workloads


def _corruptions(op, stdout):
    """(label, corrupted stdout) pairs that the gate must reject."""
    doc = json.loads(stdout)
    kind = op["check"]["kind"]
    out = []
    if kind == "sweep":
        if doc["nonzero"]:
            flipped = json.loads(stdout)
            flipped["nonzero"][0]["residual"] *= -1
            out.append(("flipped residual sign", flipped))
            out.append(("dropped residual", dict(doc, nonzero=doc["nonzero"][1:])))
        else:
            invented = dict(doc, nonzero=[{"b": [1] + [0] * (op["check"]["m"] - 1), "residual": 2}])
            out.append(("invented residual", invented))
        out.append(("empty sweep", dict(doc, checked=0, nonzero=[])))
    elif kind == "index":
        out.append(("value off by one", dict(doc, value=doc["value"] + 1)))
        if op["check"]["per_point"] is not None:
            terms = json.loads(stdout)["per_point"]
            terms[0]["term"], terms[-1]["term"] = terms[-1]["term"] + 1, terms[0]["term"] - 1
            out.append(("per-point terms moved", dict(doc, per_point=terms)))
    else:
        wrong = dict(doc)
        first = next(iter(wrong))
        wrong[first] += 1
        out.append(("multiplicity off by one", wrong))
    return [(label, json.dumps(d, indent=2) + "\n") for label, d in out]


def _bindings():
    """Every module-level binding of a tracer target in the loaded package."""
    names = {attr for _, attr, _, _ in layertrace.TARGETS}
    return {
        (mod_name, attr): getattr(mod, attr)
        for mod_name, mod in list(sys.modules.items())
        if mod_name.split(".")[0] == layertrace.PACKAGE
        for attr in names
        if hasattr(mod, attr)
    }


def main() -> int:
    tix, cli, oracles = run.load_package()
    problems = []
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        dirs = [tempfile.mkdtemp(prefix=f"selfcheck-{workload}-", dir=run.WORK) for _ in range(3)]
        try:
            manifests = [workloads.make_inputs(workload, seed, d) for seed, d in zip((1, 1, 2), dirs)]
            digests = [workloads.input_digest(m) for m in manifests]
            if digests[0] != digests[1]:
                problems.append(f"{workload}: the same seed gave different inputs")
            if digests[0] == digests[2]:
                problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")
            gate = run.Gate(checks.Checker(tix, oracles, seed=1))
            _, results = run.run_pass(cli, manifests[0]["ops"])
            for r in results:
                gate.record(r["op"], r["code"], r["stdout"], r["crash"])
            if gate.failures:
                problems.append(f"{workload}: genuine outputs failed: {gate.failures}")
            for r in results:
                for label, stdout in _corruptions(r["op"], r["stdout"]):
                    probe = run.Gate(gate.checker)
                    probe.record(r["op"], r["code"], stdout, None)
                    caught = probe.attempted == 1 and len(probe.failures) == 1
                    print(f"{workload:15s} {r['op']['name']:28s} {label:24s} "
                          f"{'counted as failed' if caught else 'NOT CAUGHT'}")
                    if not caught:
                        problems.append(f"{workload}/{r['op']['name']}: {label} not caught")
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)

    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    wrapped = _bindings()
    tracer.uninstall()
    if before == wrapped or before != _bindings() or tracer.missing:
        problems.append(f"tracer did not wrap and restore its targets (missing: {tracer.missing})")

    for problem in problems:
        print("PROBLEM:", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
