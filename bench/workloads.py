"""Seeded inputs and fixed operation lists of the four benchmark workloads.

``make_inputs(workload, seed, out_dir)`` writes the setup files of one
workload and returns its manifest: the CLI argv of every operation and what
its output must satisfy.  Everything derives from the seed:

* every setup file has its torus coordinates relabelled by a seeded
  permutation (the queried characters are permuted with it).  Relabelling is
  a symmetry of the problem, so each seed does the same work and must give
  the same values, while the files and characters differ;
* the fault-injected sweeps flip the orientation sign of a seeded fixed
  point (Killing) or the grading of a seeded line (de Rham);
* the rational slope of the ``index`` workload and the sphere character of
  ``spectrum`` are drawn from the seed.

The package is imported inside ``make_inputs`` so that a caller can time
the import as part of set-up.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import replace
from fractions import Fraction

WORKLOADS = ("verify-killing", "verify-derham", "index", "spectrum")

CP12_GOLDEN_B = (0, 1, 0, 0, 76, 0, 0, 0, 0, 0, -51, -24, -2)
CP12_GOLDEN_TERMS = (0, 0, 0, 0, 16, -32, 32, -32, 32, -32, 16, 0, 0)
CP10_B = (0, 1, 0, 0, 3, 0, 0, -2, 0, 0, -2)


def _relabel(tix, setup, perm):
    """The same setup with coordinate i of every vector taken from perm[i]."""

    def move(v):
        return tuple(v[i] for i in perm)

    points = tuple(
        replace(
            pt,
            tangent_weights=tuple(move(k) for k in pt.tangent_weights),
            lines=tuple(tix.BundleLine(move(ln.a), ln.grading, ln.epsilon) for ln in pt.lines),
        )
        for pt in setup.points
    )
    return replace(setup, tau=move(setup.tau), points=points)


class _Writer:
    """Relabels, saves and names the setup files of one workload."""

    def __init__(self, tix, rng, out_dir):
        self.tix, self.rng, self.out_dir = tix, rng, out_dir

    def save(self, name, setup, *characters):
        """Save a relabelled copy; return its path and the characters relabelled to match."""
        perm = list(range(setup.m))
        self.rng.shuffle(perm)
        path = os.path.join(self.out_dir, f"{name}.json")
        self.tix.save_setup(_relabel(self.tix, setup, perm), path)
        return (path, *(",".join(str(b[i]) for i in perm) for b in characters))


def _replace_point(setup, index, **changes):
    points = list(setup.points)
    points[index] = replace(points[index], **changes)
    return replace(setup, points=tuple(points))


def _flip_orientation(setup, index):
    pt = setup.points[index]
    return _replace_point(
        setup, index, base_orientation=-pt.base_orientation, orientation_sign=-pt.orientation_sign
    )


def _flip_grading(setup, index, line):
    lines = list(setup.points[index].lines)
    lines[line] = replace(lines[line], grading=-lines[line].grading)
    return _replace_point(setup, index, lines=tuple(lines))


def _sweep_op(name, path, bound, m, fault=None):
    return {
        "name": name,
        "argv": ["verify", path, f"--bmax={bound}"],
        "check": {"kind": "sweep", "bound": bound, "m": m, "fault": fault},
    }


def _verify_killing(tix, w):
    cp3 = tix.gen_cpn(3, kind="signature")
    point = w.rng.randrange(len(cp3.points))
    (cp4,) = w.save("cp4_signature", tix.gen_cpn(4, kind="signature"))
    (cp2,) = w.save("cp2_signature", tix.gen_cpn(2, kind="signature"))
    (cp3_fault,) = w.save("cp3_signature_flipped", _flip_orientation(cp3, point))
    return [
        _sweep_op("cp4-support-b8", cp4, 8, 5),
        _sweep_op("cp2-fullbox-b16", cp2, 16, 3),
        _sweep_op("cp3-orientation-fault-b5", cp3_fault, 5, 4, fault=cp3.points[point].name),
    ]


def _verify_derham(tix, w):
    cp2 = tix.gen_cpn(2, kind="deRham")
    point = w.rng.randrange(len(cp2.points))
    line = w.rng.randrange(len(cp2.points[point].lines))
    (full,) = w.save("cp2_deRham", cp2)
    (cp3,) = w.save("cp3_deRham", tix.gen_cpn(3, kind="deRham"))
    (fault,) = w.save("cp2_deRham_flipped", _flip_grading(cp2, point, line))
    return [
        _sweep_op("cp2-fullbox-b10", full, 10, 3),
        _sweep_op("cp3-support-b12", cp3, 12, 4),
        _sweep_op("cp2-grading-fault-b8", fault, 8, 3, fault=f"{cp2.points[point].name} line {line}"),
    ]


def _index_op(name, path, b, value, per_point=None, mode="transverse"):
    return {
        "name": name,
        "argv": ["index", path, f"--b={b}", f"--mode={mode}"],
        "check": {"kind": "index", "value": value, "per_point": per_point},
    }


def _seeded_slope(rng, n):
    """A strictly increasing rational slope: doubling steps plus seeded fractions."""
    q = rng.choice((3, 5, 7, 11))
    return [str(Fraction(2**i) + Fraction(rng.randrange(1, q), q)) for i in range(n + 1)]


def _index(tix, w):
    zero10 = (0,) * 11
    tau = _seeded_slope(w.rng, 10)
    derham, d_zero, d_b = w.save("cp10_deRham", tix.gen_cpn(10, kind="deRham"), zero10, CP10_B)
    sig, s_b = w.save("cp10_signature", tix.gen_cpn(10, kind="signature"), CP10_B)
    cp12, golden = w.save("cp12_signature", tix.gen_cpn(12, kind="signature"), CP12_GOLDEN_B)
    rational, r_zero = w.save("cp10_deRham_rational", tix.gen_cpn(10, tau=tau, kind="deRham"), zero10)
    return [
        _index_op("cp10-derham-zero", derham, d_zero, 11, per_point=[1] * 11),
        _index_op("cp10-derham-nonzero", derham, d_b, 0),
        _index_op("cp10-signature-sum", sig, s_b, 0, mode="signature-sum"),
        _index_op("cp12-golden", cp12, golden, 0, per_point=list(CP12_GOLDEN_TERMS), mode="signature-sum"),
        _index_op("cp10-rational-slope-zero", rational, r_zero, 11, per_point=[1] * 11),
    ]


def _spectrum_ops(name, path, b, cutoff, oracle_cutoff):
    return [
        {
            "name": f"{name}-{mode}",
            "argv": ["spectrum", path, f"--b={b}", f"--cutoff={cutoff}", f"--mode={mode}"],
            "check": {"kind": "spectrum", "b": b, "cutoff": str(cutoff), "oracle_cutoff": oracle_cutoff},
        }
        for mode in ("generic", "numeric")
    ]


def _spectrum(tix, w):
    # the sphere's weights are even and its line weights odd: even characters
    # have an empty spectrum
    sphere_b = w.rng.choice(range(-9, 10, 2))
    cp2, b2 = w.save("cp2_deRham", tix.gen_cpn(2, kind="deRham"), (1, 0, -1))
    cp3, b3 = w.save("cp3_deRham", tix.gen_cpn(3, kind="deRham"), (1, 0, 0, -1))
    cp4, b4 = w.save("cp4_deRham", tix.gen_cpn(4, kind="deRham"), (1, 0, 0, 0, -1))
    sphere, bs = w.save("sphere", tix.gen_sphere_operator(), (sphere_b,))
    # oracle_cutoff: the brute-force table is compared up to this value; it
    # is None where the brute box is too large at any positive cutoff (rank 5)
    return (
        _spectrum_ops("cp2-c400", cp2, b2, 400, "50")
        + _spectrum_ops("cp3-c200", cp3, b3, 200, "8")
        + _spectrum_ops("cp4-c120", cp4, b4, 120, None)
        + _spectrum_ops("sphere-c400", sphere, bs, 400, "400")
    )


_BUILDERS = {
    "verify-killing": _verify_killing,
    "verify-derham": _verify_derham,
    "index": _index,
    "spectrum": _spectrum,
}


def make_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's setup files into out_dir and return its manifest."""
    import transverse_index as tix

    rng = random.Random(f"{workload}/{seed}")
    ops = _BUILDERS[workload](tix, _Writer(tix, rng, out_dir))
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def input_digest(manifest: dict) -> str:
    """sha256 over the setup files and the argv of every operation (paths by basename)."""
    digest = hashlib.sha256()
    seen = set()
    for op in manifest["ops"]:
        path = op["argv"][1]
        argv = [os.path.basename(path)] + op["argv"][2:]
        digest.update(json.dumps([op["argv"][0]] + argv).encode())
        if path not in seen:
            seen.add(path)
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()
