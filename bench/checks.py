"""Correctness gate: every operation's exit code and output are checked.

``check_op`` returns None when the output is right and a one-line reason
otherwise.  Only the fields a faster implementation must keep are compared:
``nonzero`` of a sweep (never ``strategy`` or ``checked``, which may change
legitimately, except that a sweep that checked nothing fails), ``value`` and
``per_point`` of an index query, and the eigenvalue table of a spectrum.

References are independent of the CLI path under test: sweep residuals are
evaluated per character through ``engine.b_signature_sum`` or
``engine.transverse_index`` (over the whole box for a fault-injected sweep,
whose reported set must equal the engine's nonzero set; on a seeded sample
for a genuine sweep, whose box is mostly too large to enumerate); index
values come from the paper's identities (Euler number n+1, vanishing at
nonzero characters, the rank-13 golden terms); spectra are compared with the brute-force enumerations of
``tests/oracles.py``.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

SWEEP_SAMPLE = 48


class Checker:
    """Checks outputs against references; caches oracle results per input."""

    def __init__(self, tix, oracles, seed: int):
        self.tix = tix
        self.oracles = oracles
        self.seed = seed
        self._cache: dict = {}

    def check_op(self, op: dict, code: int, stdout: str) -> str | None:
        kind = op["check"]["kind"]
        try:
            doc = json.loads(stdout)
        except ValueError:
            return f"exit {code}, stdout is not JSON"
        if kind == "sweep":
            return self._sweep(op, code, doc)
        if kind == "index":
            return self._index(op, code, doc)
        return self._spectrum(op, code, doc)

    def _setup(self, path):
        key = ("setup", path)
        if key not in self._cache:
            self._cache[key] = self.tix.load_setup(path)
        return self._cache[key]

    # -- verify ---------------------------------------------------------
    def _residual(self, setup, b):
        if setup.operator_kind == "signature":
            return self.tix.b_signature_sum(setup, b).value
        return self.tix.transverse_index(setup, b).value

    def _sweep(self, op, code, doc):
        spec = op["check"]
        bound, m = spec["bound"], spec["m"]
        if not isinstance(doc.get("checked"), int) or doc["checked"] <= 0:
            return "sweep checked nothing"
        nonzero = doc.get("nonzero")
        if not isinstance(nonzero, list):
            return "sweep output has no nonzero list"
        expected_code = 0 if spec["fault"] is None else 1
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if spec["fault"] is None and nonzero:
            return f"genuine sweep reported {len(nonzero)} nonzero residuals"
        if spec["fault"] is not None and not nonzero:
            return "fault-injected sweep reported no nonzero residual"
        reported = {}
        for entry in nonzero:
            b = tuple(entry["b"])
            if len(b) != m or not any(b) or max(abs(x) for x in b) > bound:
                return f"reported character {list(b)} is outside the box"
            if b in reported:
                return f"character {list(b)} reported twice"
            reported[b] = entry["residual"]
        setup = self._setup(op["argv"][1])
        if spec["fault"] is None:
            for b in self._sample(op["name"], bound, m):
                value = self._residual(setup, b)
                if value != 0:
                    return f"unreported character {list(b)} has residual {value}"
            return None
        expected = self._box_residuals(op["argv"][1], setup, bound, m)
        for b, residual in reported.items():
            if residual == 0 or residual != expected.get(b):
                return f"residual at {list(b)} is {residual}, engine gives {expected.get(b, 0)}"
        missed = sorted(set(expected) - set(reported))
        if missed:
            return f"{len(missed)} nonzero residuals not reported, first at {list(missed[0])}"
        return None

    def _sample(self, name, bound, m):
        """Seeded distinct nonzero box characters."""
        rng = random.Random(f"{self.seed}/{name}")
        room = (2 * bound + 1) ** m - 1
        sample: set = set()
        while len(sample) < min(SWEEP_SAMPLE, room):
            b = tuple(rng.randint(-bound, bound) for _ in range(m))
            if any(b):
                sample.add(b)
        return sorted(sample)

    def _box_residuals(self, path, setup, bound, m):
        """{character: residual} over every nonzero box character with a nonzero residual."""
        key = ("box", path, bound)
        if key not in self._cache:
            self._cache[key] = {
                b: value
                for b in itertools.product(range(-bound, bound + 1), repeat=m)
                if any(b) and (value := self._residual(setup, b)) != 0
            }
        return self._cache[key]

    # -- index ----------------------------------------------------------
    def _index(self, op, code, doc):
        spec = op["check"]
        if code != 0:
            return f"exit code {code}, expected 0"
        terms = [entry["term"] for entry in doc.get("per_point", [])]
        if doc.get("value") != spec["value"]:
            return f"value {doc.get('value')}, expected {spec['value']}"
        if sum(terms) != doc["value"]:
            return "per-point terms do not sum to the value"
        if spec["per_point"] is not None and terms != spec["per_point"]:
            return f"per-point terms {terms}, expected {spec['per_point']}"
        return None

    # -- spectrum -------------------------------------------------------
    def _spectrum(self, op, code, doc):
        spec = op["check"]
        if code != 0:
            return f"exit code {code}, expected 0"
        cutoff = Fraction(spec["cutoff"])
        rows = [(Fraction(lam), mult) for lam, mult in doc.items()]
        if [lam for lam, _ in rows] != sorted(lam for lam, _ in rows):
            return "eigenvalues are not in ascending order"
        if any(lam < 0 or lam > cutoff or not isinstance(mult, int) or mult <= 0 for lam, mult in rows):
            return "an eigenvalue row is outside [0, cutoff] or has multiplicity <= 0"
        table = dict(rows)
        path, b = op["argv"][1], tuple(int(x) for x in spec["b"].split(","))
        kernel, oracle = self._spectrum_reference(path, b, spec["oracle_cutoff"])
        if table.get(Fraction(0), 0) != kernel:
            return f"multiplicity of eigenvalue 0 is {table.get(Fraction(0), 0)}, oracle kernel count {kernel}"
        if oracle is not None:
            limit = Fraction(spec["oracle_cutoff"])
            low = {lam: mult for lam, mult in table.items() if lam <= limit}
            if not oracle:
                return f"oracle table is empty at cutoff {limit}; the check would be vacuous"
            if low != oracle:
                return f"table up to {limit} differs from the brute-force oracle"
        return None

    def _spectrum_reference(self, path, b, oracle_cutoff):
        key = ("spectrum", path, b, oracle_cutoff)
        if key not in self._cache:
            setup = self.tix.normalize_setup(self._setup(path))
            kernel = sum(
                self.oracles.brute_kernel_count(pt, j, b, setup.tau)
                for pt in setup.points
                for j in range(len(pt.lines))
            )
            oracle = None
            if oracle_cutoff is not None:
                oracle = {}
                for pt in setup.points:
                    for lam, mult in self.oracles.brute_spectrum_entries(
                        pt, b, setup.tau, Fraction(oracle_cutoff), "numeric"
                    ):
                        oracle[lam] = oracle.get(lam, 0) + mult
            self._cache[key] = (kernel, oracle)
        return self._cache[key]
