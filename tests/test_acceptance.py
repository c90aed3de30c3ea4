"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Run with  pytest tests/test_acceptance.py -s  to see one line per criterion.
"""
import json
import random
from dataclasses import replace
from fractions import Fraction

from transverse_index import (
    b_signature_sum,
    euler_characteristic,
    fixed_point,
    gen_cpn,
    gen_sphere_operator,
    gen_su2_mod_t,
    kernel_count,
    normalize_setup,
    point_eigensolutions,
    point_spectrum,
    restricted_count,
    save_setup,
    signature,
    slope,
    su2_index,
    sweep_de_rham_vanishing,
    sweep_killing,
    total_spectrum,
    transverse_index,
)
from transverse_index.cli import main as cli_main

from oracles import (
    brute_kernel_count,
    brute_oracle_box_estimate,
    brute_restricted_count,
    brute_spectrum_entries,
    frac_dot,
)


def report(capsys, number, text):
    with capsys.disabled():
        print(f"criterion {number}: PASS — {text}")


def sphere_expected(n):
    return 0 if n % 2 == 0 else (1 if n > 0 else -1)


def test_criterion_1_sphere_operator_index_table(capsys, tmp_path):
    path = tmp_path / "sphere.json"
    save_setup(gen_sphere_operator(), path)
    for n in range(-9, 10):
        code = cli_main(["index", str(path), "--b", str(n)])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["value"] == sphere_expected(n)
    report(capsys, 1, "sphere operator index matches the parity table on [-9, 9]")


def test_criterion_2_cpn_euler_and_signature(capsys):
    for n in range(1, 7):
        assert euler_characteristic(gen_cpn(n, kind="deRham")) == n + 1
        assert signature(gen_cpn(n, kind="signature")) == (1 if n % 2 == 0 else 0)
    report(capsys, 2, "projective spaces n = 1..6: Euler = n+1, signature = 1 or 0")


CP12_B = (0, 1, 0, 0, 76, 0, 0, 0, 0, 0, -51, -24, -2)
CP12_TERMS = [0, 0, 0, 0, 16, -32, 32, -32, 32, -32, 16, 0, 0]


def test_criterion_3_cp12_golden(capsys):
    result = b_signature_sum(gen_cpn(12, kind="signature"), CP12_B)
    assert result.value == 0
    assert [term for _, term in result.per_point] == CP12_TERMS
    report(capsys, 3, "rank-13 golden character: per-point terms and zero total")


def test_criterion_4_killing_identity_sweep(capsys):
    for n in range(1, 5):
        rep = sweep_killing(gen_cpn(n, kind="signature"), bound=20)
        assert rep.ok, f"CP^{n}: nonzero residuals {rep.nonzero[:5]}"
    report(capsys, 4, "Killing identity residuals all zero, |b_i| <= 20, n <= 4")


def test_criterion_5_de_rham_vanishing_sweep(capsys):
    setups = [gen_su2_mod_t("deRham")] + [gen_cpn(n, kind="deRham") for n in (1, 2, 3)]
    for setup in setups:
        rep = sweep_de_rham_vanishing(setup, bound=20)
        assert rep.ok, f"nonzero residuals {rep.nonzero[:5]}"
    report(capsys, 5, "de Rham index vanishes for every b != 0, |b_i| <= 20, n <= 3")


def test_criterion_6_su2_branching(capsys):
    setup = gen_su2_mod_t("deRham")
    assert su2_index(setup, 0) == 2
    for n in range(1, 9):
        assert su2_index(setup, n) == 0
    report(capsys, 6, "SU(2) quotient: multiplicity 2 at n = 0, zero for n = 1..8")


def _random_problem(rng):
    m = rng.randint(1, 3)
    n = rng.randint(0, 2)
    tau = slope([rng.choice([1, 2, 3]) for _ in range(m)])
    weights = []
    while len(weights) < n:
        k = tuple(rng.randint(-4, 4) for _ in range(m))
        if frac_dot(k, tau) > 0:
            weights.append(k)
    lines = []
    for _ in range(rng.randint(1, 2)):
        a = tuple(rng.randint(-4, 4) for _ in range(m))
        eps = tuple(rng.choice([1, -1]) for _ in range(n))
        lines.append((a, rng.choice([1, -1]), eps))
    eta = rng.choice([1, -1])
    pt = fixed_point("rnd", weights, lines, group_sign=eta)
    if rng.random() < 0.5 or not lines:
        b = tuple(rng.randint(-4, 4) for _ in range(m))
    else:
        # aim the character at a solvable target so the counts are often nonzero
        exponents = [rng.randint(-3, 0) for _ in range(n)]
        a = rng.choice(lines)[0]
        b = tuple(
            eta * (sum(mi * k[p] for mi, k in zip(exponents, weights)) - a[p])
            for p in range(m)
        )
    return pt, b, tau


def _subsets(n):
    out = [()]
    for h in range(n):
        out += [s + (h,) for s in out]
    return out


def test_criterion_7_oracle_equivalence(capsys):
    rng = random.Random(20260808)
    spectra_checked = 0
    for _ in range(200):
        pt, b, tau = _random_problem(rng)
        for j in range(len(pt.lines)):
            assert kernel_count(pt, j, b, tau) == brute_kernel_count(pt, j, b, tau)
        for subset in _subsets(len(pt.tangent_weights)):
            assert restricted_count(pt, subset, b, tau) == brute_restricted_count(
                pt, subset, b, tau
            )
        cutoff = 12
        while cutoff > 0 and brute_oracle_box_estimate(pt, b, tau, cutoff) > 60_000:
            cutoff //= 2
        for mode in ("generic", "numeric"):
            table = point_spectrum(pt, b, tau, cutoff, mode=mode)
            assert list(table.entries) == brute_spectrum_entries(pt, b, tau, cutoff, mode)
        spectra_checked += 1
    assert spectra_checked == 200
    report(capsys, 7, "200 random data sets match brute-force box enumerations")


def _criteria_setups():
    out = [
        (gen_sphere_operator(), [(n,) for n in range(-9, 10)]),
        (gen_su2_mod_t("deRham"), [(n,) for n in range(-3, 4)]),
        (gen_su2_mod_t("signature"), [(0,), (1,), (-2,)]),
        (gen_cpn(12, kind="signature"), [CP12_B]),
    ]
    for n in range(1, 7):
        zero = (0,) * (n + 1)
        out.append((gen_cpn(n, kind="deRham"), [zero]))
        out.append((gen_cpn(n, kind="signature"), [zero]))
    cp3 = gen_cpn(3, kind="deRham")
    out.append((cp3, [(1, 0, 0, -1), (0, 2, -1, -1)]))
    return out


def test_criterion_8_kernel_spectrum_consistency(capsys):
    for setup, characters in _criteria_setups():
        normalized = normalize_setup(setup)
        for b in characters:
            kernels = 0
            graded = 0
            for pt in normalized.points:
                for j in range(len(pt.lines)):
                    kernels += kernel_count(pt, j, b, normalized.tau)
                for sol in point_eigensolutions(pt, b, normalized.tau, 0):
                    graded += pt.lines[sol.line_index].grading
            table = total_spectrum(setup, b, 0)
            assert table.multiplicity_of(0) == kernels
            assert table.total_multiplicity() == kernels
            assert transverse_index(setup, b).value == graded
    report(capsys, 8, "zero modes of the model spectra match kernel counts and indices")


SPHERE_TAUS = [[1], [3], ["7/2"]]


def _cpn_taus(n):
    return [
        [2**q for q in range(n + 1)],
        [3**q for q in range(n + 1)],
        [Fraction(2 * q + 1, 2) for q in range(n + 1)],
    ]


def test_criterion_9_slope_invariance(capsys):
    # criterion 1: the sphere table, three slopes
    tables = []
    for tau in SPHERE_TAUS:
        setup = replace(gen_sphere_operator(), tau=slope(tau))
        tables.append(
            tuple(transverse_index(setup, (n,)).value for n in range(-9, 10))
        )
    assert tables[0] == tables[1] == tables[2]
    assert tables[0] == tuple(sphere_expected(n) for n in range(-9, 10))

    # criterion 2 outputs for n = 1..6
    for n in range(1, 7):
        eulers = {
            euler_characteristic(gen_cpn(n, tau=tau, kind="deRham"))
            for tau in _cpn_taus(n)
        }
        signatures = {
            signature(gen_cpn(n, tau=tau, kind="signature")) for tau in _cpn_taus(n)
        }
        assert eulers == {n + 1}
        assert signatures == {1 if n % 2 == 0 else 0}

    # criterion 3 golden values
    goldens = set()
    for tau in _cpn_taus(12):
        result = b_signature_sum(gen_cpn(12, tau=tau, kind="signature"), CP12_B)
        goldens.add((result.value, tuple(term for _, term in result.per_point)))
    assert goldens == {(0, tuple(CP12_TERMS))}

    # criterion 4 sweeps; full radius for n <= 3, reduced radius at rank 5
    for n in (1, 2, 3):
        reports = {
            sweep_killing(gen_cpn(n, tau=tau, kind="signature"), bound=20)
            for tau in _cpn_taus(n)
        }
        assert len(reports) == 1 and next(iter(reports)).ok
    cp4_reports = {
        sweep_killing(gen_cpn(4, tau=tau, kind="signature"), bound=12)
        for tau in _cpn_taus(4)
    }
    assert len(cp4_reports) == 1 and next(iter(cp4_reports)).ok

    # criterion 5 sweeps
    for n in (1, 2, 3):
        reports = {
            sweep_de_rham_vanishing(gen_cpn(n, tau=tau, kind="deRham"), bound=20)
            for tau in _cpn_taus(n)
        }
        assert len(reports) == 1 and next(iter(reports)).ok
    su2_reports = set()
    for tau in SPHERE_TAUS:
        setup = replace(gen_su2_mod_t("deRham"), tau=slope(tau))
        su2_reports.add(sweep_de_rham_vanishing(setup, bound=20))
    assert len(su2_reports) == 1 and next(iter(su2_reports)).ok

    # criterion 6 values
    su2_tables = set()
    for tau in SPHERE_TAUS:
        setup = replace(gen_su2_mod_t("deRham"), tau=slope(tau))
        su2_tables.add(tuple(su2_index(setup, n) for n in range(9)))
    assert su2_tables == {(2,) + (0,) * 8}

    report(capsys, 9, "criteria 1-6 outputs unchanged under three slope vectors each")
