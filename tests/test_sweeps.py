"""Scatter sweeps and their support sets, checked against the engine formulas."""
from dataclasses import replace
from itertools import product

import pytest

import transverse_index.sweeps as sweeps
from transverse_index import (
    NothingToCheck,
    OperatorSetup,
    WrongOperatorKind,
    b_signature_sum,
    build_form_datum,
    gen_cpn,
    gen_sphere_operator,
    gen_su2_mod_t,
    kernel_count,
    kernel_support,
    normalize_setup,
    signature_support,
    slope,
    sweep_de_rham_vanishing,
    sweep_killing,
    transverse_index,
)


def box(m, bound):
    return product(range(-bound, bound + 1), repeat=m)


def test_kernel_support_covers_every_nonzero_index_term():
    setup = gen_cpn(2, kind="deRham")
    bound = 5
    support = kernel_support(setup, bound)
    normalized = normalize_setup(setup)
    for b in box(3, bound):
        hit = any(
            kernel_count(pt, j, b, normalized.tau) > 0
            for pt in normalized.points
            for j in range(len(pt.lines))
        )
        if hit:
            assert b in support
    assert all(max(abs(x) for x in b) <= bound for b in support)


def test_signature_support_covers_every_nonzero_term():
    setup = gen_cpn(2, kind="signature")
    bound = 5
    support = signature_support(setup, bound)
    for b in box(3, bound):
        result = b_signature_sum(setup, b)
        if any(term != 0 for _, term in result.per_point):
            assert b in support


def _flip_grading(setup, point, line):
    pt = setup.points[point]
    lines = list(pt.lines)
    lines[line] = replace(lines[line], grading=-lines[line].grading)
    return _replace_point(setup, point, lines=tuple(lines))


def _flip_orientation(setup, point):
    pt = setup.points[point]
    return _replace_point(
        setup,
        point,
        base_orientation=-pt.base_orientation,
        orientation_sign=-pt.orientation_sign,
    )


def _replace_point(setup, point, **changes):
    points = list(setup.points)
    points[point] = replace(points[point], **changes)
    return replace(setup, points=tuple(points))


def _reversed_second_point(setup):
    # gen_su2_mod_t has group_sign = +1 at both points; reverse the circle
    # parameter at the second one so the sweeps meet group_sign = -1
    return _replace_point(setup, 1, group_sign=-1)


RATIONAL_TAU = [1, "3/2", "7/2"]


def _diagonal(kind):
    # the weight (1, 1) has kappa = 2 at tau = (1, 1), so c * kappa reaches
    # 2 * bound inside the box; the full 4^n line set adds lines with mixed
    # epsilons, which can never meet a kernel
    pt = build_form_datum("d", [(1, 1), (0, 1)], kind, 1, all_lines=True)
    return OperatorSetup(m=2, tau=slope([1, 1]), points=(pt,), operator_kind=kind)


def _engine_nonzero(setup, bound, residual):
    return tuple(
        (b, r)
        for b in box(setup.m, bound)
        if any(b) and (r := residual(setup, b).value) != 0
    )


def _de_rham_setups():
    su2 = gen_su2_mod_t("deRham")
    return [
        (gen_cpn(2, kind="deRham"), 4),
        (gen_cpn(2, tau=RATIONAL_TAU, kind="deRham"), 4),
        (su2, 12),
        (_reversed_second_point(su2), 12),
        (replace(gen_sphere_operator(), operator_kind="deRham"), 12),
        (_diagonal("deRham"), 5),
    ]


def _killing_setups():
    su2 = gen_su2_mod_t("signature")
    return [
        (gen_cpn(2, kind="signature"), 3),
        (gen_cpn(2, tau=RATIONAL_TAU, kind="signature"), 3),
        (gen_cpn(3, kind="signature"), 2),
        (su2, 12),
        (_reversed_second_point(su2), 12),
        (gen_sphere_operator(), 12),
        (_diagonal("signature"), 5),
    ]


def test_de_rham_fault_matches_engine_over_full_box():
    # a flipped grading on one kernel line at each point, a different line
    # per point: the scatter must report exactly the engine's nonzero
    # residuals over the whole box
    faults = 0
    for setup, bound in _de_rham_setups():
        for point, pt in enumerate(setup.points):
            kernel_lines = [
                j for j, line in enumerate(pt.lines) if all(e == -1 for e in line.epsilon)
            ]
            bad = _flip_grading(setup, point, kernel_lines[point % len(kernel_lines)])
            report = sweep_de_rham_vanishing(bad, bound=bound)
            assert report.strategy == "full-box"
            assert report.checked == (2 * bound + 1) ** setup.m - 1
            expected = _engine_nonzero(bad, bound, transverse_index)
            assert report.nonzero == expected
            faults += bool(expected)
    assert faults >= 8


def test_killing_fault_matches_engine_over_full_box():
    # a flipped orientation at each point, one at a time
    faults = 0
    for setup, bound in _killing_setups():
        for point in range(len(setup.points)):
            bad = _flip_orientation(setup, point)
            report = sweep_killing(bad, bound=bound)
            assert report.strategy == "full-box"
            assert report.checked == (2 * bound + 1) ** setup.m - 1
            expected = _engine_nonzero(bad, bound, b_signature_sum)
            assert report.nonzero == expected
            faults += bool(expected)
    assert faults >= 10


def test_scatter_residuals_match_engine_values():
    # every residual of the walk, zero character and cancelled ones included,
    # equals the engine formula; characters the walk never reaches read 0
    cases = [(s, b, sweeps._de_rham_scatter, transverse_index) for s, b in _de_rham_setups()]
    cases += [(s, b, sweeps._killing_scatter, b_signature_sum) for s, b in _killing_setups()]
    for setup, bound, scatter, residual in cases:
        residuals = scatter(setup, bound)
        assert all(max(abs(x) for x in b) <= bound for b in residuals)
        for b in box(setup.m, bound):
            assert residuals.get(b, 0) == residual(setup, b).value


def test_clean_sweeps_pass():
    assert sweep_de_rham_vanishing(gen_su2_mod_t("deRham"), bound=20).ok
    assert sweep_de_rham_vanishing(gen_cpn(1), bound=20).ok
    assert sweep_killing(gen_cpn(2, kind="signature"), bound=10).ok


def test_killing_identity_holds_out_to_one_hundred():
    # wide-radius check at a rank where the support stays small
    report = sweep_killing(gen_cpn(2, kind="signature"), bound=100)
    assert report.strategy == "full-box"
    assert report.checked == 201**3 - 1
    assert report.ok


def test_sweep_reports_are_deterministic():
    a = sweep_killing(gen_cpn(2, kind="signature"), bound=4)
    b = sweep_killing(gen_cpn(2, kind="signature"), bound=4)
    assert a == b


def test_explicit_character_lists():
    setup = gen_cpn(2, kind="deRham")
    report = sweep_de_rham_vanishing(
        setup, characters=[(1, 0, -1), (0, 0, 0), (2, -1, -1)]
    )
    assert report.strategy == "explicit-list"
    assert report.checked == 2  # the zero character is skipped
    assert report.ok


def test_zero_character_is_excluded_from_boxes():
    # at b = 0 the killing sum equals the orientation count, not zero
    setup = gen_cpn(2, kind="signature")
    assert b_signature_sum(setup, (0, 0, 0)).value == 1
    assert sweep_killing(setup, bound=1).ok


def test_de_rham_sweep_requires_de_rham_kind():
    with pytest.raises(WrongOperatorKind):
        sweep_de_rham_vanishing(gen_cpn(2, kind="signature"), bound=2)


def test_sweep_needs_bound_or_list():
    with pytest.raises(ValueError):
        sweep_killing(gen_cpn(2, kind="signature"))


def test_sweeps_refuse_to_check_nothing():
    # no nonzero character to check must not read as a pass
    for sweep, kind in ((sweep_killing, "signature"), (sweep_de_rham_vanishing, "deRham")):
        setup = gen_cpn(2, kind=kind)
        for bound in (-3, 0):
            with pytest.raises(NothingToCheck, match=f"box bound {bound}"):
                sweep(setup, bound=bound)
        for characters in ([(0, 0, 0)], []):
            with pytest.raises(NothingToCheck, match="character list"):
                sweep(setup, characters=characters)
        assert sweep(setup, bound=1).checked == 26
