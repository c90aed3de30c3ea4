"""Index formula, de Rham / signature specializations, Killing identity."""
from dataclasses import replace

import pytest

from transverse_index import (
    EulerMismatch,
    OperatorSetup,
    WrongOperatorKind,
    ZeroB,
    b_euler,
    b_signature_sum,
    build_form_datum,
    euler_characteristic,
    form_grading_sum,
    form_lines,
    gen_cpn,
    gen_sphere_operator,
    gen_su2_mod_t,
    kernel_count,
    normalize_setup,
    point_eigensolutions,
    restricted_count,
    signature,
    slope,
    transverse_index,
    verify_killing_identity,
)

from oracles import brute_restricted_count

SPHERE = gen_sphere_operator()


def sphere_expected(n):
    if n % 2 == 0:
        return 0
    return 1 if n > 0 else -1


def test_sphere_index_table():
    for n in range(-9, 10):
        assert transverse_index(SPHERE, (n,)).value == sphere_expected(n)


def test_empty_setup_index_is_zero():
    empty = OperatorSetup(m=2, tau=slope([1, 2]), points=(), operator_kind="generic")
    result = transverse_index(empty, (3, -1))
    assert result.value == 0 and result.per_point == ()


def test_degenerate_ranks_are_legal():
    # a zero-dimensional point contributes through the empty solution
    from transverse_index import fixed_point, validate_setup

    pt = fixed_point("pt", [], [((), 1, ()), ((), -1, ())])
    setup = OperatorSetup(m=0, tau=(), points=(pt,), operator_kind="generic")
    assert validate_setup(setup) == []
    assert transverse_index(setup, ()).value == 0  # the two lines cancel

    pt2 = fixed_point("q", [], [((0,), 1, ())])
    setup2 = OperatorSetup(m=1, tau=slope([1]), points=(pt2,), operator_kind="generic")
    assert transverse_index(setup2, (0,)).value == 1
    assert transverse_index(setup2, (5,)).value == 0


def test_cp2_invariant_index_counts_points():
    result = transverse_index(gen_cpn(2), (0, 0, 0))
    assert result.value == 3
    assert [term for _, term in result.per_point] == [1, 1, 1]


def test_index_additivity_over_point_lists():
    setup = gen_cpn(2)
    first = replace(setup, points=setup.points[:1])
    rest = replace(setup, points=setup.points[1:])
    for b in [(0, 0, 0), (1, 0, -1), (2, -1, -1), (-3, 2, 1)]:
        assert (
            transverse_index(setup, b).value
            == transverse_index(first, b).value + transverse_index(rest, b).value
        )


def test_form_lines_zero_planes_need_an_explicit_rank():
    from transverse_index import form_lines

    (line,) = form_lines([], "deRham", 1, rank=2)
    assert line.a == (0, 0) and line.grading == 1 and line.epsilon == ()


def test_form_lines_n1_deRham():
    lines = form_lines([(2,)], "deRham", 1)
    assert [(l.multi_index, l.a, l.epsilon, l.grading) for l in lines] == [
        ((2,), (0,), (-1,), 1),
        ((4,), (2,), (-1,), -1),
    ]


def test_form_lines_n1_signature_all_odd_chirality():
    lines = form_lines([(2,)], "signature", 1)
    assert [l.grading for l in lines] == [-1, -1]


def test_form_lines_n2_deRham_grading_pattern():
    lines = form_lines([(1, 0), (0, 1)], "deRham", 1)
    assert [l.multi_index for l in lines] == [(2, 2), (2, 4), (4, 2), (4, 4)]
    assert [l.grading for l in lines] == [1, -1, -1, 1]


def test_full_line_set_adds_nothing_to_the_index():
    tau = slope([1, 2, 4])
    setup = gen_cpn(2, tau=[1, 2, 4])
    full_points = []
    for pt in normalize_setup(setup).points:
        full_points.append(
            build_form_datum(
                pt.name, pt.tangent_weights, "deRham", pt.orientation_sign,
                all_lines=True,
            )
        )
    full = replace(setup, points=tuple(full_points))
    for b in [(0, 0, 0), (1, -1, 0), (2, 0, -2), (-1, -1, 2)]:
        assert transverse_index(full, b).value == transverse_index(setup, b).value
    # the omitted multi-indices all carry some epsilon = +1
    for pt in full_points:
        for j, line in enumerate(pt.lines):
            if any(e == 1 for e in line.epsilon):
                assert kernel_count(pt, j, (0, 0, 0), tau) == 0


def test_euler_characteristic():
    for n in range(1, 5):
        assert euler_characteristic(gen_cpn(n)) == n + 1
    assert euler_characteristic(gen_su2_mod_t("deRham")) == 2
    empty = OperatorSetup(m=1, tau=slope([1]), points=(), operator_kind="deRham")
    assert euler_characteristic(empty) == 0
    with pytest.raises(WrongOperatorKind):
        euler_characteristic(gen_cpn(2, kind="signature"))


def test_euler_characteristic_rejects_inconsistent_data():
    # flip the grading of the a = 0 kernel line at one point of CP^2: the
    # invariant index drops from 3 to 1 and no longer counts the points
    setup = gen_cpn(2, kind="deRham")
    pt = setup.points[0]
    j = next(i for i, line in enumerate(pt.lines) if not any(line.a))
    assert all(e == -1 for e in pt.lines[j].epsilon)
    lines = list(pt.lines)
    lines[j] = replace(lines[j], grading=-lines[j].grading)
    bad = replace(setup, points=(replace(pt, lines=tuple(lines)),) + setup.points[1:])
    assert transverse_index(bad, (0, 0, 0)).value == 1
    with pytest.raises(EulerMismatch, match="disagrees with point count 3"):
        euler_characteristic(bad)


def test_signature():
    assert [signature(gen_cpn(n, kind="signature")) for n in range(1, 6)] == [
        0, 1, 0, 1, 0,
    ]
    single = OperatorSetup(
        m=3,
        tau=slope([1, 2, 4]),
        points=(
            build_form_datum("pt", [(1, 0, 0), (0, 1, 0)], "signature", 1),
        ),
        operator_kind="signature",
    )
    assert signature(single) == 1
    with pytest.raises(WrongOperatorKind):
        signature(gen_cpn(2, kind="deRham"))


def test_b_euler_vanishes():
    assert b_euler(gen_cpn(2), (1, 0, -1)) == 0
    assert b_euler(gen_su2_mod_t("deRham"), (2,)) == 0
    cp3 = gen_cpn(3)
    for b in [(1, 0, 0, -1), (0, 2, -1, -1), (5, -2, -2, -1)]:
        assert b_euler(cp3, b) == 0
    with pytest.raises(ZeroB):
        b_euler(gen_cpn(2), (0, 0, 0))
    with pytest.raises(WrongOperatorKind):
        b_euler(gen_cpn(2, kind="signature"), (1, 0, -1))


CP12_B = (0, 1, 0, 0, 76, 0, 0, 0, 0, 0, -51, -24, -2)
CP12_TERMS = [0, 0, 0, 0, 16, -32, 32, -32, 32, -32, 16, 0, 0]


def test_cp12_signature_sum_golden():
    result = b_signature_sum(gen_cpn(12, kind="signature"), CP12_B)
    assert result.value == 0
    assert [term for _, term in result.per_point] == CP12_TERMS


def test_b_signature_sum_at_zero_recovers_orientation_count():
    for n in (2, 3):
        setup = gen_cpn(n, kind="signature")
        result = b_signature_sum(setup, (0,) * (n + 1))
        assert result.value == (-1) ** n * signature(setup)


def test_point_terms_match_subset_sums():
    # the one-pass weighted count must agree with the explicit sum over
    # subsets of 2^|A| * restricted_count(A, b)
    setup = normalize_setup(gen_cpn(3, kind="signature"))
    for b in [(1, 0, 0, -1), (0, 1, -1, 0), (2, 0, -1, -1), (0, 0, 0, 0)]:
        result = b_signature_sum(setup, b)
        for pt, (name, term) in zip(setup.points, result.per_point):
            n = len(pt.tangent_weights)
            subsets = [()]
            for h in range(n):
                subsets += [s + (h,) for s in subsets]
            explicit = sum(
                2 ** len(a) * restricted_count(pt, a, b, setup.tau) for a in subsets
            )
            assert term == pt.orientation_sign * explicit
            brute = sum(
                2 ** len(a) * brute_restricted_count(pt, a, b, setup.tau)
                for a in subsets
            )
            assert term == pt.orientation_sign * brute


def test_killing_identity_examples():
    assert verify_killing_identity(gen_cpn(12, kind="signature"), CP12_B) == 0
    for n in (1, 3):
        setup = gen_cpn(n, kind="signature")
        assert verify_killing_identity(setup, (0,) * (n + 1)) == 0
    cp4 = gen_cpn(4, kind="signature")
    for b in [
        (1, 0, 0, 0, -1),
        (0, 3, -1, -1, -1),
        (7, 0, -7, 0, 0),
        (2, 2, 0, -3, -1),
    ]:
        assert verify_killing_identity(cp4, b) == 0


def test_form_grading_sum():
    setup = normalize_setup(gen_cpn(3, kind="signature"))
    pt = setup.points[0]
    for subset in [(0,), (0, 1), (1, 2), (0, 1, 2)]:
        assert form_grading_sum(pt, subset, "deRham") == 0
    assert form_grading_sum(pt, (), "deRham") == 1
    assert form_grading_sum(pt, (), "signature") == (-1) ** 3 * pt.orientation_sign
    plus = replace(pt, orientation_sign=1)
    assert form_grading_sum(plus, (0, 1), "signature") == -4


def test_contribution_decomposition():
    # sum_i sign(i) k_i equals sum_A N(A, b) S(A) line by line
    for kind in ("deRham", "signature"):
        setup = normalize_setup(gen_cpn(2, kind=kind))
        for b in [(1, 0, -1), (3, -1, -2), (0, 1, -1), (2, -1, -1)]:
            for pt in setup.points:
                lhs = sum(
                    line.grading * kernel_count(pt, j, b, setup.tau)
                    for j, line in enumerate(pt.lines)
                )
                n = len(pt.tangent_weights)
                subsets = [()]
                for h in range(n):
                    subsets += [s + (h,) for s in subsets]
                rhs = sum(
                    restricted_count(pt, a, b, setup.tau)
                    * form_grading_sum(pt, a, kind)
                    for a in subsets
                )
                assert lhs == rhs


def test_index_equals_graded_zero_mode_count():
    setup = normalize_setup(SPHERE)
    for n in range(-6, 7):
        graded = 0
        for pt in setup.points:
            for sol in point_eigensolutions(pt, (n,), setup.tau, 0):
                graded += pt.lines[sol.line_index].grading
        assert graded == transverse_index(SPHERE, (n,)).value


def test_index_invariant_under_slope_choice():
    for tau in ([1, 2, 4], [1, 3, 9], ["3/2", "5/2", "7/2"]):
        setup = gen_cpn(2, tau=tau)
        assert transverse_index(setup, (0, 0, 0)).value == 3
        assert b_euler(setup, (2, -1, -1)) == 0
