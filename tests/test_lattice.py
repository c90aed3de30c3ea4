"""Kernel and restricted lattice counts against brute-force boxes."""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transverse_index import (
    NotNormalized,
    enumerate_kernel_solutions,
    enumerate_nonneg_combinations,
    fixed_point,
    gen_cpn,
    gen_sphere_operator,
    kernel_count,
    normalize_setup,
    restricted_count,
    slope,
)
from transverse_index.lattice import solutions_in_window

from oracles import (
    brute_kernel_count,
    brute_kernel_solutions,
    brute_restricted_count,
    effective_character,
    frac_dot,
)

SPHERE = gen_sphere_operator()
NP = SPHERE.points[0]
CP2 = normalize_setup(gen_cpn(2, tau=[1, 2, 4]))
TAU3 = CP2.tau


def test_sphere_np_second_line():
    # 2m = 1 - 3 has the single solution m = -1
    assert kernel_count(NP, 1, (-3,), SPHERE.tau) == 1
    assert enumerate_kernel_solutions(NP, 1, (-3,), SPHERE.tau) == [(-1,)]


def test_epsilon_gate_returns_zero():
    assert kernel_count(NP, 0, (-3,), SPHERE.tau) == 0
    assert enumerate_kernel_solutions(NP, 0, (-3,), SPHERE.tau) == []


def test_cp2_invariant_form_line():
    pt = CP2.points[0]
    k1, k2 = pt.tangent_weights
    b = tuple(-x - 2 * y for x, y in zip(k1, k2))
    # line 0 is the all-even multi-index (a = 0)
    assert pt.lines[0].a == (0, 0, 0)
    assert enumerate_kernel_solutions(pt, 0, b, TAU3) == [(-1, -2)]
    assert kernel_count(pt, 0, b, TAU3) == brute_kernel_count(pt, 0, b, TAU3) == 1


def test_cp2_mixed_form_line_against_oracle():
    pt = CP2.points[0]
    k1, k2 = pt.tangent_weights
    line_index = 1  # multi-index (2, 4), so a = k2
    a = pt.lines[line_index].a
    assert a == k2
    b = tuple(-2 * x - 3 * y - z for x, y, z in zip(k1, k2, a))
    sols = enumerate_kernel_solutions(pt, line_index, b, TAU3)
    assert sols == [(-2, -3)]
    assert sols == brute_kernel_solutions(pt, line_index, b, TAU3)


def test_positive_dot_product_means_empty():
    # target with positive slope pairing cannot be a nonpositive combination
    assert enumerate_kernel_solutions(NP, 1, (5,), SPHERE.tau) == []


def test_solutions_satisfy_both_equations():
    pt = CP2.points[1]
    b = (2, -3, 1)
    for j, line in enumerate(pt.lines):
        eb = effective_character(pt, b)
        target = tuple(a + c for a, c in zip(line.a, eb))
        for sol in enumerate_kernel_solutions(pt, j, b, TAU3):
            assert all(x <= 0 for x in sol)
            total = [0, 0, 0]
            for coef, k in zip(sol, pt.tangent_weights):
                for p in range(3):
                    total[p] += coef * k[p]
            assert tuple(total) == target
            kappas = [frac_dot(k, TAU3) for k in pt.tangent_weights]
            assert sum(
                (c * kap for c, kap in zip(sol, kappas)), Fraction(0)
            ) == frac_dot(target, TAU3)


def test_kernel_count_requires_normalized_data():
    pt = fixed_point("bad", [(-1,)], [((0,), 1, (-1,))])
    with pytest.raises(NotNormalized):
        kernel_count(pt, 0, (0,), slope([1]))


def test_restricted_count_cpn_admissible_is_one():
    pt = CP2.points[1]  # [e_2]: weights e_2 - e_1 and e_3 - e_2 after flips
    # c = (2, 3) on both planes determines b uniquely
    target = [0, 0, 0]
    for c, k in zip((2, 3), pt.tangent_weights):
        for p in range(3):
            target[p] -= c * k[p]
    b = tuple(pt.group_sign * t for t in target)
    assert restricted_count(pt, (0, 1), b, TAU3) == 1
    assert brute_restricted_count(pt, (0, 1), b, TAU3) == 1
    assert restricted_count(pt, (0,), b, TAU3) == 0


def test_restricted_count_empty_subset():
    pt = CP2.points[0]
    assert restricted_count(pt, (), (0, 0, 0), TAU3) == 1
    assert restricted_count(pt, (), (1, 0, -1), TAU3) == 0


def test_restricted_count_colinear_weights():
    pt = fixed_point("col", [(1, 0), (2, 0)], [])
    tau = slope([1, 1])
    assert restricted_count(pt, (0, 1), (-4, 0), tau) == 1
    assert brute_restricted_count(pt, (0, 1), (-4, 0), tau) == 1
    # without the first generator there is exactly one way too: c = (2,)
    assert restricted_count(pt, (1,), (-4, 0), tau) == 1


def test_nonneg_combinations_group_to_restricted_counts():
    pt = fixed_point("col", [(1, 0), (2, 0)], [])
    tau = slope([1, 1])
    by_support = {}
    for c in enumerate_nonneg_combinations(pt, (-4, 0), tau):
        support = tuple(i for i, x in enumerate(c) if x > 0)
        by_support[support] = by_support.get(support, 0) + 1
    assert by_support == {(0,): 1, (1,): 1, (0, 1): 1}


@st.composite
def window_problems(draw):
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    small = st.integers(-3, 3)
    weights = [draw(st.tuples(*[small] * m)) for _ in range(n)]
    lows = draw(st.tuples(*[small] * n))
    highs = tuple(lo + draw(st.integers(-1, 4)) for lo in lows)
    lo_vec = draw(st.tuples(*[st.integers(-8, 8)] * m))
    hi_vec = tuple(lo + draw(st.integers(-1, 6)) for lo in lo_vec)
    return weights, lows, highs, lo_vec, hi_vec


@given(window_problems())
@settings(max_examples=200, deadline=None)
def test_solutions_in_window_matches_box_oracle(problem):
    # every x in the unknown box whose image lands in the window, in
    # lexicographic order, each with its image; no box, weight or window
    # sign is assumed
    weights, lows, highs, lo_vec, hi_vec = problem
    expected = []
    for x in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        image = tuple(
            sum(xh * k[p] for xh, k in zip(x, weights)) for p in range(len(lo_vec))
        )
        if all(lo <= y <= hi for lo, y, hi in zip(lo_vec, image, hi_vec)):
            expected.append((x, image))
    assert list(solutions_in_window(weights, lows, highs, lo_vec, hi_vec)) == expected


@st.composite
def counting_problems(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 2))
    entries = st.integers(-4, 4)
    tau = slope(draw(st.lists(st.sampled_from([1, 2, 3]), min_size=m, max_size=m)))
    weights = []
    for _ in range(n):
        k = draw(
            st.tuples(*[entries] * m).filter(
                lambda k: frac_dot(k, tau) > 0
            )
        )
        weights.append(k)
    r = draw(st.integers(1, 2))
    lines = []
    for _ in range(r):
        a = draw(st.tuples(*[entries] * m))
        grading = draw(st.sampled_from([1, -1]))
        eps = draw(st.tuples(*[st.sampled_from([1, -1])] * n))
        lines.append((a, grading, eps))
    group_sign = draw(st.sampled_from([1, -1]))
    pt = fixed_point("rnd", weights, lines, group_sign=group_sign)
    b = draw(st.tuples(*[entries] * m))
    return pt, b, tau


@given(counting_problems())
@settings(max_examples=100, deadline=None)
def test_kernel_count_matches_box_oracle(problem):
    pt, b, tau = problem
    for j in range(len(pt.lines)):
        assert kernel_count(pt, j, b, tau) == brute_kernel_count(pt, j, b, tau)
        assert enumerate_kernel_solutions(pt, j, b, tau) == brute_kernel_solutions(
            pt, j, b, tau
        )


@given(counting_problems())
@settings(max_examples=100, deadline=None)
def test_restricted_count_matches_box_oracle(problem):
    pt, b, tau = problem
    n = len(pt.tangent_weights)
    for subset in _subsets(n):
        assert restricted_count(pt, subset, b, tau) == brute_restricted_count(
            pt, subset, b, tau
        )


@given(counting_problems(), st.sampled_from([[1, 1, 1], [2, 1, 3], [1, 3, 2]]))
@settings(max_examples=60, deadline=None)
def test_counts_do_not_depend_on_tau(problem, tau_entries):
    pt, b, tau = problem
    other = slope(tau_entries[: len(tau)])
    if any(frac_dot(k, other) <= 0 for k in pt.tangent_weights):
        return  # different flip pattern: not a slope for this normalized datum
    for j in range(len(pt.lines)):
        assert kernel_count(pt, j, b, tau) == kernel_count(pt, j, b, other)
    for subset in _subsets(len(pt.tangent_weights)):
        assert restricted_count(pt, subset, b, tau) == restricted_count(
            pt, subset, b, other
        )


def _subsets(n):
    out = [()]
    for h in range(n):
        out += [s + (h,) for s in out]
    return out
