"""Integer solutions of the weight equations behind kernels and spectra.

Two equation shapes are needed:

* kernel shape: m in Z^n, every m_h <= 0, with  sum m_h k_h = a + eta*b;
* restricted shape: c_h >= 1 (h in a subset A), with  eta*b = - sum c_h k_h.

Both are finite because the normalized frequencies kappa_h = k_h . tau are
positive: dotting the equation with tau pins the weighted sum of the
unknowns, which bounds each unknown.  Bounds are computed in exact integer
arithmetic on a common-denominator rescaling of tau.

The one enumerator, ``solutions_in_window``, is a depth-first search over
the unknowns with running partial sums whose image sum x_h k_h must land in
a box of targets; at each node the feasible window for the next unknown is
the intersection of the per-coordinate windows, so triangular systems (all
the worked examples) resolve without branching.  A single target is the
one-point box (``solve_in_box``); the residual sweeps walk a whole box of
characters at once.
"""
from __future__ import annotations

from math import lcm
from typing import Iterator, Sequence

from .model import (
    FixedPoint,
    NotNormalized,
    Slope,
    Weight,
    apply_group_sign,
)


def scaled_slope(tau: Slope) -> tuple[int, ...]:
    """tau rescaled by the lcm of its denominators; signs of all dot products survive."""
    if not tau:
        return ()
    scale = lcm(*(t.denominator for t in tau))
    return tuple(int(t * scale) for t in tau)


def _int_dot(k: Sequence[int], tau_scaled: Sequence[int]) -> int:
    return sum(a * t for a, t in zip(k, tau_scaled))


def _frequencies_scaled(point: FixedPoint, tau_scaled: Sequence[int]) -> tuple[int, ...]:
    freqs = tuple(_int_dot(k, tau_scaled) for k in point.tangent_weights)
    if any(f <= 0 for f in freqs):
        raise NotNormalized(
            f"{point.name}: normalize first, k.tau signs are {[f > 0 for f in freqs]}"
        )
    return freqs


def solutions_in_window(
    weights: Sequence[Weight],
    lows: Sequence[int],
    highs: Sequence[int],
    lo_vec: Sequence[int],
    hi_vec: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], Weight]]:
    """All integer x with lows <= x <= highs whose image sum x_h * weights[h]
    lies coordinatewise in [lo_vec, hi_vec], each paired with its image.

    Yields in lexicographic order of x.  The search prunes each unknown to
    the window allowed by every coordinate, given interval hulls of the
    still-free unknowns; at the last unknown the hulls are empty, so every
    leaf it reaches is a solution.
    """
    n = len(weights)
    m = len(lo_vec)
    if any(lo > hi for lo, hi in zip(lows, highs)):
        return
    if n == 0:
        if all(lo <= 0 <= hi for lo, hi in zip(lo_vec, hi_vec)):
            yield (), (0,) * m
        return
    # rest_min/rest_max[h][p]: hull of sum_{h' >= h} x_h' * k_h'p
    rest_min = [[0] * m for _ in range(n + 1)]
    rest_max = [[0] * m for _ in range(n + 1)]
    for h in range(n - 1, -1, -1):
        for p in range(m):
            k = weights[h][p]
            a, b = lows[h] * k, highs[h] * k
            if a > b:
                a, b = b, a
            rest_min[h][p] = rest_min[h + 1][p] + a
            rest_max[h][p] = rest_max[h + 1][p] + b

    acc = [0] * m
    x = [0] * n
    last = n - 1

    def dfs(h: int) -> Iterator[tuple[tuple[int, ...], Weight]]:
        xlo, xhi = lows[h], highs[h]
        kh = weights[h]
        nxt_min, nxt_max = rest_min[h + 1], rest_max[h + 1]
        for p in range(m):
            k = kh[p]
            # lo_vec[p] <= acc[p] + x*k + rest <= hi_vec[p], rest in the hull
            lo_need = lo_vec[p] - acc[p] - nxt_max[p]
            hi_need = hi_vec[p] - acc[p] - nxt_min[p]
            if k == 0:
                if lo_need > 0 or hi_need < 0:
                    return
            elif k > 0:
                xlo = max(xlo, -((-lo_need) // k))
                xhi = min(xhi, hi_need // k)
            else:
                xlo = max(xlo, -(hi_need // -k))
                xhi = min(xhi, (-lo_need) // -k)
            if xlo > xhi:
                return
        if h == last:
            for v in range(xlo, xhi + 1):
                x[h] = v
                yield tuple(x), tuple([a + v * k for a, k in zip(acc, kh)])
            return
        for v in range(xlo, xhi + 1):
            x[h] = v
            for p in range(m):
                acc[p] += v * kh[p]
            yield from dfs(h + 1)
            for p in range(m):
                acc[p] -= v * kh[p]

    yield from dfs(0)


def solve_in_box(
    weights: Sequence[Weight],
    target: Weight,
    lows: Sequence[int],
    highs: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """All integer x with lows <= x <= highs and sum x_h * weights[h] == target,
    in lexicographic order: the one-point window of ``solutions_in_window``."""
    for x, _ in solutions_in_window(weights, lows, highs, target, target):
        yield x


def _kernel_box(point, target, tau_scaled):
    """Bounds for the kernel shape, or None when no solution can exist."""
    freqs = _frequencies_scaled(point, tau_scaled)
    total = _int_dot(target, tau_scaled)
    if total > 0:
        return None
    # m_h * kappa_h >= total since every other term is <= 0
    lows = tuple(-((-total) // f) for f in freqs)
    highs = (0,) * point.n
    return lows, highs


def enumerate_kernel_solutions(
    point: FixedPoint,
    line_index: int,
    character: Sequence[int],
    tau: Slope,
) -> list[tuple[int, ...]]:
    """All m <= 0 with sum m_h k_h = a_j + eta*b, in lexicographic order.

    Empty unless every epsilon of the line is -1 (the volume elements must
    all act by -1 for a kernel contribution).
    """
    line = point.lines[line_index]
    tau_scaled = scaled_slope(tau)
    _frequencies_scaled(point, tau_scaled)
    if any(e != -1 for e in line.epsilon):
        return []
    b = apply_group_sign(point, character)
    target = tuple(a + c for a, c in zip(line.a, b))
    box = _kernel_box(point, target, tau_scaled)
    if box is None:
        return []
    lows, highs = box
    return list(solve_in_box(point.tangent_weights, target, lows, highs))


def kernel_count(
    point: FixedPoint,
    line_index: int,
    character: Sequence[int],
    tau: Slope,
) -> int:
    """The kernel dimension contributed by one line: #solutions of the kernel shape."""
    return len(enumerate_kernel_solutions(point, line_index, character, tau))


def restricted_count(
    point: FixedPoint,
    subset: Sequence[int],
    character: Sequence[int],
    tau: Slope,
) -> int:
    """Number of ways to write eta*b = - sum_{h in subset} c_h k_h with all c_h >= 1.

    ``subset`` holds 0-based tangent plane indices.  The count depends only
    on the integer equation; tau enters only through the finiteness bounds.
    """
    tau_scaled = scaled_slope(tau)
    freqs = _frequencies_scaled(point, tau_scaled)
    b = apply_group_sign(point, character)
    target = tuple(-c for c in b)
    sub = sorted(set(subset))
    if not sub:
        return 1 if all(c == 0 for c in target) else 0
    total = _int_dot(target, tau_scaled)
    sub_freqs = [freqs[h] for h in sub]
    if total < sum(sub_freqs):
        return 0
    others = sum(sub_freqs)
    lows = (1,) * len(sub)
    highs = tuple((total - (others - f)) // f for f in sub_freqs)
    sub_weights = [point.tangent_weights[h] for h in sub]
    return sum(1 for _ in solve_in_box(sub_weights, target, lows, highs))


def enumerate_nonneg_combinations(
    point: FixedPoint,
    character: Sequence[int],
    tau: Slope,
) -> Iterator[tuple[int, ...]]:
    """All c >= 0 with eta*b = - sum c_h k_h, any support.

    Grouping by support(c) recovers the per-subset restricted counts:
    restricted_count(point, A, b) = #{c here with support exactly A}.
    """
    tau_scaled = scaled_slope(tau)
    freqs = _frequencies_scaled(point, tau_scaled)
    b = apply_group_sign(point, character)
    target = tuple(-c for c in b)
    total = _int_dot(target, tau_scaled)
    if total < 0:
        return
    lows = (0,) * point.n
    highs = tuple(total // f for f in freqs)
    yield from solve_in_box(point.tangent_weights, target, lows, highs)
