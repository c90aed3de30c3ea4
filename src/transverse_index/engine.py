"""Index computations from fixed-point data: the fixed-point index formula,
its de Rham / signature specializations, and the Killing-field identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .model import (
    EulerMismatch,
    FixedPoint,
    OperatorSetup,
    Slope,
    Weight,
    WrongOperatorKind,
    ZeroB,
    fixed_point,
    normalize_setup,
    weight,
)
from .lattice import enumerate_nonneg_combinations, kernel_count


@dataclass(frozen=True)
class IndexResult:
    """A signed count with its decomposition over fixed points."""

    value: int
    per_point: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FormLine:
    """One basis form line omega_i of the exterior-algebra fiber."""

    multi_index: tuple[int, ...]
    a: Weight
    epsilon: tuple[int, ...]
    grading: int


def transverse_index(setup: OperatorSetup, character: Sequence[int]) -> IndexResult:
    """sum over points and lines of grading(j) * kernel_count(j, b)."""
    normalized = normalize_setup(setup)
    per_point = []
    for pt in normalized.points:
        contrib = sum(
            line.grading * kernel_count(pt, j, character, normalized.tau)
            for j, line in enumerate(pt.lines)
        )
        per_point.append((pt.name, contrib))
    return IndexResult(value=sum(c for _, c in per_point), per_point=tuple(per_point))


def form_grading(multi_index: Sequence[int], kind: str, orientation_sign: int) -> int:
    """Grading of omega_i: form parity for deRham, chirality for signature."""
    if kind == "deRham":
        odd = sum(1 for i in multi_index if i in (3, 4))
        return 1 if odd % 2 == 0 else -1
    if kind == "signature":
        sign = orientation_sign
        for i in multi_index:
            sign *= (-1) ** (i + 1)
        return sign
    raise WrongOperatorKind(f"no form grading for operator_kind {kind!r}")


def form_lines(
    tangent_weights: Sequence[Weight],
    kind: str,
    orientation_sign: int,
    all_lines: bool = False,
    rank: int | None = None,
) -> tuple[FormLine, ...]:
    """The basis form lines over the given (normalized) tangent weights.

    By default only the 2^n lines with every index in {2, 4} are emitted:
    all remaining lines carry some epsilon = +1 and can never meet a kernel.
    ``all_lines`` emits the full 4^n basis so that the truncation can be
    checked directly.  ``rank`` is only needed when there are no tangent
    weights to infer it from.
    """
    n = len(tangent_weights)
    if rank is None:
        rank = len(tangent_weights[0]) if n else 0
    values = (1, 2, 3, 4) if all_lines else (2, 4)
    out = []
    for multi_index in product(values, repeat=n):
        a = [0] * rank
        for q, i in enumerate(multi_index):
            if i == 3:
                a = [x - y for x, y in zip(a, tangent_weights[q])]
            elif i == 4:
                a = [x + y for x, y in zip(a, tangent_weights[q])]
        epsilon = tuple((-1) ** (i + 1) for i in multi_index)
        out.append(
            FormLine(
                multi_index=multi_index,
                a=weight(a),
                epsilon=epsilon,
                grading=form_grading(multi_index, kind, orientation_sign),
            )
        )
    return tuple(out)


def build_form_datum(
    name: str,
    tangent_weights: Sequence[Weight],
    kind: str,
    orientation_sign: int,
    group_sign: int = 1,
    all_lines: bool = False,
    rank: int | None = None,
) -> FixedPoint:
    """Fixed-point datum of the de Rham / signature operator at one point.

    ``tangent_weights`` must already satisfy k . tau > 0; the caller passes
    the orientation sign produced by that normalization.
    """
    lines = [
        (line.a, line.grading, line.epsilon)
        for line in form_lines(tangent_weights, kind, orientation_sign, all_lines, rank)
    ]
    pt = fixed_point(
        name,
        tangent_weights,
        lines,
        base_orientation=orientation_sign,
        group_sign=group_sign,
    )
    return pt


def _require_kind(setup: OperatorSetup, kind: str, op: str) -> None:
    if setup.operator_kind != kind:
        raise WrongOperatorKind(
            f"{op} needs operator_kind={kind!r}, setup has {setup.operator_kind!r}"
        )


def euler_characteristic(setup: OperatorSetup) -> int:
    """Number of fixed points; equals the invariant-sector index of the de Rham operator."""
    _require_kind(setup, "deRham", "euler_characteristic")
    count = len(setup.points)
    zero = (0,) * setup.m
    index = transverse_index(setup, zero).value
    if index != count:
        raise EulerMismatch(
            f"invariant index {index} disagrees with point count {count}"
        )
    return count


def signature(setup: OperatorSetup) -> int:
    """(-1)^n times the sum of orientation signs over the fixed points."""
    _require_kind(setup, "signature", "signature")
    normalized = normalize_setup(setup)
    return sum((-1) ** pt.n * pt.orientation_sign for pt in normalized.points)


def b_euler(setup: OperatorSetup, character: Sequence[int]) -> int:
    """The de Rham index in a nontrivial character sector (expected: 0)."""
    _require_kind(setup, "deRham", "b_euler")
    if all(c == 0 for c in character):
        raise ZeroB("b_euler needs a nonzero character; use euler_characteristic")
    return transverse_index(setup, character).value


def point_signature_term(point: FixedPoint, character: Sequence[int], tau: Slope) -> int:
    """orientation_sign * sum over subsets A of 2^|A| * restricted_count(A, b).

    Computed as one weighted cone count: every c >= 0 solving the restricted
    equation contributes 2^(size of its support).
    """
    total = 0
    for c in enumerate_nonneg_combinations(point, character, tau):
        total += 1 << sum(1 for x in c if x > 0)
    return point.orientation_sign * total


def b_signature_sum(setup: OperatorSetup, character: Sequence[int]) -> IndexResult:
    """The signature-operator index sum in a character sector, per point."""
    normalized = normalize_setup(setup)
    per_point = tuple(
        (pt.name, point_signature_term(pt, character, normalized.tau))
        for pt in normalized.points
    )
    return IndexResult(value=sum(t for _, t in per_point), per_point=per_point)


def verify_killing_identity(setup: OperatorSetup, character: Sequence[int]) -> int:
    """Residual of the Killing-field identity; 0 for data from a genuine
    torus action and a nonzero character (computed, never assumed)."""
    return b_signature_sum(setup, character).value


def form_grading_sum(point: FixedPoint, subset: Sequence[int], kind: str) -> int:
    """Sum of gradings over the multi-indices that are 4 on the subset or 2 elsewhere.

    deRham: parity cancellation kills every nonempty subset.  signature: all
    2^|A| terms share the sign (-1)^n * orientation_sign.
    """
    n = point.n
    sub = sorted(set(subset))
    total = 0
    for choice in product((2, 4), repeat=len(sub)):
        multi_index = [2] * n
        for pos, val in zip(sub, choice):
            multi_index[pos] = val
        total += form_grading(tuple(multi_index), kind, point.orientation_sign)
    return total
