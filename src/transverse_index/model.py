"""Domain types for fixed-point index data, with validation and orientation
normalization.

All data is exact: weight vectors are integer tuples, slope vectors are
tuples of positive ``Fraction``.  Every type is an immutable value; every
operation is a pure function.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

Weight = tuple[int, ...]
Slope = tuple[Fraction, ...]

KINDS = ("generic", "deRham", "signature")


class DegenerateWeight(ValueError):
    """Some tangent weight is orthogonal to the slope vector (k . tau = 0)."""


class NotNormalized(ValueError):
    """An operation requiring k . tau > 0 was handed unnormalized data."""


class NegativeCutoff(ValueError):
    """Spectrum cutoffs must be >= 0."""


class WrongOperatorKind(ValueError):
    """Operation only defined for a specific operator_kind."""


class ZeroB(ValueError):
    """The character must be nonzero here."""


class RankMismatch(ValueError):
    """The setup's torus rank does not match the requested operation."""


class InvalidTau(ValueError):
    """The slope vector violates a generator's constraints."""


class InfiniteMultiplicity(ValueError):
    """A required torus index multiplicity is not finite."""


class NothingToCheck(ValueError):
    """A sweep's box or character list holds no nonzero character."""


class EulerMismatch(ValueError):
    """The invariant-sector de Rham index differs from the fixed-point count."""


def weight(entries: Iterable[int]) -> Weight:
    return tuple(int(e) for e in entries)


def slope(entries: Iterable) -> Slope:
    """Build a slope vector from ints, Fractions or 'p/q' strings."""
    out = tuple(Fraction(e) for e in entries)
    if any(t <= 0 for t in out):
        raise InvalidTau(f"slope entries must be positive, got {out}")
    return out


def dot(k: Weight, tau: Slope) -> Fraction:
    return sum((Fraction(a) * t for a, t in zip(k, tau)), Fraction(0))


def neg(k: Weight) -> Weight:
    return tuple(-a for a in k)


@dataclass(frozen=True)
class BundleLine:
    """One weight line of the fiber at a fixed point.

    ``a`` is the torus character on the line, ``grading`` is +1/-1 for the
    even/odd half of the fiber, ``epsilon`` holds the +-1 eigenvalues of the
    volume elements of the tangent planes on this line (one per plane).
    """

    a: Weight
    grading: int
    epsilon: tuple[int, ...]


@dataclass(frozen=True)
class FixedPoint:
    """Local data at one singular point of the perturbing bundle map.

    ``base_orientation`` records whether the stored coordinates agree with
    the manifold orientation; ``orientation_sign`` is the same thing after
    normalization has possibly flipped some tangent planes.  ``group_sign``
    is -1 at points where the torus parameter runs backwards (it multiplies
    the character in every counting operation).
    """

    name: str
    tangent_weights: tuple[Weight, ...]
    lines: tuple[BundleLine, ...]
    base_orientation: int = 1
    orientation_sign: int = 1
    group_sign: int = 1

    @property
    def n(self) -> int:
        return len(self.tangent_weights)


@dataclass(frozen=True)
class OperatorSetup:
    """A complete fixed-point description of one transversally elliptic problem."""

    m: int
    tau: Slope
    points: tuple[FixedPoint, ...]
    operator_kind: str = "generic"


def fixed_point(name, tangent_weights, lines, base_orientation=1, group_sign=1) -> FixedPoint:
    """Convenience constructor; orientation_sign starts equal to base_orientation."""
    tw = tuple(weight(k) for k in tangent_weights)
    ls = tuple(
        ln if isinstance(ln, BundleLine)
        else BundleLine(weight(ln[0]), int(ln[1]), tuple(int(e) for e in ln[2]))
        for ln in lines
    )
    return FixedPoint(
        name=str(name),
        tangent_weights=tw,
        lines=ls,
        base_orientation=int(base_orientation),
        orientation_sign=int(base_orientation),
        group_sign=int(group_sign),
    )


def normalize_orientation(point: FixedPoint, tau: Slope) -> FixedPoint:
    """Flip tangent weights until every k . tau is positive.

    Each flip negates the weight (reversing the plane's orientation), so the
    returned point carries orientation_sign = base_orientation * (-1)^flips.
    The returned point's base_orientation is updated to match its stored
    coordinates, which makes the operation idempotent.  Lines are unchanged.
    """
    flips = 0
    new_weights = []
    for l, k in enumerate(point.tangent_weights):
        s = dot(k, tau)
        if s == 0:
            raise DegenerateWeight(
                f"{point.name}: tangent weight {l} has k.tau = 0 for tau={tau}"
            )
        if s < 0:
            new_weights.append(neg(k))
            flips += 1
        else:
            new_weights.append(k)
    sign = point.base_orientation * (-1) ** flips
    return replace(
        point,
        tangent_weights=tuple(new_weights),
        base_orientation=sign,
        orientation_sign=sign,
    )


def oscillator_frequencies(point: FixedPoint, tau: Slope) -> tuple[Fraction, ...]:
    """The positive speeds k_l . tau of a normalized point, in plane order."""
    freqs = tuple(dot(k, tau) for k in point.tangent_weights)
    if any(f <= 0 for f in freqs):
        raise NotNormalized(f"{point.name}: nonpositive k.tau in {freqs}")
    return freqs


def _check_sign(value, where: str, problems: list[str]) -> None:
    if value not in (1, -1):
        problems.append(f"{where} must be 1 or -1, got {value!r}")


def validate_setup(setup: OperatorSetup) -> list[str]:
    """Return a list of problems; the setup is usable iff the list is empty."""
    problems: list[str] = []
    if setup.m < 0:
        problems.append(f"m must be >= 0, got {setup.m}")
    if len(setup.tau) != setup.m:
        problems.append(f"tau has length {len(setup.tau)}, expected m={setup.m}")
    for p, t in enumerate(setup.tau):
        if t <= 0:
            problems.append(f"tau[{p}] must be positive, got {t}")
    if setup.operator_kind not in KINDS:
        problems.append(
            f"operator_kind must be one of {KINDS}, got {setup.operator_kind!r}"
        )
    for i, pt in enumerate(setup.points):
        where = f"points[{i}] ({pt.name})"
        n = pt.n
        _check_sign(pt.base_orientation, f"{where}.base_orientation", problems)
        _check_sign(pt.orientation_sign, f"{where}.orientation_sign", problems)
        _check_sign(pt.group_sign, f"{where}.group_sign", problems)
        for l, k in enumerate(pt.tangent_weights):
            if len(k) != setup.m:
                problems.append(
                    f"{where}.tangent_weights[{l}] has length {len(k)}, expected {setup.m}"
                )
        for j, ln in enumerate(pt.lines):
            if len(ln.a) != setup.m:
                problems.append(
                    f"{where}.lines[{j}].a has length {len(ln.a)}, expected {setup.m}"
                )
            _check_sign(ln.grading, f"{where}.lines[{j}].grading", problems)
            if len(ln.epsilon) != n:
                problems.append(
                    f"{where}.lines[{j}].epsilon has length {len(ln.epsilon)}, expected n={n}"
                )
            for l, e in enumerate(ln.epsilon):
                _check_sign(e, f"{where}.lines[{j}].epsilon[{l}]", problems)
        if len(setup.tau) == setup.m and all(t > 0 for t in setup.tau):
            if all(len(k) == setup.m for k in pt.tangent_weights):
                try:
                    normalize_orientation(pt, setup.tau)
                except DegenerateWeight as exc:
                    problems.append(f"{where}: {exc} (kappa = 0)")
    return problems


def normalize_setup(setup: OperatorSetup) -> OperatorSetup:
    """Normalize every point; validation errors surface as exceptions."""
    return replace(
        setup,
        points=tuple(normalize_orientation(pt, setup.tau) for pt in setup.points),
    )


def apply_group_sign(point: FixedPoint, character: Sequence[int]) -> Weight:
    """The character as seen at this point (group_sign folds the reversal in)."""
    if point.group_sign == 1:
        return weight(character)
    return tuple(-int(c) for c in character)
