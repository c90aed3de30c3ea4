"""Exhaustive residual sweeps over character boxes.

A box sweep is a scatter: one pruned enumeration per fixed point (Killing
identity) or per kernel line (de Rham vanishing) walks every solution whose
character lands in the box, and adds the solution's signed weight to that
character's residual.  A character the walks never reach has every count
empty, so its residual is identically zero: the report covers the whole box
exactly.  Explicit character lists are evaluated by the engine formulas.
The zero character is never checked; a sweep that would check no character
raises ``NothingToCheck``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .engine import b_signature_sum, transverse_index
from .model import NothingToCheck, OperatorSetup, Weight, WrongOperatorKind, normalize_setup
from .lattice import _frequencies_scaled, scaled_slope, solutions_in_window


@dataclass(frozen=True)
class SweepReport:
    check: str
    strategy: str
    bound: Optional[int]
    checked: int
    nonzero: tuple[tuple[Weight, int], ...]

    @property
    def ok(self) -> bool:
        return not self.nonzero


def _killing_scatter(setup: OperatorSetup, bound: int) -> dict[Weight, int]:
    """b -> b_signature_sum(b) for every b in the box that some c >= 0 reaches.

    At each point, every c >= 0 with -eta * sum c_h k_h = b in the box adds
    orientation * 2^|supp c| to b.
    """
    normalized = normalize_setup(setup)
    tau_scaled = scaled_slope(normalized.tau)
    box_lo = (-bound,) * setup.m
    box_hi = (bound,) * setup.m
    # sum c_h kappa_h = -eta * b . tau <= bound * sum(tau) caps each c_h
    reach = bound * sum(tau_scaled)
    out: dict[Weight, int] = {}
    for pt in normalized.points:
        freqs = _frequencies_scaled(pt, tau_scaled)
        eta, orientation, n = pt.group_sign, pt.orientation_sign, pt.n
        highs = tuple(reach // f for f in freqs)
        for c, y in solutions_in_window(pt.tangent_weights, (0,) * n, highs, box_lo, box_hi):
            b = tuple([-eta * v for v in y])
            out[b] = out.get(b, 0) + (orientation << (n - c.count(0)))
    return out


def _de_rham_scatter(setup: OperatorSetup, bound: int) -> dict[Weight, int]:
    """b -> transverse_index(b) for every b in the box that some kernel reaches.

    On each line whose epsilons are all -1, every m <= 0 with
    sum m_h k_h = a + eta * b, b in the box, adds the line's grading to b.
    """
    normalized = normalize_setup(setup)
    tau_scaled = scaled_slope(normalized.tau)
    out: dict[Weight, int] = {}
    for pt in normalized.points:
        freqs = _frequencies_scaled(pt, tau_scaled)
        eta = pt.group_sign
        for line in pt.lines:
            if any(e != -1 for e in line.epsilon):
                continue
            lo_vec = tuple(a - bound for a in line.a)
            hi_vec = tuple(a + bound for a in line.a)
            # m_h * kappa_h >= y . tau >= t_min, since every other term is <= 0
            t_min = sum(
                lo * t if t > 0 else hi * t
                for lo, hi, t in zip(lo_vec, hi_vec, tau_scaled)
            )
            if t_min > 0:
                continue
            lows = tuple(-((-t_min) // f) for f in freqs)
            for _, y in solutions_in_window(pt.tangent_weights, lows, (0,) * pt.n, lo_vec, hi_vec):
                b = tuple([eta * (v - a) for v, a in zip(y, line.a)])
                out[b] = out.get(b, 0) + line.grading
    return out


def kernel_support(setup: OperatorSetup, bound: int) -> set[Weight]:
    """All b in the box that solve some line's kernel equation at some point."""
    return set(_de_rham_scatter(setup, bound))


def signature_support(setup: OperatorSetup, bound: int) -> set[Weight]:
    """All b in the box with eta*b = -sum c_h k_h solvable in c >= 0 somewhere."""
    return set(_killing_scatter(setup, bound))


def _sweep(check, setup, bound, characters, scatter, residual) -> SweepReport:
    if characters is not None:
        explicit = sorted({tuple(int(x) for x in b) for b in characters})
        candidates = [b for b in explicit if any(b)]
        if not candidates:
            raise NothingToCheck(
                "the character list holds no nonzero character; nothing would be checked"
            )
        nonzero = tuple(
            (b, r) for b in candidates if (r := residual(setup, b).value) != 0
        )
        return SweepReport(check, "explicit-list", bound, len(candidates), nonzero)
    if bound is None:
        raise ValueError("provide either a bound or an explicit character list")
    checked = (2 * bound + 1) ** setup.m - 1 if bound >= 0 else 0
    if checked <= 0:
        raise NothingToCheck(
            f"box bound {bound} at rank m={setup.m} holds no nonzero character; "
            "nothing would be checked"
        )
    nonzero = tuple(
        sorted((b, r) for b, r in scatter(setup, bound).items() if r != 0 and any(b))
    )
    return SweepReport(check, "full-box", bound, checked, nonzero)


def sweep_killing(
    setup: OperatorSetup,
    bound: Optional[int] = None,
    characters: Optional[Iterable[Sequence[int]]] = None,
) -> SweepReport:
    """Residuals of the Killing-field identity over a box or explicit list.

    The zero character is excluded: there the sum collapses to the plain
    orientation count (the signature identity), not to zero.
    """
    return _sweep("killing-identity", setup, bound, characters, _killing_scatter, b_signature_sum)


def sweep_de_rham_vanishing(
    setup: OperatorSetup,
    bound: Optional[int] = None,
    characters: Optional[Iterable[Sequence[int]]] = None,
) -> SweepReport:
    """Residuals of the nonzero-character de Rham vanishing over a box or list."""
    if setup.operator_kind != "deRham":
        raise WrongOperatorKind(
            f"de Rham sweep needs operator_kind='deRham', got {setup.operator_kind!r}"
        )
    return _sweep("deRham-vanishing", setup, bound, characters, _de_rham_scatter, transverse_index)
