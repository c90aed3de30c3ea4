"""Batch command-line interface.

Exit codes are stable across commands: 0 success, 1 verification failure
(a sweep found nonzero residuals), 2 validation failure, 3 parse failure.
stdout carries JSON only; diagnostics go to stderr.  Every number printed
is an integer or a lowest-terms rational string.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .model import (
    DegenerateWeight,
    InfiniteMultiplicity,
    InvalidTau,
    NegativeCutoff,
    NotNormalized,
    NothingToCheck,
    RankMismatch,
    WrongOperatorKind,
    ZeroB,
    validate_setup,
)
from .branching import su2_index
from .engine import b_signature_sum, transverse_index
from .generators import gen_cpn, gen_sphere_operator, gen_su2_mod_t
from .serialize import SetupParseError, load_setup, setup_to_json
from .spectrum import total_spectrum
from .sweeps import sweep_de_rham_vanishing, sweep_killing

OK, VERIFY_FAILED, VALIDATION_FAILED, PARSE_FAILED = 0, 1, 2, 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_character(text: str, m: int) -> tuple[int, ...]:
    text = text.strip()
    if text == "":
        entries: tuple[int, ...] = ()
    else:
        try:
            entries = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise _CliError(PARSE_FAILED, f"--b: expected comma-separated integers, got {text!r}")
    if len(entries) != m:
        raise _CliError(
            VALIDATION_FAILED,
            f"--b has {len(entries)} entries but the setup has torus rank m={m}",
        )
    return entries


def _load_validated(path):
    setup = load_setup(path)
    problems = validate_setup(setup)
    if problems:
        raise _CliError(
            VALIDATION_FAILED, "validation failed:\n  " + "\n  ".join(problems)
        )
    return setup


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _cmd_index(args) -> int:
    setup = _load_validated(args.setup)
    b = _parse_character(args.b, setup.m)
    if args.mode == "signature-sum":
        result = b_signature_sum(setup, b)
    else:
        result = transverse_index(setup, b)
    _emit(
        {
            "value": result.value,
            "per_point": [{"name": name, "term": term} for name, term in result.per_point],
        }
    )
    return OK


def _cmd_spectrum(args) -> int:
    setup = _load_validated(args.setup)
    b = _parse_character(args.b, setup.m)
    try:
        cutoff = Fraction(args.cutoff)
    except (ValueError, ZeroDivisionError):
        raise _CliError(PARSE_FAILED, f"--cutoff: bad rational {args.cutoff!r}")
    table = total_spectrum(setup, b, cutoff, mode=args.mode)
    doc = {}
    for lam, mult in sorted(table.as_dict().items()):
        doc[str(lam)] = mult
    _emit(doc)
    return OK


def _parse_b_list(text: str, m: int) -> list[tuple[int, ...]]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            out.append(_parse_character(part, m))
    return out


def _cmd_verify(args) -> int:
    setup = _load_validated(args.setup)
    if args.bmax is None and args.b_list is None:
        raise _CliError(PARSE_FAILED, "verify needs --bmax or --b-list")
    characters = _parse_b_list(args.b_list, setup.m) if args.b_list is not None else None
    if setup.operator_kind == "deRham":
        report = sweep_de_rham_vanishing(setup, bound=args.bmax, characters=characters)
    elif setup.operator_kind == "signature":
        report = sweep_killing(setup, bound=args.bmax, characters=characters)
    else:
        raise _CliError(
            VALIDATION_FAILED,
            "operator_kind: verify needs 'deRham' or 'signature', got "
            f"{setup.operator_kind!r}",
        )
    _emit(
        {
            "check": report.check,
            "strategy": report.strategy,
            "bound": report.bound,
            "checked": report.checked,
            "nonzero": [
                {"b": list(b), "residual": residual} for b, residual in report.nonzero
            ],
        }
    )
    return OK if report.ok else VERIFY_FAILED


def _cmd_generate(args) -> int:
    if args.name == "sphere":
        setup = gen_sphere_operator()
    elif args.name == "su2modt":
        setup = gen_su2_mod_t(kind=args.kind)
    else:
        if args.n is None:
            raise _CliError(PARSE_FAILED, "generate cpn needs --n")
        if args.n < 1:
            raise _CliError(VALIDATION_FAILED, f"--n must be >= 1, got {args.n}")
        tau = None
        if args.tau is not None:
            try:
                tau = [Fraction(part) for part in args.tau.split(",")]
            except (ValueError, ZeroDivisionError):
                raise _CliError(PARSE_FAILED, f"--tau: bad rational list {args.tau!r}")
        setup = gen_cpn(args.n, tau=tau, kind=args.kind)
    text = setup_to_json(setup)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return OK


def _cmd_branch_su2(args) -> int:
    if args.n < 0:
        raise _CliError(VALIDATION_FAILED, f"--n must be >= 0, got {args.n}")
    setup = _load_validated(args.setup)
    value = su2_index(setup, args.n)
    _emit({"value": str(value)})
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transverse-index",
        description="Exact equivariant index multiplicities from fixed-point data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="torus index multiplicity at one character")
    p.add_argument("setup")
    p.add_argument("--b", required=True, help="comma-separated character, e.g. 0,1,-2")
    p.add_argument(
        "--mode",
        choices=("transverse", "signature-sum"),
        default="transverse",
        help="signed kernel counts, or the per-point signature subset sums",
    )
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("spectrum", help="model-operator eigenvalue table")
    p.add_argument("setup")
    p.add_argument("--b", required=True)
    p.add_argument("--cutoff", required=True, help="inclusive bound, rational like 20 or 41/2")
    p.add_argument("--mode", choices=("generic", "numeric"), default="generic")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("verify", help="residual sweep of the vanishing identities")
    p.add_argument("setup")
    p.add_argument("--bmax", type=int, default=None, help="box bound on character entries")
    p.add_argument("--b-list", default=None, help="explicit characters, e.g. '1,0;-1,2'")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("generate", help="write a built-in example setup")
    p.add_argument("name", choices=("cpn", "sphere", "su2modt"))
    p.add_argument("--n", type=int, default=None, help="projective dimension for cpn")
    p.add_argument("--kind", choices=("deRham", "signature"), default="deRham")
    p.add_argument("--tau", default=None, help="comma-separated slope entries")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("branch-su2", help="SU(2) multiplicity via the branching table")
    p.add_argument("setup")
    p.add_argument("--n", type=int, required=True, help="highest weight, n >= 0")
    p.set_defaults(fn=_cmd_branch_su2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SetupParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_FAILED
    except (
        DegenerateWeight,
        NotNormalized,
        NegativeCutoff,
        WrongOperatorKind,
        ZeroB,
        RankMismatch,
        InvalidTau,
        InfiniteMultiplicity,
        NothingToCheck,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
