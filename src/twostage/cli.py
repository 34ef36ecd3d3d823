"""Command-line front end.

Every command prints a single JSON document to stdout with sorted keys, so
output is byte-deterministic for fixed inputs and flags (the only exception
is the wall-clock ``duration_seconds`` field).  One rule, ``_doc``, renders
every result object: a dataclass by its field names, so the documents carry
the library's own names, a tuple as a list, and a dict with string keys.
Exact rationals appear as ``{"exact": "p/q", "decimal": <12 significant
digits>}`` pairs, and an exact value may have more digits than an input may.

Exit codes are part of the contract:
  0  success
  1  validation failure (instance invariants, contract dimensions, family
     parameter constraints, among them an instance ``generate`` could not
     read back, and negative rewards for ``compare``,
     ``solve --contract linear`` and ``breakpoints``, since linear contracts
     need non-negative rewards, and ``simulate`` values past float range)
  2  enumeration cap exceeded
  3  I/O, JSON or command-line parse error
  4  internal error: a solver self-check failed (a bug, reported on stderr)
A failing command prints nothing on stdout, only its message on stderr;
``validate`` still prints its report when it exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from . import contracts as solvers
from .agent import best_response, simulate
from .generators import FAMILIES, FamilyParams, generate
from .linear import LinearOptimum, analyze
from .model import (
    Instance,
    InstanceFormatError,
    LinearContract,
    classify,
    contract_from_json,
    contract_to_dict,
    format_rational,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    validate,
)
from .welfare import max_welfare

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAP = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


# Decimal strings come from this context alone, never the caller's global one.
_DECIMAL = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _decimal_str(value: Fraction) -> str:
    """``value`` to 12 significant digits, rounded half to even."""
    return _DECIMAL.to_sci_string(_DECIMAL.divide(Decimal(value.numerator), Decimal(value.denominator)))


def _doc(value):
    """The JSON form of a result: a dataclass by its fields, a ``Fraction`` as
    its exact and decimal strings, a tuple as a list and a dict with ``str``
    keys (``sort_keys`` then puts state "10" before "2"); any other value as it is."""
    kind = type(value)
    if kind is Fraction:
        return {"exact": format_rational(value), "decimal": _decimal_str(value)}
    if kind is tuple:
        return [_doc(v) for v in value]
    if kind is dict:
        return {str(k): _doc(v) for k, v in value.items()}
    names = _field_names(kind)
    return value if names is None else {name: _doc(getattr(value, name)) for name in names}


@functools.cache
def _field_names(kind: type) -> tuple[str, ...] | None:
    """A dataclass type's field names, or None for any other type."""
    return tuple(f.name for f in dataclasses.fields(kind)) if dataclasses.is_dataclass(kind) else None


def _ratio(numerator: Fraction, denominator: Fraction):
    return _doc(numerator / denominator) if denominator != 0 else None


def instance_digest(instance: Instance) -> str:
    canonical = json.dumps(instance_to_dict(instance), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# --- commands -----------------------------------------------------------------
# A command that takes an instance receives it already validated and returns
# its document; ``main`` adds ``command`` and ``instance_digest`` and prints it.


def _cmd_classify(args, instance: Instance) -> dict:
    process_class = classify(instance)
    return {**_doc(process_class), "label": process_class.label}


def _cmd_welfare(args, instance: Instance) -> dict:
    return _doc(max_welfare(instance))


def _solver_result(optimizer: str, instance: Instance, args) -> tuple[solvers.SolveReport, dict]:
    # Looked up on the module at call time, so that wrappers installed there see every call.
    report = getattr(solvers, optimizer)(instance, profiles_cap=args.profiles_cap)
    return report, {
        "contract": contract_to_dict(report.best_contract, _doc),
        "profile": _doc(report.best_response.profile),
        "payment": _doc(report.best_response.expected_payment),
        "profit": _doc(report.profit),
        "profiles_enumerated": report.profiles_enumerated,
        "termination_sets_enumerated": report.termination_sets_enumerated,
        "infeasible_profiles": report.infeasible_profiles,
        "programs_solved": report.programs_solved,
    }


def _linear_result(instance: Instance, args) -> tuple[LinearOptimum, dict]:
    analysis = analyze(instance)
    alpha = analysis.optimal.alpha
    segment = next(seg for seg in analysis.segments if seg.alpha_low == alpha)
    return analysis.optimal, {
        "contract": contract_to_dict(LinearContract(alpha), _doc),
        "profile": _doc(segment.profile),
        "payment": _doc(alpha * segment.reward),
        "profit": _doc(analysis.optimal.profit),
        "breakpoints": len(analysis.breakpoints),
    }


# Contract kind -> (optimum, result document), in the order ``compare`` runs
# them.  The optimum carries the exact ``profit``; the standard one also
# carries the ``welfare`` that ``compare`` reports.  Linear goes first: it
# rejects a negative reward before any search runs.
_KINDS = {
    "linear": _linear_result,
    **{kind: functools.partial(_solver_result, f"optimal_{kind}") for kind in ("standard", "pay", "terminate")},
}


def _cmd_solve(args, instance: Instance) -> dict:
    started = time.perf_counter()
    optimum, result = _KINDS[args.contract](instance, args)
    welfare = max_welfare(instance).max_welfare
    return {
        "contract_kind": args.contract,
        "result": result,
        "welfare": _doc(welfare),
        "profit_over_welfare": _ratio(optimum.profit, welfare),
        "duration_seconds": time.perf_counter() - started,
    }


def _cmd_compare(args, instance: Instance) -> dict:
    started = time.perf_counter()
    solved = {kind: solve(instance, args) for kind, solve in _KINDS.items()}
    profit = {kind: optimum.profit for kind, (optimum, _) in solved.items()}
    welfare = solved["standard"][0].welfare
    return {
        "process_class": classify(instance).label,
        "welfare": _doc(welfare),
        "results": {kind: result for kind, (_, result) in solved.items()},
        "ratios": {
            "profit_over_welfare": _ratio(max(profit.values()), welfare),
            "pay_over_standard": _ratio(profit["pay"], profit["standard"]),
            "terminate_over_standard": _ratio(profit["terminate"], profit["standard"]),
        },
        "duration_seconds": time.perf_counter() - started,
    }


def _cmd_best_response(args, instance: Instance) -> dict:
    contract = contract_from_json(_read(args.contract_file))
    return {**_doc(best_response(instance, contract)), "contract": contract_to_dict(contract, _doc)}


def _cmd_breakpoints(args, instance: Instance) -> dict:
    analysis = analyze(instance)
    if args.csv:
        # A segment's left end is scored by its own profile (see ``analyze``).
        # At alpha = 1 every profile earns 0 and ties go to the lowest index,
        # which only the best response knows.
        at_one = best_response(instance, LinearContract(Fraction(1)))
        rows = [(seg.alpha_low, seg.profit_at_low, seg.profile) for seg in analysis.segments]
        rows.append((Fraction(1), at_one.principal_profit, at_one.profile))
        lines = ["alpha_exact,alpha_decimal,profit_exact,profit_decimal,profile"]
        for alpha, profit, profile in rows:
            finals = ";".join(str(j) for _, j in sorted(profile.finals.items()))
            cells = [pair[form] for pair in (_doc(alpha), _doc(profit)) for form in ("exact", "decimal")]
            lines.append(",".join([*cells, f"{profile.initial}|{finals}"]))
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return _doc(analysis)


def _cmd_simulate(args, instance: Instance) -> dict:
    contract = contract_from_json(_read(args.contract_file))
    result = simulate(instance, contract, args.episodes, args.seed)
    return {**_doc(result), "contract": contract_to_dict(contract, _doc), "episodes": args.episodes, "seed": args.seed}


def _parse_param(text: str) -> tuple[str, str]:
    name, equals, value = text.partition("=")
    if not equals:
        raise InstanceFormatError(f"parameters take the form name=value, got {text!r}")
    return name, value  # as text: the family's builder reads it


def _cmd_generate(args) -> int:
    params = dict(_parse_param(p) for p in args.param or [])
    instance = generate(FamilyParams(args.family, params))
    text = instance_to_json(instance)
    try:  # write only what twostage reads back, e.g. no number over the digit limit
        instance_from_json(text)
    except InstanceFormatError as exc:
        raise ValueError(f"the family parameters give an unreadable instance: {exc}") from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


# --- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # command-line parse errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twostage", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("instance")
        return p

    add("validate", None, help="check instance invariants")
    add("classify", _cmd_classify, help="report the process class flags")
    add("welfare", _cmd_welfare, help="maximal welfare and its profile")

    solve = add("solve", _cmd_solve, help="optimal contract of one kind")
    solve.add_argument("--contract", required=True, choices=("standard", "linear", "pay", "terminate"))

    p = add("best-response", _cmd_best_response, help="agent behavior under a contract file")
    p.add_argument("--contract-file", required=True)

    p = add("breakpoints", _cmd_breakpoints, help="linear-contract breakpoint analysis")
    p.add_argument("--csv", help="also write per-candidate plot data to this path")

    p = sub.add_parser("generate", help="emit an instance from a named family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", help="write to this path instead of stdout")

    compare = add("compare", _cmd_compare, help="all four optima side by side")
    for p in (solve, compare):
        p.add_argument("--profiles-cap", type=int, default=solvers.DEFAULT_PROFILES_CAP)

    p = add("simulate", _cmd_simulate, help="Monte Carlo cross-check of a contract file")
    p.add_argument("--contract-file", required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        instance = instance_from_json(_read(args.instance))
        report = validate(instance)
        if args.command == "validate":  # the report is the output, valid or not
            doc = {**_doc(report), "ok": report.ok}
        elif not report.ok:
            for violation in report.violations:
                print(f"invalid instance: {violation}", file=sys.stderr)
            return EXIT_VALIDATION
        else:
            doc = args.func(args, instance)
            doc["instance_digest"] = instance_digest(instance)
        doc["command"] = args.command
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK if report.ok else EXIT_VALIDATION
    except solvers.EnumerationCapExceeded as exc:
        print(f"twostage: {exc}", file=sys.stderr)
        return EXIT_CAP
    except solvers.SolverInvariantError as exc:
        print(f"twostage: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (InstanceFormatError, OSError, UnicodeDecodeError) as exc:  # a file not in UTF-8; a ValueError, so first
        print(f"twostage: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"twostage: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
