"""Command-line surface for the verification pipeline.

Exit codes: 0 = verdict true, 1 = verdict false, 2 = inconclusive,
64 = usage error, 65 = malformed input data, 66 = missing family/file.
Reports embed their full run configuration; identical argv and seed produce
byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass

from . import catalog
from .abelrank import check_rank, verify_max_rank
from .combin import (
    calibrated_max_rank,
    exact_support_dims,
    max_rank_bound,
    monomial_count,
)
from .expr import ParseError
from .ordinary import (
    GenericPointSampler,
    check_finite_criterion,
    check_ordinary_at,
    crosscheck_ordinary,
)
from .report import INCONCLUSIVE, TRUE, combine_verdicts, exit_code, jsonable
from .scalars import DEFAULT_PRECISION, Mode
from .web import BalancedSet, assemble, load_balanced_set, validate_balanced

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66


@dataclass
class RunConfig:
    """Everything needed to reproduce a run; echoed into every report."""

    command: str
    input: str | None
    seed: int
    precision_bits: int
    format: str
    n: list[int] | None = None
    m_start: int | None = None
    m_cap: int | None = None
    corroborate: bool = False


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit EX_USAGE on a malformed command line, not argparse's 2."""
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class _InputError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_set(args) -> tuple[BalancedSet, str, catalog.FamilySpec | None]:
    if getattr(args, "family", None):
        try:
            E, spec = catalog.get_family(args.family)
        except KeyError as err:
            raise _InputError(str(err.args[0]), EX_NOINPUT) from None
        return E, args.family, spec
    path = getattr(args, "input", None)
    if not path:
        raise _InputError("one of --family or --input is required", EX_USAGE)
    try:
        return load_balanced_set(path), path, None
    except FileNotFoundError:
        raise _InputError(f"no such file: {path}", EX_NOINPUT) from None
    except (json.JSONDecodeError, ParseError, ValueError) as err:
        raise _InputError(f"bad web definition {path}: {err}", EX_DATAERR) from None


def _require_at_least(option: str, values, low: int) -> None:
    """Reject out-of-range option values before any computation."""
    for value in values or ():
        if value < low:
            raise _InputError(f"{option} must be >= {low}, got {value}", EX_USAGE)


def _single(option: str, values) -> None:
    """Reject a repeated option that the command would only read once."""
    if values and len(values) > 1:
        raise _InputError(f"{option} given {len(values)} times, takes one", EX_USAGE)


def _checked_mode(E: BalancedSet, precision: int) -> Mode:
    """The family's scalar mode; a --precision it cannot use is a usage error."""
    try:
        return E.default_mode(precision)
    except ValueError as err:
        raise _InputError(f"--precision: {err}", EX_USAGE) from None


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(jsonable(payload), sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _config(args, command: str, **extra) -> RunConfig:
    return RunConfig(
        command=command,
        input=getattr(args, "family", None) or getattr(args, "input", None),
        seed=args.seed,
        precision_bits=getattr(args, "precision", DEFAULT_PRECISION),
        format=args.format,
        **extra,
    )


# ---------------------------------------------------------------------------
# commands

def _cmd_catalog(args) -> int:
    entries = []
    for name in catalog.family_names():
        _, spec = catalog.get_family(name)
        entries.append(
            {
                "name": spec.name,
                "k0": spec.k0,
                "provenance": spec.provenance,
                "expected": {
                    "ordinary": spec.expected_ordinary,
                    "max_rank": spec.expected_max_rank,
                },
                "webs": [list(w) for w in spec.webs],
            }
        )
    lines = []
    for e in entries:
        lines.append(f"{e['name']}  (k0={e['k0']})")
        lines.append(f"  {e['provenance']}")
        lines.append(
            f"  expected: ordinary={e['expected']['ordinary']} "
            f"max_rank={e['expected']['max_rank']}"
        )
    _emit({"families": entries}, args.format, lines)
    return 0


def _cmd_counts(args) -> int:
    k0, n_max = args.k0, args.n
    if k0 < 2 or n_max < 2:
        raise _InputError("counts requires --k0 >= 2 and --n >= 2", EX_USAGE)
    table = exact_support_dims(k0, max(n_max, k0))
    rows = []
    for n in range(2, n_max + 1):
        d = monomial_count(n, k0)
        rows.append(
            {
                "n": n,
                "web_size": d,
                "max_rank_bound": max_rank_bound(n, d),
                "calibrated_max_rank": calibrated_max_rank(n, k0),
            }
        )
    payload = {
        "config": asdict(_config(args, "counts", n=[n_max])),
        "k0": k0,
        "per_n": rows,
        "N_table": {h: table.N_values[h] for h in range(2, k0 + 1)},
    }
    lines = [f"k0 = {k0}"]
    lines.append("  n   size  max_rank")
    for r in rows:
        lines.append(f"  {r['n']:<3d} {r['web_size']:<5d} {r['calibrated_max_rank']}")
    lines.append(
        "exact-support dims: "
        + ", ".join(f"N({h})={table.N_values[h]}" for h in range(2, k0 + 1))
    )
    _emit(payload, args.format, lines)
    return 0


def _cmd_validate(args) -> int:
    E, name, _ = _load_set(args)
    _single("--n", args.n)
    _require_at_least("--n", args.n, 1)
    n_check = args.n[0] if args.n else E.k0
    report = validate_balanced(E, n_check, GenericPointSampler(seed=args.seed))
    report.config = asdict(_config(args, "validate", n=[n_check]))
    payload = {"family": name, "report": report}
    lines = [f"validate {name}: {report.verdict}"]
    for check in report.checks:
        if check["verdict"] != TRUE:
            lines.append(f"  failed: {check}")
    _emit(payload, args.format, lines)
    return report.exit_code()


def _cmd_check_ordinary(args) -> int:
    E, name, _ = _load_set(args)
    if args.n and not args.direct:
        raise _InputError("--n needs --direct", EX_USAGE)
    _require_at_least("--n", args.n, 2)
    _checked_mode(E, args.precision)
    sampler = GenericPointSampler(seed=args.seed)
    criterion = check_finite_criterion(E, sampler, args.precision)
    directs = []
    if args.direct:
        dims = args.n if args.n else [E.k0]
        directs = [check_ordinary_at(E, n, sampler, args.precision) for n in dims]
    verdict = combine_verdicts(
        [criterion.verdict] + [d.verdict for d in directs]
    )
    payload = {
        "config": asdict(_config(args, "check-ordinary", n=args.n)),
        "family": name,
        "ordinary": {
            "condition_iv": criterion,
            "direct": directs,
        },
        "verdict": verdict,
    }
    lines = [f"finite criterion: {criterion.verdict}"]
    for check in criterion.checks:
        lines.append(f"  k={check['k']}: {check['verdict']}")
    for d in directs:
        lines.append(
            f"direct n={d.witnesses['n']}: {d.verdict} "
            f"(ranks {[c['best_rank'] for c in d.checks]})"
        )
    lines.append(f"verdict: {verdict}")
    _emit(payload, args.format, lines)
    return exit_code(verdict)


def _cmd_rank(args) -> int:
    E, name, _ = _load_set(args)
    if not args.n:
        raise _InputError("rank requires --n", EX_USAGE)
    _single("--n", args.n)
    _require_at_least("--n", args.n, 2)
    n = args.n[0]
    mode = _checked_mode(E, args.precision)
    m_start = args.m_start if args.m_start is not None else E.k0 + 1
    _require_at_least("--m-start", [m_start], 1)
    if args.m_cap is not None:
        m_cap, option = args.m_cap, "--m-cap"
    else:
        m_cap, option = E.k0 + 5, "--m-cap (default k0 + 5)"
    _require_at_least(option, [m_cap], m_start + 1)
    expected = calibrated_max_rank(n, E.k0)
    sampler = GenericPointSampler(seed=args.seed)
    check = check_rank(assemble(E, n), sampler, m_start, m_cap, mode, expected)
    payload = {
        "config": asdict(
            _config(args, "rank", n=[n], m_start=m_start, m_cap=m_cap)
        ),
        "family": name,
        "n": n,
        "expected": expected,
    }
    estimate = check.estimate
    if estimate is None:
        payload.update(
            value=None,
            stabilized_at=None,
            dims_trace={},
            method=mode.label(),
            point=None,
            note="no generic point found",
            verdict=INCONCLUSIVE,
        )
        line = f"rank {name} n={n}: inconclusive (no generic point)"
        _emit(payload, args.format, [line])
        return exit_code(INCONCLUSIVE)
    verdict = check.verdict
    payload.update(
        value=estimate.value,
        stabilized_at=estimate.stabilized_at,
        dims_trace=dict(sorted(estimate.dims.items())),
        method=estimate.method,
        point=[str(c) for c in check.point],
        note=estimate.note,
        verdict=verdict,
    )
    if check.mismatches:
        payload["mismatch_points"] = check.mismatches
    lines = [
        f"rank {name} n={n}: value={estimate.value} expected={expected} "
        f"dims={dict(sorted(estimate.dims.items()))} [{estimate.method}] "
        f"-> {verdict}"
    ]
    _emit(payload, args.format, lines)
    return exit_code(verdict)


def _cmd_verify_family(args) -> int:
    E, name, spec = _load_set(args)
    if args.m_cap is not None:
        _require_at_least("--m-cap", [args.m_cap], E.k0 + 2)
    _checked_mode(E, args.precision)
    sampler = GenericPointSampler(seed=args.seed)
    n_check = E.k0 + 1
    balanced = validate_balanced(E, n_check, sampler, args.precision)
    criterion = check_finite_criterion(E, sampler, args.precision)
    direct_dims = sorted(set([2, 3, E.k0, E.k0 + 1]))
    directs = [
        (n, check_ordinary_at(E, n, sampler, args.precision)) for n in direct_dims
    ]
    rank_report = verify_max_rank(
        E,
        sampler,
        m_cap=args.m_cap,
        corroborate=args.corroborate,
        precision=args.precision,
    )
    ordinary_verdict = combine_verdicts(
        [criterion.verdict] + [r.verdict for _, r in directs]
    )
    verdicts = {
        "balanced": balanced.verdict,
        "ordinary": ordinary_verdict,
        "max_rank": rank_report.verdict,
    }
    verdicts["overall"] = combine_verdicts(verdicts.values())
    payload = {
        "config": asdict(
            _config(
                args,
                "verify-family",
                n=direct_dims,
                m_cap=args.m_cap,
                corroborate=args.corroborate,
            )
        ),
        "family": name,
        "balanced_valid": balanced,
        "ordinary": {
            "condition_iv": criterion,
            "direct": [r for _, r in directs],
        },
        "rank": {
            "per_n": rank_report.checks,
            "N_table_empirical": rank_report.witnesses["N_table_empirical"],
            "N_table": rank_report.witnesses["N_table"],
        },
        "expected": None
        if spec is None
        else {
            "ordinary": spec.expected_ordinary,
            "max_rank": spec.expected_max_rank,
        },
        "verdicts": verdicts,
    }
    lines = [f"family {name} (k0={E.k0})"]
    lines.append(f"  balanced: {balanced.verdict}")
    lines.append(f"  ordinary (finite criterion): {criterion.verdict}")
    for n, r in directs:
        lines.append(f"  ordinary (direct, n={n}): {r.verdict}")
    for check in rank_report.checks:
        lines.append(
            f"  rank n={check['n']}: value={check.get('value')} "
            f"expected={check['expected']} -> {check['verdict']}"
        )
    if rank_report.witnesses["N_table_empirical"] is not None:
        lines.append(
            f"  exact-support dims: {rank_report.witnesses['N_table_empirical']} "
            f"(counting table match: {rank_report.witnesses['N_table_match']})"
        )
    if verdicts["overall"] == TRUE:
        lines.append(
            "  verdict: maximal rank certified for all n at this calibration "
            "(desk-scale checks all pass)"
        )
    else:
        lines.append(f"  verdict: {verdicts['overall']}")
    _emit(payload, args.format, lines)
    return exit_code(verdicts["overall"])


def _cmd_crosscheck(args) -> int:
    E, name, _ = _load_set(args)
    _require_at_least("--n", args.n, 2)
    _checked_mode(E, args.precision)
    n_list = args.n if args.n else [E.k0, E.k0 + 1]
    report = crosscheck_ordinary(
        E, n_list, GenericPointSampler(seed=args.seed), args.precision
    )
    report.config = asdict(_config(args, "crosscheck", n=n_list))
    payload = {"family": name, "report": report}
    lines = [f"crosscheck {name} at n={n_list}: {report.verdict}"]
    _emit(payload, args.format, lines)
    return report.exit_code()


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(sub, with_input=True, with_precision=True):
    sub.add_argument("--seed", type=int, default=0, help="sampler seed")
    sub.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    if with_input:
        source = sub.add_mutually_exclusive_group()
        source.add_argument("--family", help="catalog family name")
        source.add_argument("--input", help="web-definition JSON file")
    if with_precision:
        sub.add_argument(
            "--precision",
            type=int,
            default=DEFAULT_PRECISION,
            help="float mantissa bits (used when a family contains exp/log)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="webrank", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("catalog", help="list built-in families")
    _add_common(sub, with_input=False, with_precision=False)

    sub = subs.add_parser("counts", help="print counting tables")
    _add_common(sub, with_input=False, with_precision=False)
    sub.add_argument("--k0", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)

    sub = subs.add_parser("validate", help="check the balanced-set definition")
    _add_common(sub, with_precision=False)
    sub.add_argument("--n", type=int, action="append", help="dimension to check (once)")

    sub = subs.add_parser(
        "check-ordinary", help="certify ordinariness via the finite criterion"
    )
    _add_common(sub)
    sub.add_argument(
        "--direct", action="store_true", help="also run the direct jet-rank check"
    )
    sub.add_argument(
        "--n",
        type=int,
        action="append",
        help="dimension(s) for the direct check (needs --direct)",
    )

    sub = subs.add_parser("rank", help="estimate the abelian-relation dimension")
    _add_common(sub)
    sub.add_argument("--n", type=int, action="append", help="dimension (once)")
    sub.add_argument("--m-start", dest="m_start", type=int)
    sub.add_argument("--m-cap", dest="m_cap", type=int)

    sub = subs.add_parser(
        "verify-family", help="full ordinariness + maximal-rank pipeline"
    )
    _add_common(sub)
    sub.add_argument("--m-cap", dest="m_cap", type=int)
    sub.add_argument(
        "--corroborate",
        action="store_true",
        help="also check the dimension just above the calibration order",
    )

    sub = subs.add_parser(
        "crosscheck", help="compare the finite criterion with the direct check"
    )
    _add_common(sub)
    sub.add_argument(
        "--n", type=int, action="append", help="dimension(s) to crosscheck"
    )
    return parser


_COMMANDS = {
    "catalog": _cmd_catalog,
    "counts": _cmd_counts,
    "validate": _cmd_validate,
    "check-ordinary": _cmd_check_ordinary,
    "rank": _cmd_rank,
    "verify-family": _cmd_verify_family,
    "crosscheck": _cmd_crosscheck,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: parse_args keeps no
    state between calls (appended options start from a fresh list)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _InputError as err:
        print(f"webrank: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
