"""Command-line surface.

Subcommands: families, gf, wep, sld, verify, ce, fidelity, critical-lambda,
figure. All outputs are deterministic for fixed inputs; figures are CSV with
exact rationals rendered at 17 significant digits. Exit codes: 0 success,
1 verification mismatch, 2 usage errors (unknown subcommand or family,
malformed custom spec, negative member index, critical-lambda -r 0, --lambda
that is not a number in [0, 1], --tol that is not positive and finite,
--jobs that is not positive, --max-qubits that is negative or above the
brute-force cap, verify on a family that does not grow), 3 analysis failures
(for instance no asymptotic threshold, a degenerate dominant singularity, or
the asymptotic threshold of a family that does not grow), 4 any other
failure, such as a figure --out directory that cannot be created.

Each command imports only what it computes with: the analysis layer inside
fidelity, critical-lambda and figure; mpmath inside the pole's value and
the asymptotics (--asymptotic, figure), and no other numerical library.
The brute-force oracles need neither, so verify loads no numerical
library. verify checks its members in this process; --jobs is accepted
and validated but starts no workers.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import series_coefficients
from .family import (BUILTIN_FAMILIES, FamilyError, builtin,
                     parse_family_spec, realize, sld_from_wep, to_rational)
from .oracle import (DEFAULT_VERTEX_CAP, sld_bruteforce_colouring,
                     sld_bruteforce_stabilizer)
from .transfer import (CE_POINT, build_transfer_system, family_gf, iter_weps,
                       wep_by_iteration, wep_values_by_iteration)

FIG3_FAMILIES = ("path", "star", "cycle")
FIG3_LAMBDA = "0.8"
FIG4_FAMILIES = ("path", "star", "joint_squares")
FIG_R_MAX = {"fig3": 60, "fig4": 100}


class UsageError(Exception):
    """A command-line value the command cannot run with (exit code 2)."""


def _sig17(value) -> str:
    """Render a number at 17 significant digits (exact inputs stay exact
    up to that precision)."""
    import mpmath as mp

    with mp.workdps(30):
        if isinstance(value, Fraction):
            x = mp.mpf(value.numerator) / mp.mpf(value.denominator)
        else:
            x = mp.mpf(value)
        return mp.nstr(x, 17)


def _system(args):
    """The transfer system of --family, or of the --spec file, which is
    read and parsed once."""
    if not args.spec:
        return _cached_system(args.family)
    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        raise FamilyError(f"cannot read spec file: {exc}") from exc
    return build_transfer_system(parse_family_spec(text))


@functools.lru_cache(maxsize=8)
def _cached_system(name: str):
    return build_transfer_system(builtin(name))


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, indent=2, allow_nan=False))


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_rows(args, header: list[str], rows: list[dict]) -> None:
    """Write rows as CSV cells in header order, None as an empty cell, or
    as JSON: the list, or its single row when -r names one member."""
    if args.format == "csv":
        _emit(_csv_text(header, [["" if row[k] is None else str(row[k])
                                  for k in header] for row in rows]))
    else:
        _emit_json(rows if args.r is None else rows[0])


# -- subcommand implementations ------------------------------------------------


def _cmd_families(args) -> int:
    rows = []
    for name in BUILTIN_FAMILIES:
        document = builtin(name).to_json()
        rows.append({key: document[key] for key in
                     ("name", "recursion_start", "qubit_count")})
    if args.format == "json":
        _emit_json(rows)
    else:
        for row in rows:
            qc = row["qubit_count"]
            _emit(f"{row['name']}: n(r) = {qc['offset']} + {qc['step']}*r, "
                  f"recursion starts at r = {row['recursion_start']}")
    return 0


def _emit_poly(args, poly) -> None:
    if args.format == "latex":
        _emit(poly.latex())
    elif args.format == "text":
        _emit(str(poly))
    else:
        _emit_json(poly.to_json())


def _cmd_gf(args) -> int:
    _emit_poly(args, family_gf(_system(args)))
    return 0


def _cmd_wep(args) -> int:
    wep = wep_by_iteration(_system(args), _member_index("-r", args.r))
    if args.format == "csv":
        rows = [[str(ey), str(c)] for (ex, ey, ez), c in
                sorted(wep.sorted_terms(), key=lambda t: t[0][1])]
        _emit(_csv_text(["k", "a_k"], rows))
    else:
        _emit_poly(args, wep)
    return 0


def _cmd_sld(args) -> int:
    sld = sld_from_wep(wep_by_iteration(_system(args),
                                        _member_index("-r", args.r)))
    if args.format == "csv":
        rows = [[str(k), str(a)] for k, a in enumerate(sld)]
        _emit(_csv_text(["k", "a_k"], rows))
    else:
        _emit_json(list(sld.sectors))
    return 0


def _oracles(spec, r: int):
    """Vertex count and the sector lengths of both brute-force oracles for
    member r, each None when the member has no graph."""
    try:
        graph = realize(spec, r)
    except FamilyError:
        return spec.qubit_count(r) if r >= 1 else 0, None, None
    return (graph.vertex_count, list(sld_bruteforce_colouring(graph).sectors),
            list(sld_bruteforce_stabilizer(graph).sectors))


# the sector-length columns of a verify row, in output order
_SLD_COLUMNS = ("series", "iteration", "colouring", "stabilizer")


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be a positive integer, got {args.jobs}")
    if args.max_qubits < 0:
        raise UsageError(f"--max-qubits must be nonnegative, got "
                         f"{args.max_qubits}")
    if args.max_qubits > DEFAULT_VERTEX_CAP:
        raise UsageError(f"--max-qubits must be at most the brute-force cap "
                         f"of {DEFAULT_VERTEX_CAP}, got {args.max_qubits}")
    sys_ = _system(args)
    spec = sys_.spec
    if spec.qubit_step < 1:
        raise UsageError(f"family {spec.name} does not grow: its "
                         f"qubit_count.step is {spec.qubit_step}")
    r_max = max(0, (args.max_qubits - spec.qubit_offset) // spec.qubit_step)
    series = series_coefficients(family_gf(sys_), r_max)
    weps = list(iter_weps(sys_, r_max))
    table = []
    for r in range(r_max + 1):
        n, *oracles = _oracles(spec, r)
        iteration = _sld_or_none(weps[r])
        slds = (_sld_or_none(series[r]), iteration, *oracles)
        table.append({"r": r, "n": n, **dict(zip(_SLD_COLUMNS, slds)),
                      "agree": series[r] == weps[r] and all(
                          sld is None or sld == iteration for sld in oracles)})
    all_ok = all(t["agree"] for t in table)
    if args.format == "json":
        _emit_json({"family": spec.name, "max_qubits": args.max_qubits,
                    "rows": table, "ok": all_ok})
    elif args.format == "csv":
        rows_csv = [[str(t["r"]), str(t["n"]),
                     *(_fmt_sld(t[c]) for c in _SLD_COLUMNS),
                     str(t["agree"]).lower()] for t in table]
        _emit(_csv_text(["r", "n", *_SLD_COLUMNS, "agree"], rows_csv))
    else:
        _emit(f"family {spec.name}, members with at most {args.max_qubits} qubits")
        for t in table:
            _emit(f"  r={t['r']:<3} n={t['n']:<3} "
                  + "".join(f"{c}={_fmt_sld(t[c])} " for c in _SLD_COLUMNS)
                  + ("ok" if t["agree"] else "MISMATCH"))
        _emit("all agree" if all_ok else "MISMATCH FOUND")
    return 0 if all_ok else 1


def _sld_or_none(wep):
    try:
        return list(sld_from_wep(wep).sectors)
    except FamilyError:
        return None


def _fmt_sld(sld) -> str:
    if sld is None:
        return "-"
    return "[" + " ".join(str(a) for a in sld) + "]"


def _member_index(flag: str, value: int) -> int:
    if value < 0:
        raise UsageError(f"{flag} must be a nonnegative member index, "
                         f"got {value}")
    return value


def _member_range(args, default_low: int = 0) -> list[int]:
    """The member given by -r, or the sweep default_low..--r-max."""
    if args.r is not None:
        r = _member_index("-r", args.r)
        if r < default_low:
            raise UsageError(f"-r must be at least {default_low} for "
                             f"{args.command}, got {r}")
        return [r]
    if args.r_max is not None:
        return list(range(default_low,
                          _member_index("--r-max", args.r_max) + 1))
    raise UsageError("specify a member with -r or a sweep with --r-max")


def _noise_arg(text: str) -> Fraction:
    """The --lambda value as an exact rational in [0, 1]."""
    try:
        lam = to_rational(text)
    except ValueError:
        lam = None
    if lam is None or not 0 <= lam <= 1:
        raise UsageError(f"--lambda must be a number in [0, 1], got {text!r}")
    return lam


def _cmd_ce(args) -> int:
    sys_ = _system(args)
    r_values = _member_range(args)
    cbars = wep_values_by_iteration(sys_, *CE_POINT, max(r_values))
    rows = [{"family": sys_.spec.name, "r": r, "c_bar": str(cbars[r]),
             "c": str(1 - cbars[r])} for r in r_values]
    _emit_rows(args, ["family", "r", "c_bar", "c"], rows)
    return 0


def _cmd_fidelity(args) -> int:
    from .analysis import fidelity_leading_term, fidelity_sweep

    lam = _noise_arg(args.lam)
    r_values = _member_range(args)
    sys_ = _system(args)
    exact = fidelity_sweep(sys_, lam, max(r_values))
    lead = fidelity_leading_term(sys_, lam) if args.asymptotic else None
    rows = []
    for r in r_values:
        row = {"family": sys_.spec.name, "r": r, "lambda": args.lam,
               "F_exact": str(exact[r]), "F_approx": None,
               "z_star": None, "gap": None}
        if lead is not None:
            # the gap is infinite when the denominator has a single root
            gap = float(lead.report.modulus_gap)
            row.update({"F_approx": float(lead.coefficient(r)),
                        "z_star": float(lead.report.z_star.real),
                        "gap": gap if math.isfinite(gap) else None})
        rows.append(row)
    _emit_rows(args, ["family", "r", "lambda", "F_exact", "F_approx",
                      "z_star", "gap"], rows)
    return 0


def _cmd_critical_lambda(args) -> int:
    if not args.tol > 0:
        raise UsageError(f"--tol must be positive, got {args.tol!r}")
    if not math.isfinite(args.tol):
        raise UsageError(f"--tol must be finite, got {args.tol!r}")
    from .analysis import critical_lambda_asymptotic, critical_lambda_sweep

    sys_ = _system(args)
    entries = [{"r": r, "value": value} for r, value in
               critical_lambda_sweep(sys_, _member_range(args, default_low=1),
                                     args.tol)]
    approx = None
    if args.asymptotic:
        approx = critical_lambda_asymptotic(sys_, args.tol)
    if args.format == "csv":
        _emit_rows(args, ["family", "r", "lambda_c", "lambda_c_approx"],
                   [{"family": sys_.spec.name, "r": e["r"],
                     "lambda_c": e["value"], "lambda_c_approx": approx}
                    for e in entries])
    else:
        _emit_json({"family": sys_.spec.name, "lambda_c": entries,
                    "lambda_c_approx": approx})
    return 0


def _cmd_figure(args) -> int:
    import mpmath as mp

    from .analysis import (WORKING_DPS, critical_lambda_asymptotic,
                           critical_lambda_sweep, fidelity_leading_term,
                           fidelity_sweep)

    r_max = _member_index("--r-max", FIG_R_MAX[args.which]
                          if args.r_max is None else args.r_max)
    rows = []
    if args.which == "fig3":
        header = ["family", "r", "n", "lambda", "f_exact", "f_approx", "delta"]
        lam = to_rational(FIG3_LAMBDA)
        for name in FIG3_FAMILIES:
            sys_ = _cached_system(name)
            exact = fidelity_sweep(sys_, lam, r_max)
            lead = fidelity_leading_term(sys_, lam)
            for r in range(1, r_max + 1):
                approx = lead.coefficient(r)
                with mp.workdps(WORKING_DPS):
                    ex = mp.mpf(exact[r].numerator) / exact[r].denominator
                    delta = abs(ex - approx)
                rows.append([name, str(r), str(sys_.spec.qubit_count(r)),
                             FIG3_LAMBDA, _sig17(exact[r]), _sig17(approx),
                             _sig17(delta)])
    else:
        header = ["family", "r", "n", "lambda_c", "lambda_c_approx"]
        for name in FIG4_FAMILIES:
            sys_ = _cached_system(name)
            approx_str = _sig17(critical_lambda_asymptotic(sys_))
            for r, value in critical_lambda_sweep(sys_, range(1, r_max + 1)):
                rows.append([name, str(r), str(sys_.spec.qubit_count(r)),
                             "" if value is None else _sig17(value),
                             approx_str])
    text = _csv_text(header, rows)
    if args.out:
        target = Path(args.out) / f"{args.which}.csv"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
        _emit(str(target))
    else:
        _emit(text)
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_family_args(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", choices=BUILTIN_FAMILIES,
                       help="built-in family name")
    group.add_argument("--spec", help="path to a custom family spec JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sldgf",
        description="Exact sector-length generating functions for recursively "
                    "definable graph-state families")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("families", help="list built-in families")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.set_defaults(func=_cmd_families)

    sub = subs.add_parser("gf", help="emit the family generating function")
    _add_family_args(sub)
    sub.add_argument("--format", choices=("json", "latex", "text"),
                     default="json")
    sub.set_defaults(func=_cmd_gf)

    sub = subs.add_parser("wep", help="weight enumerator of one member")
    _add_family_args(sub)
    sub.add_argument("-r", type=int, required=True, help="member index")
    sub.add_argument("--format", choices=("json", "csv", "latex", "text"),
                     default="json")
    sub.set_defaults(func=_cmd_wep)

    sub = subs.add_parser("sld", help="sector lengths of one member")
    _add_family_args(sub)
    sub.add_argument("-r", type=int, required=True, help="member index")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=_cmd_sld)

    sub = subs.add_parser(
        "verify",
        help="cross-check series, iteration, and both brute-force oracles")
    _add_family_args(sub)
    sub.add_argument("--max-qubits", type=int, default=16)
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; verify runs in "
                          "this process")
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("ce", help="concentratable entanglement")
    _add_family_args(sub)
    sub.add_argument("-r", type=int, default=None, help="member index")
    sub.add_argument("--r-max", type=int, default=None, help="sweep 0..r_max")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=_cmd_ce)

    sub = subs.add_parser("fidelity", help="depolarizing-noise fidelity")
    _add_family_args(sub)
    sub.add_argument("-r", type=int, default=None, help="member index")
    sub.add_argument("--r-max", type=int, default=None, help="sweep 0..r_max")
    sub.add_argument("--lambda", dest="lam", required=True,
                     help="noise parameter as a decimal string")
    sub.add_argument("--asymptotic", action="store_true",
                     help="include the dominant-singularity approximation")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=_cmd_fidelity)

    sub = subs.add_parser("critical-lambda",
                          help="critical noise parameter of the purity criterion")
    _add_family_args(sub)
    sub.add_argument("-r", type=int, default=None, help="member index")
    sub.add_argument("--r-max", type=int, default=None, help="sweep 1..r_max")
    sub.add_argument("--asymptotic", action="store_true",
                     help="include the member-independent limit")
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(func=_cmd_critical_lambda)

    sub = subs.add_parser("figure", help="reproduce figure data series as CSV")
    sub.add_argument("which", choices=("fig3", "fig4"))
    sub.add_argument("--out", default=None, help="directory for the CSV file")
    sub.add_argument("--r-max", type=int, default=None)
    sub.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FamilyError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        from .analysis import AnalysisError

        return 3 if isinstance(exc, AnalysisError) else 4


if __name__ == "__main__":
    sys.exit(main())
