"""Command-line front end.

Subcommands:
  erfmin          evaluate the Gaussian-family bound at (c, a, b)
  certify         optimize (or ingest) a parameter table over a c-grid,
                  stitch it into a global certificate (JSON + CSV)
  sqrt-const      evaluate the square-root commutator constant from a
                  certificate file
  closed-forms    tabulate every closed-form constant, optionally over
                  an r-grid, as text or CSV
  verify          run a seeded Monte-Carlo campaign against the
                  conjectured inequality
  counterexample  print the fixed 3x3 trace-norm reversal report

Exit codes: 0 on success, 1 on usage errors (bad arguments, unreadable
or mismatched input files), 2 on validation or computation failures
(domain violations, degenerate certificate nodes, coverage gaps).

Output files are written atomically (temporary file in the destination
directory, then rename).  Parameter tables are plain text with one
decimal float per line; line k pairs with grid node k.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from commbounds.approx import (
    DomainViolation,
    ErfMinOutcome,
    GaussianParams,
    NoSignChange,
    RootValidationFailed,
    erf_min_bound,
)
from commbounds.formulas import (
    csc1,
    gamma_boyadzhiev,
    gamma_olsen_pedersen,
    gamma_pedersen,
    gamma_sin,
    gamma_tangent,
    scaled_cayley_Cc,
    shift_constant,
    trivial_constant,
)
from commbounds.matrixlab import (
    BadParameter,
    CampaignConfig,
    NormKind,
    NotHermitian,
    SpectralRadiusTooLarge,
    ZeroDenominator,
    counterexample_report,
    monte_carlo_campaign,
)
from commbounds.optimize import BoundPoint, build_paper_grid, optimize_grid
from commbounds.stitch import (
    ArgumentOrder,
    CoverageGap,
    DegenerateNode,
    StitchedCertificate,
    continuity_lift,
    gamma_half_via_Cc,
    global_constant,
    sqrt_constant,
)

__all__ = ["ParameterTable", "UsageError", "main", "parse_norm"]

_COMPUTE_ERRORS = (
    DomainViolation,
    RootValidationFailed,
    NoSignChange,
    ArgumentOrder,
    CoverageGap,
    DegenerateNode,
    NotHermitian,
    BadParameter,
    SpectralRadiusTooLarge,
    ZeroDenominator,
)


class UsageError(Exception):
    """Bad command-line arguments or unusable input files (exit 1)."""


@dataclass(frozen=True)
class ParameterTable:
    """A c-grid paired with per-node Gaussian parameters.

    All three lists have equal length; cs is strictly increasing and all
    entries are positive.
    """

    cs: tuple[float, ...]
    as_: tuple[float, ...]
    bs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.cs) == len(self.as_) == len(self.bs)):
            raise UsageError(
                f"table lengths differ: {len(self.cs)} grid nodes, "
                f"{len(self.as_)} a-values, {len(self.bs)} b-values"
            )
        if not self.cs:
            raise UsageError("parameter table is empty")
        if any(v <= 0.0 or not math.isfinite(v) for v in self.cs + self.as_ + self.bs):
            raise UsageError("parameter table entries must be positive finite reals")
        if any(u >= v for u, v in zip(self.cs, self.cs[1:])):
            raise UsageError("grid nodes must be strictly increasing")

    def __len__(self) -> int:
        return len(self.cs)


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via UsageError."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_param_file(path: str) -> list[float]:
    """One decimal float per line; surrounding whitespace and blank lines ignored."""
    try:
        with open(path, "r") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read parameter file {path}: {exc}") from exc
    values = []
    for idx, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise UsageError(f"{path}:{idx}: not a decimal float: {text!r}") from exc
    return values


def parse_norm(text: str) -> NormKind:
    """Parse operator | trace | hs | kyfan:K | schatten:P."""
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "operator" and not arg:
            return NormKind.operator()
        if name == "trace" and not arg:
            return NormKind.trace()
        if name in ("hs", "hilbert-schmidt") and not arg:
            return NormKind.hilbert_schmidt()
        if name == "kyfan" and arg:
            return NormKind.ky_fan(int(arg))
        if name == "schatten" and arg:
            return NormKind.schatten(float(arg))
    except (ValueError, BadParameter) as exc:
        raise UsageError(f"bad norm {text!r}: {exc}") from exc
    raise UsageError(
        f"unknown norm {text!r}; expected operator, trace, hs, kyfan:K or schatten:P"
    )


def _parse_range(spec: str, what: str) -> list[float]:
    """start:stop:step as start + k*step for k = 0, 1, ... up to stop + 1e-12."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad {what} {spec!r}; expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad {what} {spec!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
        raise UsageError(f"{what} {spec!r} requires finite start <= stop and step > 0")
    values = []
    k = 0
    while start + k * step <= stop + 1e-12:
        values.append(start + k * step)
        k += 1
    return values


def _parse_grid(spec: str) -> list[float]:
    if spec == "paper":
        return build_paper_grid()
    values = _parse_range(spec, "grid")
    if values[0] <= 0.0:
        raise UsageError("grid requires 0 < start")
    return values


def _positive(value: str, name: str) -> float:
    try:
        out = float(value)
    except ValueError as exc:
        raise UsageError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(out) or out <= 0.0:
        raise UsageError(f"{name} must be positive, got {value}")
    return out


def _outcome_payload(outcome: ErfMinOutcome) -> dict:
    # A degenerate outcome's value is inf, which strict JSON cannot hold.
    return {
        "value": None if outcome.degenerate else outcome.value,
        "x1": outcome.x1,
        "x2": outcome.x2,
        "degenerate": outcome.degenerate,
        "error_budget": outcome.error_budget,
    }


def cmd_erfmin(args: argparse.Namespace) -> int:
    c = _positive(args.c, "c")
    a = _positive(args.a, "a")
    b = _positive(args.b, "b")
    outcome = erf_min_bound(c, GaussianParams(a, b))
    print(json.dumps(_outcome_payload(outcome), indent=2))
    return 0


def _certify_points(args: argparse.Namespace, grid: list[float]) -> list[BoundPoint]:
    if args.params is None:
        return optimize_grid(grid)
    as_ = _read_param_file(args.params[0])
    bs = _read_param_file(args.params[1])
    table = ParameterTable(tuple(grid), tuple(as_), tuple(bs))
    points = []
    for c, a, b in zip(table.cs, table.as_, table.bs):
        params = GaussianParams(a, b)
        try:
            value = erf_min_bound(c, params).value
        except (RootValidationFailed, DomainViolation, NoSignChange):
            value = math.inf
        points.append(BoundPoint(c, value, params, value == math.inf))
    return points


def _certificate_csv(points: list[BoundPoint], lifted: tuple[float, ...] | None) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["c_k", "C_k", "D_k", "degenerate"])
    cs = [p.c for p in points]
    spacing = max((v - u for u, v in zip(cs, cs[1:])), default=0.0)
    for idx, point in enumerate(points):
        if lifted is not None:
            d_k = repr(lifted[idx])
        elif point.degenerate:
            d_k = ""
        else:
            upper = cs[idx + 1] if idx + 1 < len(cs) else cs[-1] + spacing
            d_k = repr(continuity_lift(point.C_k, point.c, upper))
        writer.writerow([repr(point.c), repr(point.C_k), d_k, int(point.degenerate)])
    return buffer.getvalue()


def _csv_path(out: str) -> str:
    stem, _ = os.path.splitext(out)
    return stem + ".csv"


def cmd_certify(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    points = _certify_points(args, grid)
    bad = [p.c for p in points if p.degenerate]
    if bad:
        _atomic_write(_csv_path(args.out), _certificate_csv(points, None))
        head = ", ".join(f"{c:g}" for c in bad[:5])
        print(
            f"error: {len(bad)} degenerate node(s) at c = {head}"
            f"{'...' if len(bad) > 5 else ''}; partial CSV written to "
            f"{_csv_path(args.out)}",
            file=sys.stderr,
        )
        return 2
    cert = global_constant(points, grid[0], grid[-1])
    _atomic_write(args.out, json.dumps(cert.to_dict(), indent=2))
    _atomic_write(_csv_path(args.out), _certificate_csv(points, cert.lifted))
    print(f"nodes={len(points)}")
    print(f"corner_small={cert.corner_small!r}")
    print(f"corner_large={cert.corner_large!r}")
    print(f"global_C={cert.global_C!r}")
    print(f"wrote {args.out} and {_csv_path(args.out)}")
    return 0


def _load_certificate(path: str) -> StitchedCertificate:
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read certificate {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    return StitchedCertificate.from_dict(payload)


def cmd_sqrt_const(args: argparse.Namespace) -> int:
    cert = _load_certificate(args.cert)
    print(repr(sqrt_constant(cert.points)))
    return 0


_R_COLUMNS = (
    "gamma_boyadzhiev",
    "gamma_olsen_pedersen",
    "gamma_pedersen",
    "gamma_tangent",
    "gamma_sin_bound",
    "gamma_sin_argmin",
)
_CONSTANT_COLUMNS = (
    "trivial_constant",
    "shift_constant",
    "csc1",
    "cayley_max",
    "gamma_half_integral",
)


def _r_row(r: float) -> dict:
    sin_bound, sin_argmin = gamma_sin(r)
    return {
        "gamma_boyadzhiev": gamma_boyadzhiev(r),
        "gamma_olsen_pedersen": gamma_olsen_pedersen(r),
        "gamma_pedersen": gamma_pedersen(r),
        "gamma_tangent": gamma_tangent(r),
        "gamma_sin_bound": sin_bound,
        "gamma_sin_argmin": sin_argmin,
    }


def _parse_r_spec(spec: str) -> list[float]:
    values = _parse_range(spec, "r spec") if ":" in spec else [float(spec)]
    for r in values:
        if not 0.0 < r < 1.0:
            raise UsageError(f"r must lie in (0, 1), got {r}")
    return values


def cmd_closed_forms(args: argparse.Namespace) -> int:
    try:
        rs = _parse_r_spec(args.r)
    except ValueError as exc:
        raise UsageError(f"bad r spec {args.r!r}: {exc}") from exc
    constants = {
        "trivial_constant": trivial_constant(),
        "shift_constant": shift_constant(),
        "csc1": csc1(),
        "cayley_max": scaled_cayley_Cc(2.0 / 3.0),
        "gamma_half_integral": gamma_half_via_Cc(),
    }
    if args.csv:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("r",) + _R_COLUMNS + _CONSTANT_COLUMNS)
        for r in rs:
            row = _r_row(r)
            writer.writerow(
                [repr(r)]
                + [repr(row[name]) for name in _R_COLUMNS]
                + [repr(constants[name]) for name in _CONSTANT_COLUMNS]
            )
        text = buffer.getvalue()
        if args.out:
            _atomic_write(args.out, text)
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 0
    for r in rs:
        print(f"r = {r!r}")
        for name, value in _r_row(r).items():
            print(f"  {name:22s} {value!r}")
    print("constants")
    for name, value in constants.items():
        print(f"  {name:22s} {value!r}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = CampaignConfig(
        n_max=args.n_max,
        trials=args.trials,
        seed=args.seed,
        f=args.f,
        norm=parse_norm(args.norm),
        a_equals_b=args.a_equals_b,
        unit_norm_a=args.unit_norm_a,
        min_commutator=args.min_commutator,
        threads=args.threads,
    )
    report = monte_carlo_campaign(cfg)
    if args.out:
        _atomic_write(args.out, json.dumps(report.to_dict(), indent=2))
    print(f"max_ratio={report.max_ratio!r}")
    print(f"evaluated={report.evaluated} skipped={report.skipped}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_counterexample(args: argparse.Namespace) -> int:
    report = counterexample_report()
    text = json.dumps(report, indent=2)
    if args.out:
        _atomic_write(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="commbounds", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("erfmin", help="evaluate the bound at (c, a, b)")
    p.add_argument("c")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_erfmin)

    p = sub.add_parser("certify", help="build a stitched certificate")
    p.add_argument(
        "--grid",
        default="paper",
        help="'paper' (default) or start:stop:step for a uniform grid",
    )
    p.add_argument(
        "--params",
        nargs=2,
        metavar=("AS_FILE", "BS_FILE"),
        default=None,
        help="re-certify these per-node parameters instead of optimizing",
    )
    p.add_argument("--out", default="cert.json", help="certificate path (default cert.json)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sqrt-const", help="sqrt-commutator constant")
    p.add_argument("--cert", required=True, help="certificate JSON from 'certify'")
    p.set_defaults(func=cmd_sqrt_const)

    p = sub.add_parser("closed-forms", help="tabulate constants")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--r", default="0.5", help="power (float or start:stop:step)")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=cmd_closed_forms)

    p = sub.add_parser("verify", help="Monte-Carlo campaign")
    p.add_argument("--out", default=None, help="output file path")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--f", default="f1", choices=("f1", "sqrt"), help="scalar function")
    p.add_argument("--norm", default="operator", help="operator|trace|hs|kyfan:K|schatten:P")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--n-max", type=int, default=6, dest="n_max")
    p.add_argument("--a-equals-b", action="store_true", dest="a_equals_b")
    p.add_argument("--unit-norm-a", action="store_true", dest="unit_norm_a")
    p.add_argument("--min-commutator", type=float, default=None, dest="min_commutator")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexample", help="fixed reversal report")
    p.add_argument("--out", default=None, help="output file path")
    p.set_defaults(func=cmd_counterexample)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
