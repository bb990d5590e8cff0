"""Command-line front end.

Subcommands:
  erfmin          evaluate the Gaussian-family bound at (c, a, b)
  certify         certify a c-grid with the committed witness table and
                  stitch it into a global certificate (JSON + CSV)
  fit-witnesses   fit the Gaussian-mixture witness table again
  sqrt-const      evaluate the square-root commutator constant from a
                  certificate file
  closed-forms    tabulate every closed-form constant, optionally over
                  an r-grid, as text or CSV
  verify          run a seeded Monte-Carlo campaign against the
                  conjectured inequality
  counterexample  print the fixed 3x3 trace-norm reversal report

Exit codes: 0 on success, 1 on usage errors (bad arguments, unreadable
or malformed input files, output paths that cannot be written), 2 on a
CommboundsError: a validation or computation failure, such as a domain
violation, a rejected root or certificate, a coverage gap, or a failed
witness fit or quadrature.

Output files are written atomically (temporary file in the destination
directory, then rename).
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
from dataclasses import fields

from commbounds import witnesses
from commbounds.approx import CommboundsError, GaussianParams, erf_min_bound
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
    counterexample_report,
    monte_carlo_campaign,
)
from commbounds.optimize import build_paper_grid, certify_grid
from commbounds.stitch import (
    RejectedCertificate,
    StitchedCertificate,
    gamma_half_via_Cc,
    global_constant,
    sqrt_constant,
)

__all__ = ["UsageError", "main", "parse_norm"]


class UsageError(Exception):
    """Bad command-line arguments or unusable input files (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via UsageError."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file beside it; an OSError is a usage error."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            # open()'s mode, 0o666 less the umask, in place of mkstemp's 0o600.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    """Write text atomically to out and say so, or print it when there is no out."""
    if out:
        _atomic_write(out, text)
        print(f"wrote {out}")
    else:
        print(text, end="")


def parse_norm(text: str) -> NormKind:
    """NormKind.parse, with a spelling it rejects as a usage error."""
    try:
        return NormKind.parse(text)
    except BadParameter as exc:
        raise UsageError(str(exc)) from exc


# The most values one start:stop:step range may make.
_MAX_RANGE_VALUES = 10**7


def _parse_range(spec: str, what: str) -> list[float]:
    """start:stop:step as start + k*step for k = 0, 1, ... up to stop + 1e-9*step.

    The slack scales with the step, so it takes in roundoff at stop and
    no further value.  A range of more than _MAX_RANGE_VALUES values is
    rejected before any is made, and so is a step too small to move start.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad {what} {spec!r}; expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad {what} {spec!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
        raise UsageError(f"{what} {spec!r} requires finite start <= stop and step > 0")
    limit = stop + 1e-9 * step
    if start + step == start or (limit - start) / step > _MAX_RANGE_VALUES:
        raise UsageError(f"{what} {spec!r} makes more than {_MAX_RANGE_VALUES} values")
    values = []
    k = 0
    while start + k * step <= limit:
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


def cmd_erfmin(args: argparse.Namespace) -> int:
    c = _positive(args.c, "c")
    a = _positive(args.a, "a")
    b = _positive(args.b, "b")
    outcome = erf_min_bound(c, GaussianParams(a, b))
    print(json.dumps(outcome.to_dict(), indent=2))
    return 0


def _certificate_csv(cert: StitchedCertificate) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["c_k", "C_k", "D_k", "degenerate"])
    for point, lifted in zip(cert.points, cert.lifted):
        writer.writerow([repr(point.c), repr(point.C_k), repr(lifted), int(point.degenerate)])
    return buffer.getvalue()


def _csv_path(out: str) -> str:
    stem, _ = os.path.splitext(out)
    return stem + ".csv"


def cmd_certify(args: argparse.Namespace) -> int:
    # Compared without case: on a case-insensitive file system cert.CSV is cert.csv.
    if _csv_path(args.out).casefold() == args.out.casefold():
        raise UsageError(f"--out {args.out} is also the CSV path; give it another extension")
    grid = _parse_grid(args.grid)
    cert = global_constant(certify_grid(grid), grid[0], grid[-1])
    _atomic_write(args.out, json.dumps(cert.to_dict(), indent=2))
    _atomic_write(_csv_path(args.out), _certificate_csv(cert))
    print(f"nodes={len(cert.points)}")
    print(f"corner_small={cert.corner_small!r}")
    print(f"corner_large={cert.corner_large!r}")
    print(f"global_C={cert.global_C!r}")
    print(f"wrote {args.out} and {_csv_path(args.out)}")
    return 0


def cmd_fit_witnesses(args: argparse.Namespace) -> int:
    out = str(witnesses.table_path()) if args.out is None else args.out
    _atomic_write(out, witnesses.fit_table())
    print(f"wrote {len(witnesses.FIT_NODES)} witnesses to {out}")
    return 0


def _load_certificate(path: str) -> StitchedCertificate:
    try:
        with open(path, "r") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read certificate {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return StitchedCertificate.from_dict(payload)
    except RejectedCertificate:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{path} is not a certificate: {type(exc).__name__}: {exc}") from exc


def cmd_sqrt_const(args: argparse.Namespace) -> int:
    cert = _load_certificate(args.cert)
    print(repr(sqrt_constant(cert.points)))
    return 0


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
    rows = [_r_row(r) for r in rs]
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
        writer.writerow(["r", *rows[0], *constants])
        for r, row in zip(rs, rows):
            writer.writerow([repr(v) for v in (r, *row.values(), *constants.values())])
        text = buffer.getvalue()
    else:
        blocks = [(f"r = {r!r}", row) for r, row in zip(rs, rows)] + [("constants", constants)]
        text = "".join(
            title + "\n" + "".join(f"  {name:22s} {value!r}\n" for name, value in block.items())
            for title, block in blocks
        )
    _emit(text, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = CampaignConfig(**{field.name: getattr(args, field.name) for field in fields(CampaignConfig)})
    report = monte_carlo_campaign(cfg)
    if args.out:
        _atomic_write(args.out, json.dumps(report.to_dict(), indent=2))
    print(f"max_ratio={report.max_ratio!r}")
    print(f"evaluated={report.evaluated} skipped={report.skipped}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_counterexample(args: argparse.Namespace) -> int:
    _emit(json.dumps(counterexample_report(), indent=2) + "\n", args.out)
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
    p.add_argument("--out", default="cert.json", help="certificate path (default cert.json)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fit-witnesses", help="fit the witness table")
    p.add_argument(
        "--out",
        default=None,
        help="output path (default: the table inside the package)",
    )
    p.set_defaults(func=cmd_fit_witnesses)

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
    p.add_argument("--norm", type=parse_norm, default=NormKind.operator(), help=NormKind.SPELLINGS)
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
    except CommboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
