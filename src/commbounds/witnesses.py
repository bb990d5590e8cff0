"""Gaussian-mixture witnesses for the approximation functional, and their fit.

A witness is an approximant g of f1(x) = x / (x + 1) whose derivative
g'(x) = sum_k w_k exp(-b_k x^2) has positive weights.  The committed
table `mixture_witnesses.json` holds one witness per fitting node c; it
holds proofs, not results: every constant derived from it is certified
again, each time `commbounds.optimize.certify_grid` runs, by one batched
`commbounds.approx.certify_mixtures` pass over the whole table.

Each witness minimizes osc(f1 - g) + c * g'(0) over the weights of 120
fixed widths b_k, log-spaced on [1e-8, 1e3], with the oscillation
sampled at 3000 log-spaced points of [1e-4, 1e8] plus the limit at
infinity.  In the masses v_k = w_k (1/2) sqrt(pi / b_k) this is a linear
program, solved by HiGHS through `scipy.optimize.linprog`.  The fit is
deterministic; regenerate the table with

    python -m commbounds.witnesses

(add `--out PATH` to write elsewhere, for instance to compare).
"""

from __future__ import annotations

import argparse
import json
from importlib import resources

import numpy as np
from scipy.optimize import linprog
from scipy.special import erf

from commbounds.approx import MixtureParams

__all__ = ["FIT_NODES", "WIDTHS", "fit_witness", "load_witnesses", "main"]

WIDTHS = np.logspace(-8.0, 3.0, 120)
FIT_NODES = np.geomspace(0.0195, 40.0, 120)
_SAMPLE = np.geomspace(1e-4, 1e8, 3000)
_TABLE = "mixture_witnesses.json"


def fit_witness(c: float) -> MixtureParams:
    """Fit the mixture weights that minimize the sampled functional at c.

    Variables are the masses v_k >= 0, an upper level u >= 0 and a lower
    level l <= 0 (j(0) = 0 lies in the range); the program minimizes
    u - l + c * sum_k v_k / m_k subject to l <= j(x) <= u at every sample
    and at infinity, where j(x) = f1(x) - sum_k v_k erf(sqrt(b_k) x).
    Widths whose fitted mass is not positive are dropped.
    """
    half_mass = 0.5 * np.sqrt(np.pi / WIDTHS)
    n = WIDTHS.size
    basis = np.vstack((erf(np.multiply.outer(_SAMPLE, np.sqrt(WIDTHS))), np.ones(n)))
    target = np.concatenate((_SAMPLE / (_SAMPLE + 1.0), [1.0]))
    ones = np.ones((target.size, 1))
    zeros = np.zeros((target.size, 1))
    result = linprog(
        np.concatenate((c / half_mass, [1.0, -1.0])),
        A_ub=np.block([[-basis, -ones, zeros], [basis, zeros, ones]]),
        b_ub=np.concatenate((-target, target)),
        bounds=[(0.0, None)] * (n + 1) + [(None, 0.0)],
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"witness fit at c = {c!r} failed: {result.message}")
    mass = result.x[:n]
    keep = mass > 0.0
    return MixtureParams(
        tuple(float(v) for v in mass[keep] / half_mass[keep]),
        tuple(float(v) for v in WIDTHS[keep]),
    )


def load_witnesses() -> list[MixtureParams]:
    """Read the committed witness table shipped with the package."""
    payload = json.loads(resources.files("commbounds").joinpath(_TABLE).read_text())
    return [
        MixtureParams(tuple(float(v) for v in item["w"]), tuple(float(v) for v in item["b"]))
        for item in payload["witnesses"]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m commbounds.witnesses",
        description="Fit the Gaussian-mixture witness table.",
    )
    parser.add_argument(
        "--out",
        default=str(resources.files("commbounds").joinpath(_TABLE)),
        help="output path (default: the table inside the package)",
    )
    args = parser.parse_args(argv)
    witnesses = []
    for c in FIT_NODES:
        params = fit_witness(float(c))
        witnesses.append({"c": float(c), "w": list(params.w), "b": list(params.b)})
    with open(args.out, "w") as handle:
        json.dump({"witnesses": witnesses}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(witnesses)} witnesses to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
