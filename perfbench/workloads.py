"""The benchmark's three workloads, run through commbounds' public API.

Each workload has two phases, timed apart.  A phase runs passes until
its share of the run's seconds has passed (at least one pass) and
reports its operations per second over all its passes.  A pass either repeats the same
inputs, which are then fixed by the seed and must give the same outputs
every time, or draws fresh inputs from numpy's `default_rng((seed, r))`
for pass r, so that a rate averages over many inputs and depends little
on the seed.  Outputs are checked by `oracles` after the phases, outside
the timed part.

Every run reports the same metric names, so a workload returns its
end-to-end figures in shared slots: the rates of its two phases
(`phase1_per_s`, `phase2_per_s`) and two computed results that a faster
program must not worsen (`constant_1`, `constant_2`), all taken from
inputs fixed by the seed.  It also returns the same figures under the
workload's own names, which the runner prints and stores.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy import special

import oracles
from commbounds import approx, formulas, matrixlab, optimize, witnesses

# The package exports a function named stitch, which hides the module of that name.
stitch = importlib.import_module("commbounds.stitch")

# paper-cert: each fit pass refits one witness per stratum of FIT_NODES (4 strata of 30).
FIT_STRATUM = 30
# node-search: every 50th node of the 5262-node paper grid (106 nodes), and
# every 100th node of criterion 4's grid k/1000, k = 1..15000 (150 nodes),
# from a seed-drawn offset.
GAUSS_STRIDE = 50
PQ_STRIDE = 100
# Only nodes at c >= 0.6 enter search_mean_C: below it the single-Gaussian
# family's floor is above 1.0205 whatever the search does.
MEAN_FROM = 0.6
# campaign: trials per pass of criterion 7's and criterion 6's configurations;
# sweep instances of each size n = 2..6, dealt into blocks that each hold the
# same number of every size, so a pass (one block) costs the same whatever
# the seed; and sweep calls recomputed with eigh and svd.
CAMPAIGN_TRIALS = 200
SHARP_TRIALS = 100
SWEEP_PER_SIZE = 40
SWEEP_BLOCKS = 5
RECHECKED = 50

# The reference loop's length, the seconds it takes at the machine speed that
# rates are scaled to (its median on the machine of the README's figures), and
# the least time between two timings of it within a phase.
REFERENCE_ROUNDS = 80000
REFERENCE_S = 0.05
REFERENCE_EVERY_S = 1.0

FUNCTIONS = {"f1": approx.f1, "sqrt": math.sqrt}
NORM_KINDS = {
    "operator": matrixlab.NormKind.operator(),
    "kyfan2": matrixlab.NormKind.ky_fan(2),
    "schatten3": matrixlab.NormKind.schatten(3.0),
    "trace": matrixlab.NormKind.trace(),
    "hs": matrixlab.NormKind.hilbert_schmidt(),
}


@dataclass
class Outcome:
    """A workload's figures, operation counts and check failures."""

    slots: dict[str, tuple[float, str]]
    named: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    errors: list[str]
    phases: dict[str, dict]
    peak_rss_mb: float


@dataclass
class _Phase:
    outputs: list
    seconds: list[float]
    reference_seconds: list[float]
    attempted: int = 0
    failed: int = 0

    @property
    def wall_rate(self) -> float:
        """Attempted operations per second of wall-clock time."""
        return self.attempted / math.fsum(self.seconds)

    @property
    def rate(self) -> float:
        """The wall-clock rate scaled to the speed at which the reference loop takes REFERENCE_S."""
        return self.wall_rate * statistics.fmean(self.reference_seconds) / REFERENCE_S

    def record(self) -> dict:
        return {
            "pass_seconds": self.seconds,
            "reference_seconds": self.reference_seconds,
            "wall_rate": self.wall_rate,
            "rate": self.rate,
        }


def _reference_seconds() -> float:
    """Time a fixed mix of interpreted arithmetic, small matrix products and a vectorised erf.

    On a shared host the machine's speed drifts by tens of percent over
    seconds to minutes.  The loop, timed between passes about once
    a second, follows the drift, and a phase's rate is scaled by it.
    """
    small = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    wide = np.linspace(0.0, 4.0, 2000)
    total = 0.0
    start = perf_counter()
    for i in range(REFERENCE_ROUNDS):
        total += math.log1p(i) * math.exp(-1e-5 * i) + math.erf(1e-4 * i)
        if i % 16 == 0:
            total += float((small @ small).sum())
        if i % 400 == 0:
            total += float(special.erf(wide).sum())
    return perf_counter() - start


def _attempt(call, *args, **kwargs):
    """Run one operation of the program; an exception makes it a failed operation."""
    try:
        return call(*args, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def _repeat(budget: float, tracer, phase: str, one_pass, min_passes: int = 1) -> _Phase:
    """Run one_pass(r) for r = 0, 1, ... until budget seconds have passed and min_passes have run.

    one_pass returns (output, attempted, failed).  The reference loop
    runs after the first pass and then after any pass that ends at least
    REFERENCE_EVERY_S after the loop last ran, outside the passes' time.
    """
    out = _Phase([], [], [])
    with tracer.recording(phase) if tracer else nullcontext():
        deadline, next_reference = perf_counter() + budget, 0.0
        while len(out.seconds) < min_passes or perf_counter() < deadline:
            start = perf_counter()
            output, tried, lost = one_pass(len(out.seconds))
            out.seconds.append(perf_counter() - start)
            out.outputs.append(output)
            out.attempted, out.failed = out.attempted + tried, out.failed + lost
            if perf_counter() >= next_reference:
                out.reference_seconds.append(_reference_seconds())
                next_reference = perf_counter() + REFERENCE_EVERY_S
    if tracer:
        tracer.passes[phase] = len(out.seconds)
    return out


def _peak_rss_mb() -> float:
    """The process's high-water mark so far; workloads take it before their checks run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _outcome(phases: dict[str, _Phase], peak_rss_mb, constants, named, errors) -> Outcome:
    first, second = phases.values()
    slots = {
        "phase1_per_s": (first.rate, "1/s"),
        "phase2_per_s": (second.rate, "1/s"),
        "constant_1": (constants[0], "1"),
        "constant_2": (constants[1], "1"),
    }
    return Outcome(
        slots,
        named,
        sum(p.attempted for p in phases.values()),
        sum(p.failed for p in phases.values()),
        errors,
        {name: p.record() for name, p in phases.items()},
        peak_rss_mb,
    )


# --- paper-cert ----------------------------------------------------------------


def _certificate(grid):
    points = optimize.certify_grid(grid)
    return points, stitch.global_constant(points, grid[0], grid[-1]), stitch.sqrt_constant(points)


def paper_cert(seed: int, seconds: float, tracer, workdir) -> Outcome:
    """Certify the paper grid from the witness table; refit a stratified handful of witnesses."""
    grid = optimize.build_paper_grid()
    strata = range(0, witnesses.FIT_NODES.size, FIT_STRATUM)

    first = {}

    def certify_pass(r):
        # The paper grid does not depend on the seed: later passes only say
        # whether they reproduced the first, so memory does not grow with time.
        out = _attempt(_certificate, grid)
        if out is None:
            return None, len(grid), len(grid)
        points = out[0]
        fingerprint = (tuple(p.C_k for p in points), out[1].global_C, out[2])
        same = first.setdefault("fingerprint", fingerprint) == fingerprint
        return (out if r == 0 else same), len(grid), sum(p.degenerate for p in points)

    def fit_pass(r):
        rng = np.random.default_rng((seed, r))
        nodes = [float(witnesses.FIT_NODES[s + int(rng.integers(FIT_STRATUM))]) for s in strata]
        fits = [_attempt(witnesses.fit_witness, c) for c in nodes]
        return fits, len(fits), sum(f is None for f in fits)

    cert_phase = _repeat(seconds / 2.0, tracer, "certify", certify_pass)
    fit_phase = _repeat(seconds / 2.0, tracer, "fit", fit_pass)
    peak_rss_mb = _peak_rss_mb()

    errors = []
    max_c = sqrt_c = math.nan
    if cert_phase.outputs[0] is not None:
        points, cert, sqrt_c = cert_phase.outputs[0]
        max_c = max(p.C_k for p in points)
        errors += _check_certificate(grid, points, cert, sqrt_c, seed, workdir)
    if not all(same for same in cert_phase.outputs[1:] if same is not None):
        errors.append("phase certify did not repeat its first pass")
    for params in (p for fits in fit_phase.outputs for p in fits if p is not None):
        enclosure = approx.certify_mixture(params)
        errors += oracles.check_enclosure(params, enclosure.low, enclosure.high)

    return _outcome(
        {"certify": cert_phase, "fit": fit_phase},
        peak_rss_mb,
        (max_c, sqrt_c),
        {
            "paper_cert_s": (len(grid) / cert_phase.rate, "s"),
            "witness_fit_s": (1.0 / fit_phase.rate, "s"),
            "max_node_C": (max_c, "1"),
            "sqrt_C": (sqrt_c, "1"),
        },
        errors,
    )


def _check_certificate(grid, points, cert, sqrt_c, seed, workdir) -> list[str]:
    errors = []
    if not cert.global_C <= oracles.GLOBAL_C_MAX:
        errors.append(f"global_C = {cert.global_C!r} exceeds {oracles.GLOBAL_C_MAX}")
    if not sqrt_c <= oracles.SQRT_C_MAX:
        errors.append(f"sqrt_C = {sqrt_c!r} exceeds {oracles.SQRT_C_MAX}")
    errors += oracles.check_mixture_nodes(points)

    shuffle = np.random.default_rng(seed).permutation(len(grid))
    shuffled = {p.c: p.C_k for p in optimize.certify_grid([grid[i] for i in shuffle])}
    moved = sum(shuffled[p.c] != p.C_k for p in points)
    if moved:
        errors.append(f"{moved} nodes change their C_k when the grid is shuffled")

    exact = oracles.sqrt_constant_fsum([p.c for p in points], [p.C_k for p in points])
    if not abs(sqrt_c - exact) <= 1e-12 * exact:
        errors.append(f"sqrt_C = {sqrt_c!r} differs from its fsum recomputation {exact!r}")

    # The certificate a reader re-checks is the file: it must read back whole.
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = f"{tmp}/certificate.json"
        with open(path, "w") as handle:
            json.dump(cert.to_dict(), handle)
        with open(path) as handle:
            back = stitch.StitchedCertificate.from_dict(json.load(handle))
    if back.points != cert.points or back.global_C != cert.global_C:
        errors.append("the certificate does not survive a JSON round trip")
    return errors


# --- node-search -----------------------------------------------------------------


def node_search(seed: int, seconds: float, tracer, workdir) -> Outcome:
    """Chained single-Gaussian and piecewise-quadratic searches on seed-offset subgrids."""
    paper_grid = optimize.build_paper_grid()

    def gauss_pass(r):
        rng = np.random.default_rng((seed, r))
        grid = paper_grid[int(rng.integers(GAUSS_STRIDE)) :: GAUSS_STRIDE]
        points = _attempt(optimize.optimize_grid, grid)
        if points is None:
            return [], len(grid), len(grid)
        return points, len(grid), sum(p.degenerate for p in points)

    def pq_pass(r):
        rng = np.random.default_rng((seed, r))
        grid = [k / 1000.0 for k in range(1 + int(rng.integers(PQ_STRIDE)), 15001, PQ_STRIDE)]
        nodes, start, failed = [], (1.0, -0.01), 0
        for c in grid:
            out = _attempt(formulas.optimize_pq_f1, c, start=start)
            if out is None:
                failed += 1
                continue
            nodes.append((c, *out))
            start = (out[1].a, out[1].m)
        return nodes, len(grid), failed

    gauss_phase = _repeat(seconds / 2.0, tracer, "gauss", gauss_pass)
    pq_phase = _repeat(seconds / 2.0, tracer, "pq", pq_pass)
    peak_rss_mb = _peak_rss_mb()

    errors = []
    for points in gauss_phase.outputs:
        errors += oracles.check_gaussian_nodes(points)
    for nodes in pq_phase.outputs:
        errors += oracles.check_pq_nodes(nodes)
    upper = [p.C_k for p in gauss_phase.outputs[0] if p.c >= MEAN_FROM and not p.degenerate]
    mean_c = statistics.fmean(upper) if upper else math.nan
    pq_max = max((bound for _, bound, _ in pq_phase.outputs[0]), default=math.nan)

    return _outcome(
        {"gauss": gauss_phase, "pq": pq_phase},
        peak_rss_mb,
        (pq_max, mean_c),
        {
            "search_nodes_per_s": (gauss_phase.rate, "nodes/s"),
            "search_mean_C": (mean_c, "1"),
            "pq_nodes_per_s": (pq_phase.rate, "nodes/s"),
            "pq_max_C": (pq_max, "1"),
        },
        errors,
    )


# --- campaign ----------------------------------------------------------------------


def _wishart(rng, n):
    m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return m @ m.conj().T


def _instance(rng, n):
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    return _wishart(rng, n), _wishart(rng, n), x


def _campaign_configs(rng):
    operator = matrixlab.NormKind.operator()
    return (
        # Criterion 7: f1 in the operator norm, n <= 6.
        matrixlab.CampaignConfig(
            n_max=6, trials=CAMPAIGN_TRIALS, seed=int(rng.integers(2**31)), f="f1", norm=operator, threads=1
        ),
        # Criterion 6: the sharp inequality, where the ratio is at most 1.
        matrixlab.CampaignConfig(
            n_max=5,
            trials=SHARP_TRIALS,
            seed=int(rng.integers(2**31)),
            f="sqrt",
            norm=operator,
            a_equals_b=True,
            unit_norm_a=True,
            min_commutator=0.25,
            threads=1,
        ),
    )


def campaign(seed: int, seconds: float, tracer, workdir) -> Outcome:
    """Seeded Monte-Carlo campaigns, then a per-instance ratio sweep over five norms."""
    rng = np.random.default_rng(seed)
    instances = [_instance(rng, n) for n in range(2, 7) for _ in range(SWEEP_PER_SIZE)]
    blocks = [
        [(i, f, norm) for i in range(b, len(instances), SWEEP_BLOCKS) for f in FUNCTIONS for norm in NORM_KINDS]
        for b in range(SWEEP_BLOCKS)
    ]
    rechecked = rng.choice(sum(map(len, blocks)), size=RECHECKED, replace=False)

    def campaign_pass(r):
        configs = _campaign_configs(np.random.default_rng((seed, r)))
        reports = [_attempt(matrixlab.monte_carlo_campaign, cfg) for cfg in configs]
        lost = sum(cfg.trials for cfg, report in zip(configs, reports) if report is None)
        return list(zip(configs, reports)), sum(cfg.trials for cfg in configs), lost

    def sweep_pass(r):
        ratios = [
            _attempt(matrixlab.verify_conjecture_ratio, *instances[i], FUNCTIONS[f], NORM_KINDS[norm])
            for i, f, norm in blocks[r % SWEEP_BLOCKS]
        ]
        return ratios, len(ratios), sum(ratio is None for ratio in ratios)

    campaign_phase = _repeat(seconds / 2.0, tracer, "campaign", campaign_pass)
    sweep_phase = _repeat(seconds / 2.0, tracer, "sweep", sweep_pass, min_passes=SWEEP_BLOCKS)
    peak_rss_mb = _peak_rss_mb()

    errors = []
    outputs = sweep_phase.outputs
    if any(outputs[r] != outputs[r - SWEEP_BLOCKS] for r in range(SWEEP_BLOCKS, len(outputs))):
        errors.append("phase sweep did not repeat its first passes")
    for cfg, report in (pair for pairs in campaign_phase.outputs for pair in pairs):
        if report is not None:
            errors += _check_campaign(cfg, report)
    calls = [call for block in blocks for call in block]
    ratios = [ratio for block in outputs[:SWEEP_BLOCKS] for ratio in block]
    by_f = {f: [] for f in FUNCTIONS}
    for (i, f, norm), ratio in zip(calls, ratios):
        if ratio is not None:
            by_f[f].append(ratio)
            errors += oracles.check_ratio(ratio, f, norm)
    for k in rechecked:
        (i, f, norm), ratio = calls[k], ratios[k]
        if ratio is not None:
            errors += oracles.check_recomputed(ratio, *instances[i], f, norm)
    mean_f1, mean_sqrt = (statistics.fmean(by_f[f]) if by_f[f] else math.nan for f in FUNCTIONS)

    return _outcome(
        {"campaign": campaign_phase, "sweep": sweep_phase},
        peak_rss_mb,
        (mean_f1, mean_sqrt),
        {
            "campaign_trials_per_s": (campaign_phase.rate, "trials/s"),
            "ratio_checks_per_s": (sweep_phase.rate, "checks/s"),
            "sweep_mean_f1_ratio": (mean_f1, "1"),
            "sweep_mean_sqrt_ratio": (mean_sqrt, "1"),
        },
        errors,
    )


def _check_campaign(cfg, report) -> list[str]:
    errors = []
    if report.evaluated + report.skipped != cfg.trials:
        errors.append(f"campaign evaluated {report.evaluated} + skipped {report.skipped} != {cfg.trials} trials")
    if cfg.a_equals_b:
        if not report.max_ratio <= 1.0 + oracles.SHARP_SLACK:
            errors.append(f"sharp-inequality ratio {report.max_ratio!r} exceeds 1")
    else:
        errors += oracles.check_ratio(report.max_ratio, cfg.f, "operator")
    if report.argmax is not None:
        A, B, X = (oracles.matrix_from_payload(report.argmax[k]) for k in "ABX")
        errors += oracles.check_recomputed(report.argmax["ratio"], A, B, X, cfg.f, "operator")
    return errors


WORKLOADS = {"paper-cert": paper_cert, "node-search": node_search, "campaign": campaign}
