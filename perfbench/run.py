"""Benchmark of commbounds: the paper certificate, the per-node searches and the matrix campaign.

Run one workload from the root of the repository:

    python3 perfbench/run.py --workload paper-cert --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` records spans
around the program's public functions and reports the per-layer
metrics instead.  The program is imported from `src/` next to this
directory, never from elsewhere.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the lines above it give the workload's figures under their own names.
Each run also writes a results file (and, traced, a span file) under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is what a user waits for before the first certificate: a fresh
# interpreter importing the package and reading the witness table.
SETUP_RUNS = 3
SETUP_CODE = "import commbounds\nfrom commbounds.witnesses import load_witnesses\nload_witnesses()\n"
WORKLOAD_NAMES = ("paper-cert", "node-search", "campaign")


def _import_program():
    """Import commbounds from SRC; exit with an error when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import commbounds
    except ImportError as exc:
        raise SystemExit(f"cannot import commbounds from {SRC}: {exc}")
    if Path(commbounds.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"commbounds was imported from {commbounds.__file__}, not from {SRC}")
    return commbounds


def _setup_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True, capture_output=True, timeout=120
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def _machine(commbounds) -> dict:
    import mpmath
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commbounds": commbounds.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    commbounds = _import_program()
    # The workloads import the program, so they load after it is on the path.
    import spans
    import workloads
    from commbounds import witnesses

    started = datetime.datetime.now(datetime.timezone.utc)
    tracer = spans.Tracer() if args.trace else None
    metrics: dict[str, tuple[float, str]] = {}
    if tracer:
        with tracer.recording("setup"):
            witnesses.load_witnesses()
        tracer.passes["setup"] = 1
    else:
        metrics["setup_s"] = (_setup_seconds(), "s")

    OUT.mkdir(exist_ok=True)
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, OUT)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{started:%Y%m%dT%H%M%S}-{os.getpid()}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": started.isoformat(),
        "machine": _machine(commbounds),
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
        "phases": outcome.phases,
    }
    if tracer:
        layers, self_times = spans.layer_metrics(tracer)
        metrics.update(layers)
        record["self_s_per_pass"] = self_times
        record["passes"] = tracer.passes
        (OUT / "traces").mkdir(exist_ok=True)
        record["trace_file"] = str((OUT / "traces" / f"{stem}.npz").relative_to(ROOT))
        tracer.save(ROOT / record["trace_file"])
    else:
        metrics["peak_rss_mb"] = (outcome.peak_rss_mb, "MB")
        metrics.update(outcome.slots)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)

    for message in outcome.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name, (value, unit) in {**outcome.named, **metrics}.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not outcome.errors,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
