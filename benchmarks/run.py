"""neuroram benchmark: one workload, one process, one result line.

    python3 benchmarks/run.py --workload index-1024 --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics with
tracing off.  With ``--trace 1`` it measures the first half of the window
untraced and the second half with spans around the library's public
functions, and reports per-layer metrics.  Human-readable lines come first;
the last line of standard output is the JSON result.  Details, provenance
and the spans go to ``benchmarks/.out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOADS = ("index-1024", "index-4096", "similarity", "certify")
# Pinned for this process before numpy loads: one BLAS/OpenMP thread, and the
# experiments process pool stays unused.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NEURORAM_THREADS")
END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure(workload, seconds: float, ledger, first: int, min_steps: int):
    """Run steps until the next one would end past ``seconds``; returns per-step trials/s."""
    rates: list[float] = []
    start = time.perf_counter()
    last = 0.0
    k = first
    while len(rates) < min_steps or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        trials = workload.step(k, ledger)
        last = time.perf_counter() - t
        rates.append(trials / last)
        k += 1
    return rates, k


def throughput(rates: list[float]) -> float:
    """The slowest step's trials/s.

    On a shared host, speed comes in short bursts of up to +70 % on top of a
    steady loaded baseline; the slowest step tracks that baseline, so it
    spreads far less from run to run than the median step does.
    """
    return min(rates)


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(idx / 'level')} {_read(idx / 'type')}"] = _read(idx / "size")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "command": [sys.executable, *sys.argv],
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run(args, import_s: float, tmp: Path) -> tuple[dict, dict, dict]:
    """Set up, measure and check one workload; returns (metrics, units, details)."""
    import layers
    import workloads
    from spans import Tracer, overhead_pct

    wl = workloads.make(args.workload, args.seed, tmp)
    ledger = workloads.Ledger()
    tracer = Tracer() if args.trace else None
    found, missing = layers.targets()

    @contextmanager
    def traced(root: str):
        if tracer is None:
            yield
            return
        with tracer.installed(found, layers.library_modules()), tracer.span(root):
            yield

    setup_times = []
    for _ in range(wl.setup_reps):
        with traced("setup"):
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
        wl.verify_setup()
    setup_s = import_s + statistics.median(setup_times)

    extra: dict = {"setup_times_s": setup_times, "import_s": import_s}
    if tracer is None:
        rates, _ = measure(wl, args.seconds, ledger, 0, wl.min_steps)
        metrics = {
            "trials_per_s": throughput(rates),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wl.after_window(ledger)
        extra["step_rates"] = rates
        units = END_TO_END
    else:
        half = args.seconds / 2
        per_half = math.ceil(wl.min_steps / 2)
        plain, k = measure(wl, half, ledger, 0, per_half)
        with traced("measure"):
            rates, _ = measure(wl, half, ledger, k, per_half)
            wl.after_window(ledger)
        metrics = {name: 0.0 for name in layers.PER_LAYER}
        metrics.update(layers.layer_metrics(tracer))
        metrics.update(wl.layer_stats())
        metrics.update(wl.diagnose())
        metrics["trace.overhead_pct"] = overhead_pct(throughput(plain), throughput(rates))
        extra.update(step_rates_untraced=plain, step_rates_traced=rates,
                     missing_functions=missing, spans=tracer.to_json())
        units = layers.PER_LAYER
    extra.update(attempted=ledger.attempted, failed=ledger.failed,
                 fail_rate=ledger.fail_rate, errors=ledger.errors)
    return metrics, units, extra


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    # The dependencies load untimed; set-up time counts the library's own import.
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401

    t = time.perf_counter()
    try:
        import layers  # noqa: F401  (imports every library module the workloads use)
        import workloads  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import neuroram from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t
    import neuroram

    if Path(neuroram.__file__).resolve().parent.parent != src.resolve():
        print(f"error: neuroram was imported from {neuroram.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        metrics, units, extra = run(args, import_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    prov = provenance(args.seed)
    attempted, failed = extra["attempted"], extra["failed"]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"provenance": prov, "result": result, **extra}, indent=1))

    print(f"provenance {json.dumps(prov)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} -> {detail.name}")
    for err in extra["errors"]:
        print(f"failed: {err}")
    print(f"{'fail_rate':32s} {extra['fail_rate']:.6g} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
