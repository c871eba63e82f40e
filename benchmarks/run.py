"""regretgap benchmark: one workload per process, outputs checked, metrics printed.

Usage, from the repository root:

    python3 benchmarks/run.py --workload train-small --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout this file sits in;
nothing needs installing.  With ``--trace 0`` the run reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` every
item runs twice, once plain and once with the public functions of each
regretgap module wrapped in spans, and the run reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the run manifest, goes to ``benchmarks/out/``.  See
``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One process, no extra threads: OpenBLAS would otherwise start one per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("train-small", "eval-desk", "verify-pinned", "cli-desk")

SETUP_REPEATS = 5   # cold set-ups per untraced run; setup_s is their median
TAIL_BEYOND = 10    # items that must lie beyond the tail percentile
MIN_ITEMS = TAIL_BEYOND + 1


def _load_library():
    """Import regretgap from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import regretgap

    if Path(regretgap.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"regretgap imported from {regretgap.__file__}, not from {SRC}")


def _cold_setups(args, n) -> list[float]:
    """Seconds of ``n`` set-ups, each in a fresh interpreter that then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    cmd += ["--tiny"] if args.tiny else []
    return [float(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                                 check=True).stdout.strip().splitlines()[-1])
            for _ in range(n)]


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _openblas_threads():
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
            fn = getattr(handle, fn_name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _manifest(args, workload) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(), "python": platform.python_version(), "numpy": np.__version__,
        "openblas_threads": _openblas_threads(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "workload": workload.name, "params": workload.params,
        "cycle_items": len(workload.cycle),
    }


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


class ItemError:
    def __init__(self, exc: BaseException):
        self.message = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _attempt(workload, spec):
    """Run one item; returns (seconds, output or ItemError).  Only run() is timed."""
    t0 = perf_counter()
    try:
        raw = workload.run(spec)
    except Exception as exc:  # an item that raises counts as failed, the run goes on
        return perf_counter() - t0, ItemError(exc)
    elapsed = perf_counter() - t0
    try:
        return elapsed, workload.collect(spec, raw)
    except Exception as exc:
        return elapsed, ItemError(exc)


def _set_up(workload, seed, tracer) -> None:
    """Input generation and warm-up, traced as item "setup" when there is a tracer."""
    if tracer is not None:
        tracer.item = "setup"
        tracer.install()
    try:
        workload.setup(seed)
        for spec in workload.cycle[:workload.warmup]:
            _attempt(workload, spec)
    finally:
        if tracer is not None:
            tracer.uninstall()


class Outputs:
    """Item outputs of one run, grouped for checking after the timed loop.

    Items repeat in cycles, and the library is deterministic, so each cycle
    position normally yields one output however often it runs.  Only one
    output per (cycle position, digest) is kept; memory stays bounded by the
    cycle, whatever the run length.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted: set = set()
        self.errors: list = []      # (item index, message) of items that raised
        self.groups: dict = {}      # (cycle position, digest) -> (output, item indices)

    def add(self, k, out) -> None:
        self.attempted.add(k)
        if isinstance(out, ItemError):
            self.errors.append((k, f"raised {out.message}"))
            return
        key = (k % len(self.workload.cycle), self.workload.digest(out))
        self.groups.setdefault(key, (out, []))[1].append(k)

    def failures(self) -> list[tuple[int, str]]:
        """Check each distinct output once; (item index, message) per failed run."""
        failed = list(self.errors)
        for (pos, _), (out, items) in self.groups.items():
            try:
                self.workload.check(self.workload.cycle[pos], out)
            except Exception as exc:
                failed += [(k, ItemError(exc).message) for k in items]
        return failed


def _run_plain(workload, seconds, outputs):
    latencies = []
    start = perf_counter()
    k = 0
    while k < MIN_ITEMS or perf_counter() - start < seconds:
        elapsed, out = _attempt(workload, workload.cycle[k % len(workload.cycle)])
        latencies.append(elapsed)
        outputs.add(k, out)
        k += 1
    return latencies, perf_counter() - start


def _run_traced(workload, seconds, tracer, outputs):
    """Each item runs plain and traced, alternating which goes first."""
    plain, traced = [], []
    start = perf_counter()
    k = 0
    n = len(workload.cycle)
    while k < n or perf_counter() - start < seconds:
        spec = workload.cycle[k % n]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.item = k
                tracer.install()
                try:
                    elapsed, out = _attempt(workload, spec)
                finally:
                    tracer.uninstall()
                traced.append(elapsed)
            else:
                elapsed, out = _attempt(workload, spec)
                plain.append(elapsed)
            outputs.add(k, out)
        k += 1
    return plain, traced, start


def _end_to_end(latencies, wall, setups, peak_rss_kb, failures):
    n = len(latencies)
    ordered = sorted(latencies)
    return {
        "items_per_s": n / wall,
        "item_ms.p50": statistics.median(latencies) * 1e3,
        "item_ms.tail": ordered[n - 1 - TAIL_BEYOND] * 1e3,
        "fail_frac": len({k for k, _ in failures}) / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, {"tail_percentile": 100.0 * (n - TAIL_BEYOND) / n, "tail_items": n,
        "setup_s_samples": setups}


def _per_layer(tracer, cycle_len, plain, traced):
    """Per-layer metrics: self time per traced item, exact counts per cycle."""
    by_item = tracer.self_times()
    self_ms: dict = {}
    calls: dict = {}
    for item, names in by_item.items():
        if item == "setup":
            continue
        for name, (n_calls, secs) in names.items():
            self_ms[name] = self_ms.get(name, 0.0) + secs
            if item < cycle_len:
                calls[name] = calls.get(name, 0) + n_calls
    counters: dict = {}
    for item, counter in tracer.counts.items():
        if item != "setup" and item < cycle_len:
            for name, value in counter.items():
                counters[name] = counters.get(name, 0) + value
    values = {f"{name}.self_ms": secs * 1e3 / len(traced) for name, secs in self_ms.items()}
    values.update({f"{name}.calls": c for name, c in calls.items()})
    values.update(counters)
    values["fixtures.build.self_ms"] = sum(
        v for k, v in values.items() if k.startswith("fixtures.") and k.endswith(".self_ms"))
    values["fixtures.build.setup_ms"] = 1e3 * sum(
        secs for name, (_, secs) in by_item.get("setup", {}).items() if name.startswith("fixtures."))
    values["trace.items_per_s_untraced"] = len(plain) / sum(plain)
    values["trace.items_per_s_traced"] = len(traced) / sum(traced)
    values["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    return values


def _show(workload, name, value, unit):
    shown = value if isinstance(value, int) else f"{value:.6g}"
    print(f"{workload:14s} {name:52s} {shown} {unit}")


def run_workload(args) -> int:
    # Set-up is timed from before the library is imported: this interpreter is
    # fresh, so this is one cold set-up, and the child processes give the rest.
    t0 = perf_counter()
    _load_library()
    import tracer as tracing
    import workloads

    workload = workloads.make(args.workload, args.tiny, OUT / "work" / args.workload)
    tracer = tracing.Tracer() if args.trace else None
    _set_up(workload, args.seed, tracer)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(setup_s)
        return 0
    setups = [setup_s] if args.trace else [setup_s] + _cold_setups(args, SETUP_REPEATS - 1)
    specs = _metric_specs()
    manifest = _manifest(args, workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    outputs = Outputs(workload)
    if args.trace:
        plain, traced, origin = _run_traced(workload, args.seconds, tracer, outputs)
        failures = outputs.failures()
        values = _per_layer(tracer, len(workload.cycle), plain, traced)
        wanted = specs["per_layer"]
        extra = {"traced_items": len(traced), "exact_counts_over_items": len(workload.cycle),
                 "computed_counts": list(tracing.COMPUTED)}
        tracer.write_spans(OUT / f"{tag}-spans.csv", origin)
    else:
        latencies, wall = _run_plain(workload, args.seconds, outputs)
        # read before the output checks, which allocate memory of their own
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures = outputs.failures()
        values, extra = _end_to_end(latencies, wall, setups, peak_rss_kb, failures)
        wanted = specs["end_to_end"]
        _show(args.workload, "fail_frac", values["fail_frac"], "ratio")
        _show(args.workload, "item_ms.tail.percentile", extra["tail_percentile"],
              f"% (of {extra['tail_items']} items)")
    metrics = {}
    for m in wanted:
        # a layer that the workload never reaches has no spans and reads 0
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        _show(args.workload, m["name"], metrics[m["name"]]["value"], m["unit"])
    attempted = len(outputs.attempted)
    failed = len({k for k, _ in failures})
    for k, msg in failures[:20]:
        print(f"{args.workload:14s} FAILED item {k}: {msg}", file=sys.stderr)
    record = {"manifest": manifest, "metrics": metrics, "extra": extra,
              "attempted": attempted, "failed": failed, "failures": failures[:100]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, default=str))
    print("manifest " + json.dumps(manifest, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads, each in its own process
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    combined, attempted, failed, ok = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}/{metric}"] = value
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input to a few states, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and exit (used for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
