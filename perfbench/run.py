"""chfdet benchmark: time to an accurate lnF, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload det-graded --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Each workload runs in fresh worker processes (perfbench/worker.py) with the
BLAS thread count fixed. References for the seed's cases are frozen in
perfbench/refs/ for seeds 1-20; for any other seed they are computed here,
before any timing, and kept under .bench_build/perfbench/ for the next run
with that seed. Set-up time is measured in SETUP_SAMPLES processes and
reported as their median. The bounded times, setup_s and wall_ref_s, are
scaled to the reference host's speed by a fixed unit of work timed in the
same process (worker.host_unit); the times as measured are printed too.
The last line of output is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BLAS_THREADS = 1
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
}
# printed only: the percentiles rest on as few as two cases (moments-small-n),
# and the accuracy figures depend on the seed's draws, not on speed
PRINTED = {
    "setup_raw_s": "s",
    "wall_s": "s",
    "host_slowdown": "1",
    "host_units": "count",
    "case_s.p50": "s",
    "case_s.p95": "s",
    "case_s.samples": "count",
    "passes": "count",
    "err.max": "abs",
    "err.p50": "abs",
    "err.max_no_shortfall": "abs",
    "err.secondary_max": "abs",
    "fail_frac": "1",
    "silent_err_frac": "1",
}
CHECK_LAYER = {"err.max": "check.err_max", "err.p50": "check.err_p50",
               "err.max_no_shortfall": "check.err_max_no_shortfall",
               "fail_frac": "check.fail_frac", "silent_err_frac": "check.silent_err_frac"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def _references(workload, seed, cases):
    """Reference record of every case: frozen, cached from an earlier run with
    the same cases and reference code, or computed now."""
    from reference import case_reference

    with open(os.path.join(HERE, "refs", f"{workload}.json")) as handle:
        frozen = json.load(handle)["seeds"]
    if str(seed) in frozen:
        return frozen[str(seed)]
    with open(os.path.join(HERE, "reference.py"), "rb") as handle:
        version = hashlib.sha256(handle.read() + json.dumps(cases).encode()).hexdigest()
    cache = os.path.join(OUT, f"{workload}-seed{seed}.refs-cache.json")
    if os.path.exists(cache):
        with open(cache) as handle:
            cached = json.load(handle)
        if cached["reference_sha256"] == version:
            return cached["cases"]
    print(f"computing references for {len(cases)} cases", flush=True)
    refs = {case["id"]: dict(case=case, **case_reference(case)) for case in cases}
    with open(cache, "w") as handle:
        json.dump({"reference_sha256": version, "cases": refs}, handle)
    return refs


def _spawn(args, refs_path, extra, deadline):
    """Run one worker to completion; returns its JSON result."""
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in _BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", refs_path, "--spawned", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, deadline) -> dict:
    """Set up, time and check one workload; returns the full result."""
    from cases import make_cases

    os.makedirs(OUT, exist_ok=True)
    refs = _references(args.workload, args.seed, make_cases(args.workload, args.seed))
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".refs.json", "w") as handle:
        json.dump({"cases": refs}, handle)
    probes = 0 if args.trace else SETUP_SAMPLES - 1  # the traced run reports no setup_s

    def probe():
        return _spawn(args, stem + ".refs.json", ["--setup-only"], deadline)

    # half the probes before the timing worker and half after it, so the
    # median spans the whole run rather than one moment of the host's load
    setups = [probe() for _ in range(probes // 2)]
    extra = ["--spans-out", stem + ".spans.json"] if args.trace else []
    timed = _spawn(args, stem + ".refs.json", extra, deadline)
    setups += [probe() for _ in range(probes - probes // 2)]
    result = finish(timed, setups)
    with open(stem + ".result.json", "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def finish(result, setups) -> dict:
    """Add the set-up medians, the environment and the verdict to a worker's
    result; ``setups`` are the results of set-up-only workers."""
    samples = setups + [{k: result[k] for k in ("setup_s", "setup_raw_s")}]
    result["setup_samples"] = samples
    for key in ("setup_s", "setup_raw_s"):
        result[key] = statistics.median(sample[key] for sample in samples)
    result["environment"] = _environment()
    result["correct"] = result["failed"] == 0
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, trace, result) -> dict:
    """Print every metric by name with its unit; returns the contract metrics."""
    env = result["environment"]
    print(f"== {workload} seed={seed} trace={trace} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("   env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if trace:
        metrics = {name: (value, _layer_unit(name)) for name, value in result["layers"].items()}
        metrics.update({CHECK_LAYER[k]: (result[k], PRINTED[k]) for k in CHECK_LAYER})
    else:
        metrics = {name: (result[name], unit) for name, unit in END_TO_END.items()}
    shown = dict(metrics)
    shown.update({name: (result[name], unit) for name, unit in PRINTED.items() if name in result})
    for name, (value, unit) in shown.items():
        print(f"   {name:<32} {_fmt(value):>14} {unit}")
    if result["missed_cases"]:
        print("   missed target: " + ", ".join(result["missed_cases"]))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _layer_unit(name) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("flops"):
        return "flop.computed"
    if name.endswith("accept_ratio") or name.endswith("per_stat"):
        return "1"
    return "count"


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "chfdet", "__init__.py")):
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    from cases import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(w not in WORKLOADS for w in workloads):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S * len(workloads)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        args.workload = workload
        result = run_workload(args, deadline)
        metrics = report(workload, args.seed, args.trace, result)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else workload + "/"
        summary["metrics"].update({prefix + name: m for name, m in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
