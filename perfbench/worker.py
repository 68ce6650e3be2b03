"""One workload in a fresh process: set up, time the case list, check it.

Started by run.py, never by hand. Set-up is the time from the spawn (a
CLOCK_MONOTONIC reading taken by the parent just before it starts this
process) to the end of its warm-up: interpreter start, imports, reference
loading and a fixed warm-up. The untraced run then evaluates cases in list
order, wrapping around, until --seconds have passed and every case has run
once. After set-up and after each timed case it times host_unit(), fixed
work that calls no package code, and reports set-up and case times both as
measured and scaled to the reference host's speed. The traced run makes
exactly one traced pass between two untraced ones, so its counts repeat
exactly; the tracing overhead is the traced pass's time minus the faster
untraced pass. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

import numpy as np

from cases import check, evaluate, make_cases
from chfdet import fredholm, painleve
from chfdet.kernel import Configuration, KernelParams

# every case gets at least this many samples
MIN_PASSES = 1
# about host_unit() on the reference host, a 2-core shared VM, in its fastest
# phases; it only sets the scale of the scaled times
HOST_REF_S = 0.010
# after each timed case, host_unit() runs for this share of the case's time
HOST_SHARE = 0.2
# seconds of host_unit() after set-up
HOST_SETUP_S = 0.2
_HOST_MATRIX = np.exp(1j * np.arange(200 * 200).reshape(200, 200)) + 20.0 * np.eye(200)


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _warm_up():
    """Run the determinant and the flow once on a fixed input: this fills
    the quadrature-rule cache, starts BLAS, and lets the allocator grow to
    hold matrices of the sizes the workloads use (N=864 here)."""
    params = KernelParams(alpha=0.25)
    config = Configuration(r=(-1.0, 0.0, 1.0), gamma=(0.5, 0.5), t=5.0)
    fredholm.log_det(params, config)
    painleve.cpv_integrate(painleve.cpv_init(params, config), params, config, 1.0)


def host_unit() -> float:
    """Time one fixed unit of work that calls no package code: interpreted
    Python, small numpy operations and one complex LU, the mix the workloads
    run. On a shared host all of these slow down together, by up to 1.9x in
    phases of 0.1 s to minutes. The mean of many units, spread over a run,
    measures how much slower than the reference host the run went.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 7 % 13) * 0.5
    v = np.arange(8.0)
    for _ in range(3000):
        v = v * 1.0000001 + np.sin(v) * 1e-9
    np.linalg.slogdet(_HOST_MATRIX)
    return time.perf_counter() - start


def _percentile(values, q):
    return float(np.percentile(values, q))


class Run:
    """Evaluations of one workload and their checks."""

    def __init__(self, cases, refs):
        self.cases = cases
        self.refs = refs
        self.latency = {case["id"]: [] for case in cases}
        self.units = []  # host_unit() times of the timed run
        self.first = {}  # case id -> check records of its first evaluation
        self.attempted = 0
        self.failed = 0

    def evaluate(self, case, wrap=None):
        start = time.perf_counter()
        outputs = evaluate(case) if wrap is None else wrap(case["id"], lambda: evaluate(case))
        elapsed = time.perf_counter() - start
        records = check(case, outputs, self.refs[case["id"]]["values"])
        self.latency[case["id"]].append(elapsed)
        self.first.setdefault(case["id"], records)
        self.attempted += 1
        self.failed += not all(r["ok"] for r in records)
        return elapsed

    def one_pass(self, wrap=None):
        return sum(self.evaluate(case, wrap) for case in self.cases)

    def timed(self, seconds):
        """Evaluate the cases in order, wrapping around; after each case, run
        host_unit() for HOST_SHARE of the case's time, and at least once."""
        deadline = time.perf_counter() + seconds
        index = 0
        while index < MIN_PASSES * len(self.cases) or time.perf_counter() < deadline:
            elapsed = self.evaluate(self.cases[index % len(self.cases)])
            spent = 0.0
            while not spent or spent < HOST_SHARE * elapsed:
                self.units.append(host_unit())
                spent += self.units[-1]
            index += 1

    def accuracy(self) -> dict:
        """Errors and failure shares over the distinct cases."""
        records = [r for case_records in self.first.values() for r in case_records]
        primary = [r["err"] for r in records if r["primary"] and r["err"] is not None]
        nominal = [r["err"] for r in records
                   if r["primary"] and not r["shortfall"] and r["err"] is not None]
        secondary = [r["err"] for r in records if not r["primary"] and r["err"] is not None]
        missed = {cid: rs for cid, rs in self.first.items() if not all(r["met"] for r in rs)}
        silent = [cid for cid, rs in missed.items() if not any(r["raised"] for r in rs)]
        return {
            "err.max": max(primary, default=math.nan),
            "err.p50": _percentile(primary, 50) if primary else math.nan,
            "err.max_no_shortfall": max(nominal, default=math.nan),
            "err.secondary_max": max(secondary, default=math.nan),
            "fail_frac": len(missed) / len(self.first),
            "silent_err_frac": len(silent) / len(self.first),
            "missed_cases": sorted(missed),
        }

    def latency_metrics(self) -> dict:
        """A case's latency is the mean of its samples over the run's
        host_slowdown: its time at the reference host's speed. Both are means
        over the whole run, so a slow phase of the host lengthens both alike.
        The unscaled wall_s takes each case's fastest sample instead. The
        percentiles are taken over the cases, so every case weighs the same
        however often the run reached it."""
        slowdown = statistics.fmean(self.units) / HOST_REF_S
        per_case = [statistics.fmean(times) / slowdown for times in self.latency.values()]
        samples = sum(len(times) for times in self.latency.values())
        return {
            "wall_ref_s": sum(per_case),
            "wall_s": sum(min(times) for times in self.latency.values()),
            "host_slowdown": slowdown,
            "host_units": len(self.units),
            "case_s.p50": _percentile(per_case, 50),
            "case_s.p95": _percentile(per_case, 95),
            "case_s.samples": samples,
            "passes": samples / len(per_case),
            "case_latency_s": self.latency,
        }


def measure(run: Run, seconds: float, trace: int, spans_out=None) -> dict:
    """Time (or trace) the run's case list and check it; returns the result
    without set-up time."""
    result = {}
    if trace:
        from tracing import Tracer, layer_metrics

        untraced = [run.one_pass()]
        run.first.clear()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.one_pass(tracer.run_case)
        finally:
            tracer.uninstall()
        untraced.append(run.one_pass())
        result["layers"] = layer_metrics(tracer.spans)
        result["layers"]["trace.overhead_s"] = traced - min(untraced)
        if spans_out:
            tracer.write(spans_out)
    else:
        run.timed(seconds)
        result.update(run.latency_metrics())
    result.update(run.accuracy())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = run.attempted
    result["failed"] = run.failed
    return result


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    cases = make_cases(args.workload, args.seed)
    with open(args.refs) as handle:
        refs = json.load(handle)["cases"]
    for case in cases:
        if refs.get(case["id"], {}).get("case") != json.loads(json.dumps(case)):
            print(f"worker: no reference for case {case['id']} as generated", file=sys.stderr)
            return 2
    _warm_up()
    setup = time.monotonic() - args.spawned
    units = [host_unit()]
    while sum(units) < HOST_SETUP_S:
        units.append(host_unit())
    result = {"setup_raw_s": setup, "setup_s": setup * HOST_REF_S / statistics.fmean(units)}
    if not args.setup_only:
        result.update(measure(Run(cases, refs), args.seconds, args.trace, args.spans_out))
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
