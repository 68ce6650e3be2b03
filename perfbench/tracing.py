"""Spans around the calls into each layer, recorded from outside the package.

Each public function of a layer is replaced, in the module namespace where
its caller looks it up, by a wrapper that records one span per call: name,
start, end, parent span, case id, and a work count (points, nodes, steps)
read from the call's arguments or result. Spans stay in memory and are
written out when the run ends; per-layer metrics are computed from them.
"""

from __future__ import annotations

import json
import time

import numpy as np

from chfdet import asymptotics, cli, fredholm, kernel, painleve, specialfn, stats

# (module, attribute, span name, work count from (args, result) or None)
_TARGETS = (
    (kernel, "kummer_phi", "specialfn.kummer", lambda a, r: int(np.size(a[2]))),
    (specialfn, "kummer_phi", "specialfn.kummer", lambda a, r: int(np.size(a[2]))),
    (kernel, "kummer_phi_prime", "specialfn.kummer_prime", None),
    (kernel, "log_gamma", "specialfn.log_gamma", None),
    (specialfn, "log_gamma", "specialfn.log_gamma", None),
    (painleve, "log_gamma", "specialfn.log_gamma", None),
    (asymptotics, "log_gamma", "specialfn.log_gamma", None),
    (fredholm, "chf_kernel_matrix", "kernel.matrix", lambda a, r: int(np.size(a[1])) ** 2),
    (fredholm, "build_grid", "fredholm.build_grid", None),
    (cli, "build_grid", "fredholm.build_grid", None),
    (fredholm, "log_det", "fredholm.log_det", None),
    (cli, "log_det", "fredholm.log_det", None),
    (stats, "log_det", "fredholm.log_det", None),
    (np.linalg, "slogdet", "fredholm.factor", lambda a, r: int(np.shape(a[0])[0])),
    (painleve, "cpv_init", "painleve.init", None),
    (cli, "cpv_init", "painleve.init", None),
    (painleve, "cpv_integrate", "painleve.integrate", lambda a, r: len(r) - 1),
    (cli, "cpv_integrate", "painleve.integrate", lambda a, r: len(r) - 1),
    (painleve, "cpv_rhs", "painleve.rhs", None),
    (asymptotics, "large_gap_lnF", "asymptotics.large_gap", None),
    (cli, "large_gap_lnF", "asymptotics.large_gap", None),
    (cli, "moment_asymptotics", "asymptotics.moments", None),
    (cli, "numeric_mean", "stats.mean", None),
    (cli, "numeric_variance", "stats.variance", None),
    (cli, "numeric_covariance", "stats.covariance", None),
    (cli, "run", "cli.run", None),
)

CASE_SPAN = "bench.case"


class Tracer:
    """Records spans while installed; ``run_case`` opens the root span of one
    case evaluation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, case id, work]
        self._stack = []
        self._case_id = None
        self._saved = []

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._case_id, None])
        self._stack.append(index)
        return index

    def _exit(self, index, work=None):
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = work

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            index = self._enter(name)
            work = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    work = count(args, result)
                return result
            finally:
                self._exit(index, work)

        return traced

    def install(self):
        for module, attr, name, count in _TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_case(self, case_id, fn):
        self._case_id = case_id
        index = self._enter(CASE_SPAN)
        try:
            return fn()
        finally:
            self._exit(index)
            self._case_id = None

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "case", "work"],
                       "spans": self.spans}, handle)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times (seconds) from one traced pass."""
    own = self_times(spans)
    calls, self_s, work = {}, {}, {}
    for span, t_own in zip(spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t_own
        if span[5] is not None:
            work.setdefault(name, []).append(span[5])

    def n(name):
        return calls.get(name, 0)

    def sself(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    def group(prefix):
        return [name for name in calls if name.startswith(prefix)]

    factor_sizes = work.get("fredholm.factor", [])
    stats_names = group("stats.")
    stats_index = {i for i, s in enumerate(spans) if s[0] in stats_names}
    det_in_stats = sum(1 for s in spans if s[0] == "fredholm.log_det" and s[3] in stats_index)
    integrate_index = {i for i, s in enumerate(spans) if s[0] == "painleve.integrate"}
    rhs_in_integrate = sum(1 for s in spans if s[0] == "painleve.rhs" and s[3] in integrate_index)
    accepted = sum(work.get("painleve.integrate", []))
    # every attempted Dormand-Prince step calls the RHS six times, plus one
    # initial call per integration
    attempted = (rhs_in_integrate - len(integrate_index)) / 6.0
    stats_calls = sum(n(name) for name in stats_names)
    return {
        "specialfn.kummer.calls": n("specialfn.kummer"),
        "specialfn.kummer.points": sum(work.get("specialfn.kummer", [])),
        "specialfn.kummer.self_s": sself("specialfn.kummer", "specialfn.kummer_prime"),
        "specialfn.log_gamma.calls": n("specialfn.log_gamma"),
        "specialfn.log_gamma.self_s": sself("specialfn.log_gamma"),
        "kernel.matrix.calls": n("kernel.matrix"),
        "kernel.matrix.entries": sum(work.get("kernel.matrix", [])),
        "kernel.matrix.self_s": sself("kernel.matrix"),
        "fredholm.build_grid.self_s": sself("fredholm.build_grid"),
        "fredholm.log_det.calls": n("fredholm.log_det"),
        "fredholm.log_det.self_s": sself("fredholm.log_det"),
        "fredholm.nodes.sum": sum(factor_sizes),
        "fredholm.nodes.max": max(factor_sizes, default=0),
        "fredholm.factor.s": sself("fredholm.factor"),
        # complex LU: N^3/3 complex multiply-adds of 8 real flops each
        "fredholm.factor.flops": sum(8.0 / 3.0 * size**3 for size in factor_sizes),
        "stats.calls": stats_calls,
        "stats.log_det_per_stat": det_in_stats / stats_calls if stats_calls else 0.0,
        "stats.self_s": sself(*stats_names),
        "painleve.init.self_s": sself("painleve.init"),
        "painleve.integrate.calls": n("painleve.integrate"),
        "painleve.integrate.self_s": sself("painleve.integrate"),
        "painleve.rhs.calls": n("painleve.rhs"),
        "painleve.rhs.self_s": sself("painleve.rhs"),
        "painleve.steps.accepted": accepted,
        "painleve.steps.accept_ratio": accepted / attempted if attempted else 0.0,
        "asymptotics.calls": sum(n(name) for name in group("asymptotics.")),
        "asymptotics.self_s": sself(*group("asymptotics.")),
        "cli.run.s": sum(s[2] - s[1] for s in spans if s[0] == "cli.run"),
        "cli.self_s": sself("cli.run"),
        "bench.self_s": sself(CASE_SPAN),
        "trace.spans": len(spans),
    }
