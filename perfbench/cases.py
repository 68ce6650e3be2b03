"""Workloads: the case list a seed produces, how a case is evaluated, and the
accuracy target each output is held to.

Strata that drive cost (alpha, interval layout, t) are fixed per workload.
The seed draws only the interval weights gamma from [0.05, 0.95] and beta_im
from [-0.7, 0.7] inside each stratum, so every seed costs about the same.

Package functions are looked up on their modules at call time
(``fredholm.log_det``, not a name bound at import), so the tracer's wrappers
see the benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from chfdet import asymptotics, cli, fredholm, painleve
from chfdet.kernel import Configuration, KernelParams
from reference import MOMENTS_R

WORKLOADS = ("det-graded", "moments-small-n", "flow-grid")
DEFAULT_SEED = 1

FLOW_TOL = 1e-9
MOMENTS_T = 10.0
EXPANSION_T = 16.0

# Accuracy targets, each taken from a stated guarantee of the package.
LOG_DET_TARGET = 1e-8  # README "Numerical behavior": log_det targets roughly 1e-8
FLOW_TARGET = 1e-5  # acceptance criterion 02: flow vs quadrature at t = 5, tol 1e-9
EXPANSION_TARGET = 0.02  # acceptance criterion 03: expansion error at t = 8, smaller beyond
MEAN_TARGET = 0.02  # acceptance criterion 05: counting mean
SPREAD_TARGET = 0.05  # acceptance criterion 05: variance and the covariance combination

_MOMENT_TARGETS = {
    "mean_right": MEAN_TARGET,
    "mean_left": MEAN_TARGET,
    "variance": SPREAD_TARGET,
    "cov_same_side": SPREAD_TARGET,
    "cov_opposite_side": SPREAD_TARGET,
}

_LAYOUTS = {1: (0.0, 1.0), 2: (-1.0, 0.0, 1.0), 3: (-1.0, 0.0, 1.0, 2.0)}

# Outputs known to miss their target at the package's default settings. They
# stay in the case lists, and every miss of the target or exception counts in
# fail_frac. The run still counts as correct while such an output stays below
# its ceiling, SHORTFALL_MARGIN times the largest error measured over seeds
# 1-40, or raises one of the listed exceptions or RegimeError, which is the
# behaviour the package should reach. Any other miss or exception makes the
# run incorrect.
SHORTFALL_MARGIN = 3.0


@dataclass(frozen=True)
class Shortfall:
    worst_err: float  # largest error measured over seeds 1-40
    reason: str
    raises: tuple = ()  # exceptions it is known to raise

    @property
    def ceiling(self) -> float:
        return SHORTFALL_MARGIN * self.worst_err


_SHORT_ALPHA_NEG = Shortfall(1.11e-7, "graded mesh at alpha=-0.25 reaches ~1e-7, not 1e-8")
_SHORT_T100 = Shortfall(
    5.77,
    "one 48-node panel per interval away from 0 cannot resolve t=100: lnF is off by O(1),"
    " or the determinant comes out negative and log_det raises AssertionError",
    ("AssertionError",),
)
_SHORT_DET_EDGE = Shortfall(4.84e-4, "graded mesh saturates at 60 levels as alpha -> -1/2")
_SHORT_FLOW_LOW = Shortfall(4.33, "flow seeding error grows like t0^(2 alpha + 1) for alpha < 0")
_SHORT_FLOW_HIGH = Shortfall(8.13e-5, "flow error does not track tol for large alpha")
_SHORT_EXPANSION = Shortfall(
    0.0518, "criterion 03 covers the sine kernel only; off it, at t=16, errors reach ~0.05"
)
_SHORT_EXPANSION_HIGH = Shortfall(0.106, "expansion at alpha=1.5, t=16 is off by ~0.1")


def shortfall_of(case, output):
    """The known shortfall of one output of a case, or None."""
    alpha, route = case["alpha"], case["route"]
    if route == "det":
        if case["t"] == 100.0:
            return _SHORT_T100
        if alpha == -0.45:
            return _SHORT_DET_EDGE
        return _SHORT_ALPHA_NEG if alpha < 0.0 else None
    if route == "flow":
        if output == "expansion_lnF":
            if case["t_large"] != EXPANSION_T:
                return None
            return _SHORT_EXPANSION_HIGH if alpha == 1.5 else _SHORT_EXPANSION
        return {-0.45: _SHORT_FLOW_LOW, 1.5: _SHORT_FLOW_HIGH}.get(alpha)
    return None


def _draws(rng: random.Random, n_intervals: int):
    gamma = tuple(round(rng.uniform(0.05, 0.95), 4) for _ in range(n_intervals))
    return gamma, round(rng.uniform(-0.7, 0.7), 4)


def _case(case_id, route, alpha, beta_im, r, gamma, t, **extra):
    return dict(
        id=case_id, route=route, alpha=alpha, beta_im=beta_im, r=list(r), gamma=list(gamma), t=t,
        **extra,
    )


def _det_cases(rng):
    cases = []
    # cheap strata first, so a truncated list (smoke test) stays fast
    for alpha in (1.0, 0.25, -0.25):
        for n in (2, 3):
            for t in (5.0, 20.0):
                for draw in range(2):
                    gamma, beta_im = _draws(rng, n)
                    cid = f"det/a{alpha}/n{n}/t{t:g}/{draw}"
                    cases.append(_case(cid, "det", alpha, beta_im, _LAYOUTS[n], gamma, t))
    gamma, beta_im = _draws(rng, 2)
    cases.append(
        _case("det/a0.0/n2/t100", "det", 0.0, beta_im, _LAYOUTS[2], gamma, 100.0)
    )
    gamma, beta_im = _draws(rng, 1)
    cases.append(
        _case("det/a-0.45/n1/t1", "det", -0.45, beta_im, _LAYOUTS[1], gamma, 1.0)
    )
    return cases


def _flow_cases(rng):
    cases = []
    for alpha in (-0.25, 0.0, 0.5):
        for n in (1, 2, 3):
            for draw in range(2):
                gamma, beta_im = _draws(rng, n)
                cid = f"flow/a{alpha}/n{n}/t5/{draw}"
                cases.append(
                    _case(cid, "flow", alpha, beta_im, _LAYOUTS[n], gamma, 5.0, t_large=EXPANSION_T)
                )
    for alpha in (-0.45, 1.5):
        gamma, beta_im = _draws(rng, 2)
        cases.append(
            _case(f"flow/a{alpha}/n2/t5", "flow", alpha, beta_im, _LAYOUTS[2], gamma, 5.0,
                  t_large=EXPANSION_T)
        )
    gamma, beta_im = _draws(rng, 2)
    cases.append(
        _case("flow/a0.0/n2/t60", "flow", 0.0, beta_im, _LAYOUTS[2], gamma, 60.0, t_large=60.0)
    )
    return cases


def _moments_cases(rng):
    _, beta_im = _draws(rng, 0)
    r = (0.0,) + MOMENTS_R
    return [
        _case("moments/sine", "moments", 0.0, 0.0, r, (), MOMENTS_T),
        _case("moments/a0.0", "moments", 0.0, beta_im, r, (), MOMENTS_T),
    ]


_MAKERS = {"det-graded": _det_cases, "flow-grid": _flow_cases, "moments-small-n": _moments_cases}


def make_cases(workload: str, seed: int) -> list:
    """The case list of ``workload`` for ``seed``; equal seeds give equal lists."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))


def params_of(case) -> KernelParams:
    return KernelParams(alpha=case["alpha"], beta_im=case["beta_im"])


def config_of(case) -> Configuration:
    return Configuration(r=tuple(case["r"]), gamma=tuple(case["gamma"]), t=case["t"])


def outputs_of(case) -> list:
    """(output name, accuracy target, primary) for every output a case checks.
    Primary outputs are the route's own lnF or statistic; secondary ones are
    the expansion and the asymptotic predictions returned alongside."""
    route = case["route"]
    if route == "det":
        return [("lnF", LOG_DET_TARGET, True)]
    if route == "flow":
        return [("flow_lnF", FLOW_TARGET, True), ("expansion_lnF", EXPANSION_TARGET, False)]
    outs = [(name, target, True) for name, target in _MOMENT_TARGETS.items()]
    return outs + [(name + ".asymptotic", target, False) for name, target in _MOMENT_TARGETS.items()]


def _moments_argv(case) -> list:
    r = ",".join(f"{k}={v!r}" for k, v in enumerate(case["r"]))
    return ["moments", "--alpha", repr(case["alpha"]), "--beta-im", repr(case["beta_im"]),
            "--r", r, "--t", repr(case["t"])]


def evaluate(case) -> dict:
    """Run one case through the package. Returns output name -> float, or the
    exception an output's computation raised."""
    route = case["route"]
    params = params_of(case)
    if route == "moments":
        try:
            _, _, rows = cli.run(cli.parse_config(_moments_argv(case)))
        except Exception as exc:  # recorded and counted as a failure
            return {name: exc for name, _, _ in outputs_of(case)}
        out = {row[0]: float(row[1]) for row in rows}
        out.update({row[0] + ".asymptotic": float(row[2]) for row in rows})
        return out
    config = config_of(case)
    if route == "det":
        return {"lnF": _guarded(lambda: fredholm.log_det(params, config))}

    def flow():
        state = painleve.cpv_init(params, config)
        trajectory = painleve.cpv_integrate(state, params, config, config.t, tol=FLOW_TOL)
        return trajectory[-1].lnF.real

    def expansion():
        return asymptotics.large_gap_lnF(params, config.replace_t(case["t_large"])).total

    return {"flow_lnF": _guarded(flow), "expansion_lnF": _guarded(expansion)}


def _guarded(fn):
    try:
        return float(fn())
    except Exception as exc:  # recorded and counted as a failure
        return exc


def check(case, outputs: dict, reference: dict) -> list:
    """Judge every output of one evaluation against its reference.

    Returns one record per output with its absolute error (None when the
    computation raised), whether it has a known shortfall, whether it met
    its target (``met``; every miss counts in fail_frac), and whether the
    run may still count as correct
    (``ok``): the output met its target, or it has a known shortfall and
    stayed within that shortfall's ceiling or raised an exception the
    shortfall lists, or RegimeError.
    """
    records = []
    for name, target, primary in outputs_of(case):
        value = outputs[name]
        raised = isinstance(value, BaseException)
        err = None if raised else abs(value - reference[name])
        met = err is not None and err <= target
        short = shortfall_of(case, name)
        if raised:
            allowed = ("RegimeError",) + short.raises if short else ()
            ok = type(value).__name__ in allowed
        else:
            ok = err <= (target if short is None else short.ceiling)
        records.append(dict(name=name, primary=primary, err=err, met=met, raised=raised, ok=ok,
                            shortfall=short is not None))
    return records
