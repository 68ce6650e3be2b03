"""Command line front end for determinants, expansions, flows, and statistics.

Subcommands map onto the library layers:

  det       the determinant with grid diagnostics, at t or across t_range
  asymp     the large-time expansion split into named terms, likewise
  painleve  the Hamiltonian flow trajectory as a table
  verify    quadrature vs flow vs expansion across a range of scales
  moments   numeric counting statistics next to their predicted values

Inputs come from flags, optionally seeded by a flat key=value config file
(flags win, unknown keys are rejected); a command exits 2 on a key outside
its row of ``_READS``. Output is a JSON document or a CSV table written to
``--out`` or stdout, byte-identical across runs for identical inputs. Exit
status is 0 on success, 2 for invalid configuration, and 1 for a numeric
failure (reported as a structured JSON error).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

from .asymptotics import large_gap_lnF, moment_asymptotics
from .errors import DomainError, NonConvergenceError, RegimeError
from .fredholm import build_grid, log_det
from .kernel import Configuration, KernelParams
from .painleve import CPVState, cpv_init, cpv_integrate, hamiltonian
from .stats import counting_statistics
from .stats import (  # noqa: F401  (perfbench/tracing.py wraps these cli names)
    numeric_covariance,
    numeric_mean,
    numeric_variance,
)

SCHEMA_VERSION = 1

COMMANDS = ("det", "asymp", "painleve", "verify", "moments")
_FORMATS = ("json", "csv")
_DEFAULT_TOL = 1e-9

# The input keys and their help texts. Each key is a long flag, with dashes
# in place of underscores, and a config-file key. "config" itself is
# deliberately absent: files cannot chain-load other files. No key sets the
# quadrature: log_det gives each panel its ellipse rule's order.
_KEYS = {
    "alpha": "endpoint exponent, a real number > -1/2 (default 0)",
    "beta_im": "s in the jump exponent beta = i s (default 0)",
    "r": "endpoints as index=value pairs, e.g. 0=-1,1=0,2=1",
    "gamma": "interval weights as index=value pairs, e.g. 0=0.3,1=0.6",
    "t": "scale applied to the endpoints",
    "t_range": "scale grid as start:stop:count",
    "tol": "flow integration tolerance (default 1e-09)",
    "out": "output path (default stdout)",
    "format": "json or csv (default json)",
}

# The keys every command reads, and the keys each command reads besides:
# exactly one of t and t_range where a row has both. moments sets its own
# weights and runs no flow.
_SHARED = ("alpha", "beta_im", "r", "out", "format")
_READS = {
    "det": ("gamma", "t", "t_range"),
    "asymp": ("gamma", "t", "t_range"),
    "painleve": ("gamma", "t", "tol"),
    "verify": ("gamma", "t_range", "tol"),
    "moments": ("t",),
}


class ConfigError(ValueError):
    """Invalid command line or config file content (exit status 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one invocation.

    ``t_range`` is None when the scale was given as ``t``; given a range,
    ``config.t`` is its start (or 1.0 for an empty range) and is not
    consulted. No field sets the quadrature order, which ``log_det`` takes
    from each panel's ellipse rule.
    """

    command: str
    params: KernelParams
    config: Configuration
    t_range: tuple = None
    tol: float = _DEFAULT_TOL
    out: str = None
    format: str = "json"


# ----------------------------------------------------------------------
# parsing


def _as_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': value must be finite, got {text!r}")
    return value


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {text!r}") from None


def _as_indexed(key: str, text: str) -> tuple:
    """Parse "0=-1,1=0,2=1" into the tuple (-1.0, 0.0, 1.0)."""
    entries = {}
    for piece in text.split(","):
        index_text, sep, value_text = piece.partition("=")
        if not sep:
            raise ConfigError(f"key '{key}': entry {piece!r} is not of the form index=value")
        index = _as_int(key, index_text.strip())
        if index in entries:
            raise ConfigError(f"key '{key}': duplicate index {index}")
        entries[index] = _as_float(f"{key}[{index}]", value_text.strip())
    count = len(entries)
    if sorted(entries) != list(range(count)):
        raise ConfigError(f"key '{key}': indices must cover 0..{count - 1} with no gaps")
    return tuple(entries[i] for i in range(count))


def _as_t_range(key: str, text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"key '{key}': expected start:stop:count, got {text!r}")
    start = _as_float(f"{key}.start", parts[0])
    stop = _as_float(f"{key}.stop", parts[1])
    count = _as_int(f"{key}.count", parts[2])
    if count < 0:
        raise ConfigError(f"key '{key}': count must be >= 0, got {count}")
    if start <= 0.0:
        raise ConfigError(f"key '{key}': start must be > 0, got {start!r}")
    if stop < start:
        raise ConfigError(f"key '{key}': stop must be >= start")
    if count > 1 and stop == start:
        raise ConfigError(f"key '{key}': stop must exceed start when count > 1")
    return (start, stop, count)


def _as_choice(key: str, text: str, choices: tuple) -> str:
    if text not in choices:
        raise ConfigError(f"key '{key}': expected one of {', '.join(choices)}, got {text!r}")
    return text


def read_config_file(path: str) -> dict:
    """Read a flat key=value file; '#' starts a comment, blank lines skip."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config file line {lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"config file line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"config file line {lineno}: duplicate key '{key}'")
        values[key] = value.strip()
    return values


@functools.lru_cache(maxsize=None)
def _build_argparser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="chfdet",
        description=(
            "Determinants, flows, expansions, and counting statistics of the "
            "confluent hypergeometric kernel with piecewise-constant weights."
        ),
    )
    parser.add_argument("command", choices=COMMANDS, help="what to compute")
    parser.add_argument(
        "--config", metavar="FILE", help="flat key=value file supplying defaults for the flags"
    )
    for key, text in _KEYS.items():
        parser.add_argument("--" + key.replace("_", "-"), help=text)
    return parser


def _validate_gamma(command: str, gamma: tuple) -> None:
    # a hard gap (weight 1) is fine wherever only log_det runs
    for index, value in enumerate(gamma):
        if value < 0.0 or value > 1.0:
            raise ConfigError(f"key 'gamma': entry {index} is {value!r}, outside [0, 1]")
        if command != "det" and value == 1.0:
            raise ConfigError(
                f"key 'gamma': entry {index} is 1, but command '{command}' requires weights < 1"
            )


def _build_run_config(command: str, raw: dict) -> RunConfig:
    reads = _READS[command]
    for key in _KEYS:
        if key in raw and key not in reads and key not in _SHARED:
            raise ConfigError(f"command '{command}' does not take key '{key}'")

    alpha = _as_float("alpha", raw["alpha"]) if "alpha" in raw else 0.0
    beta_im = _as_float("beta_im", raw["beta_im"]) if "beta_im" in raw else 0.0
    try:
        params = KernelParams(alpha=alpha, beta_im=beta_im)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    if "r" not in raw:
        raise ConfigError(f"command '{command}' requires key 'r'")
    endpoints = _as_indexed("r", raw["r"])

    if "gamma" not in reads:
        # the statistics set their own weight 1 on the intervals they count
        gamma = (0.0,) * (len(endpoints) - 1)
    elif "gamma" in raw:
        gamma = _as_indexed("gamma", raw["gamma"])
    else:
        raise ConfigError(f"command '{command}' requires key 'gamma'")
    _validate_gamma(command, gamma)

    scales = [key for key in ("t", "t_range") if key in reads]
    given = [key for key in scales if key in raw]
    if len(given) != 1:
        either = "' or '".join(scales)
        raise ConfigError(f"command '{command}' requires key '{either}'"
                          + (", not both" if given else ""))
    t_range = None
    if "t" in raw:
        t_value = _as_float("t", raw["t"])
        if t_value <= 0.0:
            raise ConfigError(f"key 't': must be > 0, got {t_value!r}")
    else:
        t_range = _as_t_range("t_range", raw["t_range"])
        t_value = t_range[0] if t_range[2] > 0 else 1.0

    try:
        config = Configuration(r=endpoints, gamma=gamma, t=t_value)
        if t_range is not None:
            config.replace_t(t_range[1])  # a range's scaled endpoints are finite to its stop
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    # the statistics read r1 and r2 alone; any other endpoint would be dropped
    if command == "moments" and not (config.r[0] == 0.0 and len(config.r) in (2, 3)):
        raise ConfigError("command 'moments' requires 'r' to be 0,r1 or 0,r1,r2")

    tol = _as_float("tol", raw["tol"]) if "tol" in raw else _DEFAULT_TOL
    if not 1e-12 <= tol <= 1e-4:
        raise ConfigError(f"key 'tol': must lie in [1e-12, 1e-04], got {tol!r}")

    fmt = _as_choice("format", raw["format"], _FORMATS) if "format" in raw else "json"
    return RunConfig(command=command, params=params, config=config, t_range=t_range, tol=tol,
                     out=raw.get("out"), format=fmt)


def parse_config(argv) -> RunConfig:
    """Parse flags (plus an optional key=value file) into a RunConfig.

    Flag values override file values; every value is validated against the
    module preconditions before any computation starts.
    """
    namespace = _build_argparser().parse_args(list(argv))
    merged = read_config_file(namespace.config) if namespace.config else {}
    for key in _KEYS:
        value = getattr(namespace, key)
        if value is not None:
            merged[key] = value
    return _build_run_config(namespace.command, merged)


# ----------------------------------------------------------------------
# execution


def _format_indexed(values: tuple) -> str:
    return ",".join(f"{i}={v!r}" for i, v in enumerate(values))


def _inputs_dict(rc: RunConfig) -> dict:
    """The keys the command reads, as config-file strings, with only the one
    of t and t_range that was given; reparsing them reproduces rc."""
    if rc.t_range is None:
        scale = {"t": repr(rc.config.t)}
    else:
        start, stop, count = rc.t_range
        scale = {"t_range": f"{start!r}:{stop!r}:{count}"}
    values = {
        "alpha": repr(rc.params.alpha),
        "beta_im": repr(rc.params.beta_im),
        "r": _format_indexed(rc.config.r),
        "gamma": _format_indexed(rc.config.gamma),
        **scale,
        "tol": repr(rc.tol),
        "format": rc.format,
    }
    # the output path is where the document goes, not an input to the
    # computation, so it is not echoed (outputs stay byte-identical across
    # destinations)
    reads = _READS[rc.command]
    return {key: value for key, value in values.items() if key in reads or key in _SHARED}


def _linspace(t_range: tuple) -> list:
    start, stop, count = t_range
    if count == 0:
        return []
    if count == 1:
        return [start]
    points = [start + (stop - start) * i / (count - 1) for i in range(count)]
    points[-1] = stop
    return points


_DET_COLUMNS = ("t", "lnf")
_ASYMP_COLUMNS = ("t", "total", "linear_term", "log_term", "constant_term")


def _run_det(rc: RunConfig):
    nodes, _ = build_grid(rc.config, rc.params.alpha)
    lnf = log_det(rc.params, rc.config)
    row = [rc.config.t, lnf]
    orders = [panel.size for panel in nodes]
    diagnostics = {"nodes": sum(orders), "panels": len(orders), "order_per_panel": orders}
    return dict(zip(_DET_COLUMNS, row)), _DET_COLUMNS, [row], diagnostics


def _run_asymp(rc: RunConfig):
    report = large_gap_lnF(rc.params, rc.config)
    row = [rc.config.t, report.total, report.linear_term, report.log_term, report.constant_term]
    results = dict(zip(_ASYMP_COLUMNS, row), breakdown=dict(report.breakdown))
    diagnostics = {"warnings": list(report.warnings)}
    return results, _ASYMP_COLUMNS, [row], diagnostics


def _flow_to(rc: RunConfig, state: CPVState, t: float) -> list:
    """The flow's trajectory from ``state`` to t; just ``state`` when it
    already sits at t."""
    if t > state.t:
        return cpv_integrate(state, rc.params, rc.config, t, tol=rc.tol)
    return [state]


def _run_painleve(rc: RunConfig):
    state0 = cpv_init(rc.params, rc.config)
    trajectory = _flow_to(rc, state0, rc.config.t)
    columns = ["t"]
    for k in state0.indices:
        columns += [f"u{k}_re", f"u{k}_im", f"v{k}_re", f"v{k}_im"]
    columns += ["h", "lnf"]
    rows = []
    for state in trajectory:
        row = [state.t]
        for u, v in zip(state.u.tolist(), state.v.tolist()):
            row += [u.real, u.imag, v.real, v.imag]
        row += [hamiltonian(state, rc.params, rc.config).real, state.lnF.real]
        rows.append(row)
    results = {"columns": columns, "rows": rows}
    diagnostics = {"steps": len(trajectory) - 1, "t0": state0.t, "tol": rc.tol}
    return results, columns, rows, diagnostics


def _run_verify(rc: RunConfig):
    points = _linspace(rc.t_range)
    columns = [
        "t", "lnf_nystrom", "lnf_flow", "lnf_asymptotic", "flow_residual", "asymptotic_residual"
    ]
    rows = []
    state = None
    for point in points:
        config_t = rc.config.replace_t(point)
        seed = cpv_init(rc.params, config_t)
        # a point below the flow's seed time is its own seed; past it the flow
        # runs on from the previous point
        if state is None or seed.t == point:
            state = seed
        state = _flow_to(rc, state, point)[-1]
        lnf_flow = state.lnF.real
        lnf_nystrom = log_det(rc.params, config_t)
        lnf_asymptotic = large_gap_lnF(rc.params, config_t).total
        residuals = [abs(lnf_flow - lnf_nystrom), abs(lnf_asymptotic - lnf_nystrom)]
        rows.append([point, lnf_nystrom, lnf_flow, lnf_asymptotic, *residuals])
    results = {"columns": columns, "rows": rows}
    diagnostics = {
        "points": len(points),
        "tol": rc.tol,
        "max_flow_residual": max((row[4] for row in rows), default=0.0),
        "max_asymptotic_residual": max((row[5] for row in rows), default=0.0),
    }
    return results, columns, rows, diagnostics


def _run_moments(rc: RunConfig):
    t = rc.config.t
    r1 = rc.config.r[1]
    r2 = rc.config.r[2] if len(rc.config.r) == 3 else None
    asym = moment_asymptotics(rc.params, t, r1, r2)
    counts = counting_statistics(rc.params, t, r1, r2)
    entries = [
        ("mean_right", counts.mean_right, asym.mean_right),
        ("mean_left", counts.mean_left, asym.mean_left),
        ("variance", counts.var, asym.var),
    ]
    if r2 is not None:
        entries.append(("cov_same_side", counts.cov_same, asym.cov_same))
        entries.append(("cov_opposite_side", counts.cov_opposite, asym.cov_opposite))
    columns = ["statistic", "numeric", "asymptotic", "difference"]
    rows = [[name, numeric, predicted, numeric - predicted] for name, numeric, predicted in entries]
    results = {"columns": columns, "rows": rows}
    diagnostics = {"r1": r1, "r2": r2}
    return results, columns, rows, diagnostics


def _per_point(run_point, columns: tuple):
    """The command ``run_point``, which evaluates one t, run instead once
    per point of rc.t_range when that is given: one row per point."""

    def run_command(rc: RunConfig):
        if rc.t_range is None:
            return run_point(rc)
        points = _linspace(rc.t_range)
        rows = [
            run_point(replace(rc, config=rc.config.replace_t(point), t_range=None))[2][0]
            for point in points
        ]
        return {"columns": columns, "rows": rows}, columns, rows, {"points": len(points)}

    return run_command


_COMMAND_IMPLS = {
    "det": _per_point(_run_det, _DET_COLUMNS),
    "asymp": _per_point(_run_asymp, _ASYMP_COLUMNS),
    "painleve": _run_painleve,
    "verify": _run_verify,
    "moments": _run_moments,
}


def run(rc: RunConfig):
    """Execute the command; returns (json document, csv columns, csv rows)."""
    results, columns, rows, diagnostics = _COMMAND_IMPLS[rc.command](rc)
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": rc.command,
        "inputs": _inputs_dict(rc),
        "results": results,
        "diagnostics": diagnostics,
    }
    return document, columns, rows


# ----------------------------------------------------------------------
# rendering


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    return "%.17g" % value


def render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(value) for value in row))
    return "\n".join(lines) + "\n"


def render_json(document) -> str:
    return json.dumps(document, indent=2) + "\n"


def _error_json(command: str, exc: BaseException) -> str:
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    return json.dumps(document, indent=2) + "\n"


def main(argv=None) -> int:
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        rc = parse_config(args)
    except ConfigError as exc:
        print(f"chfdet: error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse has already printed its own message
        return int(exc.code) if exc.code else 0

    try:
        document, columns, rows = run(rc)
        text = render_json(document) if rc.format == "json" else render_csv(columns, rows)
        if rc.out is None:
            sys.stdout.write(text)
        else:
            with open(rc.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except DomainError as exc:
        print(f"chfdet: error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, RegimeError, ArithmeticError, OSError) as exc:
        sys.stdout.write(_error_json(rc.command, exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
