"""Command line front end for determinants, expansions, flows, and statistics.

Subcommands map onto the library layers:

  det       one determinant evaluation with grid diagnostics
  asymp     the large-time expansion split into named terms
  painleve  the Hamiltonian flow trajectory as a table
  verify    quadrature vs flow vs expansion across a range of scales
  moments   numeric counting statistics next to their predicted values
  sweep     det or asymp evaluated across a range of scales

Inputs come from flags, optionally seeded by a flat key=value config file
(flags win, unknown keys are rejected). Output is a JSON document or a CSV
table written to ``--out`` or stdout, byte-identical across runs for
identical inputs. Exit status is 0 on success, 2 for invalid configuration,
and 1 for a numeric failure (reported as a structured JSON error).
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
from .fredholm import PANEL_ORDER, build_grid, log_det
from .kernel import Configuration, KernelParams
from .painleve import CPVState, cpv_init, cpv_integrate, hamiltonian
from .quadrules import _MAX_ORDER
from .stats import counting_statistics
from .stats import (  # noqa: F401  (perfbench/tracing.py wraps these cli names)
    numeric_covariance,
    numeric_mean,
    numeric_variance,
)

SCHEMA_VERSION = 1

COMMANDS = ("det", "asymp", "painleve", "verify", "moments", "sweep")
_FORMATS = ("json", "csv")
_DEFAULT_TOL = 1e-9

# The input keys and their help texts. Each key is a long flag, with dashes
# in place of underscores, and a config-file key. "config" itself is
# deliberately absent: files cannot chain-load other files.
_KEYS = {
    "alpha": "endpoint exponent, a real number > -1/2 (default 0)",
    "beta_im": "s in the jump exponent beta = i s (default 0)",
    "r": "endpoints as index=value pairs, e.g. 0=-1,1=0,2=1",
    "gamma": "interval weights as index=value pairs, e.g. 0=0.3,1=0.6",
    "t": "scale applied to the endpoints",
    "t_range": "scale grid as start:stop:count",
    "order": f"quadrature order per panel (default {PANEL_ORDER})",
    "tol": "flow integration tolerance (default 1e-09)",
    "inner": "command run at each sweep point: det or asymp",
    "out": "output path (default stdout)",
    "format": "json or csv (default json)",
}

# The table columns of the commands ``sweep`` can run at each point.
_INNER_COLUMNS = {
    "det": ("t", "lnf"),
    "asymp": ("t", "total", "linear_term", "log_term", "constant_term"),
}

_NEEDS_T = ("det", "asymp", "painleve", "moments")
_NEEDS_T_RANGE = ("verify", "sweep")


class ConfigError(ValueError):
    """Invalid command line or config file content (exit status 2)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one invocation.

    ``config.t`` holds the single evaluation scale for point commands; for
    range commands it defaults to the range start (or 1.0 for an empty
    range) and is not consulted.
    """

    command: str
    params: KernelParams
    config: Configuration
    t_range: tuple = None
    order: int = None
    tol: float = _DEFAULT_TOL
    inner: str = "det"
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


def _validate_gamma(command: str, inner: str, gamma: tuple) -> None:
    # a hard gap (weight 1) is fine wherever only log_det runs
    closed = command == "det" or (command == "sweep" and inner == "det")
    for index, value in enumerate(gamma):
        if value < 0.0 or value > 1.0:
            raise ConfigError(f"key 'gamma': entry {index} is {value!r}, outside [0, 1]")
        if not closed and value == 1.0:
            raise ConfigError(
                f"key 'gamma': entry {index} is 1, but command '{command}' requires weights < 1"
            )


def _build_run_config(command: str, raw: dict) -> RunConfig:
    alpha = _as_float("alpha", raw["alpha"]) if "alpha" in raw else 0.0
    beta_im = _as_float("beta_im", raw["beta_im"]) if "beta_im" in raw else 0.0
    try:
        params = KernelParams(alpha=alpha, beta_im=beta_im)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    if "r" not in raw:
        raise ConfigError(f"command '{command}' requires key 'r'")
    endpoints = _as_indexed("r", raw["r"])

    if "gamma" in raw:
        gamma = _as_indexed("gamma", raw["gamma"])
    elif command == "moments":
        # the statistics set their own weight 1 on the intervals they count
        gamma = (0.0,) * (len(endpoints) - 1)
    else:
        raise ConfigError(f"command '{command}' requires key 'gamma'")
    inner = _as_choice("inner", raw["inner"], tuple(_INNER_COLUMNS)) if "inner" in raw else "det"
    _validate_gamma(command, inner, gamma)

    t_range = _as_t_range("t_range", raw["t_range"]) if "t_range" in raw else None
    if command in _NEEDS_T_RANGE and t_range is None:
        raise ConfigError(f"command '{command}' requires key 't_range'")

    t_value = None
    if "t" in raw:
        t_value = _as_float("t", raw["t"])
        if t_value <= 0.0:
            raise ConfigError(f"key 't': must be > 0, got {t_value!r}")
    elif command in _NEEDS_T:
        raise ConfigError(f"command '{command}' requires key 't'")
    if t_value is None:
        t_value = t_range[0] if t_range is not None and t_range[2] > 0 else 1.0

    try:
        config = Configuration(r=endpoints, gamma=gamma, t=t_value)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    if command == "moments" and not any(v > 0.0 for v in endpoints):
        raise ConfigError("command 'moments' requires a positive endpoint in 'r'")

    order = None
    if "order" in raw:
        order = _as_int("order", raw["order"])
        if not 4 <= order <= _MAX_ORDER:
            raise ConfigError(f"key 'order': must lie in [4, {_MAX_ORDER}], got {order}")

    tol = _as_float("tol", raw["tol"]) if "tol" in raw else _DEFAULT_TOL
    if not 1e-12 <= tol <= 1e-4:
        raise ConfigError(f"key 'tol': must lie in [1e-12, 1e-04], got {tol!r}")

    fmt = _as_choice("format", raw["format"], _FORMATS) if "format" in raw else "json"
    out = raw.get("out")

    return RunConfig(
        command=command,
        params=params,
        config=config,
        t_range=t_range,
        order=order,
        tol=tol,
        inner=inner,
        out=out,
        format=fmt,
    )


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
    """Effective inputs as config-file strings; reparsing them reproduces rc."""
    inputs = {
        "alpha": repr(rc.params.alpha),
        "beta_im": repr(rc.params.beta_im),
        "r": _format_indexed(rc.config.r),
        "gamma": _format_indexed(rc.config.gamma),
        "t": repr(rc.config.t),
        "tol": repr(rc.tol),
        "inner": rc.inner,
        "format": rc.format,
    }
    if rc.t_range is not None:
        start, stop, count = rc.t_range
        inputs["t_range"] = f"{start!r}:{stop!r}:{count}"
    if rc.order is not None:
        inputs["order"] = str(rc.order)
    # the output path is where the document goes, not an input to the
    # computation, so it is not echoed (outputs stay byte-identical across
    # destinations)
    return inputs


def _linspace(t_range: tuple) -> list:
    start, stop, count = t_range
    if count == 0:
        return []
    if count == 1:
        return [start]
    points = [start + (stop - start) * i / (count - 1) for i in range(count)]
    points[-1] = stop
    return points


def _panel_order(rc: RunConfig) -> int:
    return rc.order if rc.order is not None else PANEL_ORDER


def _quadrature_lnf(rc: RunConfig, config: Configuration):
    """log det with the order knob applied; returns (lnf, grid)."""
    grid = build_grid(config, rc.params.alpha, order_per_panel=_panel_order(rc))
    return log_det(rc.params, config, grid=grid), grid


def _run_det(rc: RunConfig):
    lnf, grid = _quadrature_lnf(rc, rc.config)
    columns = _INNER_COLUMNS["det"]
    row = [rc.config.t, lnf]
    diagnostics = {
        "nodes": int(len(grid.nodes)),
        "panels": len(grid.panels),
        "order_per_panel": _panel_order(rc),
    }
    return dict(zip(columns, row)), columns, [row], diagnostics


def _run_asymp(rc: RunConfig):
    report = large_gap_lnF(rc.params, rc.config)
    columns = _INNER_COLUMNS["asymp"]
    row = [rc.config.t, report.total, report.linear_term, report.log_term, report.constant_term]
    results = dict(zip(columns, row), breakdown=dict(report.breakdown))
    diagnostics = {"warnings": list(report.warnings)}
    return results, columns, [row], diagnostics


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
        # a point below the seed time e^S0 is its own seed; past it the flow
        # runs on from the previous point
        if state is None or seed.t == point:
            state = seed
        state = _flow_to(rc, state, point)[-1]
        lnf_flow = state.lnF.real
        lnf_nystrom, _ = _quadrature_lnf(rc, config_t)
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
    positives = sorted(v for v in rc.config.r if v > 0.0)
    r1 = positives[0]
    r2 = positives[1] if len(positives) > 1 else None
    asym = moment_asymptotics(rc.params, t, r1, r2)
    counts = counting_statistics(rc.params, t, r1, r2, order=_panel_order(rc))
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


def _run_sweep(rc: RunConfig):
    points = _linspace(rc.t_range)
    inner = _COMMAND_IMPLS[rc.inner]
    columns = _INNER_COLUMNS[rc.inner]
    rows = [
        row
        for point in points
        for row in inner(replace(rc, config=rc.config.replace_t(point)))[2]
    ]
    results = {"columns": columns, "rows": rows}
    diagnostics = {"points": len(points), "inner": rc.inner}
    return results, columns, rows, diagnostics


_COMMAND_IMPLS = {
    "det": _run_det,
    "asymp": _run_asymp,
    "painleve": _run_painleve,
    "verify": _run_verify,
    "moments": _run_moments,
    "sweep": _run_sweep,
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
    if isinstance(value, int):
        return str(value)
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
