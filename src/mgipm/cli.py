"""Config-driven experiment runner with deterministic CSV output.

Configs are flat key=value text files (one pair per line, ``#`` starts a
comment, booleans spelled true/false).  Three experiments are supported:
a 1D parabolic source-identification run, a 2D elliptic run, and the
dense spectral-distance table.  All real numbers in emitted CSVs are
printed with 17 significant digits and no run metadata, so identical
configs reproduce byte-identical files.  A missing value (None or NaN) is
an empty cell, a bool is true/false, and any other value is written by str.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from mgipm.diagnostics import spectral_distance_table
from mgipm.grid import NodalField, build_hierarchy, node_coordinates
from mgipm.ipm import ControlProblem, IpmOptions, solve
from mgipm.operators import ParabolicConfig, elliptic_build, parabolic_build

__all__ = [
    "ConfigError",
    "RunArtifacts",
    "parse_config",
    "emit_csv",
    "two_bump_target",
    "run_parabolic",
    "run_elliptic",
    "run_spectral_table",
    "main",
]


class ConfigError(Exception):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class RunArtifacts:
    outer_csv: str
    summary_csv: str
    solution_csv: str


# key -> type; strings pass through, "floatlist" parses comma-separated
# reals.  The operator coefficients and solver options are the fields of
# ParabolicConfig and IpmOptions, typed by their annotation strings
_FIELD_TYPES = {"float": float, "int": int, "str": str}
_OPERATOR_KEYS = {f.name: _FIELD_TYPES[f.type] for f in fields(ParabolicConfig)}
_CONTROL_KEYS = {
    "experiment": str,
    "finest_n": int,
    "levels": int,
    "beta": float,
    "lo": float,
    "hi": float,
    "bounds_file": str,
    "output_dir": str,
    **{f.name: _FIELD_TYPES[f.type] for f in fields(IpmOptions)},
}
# the keys each experiment reads; any other is a config error
_READS = {
    "parabolic-1d": {**_CONTROL_KEYS, **_OPERATOR_KEYS},
    "elliptic-2d": _CONTROL_KEYS,
    "spectral-table": {"experiment": str, "output_dir": str, **_OPERATOR_KEYS,
                       "h_list": "floatlist", "beta_list": "floatlist"},
}
_SCHEMA = {key: kind for keys in _READS.values() for key, kind in keys.items()}


def parse_config(path):
    """Read one flat key=value config file into a typed dict."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, _, value = body.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in _SCHEMA:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                raw[key] = _coerce(key, value, f"{path}:{line_no}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "experiment" not in raw:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    if raw["experiment"] not in _READS:
        raise ConfigError(f"{path}: experiment must be one of {', '.join(_READS)}")
    return raw


def _coerce(key, value, where):
    kind = _SCHEMA[key]
    try:
        if kind is str:
            return value
        if kind is int:
            return int(value)
        if kind is float:
            return _parse_real(value)
        return tuple(_parse_real(v.strip()) for v in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc


def _parse_real(text):
    if text.lower() in ("true", "false"):
        raise ValueError("boolean where a number was expected")
    return float(text)


def _fmt_real(value):
    v = float(value)
    return "" if v != v else f"{v:.17g}"


# formatters by exact type; every other type (int, np.int64, str) is written by str
_FORMATS = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    float: _fmt_real,
    np.float64: _fmt_real,
}


def _fmt(value):
    return _FORMATS.get(type(value), str)(value)


def emit_csv(header, rows, path):
    """Write one CSV with fixed column order and 17-digit reals."""
    lines = [",".join(header)]
    lines.extend([",".join(map(_fmt, row)) for row in rows])
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))


def two_bump_target(x):
    """The reference source: two C2 bumps of heights 1 and 1/2.

    Bump profile (1 - t^2)^3 on |t| < 1; centers 0.3 and 0.65, widths
    0.12 and 0.08.  The geometry is a fixed convention of this harness.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for center, width, height in ((0.3, 0.12, 1.0), (0.65, 0.08, 0.5)):
        t = (x - center) / width
        mask = np.abs(t) < 1.0
        out[mask] += height * (1.0 - t[mask] ** 2) ** 3
    return out


def _bounds(cfg, n, default_lo, default_hi):
    if "bounds_file" in cfg:
        path = cfg["bounds_file"]
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if data.shape != (n, 2):
            raise ConfigError(
                f"{path}: bounds_file must hold {n} rows of lo,hi; got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ConfigError(f"{path}: bounds must be finite")
        lo, hi = data[:, 0].copy(), data[:, 1].copy()
    else:
        for key in ("lo", "hi"):
            if key in cfg and not np.isfinite(cfg[key]):
                raise ConfigError(f"{key} must be finite, got {cfg[key]}")
        lo = np.full(n, cfg.get("lo", default_lo))
        hi = np.full(n, cfg.get("hi", default_hi))
    return lo, hi


def _dataclass_config(cls, cfg):
    """cls from the config keys named by its fields."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg})


def _hierarchy(cfg, kind, default_n):
    finest_n = cfg.get("finest_n", default_n)
    levels = cfg.get("levels", 2)
    n0 = finest_n
    for _ in range(levels - 1):
        if n0 % 2:
            raise ConfigError(f"finest_n={finest_n} not divisible for {levels} levels")
        n0 //= 2
    return build_hierarchy(kind, n0, levels), finest_n, levels


def _write_run(experiment, finest_n, levels, beta, result, out_dir):
    outer_path = os.path.join(out_dir, f"{experiment}_outer.csv")
    summary_path = os.path.join(out_dir, f"{experiment}_summary.csv")
    solution_path = os.path.join(out_dir, f"{experiment}_solution.csv")
    emit_csv(
        ["iteration", "mu", "predictor_iters", "corrector_iters",
         "fine_matvecs_cumulative", "lambda_w2inf"],
        [(r.iteration, r.mu, r.predictor_iters, r.corrector_iters,
          r.fine_matvecs_cumulative, r.lambda_w2inf) for r in result.records],
        outer_path,
    )
    total = result.records[-1].fine_matvecs_cumulative if result.records else 0
    emit_csv(
        ["experiment", "finest_n", "levels", "beta", "outer_iterations",
         "total_fine_matvecs", "converged"],
        [(experiment, finest_n, levels, beta, len(result.records), total,
          result.converged)],
        summary_path,
    )
    emit_csv(
        ["index", "u"],
        list(enumerate(result.u.values.tolist())),
        solution_path,
    )
    return RunArtifacts(outer_path, summary_path, solution_path)


def _run_control(cfg, experiment, kind, default_n, build, target, bounds, beta,
                 options):
    """One control experiment: hierarchy, operators, f = K u0, bounds, solve.

    build(level, level_index=i) makes each level's operator, target maps the
    finest node coordinates to u0, and bounds (lo, hi), beta and options
    (IpmOptions fields) are the defaults that the config overrides.  A
    ValueError anywhere in the set-up is a ConfigError; the solve's own
    failures are not.  The output directory is made before the solve, so
    an unwritable one fails first.
    """
    try:
        hier, finest_n, levels = _hierarchy(cfg, kind, default_n)
        ops = [build(lv, level_index=i) for i, lv in enumerate(hier.levels)]
        finest = hier.n_levels - 1
        f_vals = ops[-1].apply(target(node_coordinates(hier.finest)))
        lo, hi = _bounds(cfg, hier.finest.n_dof, *bounds)
        beta = cfg.get("beta", beta)
        problem = ControlProblem(hier, ops, NodalField(finest, f_vals), beta,
                                 NodalField(finest, lo), NodalField(finest, hi))
        opts = _dataclass_config(IpmOptions, {**options, **cfg})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = cfg.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    result = solve(problem, opts)
    arts = _write_run(experiment, finest_n, levels, beta, result, out_dir)
    return arts, result.converged


def run_parabolic(cfg):
    """1D source identification: two-bump target, f = K u0, box bounds."""
    def build(level, level_index):
        config = _dataclass_config(ParabolicConfig, {"c1": 1.0, **cfg})
        return parabolic_build(level, config, level_index)

    return _run_control(cfg, "parabolic-1d", "periodic-interval", 1024, build,
                        two_bump_target, (0.0, 1.0), 1e-3, {})


def run_elliptic(cfg):
    """2D source identification through the inverse Laplacian.

    The default duality-gap tolerance is far below the IpmOptions default:
    with cell weights h^2 and a unit cold start the gap measure starts at
    O(1), and the active sets only pin to the bounds once mu is pushed to
    about 1e-15 of that.
    """
    def target(xy):
        x, y = xy
        return 1.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

    return _run_control(cfg, "elliptic-2d", "dirichlet-square", 64, elliptic_build,
                        target, (-1.0, 1.0), 1e-6, {"mu_tol": 1e-15})


def run_spectral_table(cfg):
    """d_h table over (h, beta); the operator is the 1D parabolic.

    Each cell is a k x k eigenproblem (diagnostics.two_grid_cell), with k
    the summed ranks of the two levels' normal factors: 59, 74, 98 and
    146 at the default 1/h = 80, 160, 320 and 640.  A cell that fails
    numerically (a coarse core with no Cholesky factor, a spectrum off the
    right half line) raises RuntimeError, which main reports as a solver
    error; a ValueError, from the table's own input checks or the
    operators', is a ConfigError.
    """
    out_dir = cfg.get("output_dir", ".")
    try:
        op_cfg = _dataclass_config(ParabolicConfig, {"c1": 2.0, **cfg})
        os.makedirs(out_dir, exist_ok=True)
        reports = spectral_distance_table(
            lambda level, i: parabolic_build(level, op_cfg, i),
            lambda xs: np.sin(np.pi * xs) / np.pi,
            **{key: cfg[key] for key in ("h_list", "beta_list") if key in cfg},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = os.path.join(out_dir, "spectral.csv")
    emit_csv(["h", "beta", "d_h", "rate"],
             [(r.h, r.beta, r.d_h, r.rate_vs_previous) for r in reports], path)
    return RunArtifacts(path, path, path), True


_RUNNERS = {
    "parabolic-1d": run_parabolic,
    "elliptic-2d": run_elliptic,
    "spectral-table": run_spectral_table,
}


def _execute(path, overrides):
    """Run one config file; returns the process exit code."""
    try:
        cfg = parse_config(path)
        cfg.update(overrides)
        experiment = cfg["experiment"]
        unread = sorted(cfg.keys() - _READS[experiment].keys())
        if unread:
            raise ConfigError(f"{path}: {experiment} reads no {', '.join(unread)}")
        _, converged = _RUNNERS[experiment](cfg)
        if converged:
            return 0
        n_outer = cfg.get("max_outer", IpmOptions.max_outer)
        print(f"solver error: {path}: not converged after {n_outer} outer iterations",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # inner solves that failed beyond use, Krylov breakdowns included
        print(f"solver error: {path}: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mgipm",
        description="interior point experiments with multigrid inner solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run, spectral = (sub.add_parser(name) for name in ("run", "spectral"))
    for p in (run, spectral):
        p.add_argument("configs", nargs="+", help="config file(s)")
        p.add_argument("--output-dir", default=None)
    # the spectral table reads none of these, so they are run's alone
    run.add_argument("--levels", type=int, default=None)
    run.add_argument("--finest-n", type=int, default=None)
    run.add_argument("--beta", type=float, default=None)
    args = parser.parse_args(argv)

    # the option dests are the config keys they override
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "configs") and value is not None}
    if args.command == "spectral":
        overrides["experiment"] = "spectral-table"

    codes = [_execute(p, overrides) for p in args.configs]
    if 1 in codes:
        return 1
    if 2 in codes:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
