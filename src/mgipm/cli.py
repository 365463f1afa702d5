"""Config-driven experiment runner with deterministic CSV output.

Configs are flat key=value text files (one pair per line, ``#`` starts a
comment, booleans spelled true/false).  Three experiments are supported:
a 1D parabolic source-identification run, a 2D elliptic run, and the
dense spectral-distance table.  All real numbers in emitted CSVs are
printed with 17 significant digits and no run metadata, so identical
configs reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from mgipm.diagnostics import spectral_distance_table
from mgipm.grid import NodalField, build_hierarchy, node_coordinates
from mgipm.ipm import ControlProblem, IpmOptions, solve
from mgipm.operators import (
    EllipticConfig,
    ParabolicConfig,
    elliptic_build,
    parabolic_build,
)

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


_EXPERIMENTS = ("parabolic-1d", "elliptic-2d", "spectral-table")

# key -> type; strings pass through, "floatlist" parses comma-separated reals
_SCHEMA = {
    "experiment": str,
    "finest_n": int,
    "levels": int,
    "beta": float,
    "lo": float,
    "hi": float,
    "bounds_file": str,
    "output_dir": str,
    "a": float,
    "b": float,
    "c": float,
    "T": float,
    "c1": float,
    "method": str,
    "inner_solver": str,
    "inner_tol": float,
    "factor_max_cells": int,
    "mu_tol": float,
    "resid_tol": float,
    "max_outer": int,
    "step_fraction": float,
    "krylov_tol": float,
    "krylov_maxit": int,
    "coarsest_solver": str,
    "coarsest_tol": float,
    "h_list": "floatlist",
    "beta_list": "floatlist",
}


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
    if raw["experiment"] not in _EXPERIMENTS:
        raise ConfigError(
            f"{path}: experiment must be one of {', '.join(_EXPERIMENTS)}"
        )
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
        if kind == "floatlist":
            return tuple(_parse_real(v.strip()) for v in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {value!r}") from exc
    raise ConfigError(f"{where}: unhandled key {key}")


def _parse_real(text):
    if text.lower() in ("true", "false"):
        raise ValueError("boolean where a number was expected")
    return float(text)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v:
            return ""
        return f"{v:.17g}"
    return str(value)


def emit_csv(header, rows, path):
    """Write one CSV with fixed column order and 17-digit reals."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
        lo, hi = data[:, 0].copy(), data[:, 1].copy()
    else:
        lo = np.full(n, cfg.get("lo", default_lo))
        hi = np.full(n, cfg.get("hi", default_hi))
    if not np.all(lo < hi):
        raise ConfigError("bounds must satisfy lo < hi at every node")
    return lo, hi


def _ipm_options(cfg):
    kw = {}
    for key in ("mu_tol", "resid_tol", "max_outer", "step_fraction",
                "krylov_tol", "krylov_maxit", "coarsest_solver",
                "coarsest_tol"):
        if key in cfg:
            kw[key] = cfg[key]
    return IpmOptions(**kw)


def _hierarchy(cfg, kind, default_n):
    finest_n = cfg.get("finest_n", default_n)
    levels = cfg.get("levels", 2)
    if levels < 1:
        raise ConfigError("levels must be >= 1")
    n0 = finest_n
    for _ in range(levels - 1):
        if n0 % 2:
            raise ConfigError(
                f"finest_n={finest_n} not divisible for {levels} levels"
            )
        n0 //= 2
    try:
        return build_hierarchy(kind, n0, levels), finest_n, levels
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_run(cfg, experiment, finest_n, levels, beta, result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
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


def run_parabolic(cfg):
    """1D source identification: two-bump target, f = K u0, box bounds."""
    hier, finest_n, levels = _hierarchy(cfg, "periodic-interval", 1024)
    op_cfg = ParabolicConfig(
        a=cfg.get("a", 4e-3), b=cfg.get("b", 0.4), c=cfg.get("c", 0.0),
        T=cfg.get("T", 0.8), c1=cfg.get("c1", 1.0),
        method=cfg.get("method", "spectral"),
    )
    ops = [parabolic_build(lv, op_cfg, level_index=i)
           for i, lv in enumerate(hier.levels)]
    finest = hier.finest
    x = node_coordinates(finest)
    f_vals = ops[-1].apply(two_bump_target(x))
    lo, hi = _bounds(cfg, finest.n_dof, 0.0, 1.0)
    beta = cfg.get("beta", 1e-3)
    prob = ControlProblem(
        hier, ops, NodalField(levels - 1, f_vals), beta,
        NodalField(levels - 1, lo), NodalField(levels - 1, hi),
    )
    result = solve(prob, _ipm_options(cfg))
    arts = _write_run(cfg, "parabolic-1d", finest_n, levels, beta, result,
                      cfg.get("output_dir", "."))
    return arts, result.converged


def run_elliptic(cfg):
    """2D source identification through the inverse Laplacian.

    The default duality-gap tolerance is far below the IpmOptions default:
    with cell weights h^2 and a unit cold start the gap measure starts at
    O(1), and the active sets only pin to the bounds once mu is pushed to
    about 1e-15 of that.
    """
    cfg.setdefault("mu_tol", 1e-15)
    hier, finest_n, levels = _hierarchy(cfg, "dirichlet-square", 64)
    op_cfg = EllipticConfig(
        inner_solver=cfg.get("inner_solver", "auto"),
        inner_tol=cfg.get("inner_tol", 1e-12),
        factor_max_cells=cfg.get("factor_max_cells", 512),
    )
    ops = [elliptic_build(lv, op_cfg, level_index=i)
           for i, lv in enumerate(hier.levels)]
    finest = hier.finest
    x, y = node_coordinates(finest)
    u0 = 1.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    f_vals = ops[-1].apply(u0)
    lo, hi = _bounds(cfg, finest.n_dof, -1.0, 1.0)
    beta = cfg.get("beta", 1e-6)
    prob = ControlProblem(
        hier, ops, NodalField(levels - 1, f_vals), beta,
        NodalField(levels - 1, lo), NodalField(levels - 1, hi),
    )
    result = solve(prob, _ipm_options(cfg))
    arts = _write_run(cfg, "elliptic-2d", finest_n, levels, beta, result,
                      cfg.get("output_dir", "."))
    return arts, result.converged


def run_spectral_table(cfg):
    """Dense d_h table over (h, beta); the operator is the 1D parabolic."""
    op_cfg = ParabolicConfig(
        a=cfg.get("a", 4e-3), b=cfg.get("b", 0.4), c=cfg.get("c", 0.0),
        T=cfg.get("T", 0.8), c1=cfg.get("c1", 2.0),
        method=cfg.get("method", "spectral"),
    )
    h_list = cfg.get("h_list", (1 / 80, 1 / 160, 1 / 320, 1 / 640))
    beta_list = cfg.get("beta_list", (1.0, 0.1, 0.01))
    reports = spectral_distance_table(
        lambda lv, i: parabolic_build(lv, op_cfg, level_index=i),
        lambda xs: np.sin(np.pi * xs) / np.pi,
        h_list=h_list,
        beta_list=beta_list,
    )
    out_dir = cfg.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "spectral.csv")
    emit_csv(
        ["h", "beta", "d_h", "rate"],
        [(r.h, r.beta, r.d_h,
          None if r.rate_vs_previous != r.rate_vs_previous else r.rate_vs_previous)
         for r in reports],
        path,
    )
    return RunArtifacts(path, path, path), True


def _execute(path, overrides):
    """Run one config file; returns the process exit code."""
    try:
        cfg = parse_config(path)
        cfg.update(overrides)
        experiment = cfg["experiment"]
        if experiment == "parabolic-1d":
            _, converged = run_parabolic(cfg)
        elif experiment == "elliptic-2d":
            _, converged = run_elliptic(cfg)
        else:
            _, converged = run_spectral_table(cfg)
        return 0 if converged else 2
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


def _worker_count(n_jobs):
    cap = os.environ.get("MGIPM_THREADS", "")
    try:
        cap_n = max(1, int(cap)) if cap else 1
    except ValueError:
        cap_n = 1
    return min(cap_n, n_jobs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mgipm",
        description="interior point experiments with multigrid inner solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "spectral"):
        p = sub.add_parser(name)
        p.add_argument("configs", nargs="+", help="config file(s)")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--finest-n", type=int, default=None)
        p.add_argument("--beta", type=float, default=None)
    args = parser.parse_args(argv)

    overrides = {}
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    if args.levels is not None:
        overrides["levels"] = args.levels
    if args.finest_n is not None:
        overrides["finest_n"] = args.finest_n
    if args.beta is not None:
        overrides["beta"] = args.beta
    if args.command == "spectral":
        overrides["experiment"] = "spectral-table"

    configs = list(args.configs)
    workers = _worker_count(len(configs))
    if workers == 1 or len(configs) == 1:
        codes = [_execute(p, overrides) for p in configs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_execute, configs,
                                  [overrides] * len(configs)))
    if 1 in codes:
        return 1
    if 2 in codes:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
