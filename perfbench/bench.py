"""Workloads, timing loop and output checks of the mgipm benchmark.

Every workload goes through the package's public API only.  The solver
workloads mirror ``cli.run_parabolic`` and ``cli.run_elliptic`` (same
targets, bounds, beta and ``IpmOptions``) with one difference: the seed
draws Gaussian observation noise at 1% of the RMS of ``f`` and adds it to
``f``.  ``spectral-table`` is the default ``cli.run_spectral_table``
experiment and ignores the seed.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from mgipm import cli, diagnostics, grid, ipm, operators

import tracer as tracing

DEFAULT_SEED = 1
NOISE_LEVEL = 0.01
MIN_SETUPS = 40
SETUPS_PER_EXPERIMENT = 4

END_TO_END = (
    ("run_s", "s"),
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
)

# objective 0.5|Ku - f|_h^2 + 0.5 beta |u|_h^2 of the solution at DEFAULT_SEED
REFERENCE_OBJECTIVE = {
    "par1d-3lvl": 4.855821783687808e-05,
    "par1d-1lvl": 4.853202576537259e-05,
    "ell2d-2lvl": 4.3639331459201204e-07,
}
OBJECTIVE_RTOL = 1e-10

# d_h of the default spectral table, beta groups in order, finest last
REFERENCE_D = (
    0.002424147204675649, 0.000614282446271109,
    0.00015406919704021656, 3.854800156097646e-05,
    0.012045186908073352, 0.003050282306912185,
    0.0007658363036986676, 0.00019177532358006,
    0.3587291010125415, 0.14015217591434057,
    0.046062153518247925, 0.013354766768528193,
)
SPECTRAL_RTOL = 1e-8


@dataclass
class Problem:
    prob: ipm.ControlProblem
    opts: ipm.IpmOptions


class SolverWorkload:
    """One interior point solve on a 1D parabolic or 2D elliptic problem."""

    def __init__(self, name, experiment, finest_n, levels, coarsest_solver="auto"):
        self.name = name
        self.experiment = experiment
        self.finest_n = finest_n
        self.levels = levels
        self.finest = levels - 1
        self.coarsest_solver = coarsest_solver

    def setup(self, seed):
        """Hierarchy, operators and noisy target, lazy factorizations done."""
        fin = self.finest
        if self.experiment == "parabolic-1d":
            hier = grid.build_hierarchy(
                "periodic-interval", self.finest_n >> fin, self.levels)
            cfg = operators.ParabolicConfig()
            ops = [operators.parabolic_build(lv, cfg, level_index=i)
                   for i, lv in enumerate(hier.levels)]
            f = ops[-1].apply(cli.two_bump_target(grid.node_coordinates(hier.finest)))
            lo, hi, beta = 0.0, 1.0, 1e-3
            opts = ipm.IpmOptions(coarsest_solver=self.coarsest_solver)
        else:
            hier = grid.build_hierarchy(
                "dirichlet-square", self.finest_n >> fin, self.levels)
            cfg = operators.EllipticConfig()
            ops = [operators.elliptic_build(lv, cfg, level_index=i)
                   for i, lv in enumerate(hier.levels)]
            x, y = grid.node_coordinates(hier.finest)
            f = ops[-1].apply(1.5 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
            lo, hi, beta = -1.0, 1.0, 1e-6
            opts = ipm.IpmOptions(mu_tol=1e-15, coarsest_solver=self.coarsest_solver)
        rng = np.random.default_rng(seed)
        f = f + NOISE_LEVEL * math.sqrt(float(np.mean(f * f))) * rng.standard_normal(f.size)
        for i, (lv, op) in enumerate(zip(hier.levels, ops)):
            op.apply(np.zeros(lv.n_dof))
            if i > 0:
                grid.l2_project(hier, grid.NodalField(i, np.zeros(lv.n_dof)))
                grid.prolong(hier, grid.NodalField(i - 1, np.zeros(hier.levels[i - 1].n_dof)))
        n = hier.finest.n_dof
        prob = ipm.ControlProblem(
            hier, ops, grid.NodalField(fin, f), beta,
            grid.NodalField(fin, np.full(n, lo)), grid.NodalField(fin, np.full(n, hi)),
        )
        return Problem(prob, opts)

    def solve(self, state):
        return ipm.solve(state.prob, state.opts)

    def paths(self, out_dir):
        return [os.path.join(out_dir, f"{self.experiment}_{part}.csv")
                for part in ("outer", "summary", "solution")]

    def emit(self, state, result, out_dir):
        """The three CSVs of ``mgipm run``, written as ``cli`` writes them."""
        outer, summary, solution = self.paths(out_dir)
        cli.emit_csv(
            ["iteration", "mu", "predictor_iters", "corrector_iters",
             "fine_matvecs_cumulative", "lambda_w2inf"],
            [(r.iteration, r.mu, r.predictor_iters, r.corrector_iters,
              r.fine_matvecs_cumulative, r.lambda_w2inf) for r in result.records],
            outer,
        )
        cli.emit_csv(
            ["experiment", "finest_n", "levels", "beta", "outer_iterations",
             "total_fine_matvecs", "converged"],
            [(self.experiment, self.finest_n, self.levels, state.prob.beta,
              len(result.records), total_fine_matvecs(result), result.converged)],
            summary,
        )
        cli.emit_csv(["index", "u"], list(enumerate(result.u.values.tolist())),
                     solution)

    def check(self, state, result, seed, out_dir):
        """Failure messages for one solve; empty when every check passes."""
        prob, opts = state.prob, state.opts
        if not result.converged:
            return [f"not converged after {len(result.records)} outer iterations"]
        fails = []
        lo, hi = prob.lo.values, prob.hi.values
        u, v1, v2 = result.u.values, result.v1.values, result.v2.values
        if not (np.all(u > lo) and np.all(u < hi) and np.all(v1 > 0) and np.all(v2 > 0)):
            return ["iterate is not strictly feasible"]
        n = u.size
        start = ipm.IpmState(grid.NodalField(self.finest, lo + 0.5 * (hi - lo)),
                             grid.NodalField(self.finest, np.ones(n)),
                             grid.NodalField(self.finest, np.ones(n)), 0.0, 0)
        final = ipm.IpmState(result.u, result.v1, result.v2, result.mu_final,
                             len(result.records))
        *_, norms0 = ipm.kkt_residuals(prob, start)
        *_, norms = ipm.kkt_residuals(prob, final)
        mu0 = ipm.compute_mu(start, prob.lo, prob.hi)
        mu = ipm.compute_mu(final, prob.lo, prob.hi)
        rel = max(r / max(r0, 1e-300) for r, r0 in zip(norms, norms0))
        if rel > opts.resid_tol:
            fails.append(f"KKT residual {rel:.3e} > resid_tol {opts.resid_tol:.1e}")
        if mu > opts.mu_tol * mu0:
            fails.append(f"mu {mu:.3e} > mu_tol * mu0 = {opts.mu_tol * mu0:.3e}")
        if seed == DEFAULT_SEED:
            ref = REFERENCE_OBJECTIVE[self.name]
            obj = objective(prob, u)
            if abs(obj - ref) > OBJECTIVE_RTOL * abs(ref):
                fails.append(f"objective {obj!r} differs from reference {ref!r}")
        _, summary, solution = self.paths(out_dir)
        with open(summary, encoding="utf-8") as fh:
            row = fh.read().splitlines()[1].split(",")
        if row[4:] != [str(len(result.records)), str(total_fine_matvecs(result)), "true"]:
            fails.append(f"summary CSV row {row} does not match the result")
        with open(solution, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != n + 1:
            fails.append(f"solution CSV has {lines} lines, expected {n + 1}")
        return fails

    def outer_iterations(self, result):
        return len(result.records)


class SpectralWorkload:
    """The default dense spectral-distance table of ``mgipm spectral``."""

    name = "spectral-table"
    finest = 1
    h_list = (1 / 80, 1 / 160, 1 / 320, 1 / 640)
    beta_list = (1.0, 0.1, 0.01)

    def setup(self, seed):
        """Per-cell hierarchies and operators of the table, symbols computed."""
        cfg = operators.ParabolicConfig(c1=2.0)
        for h in self.h_list:
            hier = grid.build_hierarchy("periodic-interval", round(1.0 / h) // 2, 2)
            for i, lv in enumerate(hier.levels):
                operators.parabolic_build(lv, cfg, level_index=i).apply(np.zeros(lv.n_dof))
        return cfg

    def solve(self, cfg):
        return diagnostics.spectral_distance_table(
            lambda lv, i: operators.parabolic_build(lv, cfg, level_index=i),
            lambda xs: np.sin(np.pi * xs) / np.pi,
            h_list=self.h_list,
            beta_list=self.beta_list,
        )

    def paths(self, out_dir):
        return [os.path.join(out_dir, "spectral.csv")]

    def emit(self, cfg, reports, out_dir):
        cli.emit_csv(
            ["h", "beta", "d_h", "rate"],
            [(r.h, r.beta, r.d_h,
              None if r.rate_vs_previous != r.rate_vs_previous else r.rate_vs_previous)
             for r in reports],
            self.paths(out_dir)[0],
        )

    def check(self, cfg, reports, seed, out_dir):
        d = [r.d_h for r in reports]
        if len(d) != len(self.h_list) * len(self.beta_list):
            return [f"table has {len(d)} cells"]
        fails = []
        for got, ref in zip(d, REFERENCE_D):
            if abs(got - ref) > SPECTRAL_RTOL * abs(ref):
                fails.append(f"d_h {got!r} differs from reference {ref!r}")
        with open(self.paths(out_dir)[0], encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        if lines != len(d) + 1:
            fails.append(f"spectral CSV has {lines} lines, expected {len(d) + 1}")
        return fails

    def outer_iterations(self, reports):
        return 0


WORKLOADS = {
    "par1d-3lvl": SolverWorkload("par1d-3lvl", "parabolic-1d", 4096, 3),
    "par1d-1lvl": SolverWorkload("par1d-1lvl", "parabolic-1d", 16384, 1),
    "ell2d-2lvl": SolverWorkload("ell2d-2lvl", "elliptic-2d", 32, 2),
    "spectral-table": SpectralWorkload(),
}


def total_fine_matvecs(result):
    return result.records[-1].fine_matvecs_cumulative if result.records else 0


def objective(prob, u):
    """0.5 |K u - f|_h^2 + 0.5 beta |u|_h^2 on the finest level."""
    w = prob.hierarchy.finest.weights
    r = prob.operators[-1].apply(u) - prob.f.values
    return 0.5 * float(np.sum(w * r * r)) + 0.5 * prob.beta * float(np.sum(w * u * u))


class Tally:
    """Attempted and failed solves of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, wl, seed, out_dir, attempt):
        """Run attempt() -> (state, result) and check its output.

        A raise or a failed output check counts as failed.
        """
        self.attempted += 1
        try:
            state, result = attempt()
            fails = wl.check(state, result, seed, out_dir)
        except Exception:  # any solver failure is a counted, reported outcome
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        if fails:
            self.failed += 1
            for msg in fails:
                print(f"check failed ({wl.name}, seed {seed}): {msg}", file=sys.stderr)


def measure(name, seed, seconds, out_dir):
    """Timed run: end-to-end metrics from repeated untraced experiments.

    Each time metric is the median of the run's samples.
    """
    wl = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    tally = Tally()

    # untimed first pass: peak traced allocation of one solve; it also
    # fills process-wide caches before anything is timed
    peak = []

    def traced_alloc():
        state = wl.setup(seed)
        tracemalloc.start()
        try:
            result = wl.solve(state)
            peak.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
        wl.emit(state, result, out_dir)
        return state, result

    tally.record(wl, seed, out_dir, traced_alloc)

    samples = {"setup_s": [], "solve_s": [], "run_s": []}

    def time_setup():
        t0 = perf_counter()
        state = wl.setup(seed)
        samples["setup_s"].append(perf_counter() - t0)
        return state

    def experiment():
        t0 = perf_counter()
        state = time_setup()
        t1 = perf_counter()
        result = wl.solve(state)
        t2 = perf_counter()
        wl.emit(state, result, out_dir)
        t3 = perf_counter()
        samples["solve_s"].append(t2 - t1)
        samples["run_s"].append(t3 - t0)
        return state, result

    # set-up-only repetitions are spread over the run, so that set-up is
    # sampled in more than one phase of the host's speed
    begin = perf_counter()
    while True:
        tally.record(wl, seed, out_dir, experiment)
        for _ in range(SETUPS_PER_EXPERIMENT):
            time_setup()
        if perf_counter() - begin >= seconds:
            break
    while len(samples["setup_s"]) < MIN_SETUPS:
        time_setup()

    metrics = {key: statistics.median(vals) for key, vals in samples.items() if vals}
    if peak:
        metrics["peak_mem_mb"] = peak[0]
    return tally, metrics, samples


def traced_experiment(wl, seed, out_dir):
    """One setup, solve and emit under the layer tracer.

    Returns (tracer, root span index, state, result); the wrappers are
    removed again before this returns.
    """
    with tracing.traced() as tr:
        with tr.span("bench.experiment") as root:
            with tr.span("bench.setup"):
                state = wl.setup(seed)
            result = wl.solve(state)
            wl.emit(state, result, out_dir)
    return tr, root, state, result


def measure_traced(name, seed, seconds, out_dir):
    """Traced run: per-layer metrics, medians over repeated experiments.

    Also checks that the tracer's fine-level apply count equals the
    solver's own fine_matvecs_cumulative.
    """
    wl = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    tally = Tally()
    per_experiment = []

    def experiment():
        tr, root, state, result = traced_experiment(wl, seed, out_dir)
        m = tracing.layer_metrics(tr, root, wl.finest, wl.outer_iterations(result))
        if isinstance(wl, SolverWorkload) and m["operators.fine_matvecs"] != total_fine_matvecs(result):
            raise RuntimeError(
                f"traced fine applies {m['operators.fine_matvecs']} !="
                f" solver total {total_fine_matvecs(result)}")
        per_experiment.append(m)
        return state, result

    begin = perf_counter()
    while True:
        tally.record(wl, seed, out_dir, experiment)
        if perf_counter() - begin >= seconds:
            break
    metrics = {}
    if per_experiment:
        for key, _ in tracing.PER_LAYER:
            metrics[key] = statistics.median(m[key] for m in per_experiment)
    return tally, metrics, {"trace.solve_s": [m["trace.solve_s"] for m in per_experiment]}
