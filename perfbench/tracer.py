"""Outside-in span tracer for the mgipm layers.

The tracer replaces module and class attributes with thin wrappers that
record one span per call: name, level, start, end and the span that
caused it.  Spans stay in memory; ``layer_metrics`` folds the spans of one
experiment into the per-layer numbers the benchmark reports.  Removing
the wrappers restores every attribute exactly, so an untraced run after a
traced one executes the original code.

``ipm``, ``precond`` and ``cli`` import their callees by name, so the
wrappers go on the attribute of the importing module (``mgipm.ipm.cgs``,
``mgipm.precond.cg``, ...), not on the defining one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

_MISSING = object()

# span record fields
NAME, LEVEL, START, END, PARENT, LAST, INFO = range(7)

MAX_LEVELS = 3

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [(f"operators.applies.L{k}", "count") for k in range(MAX_LEVELS)]
    + [(f"operators.apply_s.L{k}", "s") for k in range(MAX_LEVELS)]
    + [
        ("operators.fine_matvecs", "count"),
        ("operators.fine_apply_us", "us"),
        ("grid.l2_project_s", "s"),
        ("grid.prolong_s", "s"),
        ("grid.transfers", "count"),
        ("krylov.cgs_iters", "count"),
        ("krylov.cgs_self_s", "s"),
        ("krylov.cg_fine_iters", "count"),
        ("krylov.cg_fine_self_s", "s"),
        ("krylov.cg_coarse_iters", "count"),
        ("krylov.cg_coarse_self_s", "s"),
        ("krylov.unconverged_ratio", "ratio"),
        ("precond.setup_s", "s"),
        ("precond.setup_first_s", "s"),
        ("precond.coarse_solve_s", "s"),
        ("precond.coarse_solves", "count"),
        ("precond.cycle_s", "s"),
        ("precond.g_apply_s", "s"),
        ("ipm.self_s", "s"),
        ("ipm.outer_iterations", "count"),
        ("cli.emit_s", "s"),
        ("cli.csv_bytes", "bytes"),
        ("diagnostics.cell_s", "s"),
        ("diagnostics.eigen_s", "s"),
        ("diagnostics.cells", "count"),
        ("trace.solve_s", "s"),
    ]
)

SOLVE_SPANS = ("ipm.solve", "diagnostics.table")


class Tracer:
    """Records nested spans from wrappers installed on the program's layers."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._saved = []

    def _open(self, name, level):
        idx = len(self.spans)
        self.spans.append([name, level, 0.0, 0.0, self._stack[-1], idx, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start):
        rec = self.spans[idx]
        rec[END] = perf_counter()
        rec[START] = start
        rec[LAST] = len(self.spans)
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name, None)
        start = perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, start)

    def wrap(self, owner, attr, name, level_of=None, info_of=None):
        """Replace owner.attr by a wrapper that records one span per call.

        level_of(args) gives the span's level; info_of(args, result)
        attaches per-call data (a Krylov report, bytes written).
        """
        original = getattr(owner, attr)
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))

        def wrapper(*args, **kwargs):
            idx = self._open(name, level_of(args) if level_of else None)
            start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(idx, start)
            if info_of is not None:
                self.spans[idx][INFO] = info_of(args, out)
            return out

        setattr(owner, attr, wrapper)

    def unwrap_all(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def _level(args):
    return args[0].level_index


def _report(args, out):
    rep = out[1]
    return rep.iterations, rep.converged


def _bytes_written(args, out):
    return os.path.getsize(args[2])


@contextmanager
def traced():
    """Install the layer wrappers for the duration of the block."""
    from mgipm import cli, diagnostics, ipm, operators, precond

    tracer = Tracer()
    try:
        tracer.wrap(ipm, "solve", "ipm.solve")
        tracer.wrap(diagnostics, "spectral_distance_table", "diagnostics.table")
        for attr in ("apply", "apply_transpose"):
            tracer.wrap(operators.ForwardOperator, attr, "operators.apply",
                        level_of=_level)
        tracer.wrap(ipm, "cgs", "krylov.cgs", info_of=_report)
        tracer.wrap(ipm, "cg", "krylov.cg_fine", info_of=_report)
        tracer.wrap(precond, "cg", "krylov.cg_coarse", info_of=_report)
        tracer.wrap(precond, "l2_project", "grid.l2_project")
        tracer.wrap(precond, "prolong", "grid.prolong")
        tracer.wrap(ipm, "build_preconditioner", "precond.setup")
        tracer.wrap(ipm, "mg_apply", "precond.cycle")
        tracer.wrap(ipm, "g_apply", "precond.g_apply")
        tracer.wrap(precond, "g_apply", "precond.g_apply")
        tracer.wrap(precond.MgPreconditioner, "coarse_solve",
                    "precond.coarse_solve")
        tracer.wrap(cli, "emit_csv", "cli.emit_csv", info_of=_bytes_written)
        tracer.wrap(diagnostics, "two_grid_cell", "diagnostics.cell")
        tracer.wrap(diagnostics, "eigenvalues", "diagnostics.eigen")
        yield tracer
    finally:
        tracer.unwrap_all()


def self_times(spans, first, last):
    """Duration minus the duration of direct children, for spans[first:last]."""
    child = [0.0] * (last - first)
    for i in range(first, last):
        parent = spans[i][PARENT]
        if parent >= first:
            child[parent - first] += spans[i][END] - spans[i][START]
    return [spans[i][END] - spans[i][START] - child[i - first]
            for i in range(first, last)]


def layer_metrics(tracer, root, finest, outer_iterations):
    """Per-layer metrics of the experiment whose root span is spans[root].

    Layer metrics count work inside the solve span; cli metrics cover the
    whole experiment.  finest is the hierarchy index of the finest level.
    """
    spans = tracer.spans
    end = spans[root][LAST]
    solve = next(i for i in range(root + 1, end)
                 if spans[i][PARENT] == root and spans[i][NAME] in SOLVE_SPANS)
    s_end = spans[solve][LAST]
    selfs = self_times(spans, solve, s_end)

    count, total, own = {}, {}, {}
    reports = {}
    first_setup = None
    for i in range(solve + 1, s_end):
        rec = spans[i]
        key = rec[NAME] if rec[LEVEL] is None else (rec[NAME], rec[LEVEL])
        count[key] = count.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + rec[END] - rec[START]
        own[key] = own.get(key, 0.0) + selfs[i - solve]
        if rec[INFO] is not None:
            reports.setdefault(key, []).append(rec[INFO])
        if rec[NAME] == "precond.setup" and first_setup is None:
            first_setup = rec[END] - rec[START]

    def iters(key):
        return sum(it for it, _ in reports.get(key, ()))

    m = {}
    for k in range(MAX_LEVELS):
        key = ("operators.apply", k)
        m[f"operators.applies.L{k}"] = count.get(key, 0)
        m[f"operators.apply_s.L{k}"] = total.get(key, 0.0)
    fine_key = ("operators.apply", finest)
    fine = count.get(fine_key, 0)
    m["operators.fine_matvecs"] = fine
    m["operators.fine_apply_us"] = 1e6 * total.get(fine_key, 0.0) / fine if fine else 0.0
    m["grid.l2_project_s"] = total.get("grid.l2_project", 0.0)
    m["grid.prolong_s"] = total.get("grid.prolong", 0.0)
    m["grid.transfers"] = count.get("grid.l2_project", 0) + count.get("grid.prolong", 0)
    for short, key in (("cgs", "krylov.cgs"), ("cg_fine", "krylov.cg_fine"),
                       ("cg_coarse", "krylov.cg_coarse")):
        m[f"krylov.{short}_iters"] = iters(key)
        m[f"krylov.{short}_self_s"] = own.get(key, 0.0)
    outer = reports.get("krylov.cgs", []) + reports.get("krylov.cg_fine", [])
    m["krylov.unconverged_ratio"] = (
        sum(1 for _, ok in outer if not ok) / len(outer) if outer else 0.0
    )
    m["precond.setup_s"] = own.get("precond.setup", 0.0)
    m["precond.setup_first_s"] = first_setup or 0.0
    m["precond.coarse_solve_s"] = own.get("precond.coarse_solve", 0.0)
    m["precond.coarse_solves"] = count.get("precond.coarse_solve", 0)
    m["precond.cycle_s"] = own.get("precond.cycle", 0.0)
    m["precond.g_apply_s"] = own.get("precond.g_apply", 0.0)
    m["ipm.self_s"] = selfs[0] if spans[solve][NAME] == "ipm.solve" else 0.0
    m["ipm.outer_iterations"] = outer_iterations
    emits = [rec for rec in spans[root:end] if rec[NAME] == "cli.emit_csv"]
    m["cli.emit_s"] = sum(rec[END] - rec[START] for rec in emits)
    m["cli.csv_bytes"] = sum(rec[INFO] for rec in emits)
    m["diagnostics.cell_s"] = own.get("diagnostics.cell", 0.0)
    m["diagnostics.eigen_s"] = total.get("diagnostics.eigen", 0.0)
    m["diagnostics.cells"] = count.get("diagnostics.cell", 0)
    m["trace.solve_s"] = spans[solve][END] - spans[solve][START]
    return m
