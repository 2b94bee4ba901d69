"""Span and count recorder for the traced benchmark run.

The tracer wraps module attributes as matgraph looks them up at call
time (``matgraph.optimizer.eval_graph`` and so on), so no file of the
package is edited.  Spans and counts stay in memory and are turned into
per-layer metrics and a trace file when the run ends.  A wrapped name
that no longer exists is reported as absent; its metrics then read 0.

A span is ``[name, start, end, parent, pass]``; ``parent`` is the index
of the enclosing span or None.  A span's self time is its duration minus
the durations of its direct children (one thread, so children nest and
never overlap).
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict


class NullTracer:
    """Untraced runs: public calls go straight through."""

    pass_index = -1

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def record(self, key, value):
        pass

    def install(self):
        pass

    def uninstall(self):
        pass


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.values: dict[int, dict] = defaultdict(dict)
        self.pass_index = -1
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def span(self, name, fn):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_index]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.pass_index][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run one public call of the workload inside a span."""
        return self.span(name, fn)(*args, **kwargs)

    def record(self, key, value):
        """A per-pass value the workload reads off a result (iterations, nodes)."""
        self.values[self.pass_index][key] = value

    # -- patching the program's lookups -------------------------------------

    def _patch(self, owner, attr, label, make):
        try:
            orig = getattr(owner, attr)
        except AttributeError:
            self.absent.append(label)
            return
        own = attr in vars(owner)
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig, own))

    def install(self):
        import mpmath
        from matgraph import erroranalysis, evaluation, optimizer
        from matgraph.series import TruncSeries

        def bisect(orig):
            def counted_bisect(bound, *args, **kwargs):
                return orig(self.counter("erroranalysis.bound_evals", bound), *args, **kwargs)
            return self.span("erroranalysis.bisect", counted_bisect)

        targets = [
            (optimizer, "eval_graph", "evaluation.points_eval"),
            (optimizer, "eval_jac", "autodiff.eval_jac"),
            (optimizer, "gn_step", "optimizer.gn_step"),
            (erroranalysis, "_graph_series", "evaluation.series_eval"),
            (evaluation, "mat_lu_solve", "numerics.mat_lu_solve"),
            (TruncSeries, "__mul__", "series.mul"),
            (TruncSeries, "compose", "series.compose"),
            (TruncSeries, "divide", "series.divide"),
        ]
        for owner, attr, name in targets:
            self._patch(owner, attr, name, functools.partial(self.span, name))
        self._patch(erroranalysis, "_bisect_max_below", "erroranalysis.bisect", bisect)
        self._patch(mpmath.mp, "lu_solve", "numerics.lu_factorisations",
                    functools.partial(self.counter, "numerics.lu_factorisations"))

    def uninstall(self):
        for owner, attr, orig, own in reversed(self._patches):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- reduction ----------------------------------------------------------

    def span_table(self, pass_index: int) -> dict:
        """name -> [calls, total seconds, self seconds] over one pass."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[4] == pass_index and rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        table: dict[str, list] = {}
        for i, rec in enumerate(self.spans):
            if rec[4] != pass_index:
                continue
            dur = rec[2] - rec[1]
            row = table.setdefault(rec[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return table

    def layer_metrics(self, pass_index: int, t: dict) -> dict:
        """Per-layer metrics of one pass, from its span table ``t``."""
        counts = self.counts[pass_index]
        vals = self.values[pass_index]

        def total(name):
            return t.get(name, [0, 0.0, 0.0])[1]

        def calls(name):
            return t.get(name, [0, 0.0, 0.0])[0]

        return {
            "evaluation.points_eval_s": total("evaluation.points_eval"),
            "evaluation.points_eval_calls": calls("evaluation.points_eval"),
            "evaluation.series_eval_s": total("evaluation.series_eval"),
            "evaluation.mp_matrix_eval_s": total("evaluation.mp_matrix_eval"),
            "autodiff.eval_jac_s": total("autodiff.eval_jac"),
            "autodiff.eval_jac_calls": calls("autodiff.eval_jac"),
            "optimizer.gn_step_s": total("optimizer.gn_step"),
            "optimizer.gn_step_calls": calls("optimizer.gn_step"),
            "optimizer.self_s": t.get("optimizer.opt_gauss_newton", [0, 0.0, 0.0])[2],
            "optimizer.iterations": vals.get("optimizer.iterations", 0),
            "design_theta": vals.get("design_theta", 0.0),
            "series.mul_calls": calls("series.mul"),
            "series.mul_s": total("series.mul"),
            "series.compose_s": total("series.compose"),
            "series.divide_calls": calls("series.divide"),
            "series.divide_s": total("series.divide"),
            "erroranalysis.theta_s": total("erroranalysis.theta"),
            "erroranalysis.bisect_s": total("erroranalysis.bisect"),
            "erroranalysis.bound_evals": counts["erroranalysis.bound_evals"],
            "numerics.mat_lu_solve_s": total("numerics.mat_lu_solve"),
            "numerics.mat_lu_solve_calls": calls("numerics.mat_lu_solve"),
            "numerics.lu_factorisations": counts["numerics.lu_factorisations"],
            "graph.build_s": total("graph.build"),
            "graph.compress_s": total("graph.compress"),
            "graph.nodes": vals.get("graph.nodes", 0),
            "codegen.plan_schedule_s": total("codegen.plan_schedule"),
            "codegen.gen_c_s": total("codegen.gen_c"),
            "codegen.gen_matlab_s": total("codegen.gen_matlab"),
            "cgr.render_s": total("cgr.render"),
            "cgr.parse_f64_s": total("cgr.parse_f64"),
            "cgr.parse_bf256_s": total("cgr.parse_bf256"),
        }

    def summary(self, passes: int, pass_walls: list) -> tuple[dict, dict]:
        """Median per-layer metrics over the passes, plus the trace file body."""
        tables = [self.span_table(i) for i in range(passes)]
        per_pass = [self.layer_metrics(i, t) for i, t in enumerate(tables)]
        metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        self_s = {name: statistics.median(tb.get(name, [0, 0.0, 0.0])[2] for tb in tables)
                  for name in sorted({n for tb in tables for n in tb})}
        top = [sum(rec[2] - rec[1] for rec in self.spans if rec[4] == i and rec[3] is None)
               for i in range(passes)]
        trace = {
            "workload": self.workload,
            "absent": self.absent,
            "pass_wall_s": pass_walls,
            "traced_share": [tp / w for tp, w in zip(top, pass_walls)],
            "self_s": self_s,
            "per_pass": per_pass,
            "spans": [[name, s, e, parent, p, self.workload]
                      for name, s, e, parent, p in self.spans],
        }
        return metrics, trace
