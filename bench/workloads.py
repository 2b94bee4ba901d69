"""The four benchmark workloads.

Each workload has

* ``setup(seed)``: build the inputs (timed as ``setup_s``);
* ``run_pass(inp, op)``: the timed body, every public matgraph call made
  through ``op(span_name, fn, *args)`` so the traced run can time it;
* ``check(inp, out)``: output checks, untimed, returning failures;
* ``op_faults(inp, out)``: checks of one pass whose failure marks a call
  as failed rather than the run as incorrect, for a fault of the program
  that shows on every pass whatever the seed (run after every pass,
  untimed);
* ``c_peak_buffers(inp, out)``: the n-by-n workspace of the C emitted for
  the workload's graphs (emitted here, outside the timed body, except on
  big-graph where emission is the work being timed), with the failures of
  an independent replay of that C.

``OPS`` is the number of ``op`` calls one pass makes.  gn-design and
theta-table are fixed published problems; the seed drives only their check
points.  mp-eval draws its matrices and big-graph its scalar argument from
the seed.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from mpmath import mp

import matgraph as mg

import checks

U = 2.0 ** -53  # unit round-off of binary64, the certificates' default u


def emitted_c_buffers(graphs, name):
    total, fails = 0, []
    for i, g in enumerate(graphs):
        src = mg.gen_code(g, mg.EmitTarget("c", f"f{i}"))
        nbuf, more = checks.c_schedule(src, f"{name} graph {i}")
        total += nbuf
        fails += more
    return total, fails


class Workload:
    @staticmethod
    def op_faults(inp, out):
        return []


# -- gn-design: Gauss-Newton design at 256 bits, then certification ------------

class GnDesign(Workload):
    """Degree-5 Taylor warm start in degree-optimal form, m=4 (34 coefficients),
    fitted to exp on the 0.45-circle at 256 bits, then certified at 1024 bits.

    Acceptance test 7 fits 200 points, 88 s a pass on a 2-core machine; the
    benchmark fits 100 so that repeated runs of all four workloads fit in
    about an hour.  At 60 or 70 points the design is refused by the
    certifier (g(0) - 1 above u * nterms).
    """

    name = "gn-design"
    OPS = 2
    POINTS = 100
    CONFIG = dict(errtype="rel", stoptol=4e-15, droptol=1e-15, linlsqr="real_svd", maxiter=100)

    @staticmethod
    def setup(seed):
        rng = np.random.default_rng(seed)
        c = [1.0 / math.factorial(j) for j in range(6)]
        g, refs = mg.graph_monomial_degopt(c)
        return SimpleNamespace(
            graph=mg.convert_precision(g, mg.bigfloat(256)),
            refs=refs,
            discr=mg.Discretization.disk(0.0, 0.45, GnDesign.POINTS, prec=256),
            config=mg.GNConfig(**GnDesign.CONFIG),
            # validation: 1000 points on the 0.45-circle
            val_z=0.45 * np.exp(1j * rng.uniform(0, 2 * np.pi, 1000)),
            # backward-error check: |z| = r * theta at angle a; half on the
            # circle, plus the fixed point 2^-10 theta near the origin, where
            # a nonzero log g(0) dominates
            theta_r=np.concatenate([np.ones(17), rng.uniform(0, 1, 16), [1.0, 2.0 ** -10]]),
            theta_a=np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, 32), [np.pi, 0.0]]),
        )

    @staticmethod
    def run_pass(inp, op):
        g = inp.graph.copy()
        rep = op("optimizer.opt_gauss_newton", mg.opt_gauss_newton,
                 g, mg.exp_target, inp.discr, inp.refs, inp.config)
        theta = op("erroranalysis.theta", mg.compute_bwd_theta_exp, g, nterms=100, prec=1024)
        op.record("optimizer.iterations", rep.iterations)
        op.record("design_theta", float(theta.theta))
        return SimpleNamespace(graph=g, report=rep, theta=theta)

    @staticmethod
    def check(inp, out):
        fails = [] if out.report.converged else [
            f"gn-design: not converged after {out.report.iterations} iterations"]
        gv = mg.eval_graph(mg.convert_precision(out.graph, mg.CoeffType()), inp.val_z)
        err = checks.max_rel_error_vs_exp(gv, inp.val_z)
        if not err <= 1e-13:
            fails.append(f"gn-design: max relative error {err:.3e} against numpy exp above 1e-13")
        return fails

    @staticmethod
    def op_faults(inp, out):
        """The certificate: |log(e^{-z} g(z))| <= u |z| for |z| <= theta.

        Computed from the graph's scalar evaluation at 1024 bits.  A miss
        marks the certification call as failed.  It misses on every pass:
        the designed g has g(0) - 1 of about 2.6e-18, which
        compute_bwd_theta_exp drops (it zeroes a constant term below
        u * nterms), so for |z| below about 0.06 theta the relative
        backward error exceeds u.
        """
        worst, at = 0, None
        with mp.workprec(1024):
            for r, a in zip(inp.theta_r, inp.theta_a):
                z = out.theta.theta * mp.mpf(r) * mp.expjpi(mp.mpf(a) / mp.pi)
                ratio = abs(mp.log(mp.exp(-z) * mg.eval_graph(out.graph, z, prec=1024))) / abs(z)
                if ratio > U and ratio > worst:
                    worst, at = ratio, abs(z)
        if at is None:
            return []
        return [f"gn-design: certified theta {float(out.theta.theta):.6f} but backward error "
                f"{float(worst / U):.3g} u at |z| = {float(at):.3e}"]

    @staticmethod
    def c_peak_buffers(inp, out):
        return emitted_c_buffers([out.graph], "gn-design")


# -- theta-table: backward-error radii of the Pade scaling-and-squaring exp ----

class ThetaTable(Workload):
    """compute_bwd_theta_exp at 1024 bits, nterms 100, on 256-bit Pade graphs."""

    name = "theta-table"
    ROWS = [(5, 0), (7, 0), (9, 0), (13, 0), (13, 1)]
    OPS = len(ROWS)

    @staticmethod
    def setup(seed):
        return SimpleNamespace(graphs=[mg.graph_exp_pade_ss(m, s, mg.bigfloat(256))[0]
                                       for m, s in ThetaTable.ROWS])

    @staticmethod
    def run_pass(inp, op):
        return [op("erroranalysis.theta", mg.compute_bwd_theta_exp, g, nterms=100, prec=1024)
                for g in inp.graphs]

    @staticmethod
    def check(inp, out):
        theta = {row: r.theta for row, r in zip(ThetaTable.ROWS, out)}
        fails = []
        for m, want in checks.HIGHAM_THETA.items():
            fails += checks.rel_close(f"theta({m},0) vs Higham", float(theta[(m, 0)]), want, 1e-12)
        with mp.workprec(1024):
            fails += checks.rel_close("theta(13,1) vs 2 theta(13,0)", theta[(13, 1)],
                                      2 * theta[(13, 0)], mp.mpf("1e-25"))
        return fails

    @staticmethod
    def c_peak_buffers(inp, out):
        return emitted_c_buffers(inp.graphs, "theta-table")


# -- mp-eval: dense 256-bit matrices through the evaluator ---------------------

class MpEval(Workload):
    """Denman-Beavers (4 iterations) and Pade-13 exp with 3 squarings at 256
    bits on seeded 16 x 16 mpmath matrices."""

    name = "mp-eval"
    OPS = 2
    N = 16
    DB_ITERS = 4

    @staticmethod
    def setup(seed):
        rng = np.random.default_rng(seed)
        n = MpEval.N
        with mp.workprec(256):
            # A = Q diag(lam) Q, Q the Householder reflector of a seeded v
            v = mp.matrix(rng.standard_normal(n).tolist())
            Q = mp.eye(n) - v * v.T * (2 / (v.T * v)[0])
            lam = [mp.mpf(x) for x in rng.uniform(0.25, 4.0, n)]
            A = Q * mp.diag(lam) * Q
            # B: seeded Gaussian entries scaled to unit 1-norm
            B = mp.matrix(rng.standard_normal((n, n)).tolist())
            B = B / mp.mnorm(B, 1)
        return SimpleNamespace(
            Q=Q, lam=lam, A=A, B=B,
            db=mg.graph_denman_beavers(MpEval.DB_ITERS, mg.bigfloat(256))[0],
            exp=mg.graph_exp_pade_ss(13, 3, mg.bigfloat(256))[0],
        )

    @staticmethod
    def run_pass(inp, op):
        X = op("evaluation.mp_matrix_eval", mg.eval_graph, inp.db, inp.A)
        E = op("evaluation.mp_matrix_eval", mg.eval_graph, inp.exp, inp.B)
        return SimpleNamespace(X=X, E=E)

    @staticmethod
    def check(inp, out):
        fails = []
        with mp.workprec(256):
            x5 = [checks.denman_beavers_scalar(lam, MpEval.DB_ITERS + 1) for lam in inp.lam]
            ref = inp.Q * mp.diag(x5) * inp.Q
            err = mp.mnorm(out.X - ref, 1) / mp.mnorm(ref, 1)
            if not err <= mp.mpf(2) ** -200:
                fails.append(f"mp-eval: Denman-Beavers off Q diag(x5) Q by {float(err):.3e}")
            # r(B/8)^8 = exp(B + dB) with |dB| <= u |B| while |B/8| <= theta13, so
            # |r - exp(B)| <= u |B| exp(|B| + u |B|) in the 1-norm
            nB = mp.mnorm(inp.B, 1)
            if not nB / 8 <= checks.HIGHAM_THETA[13]:
                fails.append("mp-eval: exp input outside the Pade-13 radius with 3 squarings")
            bound = U * nB * mp.exp(nB * (1 + U))
            err = mp.mnorm(out.E - mp.expm(inp.B), 1)
            if not err <= bound:
                fails.append(f"mp-eval: exp off mp.expm by {float(err):.3e}, "
                             f"certified {float(bound):.3e}")
        return fails

    @staticmethod
    def c_peak_buffers(inp, out):
        return emitted_c_buffers([inp.db, inp.exp], "mp-eval")


# -- big-graph: graph writes and reads without extended arithmetic -------------

class BigGraph(Workload):
    """graph_denman_beavers(400): build, compress, schedule, emit, CGR round trip."""

    name = "big-graph"
    OPS = 10
    ITERS = 400

    @staticmethod
    def setup(seed):
        return SimpleNamespace(x=float(np.random.default_rng(seed).uniform(0.25, 4.0)))

    @staticmethod
    def run_pass(inp, op):
        g, _ = op("graph.build", mg.graph_denman_beavers, BigGraph.ITERS)
        gc = g.copy()
        op("graph.compress", mg.compress_graph, gc)
        sched = op("codegen.plan_schedule", mg.plan_schedule, gc)
        c_src = op("codegen.gen_c", mg.gen_code, gc, mg.EmitTarget("c", "sqrtm_db"))
        m_src = op("codegen.gen_matlab", mg.gen_code, gc, mg.EmitTarget("matlab", "sqrtm_db"))
        g64 = op("cgr.parse_f64", mg.parse_cgr, op("cgr.render", mg.render_cgr, g))
        gb = op("graph.convert_precision", mg.convert_precision, g, mg.bigfloat(256))
        g256 = op("cgr.parse_bf256", mg.parse_cgr, op("cgr.render", mg.render_cgr, gb))
        op.record("graph.nodes", len(g.operations))
        return SimpleNamespace(g=g, gc=gc, sched=sched, c_src=c_src, m_src=m_src,
                               g64=g64, gb=gb, g256=g256)

    @staticmethod
    def check(inp, out):
        fails = checks.same_graph("big-graph binary64 CGR round trip", out.g64, out.g)
        fails += checks.same_graph("big-graph 256-bit CGR round trip", out.g256, out.gb)
        fails += checks.sqrt_ulps("big-graph", mg.eval_graph(out.g, inp.x), inp.x, 4)
        fails += checks.sqrt_ulps("big-graph compressed", mg.eval_graph(out.gc, inp.x), inp.x, 4)
        fails += checks.plan_schedule_replay(out.gc, out.sched, "big-graph plan_schedule")
        if "function" not in out.m_src:
            fails.append("big-graph: MATLAB emission holds no function")
        return fails

    @staticmethod
    def c_peak_buffers(inp, out):
        return checks.c_schedule(out.c_src, "big-graph")


WORKLOADS = {w.name: w for w in (GnDesign, ThetaTable, MpEval, BigGraph)}
