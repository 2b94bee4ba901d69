"""Acceptance criteria, one test per numbered criterion.

Each test prints a `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them all) and asserts the criterion at its stated tolerance.

Criterion 5 checks the published radius table for the Pade
scaling-and-squaring exponential.  Its squared entry (10.8) is the
doubling of the already-rounded 5.4, so that row is asserted in the form
the table derives it: theta(13, 1) = 2 theta(13, 0), and 2 x 5.4 within
twice the table's rounding.
"""

import math
import time

import numpy as np
import pytest
from mpmath import mp

import matgraph as mg

from support import compile_and_run_c, finite_diff_jac, random_graph, taylor_exp_mp


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    return ok


def timed(budget):
    class _Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget, f"runtime {self.elapsed:.1f}s over budget {budget}s"

    return _Timer()


def test_01_monomial_fixtures():
    with timed(1.0):
        g, _ = mg.graph_monomial([1.0, 0.0, 3.0])
        scalar = mg.eval_graph(g, 0.1)
        A = np.array([[3.0, 4.0], [5.0, 6.0]])
        matrix = mg.eval_graph(g, A)
    ok_scalar = scalar == 1.03
    ok_matrix = np.array_equal(matrix, np.array([[88.0, 108.0], [135.0, 169.0]]))
    assert report(1, ok_scalar and ok_matrix,
                  f"monomial eval: scalar {scalar!r}, matrix exact {ok_matrix}")
    assert ok_scalar and ok_matrix


def test_02_denman_beavers_fixture():
    with timed(1.0):
        g, _ = mg.graph_denman_beavers(4)
        X = mg.eval_graph(g, np.array([[0.5, 0.2], [0.3, 0.5]]))
        order = mg.get_topo_order(g)
    expected = np.array([[0.684065, 0.146185], [0.219277, 0.684065]])
    ok_vals = bool(np.max(np.abs(X - expected)) <= 5e-7)  # printed to 6 digits
    ok_topo = len(order) == 17
    assert report(2, ok_vals and ok_topo,
                  f"square-root iterate matches to 6 digits ({ok_vals}), "
                  f"topological order has {len(order)} nodes")
    assert ok_vals and ok_topo


def test_03_degopt_ps_taylor11_fixture():
    with timed(5.0):
        c = [1.0 / math.factorial(j) for j in range(12)]
        HA = [[0, 1, 0, 0, 0, 0],
              [0, 0, 1, 0, 0, 0],
              [0, 0, 0, 1, 0, 0],
              [0, 0, 0, 0, 1, 0],
              [0, 0, 0, 0, 1, 0]]
        HB = [[0, 1, 0, 0, 0, 0],
              [0, 1, 0, 0, 0, 0],
              [0, 1, 0, 0, 0, 0],
              [c[8], c[9], c[10], c[11], 0, 0],
              [c[4], c[5], c[6], c[7], 1, 0]]
        y = c[0:4] + [0, 0, 1]
        g, _ = mg.graph_degopt(mg.Degopt(HA, HB, y))
        A = np.array([[1.0, 2.0], [3.0, 4.0]]) / 100
        diff = mg.eval_graph(g, A) - taylor_exp_mp(A, 512)
        err = float(np.linalg.norm(diff, 2))
    ok = 5e-11 <= err <= 9e-11
    assert report(3, ok, f"||g(A) - exp(A)||_2 = {err:.4e}, expected in [5e-11, 9e-11]")
    assert ok


def test_04_jacobian_fixtures():
    with timed(10.0):
        c = [1.0 / math.factorial(j) for j in range(6)]
        discr = 0.45 * np.exp(1j * 2 * np.pi * np.arange(200) / 199)
        g, cref = mg.graph_monomial(c)
        J = mg.eval_jac(g, discr, cref)
        sv = np.linalg.svd(J.entries, compute_uv=False)
        gd, crefd = mg.graph_monomial_degopt(c)
        Jd = mg.eval_jac(gd, discr, crefd)
        svd_ = np.linalg.svd(Jd.entries, compute_uv=False)
    expected = [14.142189931772608, 6.363885389264312, 2.863711391309838,
                1.2886540714299903, 0.579886987450398, 0.2609452239018225]
    ok_shape = J.shape == (200, 6) and Jd.shape == (200, 34)
    ok_sv = bool(np.allclose(sv, expected, rtol=1e-6))
    rank = int(np.sum(svd_ > 1e-12 * svd_[0]))
    ok_rank = rank == 9
    assert report(4, ok_shape and ok_sv and ok_rank,
                  f"200x6 singular values to 6 digits ({ok_sv}); "
                  f"200x34 has {rank} values above 1e-12*s1 (want 9)")
    assert ok_shape and ok_sv and ok_rank


def test_05_theta_table_row():
    table = [0.25, 0.95, 2.10, 5.4]
    # Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, to 16 digits
    higham = [2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068,
              5.371920351148152]
    configs = [(5, 0), (7, 0), (9, 0), (13, 0), (13, 1)]
    with timed(60.0):
        thetas = []
        for deg, s in configs:
            g, _ = mg.graph_exp_pade_ss(deg, s, coeff_type=mg.bigfloat(256))
            res = mg.compute_bwd_theta_exp(g, u=2.0 ** -53, nterms=100, prec=1024)
            thetas.append(res.theta)
    *unsquared, theta13_sq = thetas
    devs = [abs(float(t) / h - 1) for t, h in zip(unsquared, higham)]
    oks = [abs(float(t) - ref) <= 0.05 and d <= 1e-12
           for t, ref, d in zip(unsquared, table, devs)]
    # s squarings give phi_s(z) = 2^s phi(z / 2^s), hence F_s(t) = F(t / 2^s) and
    # theta(m, s) = 2^s theta(m, 0); the table's 10.8 is 2 x 5.4, so its
    # rounding error doubles to 2 x 0.05.  Compare at full precision: the
    # bisection stops at 1e-30 relative.
    with mp.workprec(1024):
        twice = 2 * thetas[3]
        rel = abs(theta13_sq - twice) / twice
    ok_sq = rel <= mp.mpf("1e-25") and abs(float(theta13_sq) - 2 * 5.4) <= 2 * 0.05
    detail = ", ".join(
        f"deg{deg}+{s}sq: {float(t):.6f} vs {ref} "
        f"(rel diff {d:.1e} to 16 digits, {'ok' if ok else 'off'})"
        for (deg, s), t, ref, d, ok in zip(configs, unsquared, table, devs, oks)
    ) + (f", deg13+1sq: {float(theta13_sq):.6f} vs 2*theta13 = {float(twice):.6f} "
         f"(rel diff {float(rel):.1e}, {'ok' if ok_sq else 'off'})")
    report(5, all(oks) and ok_sq, detail)
    assert all(oks) and ok_sq, detail


def test_06_goldberg_running_error():
    with timed(5.0):
        g = mg.ComputationGraph(input_id="x")
        g.add_lincomb("y", 1, "I", 1, "x")
        g.add_lincomb("z", 1, "I", 0.5, "x")
        g.add_mult("y2", "y", "y")
        g.add_mult("z2", "z", "z")
        g.add_lincomb("out", 1, "y2", -1, "z2")
        g.add_output("out")
        x = 2.0 ** -27
        value = mg.eval_graph(g, x)
        bound = mg.eval_runerr(g, x, mode=mg.RunErrMode.BOUND)
        rands = sorted(mg.eval_runerr(g, x, mode=mg.RunErrMode.RAND, seed=s)
                       for s in range(100))
        med = rands[50]
    ok_val = value == 7.450580596923828e-9
    ok_bound = 2.9e-7 <= bound <= 3.1e-7
    ok_rand = 1e-9 <= med <= 5e-8
    assert report(6, ok_val and ok_bound and ok_rand,
                  f"value {value!r} bit-exact ({ok_val}); bound {bound:.6e} "
                  f"in [2.9e-7, 3.1e-7] ({ok_bound}); rand median {med:.3e} ({ok_rand})")
    assert ok_val and ok_bound and ok_rand


def test_07_gauss_newton_design():
    with timed(600.0):
        c = [1.0 / math.factorial(j) for j in range(6)]
        g, cref = mg.graph_monomial_degopt(c)
        gb = mg.convert_precision(g, mg.bigfloat(256))
        discr = mg.Discretization.disk(0.0, 0.45, 200, prec=256)
        config = mg.GNConfig(errtype=mg.ErrType.REL, stoptol=4e-15, droptol=1e-15,
                             linlsqr=mg.LinLsqr.REAL_SVD, maxiter=100)
        rep = mg.opt_gauss_newton(gb, mg.exp_target, discr, cref, config)
        g64 = mg.convert_precision(gb, mg.CoeffType())
        val = 0.45 * np.exp(1j * 2 * np.pi * np.arange(1000) / 999)
        gv = mg.eval_graph(g64, val)
        err = float(np.max(np.abs((gv - np.exp(val)) / np.exp(val))))
    ok = rep.converged and err <= 1e-13
    assert report(7, ok, f"converged in {rep.iterations} iterations; "
                         f"validation max relative error {err:.3e} (budget 1e-13)")
    assert ok


def test_08a_jacobian_vs_finite_differences():
    with timed(120.0):
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(50):
            g = random_graph(rng, n_nodes=10)
            refs = g.all_coeff_refs()
            if not refs:
                continue
            pts = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
            pts /= np.maximum(1.0, np.abs(pts))
            J1 = mg.eval_jac(g, pts, refs).entries
            gb = mg.convert_precision(g, mg.bigfloat(256))
            with mp.workprec(256):
                J2 = finite_diff_jac(
                    gb, np.array([mp.mpc(z) for z in pts], dtype=object),
                    refs, h=mp.mpf(2) ** -40).entries
            J2 = np.array([[complex(v) for v in row] for row in J2])
            mask = np.abs(J1) > 1e-10
            if mask.any():
                worst = max(worst, float(np.max(np.abs((J1 - J2)[mask] / J1[mask]))))
    ok = worst <= 1e-6
    assert report("8a", ok, f"max relative Jacobian deviation {worst:.3e} over 50 graphs")
    assert ok


def test_08b_compress_preserves_semantics():
    with timed(60.0):
        rng = np.random.default_rng(1002)
        u = 2.0 ** -53
        worst = 0.0
        for _ in range(50):
            g = random_graph(rng, n_nodes=9)
            gc = g.copy()
            mg.compress_graph(gc)
            zs = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
            zs /= np.maximum(1.0, np.abs(zs))
            v1, v2 = mg.eval_graph(g, zs), mg.eval_graph(gc, zs)
            worst = max(worst, float(np.max(np.abs(v1 - v2) / (1 + np.abs(v1)))))
    ok = worst <= 10 * u
    assert report("8b", ok, f"max compression deviation {worst:.3e} (budget {10*u:.3e})")
    assert ok


def test_08c_cgr_round_trip_all_generators():
    with timed(60.0):
        builders = {
            "monomial": lambda: mg.graph_monomial([1.0 / math.factorial(j) for j in range(6)])[0],
            "horner": lambda: mg.graph_horner([0.5, -1.0, 2.0, 0.25])[0],
            "ps": lambda: mg.graph_ps([1.0 / math.factorial(j) for j in range(12)])[0],
            "monomial_degopt": lambda: mg.graph_monomial_degopt([1.0, 1.0, 0.5, 1 / 6])[0],
            "ps_degopt": lambda: mg.graph_degopt(mg.degopt_from_graph(
                mg.graph_ps([1.0 / math.factorial(j) for j in range(10)])[0]))[0],
            "denman_beavers": lambda: mg.graph_denman_beavers(4)[0],
            "newton_schulz": lambda: mg.graph_newton_schulz(3)[0],
            "newton_schulz_degopt": lambda: mg.graph_degopt(
                mg.degopt_from_graph(mg.graph_newton_schulz(2)[0]))[0],
            "exp_pade": lambda: mg.graph_exp_pade_ss(13, 2)[0],
            "exp_pade_degopt": lambda: mg.graph_degopt(
                mg.degopt_from_graph(mg.graph_exp_pade_ss(9, 1)[0]))[0],
            "rational": lambda: mg.graph_rational(mg.graph_ps([1.0, 0.5, 1 / 12])[0],
                                                  mg.graph_ps([1.0, -0.5, 1 / 12])[0]),
            "bigfloat_monomial": lambda: mg.convert_precision(
                mg.graph_monomial([1 / 3, 1 / 7, 1 / 11])[0], mg.bigfloat(256)),
        }
        failures = []
        for name, build in builders.items():
            g = build()
            text = mg.render_cgr(g)
            if mg.parse_cgr(text) != g:
                failures.append(name)
    ok = not failures
    assert report("8c", ok, f"round-tripped {len(builders)} generator graphs"
                            + (f"; failed: {failures}" if failures else ""))
    assert ok


def test_08d_emitted_c_matches_evaluator():
    import shutil

    if shutil.which("cc") is None:
        pytest.skip("no C compiler available")
    with timed(120.0):
        rng = np.random.default_rng(1003)

        def cosine():
            c = [(-1.0) ** k / math.factorial(2 * k) for k in range(10)]
            g, _ = mg.graph_ps(c)
            g.rename_node("A", "A2tmp")
            g.add_mult("A2tmp", "A", "A")
            return g

        builders = [
            ("cosine_ps", cosine, 0.05),
            ("exp_pade13", lambda: mg.graph_exp_pade_ss(13, 1)[0], 0.02),
            ("monomial", lambda: mg.graph_monomial([1.0 / math.factorial(j) for j in range(8)])[0], 0.05),
            ("denman_beavers", lambda: mg.graph_denman_beavers(3)[0], None),
            ("newton_schulz", lambda: mg.graph_newton_schulz(4)[0], None),
        ]
        from matgraph.codegen import _gen_c

        worst = 0.0
        for i, (name, build, scale) in enumerate(builders):
            g = build()
            src, header = _gen_c(g, mg.EmitTarget("c", f"fn{i}"))
            n = 50
            if scale is None:
                A = np.eye(n) + 0.25 * rng.standard_normal((n, n)) / math.sqrt(n)
            else:
                A = rng.standard_normal((n, n)) * scale
            got = compile_and_run_c(src, header, f"fn{i}", A)
            want = mg.eval_graph(g, A)
            rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            worst = max(worst, rel)
    ok = worst <= 1e-12
    assert report("8d", ok, f"max emitted-C deviation {worst:.3e} over 5 graphs at n=50")
    assert ok


def test_08e_scalar_matrix_diagonalization_consistency():
    with timed(60.0):
        rng = np.random.default_rng(1004)
        u = 2.0 ** -53
        failures = 0
        for _ in range(20):
            g = random_graph(rng, n_nodes=7)
            n = 5
            V = np.eye(n) + 0.25 * rng.standard_normal((n, n))
            lam = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.5, 0.5, n)
            A = V @ np.diag(lam) @ np.linalg.inv(V)
            left = mg.eval_graph(g, A)
            diag = np.array([mg.eval_graph(g, complex(z)) for z in lam])
            right = V @ np.diag(diag) @ np.linalg.inv(V)
            bound = 1e3 * u * np.linalg.cond(V) * max(1.0, float(np.max(np.abs(diag))))
            if np.linalg.norm(left - right, 2) > bound:
                failures += 1
    ok = failures == 0
    assert report("8e", ok, f"{20 - failures}/20 diagonalizable instances within the bound")
    assert ok


def test_08f_running_error_bound_covers_true_error():
    with timed(120.0):
        rng = np.random.default_rng(1005)
        covered = 0
        total = 0
        for _ in range(100):
            g = random_graph(rng, n_nodes=9, allow_ldiv=False)
            x = float(rng.uniform(-1, 1))
            v64 = mg.eval_graph(g, x)
            gb = mg.convert_precision(g, mg.bigfloat(256))
            with mp.workprec(256):
                vhp = mg.eval_graph(gb, mp.mpf(x))
                if vhp == 0:
                    continue
                true_rel = float(abs(v64 - vhp) / abs(vhp))
            total += 1
            bnd = mg.eval_runerr(g, x)
            if math.isinf(bnd) or true_rel <= bnd:
                covered += 1
    ok = covered >= 0.95 * total
    assert report("8f", ok, f"bound covered the true error in {covered}/{total} trials")
    assert ok
