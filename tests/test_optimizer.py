import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffType,
    Discretization,
    ErrType,
    GNConfig,
    GraphError,
    LinLsqr,
    OptimizeError,
    bigfloat,
    compute_bwd_theta_exp,
    convert_precision,
    eval_jac,
    gn_step,
    graph_monomial,
    graph_monomial_degopt,
    opt_gauss_newton,
    parse_cgr,
    residual,
)
from matgraph import optimizer
from matgraph.autodiff import JacobianMatrix
from matgraph.numerics import FixedVector, truncated_lstsq
from matgraph.targets import exp_target, get_target, sqrt1p_target

from support import gram_eig_lstsq

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestDiscretization:
    def test_closed_circle_sampling(self):
        d = Discretization.disk(0.0, 0.45, 200)
        assert len(d) == 200
        assert d.points[0] == pytest.approx(0.45)
        assert d.points[-1] == pytest.approx(d.points[0])  # closed: endpoints coincide
        k = 7
        assert d.points[k] == pytest.approx(0.45 * np.exp(2j * np.pi * k / 199))

    def test_high_precision_points(self):
        d = Discretization.disk(0.0, 0.45, 16, prec=256)
        assert d.points.dtype == object
        with mp.workprec(256):
            assert abs(d.points[0] - mp.mpf(0.45)) < mp.mpf(2) ** -250
            assert abs(d.points[4] - mp.mpf(0.45) * mp.exp(mp.mpc(0, 8) * mp.pi / 15)) < mp.mpf(2) ** -250

    def test_count_validation(self):
        with pytest.raises(ValueError):
            Discretization.disk(0, 1, 1)

    @pytest.mark.parametrize("count", [10.5, 10.0, "10"])
    def test_count_is_an_integer(self, count):
        # 10.5 would give 11 points whose last is not the first
        with pytest.raises(ValueError, match=f"^the number of points must be an integer, got {count!r}$"):
            Discretization.disk(0, 0.5, count)
        d = Discretization.disk(0, 0.5, np.int64(10))
        assert len(d) == 10 and d.points[-1] == pytest.approx(d.points[0])

    @pytest.mark.parametrize("center, radius", [(0, math.nan), (0, math.inf), (math.nan, 1),
                                                (complex(0, math.inf), 1)])
    def test_non_finite_center_or_radius_refused(self, center, radius):
        with pytest.raises(ValueError):
            Discretization.disk(center, radius, 8)


class TestResidual:
    def test_zero_when_representable(self):
        g, _ = graph_monomial([1.0, 2.0])
        d = Discretization.disk(0, 0.5, 32)
        r = residual(g, lambda z: 1 + 2 * z, d)
        assert np.max(np.abs(r)) < 1e-15

    def test_taylor5_rel_residual_level(self):
        # max_i |p5(z_i) - e^{z_i}| / |e^{z_i}| on the 0.45-circle: the tail
        # is dominated by |z|^6/720 (~1.15e-5), maximized near z = -0.45
        # where |e^z| is smallest, giving ~1.7e-5
        c = [1.0 / math.factorial(j) for j in range(6)]
        g, _ = graph_monomial(c)
        d = Discretization.disk(0, 0.45, 200)
        r = residual(g, lambda z: np.exp(z), d, errtype=ErrType.REL)
        m = np.max(np.abs(r))
        assert 1e-5 <= m <= 3e-5

    def test_abs_vs_rel_scaling_identity(self):
        c = [1.0 / math.factorial(j) for j in range(4)]
        g, _ = graph_monomial(c)
        d = Discretization.disk(0, 0.3, 50)
        ra = residual(g, lambda z: np.exp(z), d, errtype=ErrType.ABS)
        rr = residual(g, lambda z: np.exp(z), d, errtype=ErrType.REL)
        assert np.allclose(rr, ra / np.exp(d.points))

    def test_constant_zero_graph(self):
        g, _ = graph_monomial([0.0])
        d = Discretization.disk(0, 0.5, 16)
        r = residual(g, lambda z: np.exp(z), d)
        assert np.allclose(r, -np.exp(d.points))

    def test_rel_with_vanishing_target(self):
        g, _ = graph_monomial([1.0])
        d = Discretization([0.0, 1.0, -1.0])
        with pytest.raises(OptimizeError):
            residual(g, lambda z: z, d, errtype=ErrType.REL)

    def test_target_at_graph_precision(self):
        # 1/3 is not a binary64 number: a target evaluated at 53 bits leaves ~1e-17
        with mp.workprec(256):
            g, _ = graph_monomial([mp.mpf(1), mp.mpf(1) / 3], bigfloat(256))
        d = Discretization.disk(0, 0.5, 16, prec=256)
        r = residual(g, lambda z: 1 + z / 3, d)
        assert max(abs(x) for x in r) < mp.mpf("1e-70")


    @pytest.mark.parametrize("prec", [None, 256])
    def test_nan_target_is_nan_at_its_points_only(self, prec):
        # the 256-bit residual was NaN at every point; it is NaN where f is, as at binary64
        g, _ = graph_monomial([1.0, 1.0, 0.5])
        if prec:
            g = convert_precision(g, bigfloat(prec))
        d = Discretization.disk(0, 0.5, 12, prec=prec)
        r = residual(g, lambda z: math.nan if z.imag > 0 else exp_target(z), d)
        upper = [z.imag > 0 for z in d.points]
        assert [not mp.isfinite(x) for x in r] == upper and 0 < sum(upper) < len(r)
        if prec:
            assert r.dtype == object and all(type(x) is mp.mpc for x in r)


class TestGnStep:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(41)
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        r = rng.standard_normal(12)
        delta = gn_step(q, r, GNConfig(droptol=0.0))
        assert np.allclose(delta, q.conj().T @ r, rtol=1e-12)

    def test_duplicate_columns_minimum_norm(self):
        # normal-equations oracle on the 3x2 instance with equal columns:
        # the minimum-norm solution splits the coefficient evenly
        col = np.array([1.0, 2.0, 2.0])
        J = np.stack([col, col], axis=1)
        r = np.array([3.0, 1.0, 1.0])
        delta = gn_step(J, r, GNConfig(droptol=1e-12))
        single = col @ r / (col @ col)
        assert np.allclose(delta, [single / 2, single / 2], rtol=1e-12)

    def test_droptol_infinite_zero_step(self):
        # GNConfig refuses droptol >= 1; a zero J keeps no singular value at any droptol
        J = np.zeros((3, 3))
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            delta = gn_step(J, np.ones(3), GNConfig(droptol=0.0))
            assert np.all(delta == 0)
            assert any("drop tolerance" in str(x.message) for x in w)

    @pytest.mark.parametrize("linlsqr", list(LinLsqr))
    def test_narrow_operands_give_the_float64_step(self, linlsqr):
        rng = np.random.default_rng(43)
        J = (rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))).astype(np.complex64)
        r = (rng.standard_normal(12) + 1j * rng.standard_normal(12)).astype(np.complex64)
        config = GNConfig(droptol=1e-12, linlsqr=linlsqr)
        for Jn, rn in ((J, r), (J.real, r.real)):
            got = gn_step(Jn, rn, config)
            want = gn_step(Jn.astype(np.result_type(Jn.dtype, np.float64)),
                           rn.astype(np.result_type(rn.dtype, np.float64)), config)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_real_stacking_returns_real(self):
        rng = np.random.default_rng(42)
        J = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        r = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        delta = gn_step(J, r, GNConfig(linlsqr=LinLsqr.REAL_SVD))
        assert np.isrealobj(delta)
        # oracle: stacked real least squares
        A = np.vstack([J.real, J.imag])
        b = np.concatenate([r.real, r.imag])
        want, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.allclose(delta, want, rtol=1e-10)

    def test_mp_real_path_matches_numpy(self):
        rng = np.random.default_rng(43)
        A = rng.standard_normal((9, 4))
        b = rng.standard_normal(9)
        want, *_ = np.linalg.lstsq(A, b, rcond=None)
        Aob = np.array([[mp.mpf(v) for v in row] for row in A], dtype=object)
        bob = np.array([mp.mpf(v) + 0 * mp.mpc(1j) for v in b], dtype=object)
        with mp.workprec(128):
            # complex entries with zero imaginary part exercise the stacking
            delta = gn_step(Aob, bob, GNConfig(linlsqr=LinLsqr.REAL_SVD, droptol=1e-20))
        got = np.array([float(x) for x in delta])
        assert np.allclose(got, want, rtol=1e-10)

    def test_mp_complex_path_matches_numpy(self):
        rng = np.random.default_rng(44)
        A = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        want, *_ = np.linalg.lstsq(A, b, rcond=None)
        Aob = np.array([[mp.mpc(v) for v in row] for row in A], dtype=object)
        bob = np.array([mp.mpc(v) for v in b], dtype=object)
        with mp.workprec(128):
            delta = gn_step(Aob, bob, GNConfig(droptol=1e-20))
        got = np.array([complex(x) for x in delta])
        assert np.allclose(got, want, rtol=1e-9)

    @pytest.mark.parametrize("prec", [None, 256])
    def test_residual_of_another_length_refused(self, prec):
        # both precisions raise; at 256 bits a 1-entry r would otherwise meet
        # the first two stacked rows of J and give the step 0.2
        J, r = np.array([[1.0], [2.0], [3.0]]), np.array([1.0])
        if prec:
            J = np.array([[mp.mpf(v) for v in row] for row in J], dtype=object)
        with mp.workprec(prec or 53), pytest.raises(ValueError):
            gn_step(J, r, GNConfig(droptol=0.0, linlsqr=LinLsqr.REAL_SVD))

    @pytest.mark.parametrize("linlsqr", list(LinLsqr))
    def test_non_finite_object_jacobian_refused(self, linlsqr):
        J = np.array([[mp.mpf(1), mp.mpf(2)], [mp.nan, mp.mpf(1)], [mp.mpf(0), mp.mpf(3)]],
                     dtype=object)
        with pytest.raises(ArithmeticError, match="^least-squares data is not finite$"):
            gn_step(J, np.array([mp.mpf(1)] * 3, dtype=object), GNConfig(linlsqr=linlsqr))

    def test_complex_step_is_the_real_step_on_the_embedding(self):
        # a complex step solves [[Re J, -Im J], [Im J, Re J]] [Re d; Im d] =
        # [Re r; Im r]: bit for bit the real step on those columns as mpf lists
        rng = np.random.default_rng(33)
        K, N = 3, 7
        with mp.workprec(256):
            def vec():
                return [mp.mpc(mp.mpf(a) / 3, mp.mpf(b) / 5)
                        for a, b in rng.standard_normal((N, 2))]

            cs, rs = [vec() for _ in range(K)], vec()
            got = gn_step([FixedVector.read(c) for c in cs], FixedVector.read(rs),
                          GNConfig(droptol=1e-30, linlsqr=LinLsqr.COMPLEX_SVD))
            cols = ([[z.real for z in c] + [z.imag for z in c] for c in cs]
                    + [[-z.imag for z in c] + [z.real for z in c] for c in cs])
            x, kept = truncated_lstsq(cols, [z.real for z in rs] + [z.imag for z in rs], 1e-30)
            assert kept == 2 * K
            assert [v._mpc_ for v in got] == [mp.mpc(a, b)._mpc_ for a, b in zip(x[:K], x[K:])]

    @pytest.mark.parametrize("ct", [None, bigfloat(256)])
    def test_jacobian_matrix_gives_the_step_of_its_entries(self, ct):
        coeffs = [1.0 / math.factorial(j) for j in range(6)]
        g, cref = graph_monomial(coeffs, ct) if ct else graph_monomial(coeffs)
        z = 0.45 * np.exp(2j * np.pi * np.arange(12) / 12)
        J, r, config = eval_jac(g, z, cref), np.exp(z), GNConfig(droptol=1e-20)
        with mp.workprec(256):
            if J.columns is not None:  # kept as FixedVector columns, read as they are
                assert list(gn_step(J, r, config)) == list(gn_step(J.columns, r, config))
                J = JacobianMatrix(J.entries, J.points, J.refs)
            assert list(gn_step(J, r, config)) == list(gn_step(J.entries, r, config))


class TestGnStepAgainstEigsy:
    """gn_step at 256 bits against the projection through mp.eigsy / mp.eighe."""

    @staticmethod
    def problem(rng, complex_):
        # column scales spread over 12 decades, and two duplicated columns
        A = rng.standard_normal((40, 8)) * np.logspace(0, -12, 8)
        b = rng.standard_normal(40)
        if complex_:
            A = A + 1j * rng.standard_normal((40, 8)) * np.logspace(0, -12, 8)
            b = b + 1j * rng.standard_normal(40)
        A = np.hstack([A, A[:, [0, 3]]])
        kind = mp.mpc if complex_ else mp.mpf
        return (np.array([[kind(v) for v in row] for row in A], dtype=object),
                np.array([kind(v) for v in b], dtype=object))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_rank_and_step_near_the_drop_threshold(self, monkeypatch, complex_):
        rng = np.random.default_rng(47 + complex_)
        J, r = self.problem(rng, complex_)
        linlsqr = LinLsqr.COMPLEX_SVD if complex_ else LinLsqr.REAL_SVD
        kept = []
        kernel = optimizer.truncated_lstsq

        def spy(cols, b, droptol):
            x, k = kernel(cols, b, droptol)
            kept.append(k)
            return x, k

        monkeypatch.setattr(optimizer, "truncated_lstsq", spy)
        with mp.workprec(256):
            if complex_:
                rows = [list(row) for row in J]
                rhs = list(r)
            else:
                rows = [[v.real for v in row] for row in J] + [[v.imag for v in row] for row in J]
                rhs = [v.real for v in r] + [v.imag for v in r]
            _, _, E = gram_eig_lstsq(rows, rhs, 0.0, hermitian=complex_)
            assert sum(abs(e) < 1e-60 * E[-1] for e in E) == 2  # the duplicates
            # put the threshold just above and just below the 4th-smallest
            # nonzero eigenvalue
            ratio = mp.sqrt(E[5] / E[-1])
            for droptol, want_rank in ((float(ratio * (1 - mp.mpf(1e-9))), 5),
                                       (float(ratio * (1 + mp.mpf(1e-9))), 4)):
                want, want_kept, _ = gram_eig_lstsq(rows, rhs, droptol, hermitian=complex_)
                assert want_kept == want_rank
                got = gn_step(J, r, GNConfig(droptol=droptol, linlsqr=linlsqr))
                assert kept.pop() == (2 if complex_ else 1) * want_kept
                scale = max(abs(x) for x in want)
                assert max(abs(x - y) for x, y in zip(got, want)) <= mp.mpf(10) ** -45 * scale


class TestOptGaussNewton:
    @pytest.mark.parametrize("prec", [None, 256])
    def test_non_finite_residual_restores_best(self, monkeypatch, prec):
        g, cref = graph_monomial([1.0, 0.9, 0.4])
        if prec:
            g = convert_precision(g, bigfloat(prec))
        start = g.get_coeffs(cref)
        d = Discretization.disk(0, 0.5, 12, prec=prec)
        monkeypatch.setattr(optimizer, "gn_step",
                            lambda J, r, config: np.array([math.nan] * len(cref)))
        report = opt_gauss_newton(g, exp_target, d, cref,
                                  GNConfig(maxiter=5, linlsqr=LinLsqr.REAL_SVD))
        assert not report.converged
        assert report.stop_reason == "non-finite"
        assert report.iterations == 1
        assert g.get_coeffs(cref) == start
        assert math.isfinite(report.best_residual)

    def test_stagnation_restores_best(self, monkeypatch):
        g, cref = graph_monomial([1.0, 0.9, 0.4])
        start = g.get_coeffs(cref)
        d = Discretization.disk(0, 0.5, 12)
        # every step moves away from the optimum
        monkeypatch.setattr(optimizer, "gn_step",
                            lambda J, r, config: np.array([-10.0] * len(cref)))
        monkeypatch.setattr(optimizer, "DIVERGENCE_PATIENCE", 2)
        report = opt_gauss_newton(g, exp_target, d, cref,
                                  GNConfig(maxiter=9, linlsqr=LinLsqr.REAL_SVD))
        assert not report.converged
        assert report.stop_reason == "stagnated"
        assert report.iterations == 2
        assert g.get_coeffs(cref) == start

    def test_failed_step_keeps_the_best_coefficients(self, monkeypatch):
        # the 4th step raises, as QL does when it does not converge: the run
        # ends with the best of the four points seen in the graph, exactly as
        # a maxiter=3 run leaves it (the 4th point's residual is about 1e6
        # times the best), and the error names the iteration
        def design(maxiter):
            g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
            g = convert_precision(g, bigfloat(256))
            config = GNConfig(errtype=ErrType.REL, stoptol=4e-15, droptol=1e-15,
                              linlsqr=LinLsqr.REAL_SVD, maxiter=maxiter)
            return g, cref, Discretization.disk(0.0, 0.45, 40, prec=256), config

        g, cref, d, config = design(3)
        opt_gauss_newton(g, exp_target, d, cref, config)
        g_failed, cref, d, config = design(100)
        step, calls = optimizer.gn_step, []

        def failing(J, r, config):
            calls.append(1)
            if len(calls) == 4:
                raise ArithmeticError("no convergence to an eigenvalue after 152 iterations")
            return step(J, r, config)

        monkeypatch.setattr(optimizer, "gn_step", failing)
        with pytest.raises(OptimizeError, match="failed at iteration 3: no convergence") as info:
            opt_gauss_newton(g_failed, exp_target, d, cref, config)
        assert type(info.value.__cause__) is ArithmeticError
        assert g_failed.coeffs == g.coeffs

    @pytest.mark.parametrize("stoptol, maxiter, steps, reason",
                             [(1e-13, 50, 4, "converged"), (0.0, 3, 3, "maxiter")])
    def test_one_forward_pass_per_point(self, monkeypatch, stoptol, maxiter, steps, reason):
        # k steps visit k + 1 points: each gets one forward pass, and only the
        # k points a step leaves from get an adjoint sweep
        calls = {"forward_pass": 0, "eval_jac": 0}

        def counted(name):
            inner = getattr(optimizer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(optimizer, name, counted(name))
        g, cref = graph_monomial_degopt([1.0, 0.9, 0.4, 0.2])
        d = Discretization.disk(0, 0.5, 16)
        report = opt_gauss_newton(g, lambda z: 1 + z + z ** 2 / 2 + z ** 3 / 6, d, cref,
                                  GNConfig(stoptol=stoptol, maxiter=maxiter, droptol=1e-12,
                                           linlsqr=LinLsqr.REAL_SVD))
        assert report.iterations == steps and report.stop_reason == reason
        assert calls == {"forward_pass": steps + 1, "eval_jac": steps}

    def test_config_refuses_negative_maxiter_and_nan_droptol(self):
        with pytest.raises(ValueError):
            GNConfig(maxiter=-1)
        with pytest.raises(ValueError):
            GNConfig(droptol=math.nan)

    @pytest.mark.parametrize("droptol", [1, 2.0, math.inf, mp.mpf(1)])
    def test_config_refuses_droptol_of_one_or_more(self, droptol):
        # no singular value survives, so every step would be zero until maxiter
        with pytest.raises(ValueError, match="drop tolerance"):
            GNConfig(droptol=droptol)

    @pytest.mark.parametrize("stoptol", [math.nan, -1e-12])
    def test_config_refuses_nan_or_negative_stoptol(self, stoptol):
        # no residual meets it, so every iteration would run before the run ends
        with pytest.raises(ValueError):
            GNConfig(stoptol=stoptol)

    @pytest.mark.parametrize("perturbation", [math.nan, math.inf])
    def test_config_refuses_non_finite_perturbation(self, perturbation):
        # it would make the starting residual non-finite
        with pytest.raises(ValueError):
            GNConfig(perturbation=perturbation)

    def test_repeated_ref_refused(self):
        # a repeated ref would split its update between the copies
        g, cref = graph_monomial([1.0, 0.9, 0.4])
        d = Discretization.disk(0, 0.5, 12)
        with pytest.raises(GraphError, match=rf"\('{cref[1].node}', {cref[1].slot}\)"):
            opt_gauss_newton(g, exp_target, d, cref + [cref[1]],
                             GNConfig(maxiter=1, linlsqr=LinLsqr.REAL_SVD))

    def test_non_finite_start_raises(self):
        g, cref = graph_monomial([1.0, 1.0, 0.5])
        d = Discretization.disk(0, 0.5, 12)
        # a NaN that is not the first residual entry
        for f in (lambda z: math.nan if z.imag > 0 else np.exp(z), lambda z: math.inf):
            with pytest.raises(OptimizeError):
                opt_gauss_newton(g, f, d, cref, GNConfig(maxiter=3, linlsqr=LinLsqr.REAL_SVD))

    def test_linear_problem_one_exact_step(self):
        # with a linear-in-coefficients graph a single full step reaches the
        # least-squares optimum; the next step is numerically zero
        rng = np.random.default_rng(45)
        g, cref = graph_monomial([0.5, -0.2, 0.1, 0.05])
        d = Discretization.disk(0, 0.8, 60)

        def f(z):
            return np.cos(z)

        config = GNConfig(stoptol=0.0, maxiter=2, droptol=0.0, linlsqr=LinLsqr.REAL_SVD)
        report = opt_gauss_newton(g, f, d, cref, config)
        assert report.iterations == 2
        u = 2.0 ** -53
        c = np.array(g.get_coeffs(cref))
        from matgraph import eval_jac

        J = eval_jac(g, d.points, cref).entries
        r = residual(g, f, d)
        delta = gn_step(J, r, config)
        assert np.linalg.norm(delta) <= 100 * u * max(np.linalg.norm(c), 1.0)

    def test_first_step_never_increases_linear_residual(self):
        rng = np.random.default_rng(46)
        for gamma in (0.25, 0.5, 1.0):
            g, cref = graph_monomial(list(rng.uniform(-1, 1, 5)))
            d = Discretization.disk(0, 0.7, 40)
            f = lambda z: np.exp(z)
            r0 = np.linalg.norm(residual(g, f, d))
            config = GNConfig(stoptol=0.0, maxiter=1, gamma=gamma, droptol=1e-14,
                              linlsqr=LinLsqr.REAL_SVD)
            opt_gauss_newton(g, f, d, cref, config)
            r1 = np.linalg.norm(residual(g, f, d))
            assert r1 <= r0 * (1 + 1e-12)

    def test_already_converged_zero_iterations(self):
        g, cref = graph_monomial([1.0, 1.0])
        d = Discretization.disk(0, 0.5, 16)
        report = opt_gauss_newton(g, lambda z: 1 + z, d, cref,
                                  GNConfig(stoptol=1e-12, linlsqr=LinLsqr.REAL_SVD))
        assert report.converged and report.iterations == 0
        assert report.stop_reason == "converged"
        assert report.residual_history == []

    def test_gamma_zero_runs_to_maxiter(self):
        g, cref = graph_monomial([1.0, 1.0])
        before = g.get_coeffs(cref)
        d = Discretization.disk(0, 0.5, 16)
        config = GNConfig(stoptol=1e-30, maxiter=5, gamma=0.0, linlsqr=LinLsqr.REAL_SVD)
        report = opt_gauss_newton(g, lambda z: np.exp(z), d, cref, config)
        assert not report.converged
        assert report.stop_reason == "maxiter"
        assert report.iterations == 5
        assert g.get_coeffs(cref) == before

    def test_real_svd_keeps_coefficients_real(self):
        g, cref = graph_monomial([1.0, 0.9, 0.4])
        d = Discretization.disk(0, 0.5, 40)
        config = GNConfig(linlsqr=LinLsqr.REAL_SVD, maxiter=4, stoptol=1e-14)
        opt_gauss_newton(g, lambda z: np.exp(z), d, cref, config)
        for c in g.get_coeffs(cref):
            assert isinstance(c, float)

    def test_perturbation_seeded_reproducible(self):
        # gamma = 0 keeps the coefficients at start + noise, isolating the
        # symmetry-breaking perturbation itself
        def run_once(amplitude):
            g, cref = graph_monomial([1.0, 1.0, 0.5])
            d = Discretization.disk(0, 0.4, 24)
            config = GNConfig(maxiter=1, stoptol=1e-30, gamma=0.0,
                              perturbation=amplitude, seed=9,
                              linlsqr=LinLsqr.REAL_SVD)
            opt_gauss_newton(g, lambda z: np.exp(z), d, cref, config)
            return g.get_coeffs(cref)

        a, b = run_once(1e-3), run_once(1e-3)
        assert a == b
        clean = run_once(None)
        assert clean == [1.0, 1.0, 0.5]
        assert a != clean
        assert max(abs(x - y) for x, y in zip(a, clean)) < 1e-2

    def test_complex_perturbation_draws_imaginary_parts(self):
        # a complex graph in complex least squares perturbs each coefficient
        # by the seed's first draw plus i times its second
        g, cref = graph_monomial([1.0, 1.0, 0.5])
        g = convert_precision(g, CoeffType(None, is_complex=True))
        start = g.get_coeffs(cref)
        opt_gauss_newton(g, lambda z: np.exp(z), Discretization.disk(0, 0.4, 24), cref,
                         GNConfig(perturbation=1e-3, maxiter=0))
        rng = np.random.default_rng(0)
        re, im = rng.standard_normal(len(cref)), rng.standard_normal(len(cref))
        assert g.get_coeffs(cref) == [c + 1e-3 * (a + 1j * b) for c, a, b in zip(start, re, im)]
        assert [c.imag for c in g.get_coeffs(cref)] == (1e-3 * im).tolist()

    def test_residual_history_matches_iterations(self):
        g, cref = graph_monomial([1.0, 1.0, 0.4])
        d = Discretization.disk(0, 0.5, 30)
        config = GNConfig(maxiter=3, stoptol=1e-30, linlsqr=LinLsqr.REAL_SVD)
        report = opt_gauss_newton(g, lambda z: np.exp(z), d, cref, config)
        assert len(report.residual_history) == report.iterations


def test_relative_design_iterates_pinned():
    # 256-bit relative-error design, degree-3 degree-optimal form.  The
    # history was recorded with an mpf-object eigen-solve and an explicit
    # division of the Jacobian by f(z_i); the tuple kernels and the 1/f(z_i)
    # adjoint seed must give the same iterates
    c = [1.0 / math.factorial(j) for j in range(4)]
    g, cref = graph_monomial_degopt(c)
    g = convert_precision(g, bigfloat(256))
    d = Discretization.disk(0, 0.45, 20, prec=256)
    config = GNConfig(errtype=ErrType.REL, stoptol=1e-40, maxiter=5, droptol=1e-15,
                      linlsqr=LinLsqr.REAL_SVD)
    report = opt_gauss_newton(g, exp_target, d, cref, config)
    assert report.iterations == 5 and report.stop_reason == "maxiter"
    assert report.residual_history == [0.002443066629881052, 0.0001663980953458161,
                                       0.00016605966382012138, 0.00016605967344946642,
                                       0.00016605967344946636]


def _points_per_pass(monkeypatch):
    """The point count of each forward pass the optimizer makes from now on."""
    seen, inner = [], optimizer.forward_pass

    def counted(g, points):
        seen.append(len(points))
        return inner(g, points)

    monkeypatch.setattr(optimizer, "forward_pass", counted)
    return seen


def _exp_design(prec, count, radius=0.45, ct=None):
    g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(4)])
    if ct or prec:
        g = convert_precision(g, ct or bigfloat(prec))
    return g, cref, Discretization.disk(0.0, radius, count, prec=prec)


class TestConjugateFold:
    # at extended precision a point's conjugate adds the same terms to the
    # real least-squares problem, so the loop evaluates one point of each
    # conjugate class; each fallback case breaks one condition of that
    def one_step(self, monkeypatch, g, cref, d, target=exp_target, **config):
        seen = _points_per_pass(monkeypatch)
        config = {"linlsqr": LinLsqr.REAL_SVD, "stoptol": 0.0, "maxiter": 1, **config}
        report = opt_gauss_newton(g, target, d, cref, GNConfig(**config))
        assert report.iterations == 1 and len(seen) == 2
        return set(seen)

    def test_even_disk_evaluates_half(self, monkeypatch, caplog):
        g, cref, d = _exp_design(256, 20)
        with caplog.at_level("INFO", logger="matgraph.optimizer"):
            assert self.one_step(monkeypatch, g, cref, d, errtype=ErrType.REL) == {10}
        assert "20 points fold into 10 conjugate classes, rows unweighted" in caplog.text

    def test_unselected_complex_coefficient(self, monkeypatch):
        g, cref, d = _exp_design(256, 20, ct=bigfloat(256, is_complex=True))
        g.set_coeffs(cref[-1:], [g.get_coeffs(cref[-1:])[0] + 1e-3j])
        assert self.one_step(monkeypatch, g, cref[:-1], d) == {20}

    def test_unpaired_point(self, monkeypatch):
        g, cref, d = _exp_design(256, 20)
        d = Discretization(np.delete(d.points, 3))
        assert self.one_step(monkeypatch, g, cref, d) == {19}

    def test_complex_least_squares(self, monkeypatch):
        g, cref, d = _exp_design(256, 20, ct=bigfloat(256, is_complex=True))
        assert self.one_step(monkeypatch, g, cref, d, linlsqr=LinLsqr.COMPLEX_SVD) == {20}

    def test_binary64_points(self, monkeypatch):
        g, cref, d = _exp_design(None, 20)
        assert self.one_step(monkeypatch, g, cref, d) == {20}

    def test_target_not_real_on_the_real_axis(self, monkeypatch):
        # sqrt(1 + z) at the self-conjugate point -1.5 lies on the branch cut
        g, cref, d = _exp_design(256, 21, radius=1.5)
        assert self.one_step(monkeypatch, g, cref, d, target=sqrt1p_target) == {21}

    def test_each_refusal_says_why(self):
        with mp.workprec(256):
            z = mp.mpc(0.3, 0.2)
            pts = np.array([z, mp.conj(z)], dtype=object)
            f = np.array([mp.exp(z), mp.exp(mp.conj(z))], dtype=object)
            assert optimizer._conjugate_classes(pts, f) == ([0], [2])
            assert optimizer._conjugate_classes(pts, np.array([mp.nan, f[1]], dtype=object)) \
                == "a point or target value is not finite"
            assert optimizer._conjugate_classes(pts[:1], f[:1]) \
                == "point index 0 has no conjugate within 2^(8-prec) max|z|"
            assert optimizer._conjugate_classes(pts, f[[0, 0]]) \
                == "the target at point index 1 breaks f(conj z) = conj f(z) against point index 0"

    def test_binary64_disk_on_an_extended_graph_says_why(self, monkeypatch, caplog):
        # binary64 circle points read exactly are not conjugate pairs at 256
        # bits; the run says so once, and evaluates every point
        g, cref, _ = _exp_design(256, 20)
        d = Discretization.disk(0, 0.45, 20)
        with caplog.at_level("INFO", logger="matgraph.optimizer"):
            assert self.one_step(monkeypatch, g, cref, d) == {20}
        why = [r.getMessage() for r in caplog.records if "do not fold" in r.getMessage()]
        assert why == ["gauss-newton: points do not fold: point index 19 has no conjugate "
                       "within 2^(8-prec) max|z|"]

    def test_conjugate_free_points_say_why(self, monkeypatch, caplog):
        # real points on the real axis: each is its own conjugate class
        g, cref, _ = _exp_design(256, 3)
        d = Discretization([0.1, 0.2, 0.3])
        with caplog.at_level("INFO", logger="matgraph.optimizer"):
            assert self.one_step(monkeypatch, g, cref, d) == {3}
        why = [r.getMessage() for r in caplog.records if "do not fold" in r.getMessage()]
        assert why == ["gauss-newton: points do not fold: every conjugate class holds one point"]

    def test_target_differs_between_coinciding_points(self, monkeypatch):
        # z and z + 2^-250 fall in one class, but a target with a jump
        # between them gives them different residuals
        g, cref, _ = _exp_design(256, 2)
        with mp.workprec(256):
            z = mp.mpc(0.3, 0.2)
            d = Discretization([z, z + mp.ldexp(1, -250), mp.conj(z)])
        target = lambda w: mp.exp(w) * (2 if w.real > 0.3 else 1)
        assert self.one_step(monkeypatch, g, cref, d, target=target) == {3}


def test_mixed_multiplicity_design_pinned(monkeypatch, caplog):
    # 21 points: ten conjugate pairs and the self-conjugate point -0.2, so the
    # loop evaluates 11 points and repeats each row by its class's size.  The
    # history was recorded with every point evaluated
    g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
    g = convert_precision(g, bigfloat(256))
    d = Discretization.disk(0.0, 0.2, 21, prec=256)
    config = GNConfig(errtype=ErrType.REL, stoptol=1e-16, droptol=1e-15,
                      linlsqr=LinLsqr.REAL_SVD, maxiter=100)
    seen = _points_per_pass(monkeypatch)
    with caplog.at_level("INFO", logger="matgraph.optimizer"):
        report = opt_gauss_newton(g, exp_target, d, cref, config)
    assert set(seen) == {11}
    assert "21 points fold into 11 conjugate classes, rows expanded" in caplog.text
    assert report.iterations == 10 and report.stop_reason == "converged"
    assert report.residual_history == pytest.approx(
        [1.0554301871167469e-07, 6.088792256528057e-09, 6.078782084829297e-09,
         1.345229659650025e-07, 1.590526915329179e-07, 1.6296647937189841e-07,
         2.5504117138961424e-07, 1.619676976881863e-07, 1.192132231532599e-09,
         3.956632559269345e-13], rel=1e-20, abs=0)


def test_benchmark_design_kept_ranks_pinned(monkeypatch):
    # the 100-point, 256-bit design of the benchmark: the rank each step
    # keeps, which no eigenvalue within 2.3% of the drop threshold can move,
    # and, bit for bit, the 34 coefficients, the residual history and the
    # certified radius with its rounding
    kept, kernel = [], optimizer.truncated_lstsq

    def spy(cols, b, droptol):
        x, k = kernel(cols, b, droptol)
        kept.append(k)
        return x, k

    monkeypatch.setattr(optimizer, "truncated_lstsq", spy)
    g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
    g = convert_precision(g, bigfloat(256))
    config = GNConfig(errtype=ErrType.REL, stoptol=4e-15, droptol=1e-15,
                      linlsqr=LinLsqr.REAL_SVD, maxiter=100)
    report = opt_gauss_newton(g, exp_target, Discretization.disk(0.0, 0.45, 100, prec=256),
                              cref, config)
    assert report.iterations == 20 and report.converged
    assert kept == [9, 13, 14, 12, 14, 13, 13, 13, 12, 12, 13, 12, 13, 12, 13, 13, 13, 13, 13, 13]
    coeffs = repr([c._mpf_ for c in g.get_coeffs(cref)]).encode()
    assert (hashlib.sha256(coeffs).hexdigest()
            == "0e36b7abcd690b06bad62ee9db3faa1e8ff6f274e0066fd9aab5a82ef25261ae")
    assert report.residual_history == [
        1.6983525702297313e-05, 4.7425210187991095e-07, 0.08933774706968352, 0.4519586133885101,
        0.015086525352324489, 0.09324726348558875, 0.010072629754861253, 0.15498972890995294,
        0.04877915339295702, 0.0023424656254125596, 0.002543537747678433, 0.006408757315459341,
        0.0001790253182771305, 0.0025873677065162554, 0.00012962351228366418,
        0.001457186825242399, 0.0001942710433983406, 5.8713355225413226e-06,
        2.6253491470237826e-08, 1.8681912652911407e-13]
    theta = compute_bwd_theta_exp(g, nterms=100, prec=1024)
    assert float(theta.theta) == 0.3660546499543931
    assert theta.theta._mpf_ == (0, 232014698365510378581883739635, -99, 98)
    assert theta.rounding._mpf_ == (0, 17, -319, 5)


def test_design_outcome_survives_round_off_sized_steps(monkeypatch):
    # the tolerance contract of the 256-bit step: the design of
    # test_workflow, with every step perturbed componentwise by 1e-30
    # relative, takes the same number of iterations, and its certified
    # radius agrees to 1e-24.  The unperturbed design also reproduces the
    # recorded outcome (tests/data/exp_m4_design200.*): the same iteration
    # count, the residual history to 1e-20, the radius to 1e-24 and every
    # 256-bit coefficient to 1e-30, all relative
    def design():
        g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
        g = convert_precision(g, bigfloat(256))
        discr = Discretization.disk(0.0, 0.45, 200, prec=256)
        config = GNConfig(errtype=ErrType.REL, stoptol=4e-15, droptol=1e-15,
                          linlsqr=LinLsqr.REAL_SVD, maxiter=100)
        report = opt_gauss_newton(g, exp_target, discr, cref, config)
        assert report.converged
        return report, g

    report, g = design()
    with open(os.path.join(DATA, "exp_m4_design200.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    with open(os.path.join(DATA, "exp_m4_design200.cgr"), encoding="utf-8") as fh:
        pinned_graph = parse_cgr(fh.read())
    assert report.iterations == pinned["iterations"]
    assert report.residual_history == pytest.approx(pinned["residual_history"], rel=1e-20, abs=0)
    assert g.coeffs.keys() == pinned_graph.coeffs.keys()
    for nid, pair in pinned_graph.coeffs.items():
        for c, c_pinned in zip(g.coeffs[nid], pair):
            assert abs(c - c_pinned) <= 1e-30 * abs(c_pinned), nid
    theta = compute_bwd_theta_exp(g).theta
    with mp.workprec(1024):
        assert abs(theta - mp.mpf(pinned["theta"])) <= 1e-24 * theta

    step, rng = optimizer.gn_step, np.random.default_rng(18)

    def perturbed(J, r, config):
        delta = step(J, r, config)
        noise = rng.standard_normal(len(delta))
        return np.array([x * (1 + mp.mpf(1e-30) * float(v)) for x, v in zip(delta, noise)],
                        dtype=object)

    monkeypatch.setattr(optimizer, "gn_step", perturbed)
    report_p, g_p = design()
    assert report_p.iterations == report.iterations
    theta_p = compute_bwd_theta_exp(g_p).theta
    assert 0 < abs(theta_p - theta) <= 1e-24 * theta


@pytest.mark.slow
class TestHighPrecisionRun:
    def test_small_degopt_fit_improves(self):
        # tiny version of the full design workflow: m=2, disk 0.3, 64 bits
        c = [1.0 / math.factorial(j) for j in range(4)]
        g, cref = graph_monomial_degopt(c)
        gb = convert_precision(g, bigfloat(128))
        d = Discretization.disk(0, 0.3, 60, prec=128)
        config = GNConfig(errtype=ErrType.REL, stoptol=1e-20, maxiter=25,
                          droptol=1e-13, linlsqr=LinLsqr.REAL_SVD)
        r0 = max(abs(x) for x in residual(gb, exp_target, d, ErrType.REL))
        report = opt_gauss_newton(gb, exp_target, d, cref, config)
        r1 = max(abs(x) for x in residual(gb, exp_target, d, ErrType.REL))
        # capacity-limited: the best degree-4 polynomial has max relative
        # error ~|z|^5/120 ~ 2e-5 on this disk; the warm start is 4.3e-4
        assert float(r1) < float(r0) / 10
        assert float(r1) < 5e-5


def test_sqrt1p_target_rel_error_guard():
    # relative error is undefined when the target vanishes on the domain
    g, cref = graph_monomial([1.0, 0.5])
    d = Discretization([0.5, -1.0, 0.5j])
    with pytest.raises(OptimizeError):
        opt_gauss_newton(g, sqrt1p_target, d, cref,
                         GNConfig(errtype=ErrType.REL, maxiter=1, linlsqr=LinLsqr.REAL_SVD))


def test_real_lsq_refuses_a_complex_selected_coefficient():
    g, cref, d = _exp_design(256, 8, ct=bigfloat(256, is_complex=True))
    g.set_coeffs(cref[:1], [g.get_coeffs(cref[:1])[0] + 1e-3j])
    with pytest.raises(OptimizeError, match="real least squares requires real coefficients"):
        opt_gauss_newton(g, exp_target, d, cref, GNConfig(linlsqr=LinLsqr.REAL_SVD, maxiter=1))


class TestBinary64PointsOnAnExtendedGraph:
    """Binary64 points are read as the mpmath numbers of the same value."""

    @staticmethod
    def lifted(d):
        return Discretization(np.array([mp.mpc(z) for z in d.points], dtype=object))

    def test_residual(self):
        g, _, d = _exp_design(None, 20, ct=bigfloat(256))
        got = residual(g, exp_target, d, ErrType.REL)
        assert got.dtype == object and (got == residual(g, exp_target, self.lifted(d), "rel")).all()

    @pytest.mark.parametrize("ct, linlsqr", [(bigfloat(256), LinLsqr.REAL_SVD),
                                             (bigfloat(256, is_complex=True), LinLsqr.COMPLEX_SVD)])
    def test_design(self, ct, linlsqr):
        config = GNConfig(errtype=ErrType.REL, stoptol=0.0, droptol=1e-15, linlsqr=linlsqr,
                          maxiter=3)
        runs = []
        for lift in (False, True):
            g, cref, d = _exp_design(None, 20, ct=ct)
            report = opt_gauss_newton(g, exp_target, self.lifted(d) if lift else d, cref, config)
            runs.append((report, g.get_coeffs(cref)))
        assert runs[0] == runs[1] and runs[0][0].iterations == 3


def test_binary64_design_reads_complex64_points_at_complex128():
    # the forward passes run in complex128: the run is that at the widened points
    runs = []
    for dtype in (np.complex64, np.complex128):
        g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
        pts = (0.45 * np.exp(2j * np.pi * np.arange(20) / 20)).astype(np.complex64).astype(dtype)
        config = GNConfig(errtype=ErrType.REL, stoptol=0.0, droptol=1e-15,
                          linlsqr=LinLsqr.REAL_SVD, maxiter=3)
        report = opt_gauss_newton(g, exp_target, Discretization(pts), cref, config)
        runs.append((report.residual_history, g.get_coeffs(cref)))
    assert runs[0] == runs[1]


def test_complex_lsq_on_real_graph_rejected():
    g, cref = graph_monomial([1.0, 0.5])
    d = Discretization.disk(0, 0.5, 16)
    with pytest.raises(OptimizeError):
        opt_gauss_newton(g, lambda z: np.exp(z), d, cref,
                         GNConfig(linlsqr=LinLsqr.COMPLEX_SVD, maxiter=1))


def test_empty_coefficient_selection_refused():
    g, _ = graph_monomial([1.0, 0.9, 0.4])
    with pytest.raises(GraphError, match="^need a nonempty coefficient selection$"):
        opt_gauss_newton(g, exp_target, Discretization.disk(0, 0.5, 12), [])


def test_two_output_graph_refused():
    g, cref = graph_monomial([1.0, 0.9, 0.4])
    g.add_output("A")
    with pytest.raises(GraphError, match="^forward pass needs a single-output graph$"):
        opt_gauss_newton(g, exp_target, Discretization.disk(0, 0.5, 12), cref,
                         GNConfig(linlsqr=LinLsqr.REAL_SVD))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_empty_jacobian_gives_a_zero_step(shape):
    # no singular value at all, as a zero J keeps none
    with pytest.warns(UserWarning, match="all singular values below the drop tolerance; zero step"):
        delta = gn_step(np.zeros(shape), np.ones(shape[0]), GNConfig())
    assert delta.shape == (shape[1],) and not delta.any()


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_series_target_without_coefficients_refused(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        get_target(f"series:{path}")
    assert str(info.value) == f"no coefficients found in {path}"


def test_unknown_target_refused():
    with pytest.raises(ValueError, match="^unknown target 'cos'; use exp, sqrt1p, or series:<file>$"):
        get_target("cos")
