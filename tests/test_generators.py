import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffType,
    GraphError,
    OpKind,
    bigfloat,
    degopt_from_graph,
    eval_graph,
    get_topo_order,
    graph_denman_beavers,
    graph_degopt,
    graph_exp_pade_ss,
    graph_monomial,
    graph_newton_schulz,
    graph_ps,
    graph_rational,
    pade_exp_coeffs,
    pade_squarings_for_norm,
)

from support import taylor_exp_mp


class TestDenmanBeavers:
    def test_square_root_fixture(self):
        g, _ = graph_denman_beavers(4)
        A = np.array([[0.5, 0.2], [0.3, 0.5]])
        X = eval_graph(g, A)
        expected = np.array([[0.684065, 0.146185], [0.219277, 0.684065]])
        # reference values are printed with six digits after the point
        assert np.max(np.abs(X - expected)) <= 5e-7
        assert np.allclose(X @ X, A, atol=1e-12)

    def test_topo_order_17_nodes(self):
        g, _ = graph_denman_beavers(4)
        order = get_topo_order(g)
        assert len(order) == 17
        assert order[-1] == "X5"
        assert {"Xinv0", "Y1", "X1", "Yinv1", "X2"} <= set(order)

    def test_identity_fixed_point(self):
        g, _ = graph_denman_beavers(4)
        X = eval_graph(g, np.eye(3))
        assert np.allclose(X, np.eye(3), atol=1e-15)

    def test_quadratic_convergence_spd(self):
        rng = np.random.default_rng(21)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = Q @ np.diag(rng.uniform(0.5, 1.5, 4)) @ Q.T
        prev = None
        for k in range(1, 7):
            g, _ = graph_denman_beavers(k)
            X = eval_graph(g, A)
            res = np.linalg.norm(X @ X - A)
            if prev is not None and prev > 1e-14:
                assert res < prev
            prev = res

    def test_refs_cover_created_lincombs(self):
        g, cref = graph_denman_beavers(3)
        assert len(cref) == 2 * len(g.coeffs)
        g.set_coeffs(cref, g.get_coeffs(cref))
        assert eval_graph(g, 1.2) == pytest.approx(np.sqrt(1.2))
        # both slots of each linear combination, in the order the generator creates them
        def both(*nodes):
            return [(n, s) for n in nodes for s in (1, 2)]

        expected = {
            (graph_denman_beavers, 2): both("X1", "Y1", "X2", "Y2", "X3", "Y3"),
            (graph_newton_schulz, 3): both("T1", "T2", "T3"),
            (graph_exp_pade_ss, 3, 0): both("Us", "V", "VmU", "VpU"),
            (graph_exp_pade_ss, 5, 1): both("As", "Us_sum1", "Us", "V_sum1", "V", "VmU", "VpU"),
            (graph_exp_pade_ss, 9, 2): both("As", "Us_sum1", "Us_sum2", "Us_sum3", "Us",
                                            "V_sum1", "V_sum2", "V_sum3", "V", "VmU", "VpU"),
            (graph_exp_pade_ss, 13, 0): both("W1s_sum1", "W1s", "Us_sum1", "Us_sum2",
                                             "Us_sum3", "Us", "W2s_sum1", "W2s", "V_sum1",
                                             "V_sum2", "V_sum3", "V", "VmU", "VpU"),
            (graph_exp_pade_ss, 13, 1): both("As", "W1s_sum1", "W1s", "Us_sum1", "Us_sum2",
                                             "Us_sum3", "Us", "W2s_sum1", "W2s", "V_sum1",
                                             "V_sum2", "V_sum3", "V", "VmU", "VpU"),
        }
        for (build, *args), refs in expected.items():
            for ct in (CoeffType(), bigfloat(256)):
                assert build(*args, ct)[1] == refs, (build.__name__, args)


class TestNewtonSchulz:
    def test_scalar_inverse(self):
        g, _ = graph_newton_schulz(8)
        assert abs(eval_graph(g, 0.9) - 1 / 0.9) <= 1e-12

    def test_fixed_point_at_one(self):
        for iters in (1, 3, 5):
            g, _ = graph_newton_schulz(iters)
            assert eval_graph(g, 1.0) == 1.0

    def test_quadratic_residual_decay(self):
        rng = np.random.default_rng(22)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        A = Q @ np.diag([0.8, 1.1]) @ Q.T
        residuals = []
        for k in range(1, 5):
            g, _ = graph_newton_schulz(k)
            X = eval_graph(g, A)
            residuals.append(np.linalg.norm(A @ X - np.eye(2)))
        for r0, r1 in zip(residuals, residuals[1:]):
            if r0 > 1e-12:
                assert r1 <= 1.5 * r0 ** 2

    def test_degopt_embedding_agrees(self):
        g1, _ = graph_newton_schulz(3)
        g2, _ = graph_degopt(degopt_from_graph(g1))
        for z in (0.9, 1.3, 0.5 + 0.1j):
            assert eval_graph(g2, z) == pytest.approx(eval_graph(g1, z), rel=1e-14)


class TestExpPade:
    def test_pade_coefficient_closed_form(self):
        b = pade_exp_coeffs(5)
        assert b[0] == 1.0
        assert b[5] == pytest.approx(math.factorial(5) ** 2 / (math.factorial(10) * math.factorial(5)))

    def test_zero_matrix_gives_identity(self):
        g, _ = graph_exp_pade_ss(13, 2)
        assert np.allclose(eval_graph(g, np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_accuracy_vs_taylor_oracle(self):
        rng = np.random.default_rng(23)
        A = rng.standard_normal((4, 4))
        A *= 0.9 / np.linalg.norm(A, 1)
        s = pade_squarings_for_norm(np.linalg.norm(A, 1), 13)
        g, _ = graph_exp_pade_ss(13, s)
        E = taylor_exp_mp(A, 512)
        rel = np.linalg.norm(eval_graph(g, A) - E) / np.linalg.norm(E)
        assert rel <= 1e-14

    @pytest.mark.parametrize("norm, degree", [(math.nan, 13), (-1.0, 13), (math.inf, 13),
                                              (-math.inf, 13), (1.0, 4), (1.0, 0), (1.0, 15),
                                              (1.0, 13.5)])
    def test_squarings_reject_bad_input(self, norm, degree):
        with pytest.raises(ValueError):
            pade_squarings_for_norm(norm, degree)

    def test_squarings_smallest_passing_count(self):
        thetas = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
                  7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}
        for degree, theta in thetas.items():
            for norm in (0.0, 5e-324, theta, math.nextafter(theta, 1e9), 2 * theta,
                         3.7, 1e300, sys.float_info.max):
                s = 0
                while Fraction(norm) > Fraction(theta) * 2 ** s:
                    s += 1
                assert pade_squarings_for_norm(norm, degree) == s, (norm, degree)

    def test_scaling_and_squaring_consistency(self):
        g0, _ = graph_exp_pade_ss(9, 0)
        g2, _ = graph_exp_pade_ss(9, 2)
        z = 0.3 - 0.2j
        r = eval_graph(g0, z / 4)
        assert eval_graph(g2, z) == pytest.approx(r ** 4, rel=1e-14)

    def test_multiplication_budget(self):
        # degree -> multiplication-equivalents (one solve counts as one)
        for deg, total in ((3, 3), (5, 4), (7, 5), (9, 6), (13, 7)):
            g, _ = graph_exp_pade_ss(deg, 0)
            mults = sum(1 for op in g.operations.values() if op == OpKind.MULT)
            ldivs = sum(1 for op in g.operations.values() if op == OpKind.LDIV)
            assert ldivs == 1
            assert mults + ldivs == total

    def test_degopt_embedding_agrees(self):
        for deg, s in ((5, 0), (13, 1)):
            g1, _ = graph_exp_pade_ss(deg, s)
            g2, _ = graph_degopt(degopt_from_graph(g1))
            for z in (0.2, -0.4 + 0.3j):
                assert eval_graph(g2, z) == pytest.approx(eval_graph(g1, z), rel=1e-13)

    def test_invalid_degree(self):
        with pytest.raises(GraphError):
            graph_exp_pade_ss(11, 0)

    def test_high_precision_coefficients_exact(self):
        # b1 = 1/2 is exact in binary64; b3 = 1/72 and b5 = 1/30240 are not
        g, _ = graph_exp_pade_ss(5, 0, coeff_type=bigfloat(256))
        with mp.workprec(256):
            for ref, den in ((("Us_sum1", 1), 2), (("Us_sum1", 2), 72), (("Us", 2), 30240)):
                got = g.get_coeffs([ref])[0]
                assert abs(got - mp.mpf(1) / den) <= mp.mpf(2) ** -250 / den, ref


class TestRational:
    def test_simple_half(self):
        p, _ = graph_monomial([0.0, 1.0])
        q, _ = graph_monomial([1.0, 1.0])
        r = graph_rational(p, q)
        assert eval_graph(r, 1.0) == pytest.approx(0.5)

    def test_pade33_matches_closed_form(self):
        b = pade_exp_coeffs(3)
        p, _ = graph_ps(b)
        q, _ = graph_ps([b[0], -b[1], b[2], -b[3]])
        r = graph_rational(p, q)
        rng = np.random.default_rng(24)
        u = 2.0 ** -53
        for z in rng.uniform(-0.5, 0.5, 20) + 1j * rng.uniform(-0.5, 0.5, 20):
            num = sum(bk * z ** k for k, bk in enumerate(b))
            den = sum(bk * (-z) ** k for k, bk in enumerate(b))
            want = num / den
            assert abs(eval_graph(r, z) - want) <= 10 * u * (1 + abs(want))

    def test_constant_denominator(self):
        p, _ = graph_monomial([0.0, 1.0])
        q, _ = graph_monomial([2.0])
        r = graph_rational(p, q)
        assert eval_graph(r, 3.0) == pytest.approx(1.5)

    def test_rejects_multi_output(self):
        p, _ = graph_monomial([0.0, 1.0])
        p.add_output("A2") if "A2" in p.operations else p.add_output(p.outputs[0])
        q, _ = graph_monomial([1.0, 1.0])
        with pytest.raises(GraphError):
            graph_rational(p, q)

    def test_rejects_ldiv(self):
        p, _ = graph_denman_beavers(1)
        q, _ = graph_monomial([1.0, 1.0])
        with pytest.raises(GraphError):
            graph_rational(p, q)
