import math

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    ComputationGraph,
    EvalError,
    SingularMatrixError,
    TruncSeries,
    bigfloat,
    convert_precision,
    eval_graph,
    eval_graph_poly,
    graph_denman_beavers,
    graph_exp_pade_ss,
    graph_monomial,
    graph_ps,
)
from matgraph.evaluation import _eval_nodes, graph_degree_bound
from matgraph.graph import get_topo_order

from support import as_mp_matrix, mp_bits, oracle_eval_mp_matrix, random_graph


class TestScalarAndMatrix:
    def test_monomial_scalar(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        assert eval_graph(g, 0.1) == 1.03

    def test_monomial_matrix(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        A = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(eval_graph(g, A), np.array([[88.0, 108.0], [135.0, 169.0]]))

    def test_argument_binds_the_graphs_input_id(self):
        g = ComputationGraph(input_id="x")
        g.add_lincomb("y", 1.0, "I", 2.0, "x")
        g.set_outputs(["y"])
        assert eval_graph(g, 3.0) == 7.0
        assert eval_graph_poly(g) == [1.0, 2.0]
        assert eval_graph(g, np.array([3.0, 0.5])).tolist() == [7.0, 2.0]

    def test_scalar_ldiv_is_division(self):
        g = ComputationGraph()
        g.add_ldiv("X", "A", "I")
        g.set_outputs(["X"])
        assert eval_graph(g, 4.0) == 0.25

    def test_singular_ldiv_matrix(self):
        g = ComputationGraph()
        g.add_ldiv("X", "A", "I")
        g.set_outputs(["X"])
        with pytest.raises(SingularMatrixError):
            eval_graph(g, np.zeros((2, 2)))

    def test_one_by_one_matches_scalar(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, n_nodes=7, allow_ldiv=False)
            z = float(rng.uniform(-1, 1))
            assert eval_graph(g, np.array([[z]]))[0, 0] == eval_graph(g, z)

    def test_mp_matrix_path(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        A = as_mp_matrix(np.array([[3.0, 4.0], [5.0, 6.0]]), 128)
        with mp.workprec(128):
            M = eval_graph(g, A)
            assert M[0, 0] == 88 and M[1, 1] == 169

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("graph", ["denman-beavers-4", "pade-13-3"])
    def test_mp_matrix_bits_equal_mpmath_operators(self, graph, is_complex):
        rng = np.random.default_rng(7 + is_complex)
        n = 16
        M = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        if is_complex:
            M = M + 0.2j * rng.standard_normal((n, n))
        ct = bigfloat(256, is_complex)
        g = (graph_denman_beavers(4, ct) if graph == "denman-beavers-4"
             else graph_exp_pade_ss(13, 3, ct))[0]
        A = as_mp_matrix(M, 256)
        out, want = eval_graph(g, A), oracle_eval_mp_matrix(g, A)
        for X, Y in zip(out, want) if isinstance(out, list) else [(out, want)]:
            assert mp_bits(X) == mp_bits(Y)

    def test_mp_matrix_coefficients_read_unrounded(self):
        # a 256-bit graph at 128 bits: each product c*x rounds once, from the
        # stored 256-bit c, as mpmath's operators do
        rng = np.random.default_rng(8)
        g = graph_exp_pade_ss(13, 1, bigfloat(256))[0]
        A = as_mp_matrix(rng.standard_normal((6, 6)) / 4, 256)
        assert mp_bits(eval_graph(g, A, prec=128)) == mp_bits(oracle_eval_mp_matrix(g, A, 128))

    def test_square_output_node_workflow(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        g.add_mult("PX", "P3", "P3")
        g.clear_outputs()
        g.add_output("PX")
        assert eval_graph(g, 0.1) == pytest.approx(1.0609)

    def test_multiple_outputs_list(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        g.add_output("A2")
        vals = eval_graph(g, 0.1)
        assert isinstance(vals, list) and vals[0] == 1.03 and vals[1] == pytest.approx(0.01)

    def test_memory_reuse_identical(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_graph(rng, n_nodes=9)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            order = get_topo_order(g)
            kept = _eval_nodes(g, z, order, keep_all=True)
            freed = _eval_nodes(g, z, order, keep_all=False)
            assert [kept[o] for o in g.outputs] == [freed[o] for o in g.outputs]

    def test_vector_is_pointwise_scalar(self):
        # numpy and CPython complex kernels differ in the last ulp
        rng = np.random.default_rng(5)
        u = 2.0 ** -53
        g = random_graph(rng, n_nodes=8)
        zs = rng.uniform(-0.9, 0.9, 7) + 1j * rng.uniform(-0.5, 0.5, 7)
        vec = eval_graph(g, zs)
        for i, z in enumerate(zs):
            v = eval_graph(g, complex(z))
            assert abs(vec[i] - v) <= 16 * u * (1 + abs(v))


class TestDiagonalizationConsistency:
    def test_matrix_vs_eigenvalues(self):
        # || g(A) - V g(Lambda) V^{-1} || <= 1e3 u kappa(V) max |g(lambda)|
        rng = np.random.default_rng(8)
        u = 2.0 ** -53
        for _ in range(20):
            g = random_graph(rng, n_nodes=7)
            n = 5
            V = np.eye(n) + 0.25 * rng.standard_normal((n, n))
            lam = rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.5, 0.5, n)
            A = V @ np.diag(lam) @ np.linalg.inv(V)
            left = eval_graph(g, A)
            diag = np.array([eval_graph(g, complex(z)) for z in lam])
            right = V @ np.diag(diag) @ np.linalg.inv(V)
            kappa = np.linalg.cond(V)
            bound = 1e3 * u * kappa * max(1.0, np.max(np.abs(diag)))
            assert np.linalg.norm(left - right, 2) <= bound


class TestPolynomialExtraction:
    def test_monomial_coeffs(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        assert eval_graph_poly(g) == [1.0, 0.0, 3.0]

    def test_ps_round_trip(self):
        rng = np.random.default_rng(9)
        c = list(rng.uniform(-1, 1, 10))
        g, _ = graph_ps(c)
        got = eval_graph_poly(g)
        u = 2.0 ** -53
        assert len(got) == len(c)
        for a, b in zip(got, c):
            assert abs(a - b) <= 10 * u * (1 + abs(b))

    def test_high_precision_extraction(self):
        c = [1.0 / math.factorial(j) for j in range(8)]
        g, _ = graph_ps(c)
        gb = convert_precision(g, bigfloat(256))
        got = eval_graph_poly(gb)
        with mp.workprec(256):
            for a, b in zip(got, c):
                assert abs(a - mp.mpf(b)) <= mp.mpf(2) ** -200

    def test_ldiv_rejected(self):
        g = ComputationGraph()
        g.add_ldiv("X", "A", "I")
        g.set_outputs(["X"])
        with pytest.raises(EvalError):
            eval_graph_poly(g)

    def test_substitution_matches_direct(self):
        rng = np.random.default_rng(10)
        u = 2.0 ** -53
        for _ in range(5):
            g = random_graph(rng, n_nodes=7, allow_ldiv=False)
            coeffs = eval_graph_poly(g)
            for _ in range(20):
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 2
                direct = eval_graph(g, z)
                horner = 0j
                for c in reversed(coeffs):
                    horner = horner * z + c
                assert abs(horner - direct) <= 10 * u * (1 + abs(direct))


class TestSeriesArgument:
    def test_series_matches_poly(self):
        g, _ = graph_monomial([2.0, -1.0, 0.5])
        s = eval_graph(g, TruncSeries.identity(4))
        assert [float(c) for c in s.coeffs] == [2.0, -1.0, 0.5, 0.0, 0.0]

    def test_series_ldiv(self):
        # A \ I at series: 1/z has no expansion; shift makes it regular
        g = ComputationGraph()
        g.add_lincomb("D", 1.0, "I", 1.0, "A")
        g.add_ldiv("X", "D", "I")
        g.set_outputs(["X"])
        s = eval_graph(g, TruncSeries.identity(5))
        # 1/(1+z) = 1 - z + z^2 - ...
        assert [float(c) for c in s.coeffs] == [1, -1, 1, -1, 1, -1]

    def test_degree_bound(self):
        g, _ = graph_ps([1.0] * 10)
        assert graph_degree_bound(g) >= 9


def test_eval_nodes_frees_intermediates():
    g, _ = graph_monomial([1.0, 0.0, 3.0, 2.0])
    order = get_topo_order(g)
    slots = _eval_nodes(g, 0.5, order, keep_all=False)
    assert set(g.outputs) <= set(slots)
    assert len(slots) < len(order) + 2


class TestPrecisionRule:
    """An extended-precision graph computes at its own precision, whatever the argument."""

    @staticmethod
    def quadratic():
        g = ComputationGraph(bigfloat(256))
        g.add_mult("X2", "A", "A")
        g.add_lincomb("Y", 1, "I", 3, "X2")  # 1 + 3x^2
        g.set_outputs(["Y"])
        return g

    def test_binary64_argument_read_exactly(self):
        g = self.quadratic()
        with mp.workprec(256):
            want = eval_graph(g, mp.mpf(0.1))
            assert want - (1 + 3 * mp.mpf(0.1) ** 2) == 0
        assert eval_graph(g, 0.1) == want
        assert eval_graph(g, 1) == 4 and isinstance(eval_graph(g, 1), mp.mpf)
        points = eval_graph(g, np.array([0.1, 0.25]))
        assert points.dtype == object and points[0] == want
        assert eval_graph(g, 0.1 + 0.2j) == eval_graph(g, mp.mpc(0.1, 0.2))
        assert eval_graph(g, np.array([0.1 + 0.2j]))[0] == eval_graph(g, mp.mpc(0.1, 0.2))

    def test_binary64_matrix_computed_in_extended_precision(self):
        g, _ = graph_exp_pade_ss(13, 0, bigfloat(256))
        A = np.random.default_rng(9).standard_normal((5, 5)) / 4
        got = eval_graph(g, A)
        assert got.dtype == object
        with mp.workprec(256):
            want = eval_graph(g, mp.matrix(A.tolist()))
            err = max(abs(got[i, j] - want[i, j]) for i in range(5) for j in range(5))
            assert err <= mp.mpf(2) ** -240 * mp.mnorm(want, 1)

    def test_ambient_precision_ignored(self):
        g = self.quadratic()
        with mp.workprec(256):
            x = mp.mpf(1) / 3
        want = eval_graph(g, x)
        with mp.workprec(80):
            got = eval_graph(g, x)
        assert got._mpf_ == want._mpf_
        with mp.workprec(80):
            assert eval_graph(g, x, prec=80)._mpf_ != want._mpf_

    def test_zero_denominator_at_extended_point_names_it(self):
        g = ComputationGraph(bigfloat(256))
        g.add_ldiv("X", "A", "I")
        g.set_outputs(["X"])
        with pytest.raises(SingularMatrixError, match="point index 1"):
            eval_graph(g, np.array([mp.mpf(2), mp.mpf(0), mp.mpf(3)], dtype=object))
