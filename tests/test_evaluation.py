import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffType,
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

from support import (as_mp_matrix, forward_jac, mp_bits, mp_digest, mp_eval_inputs,
                     oracle_eval_mp_matrix, random_graph)


def scalar_bits(x):
    """Type and raw value of a number, so that equal values of different kinds or precisions differ."""
    return type(x).__name__, getattr(x, "_mpc_", None) or getattr(x, "_mpf_", x)


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

    # "graph": a complex-kind graph at the real matrix of the False case, which
    # runs on mpmath's operators since its coefficients are not read as pairs
    @pytest.mark.parametrize("is_complex", [False, True, "graph"])
    @pytest.mark.parametrize("graph", ["denman-beavers-4", "pade-13-3"])
    def test_mp_matrix_bits_equal_mpmath_operators(self, graph, is_complex):
        rng = np.random.default_rng(7 + (is_complex is True))
        n = 16
        M = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        if is_complex is True:
            M = M + 0.2j * rng.standard_normal((n, n))
        ct = bigfloat(256, bool(is_complex))
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

    @pytest.mark.parametrize("prec", [113, 256])
    def test_one_by_one_mp_matrix_bits_equal_mpmath_operators(self, prec):
        # a 1 x 1 solve divides the raw entries, wider than the working precision
        with mp.workprec(prec + 40):
            A = mp.matrix([[mp.mpf(7) / 3]])
        ct = bigfloat(prec)
        for g, _ in (graph_denman_beavers(3, ct), graph_exp_pade_ss(13, 2, ct)):
            assert mp_bits(eval_graph(g, A)) == mp_bits(oracle_eval_mp_matrix(g, A))

    @pytest.mark.parametrize("ct", [bigfloat(256), None])
    def test_mp_matrix_read_once_and_each_output_written_once(self, monkeypatch, ct):
        # a binary64 graph's float coefficients are read exactly, as mpmath's
        # operators read them, so it takes the pairs too
        from matgraph.numerics import PairMatrix

        reads, writes = [], []
        read, write = PairMatrix.read.__func__, PairMatrix.matrix
        monkeypatch.setattr(PairMatrix, "read", classmethod(
            lambda cls, M, *a: reads.append(M) or read(cls, M, *a)))
        monkeypatch.setattr(PairMatrix, "matrix", lambda self: writes.append(1) or write(self))
        g, _ = graph_denman_beavers(4, ct) if ct else graph_denman_beavers(4)
        g.add_output(g.parents[g.outputs[0]][0])
        A = as_mp_matrix(np.eye(5) + 0.1 * np.random.default_rng(3).standard_normal((5, 5)), 256)
        with mp.workprec(256):
            out = eval_graph(g, A)
            want = oracle_eval_mp_matrix(g, A)
        assert [M is A for M in reads].count(True) == 1 and len(reads) == 2
        assert len(writes) == len(out) == 2
        assert [mp_bits(X) for X in out] == [mp_bits(Y) for Y in want]

    def test_complex_graph_at_real_mp_matrix_runs_on_mpmath_operators(self, monkeypatch):
        # complex coefficients cannot be read as pairs: the one read in
        # _eval_nodes is refused, and no node reads or writes pairs after it
        from matgraph.numerics import PairMatrix

        reads, writes = [], []
        read, write = PairMatrix.read.__func__, PairMatrix.matrix
        monkeypatch.setattr(PairMatrix, "read", classmethod(
            lambda cls, M, *a: reads.append(M) or read(cls, M, *a)))
        monkeypatch.setattr(PairMatrix, "matrix", lambda self: writes.append(1) or write(self))
        coeffs = [1 / mp.factorial(j) for j in range(9)]
        g = graph_ps(coeffs, bigfloat(256, is_complex=True))[0]
        A = as_mp_matrix(np.random.default_rng(4).standard_normal((6, 6)) / 4, 256)
        out = eval_graph(g, A)
        assert len(reads) == 1 and reads[0] is A and writes == []
        assert mp_bits(out) == mp_bits(oracle_eval_mp_matrix(g, A))

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

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_binary64_graph_at_explicit_precision(self, is_complex):
        # prec=256 runs a binary64 graph at 256 bits, as its 256-bit copy runs
        c = [(1 + 0.5j if is_complex else 1.0) / math.factorial(j) for j in range(9)]
        g, _ = graph_monomial(c, CoeffType(None, is_complex))
        got = eval_graph_poly(g, prec=256)
        want = eval_graph_poly(convert_precision(g, bigfloat(256, is_complex)), prec=256)
        assert [scalar_bits(a) for a in got] == [scalar_bits(b) for b in want]
        assert all(isinstance(a, (mp.mpf, mp.mpc)) for a in got)

    def test_binary64_series_argument_at_explicit_precision(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            g = random_graph(rng, n_nodes=7, allow_ldiv=False)
            got = eval_graph(g, TruncSeries.identity(10), 1024)
            want = eval_graph(convert_precision(g, bigfloat(1024)), TruncSeries.identity(10), 1024)
            got, want = (r if isinstance(r, list) else [r] for r in (got, want))
            assert [[scalar_bits(a) for a in s.coeffs] for s in got] == \
                [[scalar_bits(b) for b in s.coeffs] for s in want]

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

    def test_binary64_graph_at_mpc_points(self):
        # an object array of mpmath points runs entry by entry in mpmath, as
        # the scalar evaluation at each point does
        g, _ = graph_monomial([1.0, 0.5, 0.25])
        g.add_ldiv("Q", "A", g.outputs[0])
        g.set_outputs(["Q"])
        with mp.workprec(128):
            zs = [mp.mpc(1, 2) / 3, mp.mpc(-0.5, 0.25), mp.mpc(2)]
            got = eval_graph(g, np.array(zs, dtype=object))
            assert got.dtype == object and len(got) == 3
            for value, z in zip(got, zs):
                assert scalar_bits(value) == scalar_bits(eval_graph(g, z))

    def test_integer_numpy_arguments_never_wrap(self):
        # (2^40)^2 overflows int64: a binary64 graph reads integer numpy
        # values as float64, an extended-precision one as exact mpmath numbers
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        want = 1 + 3 * 2.0 ** 80
        got = eval_graph(g, np.array([2 ** 40, 3]))
        assert got.dtype == np.float64 and got.tolist() == [want, 28.0]
        assert eval_graph(g, np.array([[2 ** 40]])).tolist() == [[want]]
        assert eval_graph(g, np.int64(2 ** 40)) == want
        gb = convert_precision(g, bigfloat(256))
        assert eval_graph(gb, np.int64(2 ** 40)) == 1 + 3 * 2 ** 80
        assert eval_graph(gb, np.array([2 ** 40, 3])).tolist() == [1 + 3 * 2 ** 80, 28]

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64])
    def test_binary64_graph_computes_narrow_arguments_at_binary64(self, dtype):
        # a float16, float32 or complex64 number or array runs in float64 or
        # complex128, not in its own dtype (float16 was off by 1.3e-3)
        g, _ = graph_ps([1, 1, 0.5, 1 / 6])
        x = (np.array([0.3, -0.7, 0.45]) + (0.2j if dtype == np.complex64 else 0)).astype(dtype)
        wide = x.astype(np.result_type(dtype, np.float64))
        got, want = eval_graph(g, x), eval_graph(g, wide)
        assert got.dtype == want.dtype == wide.dtype and got.tolist() == want.tolist()
        got = eval_graph(g, x[0])
        assert got.dtype == wide.dtype and got == eval_graph(g, wide[0]) == want[0]

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64,
                                       np.longdouble, np.clongdouble])
    def test_extended_graph_reads_numpy_scalars_by_value(self, dtype):
        # a 256-bit graph ran a float16, float32 or complex64 scalar in its
        # own dtype (off by 2e-9 at float32), a longdouble one in longdouble,
        # and rounded the entries of a longdouble point vector to binary64
        g, _ = graph_ps([1, 1, 0.5, 1 / 6], bigfloat(256))
        third = dtype(1) / 3
        x = third + (0.25j * third if np.iscomplexobj(third) else 0)
        with mp.workprec(256):  # each part p/2**k exactly
            parts = [mp.mpf(p) / q for p, q in (v.as_integer_ratio() for v in (x.real, x.imag))]
            exact = mp.mpc(*parts) if np.iscomplexobj(x) else parts[0]
        want = scalar_bits(eval_graph(g, exact))
        assert scalar_bits(eval_graph(g, x)) == want
        assert scalar_bits(eval_graph(g, np.array([x]))[0]) == want

    def test_binary64_graph_runs_an_object_matrix_as_an_mpmath_matrix(self):
        # numpy's object @ gave results up to 1.9e-34 away from the
        # mpmath.matrix route, under 113 bits
        g, _ = graph_exp_pade_ss(13, 1)
        with mp.workprec(113):
            A = [[mp.mpf(v) / 7 for v in row]
                 for row in np.random.default_rng(3).standard_normal((5, 5))]
            got = eval_graph(g, np.array(A, dtype=object))
            want = eval_graph(g, mp.matrix(A))
        assert got.dtype == object and got.shape == (5, 5)
        cells = [(i, j) for i in range(5) for j in range(5)]
        assert [scalar_bits(got[c]) for c in cells] == [scalar_bits(want[c]) for c in cells]

    def test_binary64_graph_computes_a_float32_matrix_at_binary64(self):
        # Denman-Beavers(2) at a float32 matrix was off by 1.7e-7
        g, _ = graph_denman_beavers(2)
        A = np.array([[2.0, 0.3], [0.3, 1.5]], dtype=np.float32)
        got, want = eval_graph(g, A), eval_graph(g, A.astype(np.float64))
        assert got.dtype == np.float64 and got.tolist() == want.tolist()

    def test_binary64_matrix_computed_in_extended_precision(self):
        g, _ = graph_exp_pade_ss(13, 0, bigfloat(256))
        A = np.random.default_rng(9).standard_normal((5, 5)) / 4
        got = eval_graph(g, A)
        assert got.dtype == object
        with mp.workprec(256):
            want = eval_graph(g, mp.matrix(A.tolist()))
            err = max(abs(got[i, j] - want[i, j]) for i in range(5) for j in range(5))
            assert err <= mp.mpf(2) ** -240 * mp.mnorm(want, 1)

    @pytest.mark.parametrize("kind", ["float64", "integer", "object"])
    def test_ndarray_matrix_gives_the_mpmath_matrix_result(self, kind):
        # an ndarray matrix runs the products and solves of an mpmath.matrix
        g, _ = graph_exp_pade_ss(13, 3, bigfloat(256))
        A = np.random.default_rng(4).integers(-4, 5, (6, 6))
        arg = {"float64": A / 8, "integer": A, "object": (A / 8).astype(object)}[kind]
        want = eval_graph(g, mp.matrix(arg.tolist()))
        got = eval_graph(g, arg)
        assert got.dtype == object and got.shape == (6, 6)
        assert all(got[i, j] == want[i, j] for i in range(6) for j in range(6))

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


class TestPointVectors:
    """Extended-precision point vectors: integers at one exponent set by the smallest entry."""

    # 2^-200 is 200 bits below the other points, and its powers up to z^5
    # (a Jacobian column) 1000 bits below theirs
    POINTS = np.array([2.0 ** -200, 0.5, 1 + 1j])

    @staticmethod
    def complex_graph():
        """Complex coefficients on complex node values in both slots of a combination."""
        g = ComputationGraph(bigfloat(256, is_complex=True))
        g.add_lincomb("L", 0.5 + 0.25j, "A", -0.75j, "I")
        g.add_mult("M", "L", "A")
        g.add_lincomb("O", 1.5 - 0.5j, "M", 0.3 + 0.1j, "L")
        g.set_outputs(["O"])
        return g, g.all_coeff_refs()

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_every_entry_matches_a_scalar_evaluation(self, is_complex):
        from matgraph import eval_jac

        g, cref = self.complex_graph() if is_complex else graph_monomial(
            [1.0 / math.factorial(j) for j in range(6)], bigfloat(256))
        values = eval_graph(g, self.POINTS)
        J = eval_jac(g, self.POINTS, cref)
        with mp.workprec(256):
            for i, z in enumerate(self.POINTS):
                want = eval_graph(g, mp.mpc(z))
                assert abs(values[i] - want) <= mp.ldexp(abs(want), -250)
                assert abs(J.values[i] - want) <= mp.ldexp(abs(want), -250)
                for got, w in zip(J.entries[i], forward_jac(g, [z], cref)[0]):
                    assert abs(got - w) <= mp.ldexp(abs(w), -250)

    @pytest.mark.parametrize("points, kind", [
        (np.array([0.3, 0.2 + 0.1j]), "mpc"),
        (np.array([mp.mpf(0.3), mp.mpf(0.2)], dtype=object), "mpf"),
    ])
    def test_entries_take_their_kind_from_the_points(self, points, kind):
        # the identity and the zero columns too: P = 2 I + 0 I reads no
        # point, and the output does not use U's coefficients
        from matgraph import eval_jac, graph_monomial_degopt

        g = ComputationGraph(bigfloat(256))
        g.add_lincomb("P", 2, "I", 0, "I")
        g.add_lincomb("U", 1, "A", 1, "I")
        g.set_outputs(["P"])
        h, href = graph_monomial_degopt([1, 1, 0.5, 1 / 6])
        h = convert_precision(h, bigfloat(256))
        J, K = eval_jac(g, points, g.all_coeff_refs()), eval_jac(h, points, href)
        for values in (eval_graph(g, points), J.values, J.entries.ravel(), K.entries.ravel()):
            assert {type(v).__name__ for v in values} == {kind}

    def test_rational_point_read_at_the_working_precision(self):
        # Fraction(1, 3) has no binary form: read through float, 1 + 3 z^2
        # would be 2.8e-17 from 4/3 at 256 bits
        g, _ = graph_monomial([1, 0, 3], bigfloat(256))
        value = eval_graph(g, np.array([Fraction(1, 3)], dtype=object))[0]
        with mp.workprec(300):
            assert abs(value - mp.mpf(4) / 3) <= mp.ldexp(mp.mpf(4) / 3, -250)

    def test_zero_divisor_names_its_point(self):
        from matgraph import CoeffRef, eval_jac

        g = ComputationGraph(bigfloat(256))
        g.add_lincomb("D", 1.0, "A", 0.0, "I")
        g.add_ldiv("X", "D", "A")  # z \ z, singular at z = 0
        g.add_lincomb("S", 2.0, "X", 1.0, "I")
        g.set_outputs(["S"])
        pts = np.array([2.0 ** -200, 0.5, 0.0, 1 + 1j])
        for run in (lambda: eval_graph(g, pts), lambda: eval_jac(g, pts, [CoeffRef("S", 1)])):
            with pytest.raises(SingularMatrixError, match="point index 2"):
                run()


class TestMpMatrixEdges:
    """The benchmark's mp-eval outputs, and empty and non-finite extended-precision matrices."""

    # sha256 (support.mp_digest) of X and E of the mp-eval workload at seeds 1-3,
    # as the kernels on canonical libmp tuples computed them before the pair kernels
    MP_EVAL = {1: "4643af4bed94ee6802c4a529a0025b39ce3dd64a89b39c42da9edb8f18b0afaa",
               2: "3763b3ce726933f8e9d46f9aafb09a5be15da04fa09ed11a7d6131569dbdcceb",
               3: "605c3337fc21d3ddeb82bd9c106e7f34427530681c0cb078042ad60c30179dfb"}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mp_eval_outputs_pinned(self, seed):
        A, B = mp_eval_inputs(seed)
        X = eval_graph(graph_denman_beavers(4, bigfloat(256))[0], A)
        E = eval_graph(graph_exp_pade_ss(13, 3, bigfloat(256))[0], B)
        assert mp_digest(X, E) == self.MP_EVAL[seed]

    def test_empty_matrix_gives_an_empty_result(self):
        g64, _ = graph_denman_beavers(2)
        g = convert_precision(g64, bigfloat(256))
        assert eval_graph(g64, np.zeros((0, 0))).shape == (0, 0)
        out = eval_graph(g, np.zeros((0, 0)))
        assert out.shape == (0, 0) and out.dtype == object
        X = eval_graph(g, mp.matrix(0, 0))
        assert (X.rows, X.cols) == (0, 0)

    @pytest.mark.parametrize("kind", ["ndarray", "mpmath"])
    def test_nan_entry_gives_nan_and_an_infinite_one_is_named(self, kind):
        # binary64 gives NaN for both; mpmath's own LU finds no pivot in the first
        # and calls the second numerically singular
        g, _ = graph_denman_beavers(2, bigfloat(256))
        A = np.array([[4.0, np.nan], [1.0, 9.0]])
        arg = A if kind == "ndarray" else mp.matrix(A.tolist())
        out = eval_graph(g, arg)
        assert all(mp.isnan(out[i, j]) for i in range(2) for j in range(2))
        A[0, 1] = np.inf
        arg = A if kind == "ndarray" else mp.matrix(A.tolist())
        with pytest.raises(SingularMatrixError, match=r"entry \(0, 1\) .* not finite"):
            eval_graph(g, arg)
