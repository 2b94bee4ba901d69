import math

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffRef,
    ComputationGraph,
    bigfloat,
    convert_precision,
    eval_jac,
    graph_monomial,
    graph_monomial_degopt,
)
from matgraph.optimizer import Discretization

from support import finite_diff_jac, forward_jac, random_graph


def circle_discr(n=200, r=0.45):
    return r * np.exp(1j * 2 * np.pi * np.arange(n) / (n - 1))


class TestJacobianFixtures:
    def test_monomial_exp_singular_values(self):
        c = [1.0 / math.factorial(j) for j in range(6)]
        g, cref = graph_monomial(c)
        J = eval_jac(g, circle_discr(), cref)
        assert J.shape == (200, 6)
        sv = np.linalg.svd(J.entries, compute_uv=False)
        expected = [14.142189931772608, 6.363885389264312, 2.863711391309838,
                    1.2886540714299903, 0.579886987450398, 0.2609452239018225]
        assert np.allclose(sv, expected, rtol=1e-6)

    def test_degopt_rank(self):
        c = [1.0 / math.factorial(j) for j in range(6)]
        g, cref = graph_monomial_degopt(c)
        J = eval_jac(g, circle_discr(), cref)
        assert J.shape == (200, 34)
        sv = np.linalg.svd(J.entries, compute_uv=False)
        assert int(np.sum(sv > 1e-12 * sv[0])) == 9

    def test_unreachable_ref_gives_zero_column(self):
        g, cref = graph_monomial([1.0, 2.0])
        g.add_lincomb("dead", 3.0, "A", 4.0, "I")
        J = eval_jac(g, circle_discr(16), [CoeffRef("dead", 1)])
        assert np.all(J.entries == 0)

    def test_linear_y_columns_equal_basis_values(self):
        # columns addressed by the final-combination coefficients are the
        # basis values themselves (the evaluation is linear in them)
        from matgraph import Degopt, eval_graph, graph_degopt

        rng = np.random.default_rng(31)
        HA = [list(rng.uniform(-1, 1, k + 2)) for k in range(2)]
        HB = [list(rng.uniform(-1, 1, k + 2)) for k in range(2)]
        y = list(rng.uniform(-1, 1, 4))
        g, cref = graph_degopt(Degopt(HA, HB, y))
        pts = circle_discr(20)
        yrefs = cref[-4:]
        J = eval_jac(g, pts, yrefs)
        basis = [np.ones(20, complex), pts]
        for name in ("B3", "B4"):
            gb = g.copy()
            gb.set_outputs([name])
            basis.append(np.asarray([complex(v) for v in __import__("matgraph").eval_graph(gb, pts)]))
        for k in range(4):
            assert np.allclose(J.entries[:, k], basis[k], rtol=1e-13, atol=1e-15)


class TestFiniteDifferenceAgreement:
    def test_example_graph_binary64(self):
        c = [1.0 / math.factorial(j) for j in range(6)]
        g, cref = graph_monomial(c)
        pts = circle_discr(40)
        J1 = eval_jac(g, pts, cref).entries
        J2 = finite_diff_jac(g, pts, cref, h=1e-7).entries
        mask = np.abs(J1) > 1e-10
        # difference-quotient rounding noise is ~u/(2h*|J|) ~ 5e-8 for the
        # smallest entries here
        assert np.max(np.abs((J1 - J2)[mask] / J1[mask])) <= 1e-6

    def test_linear_graph_exact_any_h(self):
        # no h^2 truncation term for a linear-in-coefficients graph: the
        # deviation is pure rounding, which scales like u/h
        g, cref = graph_monomial([1.0, 2.0, 3.0])
        pts = circle_discr(10)
        u = 2.0 ** -53
        J1 = eval_jac(g, pts, cref).entries
        for h in (1e-3, 1e-7, 0.25):
            J2 = finite_diff_jac(g, pts, cref, h=h).entries
            assert np.abs(J1 - J2).max() <= 16 * u * (1 + 1 / h)

    def test_high_precision_agreement(self):
        c = [1.0 / math.factorial(j) for j in range(5)]
        g, cref = graph_monomial(c)
        gb = convert_precision(g, bigfloat(256))
        pts = Discretization.disk(0, 0.45, 12, prec=256).points
        J1 = eval_jac(gb, pts, cref).entries
        with mp.workprec(256):
            J2 = finite_diff_jac(gb, pts, cref, h=mp.mpf(2) ** -64).entries
            scale = max(abs(v) for v in J1.reshape(-1))
            diff = max(abs(a - b) for a, b in zip(J1.reshape(-1), J2.reshape(-1)))
            assert diff <= scale * mp.mpf(2) ** -100

    def test_random_graphs_within_tolerance(self):
        # acceptance 8(a) scope lives in test_acceptance; spot-check here.
        # The difference quotient runs at 256 bits so its own noise cannot
        # mask entries that are small but above the exclusion cutoff.
        rng = np.random.default_rng(32)
        for _ in range(10):
            g = random_graph(rng, n_nodes=10)
            refs = g.all_coeff_refs()
            if not refs:
                continue
            pts = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
            pts /= np.maximum(1.0, np.abs(pts))
            J1 = eval_jac(g, pts, refs).entries
            gb = convert_precision(g, bigfloat(256))
            with mp.workprec(256):
                J2 = finite_diff_jac(gb, np.array([mp.mpc(z) for z in pts], dtype=object),
                                     refs, h=mp.mpf(2) ** -40).entries
            J2 = np.array([[complex(v) for v in row] for row in J2])
            mask = np.abs(J1) > 1e-10
            if mask.any():
                assert np.max(np.abs((J1 - J2)[mask] / J1[mask])) <= 1e-6


def _rel_diff(J1, J2):
    scale = max(abs(v) for v in J2.reshape(-1))
    return max(abs(a - b) for a, b in zip(J1.reshape(-1), J2.reshape(-1))) / scale


class TestAdjointAgainstForwardMode:
    """eval_jac against the forward-mode oracle at 256 bits."""

    @staticmethod
    def points(n=9):
        with mp.workprec(256):
            return np.array([mp.mpf(3) / 5 * mp.expjpi(mp.mpf(2 * k + 1) / n) for k in range(n)],
                            dtype=object)

    def check(self, g, refs):
        g = convert_precision(g, bigfloat(256))
        pts = self.points()
        J = eval_jac(g, pts, refs).entries
        with mp.workprec(256):
            assert _rel_diff(J, forward_jac(g, pts, refs)) <= mp.mpf(10) ** -70
        return J

    def test_node_as_both_parents(self):
        g = ComputationGraph()
        g.add_lincomb("L", 0.5, "I", -0.75, "A")
        g.add_mult("S", "L", "L")  # S = L*L
        g.add_lincomb("D", 0.3, "S", -1.25, "S")  # p1 = p2
        g.add_lincomb("O", 1.0, "D", 0.5, "L")
        g.set_outputs(["O"])
        J = self.check(g, g.all_coeff_refs())
        # dO/dL1 (the coefficient on I) = (2 (0.3 - 1.25) L + 0.5) * 1
        with mp.workprec(256):
            z = self.points()[2]
            L = mp.mpf(0.5) - mp.mpf(0.75) * z
            want = 2 * (mp.mpf(0.3) - mp.mpf(1.25)) * L + mp.mpf(0.5)
            assert abs(J[2, 2] - want) <= mp.mpf(10) ** -70

    def test_ldiv_chain(self):
        g = ComputationGraph()
        g.add_lincomb("D1", 2.0, "I", 0.5, "A")
        g.add_lincomb("N1", 1.0, "I", -0.25, "A")
        g.add_ldiv("X1", "D1", "N1")
        g.add_lincomb("D2", 1.5, "I", 0.3, "X1")
        g.add_ldiv("X2", "D2", "X1")  # X1 on both sides of a solve
        g.add_ldiv("X3", "X1", "X2")
        g.add_lincomb("O", 0.7, "X3", -0.2, "X1")
        g.set_outputs(["O"])
        self.check(g, g.all_coeff_refs())

    def test_refs_on_both_slots_and_an_unreached_coefficient(self):
        g, cref = graph_monomial_degopt([1.0, 1.0, 0.5, 1 / 6, 1 / 24])
        g.add_lincomb("dead", 3.0, "A", 4.0, "I")
        refs = g.all_coeff_refs()
        assert {r.slot for r in refs} == {1, 2}
        J = self.check(g, refs)
        dead = [k for k, r in enumerate(refs) if r.node == "dead"]
        assert dead and all(v == 0 for k in dead for v in J[:, k])

    def test_random_graphs(self):
        rng = np.random.default_rng(33)
        for _ in range(12):
            g = random_graph(rng, n_nodes=12)
            if g.all_coeff_refs():
                self.check(g, g.all_coeff_refs())


class TestWeightsAndValues:
    """The weighted adjoint seed and the values of the forward pass."""

    @pytest.mark.parametrize("prec, tol", [(256, mp.mpf(10) ** -70), (None, 1e-14)])
    def test_weights_scale_rows(self, prec, tol):
        rng = np.random.default_rng(34)
        pts = TestAdjointAgainstForwardMode.points() if prec else circle_discr(9, 0.6)
        for _ in range(6):
            g = random_graph(rng, n_nodes=12)
            refs = g.all_coeff_refs()
            if not refs:
                continue
            if prec:
                g = convert_precision(g, bigfloat(prec))
            with mp.workprec(prec or 53):
                w = 1 / eval_jac(g, pts, refs).values if prec else \
                    rng.standard_normal(9) + 1j * rng.standard_normal(9)
                J = eval_jac(g, pts, refs, weights=w).entries
                want = w[:, None] * eval_jac(g, pts, refs).entries
                assert _rel_diff(J, want) <= tol

    @pytest.mark.parametrize("prec", [256, None])
    def test_values_equal_eval_graph(self, prec):
        from matgraph import eval_graph

        rng = np.random.default_rng(35)
        pts = TestAdjointAgainstForwardMode.points() if prec else circle_discr(9, 0.6)
        for _ in range(6):
            g = random_graph(rng, n_nodes=12)
            if prec:
                g = convert_precision(g, bigfloat(prec))
            # weights scale the adjoint, never the values
            jac = eval_jac(g, pts, g.all_coeff_refs(), weights=rng.uniform(0.5, 2, 9))
            assert all(jac.values == eval_graph(g, pts))

    @pytest.mark.parametrize("prec", [256, None])
    def test_given_forward_pass_same_jacobian(self, prec):
        from matgraph.autodiff import forward_pass

        rng = np.random.default_rng(36)
        pts = TestAdjointAgainstForwardMode.points() if prec else circle_discr(9, 0.6)
        for _ in range(6):
            g = random_graph(rng, n_nodes=12)
            if prec:
                g = convert_precision(g, bigfloat(prec))
            refs = g.all_coeff_refs()
            want = eval_jac(g, pts, refs)
            got = eval_jac(g, pts, refs, slots=forward_pass(g, pts))
            assert np.array_equal(got.entries, want.entries)
            assert np.array_equal(got.values, want.values)

    def test_lazy_points_and_values_read_at_the_construction_precision(self):
        from matgraph import eval_graph

        g = convert_precision(random_graph(np.random.default_rng(37), n_nodes=12), bigfloat(256))
        with mp.workprec(1024):  # wider than the graph: reading them rounds
            pts = np.array([mp.exp(mp.mpc(0, 2) * mp.pi * k / 9) * mp.mpf(3) / 5
                            for k in range(9)], dtype=object)
        jac = eval_jac(g, pts, g.all_coeff_refs())
        with mp.workprec(256):
            want_points = [mp.mpc(z)._mpc_ for z in pts]
        want_values = [v._mpc_ for v in eval_graph(g, pts)]
        with mp.workprec(60):
            assert [z._mpc_ for z in jac.points] == want_points
            assert [v._mpc_ for v in jac.values] == want_values
        assert jac.points is jac.points and jac.values is jac.values
        assert jac.shape == (9, len(g.all_coeff_refs()))

    def test_weights_need_one_per_point(self):
        g, cref = graph_monomial([1.0, 2.0])
        with pytest.raises(ValueError, match="one weight per point"):
            eval_jac(g, circle_discr(5), cref, weights=np.ones(4))


def test_extended_graph_reads_binary64_points_exactly():
    # the adjoint and the differences run at 256 bits, not rounded to complex128
    g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
    g = convert_precision(g, bigfloat(256))
    pts = circle_discr(20)
    lifted = np.array([mp.mpc(z) for z in pts], dtype=object)
    for jac in (eval_jac, finite_diff_jac):
        got = jac(g, pts, cref).entries
        assert got.dtype == object and (got == jac(g, lifted, cref).entries).all()


def test_binary64_graph_reads_complex64_points_at_complex128():
    # the Jacobian and the values of complex64 points are those of the same
    # points in complex128, and so are a discretization's points
    g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
    pts = circle_discr(20).astype(np.complex64)
    wide = pts.astype(np.complex128)
    got, want = eval_jac(g, pts, cref), eval_jac(g, wide, cref)
    assert got.entries.dtype == got.values.dtype == np.complex128
    assert (got.entries == want.entries).all() and (got.values == want.values).all()
    points = Discretization(pts).points
    assert points.dtype == np.complex128 and (points == wide).all()


def test_forward_mode_oracle_reads_binary64_points_at_the_graphs_precision():
    # forward_jac lifts complex128 points to 256-bit mpc itself, so the two
    # Jacobians agree to 256-bit round-off, not to binary64's
    g, cref = graph_monomial_degopt([1.0 / math.factorial(j) for j in range(6)])
    g = convert_precision(g, bigfloat(256))
    pts = circle_discr(20)
    J = eval_jac(g, pts, cref).entries
    want = forward_jac(g, pts, cref)
    assert want.dtype == object
    with mp.workprec(256):
        assert _rel_diff(J, want) <= mp.mpf(10) ** -70


class TestErrors:
    def test_singularity_names_point(self):
        g = ComputationGraph()
        g.add_lincomb("D", 1.0, "A", 0.0, "I")
        g.add_ldiv("X", "D", "I")
        g.add_lincomb("S", 1.0, "X", 0.0, "I")
        g.set_outputs(["S"])
        pts = np.array([1.0, 0.0, 2.0], dtype=complex)
        from matgraph import SingularMatrixError

        with pytest.raises(SingularMatrixError, match="index 1"):
            eval_jac(g, pts, [CoeffRef("S", 1)])

    def test_points_of_two_dimensions_rejected(self):
        g, cref = graph_monomial([1.0, 1.0, 0.5])
        with pytest.raises(ValueError, match="2-d"):
            eval_jac(g, np.array([[0.1, 0.2], [0.3, 0.4]]), cref)
        # a scalar is one point
        assert eval_jac(g, 0.25, cref).shape == (1, 3)

    def test_multi_output_rejected(self):
        from matgraph import GraphError

        g, cref = graph_monomial([1.0, 1.0, 1.0])
        g.add_output("A2")
        with pytest.raises(GraphError):
            eval_jac(g, circle_discr(8), cref)
