import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffType,
    ComputationGraph,
    Degopt,
    DegoptError,
    OpKind,
    YksCoeffs,
    bigfloat,
    convert_scalar,
    degopt_from_graph,
    eval_graph,
    graph_degopt,
    graph_exp_pade_ss,
    graph_horner,
    graph_monomial,
    graph_newton_schulz,
    graph_ps,
    graph_yks,
    pade_exp_coeffs,
    render_cgr,
)
from matgraph.degopt import ps_block_size
from matgraph.numerics import working_precision

from support import degopt_degree, yks_eval_direct


def unit_circle(n, rng=None):
    k = np.arange(n)
    return np.exp(2j * np.pi * k / n)


class TestDegoptContainer:
    def test_free_count(self):
        for m in range(1, 7):
            HA = [[0.0] * (k + 2) for k in range(m)]
            HB = [[0.0] * (k + 2) for k in range(m)]
            d = Degopt(HA, HB, [0.0] * (m + 2))
            assert len(graph_degopt(d)[1]) == (m + 2) ** 2 - 2

    def test_row_tail_must_be_zero(self):
        with pytest.raises(DegoptError):
            Degopt([[0.0, 1.0, 5.0]], [[0.0, 1.0]], [0.0, 0.0, 1.0])

    def test_y_length(self):
        with pytest.raises(DegoptError):
            Degopt([[0.0, 1.0]], [[0.0, 1.0]], [0.0, 0.0])


class TestGraphDegopt:
    def test_cref_count_m4(self):
        c = [1.0 / math.factorial(j) for j in range(6)]
        g, cref = graph_degopt(degopt_from_graph(graph_monomial(c)[0]))
        assert len(cref) == 34

    def test_square_via_m1(self):
        d = Degopt([[0.0, 1.0]], [[0.0, 1.0]], [0.0, 0.0, 1.0])
        g, cref = graph_degopt(d)
        assert eval_graph(g, 3.0) == 9.0

    def test_mult_node_count(self):
        for m in (1, 2, 4):
            HA = [[1.0] * (k + 2) for k in range(m)]
            HB = [[1.0] * (k + 2) for k in range(m)]
            g, _ = graph_degopt(Degopt(HA, HB, [1.0] * (m + 2)))
            non_lincomb = sum(1 for op in g.operations.values() if op != OpKind.LINCOMB)
            assert non_lincomb == m

    def test_coeff_round_trip(self):
        rng = np.random.default_rng(3)
        m = 3
        HA = [list(rng.uniform(-1, 1, k + 2)) for k in range(m)]
        HB = [list(rng.uniform(-1, 1, k + 2)) for k in range(m)]
        y = list(rng.uniform(-1, 1, m + 2))
        d = Degopt(HA, HB, y)
        g, _ = graph_degopt(d)
        assert degopt_from_graph(g) == d

    def test_set_coeffs_then_eval(self):
        c = [1.0, 2.0, 3.0]
        g, cref = graph_degopt(degopt_from_graph(graph_monomial(c)[0]))
        vals = g.get_coeffs(cref)
        g.set_coeffs(cref, vals)
        assert eval_graph(g, 0.5) == pytest.approx(1 + 1 + 0.75)

    def test_ldiv_variant_denman_beavers_shifted(self):
        # two-step square-root iteration with shift, as a division-form layout:
        # B3 = (I+A)^{-1} I, B4 = (I/2 + B3/2)^{-1} I, B5 = (I + A/2)^{-1} I,
        # B6 = ((I + B3)/4 + B5/2)^{-1} I, r = B1/4 + A/8 + B4/4 + B6/2
        HA = [
            [1.0, 1.0],
            [0.5, 0.0, 0.5],
            [1.0, 0.5, 0.0, 0.0],
            [0.25, 0.0, 0.25, 0.0, 0.5],
        ]
        HB = [
            [1.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
        ]
        y = [0.25, 0.125, 0.0, 0.25, 0.0, 0.5]
        d = Degopt(HA, HB, y, row_ops=[OpKind.LDIV] * 4)
        g, _ = graph_degopt(d)
        z = 0.4j
        err = abs(eval_graph(g, z) - np.sqrt(1 + z))
        assert 1e-9 <= err <= 2.7e-8
        # the layout is exactly the two-step shifted iteration built node-wise
        from matgraph import graph_denman_beavers

        gen, cref = graph_denman_beavers(2)
        gen.rename_node("A", "A_shift", cref)
        gen.add_lincomb("A_shift", 1.0, "A", 1.0, "I")
        assert abs(eval_graph(g, z) - eval_graph(gen, z)) < 1e-14


class TestSchemes:
    def test_monomial_value(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        assert eval_graph(g, 0.1) == 1.03

    def test_ps_taylor11_near_exp(self):
        c = [1.0 / math.factorial(j) for j in range(12)]
        g, _ = graph_ps(c)
        for z in 0.1 * unit_circle(20):
            rel = abs(eval_graph(g, z) - np.exp(z)) / abs(np.exp(z))
            assert rel <= 1e-10

    def test_horner_matches_monomial(self):
        rng = np.random.default_rng(12)
        u = 2.0 ** -53
        c = list(rng.uniform(-1, 1, 8))
        gh, _ = graph_horner(c)
        gm, _ = graph_monomial(c)
        for z in rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50):
            a, b = eval_graph(gh, z), eval_graph(gm, z)
            assert abs(a - b) <= 50 * u * (1 + abs(b))

    def test_ps_multiplication_counts(self):
        # degree -> multiplications: the economical block sizes
        expected = {2: 1, 4: 2, 6: 3, 9: 4, 12: 5, 16: 6, 20: 7, 25: 8}
        for deg, mults in expected.items():
            g, _ = graph_ps([1.0] * (deg + 1))
            got = sum(1 for op in g.operations.values() if op == OpKind.MULT)
            assert got == mults, f"degree {deg}: {got} != {mults}"

    def test_block_size_deg11_prefers_sqrt(self):
        assert ps_block_size(11) == 4

    def test_monomial_mult_count(self):
        g, _ = graph_monomial([1.0] * 8)
        assert sum(1 for op in g.operations.values() if op == OpKind.MULT) == 6

    def test_numpy_coefficients(self):
        g, _ = graph_ps(np.array([1, 1, 2]))
        assert g == graph_ps([1.0, 1.0, 2.0])[0]
        assert eval_graph(g, 0.5) == 2.0

    def test_binary64_coefficient_beyond_the_range_is_infinite(self):
        g, refs = graph_ps([1, 10 ** 400])
        assert g.get_coeffs(refs) == [1.0, math.inf]
        g.add_lincomb("B", -(10 ** 400), "A", Fraction(10 ** 400, 3), "I")
        assert g.coeffs["B"] == (-math.inf, math.inf)

    def test_exact_coefficients_round_once(self):
        c = pade_exp_coeffs(5, exact=True)
        g, refs = graph_ps(c, bigfloat(256))
        with mp.workprec(256):  # two exact operands, one rounding
            want = [mp.mpf(v.numerator) / v.denominator for v in c]
        assert [v._mpf_ for v in g.get_coeffs(refs)] == [v._mpf_ for v in want]


class TestSchemeAccuracyVsCompensated:
    def test_against_high_precision_horner(self):
        rng = np.random.default_rng(13)
        u = 2.0 ** -53
        for builder in (graph_monomial, graph_horner, graph_ps):
            c = list(rng.uniform(-1, 1, 13))
            g, _ = builder(c)
            zs = unit_circle(100)
            vals = eval_graph(g, zs)
            with working_precision(106):
                for z, v in zip(zs, vals):
                    zz = mp.mpc(z)
                    acc = mp.mpc(0)
                    for ck in reversed(c):
                        acc = acc * zz + ck
                    assert abs(v - acc) <= 50 * u * (1 + abs(acc))


class TestEmbeddings:
    def test_monomial_pattern_degree6(self):
        c = [float(j + 1) for j in range(7)]
        d = degopt_from_graph(graph_monomial(c)[0])
        assert d.m == 5
        for k in range(5):
            row = [0.0] * 6
            row[k + 1] = 1.0
            assert d.HA[k] == row
            rb = [0.0] * 6
            rb[1] = 1.0
            assert d.HB[k] == rb
        assert d.y == c

    def test_horner_pattern_degree6(self):
        c = [float(j + 1) for j in range(7)]
        d = degopt_from_graph(graph_horner(c)[0])
        assert d.HA[0][:2] == [c[5], c[6]]
        for k in range(1, 5):
            assert d.HA[k][0] == c[5 - k]
            assert d.HA[k][k + 1] == 1.0
        assert d.y[0] == c[0] and d.y[-1] == 1.0

    def test_ps_pattern_degree11(self):
        c = [1.0 / math.factorial(j) for j in range(12)]
        d = degopt_from_graph(graph_ps(c)[0])
        assert d.m == 5
        # graph_ps multiplies block-on-the-left, C_k = acc * x^4, so the blocks sit in HA
        assert d.HA[3][:5] == [c[8], c[9], c[10], c[11], 0.0]
        assert d.HA[4][:6] == [c[4], c[5], c[6], c[7], 0.0, 1.0]
        assert d.HB[3][:5] == d.HB[4][:5] == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert d.y == [c[0], c[1], c[2], c[3], 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("scheme", ["monomial", "horner", "ps"])
    def test_embedding_round_trip(self, scheme):
        rng = np.random.default_rng(14)
        u = 2.0 ** -53
        c = list(rng.uniform(-1, 1, 12))
        direct = {"monomial": graph_monomial, "horner": graph_horner, "ps": graph_ps}[scheme]
        g1, _ = direct(c)
        g2, _ = graph_degopt(degopt_from_graph(g1))
        for z in rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50):
            a, b = eval_graph(g1, z), eval_graph(g2, z)
            assert abs(a - b) <= 10 * u * (1 + abs(a))

    def test_first_row_normalized_monomial(self):
        # embedding fixes row 1 to [0 1 | 0 1] by construction
        d = degopt_from_graph(graph_monomial([1.0, 2.0, 3.0, 4.0])[0])
        assert d.HA[0][:2] == [0.0, 1.0] and d.HB[0][:2] == [0.0, 1.0]


class TestDegoptFromGraph:
    def test_native_exp_layout_degree13_one_squaring(self):
        b = pade_exp_coeffs(13)
        d = degopt_from_graph(graph_exp_pade_ss(13, 1)[0])
        # A2, A4, A6, W1, U, W2, then (V-U) \ (V+U), then one squaring
        assert d.m == 8
        assert d.row_ops == [OpKind.MULT] * 6 + [OpKind.LDIV, OpKind.MULT]
        # basis: I, A, A2, A4, A6, W1, U, W2, R0; V = b0 I + b2 A2 + b4 A4 + b6 A6 + W2
        v = [b[0], 0.0, b[2], b[4], b[6], 0.0, 0.0, 1.0, 0.0]
        assert d.HA[6] == v[:6] + [-1.0] + v[7:]
        assert d.HB[6] == v[:6] + [1.0] + v[7:]
        # A/2 enters only through the input column of A2 = (A/2)^2 and U = (A/2) * Us
        assert [row[1] for row in d.HA] == [0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]
        assert [row[1] for row in d.HB] == [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert d.HB[4][:6] == [b[1], 0.0, b[3], b[5], b[7], 1.0]
        assert d.HA[7] == d.HB[7] == [0.0] * 8 + [1.0]
        assert d.y == [0.0] * 9 + [1.0]

    def test_newton_schulz_layout_two_iterations(self):
        d = degopt_from_graph(graph_newton_schulz(2)[0])
        # W1 = A*A, X1 = A*(2I - W1), W2 = A*X1, X2 = X1*(2I - W2)
        assert d.HA == [[0, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]
        assert d.HB == [[0, 1, 0, 0, 0], [2, 0, -1, 0, 0], [0, 0, 0, 1, 0], [2, 0, 0, 0, -1]]
        assert d.y == [0, 0, 0, 0, 0, 1]
        assert set(d.row_ops) == {OpKind.MULT}

    def test_products_formed_at_coefficient_precision(self):
        # row 3 is U = A * (b1 I + b3 A^2 + b5 A^4); b1 = 1/2 is exact at any
        # precision, b3 = 1/72 and b5 = 1/30240 are not
        b = pade_exp_coeffs(5, exact=True)
        ct = bigfloat(256)
        g, _ = graph_degopt(degopt_from_graph(graph_exp_pade_ss(5, 0, ct)[0]), ct)
        got = g.get_coeffs([("Bb3_sum1", 1), ("Bb3_sum2", 2), ("Bb3", 2)])
        assert got == [convert_scalar(b[j], ct) for j in (1, 3, 5)]

    def test_two_outputs_rejected(self):
        g = ComputationGraph()
        g.add_mult("P", "A", "A")
        g.add_lincomb("Q", 1.0, "P", 1.0, "I")
        g.set_outputs(["P", "Q"])
        with pytest.raises(DegoptError):
            degopt_from_graph(g)

    def test_no_product_rejected(self):
        g = ComputationGraph()
        g.add_lincomb("P", 1.0, "I", 2.0, "A")
        g.set_outputs(["P"])
        with pytest.raises(DegoptError):
            degopt_from_graph(g)

    def test_round_trip_mixed_rows(self):
        rng = np.random.default_rng(17)
        for m in (1, 2, 3, 5):
            HA = [list(rng.uniform(-1, 1, k + 2)) for k in range(m)]
            HB = [list(rng.uniform(-1, 1, k + 2)) for k in range(m)]
            y = list(rng.uniform(-1, 1, m + 2))
            ops = [OpKind.MULT if k % 2 == 0 else OpKind.LDIV for k in range(m)]
            d = Degopt(HA, HB, y, row_ops=ops)
            assert degopt_from_graph(graph_degopt(d)[0]) == d


# sha256 of render_cgr for embeddings made by the former graph_horner_degopt,
# graph_ps_degopt, graph_newton_schulz_degopt and graph_exp_pade_ss_degopt;
# the two-call form graph_degopt(degopt_from_graph(g), ct) must reproduce them
PINNED_POLY = {
    ("horner", 53): "1168d0b65c071a958e8b166ef5a90920c9963f3f0d62099336e5f74c9ac63797",
    ("horner", 256): "2ca61cb77abc29649c57b1b86c55b1fb28480896da196041bd654239259f0c6c",
    ("ps", 53): "3cd80b20a645739d29edaff83fc66309aef2d8854516f5dfa7fe2f43d96f75af",
    ("ps", 256): "384ec532eeefc4337638d8017ecce5f943bc21be4ad0e278f184defbc5fa88e8",
}
PINNED_NEWTON_SCHULZ = {
    2: "c6b83fcbcd746bcd5f3e405c02b55e5043e1712c3bce40f40923e948ac1af4fe",
    3: "eda413e9e5aa2fb780ca9272b7e873484e57b2724a411961cfde4dd18d559db6",
}
PINNED_PADE = {
    (3, 0): "29ba5cf36a21bee5924fce447427a7ec18ece383efcbcee025065bce9adec817",
    (3, 1): "d924788aca07683f16987d0a824d242515bdadad03a7f7edcb659e565eb6ec8c",
    (5, 0): "f58204898178909e34597e10a2ec6cc54bd3ae1b17f094f617620b95c38dd2e3",
    (5, 1): "8988a908c28fae62404fbcbd4f75109cc22a4ab6e330fb1ba6d5d0c9b7c9ec99",
    (7, 0): "e0e1d9b5559996ce64b8d237301edb858fb9788573c7a4792284592ea937ccf3",
    (7, 1): "6178fed995a76bd3db223e7e4eb309a6e06915f2c51b7223cbb85be981d7fec6",
    (9, 0): "d757207e54dbc899ff8275a437ed79dd187b44ad4068bccda7e76ac97185d86a",
    (9, 1): "119d27abb0aba18bd5eb7ca24bb18102f0a097bf69503f12201eac2df5e25863",
    (13, 0): "7e24a688b3c3485ea04ea4b1a645313e50f5861c60b8dfbe9bfa7336dc8a8047",
    (13, 1): "6858e6ff2faa546f1683bb58470a2d01e096389902fb24b19698e139b8cb9bf3",
}
PINNED_COEFFS = [1.0, 0.5, 1 / 6, 1 / 24, 1 / 120, 1 / 720, 0.3, -0.7, 1 / 3, 2.5]


def _embedded_digest(g, ct):
    text = render_cgr(graph_degopt(degopt_from_graph(g), ct)[0])
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedEmbeddings:
    @pytest.mark.parametrize("scheme, bits", sorted(PINNED_POLY))
    def test_polynomial_scheme(self, scheme, bits):
        ct = bigfloat(bits) if bits > 53 else CoeffType()
        c = [convert_scalar(x, ct) for x in PINNED_COEFFS]
        build = {"horner": graph_horner, "ps": graph_ps}[scheme]
        assert _embedded_digest(build(c, ct)[0], ct) == PINNED_POLY[scheme, bits]

    @pytest.mark.parametrize("iters", sorted(PINNED_NEWTON_SCHULZ))
    def test_newton_schulz_256(self, iters):
        ct = bigfloat(256)
        g, _ = graph_newton_schulz(iters, ct)
        assert _embedded_digest(g, ct) == PINNED_NEWTON_SCHULZ[iters]

    @pytest.mark.parametrize("degree, squarings", sorted(PINNED_PADE))
    def test_exp_pade_256(self, degree, squarings):
        ct = bigfloat(256)
        g, _ = graph_exp_pade_ss(degree, squarings, ct)
        assert _embedded_digest(g, ct) == PINNED_PADE[degree, squarings]


class TestDegree:
    def test_generic_m3_is_8(self):
        rng = np.random.default_rng(15)
        HA = [list(rng.uniform(0.5, 1.5, k + 2)) for k in range(3)]
        HB = [list(rng.uniform(0.5, 1.5, k + 2)) for k in range(3)]
        y = list(rng.uniform(0.5, 1.5, 5))
        assert degopt_degree(Degopt(HA, HB, y)) == 8

    def test_monomial_embedding_degree6(self):
        d = degopt_from_graph(graph_monomial([1.0] * 7)[0])
        assert degopt_degree(d) == 6

    def test_constant(self):
        d = Degopt([[0.0, 1.0]], [[0.0, 1.0]], [1.0, 0.0, 0.0])
        assert degopt_degree(d) == 0

    def test_ldiv_variant_rejected(self):
        d = Degopt([[1.0, 1.0]], [[1.0, 0.0]], [0.0, 0.0, 1.0], row_ops=[OpKind.LDIV])
        with pytest.raises(DegoptError):
            degopt_degree(d)


def _random_yks(rng, s):
    return YksCoeffs(s, c=list(rng.uniform(-1, 1, s)), d=list(rng.uniform(-1, 1, s)),
                     e=list(rng.uniform(-1, 1, s - 1)), e0=float(rng.uniform(-1, 1)),
                     f=list(rng.uniform(-1, 1, s + 1)))


class TestYks:
    @pytest.mark.parametrize("s", range(2, 7))
    def test_graph_matches_direct_recursion(self, s):
        rng = np.random.default_rng(160 + s)
        spec = _random_yks(rng, s)
        zs = [complex(z) for z in rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)]
        g, _ = graph_yks(spec)
        for z in zs:
            b = yks_eval_direct(spec, z)
            assert abs(eval_graph(g, z) - b) <= 100 * 2.0 ** -53 * (1 + abs(b))
        g, _ = graph_yks(spec, bigfloat(256))
        with working_precision(256):
            for z in map(mp.mpc, zs):
                b = yks_eval_direct(spec, z)
                got = eval_graph(g, z)
                assert isinstance(got, mp.mpc)
                assert abs(got - b) <= 2 ** -230 * (1 + abs(b))

    @pytest.mark.parametrize("s", range(2, 7))
    def test_refs_address_c_d_e_e0_f(self, s):
        spec = _random_yks(np.random.default_rng(170 + s), s)
        g, refs = graph_yks(spec)
        assert g.get_coeffs(refs) == spec.c + spec.d + spec.e + [spec.e0] + spec.f

    def test_matches_direct_recursion(self):
        rng = np.random.default_rng(16)
        for s in (2, 3):
            spec = YksCoeffs(
                s,
                c=list(rng.uniform(-1, 1, s)),
                d=list(rng.uniform(-1, 1, s)),
                e=list(rng.uniform(-1, 1, s - 1)),
                e0=float(rng.uniform(-1, 1)),
                f=list(rng.uniform(-1, 1, s + 1)),
            )
            g, _ = graph_degopt(degopt_from_graph(graph_yks(spec)[0]))
            u = 2.0 ** -53
            for z in rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50):
                a = eval_graph(g, complex(z))
                b = yks_eval_direct(spec, complex(z))
                assert abs(a - b) <= 100 * u * (1 + abs(b))

    def test_s3_layout_mask(self):
        spec = YksCoeffs(3, c=[4.0, 5.0, 6.0], d=[1.0, 2.0, 3.0], e=[7.0, 8.0],
                         e0=9.0, f=[10.0, 11.0, 12.0, 13.0])
        d = degopt_from_graph(graph_yks(spec)[0])
        assert d.m == 4
        assert d.HA[0][:2] == [0.0, 1.0]
        assert d.HA[1][:3] == [0.0, 0.0, 1.0]
        assert d.HA[2][:4] == [0.0, 0.0, 0.0, 1.0]
        assert d.HB[2][:4] == [0.0, 4.0, 5.0, 6.0]
        assert d.HA[3][:5] == [0.0, 1.0, 2.0, 3.0, 1.0]
        assert d.HB[3][:5] == [0.0, 0.0, 7.0, 8.0, 1.0]
        assert d.y == [10.0, 11.0, 12.0, 13.0, 9.0, 1.0]

    def test_zero_coefficients_constant(self):
        spec = YksCoeffs(2, c=[0.0, 0.0], d=[0.0, 0.0], e=[0.0], e0=0.0,
                         f=[5.0, 0.0, 0.0])
        g, _ = graph_degopt(degopt_from_graph(graph_yks(spec)[0]))
        assert eval_graph(g, 1.7) == 5.0

    def test_malformed_bundle(self):
        with pytest.raises(DegoptError):
            YksCoeffs(2, c=[1.0], d=[1.0, 2.0], e=[1.0], e0=0.0, f=[1.0, 2.0, 3.0])


class TestBadInput:
    @pytest.mark.parametrize("make, message", [
        (lambda: Degopt([], [], [0.0, 1.0]), "need at least one product row"),
        (lambda: Degopt([[0.0, 1.0]], [], [0.0, 0.0, 1.0]),
         "HA and HB must have the same number of rows"),
        (lambda: Degopt([[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0, 1.0]], [0.0] * 4),
         "row 2 must provide at least 3 entries"),
        (lambda: Degopt([[0.0, 1.0, 5.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]], [0.0] * 4),
         "row 1 entry 3 must be zero"),
        (lambda: Degopt([[0.0, 1.0]], [[0.0, 1.0]], [0.0, 0.0, 1.0], row_ops=[]),
         "row_ops must have one entry per row"),
        (lambda: Degopt([[0.0, 1.0]], [[0.0, 1.0]], [0.0, 0.0, 1.0], row_ops=[OpKind.LINCOMB]),
         "row operations must be mult or ldiv"),
        (lambda: graph_horner([]), "need at least one coefficient"),
        (lambda: graph_ps([1.0, "x"]), "coefficients must be scalars"),
        (lambda: YksCoeffs(1, c=[1.0], d=[1.0], e=[], e0=0.0, f=[1.0, 2.0]), r"the scheme needs s >= 2"),
        (lambda: YksCoeffs(2, c=[1.0, 2.0], d=[1.0, 2.0], e=[], e0=0.0, f=[1.0, 2.0, 3.0]),
         r"e must have length s-1 = 1"),
        (lambda: YksCoeffs(2, c=[1.0, 2.0], d=[1.0, 2.0], e=[1.0], e0=0.0, f=[1.0, 2.0]),
         r"f must have length s\+1 = 3"),
    ])
    def test_refused_with_its_reason(self, make, message):
        with pytest.raises(DegoptError, match=message):
            make()


class TestLowDegrees:
    @pytest.mark.parametrize("scheme", [graph_horner, graph_ps])
    def test_a_constant_is_a_graph_of_its_one_coefficient(self, scheme):
        g, refs = scheme([2.5])
        assert g.get_coeffs(refs) == [2.5]
        assert eval_graph(g, 0.75) == 2.5

    def test_block_size_below_degree_one_is_one(self):
        assert [ps_block_size(d) for d in (-1, 0, 1, 2)] == [1, 1, 1, 2]

    def test_ps_refs_address_every_coefficient_in_order(self):
        # every block holds at least two coefficients, so each block's first
        # node carries two of them
        for d in range(1, 65):
            c = [float(k + 1) for k in range(d + 1)]
            g, refs = graph_ps(c)
            assert g.get_coeffs(refs) == c
            assert eval_graph(g, 0.5) == pytest.approx(sum(ck * 0.5 ** k for k, ck in enumerate(c)),
                                                       rel=1e-15)
