from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from matgraph import ComputationGraph, bigfloat, erroranalysis, eval_graph, graph_exp_pade_ss
from matgraph.numerics import working_precision
from matgraph.series import FixedSeries, SeriesError, TruncSeries

from support import series_divide_loop, series_exp, series_exp_neg, series_log, series_log_loop, series_mul_loop


def coeffs_of(s):
    return [float(c) for c in s.coeffs]


class TestAdd:
    def test_cancellation(self):
        a = TruncSeries([1, 1], 2)
        b = TruncSeries([1, -1], 2)
        assert coeffs_of(a + b) == [2, 0, 0]

    def test_identity(self):
        e = series_exp(5)
        z = TruncSeries.constant(0, 5)
        assert e + z == e

    def test_hand_sum(self):
        # (1 + x + x^2) + (x + x^2) = 1 + 2x + 2x^2
        a = TruncSeries([1, 1, 1])
        b = TruncSeries([0, 1, 1])
        assert coeffs_of(a + b) == [1, 2, 2]

    def test_padding(self):
        a = TruncSeries([1, 1])
        b = TruncSeries([1, 0, 0, 3])
        assert coeffs_of(a + b) == [2, 1, 0, 3]


class TestMul:
    def test_difference_of_squares(self):
        a = TruncSeries([1, 1], 2)
        b = TruncSeries([1, -1], 2)
        assert coeffs_of(a * b) == [1, 0, -1]

    def test_exp_times_expneg(self):
        with working_precision(256):
            p = series_exp(20) * series_exp_neg(20)
            assert abs(p.coeffs[0] - 1) < mp.mpf("1e-60")
            assert all(abs(c) < mp.mpf("1e-18") for c in p.coeffs[1:])

    def test_truncation(self):
        x = TruncSeries.identity(1)
        assert coeffs_of(x * x) == [0, 0]


class TestCompose:
    def test_backward_error_series_shape(self):
        # log of the composite e^{-z} p(z) for p = truncated exp:
        # the leading backward-error coefficient is -z^{d+1}/(d+1)! + O(z^{d+2})
        with working_precision(256):
            n = 30
            d = 5
            p = TruncSeries([1 / mp.factorial(j) if j <= d else mp.mpf(0) for j in range(n + 1)])
            h = series_exp_neg(n) * p
            h.coeffs[0] = mp.mpf(1)
            phi = series_log(h)
            assert all(abs(c) < mp.mpf("1e-70") for c in phi.coeffs[: d + 1])
            lead = -1 / mp.factorial(d + 1)
            assert abs(phi.coeffs[d + 1] - lead) < abs(lead) * mp.mpf("1e-10")


class TestLog:
    def test_log_of_exp_is_identity(self):
        with working_precision(256):
            phi = series_log(series_exp(40))
            assert abs(phi.coeffs[1] - 1) < mp.mpf("1e-70")
            assert phi.coeffs[0] == 0
            assert all(abs(c) < mp.mpf("1e-70") for c in phi.coeffs[2:])

    def test_log_one_plus_z(self):
        # log(1+z) = sum_k (-1)^(k+1) z^k / k
        with working_precision(128):
            phi = series_log(TruncSeries([mp.mpf(1), mp.mpf(1)], 12))
            assert phi.coeffs[0] == 0
            for k in range(1, 13):
                want = mp.mpf((-1) ** (k + 1)) / k
                assert abs(phi.coeffs[k] - want) < mp.mpf("1e-35")

    @pytest.mark.parametrize("c0", [0, 2, mp.mpf(1) + mp.mpf(2) ** -40])
    def test_constant_term_not_one_rejected(self, c0):
        with pytest.raises(SeriesError):
            series_log(TruncSeries([c0, 1], 3))

    @pytest.mark.parametrize("offset, im0, rad0", [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                             ids=["not-one", "imaginary-part", "radius"])
    def test_fixed_constant_term_not_exactly_one_rejected(self, offset, im0, rad0):
        # the certifier's log needs h_0 = 1 exactly: one unit off, an
        # imaginary unit, or a radius of one unit is refused
        F = 64
        h = FixedSeries([(1 << F) + offset, 1 << F], [im0, 1], [rad0, 0], 3, F)
        with pytest.raises(SeriesError, match="constant term 1"):
            h.log()


class TestDivide:
    def test_inverse_of_exp(self):
        with working_precision(128):
            one = TruncSeries.constant(1, 15)
            inv = one.divide(series_exp(15))
            neg = series_exp_neg(15)
            assert all(abs(a - b) < mp.mpf("1e-30") for a, b in zip(inv.coeffs, neg.coeffs))

    def test_zero_constant_term_rejected(self):
        with pytest.raises(SeriesError):
            TruncSeries.constant(1, 3).divide(TruncSeries.identity(3))


def _dense(seed, n):
    # 200-bit values with no exact zeros, so every product and sum rounds
    return TruncSeries([mp.mpf(1)] + [mp.sqrt(k + seed) / (k + 3) for k in range(1, n + 1)])


def _sparse(seed, n):
    # zeros among the coefficients, plain ints and floats next to mpf
    return TruncSeries([mp.mpf(1), 0, 0.5, 0, mp.sqrt(seed + 2), 0, 0, 3]
                       + [mp.mpf(1) / (k + seed) if k % 3 == 0 else 0 for k in range(8, n + 1)])


def _complex(seed, n):
    return TruncSeries([mp.mpc(1, 0)] + [mp.mpc(mp.sqrt(k + seed), 0 if k % 4 else -1) / (k + 1)
                                         for k in range(1, n + 1)])


class TestAgainstPlainLoops:
    """Nonzero lists and the hoisted j * phi_j keep every rounding of the plain loops."""

    KINDS = [_dense, _sparse, _complex]

    @pytest.mark.parametrize("make", KINDS)
    @pytest.mark.parametrize("na, nb", [(30, 30), (30, 17), (9, 30)])
    def test_mul_bit_exact(self, make, na, nb):
        with working_precision(200):
            a, b = make(1, na), make(2, nb)
            for x, y in [(a, b), (b, a), (a, _sparse(3, nb)), (_sparse(3, na), b)]:
                assert (x * y).coeffs == series_mul_loop(x, y)

    @pytest.mark.parametrize("make", KINDS)
    def test_divide_bit_exact(self, make):
        with working_precision(200):
            num, den = make(1, 30), make(2, 30)
            for x, y in [(num, den), (num, _sparse(3, 30)), (_sparse(3, 30), den),
                         (num, TruncSeries([2, 0, 0, 0, mp.mpf(1) / 3], 12))]:
                assert x.divide(y).coeffs == series_divide_loop(x, y)

    @pytest.mark.parametrize("make", KINDS)
    def test_log_bit_exact(self, make):
        with working_precision(200):
            for h in [make(1, 40), make(5, 3), TruncSeries([1], 0)]:
                assert series_log(h).coeffs == series_log_loop(h)

    def test_log_of_backward_error_product_bit_exact(self):
        # the certification path: log(e^{-z} p(z)) at 1024 bits
        with working_precision(1024):
            p = TruncSeries([1 / mp.factorial(j) for j in range(6)], 60)
            h = series_exp_neg(60) * p
            h.coeffs[0] = mp.mpf(1)
            assert series_log(h).coeffs == series_log_loop(h)


def complex_graph():
    """(1 + c1 z)^2 / (1 + c2 z) with genuinely complex 256-bit c1, c2: a product and a solve."""
    with mp.workprec(256):
        c1, c2 = mp.mpc(1, 2) / 3, mp.mpc(-1, 1) / 7
    g = ComputationGraph(bigfloat(256, True))
    g.add_lincomb("B", c1, "A", 1, "I")
    g.add_mult("B2", "B", "B")
    g.add_lincomb("D", 1, "I", c2, "A")
    g.add_ldiv("R", "D", "B2")
    g.set_outputs(["R"])
    return g


def test_read_floors_a_rational_with_a_unit_radius():
    # not through float(1/3), which is about 2^146 units of 2^-200 off
    s = FixedSeries.read([Fraction(1, 3)], 0, 200)
    assert s.re == [2 ** 200 // 3]
    assert s.rad == [1]


class TestCarriedRadius:
    """Every FixedSeries coefficient lies within its carried radius of a 4096-bit reference."""

    N = 60

    @staticmethod
    def check_within(fixed, ref):
        with mp.workprec(8192):
            unit = mp.mpf(2) ** -fixed.frac
            slack = mp.mpf(2) ** -3900  # the reference's own rounding, far below a unit
            for j, r in enumerate(fixed.rad + [0] * (fixed.nterms + 1 - len(fixed.rad))):
                err = abs(fixed.value(j) - ref.coeffs[j])
                assert err <= r * unit + slack, (j, err / unit, r)

    @pytest.mark.parametrize("make", [lambda: graph_exp_pade_ss(13, 1, bigfloat(256))[0],
                                      complex_graph], ids=["pade(13,1)", "complex"])
    def test_graph_series_h_and_log_within_radius(self, make):
        g, n = make(), self.N
        gs = erroranalysis._graph_series(g, n, 1024, 1024 + 64)
        h = FixedSeries.exp_neg(n, gs.frac) * gs
        with working_precision(4096):
            ref_g = eval_graph(g, TruncSeries.identity(n), 4096)
            ref_h = series_exp_neg(n) * ref_g
        self.check_within(gs, ref_g)
        self.check_within(h, ref_h)
        assert max(h.rad) > 0
        h.set_constant(1)
        with working_precision(4096):
            ref_h.coeffs[0] = mp.mpf(1)
            ref_phi = series_log(ref_h)
        phi = h.log()
        self.check_within(phi, ref_phi)
        # sound, and small: below 2^-900 absolute
        assert max(phi.rad) < 2 ** (phi.frac - 900)


coeff_lists = st.lists(
    st.floats(-3, 3, allow_nan=False).filter(lambda x: x == x), min_size=1, max_size=6
)


@settings(max_examples=80, deadline=None)
@given(a=coeff_lists, b=coeff_lists)
def test_mul_commutative_exact(a, b):
    # exact equality needs order-independent sums: use dyadic coefficients
    n = 6
    sa = TruncSeries([int(x * 8) / 8 for x in a], n)
    sb = TruncSeries([int(x * 8) / 8 for x in b], n)
    assert sa * sb == sb * sa


@settings(max_examples=60, deadline=None)
@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
def test_mul_associative_exact(a, b, c):
    # exact coefficient equality at fixed nterms over integer-scaled inputs
    n = 6
    sa = TruncSeries([int(x * 4) for x in a], n)
    sb = TruncSeries([int(x * 4) for x in b], n)
    sc = TruncSeries([int(x * 4) for x in c], n)
    left = (sa * sb) * sc
    right = sa * (sb * sc)
    assert left == right


def test_horner_evaluation():
    s = TruncSeries([1, 2, 3])
    assert s(2.0) == 1 + 4 + 12


class TestTruncSeriesConstruction:
    def test_nterms_truncates_or_pads(self):
        assert TruncSeries([1, 2, 3, 4], 2).coeffs == [1, 2, 3]
        assert TruncSeries([1, 2], 3).coeffs == [1, 2, 0, 0]

    def test_repr_shows_the_first_four_coefficients(self):
        assert repr(TruncSeries([1, 2], 1)) == "TruncSeries([1, 2], nterms=1)"
        assert repr(TruncSeries(range(6))) == "TruncSeries([0, 1, 2, 3, ...], nterms=5)"

    @pytest.mark.parametrize("make, message", [
        (lambda: TruncSeries([]), "a series needs at least the constant coefficient"),
        (lambda: TruncSeries.identity(0), "identity series needs nterms >= 1"),
    ])
    def test_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()


@pytest.mark.parametrize("den", [FixedSeries.identity(3, 64),
                                 FixedSeries.read([Fraction(1, 2 ** 80), 1], 3, 64)],
                         ids=["zero", "within-its-radius"])
def test_fixed_division_by_a_constant_term_that_may_be_zero_refused(den):
    with pytest.raises(SeriesError, match="^series division by a series with zero constant term$"):
        FixedSeries.constant(1, 3, 64).divide(den)
