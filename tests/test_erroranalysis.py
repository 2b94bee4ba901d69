import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    EPS64,
    CertificationError,
    ComputationGraph,
    GraphError,
    RunErrMode,
    ThetaKind,
    TruncSeries,
    bigfloat,
    compute_bwd_theta_exp,
    compute_fwd_theta,
    convert_precision,
    eval_graph,
    eval_runerr,
    graph_exp_pade_ss,
    graph_monomial,
    working_precision,
)
from matgraph import erroranalysis

from support import (as_fraction, as_integers, radius_exact_only, random_graph, series_exp,
                     series_exp_neg, series_log)


def taylor_graph(deg):
    return graph_monomial([1.0 / math.factorial(j) for j in range(deg + 1)])


class TestForwardTheta:
    def test_degree5_matches_partial_sum_bisection(self):
        # independent oracle: bisection on the tail sum_{j>=6} z^j/j! = u
        g, _ = taylor_graph(5)
        u = 2.0 ** -53
        res = compute_fwd_theta(g, series_exp(60), u=u)
        with mp.workprec(200):
            def tail(t):
                return mp.fsum(t ** j / mp.factorial(j) for j in range(6, 80))

            lo, hi = mp.mpf("1e-6"), mp.mpf(2)
            for _ in range(300):
                mid = (lo + hi) / 2
                if tail(mid) <= u:
                    lo = mid
                else:
                    hi = mid
            oracle = lo
            assert abs(res.theta - oracle) <= oracle * mp.mpf("1e-12")

    # theta (mantissa, exponent) and the largest carried radius of the
    # degree-5 Taylor graph against exp, at 1024 bits: the same at 60 and
    # 100 terms, as the target's terms past degree 60 are far below u there
    @pytest.mark.parametrize("nterms", [60, 100])
    def test_degree5_pinned(self, nterms):
        g, _ = taylor_graph(5)
        res = compute_fwd_theta(g, series_exp(nterms))
        assert (res.theta.man, res.theta.exp) == (0x6b8445299592318ce7f4dc44b, -106)
        with mp.workprec(1024):
            assert res.bracket == (res.theta, res.theta * (1 + mp.mpf("1e-6")))
        assert (res.rounding.man, res.rounding.exp) == (1, -317)

    def test_self_comparison_saturates(self):
        g, _ = taylor_graph(8)
        f = eval_graph(g, TruncSeries.identity(30))
        res = compute_fwd_theta(g, f)
        assert res.saturated

    def test_constant_offset_certificate(self):
        u = 2.0 ** -53
        g, _ = taylor_graph(4)
        coeffs = [1.0 + u / 2] + [1.0 / math.factorial(j) for j in range(1, 5)]
        g2, _ = graph_monomial(coeffs)
        res = compute_fwd_theta(g2, series_exp(40), u=u)
        assert float(res.theta) > 0
        assert res.bracket is not None

    def test_offset_above_u_gives_zero(self):
        g, _ = graph_monomial([1.0 + 1e-10, 1.0])
        f = TruncSeries([1.0, 1.0], 10)
        res = compute_fwd_theta(g, f, u=2.0 ** -53)
        assert float(res.theta) == 0.0

    @pytest.mark.parametrize("kwargs", [dict(u=-1.0), dict(u=math.nan), dict(u=1.0),
                                        dict(prec=52)])
    def test_bad_argument_is_value_error(self, kwargs):
        # a bad argument, not an uncertifiable graph
        g, _ = taylor_graph(5)
        with pytest.raises(ValueError):
            compute_fwd_theta(g, series_exp(20), **kwargs)

    def test_ldiv_rejected(self):
        g, _ = graph_exp_pade_ss(5, 0)
        with pytest.raises(CertificationError):
            compute_fwd_theta(g, series_exp(40))


class TestBackwardTheta:
    def test_pade_family_values(self):
        # only the first tier here; the full table row runs in acceptance
        g, _ = graph_exp_pade_ss(5, 0, coeff_type=bigfloat(256))
        res = compute_bwd_theta_exp(g)
        assert res.kind == ThetaKind.BACKWARD
        assert float(res.theta) == pytest.approx(0.2539398330063230, rel=1e-8)

    def test_degree2_against_direct_bisection(self):
        # 50-digit oracle on |log(e^{-t}(1+t+t^2/2))|/t = u for t > 0
        g, _ = taylor_graph(2)
        gb = convert_precision(g, bigfloat(256))
        u = 2.0 ** -53
        res = compute_bwd_theta_exp(gb, u=u)
        with mp.workprec(400):
            def rel_bwd(t):
                return abs(mp.log(mp.exp(-t) * (1 + t + t * t / 2))) / t

            lo, hi = mp.mpf("1e-12"), mp.mpf(1)
            for _ in range(400):
                mid = (lo + hi) / 2
                if rel_bwd(mid) <= u:
                    lo = mid
                else:
                    hi = mid
            assert abs(res.theta - lo) <= lo * mp.mpf("1e-6")

    def test_squarings_double_radius(self):
        # phi_s(z) = 2^s phi(z / 2^s) gives theta(m, s) = 2^s theta(m, 0) at any
        # truncation; pade_squarings_for_norm and acceptance criterion 5 rely on it
        t0, t1, t2 = (compute_bwd_theta_exp(graph_exp_pade_ss(5, s, coeff_type=bigfloat(256))[0],
                                            nterms=40).theta for s in range(3))
        with mp.workprec(1024):
            assert abs(t1 - 2 * t0) <= 2 * t0 * mp.mpf("1e-25")
            assert abs(t2 - 4 * t0) <= 4 * t0 * mp.mpf("1e-25")

    def test_nterms_stability(self):
        g, _ = graph_exp_pade_ss(9, 0, coeff_type=bigfloat(256))
        t100 = compute_bwd_theta_exp(g, nterms=100)
        t150 = compute_bwd_theta_exp(g, nterms=150)
        assert abs(float(t100.theta) - float(t150.theta)) <= 1e-8 * float(t100.theta)

    def test_binary64_graph_certified_on_its_exact_coefficients(self):
        # the graph series is formed from the coefficients read exactly, not in
        # binary64 arithmetic, whose rounding alone would exceed u
        g, _ = graph_exp_pade_ss(13, 1)
        exact = convert_precision(g, bigfloat(1024))
        assert compute_bwd_theta_exp(g, nterms=40).theta == compute_bwd_theta_exp(exact, nterms=40).theta

    def test_certificate_reverifies(self):
        g, _ = graph_exp_pade_ss(7, 0, coeff_type=bigfloat(256))
        res = compute_bwd_theta_exp(g)
        lo, hi = res.bracket
        assert float(lo) < float(hi) <= float(lo) * (1 + 1.1e-6)

    def test_graph_not_matching_exp_rejected(self):
        g, _ = graph_monomial([2.0, 1.0])  # value 2 at the origin
        with pytest.raises(CertificationError):
            compute_bwd_theta_exp(g)

    @pytest.mark.parametrize("kwargs", [dict(u=-1.0), dict(u=math.nan), dict(u=0.0),
                                        dict(u=1.0), dict(u=math.inf), dict(prec=0),
                                        dict(prec=52), dict(nterms=0)])
    def test_bad_argument_is_value_error(self, kwargs):
        # a bad argument, not an uncertifiable graph: Pade-5 certifies at the defaults
        g, _ = graph_exp_pade_ss(5, 0)
        with pytest.raises(ValueError):
            compute_bwd_theta_exp(g, **{"nterms": 20, **kwargs})


@pytest.fixture
def bound_evals(monkeypatch):
    """Counts the evaluations of every bound the radius search builds."""
    calls = []
    build = erroranalysis._poly_bound

    def counting(*args):
        bound = build(*args)

        def counted(t):
            calls.append(t)
            return bound(t)

        return counted

    monkeypatch.setattr(erroranalysis, "_poly_bound", counting)
    return calls


@pytest.fixture
def search_decisions(monkeypatch):
    """Counts the decisions of the step function the bisection is handed, as bench/tracer.py does."""
    calls = []
    bisect = erroranalysis._bisect_max_below

    def counting(passes, *args):
        def counted(t):
            calls.append(t)
            return passes(t)

        return bisect(counted, *args)

    monkeypatch.setattr(erroranalysis, "_bisect_max_below", counting)
    return calls


class TestExactBound:
    """_poly_bound against a Fraction Horner: every evaluation is exact."""

    @staticmethod
    def check(coeffs, ts):
        bound = erroranalysis._poly_bound(*as_integers(coeffs))
        cf = [as_fraction(c) for c in coeffs]
        for t in ts:
            want = Fraction(0)
            for c in reversed(cf):
                want = want * as_fraction(t) + c
            got = bound(t)
            assert isinstance(got, mp.mpf)
            assert as_fraction(got) == want

    def long_ts(self):
        with mp.workprec(1024):
            return [mp.mpf(2) ** k for k in (0, 1, 7, 64)] + [
                mp.mpf(1) / 3, mp.sqrt(2) / 1000, mp.mpf(2) ** -700 * mp.pi,
                +mp.pi, 12345 + mp.e, mp.mpf(2) ** 80 / 7]

    def test_mixed_coefficient_types(self):
        with mp.workprec(1024):
            coeffs = [0, 3, 0.1, mp.mpf(1) / 7, 0, mp.mpf(2) ** -900 / 3, 1e-300, 0, 0]
        self.check(coeffs, self.long_ts())

    def test_all_mpf_long_mantissas(self):
        with mp.workprec(1024):
            coeffs = [mp.mpf(1) / mp.factorial(j + 1) ** 3 for j in range(40)]
        self.check(coeffs, self.long_ts())

    def test_constant_and_single_terms(self):
        self.check([5], self.long_ts())
        self.check([0, 0, 0.25], self.long_ts())

    def test_all_zero_is_zero(self):
        bound = erroranalysis._poly_bound(*as_integers([0, mp.mpf(0), 0.0]))
        assert all(bound(t) == 0 for t in self.long_ts())

    def test_all_zero_series_saturates(self):
        res = erroranalysis._radius(*as_integers([mp.mpf(0)] * 5), mp.mpf(2) ** -53,
                                    ThetaKind.FORWARD, 4, 1024)
        assert res.saturated and res.theta > erroranalysis._SEARCH_CAP


class TestRadiusSearch:
    # theta of the five theta-table Pade graphs at 1024 bits: (nterms, mantissa, exponent).
    # The (13, s) rows need 50 terms to pass the truncation check.  These pins
    # are bit-exact although the fixed point starts narrow: a radius that moves
    # the bound by less than u 2^-128 cannot change a decision of the 1e-30
    # bisection, except at a midpoint within about 2^-128 relative of the root.
    PINNED = {
        (5, 0): (40, 0x820466dbd3e565c1e0727e70f, -101),
        (7, 0): (40, 0xf34e9664628eb78230370b863, -100),
        (9, 0): (40, 0x10c864830ca291dd66baee499f, -99),
        (13, 0): (50, 0xabe6c5821cbda5e158b8a44e7, -97),
        (13, 1): (50, 0xabe6c5821cbda5e158b8a44e7, -96),
    }

    @pytest.mark.parametrize("row", sorted(PINNED))
    def test_theta_table_radii_pinned(self, row):
        g, _ = graph_exp_pade_ss(*row, coeff_type=bigfloat(256))
        nterms, man, exp = self.PINNED[row]
        res = compute_bwd_theta_exp(g, nterms=nterms)
        assert (res.theta.man, res.theta.exp) == (man, exp)
        with mp.workprec(1024):
            assert res.bracket == (res.theta, res.theta * (1 + mp.mpf("1e-6")))

    # the same five at nterms 100, as the theta-table benchmark computes them
    PINNED_100 = {
        (5, 0): (0x820466dbd3e565c1e0727e70f, -101),
        (7, 0): (0xf34e9664628eb78230370b835, -100),
        (9, 0): (0x10c864830ca291dd2f80e63aa7, -99),
        (13, 0): (0x157cd8b04397b4a28929f83baf, -98),
        (13, 1): (0x157cd8b04397b4a28929f83baf, -97),
    }

    @pytest.mark.parametrize("row", sorted(PINNED_100))
    def test_theta_table_radii_pinned_at_nterms_100(self, row):
        g, _ = graph_exp_pade_ss(*row, coeff_type=bigfloat(256))
        res = compute_bwd_theta_exp(g, nterms=100)
        assert (res.theta.man, res.theta.exp) == self.PINNED_100[row]

    # the largest carried radius of each row's log series at nterms 100, in
    # units of its final fixed point: a looser radius recurrence shows here
    ROUNDING_100 = {
        (5, 0): (157, -320),
        (7, 0): (119, -319),
        (9, 0): (41, -317),
        (13, 0): (189, -436),
        (13, 1): (407, -536),
    }

    @pytest.mark.parametrize("row", sorted(ROUNDING_100))
    def test_theta_table_rounding_pinned_at_nterms_100(self, row):
        g, _ = graph_exp_pade_ss(*row, coeff_type=bigfloat(256))
        res = compute_bwd_theta_exp(g, nterms=100)
        assert (res.rounding.man, res.rounding.exp) == self.ROUNDING_100[row]

    # an absolute error of 2^-F in delta_100 weighs 2^-F theta^99, about
    # 2^(339 - F) here: the fixed point widens with theta and nterms, and the
    # 256-bit radius is the 1024-bit one bit for bit, as on mpf series
    @pytest.mark.parametrize("nterms", [100, 150])
    def test_long_series_at_256_bits_pinned(self, nterms):
        g, _ = graph_exp_pade_ss(13, 1, coeff_type=bigfloat(256))
        res = compute_bwd_theta_exp(g, nterms=nterms, prec=256)
        assert (res.theta.man, res.theta.exp) == self.PINNED_100[(13, 1)]

    def test_long_series_at_64_bits_is_not_rounding_bound(self):
        # the search resolves 64 bits of the 1024-bit radius, not a radius
        # that the rounding of delta_j for large j holds down
        g, _ = graph_exp_pade_ss(13, 1, coeff_type=bigfloat(256))
        res = compute_bwd_theta_exp(g, nterms=100, prec=64)
        man, exp = self.PINNED_100[(13, 1)]
        with mp.workprec(1024):
            want = mp.mpf(man) * mp.mpf(2) ** exp
            assert abs(res.theta - want) <= want * mp.mpf(2) ** -60

    def test_real_graph_declared_complex_pinned(self):
        # Pade (7, 1) with complex 256-bit coefficients whose imaginary parts are 0
        g, _ = graph_exp_pade_ss(7, 1, coeff_type=bigfloat(256, True))
        res = compute_bwd_theta_exp(g, nterms=100)
        with mp.workprec(1024):
            want = mp.mpf("1.900835799232586373579084815550126189118")
            assert abs(res.theta - want) <= want * mp.mpf("1e-25")

    def test_complex_graph_equals_a_4096_bit_reference(self):
        # Pade (7, 1) with one coefficient times 1 + 2^-60 i: the log series is
        # genuinely complex.  Its theta is the exact-only search on |delta_j|
        # of the same log series formed with 4096-bit TruncSeries
        g, _ = graph_exp_pade_ss(7, 1, coeff_type=bigfloat(256, True))
        c0, c1 = g.coeffs["Us_sum2"]
        with mp.workprec(256):
            g.coeffs["Us_sum2"] = (c0 * (1 + mp.mpc(0, mp.mpf(2) ** -60)), c1)
        res = compute_bwd_theta_exp(g, nterms=100)
        with working_precision(4096):
            h = series_exp_neg(100) * eval_graph(g, TruncSeries.identity(100), 4096)
            h.coeffs[0] = mp.mpf(1)
            delta = [abs(d) for d in series_log(h).coeffs[1:]]
        theta, bracket, _ = radius_exact_only(delta, mp.mpf(2) ** -53, 1024)
        assert res.theta == theta and res.bracket == bracket
        with mp.workprec(1024):
            want = mp.mpf("1.899605904035107314491114508")
            assert abs(res.theta - want) <= want * mp.mpf("1e-27")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", list(ThetaKind))
    def test_non_finite_coefficient_refused(self, bad, kind, bound_evals):
        # NaN and inf have mantissa 0: an exact bound would read them as 0
        g, _ = graph_monomial([1, 1, 0.5, bad])
        with pytest.raises(CertificationError, match="non-finite series coefficient"):
            if kind == ThetaKind.FORWARD:
                compute_fwd_theta(g, series_exp(20))
            else:
                compute_bwd_theta_exp(g, nterms=20)
        assert bound_evals == []

    def test_non_finite_target_coefficient_refused(self, bound_evals):
        g, _ = taylor_graph(5)
        target = series_exp(20)
        target.coeffs[7] = mp.nan
        with pytest.raises(CertificationError, match="non-finite series coefficient"):
            compute_fwd_theta(g, target)
        assert bound_evals == []

    @pytest.mark.parametrize("kind", list(ThetaKind))
    def test_non_finite_coefficient_off_the_output_path_certifies(self, kind):
        def theta(g):
            if kind == ThetaKind.FORWARD:
                return compute_fwd_theta(g, series_exp(20)).theta
            return compute_bwd_theta_exp(g, nterms=20).theta

        g, _ = graph_monomial([1, 1, 0.5])
        want = theta(g)
        g.add_lincomb("dead", math.nan, g.input_id, 1, "I")
        assert theta(g) == want

    @pytest.mark.parametrize("nterms", [20, 30, 40])
    def test_truncated_series_refused(self, nterms):
        # on Pade (13, 0) the truncated series alone give 24239.7, 5.3779 and
        # 5.37192035263 at these lengths; from 50 terms on, 5.371920351148153
        g, _ = graph_exp_pade_ss(13, 0, coeff_type=bigfloat(256))
        with pytest.raises(CertificationError, match=rf"truncated too early: .* of {nterms} bound terms"
                                                     rf".*larger nterms than {nterms}$"):
            compute_bwd_theta_exp(g, nterms=nterms)

    def test_constant_term_above_u_refused_at_once(self, bound_evals):
        # e^{-z}(1 + 1.5z + z^2/2) = 1 + z/2 + ...: the bound starts at 1/2 > u
        g, _ = graph_monomial([1, 1.5, 0.5])
        with pytest.raises(CertificationError, match="no sign change"):
            compute_bwd_theta_exp(g, nterms=100)
        assert bound_evals == []

    def test_refusal_names_the_bound_at_zero_u_and_g0(self):
        # g(0) = 1, but log(e^{-z} g(z)) starts at delta_1 = 1e-10 z: above u from t = 0
        g, _ = graph_monomial([1, 1 + 1e-10, 0.5], bigfloat(256))
        with pytest.raises(CertificationError) as exc:
            compute_bwd_theta_exp(g)
        assert str(exc.value) == ("no sign change: bound above u on the whole bracket "
                                  "(bound 1.0e-10 at t -> 0, u = 1.11e-16, g(0) - 1 = 0.0)")

    def test_halving_refusal_names_the_smallest_radius_tried(self):
        # |g - 1| = 1e10 z vanishes at 0 but stays above u down to 2^-(64 - 8)
        g, _ = graph_monomial([1, 1e10])
        with pytest.raises(CertificationError, match=r"^no sign change: .*\(bound 0\.0 at t -> 0, "
                                                     r"u = 1\.11e-16, smallest radius tried 1\.39e-17\)$"):
            compute_fwd_theta(g, TruncSeries.constant(1, 2), prec=64)

    def test_target_series_shorter_than_the_degree_refused(self):
        g, _ = taylor_graph(5)
        with pytest.raises(CertificationError, match="target series truncated below the graph degree"):
            compute_fwd_theta(g, series_exp(4))

    def test_search_evaluation_count(self, bound_evals, search_decisions):
        g, _ = graph_exp_pade_ss(5, 0, coeff_type=bigfloat(256))
        compute_bwd_theta_exp(g, nterms=40)
        assert 90 <= len(search_decisions) <= 140
        # halving, doubling and the enclosure's two ends; outside the
        # enclosure the bisection and the bracket check only compare
        assert len(bound_evals) <= 30


@pytest.fixture
def enclosed(monkeypatch):
    """Records, for each radius search, whether the approximate root's enclosure checked out."""
    seen = []
    enclosure = erroranalysis._enclosure

    def recording(*args):
        pair = enclosure(*args)
        seen.append(pair is not None)
        return pair

    monkeypatch.setattr(erroranalysis, "_enclosure", recording)
    return seen


class TestExactOnlyEquivalence:
    """_radius against the exact-only search of tests/support.py, bit for bit."""

    U = mp.mpf(2) ** -53

    def check(self, coeffs, prec=1024):
        with mp.workprec(prec):
            res = erroranalysis._radius(*as_integers(coeffs), self.U, ThetaKind.BACKWARD,
                                        len(coeffs), prec)
        theta, bracket, saturated = radius_exact_only(coeffs, self.U, prec)
        assert (res.theta._mpf_, res.saturated) == (theta._mpf_, saturated)
        assert res.bracket is None if bracket is None else \
            [t._mpf_ for t in res.bracket] == [t._mpf_ for t in bracket]
        return res

    def test_random_nonnegative_polynomials(self, enclosed):
        rng = np.random.default_rng(25)
        with mp.workprec(1024):
            for _ in range(12):
                n = int(rng.integers(2, 40))
                coeffs = [mp.mpf(float(rng.random())) * mp.mpf(2) ** int(rng.integers(-80, 20))
                          if rng.random() < 0.7 else mp.zero for _ in range(n)]
                coeffs[0] = self.U * float(rng.random()) if rng.random() < 0.5 else mp.zero
                coeffs[-1] = mp.mpf(1) / 3
                self.check(coeffs)
        assert all(enclosed)

    @pytest.mark.parametrize("degree", [1, 7, 26])
    def test_single_monomial(self, degree, enclosed):
        with mp.workprec(1024):
            self.check([mp.zero] * degree + [mp.mpf(1) / 7])
        assert enclosed == [True]

    def test_all_zero_saturates(self):
        assert self.check([mp.zero] * 5).saturated

    @pytest.mark.parametrize("exponent", [-1100, 1100])
    def test_coefficients_beyond_binary64(self, exponent, enclosed):
        # 2^-1100 t^20 = u near t = 2^52; 2^1100 t^5 = u near t = 2^-231
        j = 20 if exponent < 0 else 5
        with mp.workprec(1024):
            coeffs = [mp.zero] * j + [mp.mpf(2) ** exponent, mp.mpf(2) ** (exponent - 3)]
        assert not self.check(coeffs).saturated
        assert enclosed == [True]

    def test_coefficient_below_binary64_saturates(self):
        with mp.workprec(1024):
            self.check([mp.zero, mp.mpf(10) ** -400])

    @pytest.mark.parametrize("wrong", ["nan", "double", "half", "hi", "just_above", "inside"])
    def test_wrong_approximate_root(self, wrong, monkeypatch, enclosed):
        approx = erroranalysis._approx_root

        def patched(C, e0, u, k):
            t = approx(C, e0, u, k)
            with mp.workprec(1024):
                return {"nan": mp.nan, "double": 2 * t, "half": t / 2, "hi": mp.mpf(2) ** k,
                        "just_above": t * (1 + mp.mpf(2) ** -150),
                        "inside": t * (1 + mp.mpf(2) ** -240)}[wrong]

        monkeypatch.setattr(erroranalysis, "_approx_root", patched)
        with mp.workprec(1024):
            coeffs = [mp.zero, mp.zero, mp.mpf(1) / 3] + [mp.mpf(1) / mp.factorial(j) for j in range(3, 30)]
        self.check(coeffs)
        # a root off by more than the enclosure's width fails its check, and
        # the search evaluates every decision
        assert enclosed == [wrong == "inside"]


def goldberg_graph():
    g = ComputationGraph(input_id="x")
    g.add_lincomb("y", 1, "I", 1, "x")
    g.add_lincomb("z", 1, "I", 0.5, "x")
    g.add_mult("y2", "y", "y")
    g.add_mult("z2", "z", "z")
    g.add_lincomb("out", 1, "y2", -1, "z2")
    g.add_output("out")
    return g


class TestRunningError:
    def test_goldberg_computed_value_bit_exact(self):
        g = goldberg_graph()
        assert eval_graph(g, 2.0 ** -27) == 7.450580596923828e-9

    def test_goldberg_bound(self):
        g = goldberg_graph()
        bnd = eval_runerr(g, 2.0 ** -27, mode=RunErrMode.BOUND)
        assert bnd == pytest.approx(2.980232276517114e-7, rel=1e-12)
        # and it bounds the true forward error
        exact = 2.0 ** (-2.0 * 28) * (2.0 ** 29 + 3)
        true_rel = abs(exact - 7.450580596923828e-9) / exact
        assert true_rel <= bnd

    def test_goldberg_rand_median(self):
        g = goldberg_graph()
        vals = sorted(eval_runerr(g, 2.0 ** -27, mode=RunErrMode.RAND, seed=s)
                      for s in range(100))
        med = vals[50]
        assert 1e-9 <= med <= 5e-8

    @pytest.mark.parametrize("mode", [RunErrMode.BOUND, RunErrMode.RAND])
    def test_numpy_argument_reads_as_its_value(self, mode):
        # the values are those eval_graph computes, and it reads a float32 exactly
        g = goldberg_graph()
        assert (eval_runerr(g, np.float32(2.0 ** -27), mode=mode, seed=3)
                == eval_runerr(g, 2.0 ** -27, mode=mode, seed=3))
        assert eval_runerr(g, np.float32(0.5), mode=mode, seed=3) == eval_runerr(g, 0.5, mode=mode, seed=3)

    def test_single_mult_is_one_epsilon(self):
        g = ComputationGraph()
        g.add_mult("X", "A", "A")
        g.set_outputs(["X"])
        u = 2.0 ** -52
        assert eval_runerr(g, 1.5, u=u) == u

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solve_rand_and_bound(self, seed):
        # X = (A A) \ I: the product draws eta_1, the solve eta_2 and
        # subtracts its divisor's error, so RAND is |eta_2 - eta_1|
        g = ComputationGraph()
        g.add_mult("Y", "A", "A")
        g.add_ldiv("X", "Y", "I")
        g.set_outputs(["X"])
        u = 2.0 ** -52
        eta = np.random.default_rng(seed).uniform(-u / 2, u / 2, 2)
        assert eval_runerr(g, 1.5, mode=RunErrMode.RAND, u=u, seed=seed) == abs(eta[1] - eta[0])
        assert eval_runerr(g, 1.5, u=u) == 2 * u

    def test_vanishing_lincomb_reports_infinity(self):
        g = ComputationGraph()
        g.add_lincomb("X", 1.0, "A", -1.0, "A")
        g.set_outputs(["X"])
        with pytest.warns(UserWarning):
            assert math.isinf(eval_runerr(g, 0.7))

    def test_infinite_parent_error_times_zero_coefficient_stays_infinite(self):
        # L1 = A - I vanishes at x = 1, so its error is infinite; L2 = 0*L1 + A
        # must carry that on as inf, not as the NaN of 0 * inf
        g = ComputationGraph()
        g.add_lincomb("L1", 1.0, "A", -1.0, "I")
        g.add_lincomb("L2", 0.0, "L1", 1.0, "A")
        g.set_outputs(["L2"])
        with pytest.warns(UserWarning, match="vanishing linear combination"):
            assert eval_runerr(g, 1.0, mode=RunErrMode.BOUND) == math.inf

    def test_extended_graph_evaluated_at_its_precision(self):
        # X = 1*I - 1*A at x = 1 + 2^-80 vanishes at 53 bits, not at 256
        g = ComputationGraph(bigfloat(256))
        g.add_lincomb("X", 1, "I", -1, "A")
        g.set_outputs(["X"])
        with mp.workprec(256):
            x = 1 + mp.mpf(2) ** -80
        assert eval_graph(g, x) == -mp.mpf(2) ** -80
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_runerr(g, x) == 2 * EPS64
            assert math.isfinite(eval_runerr(g, x, mode=RunErrMode.RAND, seed=0))

    def test_bound_scales_with_u(self):
        g = goldberg_graph()
        b1 = eval_runerr(g, 2.0 ** -27, u=2.0 ** -52)
        b2 = eval_runerr(g, 2.0 ** -27, u=2.0 ** -51)
        assert b2 >= 2 * b1 * (1 - 1e-12)

    def test_matrix_argument_rejected(self):
        g = goldberg_graph()
        with pytest.raises(CertificationError):
            eval_runerr(g, np.eye(2))

    def test_rand_seed_reproducible(self):
        g = goldberg_graph()
        a = eval_runerr(g, 2.0 ** -27, mode=RunErrMode.RAND, seed=7)
        b = eval_runerr(g, 2.0 ** -27, mode=RunErrMode.RAND, seed=7)
        assert a == b

    def test_bound_covers_true_error_on_random_graphs(self):
        # module invariant: true error <= 5*bound in >= 95% of trials
        rng = np.random.default_rng(55)
        ok = 0
        total = 100
        for _ in range(total):
            g = random_graph(rng, n_nodes=8, allow_ldiv=False)
            x = float(rng.uniform(-1, 1))
            v64 = eval_graph(g, x)
            gb = convert_precision(g, bigfloat(256))
            with mp.workprec(256):
                vhp = eval_graph(gb, mp.mpf(x))
                if vhp == 0:
                    total -= 1
                    continue
                true_rel = float(abs(v64 - vhp) / abs(vhp))
            bnd = eval_runerr(g, x)
            if math.isinf(bnd) or true_rel <= 5 * bnd:
                ok += 1
        assert ok >= 0.95 * total


def test_running_error_of_a_two_output_graph_refused():
    g, _ = graph_monomial([1.0, 2.0])
    g.add_output("A")
    with pytest.raises(GraphError, match="^running error analysis expects a single-output graph$"):
        eval_runerr(g, 0.5)


def test_approximate_root_is_nan_where_newton_breaks_down():
    # a bound of all-zero terms never reaches u: log q = log 0 gives no step;
    # _enclosure refuses a NaN, and the search decides by exact bounds alone
    assert mp.isnan(erroranalysis._approx_root([0, 0, 0], 0, mp.mpf(2) ** -53, 0))
