import contextlib
import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp

from matgraph.numerics import (
    CoeffType,
    FixedVector,
    SingularMatrixError,
    bigfloat,
    convert_scalar,
    mat_lu_solve,
    truncated_lstsq,
    working_precision,
)
from matgraph import numerics
from matgraph.numerics import (
    LIMB_BITS,
    PairMatrix,
    _householder,
    _implicit_ql,
    _limb_products,
    _normal_equations,
    _to_fixed,
)

from support import (as_mp_matrix, gram_eig_lstsq, mp_bits, mp_lincomb, mp_matmul,
                     oracle_mp_lincomb, oracle_mp_lu_solve, oracle_mp_matmul,
                     pairwise_normal_equations)


class TestCoeffType:
    def test_tags_round_trip(self):
        for ct in (CoeffType(), CoeffType(is_complex=True), bigfloat(256),
                   bigfloat(1024, True)):
            assert CoeffType.from_tag(ct.tag) == ct

    def test_rejects_narrow_precision(self):
        with pytest.raises(ValueError):
            CoeffType(prec=24)

    @pytest.mark.parametrize("prec", [256.5, 256.0, "256", Fraction(512, 2)])
    def test_precision_is_an_integer(self, prec):
        # a kind that cannot round-trip through its tag is never built
        with pytest.raises(ValueError, match=f"^extended precision needs an integer of at least 53 bits, "
                                             f"got {re.escape(repr(prec))}$"):
            bigfloat(prec)
        ct = bigfloat(np.int64(256))
        assert CoeffType.from_tag(ct.tag) == ct == bigfloat(256)


class TestConvertScalar:
    def test_round_trip_through_float64(self):
        with working_precision(256):
            v = mp.mpf(1) / 3
        w = convert_scalar(v, CoeffType())
        back = convert_scalar(w, bigfloat(256))
        with working_precision(256):
            assert abs(back - v) <= abs(v) * mp.mpf(2) ** -53

    def test_complex_to_real_requires_zero_imag(self):
        assert convert_scalar(2 + 0j, CoeffType()) == 2.0
        with pytest.raises(ValueError):
            convert_scalar(2 + 1j, CoeffType())

    def test_fraction_exact(self):
        v = convert_scalar(Fraction(1, 2), bigfloat(64))
        assert v == mp.mpf("0.5")

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    @pytest.mark.parametrize("frac", [Fraction(1, 10), Fraction(-1, 10), Fraction(2, 3),
                                      Fraction(-7, 3), Fraction(10 ** 400 + 1, 3 ** 500)])
    def test_fraction_rounds_to_nearest(self, prec, frac):
        # exact check: |v - frac| is at most half a unit in the last place of v
        sign, man, exp, bc = convert_scalar(frac, bigfloat(prec))._mpf_
        ulp = Fraction(2) ** (exp + bc - prec)
        assert abs((-1) ** sign * man * Fraction(2) ** exp - frac) <= ulp / 2


def _convert_inputs(prec):
    with mp.workprec(1024):
        third = mp.mpf(1) / 3
        z = mp.mpc(third, -mp.mpf(2) / 7)
    # 2^(p+1) + 2 is a tie to the even 2^(p+1), 2^(p+1) + 6 one up to 2^(p+1) + 8
    wide = [2 ** (prec + 1) + 1, 2 ** (prec + 1) + 2, -(2 ** (prec + 1) + 6)]
    # mantissas of 300 and 40 bits: kept as they are where they fit, else rounded
    m300, m40 = (0, 2 ** 300 - 1, -300, 300), (1, 2 ** 40 - 3, -20, 40)
    return [True, False, 0, -3, *wide, 0.0, -0.0, 5e-324, 0.1, math.inf, -math.inf, math.nan,
            np.float64(0.1), mp.make_mpf(m300), mp.make_mpf(m40), mp.make_mpc((m300, m40)),
            third, z, mp.mpc(2, 0), complex(0.1, -0.0), complex(-2.5, 1e-300),
            Fraction(1, 3), Fraction(-7, 10)]


def _reference(x, ct):
    """``mp.mpf(x)`` or ``mp.mpc(x)`` under ``mp.workprec(ct.prec)``."""
    with mp.workprec(ct.prec):
        if isinstance(x, Fraction):  # mpmath reads no Fraction: two exact operands, one rounding
            x = mp.mpf(x.numerator) / x.denominator
        if ct.is_complex:
            return mp.mpc(x)
        return mp.mpf(x.real if isinstance(x, (complex, mpmath.mpc)) else x)


class TestConvertScalarBitForBit:
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("prec", [53, 64, 113, 256, 1024])
    def test_matches_mpmath_constructors(self, prec, is_complex):
        ct = bigfloat(prec, is_complex)
        for x in _convert_inputs(prec):
            if not is_complex and isinstance(x, (complex, mpmath.mpc)) and x.imag != 0:
                continue
            with mp.workprec(77):
                got = convert_scalar(x, ct)
                assert mp.prec == 77
            want = _reference(x, ct)
            assert type(got) is type(want), x
            if is_complex:
                assert got._mpc_ == want._mpc_, x
            else:
                assert got._mpf_ == want._mpf_, x

    def test_binary64_gives_python_floats(self):
        for x in (np.float64(0.5), True, 1):
            got = convert_scalar(x, CoeffType())
            assert type(got) is float and got == x
        x = 0.1
        assert convert_scalar(x, CoeffType()) is x

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_binary64_beyond_the_range_is_infinite(self, is_complex):
        # float() raised OverflowError for an int or Fraction past binary64's range;
        # to nearest, everything from 2^1024 - 2^970 (the tie, to even) up is inf
        ct = CoeffType(None, is_complex)
        top = 2 ** 1024 - 2 ** 970
        for x, want in ((10 ** 400, math.inf), (-Fraction(10 ** 400, 3), -math.inf),
                        (top, math.inf), (top - 1, float(top - 1)), (-top, -math.inf)):
            got = convert_scalar(x, ct)
            assert type(got) is (complex if is_complex else float) and got == want, x

    def test_wide_int_ties_round_to_even(self):
        ct = bigfloat(64)
        assert convert_scalar(2 ** 65 + 2, ct) == 2 ** 65
        assert convert_scalar(-(2 ** 65 + 6), ct) == -(2 ** 65 + 8)

    @pytest.mark.parametrize("ct", [CoeffType(), CoeffType(is_complex=True), bigfloat(113),
                                    bigfloat(113, True), bigfloat(256), bigfloat(256, True)],
                             ids=lambda ct: ct.tag)
    def test_numpy_numbers_round_their_exact_value_once(self, ct):
        tiny = np.longdouble(2) ** -16400  # a subnormal long double where it is wider than binary64
        xs = [np.int64(-3), np.int64(2 ** 62 + 1), np.uint8(255), np.float16(0.1), np.float16(-65504),
              np.float32(0.1), np.float32(1e-45), np.longdouble(1) / 3, tiny, np.longdouble(0.1) * 7,
              np.float64(0.1), np.complex64(0.1 - 0.3j), np.complex64(2.5)]
        for x in xs:
            parts = [Fraction(int(v)) if isinstance(v, np.integer) else Fraction(*v.as_integer_ratio())
                     for v in (x.real, x.imag)]
            if not ct.is_complex and parts[1]:
                with pytest.raises(ValueError, match="nonzero imaginary part"):
                    convert_scalar(x, ct)
                continue
            got = convert_scalar(x, ct)
            if ct.prec is None:
                want = complex(*map(float, parts)) if ct.is_complex else float(parts[0])
                assert type(got) is type(want) and got == want, x
                continue
            with mp.workprec(ct.prec):  # two exact operands, one rounding
                re_, im_ = (mp.mpf(v.numerator) / v.denominator for v in parts)
            if ct.is_complex:
                assert got._mpc_ == (re_._mpf_, im_._mpf_), x
            else:
                assert got._mpf_ == re_._mpf_, x

    @pytest.mark.parametrize("x, ct, exc, message", [
        ("1.5", bigfloat(256), TypeError, "not a scalar: '1.5'"),
        (Decimal("3"), bigfloat(256, True), TypeError, "not a scalar: "),
        (None, CoeffType(), TypeError, "not a scalar: None"),
        (2 + 1j, bigfloat(256), ValueError, "nonzero imaginary part"),
        (mp.mpc(0, 1), bigfloat(113), ValueError, "nonzero imaginary part"),
        (complex(0, -0.5), CoeffType(), ValueError, "nonzero imaginary part"),
    ])
    def test_refusals(self, x, ct, exc, message):
        with mp.workprec(77):
            with pytest.raises(exc, match=re.escape(message)):
                convert_scalar(x, ct)
            assert mp.prec == 77


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
    b=st.floats(-1e6, 1e6, allow_nan=False).filter(lambda x: abs(x) > 1e-6),
    op=st.sampled_from(["add", "sub", "mul", "div"]),
)
def test_double_precision_then_round_within_ulp(a, b, op):
    # (a op b) at 2p rounded to p agrees with the precision-p result to 1 ulp
    p = 64
    with working_precision(p):
        xa, xb = mp.mpf(a), mp.mpf(b)
        direct = {"add": xa + xb, "sub": xa - xb, "mul": xa * xb, "div": xa / xb}[op]
    with working_precision(2 * p):
        ya, yb = mp.mpf(a), mp.mpf(b)
        wide = {"add": ya + yb, "sub": ya - yb, "mul": ya * yb, "div": ya / yb}[op]
    with working_precision(p):
        rounded = mp.mpf(wide)
        if direct != 0:
            assert abs(rounded - direct) <= abs(direct) * mp.mpf(2) ** (1 - p)
        else:
            assert rounded == 0


class TestLuSolve:
    def test_identity(self):
        B = np.arange(9.0).reshape(3, 3)
        assert np.allclose(mat_lu_solve(np.eye(3), B), B)

    def test_diagonal(self):
        A = np.diag([2.0, 4.0])
        X = mat_lu_solve(A, np.eye(2))
        assert np.allclose(X, np.diag([0.5, 0.25]))

    def test_numpy_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_lu_solve(np.zeros((2, 2)), np.eye(2))

    def test_mp_singular_raises(self):
        A = as_mp_matrix(np.zeros((2, 2)), 128)
        B = as_mp_matrix(np.eye(2), 128)
        with pytest.raises(SingularMatrixError):
            mat_lu_solve(A, B)

    def test_mp_rank_deficient_raises(self):
        A = as_mp_matrix(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]), 256)
        with working_precision(256), pytest.raises(SingularMatrixError):
            mat_lu_solve(A, as_mp_matrix(np.eye(3), 256))

    @pytest.mark.parametrize("A,B,kinds", [
        (mp.eye(2), np.eye(2), "A a matrix and B a ndarray"),
        (mp.eye(2), [[1, 0], [0, 1]], "A a matrix and B a list"),
        (np.eye(2), mp.eye(2), "A a ndarray and B a matrix"),
        (np.eye(2), [[1.0, 0.0], [0.0, 1.0]], "A a ndarray and B a list")])
    def test_mixed_operand_kinds_name_both(self, A, B, kinds):
        with pytest.raises(TypeError, match=kinds):
            mat_lu_solve(A, B)

    @pytest.mark.parametrize("dtypes", [(float, float), (object, object), (float, object)])
    def test_vector_right_hand_side_keeps_its_shape(self, dtypes):
        # numpy's solve gives a 1-d b a 1-d x; the mpmath path must too
        A = np.diag([2.0, 4.0]).astype(dtypes[0])
        b = np.array([1.0, 1.0]).astype(dtypes[1])
        x = mat_lu_solve(A, b)
        assert x.shape == (2,)
        assert list(x) == [0.5, 0.25]

    @pytest.mark.parametrize("prec,n,is_complex", [(256, 12, False), (113, 5, True)])
    def test_mp_factors_once_and_matches_per_column_lu_solve(self, monkeypatch, prec, n,
                                                             is_complex):
        rng = np.random.default_rng(prec + n)

        def rand():
            M = rng.standard_normal((n, n))
            return M + 1j * rng.standard_normal((n, n)) if is_complex else M

        A, B = as_mp_matrix(rand(), prec), as_mp_matrix(rand(), prec)
        with working_precision(prec):
            want = [mp.lu_solve(A, B.column(j)) for j in range(n)]
            if is_complex:  # complex operands run mpmath's own LU_decomp
                factorisations = []
                decomp = mp.LU_decomp
                monkeypatch.setattr(mp, "LU_decomp",
                                    lambda *a, **k: factorisations.append(1) or decomp(*a, **k))
                X = mat_lu_solve(A, B)
                assert len(factorisations) == 1
            else:
                # the pivot search takes one reciprocal row sum per candidate row:
                # n + (n - 1) + ... + 2 for the one factorisation of A
                reciprocals = []
                reciprocal = numerics._reciprocal
                monkeypatch.setattr(numerics, "_reciprocal",
                                    lambda *a: reciprocals.append(1) or reciprocal(*a))
                X = mat_lu_solve(A, B)
                assert len(reciprocals) == n * (n + 1) // 2 - 1
        assert all(mp_bits(X.column(j)) == mp_bits(want[j]) for j in range(n))

    def test_empty_mp_matrices_solve_to_an_empty_one(self):
        X = mat_lu_solve(mp.matrix(0, 0), mp.matrix(0, 0))
        assert (X.rows, X.cols) == (0, 0)
        empty = np.zeros((0, 0), dtype=object)
        assert mat_lu_solve(empty, empty).shape == (0, 0)

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_mp_non_finite_coefficient_matrix(self, is_complex):
        # a NaN entry of A makes every entry of X NaN; an infinite one is named
        B = mp.eye(2) * (mp.mpc(1, 1) if is_complex else 1)
        with working_precision(256):
            X = mat_lu_solve(mp.matrix([[4, mp.nan], [1, 9]]), B)
            assert (X.rows, X.cols) == (2, 2)
            assert all(mp.isnan(X[i, j]) for i in range(2) for j in range(2))
            with pytest.raises(SingularMatrixError, match=r"entry \(1, 0\) .* not finite"):
                mat_lu_solve(mp.matrix([[4, 2], [-mp.inf, 9]]), B)

    def test_residual_well_conditioned(self):
        rng = np.random.default_rng(5)
        A = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        B = rng.standard_normal((5, 5))
        X = mat_lu_solve(A, B)
        rel = np.linalg.norm(A @ X - B) / np.linalg.norm(B)
        assert rel <= 100 * 2.0 ** -53

    def test_residual_property_mp_10x10(self):
        # ||AX - B||_F <= 100 n u ||A||_F ||X||_F at 256 bits
        rng = np.random.default_rng(11)
        prec = 256
        A = as_mp_matrix(np.eye(10) + 0.2 * rng.standard_normal((10, 10)), prec)
        B = as_mp_matrix(rng.standard_normal((10, 10)), prec)
        with working_precision(prec):
            X = mat_lu_solve(A, B)
            R = A * X - B

            def fro(M):
                return mp.sqrt(mp.fsum(abs(M[i, j]) ** 2 for i in range(M.rows)
                                       for j in range(M.cols)))

            u = mp.mpf(2) ** -prec
            assert fro(R) <= 100 * 10 * u * fro(A) * fro(X)


def _mp_rand(rng, rows, cols, prec, is_complex):
    """Entries over 2^-40..2^40 held to ``prec + 20`` bits, a fifth of them zero;
    complex matrices mix real and complex entries."""
    M = rng.standard_normal((rows, cols)) * 2.0 ** rng.integers(-40, 40, (rows, cols))
    if is_complex:
        M = M + 1j * np.where(rng.random((rows, cols)) < 0.7, rng.standard_normal((rows, cols)), 0)
    M[rng.random((rows, cols)) < 0.2] = 0
    with mp.workprec(prec + 20):
        return mp.matrix([[mp.mpf(1) / 3 * (x.real if x.imag == 0 else x) for x in row]
                          for row in M.tolist()])


class TestDenseKernelsMatchMpmath:
    """The raw-tuple kernels give every ``mpmath.matrix`` result bit for bit."""

    @pytest.mark.parametrize("prec", [113, 256])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_product_and_lincomb(self, n, is_complex, prec):
        rng = np.random.default_rng(1000 * n + prec + is_complex)
        A, B = (_mp_rand(rng, n, n, prec, is_complex) for _ in range(2))
        with working_precision(prec + 20):
            c1 = mp.mpf(2) / 7
            c2 = mp.mpc(-3, 1) / 11 if is_complex else mp.mpf(-3) / 11
        with working_precision(prec):
            assert mp_bits(mp_matmul(A, B)) == mp_bits(oracle_mp_matmul(A, B))
            assert mp_bits(mp_lincomb(c1, A, c2, B)) == mp_bits(oracle_mp_lincomb(c1, A, c2, B))
            I = mp.eye(n)
            assert mp_bits(mp_lincomb(c1, I, c2, A)) == mp_bits(oracle_mp_lincomb(c1, I, c2, A))

    @pytest.mark.parametrize("prec", [113, 256])
    @pytest.mark.parametrize("c1,c2", [(0.1, -3), (np.float64(1 / 3), 3 ** 200),
                                       (0.0, -(2.0 ** -1000)), (1.5, float("nan")),
                                       (float("inf"), 2)])
    def test_lincomb_reads_float_and_int_coefficients_exactly(self, prec, c1, c2):
        # mpmath's operators read a float or an int exactly, never rounded to
        # the working precision first; a non-finite one takes mpmath's route
        rng = np.random.default_rng(prec)
        A, B = (_mp_rand(rng, 4, 4, prec, False) for _ in range(2))
        with working_precision(prec):
            want = oracle_mp_lincomb(c1, A, c2, B)
            assert mp_bits(mp_lincomb(c1, A, c2, B)) == mp_bits(want)
            if all(map(mp.isfinite, (c1, c2))):
                a, b = PairMatrix.read(A, (c1, c2)), PairMatrix.read(B)
                assert mp_bits(PairMatrix.lincomb(c1, a, c2, b).matrix()) == mp_bits(want)
            else:
                assert PairMatrix.read(A, (c1, c2)) is None

    @pytest.mark.parametrize("prec", [113, 256])
    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("n,ncols", [(1, 1), (1, 3), (2, 1), (2, 3), (2, 2), (5, 1),
                                         (5, 3), (5, 5), (16, 1), (16, 3), (16, 16)])
    def test_solve(self, n, ncols, is_complex, prec):
        rng = np.random.default_rng(100 * n + ncols + prec + is_complex)
        A = _mp_rand(rng, n, n, prec, is_complex)
        with mp.workprec(prec + 20):
            for i in range(n):  # a nonzero diagonal keeps A regular
                A[i, i] += 1
        B = _mp_rand(rng, n, ncols, prec, is_complex)
        with working_precision(prec):
            assert mp_bits(mat_lu_solve(A, B)) == mp_bits(oracle_mp_lu_solve(A, B))

    def test_real_matrix_complex_right_hand_side(self):
        rng = np.random.default_rng(5)
        A = _mp_rand(rng, 5, 5, 256, False)
        with mp.workprec(276):
            A += mp.eye(5)
        B = _mp_rand(rng, 5, 3, 256, True)
        with working_precision(256):
            assert mp_bits(mat_lu_solve(A, B)) == mp_bits(oracle_mp_lu_solve(A, B))

    # at 256 bits the factorisation runs at 266, where tol = |A|_1 2^-265; the
    # last pivot of [[1, 1], [1, 1 + d]] is d and |A|_1 = 2 + d
    @pytest.mark.parametrize("case,singular", [
        ("zero", True), ("rank-deficient", True), ("zero-row", True),
        ("pivot-far-below-tol", True),  # d = 2^-300
        ("pivot-just-below-tol", True),  # d = 2^-264 < tol = 2^-264 + 2^-529
        ("pivot-above-tol", False)])  # d = 2^-263
    def test_singular_exactly_where_mpmath_divides_by_zero(self, case, singular):
        with mp.workprec(600):
            A = {"zero": mp.zeros(3, 3),
                 "rank-deficient": mp.matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]),
                 "zero-row": mp.matrix([[1, 2, 3], [0, 0, 0], [4, 5, 7]]),
                 "pivot-far-below-tol": mp.matrix([[1, 1], [1, 1 + mp.mpf(2) ** -300]]),
                 "pivot-just-below-tol": mp.matrix([[1, 1], [1, 1 + mp.mpf(2) ** -264]]),
                 "pivot-above-tol": mp.matrix([[1, 1], [1, 1 + mp.mpf(2) ** -263]])}[case]
        B = mp.eye(A.rows)
        with working_precision(256):
            try:
                want = oracle_mp_lu_solve(A, B)
            except ZeroDivisionError:
                assert singular
                with pytest.raises(SingularMatrixError):
                    mat_lu_solve(A, B)
            else:
                assert not singular
                assert mp_bits(mat_lu_solve(A, B)) == mp_bits(want)

    @pytest.mark.parametrize("seed", range(40))
    def test_small_integer_entries_cancel_exactly(self, seed):
        # exact zeros, stored as nothing and read back as the real mp.zero,
        # meet real entries and complex ones, some with a zero imaginary part
        rng = np.random.default_rng(seed)
        n = 4 + seed % 3

        def rand(cols):
            return mp.matrix([[mp.mpc(int(rng.integers(-2, 3)), int(rng.integers(-1, 2)))
                               if rng.random() < 0.15 else mp.mpf(int(rng.integers(-2, 3)))
                               for _ in range(cols)] for _ in range(n)])

        A, B = rand(n), rand(n)
        c1, c2 = mp.mpf(3), mp.mpc(0, -1) if seed % 2 else mp.mpf(-2)
        with working_precision(113):
            assert mp_bits(mp_matmul(A, B)) == mp_bits(oracle_mp_matmul(A, B))
            assert mp_bits(mp_lincomb(c1, A, c2, B)) == mp_bits(oracle_mp_lincomb(c1, A, c2, B))
            try:
                want = oracle_mp_lu_solve(A, B)
            except (ZeroDivisionError, TypeError):
                with pytest.raises(SingularMatrixError):
                    mat_lu_solve(A, B)
            else:
                assert mp_bits(mat_lu_solve(A, B)) == mp_bits(want)

    def test_cancelled_complex_entry_reads_back_real(self):
        # a[2][2] = mpc(1, 0) - 1*1 cancels to a stored nothing, which reads back
        # as the real mp.zero: after the row swap, 1 - 1*a[2][2] stays real
        A = mp.matrix([[1, 0, 1], [0, 1, 1], [1, 1, mp.mpc(1, 0)]])
        with working_precision(113):
            X, want = mat_lu_solve(A, mp.eye(3)), oracle_mp_lu_solve(A, mp.eye(3))
        assert mp_bits(X) == mp_bits(want)
        assert {t for t, _ in mp_bits(X)[2].values()} == {"mpf"}

    def test_zero_column_is_singular(self):
        # mpmath 1.3 finds no pivot row and fails on its index None
        A = mp.matrix([[0, 1, 2], [0, 3, 4], [0, 5, 7]])
        with working_precision(256):
            with pytest.raises(TypeError):
                oracle_mp_lu_solve(A, mp.eye(3))
            with pytest.raises(SingularMatrixError, match="column 0"):
                mat_lu_solve(A, mp.eye(3))

    @pytest.mark.parametrize("case,exc,message", [
        ("zero-column", TypeError, "no nonzero pivot"),
        ("rank-deficient", ZeroDivisionError, "numerically singular"),
        ("zero", ZeroDivisionError, "numerically singular")])
    def test_complex_singular_through_mpmath(self, case, exc, message):
        # complex operands run mpmath's LU_decomp, whose failures become
        # SingularMatrixError; the complex B routes A there even when A stores
        # no entry (an mpc zero is not stored)
        A = {"zero-column": mp.matrix([[0, 1, mp.mpc(2, 1)], [0, 3, 4], [0, 5, 7]]),
             "rank-deficient": mp.matrix([[1, 2, mp.mpc(0, 1)], [2, 4, mp.mpc(0, 2)],
                                          [0, 1, 1]]),
             "zero": mp.zeros(3, 3)}[case]
        B = mp.eye(3) * mp.mpc(1, 1)
        with working_precision(256):
            with pytest.raises(exc):
                oracle_mp_lu_solve(A, B)
            with pytest.raises(SingularMatrixError, match=message):
                mat_lu_solve(A, B)


    @staticmethod
    def assert_all_three_match(A, B, C, c1, c2):
        """``A B``, ``c1 B + c2 C`` and ``A \\ B`` give the oracles' bits, or both raise."""
        assert mp_bits(mp_matmul(A, B)) == mp_bits(oracle_mp_matmul(A, B))
        assert mp_bits(mp_lincomb(c1, B, c2, C)) == mp_bits(oracle_mp_lincomb(c1, B, c2, C))
        try:
            want = oracle_mp_lu_solve(A, B)
        except (ZeroDivisionError, TypeError):
            with pytest.raises(SingularMatrixError):
                mat_lu_solve(A, B)
        else:
            assert mp_bits(mat_lu_solve(A, B)) == mp_bits(want)

    @pytest.mark.parametrize("prec", [113, 256])
    def test_entries_spanning_2_to_the_700(self, monkeypatch, prec):
        # products 2^700 apart are more than 2p apart: mpf_sum drops the 1 of
        # 2^700 + 1 - 2^700, and so must the product
        rng = np.random.default_rng(prec)
        with mp.workprec(prec + 20):
            A = mp.matrix([[mp.mpf(2) ** 700, 1, -mp.mpf(2) ** 700], [1, 1, 1], [3, 0, 1]])
            A += mp.matrix([[0] * 3, [mp.mpf(2) ** int(rng.integers(-700, 700)) / 3
                                      for _ in range(3)], [0] * 3])
            B = mp.matrix([[1, mp.mpf(2) ** -700], [1, 1], [1, mp.mpf(2) ** 700 / 7]])
            C = mp.matrix([[mp.mpf(2) ** -700, 1], [2, mp.mpf(2) ** 650], [5, 1]])
            c1, c2 = mp.mpf(2) ** 600 / 3, mp.mpf(2) ** -600 / 5
        sums = []
        monkeypatch.setattr(numerics, "mpf_sum", lambda *a: sums.append(1) or libmp.mpf_sum(*a))
        with working_precision(prec):
            assert mp_matmul(A, B)[0, 0] == 0 == oracle_mp_matmul(A, B)[0, 0]
            assert sums
            self.assert_all_three_match(A, B, C, c1, c2)

    def test_exponent_gaps_of_a_million_bits_stay_small(self):
        # 1 - 2^-1000000 and 2^1000000 + 1 round as mpf_add's sticky bit rounds
        # them; the integers never grow to a million bits
        big, tiny = mp.mpf(2) ** 1000000, mp.mpf(2) ** -1000000
        A = mp.matrix([[1, 1, tiny], [tiny, 1, 1], [big, tiny, 1]])
        B = mp.matrix([[1, tiny], [big, 1], [1, -big]])
        start = time.perf_counter()
        with working_precision(256):
            self.assert_all_three_match(A, B, B * 3, mp.mpf(1), big)
            self.assert_all_three_match(A, B, B, tiny, mp.mpf(-1) / 3)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("prec", [113, 256])
    def test_sticky_bit_for_a_far_smaller_term(self, prec):
        # x has P + 20 bits at the LU's P = prec + 10, its low 20 bits 4 units
        # below half an ulp; x - y with y = -(8 + 2^-101) units lies above the
        # half, but mpf_add stands a sticky bit in for y, which lies more than
        # P + 4 bits below x and ends more than 100 bits below it: x rounds down
        P = prec + 10
        x = mp.make_mpf(libmp.from_man_exp(((1 << (P - 1)) + 1) << 20 | (1 << 19) - 4, -P))
        y = mp.make_mpf(libmp.from_man_exp(-((8 << 101) + 1), -P - 101))
        with working_precision(prec):
            # x - y in the elimination, then in the forward substitution
            for A, B in ((mp.matrix([[1, y], [1, x]]), mp.matrix([[0], [1]])),
                         (mp.matrix([[1, 0], [1, 1]]), mp.matrix([[y], [x]]))):
                assert mp_bits(mat_lu_solve(A, B)) == mp_bits(oracle_mp_lu_solve(A, B))
            X = mat_lu_solve(A, B)
        with mp.workprec(2 * P):  # exactly, x - y rounds up to P bits
            assert X[1, 0] < x - y < mp.mpf(libmp.from_man_exp(X[1, 0].man + 1, X[1, 0].exp))

    @pytest.mark.parametrize("prec", [113, 256])
    def test_half_ulp_ties_round_to_even(self, prec):
        # 2^q + 1 and 2^q + 3 lie halfway between q-bit numbers: the first
        # rounds down to 2^q, the second up to 2^q + 4
        top = mp.mpf(2) ** prec
        with mp.workprec(2 * prec):
            A = mp.matrix([[top, 1], [top + 2, 1]])
            C = mp.matrix([[1, top + 1], [top + 3, 1]])
        with working_precision(prec):
            P = mp_matmul(A, mp.ones(2, 1))
            assert (P[0, 0], P[1, 0]) == (top, top + 4)
            L = mp_lincomb(mp.mpf(1), A, mp.mpf(1), mp.ones(2, 2))
            assert (L[0, 0], L[1, 0]) == (top, top + 4)
            S = mp_lincomb(mp.mpf(1), C, mp.mpf(0), C)  # the products round too
            assert (S[0, 1], S[1, 0]) == (top, top + 4)
            self.assert_all_three_match(A, mp.ones(2, 1), mp.ones(2, 1), mp.mpf(1), mp.mpf(1))
        # the LU runs at prec + 10: x - f y = 2^q + 1 in the elimination, with
        # f = 1 and y = -1, and in the forward substitution
        lu = mp.mpf(2) ** (prec + 10)
        with mp.workprec(2 * prec + 20):
            for x in (lu, lu + 2):
                A = mp.matrix([[1, -1], [1, x]])
                B = mp.matrix([[-1, 0], [x, 1]])
                with working_precision(prec):
                    self.assert_all_three_match(A, B, B, mp.mpf(1), mp.mpf(1))

    @pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 1)])
    def test_inf_and_nan_entries_are_never_read_as_zero(self, special, where):
        rng = np.random.default_rng(len(special) + 3 * where[0] + where[1])
        A, B, C = (_mp_rand(rng, 3, cols, 256, False) for cols in (3, 2, 2))
        with working_precision(256):
            A += mp.eye(3)
            A[where] = mp.mpf(special)
            self.assert_all_three_match(A, B, C, mp.mpf(1) / 3, mp.mpf(-2))
            A[where] = 1
            B[where[0], where[1] % 2] = mp.mpf(special)
            self.assert_all_three_match(A, B, C, mp.mpf(1) / 3, mp.mpf(-2))
            C[where[0], where[1] % 2] = mp.mpf(special)
            self.assert_all_three_match(A, B, C, mp.mpf(special), mp.mpf(0))

    def test_exact_cancellation_is_stored_as_nothing(self):
        # each kernel reaches an exact 0, which mpmath stores as no entry
        A = mp.matrix([[1, 0], [1, 1]])
        B = mp.matrix([[1, 3], [1, mp.mpf(1) / 3]])
        with working_precision(256):
            P = mp_matmul(mp.matrix([[1, -1]]), B)
            L = mp_lincomb(mp.mpf(3), B, mp.mpf(-3), B)
            X = mat_lu_solve(A, B)
            assert mp_bits(P) == mp_bits(oracle_mp_matmul(mp.matrix([[1, -1]]), B))
            assert (0, 0) not in P._matrix__data
            assert mp_bits(L) == (2, 2, {}) == mp_bits(oracle_mp_lincomb(3, B, -3, B))
            assert (1, 0) not in X._matrix__data
            self.assert_all_three_match(A, B, B, mp.mpf(3), mp.mpf(-3))

    @pytest.mark.parametrize("prec", [113, 256])
    def test_wide_entry_minus_a_zero_product_is_rounded(self, prec):
        # x of P + 20 bits, P = prec + 10, meets a zero multiplier in the
        # elimination and a zero L or U entry in each substitution; x - 0 is x
        # rounded to P bits, and dividing by 3 then shows the rounding
        P = prec + 10
        x = mp.make_mpf(libmp.from_man_exp((1 << (P + 19)) + (1 << 19) + 1, -P))
        with working_precision(prec):
            for A, B in ((mp.matrix([[2, 1], [0, x]]), mp.matrix([[1], [1]])),
                         (mp.matrix([[3, 0], [0, 3]]), mp.matrix([[x, 1], [x, x]]))):
                assert mp_bits(mat_lu_solve(A, B)) == mp_bits(oracle_mp_lu_solve(A, B))

    def test_exact_cancellation_inside_the_elimination(self, monkeypatch):
        # 3 - (1/2) 6 cancels in the first elimination step, and entries of B
        # cancel in the forward substitution: each a zero pair whose exponent
        # is not 0, which the pivot search, the substitutions and the
        # write-back read as 0
        zeros, fms = [], numerics._fms

        def spy(*args):
            out = fms(*args)
            zeros.extend(e for m, e in out if not m and e)
            return out

        monkeypatch.setattr(numerics, "_fms", spy)
        scale = mp.mpf(2) ** -50
        A = mp.matrix([[1, 3, 1], [2, 6, 1], [1, 1, 4]]) * scale
        B = mp.matrix([[1, 2], [2, 2], [3, 1]]) * scale
        with working_precision(256):
            X = mat_lu_solve(A, B)
            assert mp_bits(X) == mp_bits(oracle_mp_lu_solve(A, B))
        assert zeros

    @pytest.mark.parametrize("prec", [113, 256])
    def test_equal_pivot_weights_take_the_first_row(self, prec):
        # rows 0 and 1 both have |a_k0| / s_k = 3/6: mpmath keeps the first
        A = mp.matrix([[3, 1, 2], [3, 2, 1], [1, 1, 5]])
        with mp.workprec(prec + 20):
            B = mp.matrix([[1, 2], [5, 1], [2, 7]]) / 3
        with working_precision(prec):
            assert mp_bits(mat_lu_solve(A, B)) == mp_bits(oracle_mp_lu_solve(A, B))
            assert mp_bits(mat_lu_solve(A.T, B)) == mp_bits(oracle_mp_lu_solve(A.T, B))

    @pytest.mark.parametrize("prec", [113, 256])
    @pytest.mark.parametrize("case", ["dropped-term", "wide-term"])
    def test_pivot_row_sums_as_mpmath_forms_them(self, prec, case):
        # rows 0 and 1 tie at |a_k0| / s_k = 1/2, and row 0 wins, only because
        # s_0 = 2 + h + t rounds to 2 at P = prec + 10 bits, h = 2^(1 - P) being
        # half an ulp of 2: mpf_sum drops t = 2^(-3P - 5), more than 2P bits
        # below the rest, and the pivot search rounds a wide h (1 + 2^(-P - 20))
        # to h before adding
        P = prec + 10
        with mp.workprec(4 * P):
            h, t = mp.mpf(2) ** (1 - P), mp.mpf(2) ** (-3 * P - 5)
            if case == "wide-term":
                h, t = h * (1 + mp.mpf(2) ** (-P - 20)), 0
            A = mp.matrix([[1, h, t, 1], [1, 1, mp.mpf(2) ** (1 - P), 0],
                           [0, 1, 1, 3], [1, 0, 2, 1]])
            B = mp.matrix([[1, 2], [5, 1], [2, 7], [4, 4]]) / 3
        with working_precision(prec):
            assert mp_bits(mat_lu_solve(A, B)) == mp_bits(oracle_mp_lu_solve(A, B))

    @pytest.mark.parametrize("prec", [113, 256])
    def test_pairs_with_trailing_zeros_decide_as_canonical_ones(self, prec):
        # the kernels keep trailing zeros in their pairs, so pair exponents are
        # not libmp's: here 2^K, 1 and -2^K all sit at pair exponent 0, while
        # their lowest set bits span K > 2p and mpf_sum drops the 1
        K = 2 * prec + 40
        rng = np.random.default_rng(prec)
        big, one = (1 << K, 0), (1, 0)
        A = PairMatrix([[big, one, (-big[0], 0)], [one, big, one], [big, big, one]], 3)
        pad = [(m << z, e - z) for (m, e), z in zip(((5, -3), (1, 0), (-7, 2)),
                                                    rng.integers(0, 2 * prec, 3).tolist())]
        B = PairMatrix([[one, pad[0], pad[1]], [one, pad[2], pad[0]], [one, pad[1], one]], 3)
        with working_precision(prec):
            MA, MB = A.matrix(), B.matrix()
            assert mp_bits((A * B).matrix()) == mp_bits(oracle_mp_matmul(MA, MB))
            assert (A * B).matrix()[0, 0] == 0
            c1, c2 = mp.mpf(1) / 3, mp.mpf(-2) ** -K
            assert (mp_bits(PairMatrix.lincomb(c1, A, c2, B).matrix())
                    == mp_bits(oracle_mp_lincomb(c1, MA, c2, MB)))
            for S in (B, PairMatrix([[(m << 9, e - 9) for m, e in r] for r in B.data], 3)):
                assert (mp_bits(mat_lu_solve(S, A).matrix())
                        == mp_bits(oracle_mp_lu_solve(S.matrix(), MA)))

    @pytest.mark.parametrize("prec", [113, 256])
    @pytest.mark.parametrize("d,singular", [(-1, True), (0, True), (1, False)])
    def test_last_pivot_at_the_tolerance(self, prec, d, singular):
        # the last pivot is d' = 2^(3 + d - P) against tol = (4 + d') 2^(1 - P),
        # 4 + d' rounded to P = prec + 10 bits: d' lies below tol for d = -1
        # (4 + d' rounds to 4) and d = 0, and above it for d = 1
        P = prec + 10
        with mp.workprec(2 * P):
            A = mp.matrix([[1, 0, 1], [0, 1, 1], [1, 1, 2 + mp.mpf(2) ** (3 + d - P)]])
        with working_precision(prec):
            self.assert_all_three_match(A, mp.eye(3), mp.eye(3), mp.mpf(1), mp.mpf(1))
            with pytest.raises(SingularMatrixError) if singular else contextlib.nullcontext():
                mat_lu_solve(A, mp.eye(3))

    @pytest.mark.parametrize("prec", [113, 256])
    def test_one_by_one(self, prec):
        # a 1 x 1 solve is one correctly rounded division of the raw entries,
        # and singular only at 0
        with mp.workprec(prec + 60):
            a, b = mp.mpf(7) / 3, mp.mpf(-5) / 9
        with working_precision(prec):
            for A, B in ((mp.matrix([[a]]), mp.matrix([[b, 1, 0]])),
                         (mp.matrix([[2 ** -900]]), mp.matrix([[b]])),
                         (mp.matrix([[0]]), mp.matrix([[b]]))):
                self.assert_all_three_match(A, B, B, a, b)


@st.composite
def _dense_operands(draw):
    """``(prec, A, B, C, c1, c2)``: A n x n, B and C n x m; entries have up to
    ``prec + 20`` bits, a fifth of them 0, and magnitudes within 2^±4, 2^±64
    or 2^±900, the last past the 2p of ``mpf_sum``."""
    prec = draw(st.integers(53, 300))
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    spread = draw(st.sampled_from([4, 64, 900]))

    def entry():
        if draw(st.integers(0, 4)) == 0:
            return mp.mpf(0)
        bits = draw(st.integers(1, prec + 20))
        man = draw(st.integers(1, (1 << bits) - 1)) * draw(st.sampled_from([-1, 1]))
        return mp.make_mpf(libmp.from_man_exp(man, draw(st.integers(-spread, spread)) - bits))

    def matrix(cols):
        return mp.matrix([[entry() for _ in range(cols)] for _ in range(n)])

    return prec, matrix(n), matrix(m), matrix(m), entry(), entry()


@settings(max_examples=150, deadline=None)
@given(_dense_operands())
def test_dense_kernels_match_mpmath_bit_for_bit(operands):
    """Random real operands with exponents far apart: every kernel gives the oracle's bits."""
    prec, A, B, C, c1, c2 = operands
    with working_precision(prec):
        TestDenseKernelsMatchMpmath.assert_all_three_match(A, B, C, c1, c2)


def _bits(x):
    return x if type(x) is tuple else x._mpf_


def _rounded(s):
    """The exact ``(man, exp)`` sum ``s`` rounded once to the working precision, as raw bits."""
    return libmp.from_man_exp(*s, mp.prec, libmp.round_nearest)


def _exact(x):
    """``x`` (an ``mpf``) as an exact ``(man, exp)`` pair."""
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp


class TestTruncatedLstsq:
    @pytest.mark.parametrize("n, zero_col", [(34, None), (12, 5), (2, None), (1, None)])
    def test_eigenvalues_match_eigsy_at_twice_prec(self, n, zero_col):
        rng = np.random.default_rng(71 + n)
        with mp.workprec(256):
            M = [[mp.mpf(v) * mp.mpf(2) ** int(e) for v, e in zip(row, rng.integers(-20, 20, n))]
                 for row in rng.standard_normal((n, n))]
            A = [[M[i][j] + M[j][i] for j in range(n)] for i in range(n)]
            if zero_col is not None:  # block diagonal: column zero_col needs no reflector
                for k in range(zero_col):
                    for j in range(zero_col, n):
                        A[k][j] = A[j][k] = mp.mpf(0)
            F = 2 * mp.prec + 64
            flat, e_fixed = _to_fixed([_exact(x) for row in A for x in row], F)
            d, e, reflectors = _householder([flat[j * n:j * n + j + 1] for j in range(n)], F)
            assert zero_col not in [i for i, _, _ in reflectors]
            _implicit_ql(d, e, F)
        with mp.workprec(512):
            E, _ = mp.eigsy(mp.matrix(A))
            got = sorted(mp.ldexp(x, e_fixed) for x in d)
            emax = max(abs(E[j]) for j in range(n))
            assert max(abs(got[j] - E[j]) for j in range(n)) <= mp.mpf(2) ** -200 * emax

    @pytest.mark.parametrize("spread, duplicates", [(40, 0), (40, 2), (60, 2)])
    def test_graded_eigenvalues_at_a_narrow_width(self, spread, duplicates):
        # the Gram matrix of 34 columns scaled by 2^0 down to 2^-spread, the
        # last `duplicates` of them copies of the first: eigenvalues graded
        # over 2 spread bits, and exact zeros.  At F = 384, below 2 prec + 64,
        # QL deflating at 2^-prec stalls on each of these; deflating at
        # 2^-(F/2 - 32) meets eigsy to that much of the largest eigenvalue
        n, F = 34, 384
        rng = np.random.default_rng(78)
        with mp.workprec(256):
            cols = [[mp.mpf(v) * mp.mpf(2) ** -float(s) for v in col]
                    for col, s in zip(rng.standard_normal((n, 2 * n)), np.linspace(0, spread, n))]
            cols[n - duplicates:] = cols[:duplicates]
            A = [[mp.fdot(a, c) for c in cols] for a in cols]
            flat, e_fixed = _to_fixed([_exact(x) for row in A for x in row], F)
            d, e, _ = _householder([flat[j * n:j * n + j + 1] for j in range(n)], F)
            _implicit_ql(d, e, F)
        with mp.workprec(512):
            E, _ = mp.eigsy(mp.matrix(A))
            got = sorted(mp.ldexp(x, e_fixed) for x in d)
            emax = max(abs(E[j]) for j in range(n))
            assert max(abs(got[j] - E[j]) for j in range(n)) <= mp.mpf(2) ** (32 - F // 2) * emax

    def test_integer_gram_equals_fdot(self):
        rng = np.random.default_rng(72)
        with mp.workprec(256):
            cols = [[mp.mpf(v) * mp.mpf(2) ** int(e) / 3 if k % 7 else mp.mpf(0)
                     for k, (v, e) in enumerate(zip(rng.standard_normal(60),
                                                    rng.integers(-150, 150, 60)))]
                    for _ in range(6)]
            cols.append([mp.mpf(0)] * 60)
            G, _ = _normal_equations(cols, cols[0])
            G0, _ = pairwise_normal_equations(cols, cols[0])
            for a in range(len(cols)):
                for c in range(len(cols)):
                    assert _rounded(G[a][c]) == _bits(mp.fdot(cols[a], cols[c]))
                    assert _rounded(G[a][c]) == _bits(G0[a][c])

    def test_normal_equations_with_outliers_equal_fdot(self):
        # entries far below their column's largest only widen its integers;
        # each column's small rows meet the large entries of another column,
        # so a row rounded away would change the rounded sums
        rng = np.random.default_rng(74)
        with mp.workprec(256):
            def col(scales):
                """Full 256-bit entries +-(1 + u/3) 2^s: top bit at s + 1."""
                return [rng.choice([-1, 1]) * (1 + mp.mpf(rng.uniform()) / 3) * mp.mpf(2) ** s
                        if s is not None else mp.mpf(0) for s in scales]

            cols = [
                col([0, -300, -2, -1, 0, -1, -5, 0]),          # one entry 2^-300 below
                col([-300, 0, 0, -1, -2, 0, -1, 0]),
                col([0, -3, -64, -65, 0, -1, 0, -2]),          # 64 and 65 bits below
                col([-70, -80, 0, -90, -100, -200, -65, -66]),  # all but the top far below
                col([None] * 8),                                # all zeros
                col([-400, -405, -410, -420, -430, -440, -450, -463]),  # small, within 64 bits
            ]
            b = col([-2, -90, 0, -1, -300, 0, -1, -70])        # outliers in b
            G, y = _normal_equations(cols, b)
            G0, y0 = pairwise_normal_equations(cols, b)
            for a in range(len(cols)):
                assert _rounded(y[a]) == _bits(mp.fdot(cols[a], b)) == _bits(y0[a])
                for c in range(len(cols)):
                    assert _rounded(G[a][c]) == _bits(mp.fdot(cols[a], cols[c])) == _bits(G0[a][c])

    @staticmethod
    def gram_case(name, rng):
        """``(prec, cols, b)`` of one named least-squares data set."""
        def rand(n, prec, lo=-10, hi=10):
            with mp.workprec(prec):
                return [mp.mpf(v) * mp.mpf(2) ** int(e) / 3
                        for v, e in zip(rng.standard_normal(n), rng.integers(lo, hi, n))]

        if name == "short-outliers":
            # entries 2^-70 and -3 * 2^-90 have short mantissas, so their products
            # sit above the lowest bits of the full-width integers
            cols = [rand(10, 256, 0, 2) for _ in range(3)]
            cols[0][4], cols[1][4], cols[2][7] = (mp.mpf(2) ** -70, -3 * mp.mpf(2) ** -90,
                                                  mp.mpf(2) ** -70)
            return 256, cols, rand(10, 256, 0, 2)
        if name in ("random-256", "random-1024"):
            prec = int(name[7:])
            return prec, [rand(40, prec) for _ in range(8)], rand(40, prec)
        if name == "limb-edges":
            # integers +-2^16k, 2^16k - 1 and -2^(16k-1), k = k0..k0+3 in one
            # column (within 64 bits of each other): limbs of 0, 0xffff
            # and 0x8000, and a full carry chain in the sums
            def col(k0):
                vals = [v for k in range(k0, k0 + 4)
                        for v in (2 ** (16 * k), -2 ** (16 * k), 2 ** (16 * k) - 1, -2 ** (16 * k - 1))]
                return [mp.mpf(v) for v in rng.permutation(np.array(vals, dtype=object))]

            with mp.workprec(256):
                return 256, [col(k0) for k0 in (1, 2, 4, 10, 13) for _ in range(2)], col(3)
        if name == "many-blocks":  # far more rows than one block holds
            return 256, [rand(300, 256) for _ in range(5)], rand(300, 256)
        assert name == "zeros"
        with mp.workprec(128):
            zero = [mp.mpf(0)] * 12
            part = rand(12, 128)
            part[::3] = zero[::3]
            return 128, [zero, part, zero, rand(12, 128)], zero

    @pytest.mark.parametrize("bound", [None, ("BLOCK_TERMS", 1), ("EXACT_TERMS", 64)],
                             ids=["default", "row-blocks", "row-chunks"])
    @pytest.mark.parametrize("name", ["short-outliers", "random-256", "random-1024",
                                      "limb-edges", "many-blocks", "zeros"])
    def test_limb_gram_equals_pairwise_and_fdot(self, monkeypatch, name, bound):
        # row-blocks: one row a block; row-chunks: a few rows an exactness
        # chunk, as vectors longer than 2**21 / L rows are split
        if bound is not None:
            monkeypatch.setattr(numerics, *bound)
        prec, cols, b = self.gram_case(name, np.random.default_rng(75))
        with mp.workprec(prec):
            if name == "many-blocks":
                width = max(m.bit_length()
                            for c in cols + [b] for m in FixedVector.read(list(c)).re)
                assert len(b) > numerics.BLOCK_TERMS // (width // LIMB_BITS + 1)
            G, y = _normal_equations(cols, b)
            G0, y0 = pairwise_normal_equations(cols, b)
            for a in range(len(cols)):
                assert _rounded(y[a]) == _bits(y0[a]) == _bits(mp.fdot(cols[a], b))
                for c in range(len(cols)):
                    assert _rounded(G[a][c]) == _bits(G0[a][c]) == _bits(mp.fdot(cols[a], cols[c]))

    def test_limb_products_exact_integers(self):
        # vectors of one integer each at every limb edge up to 20 limbs, and
        # sign-extended narrow vectors next to wide ones
        edges = [v for k in range(1, 21)
                 for v in (2 ** (16 * k), -2 ** (16 * k), 2 ** (16 * k) - 1, -2 ** (16 * k - 1))]
        rng = np.random.default_rng(76)
        mss = [[v] for v in edges] + [[int(v) for v in rng.integers(-2 ** 62, 2 ** 62, 5)]
                                       + [0, -1, 1, 2 ** 300 - 1, -2 ** 299] for _ in range(2)]
        width = max(len(ms) for ms in mss)
        mss = [ms * (width // len(ms)) for ms in mss]  # one length: repeat the singletons
        S = _limb_products(mss)
        for a, x in enumerate(mss):
            for c, z in enumerate(mss):
                assert S[a][c] == sum(p * q for p, q in zip(x, z))

    def test_non_finite_data_raises(self):
        with mp.workprec(256):
            for bad in (mp.nan, mp.inf, -mp.inf):
                with pytest.raises(ArithmeticError, match="not finite"):
                    truncated_lstsq([[mp.mpf(1), bad]], [mp.mpf(1), mp.mpf(2)], 0.0)

    def test_matches_eigsy_projection(self):
        rng = np.random.default_rng(73)
        with mp.workprec(256):
            J = [[mp.mpf(v) for v in row] for row in rng.standard_normal((30, 8))]
            for row in J:
                row[5] = row[1]  # a duplicate column
            b = [mp.mpf(v) for v in rng.standard_normal(30)]
            want, want_kept, _ = gram_eig_lstsq(J, b, 1e-30, hermitian=False)
            got, kept = truncated_lstsq([list(c) for c in zip(*J)], b, 1e-30)
            assert kept == want_kept == 7
            scale = max(abs(x) for x in want)
            assert max(abs(x - y) for x, y in zip(got, want)) <= mp.mpf(10) ** -70 * scale

    def test_near_duplicate_columns_converge(self):
        # four columns each equal to another plus 2^-250 noise: the Gram has
        # four eigenvalues at round-off level (about 2^-500 of the largest).
        # Implicit QL with only the test relative to the neighbouring
        # eigenvalues stalls on them; the floor 2^-(prec + 32) max|d| ends it
        rng = np.random.default_rng(2)
        with mp.workprec(256):
            J = [[mp.mpf(v) for v in row] for row in rng.standard_normal((30, 10))]
            for row, noise in zip(J, rng.standard_normal((30, 4))):
                for k in range(4):
                    row[5 + k] = row[k] + mp.mpf(noise[k]) * mp.mpf(2) ** -250
            b = [mp.mpf(v) for v in rng.standard_normal(30)]
            want, want_kept, _ = gram_eig_lstsq(J, b, 1e-30, hermitian=False)
            got, kept = truncated_lstsq([list(c) for c in zip(*J)], b, 1e-30)
            assert kept == want_kept == 6
            scale = max(abs(x) for x in want)
            assert max(abs(x - y) for x, y in zip(got, want)) <= mp.mpf(10) ** -70 * scale

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), prec=st.sampled_from([128, 256]),
           droptol=st.sampled_from([1e-8, 1e-15, 1e-30]), complex_=st.booleans(),
           K=st.integers(2, 6), duplicates=st.integers(0, 2))
    @example(seed=1, prec=128, droptol=1e-30, complex_=True, K=4, duplicates=0)
    def test_rank_and_step_within_the_stated_accuracy(self, seed, prec, droptol, complex_, K,
                                                      duplicates):
        # graded columns 2^-s, s up to 16 bits past sqrt of the drop threshold,
        # the last `duplicates` copies of the first, in the real embedding
        # [[Re J, -Im J], [Im J, Re J]] when complex: the kept rank and the step
        # against an mp.eigsy projection, wherever the docstring of
        # truncated_lstsq says the rank is exact, and to within 2^8 of the
        # accuracy it states
        rng = np.random.default_rng(seed)
        t = 2 * (1 - mp.frexp(droptol)[1])
        F = max(prec, 2 * t) + 128
        q = F // 2 - 32
        N = int(rng.integers(K + 1, 3 * K + 4))
        scales = rng.integers(0, t // 2 + 16, K)
        with mp.workprec(prec):
            def block():
                cols = [[mp.mpf(v) * mp.mpf(2) ** -int(s) for v in col]
                        for col, s in zip(rng.standard_normal((K, N)), scales)]
                cols[K - duplicates:] = cols[:duplicates]
                return cols

            re, b = block(), [mp.mpf(v) for v in rng.standard_normal(2 * N if complex_ else N)]
            if complex_:
                im = block()
                cols = ([r + i for r, i in zip(re, im)]
                        + [[-v for v in i] + r for r, i in zip(re, im)])
            else:
                cols = re
            got, kept = truncated_lstsq(cols, b, droptol)
        with mp.workprec(prec + 2 * t + 128):
            want, want_kept, E = gram_eig_lstsq([list(row) for row in zip(*cols)], b, droptol,
                                                hermitian=False)
            emax = max(map(abs, E))
            threshold = mp.mpf(droptol) ** 2 * emax
            assume(all(abs(x - threshold) > mp.ldexp(emax, -q) for x in E))
            assert kept == want_kept
            t_kept = -mp.log(min(x for x in E if x > threshold) / emax, 2)
            bound = 2 ** 8 * max(mp.mpf(2) ** (2 * t_kept - F), mp.mpf(2) ** (t_kept - q),
                                 mp.mpf(2) ** (1 - prec))
            assert max(abs(x - y) for x, y in zip(got, want)) <= bound * max(map(abs, want))

    @pytest.mark.parametrize("seed", [5, 10, 11])
    def test_exact_duplicate_dropped_at_a_tiny_droptol(self, seed):
        # prec 128 and droptol 1e-30 (t = 200): five graded complex columns,
        # the last a copy of the first, in the real embedding.  The exactly
        # zero Gram eigenvalues of the duplicate must be dropped, which needs
        # QL to deflate at q >= t + 32, so F >= 2t + 128 = 528 > 2 prec + 64
        prec, droptol, K = 128, 1e-30, 5
        rng = np.random.default_rng(seed)
        N = int(rng.integers(K + 1, 3 * K + 4))
        scales = rng.integers(0, 116, K)
        with mp.workprec(prec):
            def block():
                cols = [[mp.mpf(v) * mp.mpf(2) ** -int(s) for v in col]
                        for col, s in zip(rng.standard_normal((K, N)), scales)]
                return cols[:K - 1] + cols[:1]

            re, b = block(), [mp.mpf(v) for v in rng.standard_normal(2 * N)]
            im = block()
            cols = ([r + i for r, i in zip(re, im)]
                    + [[-v for v in i] + r for r, i in zip(re, im)])
            got, kept = truncated_lstsq(cols, b, droptol)
        with mp.workprec(656):
            want, want_kept, E = gram_eig_lstsq([list(row) for row in zip(*cols)], b, droptol,
                                                hermitian=False)
            assert kept == want_kept == 8
            # the step within 2^8 of the accuracy the docstring states at
            # F = 528, q = 232
            emax = max(map(abs, E))
            t_kept = -mp.log(min(x for x in E if x > droptol ** 2 * emax) / emax, 2)
            bound = 2 ** 8 * max(mp.mpf(2) ** (2 * t_kept - 528), mp.mpf(2) ** (t_kept - 232),
                                 mp.mpf(2) ** (1 - prec))
            assert max(abs(x - y) for x, y in zip(got, want)) <= bound * max(map(abs, want))

    def test_droptol_of_every_accepted_kind(self):
        # GNConfig takes a droptol in [0, 1), the kernel any droptol >= 0: an
        # mpf keeps what the float keeps, and infinity drops every singular value
        rng = np.random.default_rng(77)
        with mp.workprec(256):
            cols = [[mp.mpf(v) for v in c] for c in rng.standard_normal((4, 12))]
            b = [mp.mpf(v) for v in rng.standard_normal(12)]
            assert truncated_lstsq(cols, b, mp.mpf(1e-3)) == truncated_lstsq(cols, b, 1e-3)
            assert truncated_lstsq(cols, b, float("inf")) == ([0] * 4, 0)

    def test_zero_matrix_zero_step(self):
        with mp.workprec(128):
            x, kept = truncated_lstsq([[mp.mpf(0)] * 3] * 2, [mp.mpf(1)] * 3, 0.0)
        assert kept == 0 and x == [0, 0]

    def test_no_columns_empty_step(self):
        with mp.workprec(128):
            assert truncated_lstsq([], [mp.mpf(1)] * 3, 0.0) == ([], 0)

    @pytest.mark.parametrize("cols, b", [([[1, 2, 3]], [1, 1]), ([[1, 2, 3], [1]], [1, 1, 1])],
                             ids=["short-rhs", "short-column"])
    def test_operands_of_unequal_length_refused(self, cols, b):
        # the Gram product zips rows: a short operand would cut the others to
        # its length (x = 0.6 and [0.5, 0.5] here) instead of raising
        with mp.workprec(256):
            with pytest.raises(ValueError, match="unequal lengths"):
                truncated_lstsq(cols, b, 0.0)


class TestRefused:
    @pytest.mark.parametrize("A, B, message", [
        (np.ones((2, 3)), np.ones((2, 1)), "coefficient matrix must be square"),
        (mp.matrix(2, 3), mp.matrix(2, 1), "coefficient matrix must be square"),
        (mp.eye(2), mp.matrix(3, 1), "dimension mismatch in linear solve"),
    ])
    def test_solve_shapes(self, A, B, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mat_lu_solve(A, B)

    def test_pair_matrix_shapes(self):
        a, b = PairMatrix.read(mp.eye(2)), PairMatrix.read(mp.matrix(3, 2))
        with pytest.raises(ValueError, match="^dimensions not compatible for multiplication$"):
            a * b
        with pytest.raises(ValueError, match="^incompatible dimensions for addition$"):
            PairMatrix.lincomb(1, a, 1, b)

    def test_point_that_is_not_a_number(self):
        with working_precision(256):
            with pytest.raises(TypeError, match="^cannot read a NoneType as an extended-precision number$"):
                FixedVector.read([1.0, None])

    def test_zero_denominator_is_a_malformed_literal(self):
        with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
            numerics.exact_decimal("1/0")

    def test_eigenvalues_not_converged_within_the_iteration_limit(self):
        # the limit is 2 mp.dps sweeps per eigenvalue: 2 at one digit
        F = 200
        d, e = [k << F for k in (1, 2, 3)], [1 << F, 1 << F, 0]
        with mp.workdps(1):
            with pytest.raises(ArithmeticError, match="^no convergence to an eigenvalue after 2 iterations$"):
                _implicit_ql(list(d), list(e), F)
        _implicit_ql(d, e, F)
        root3 = math.sqrt(3)
        assert sorted(x / 2.0 ** F for x in d) == pytest.approx([2 - root3, 2, 2 + root3], rel=1e-15)


def _top(m, e):
    return e + abs(m).bit_length()


class TestRouteThresholds:
    """The kernels that add on integers hand wide terms to libmp; on each side of
    each threshold the result is libmp's, bit for bit."""

    @staticmethod
    def _man(rng, bits):
        """A mantissa of exactly ``bits`` bits and a random sign."""
        return (rng.getrandbits(bits - 1) | 1 << (bits - 1)) * rng.choice((-1, 1))

    @pytest.mark.parametrize("p", [53, 113])
    def test_product_of_a_row_whose_low_bits_span_2p(self, p):
        # _aligned still makes integers at a span of exactly 2p, and the
        # product takes the integer route: the column's span is 0
        A = mp.matrix([[1, mp.mpf(2) ** (2 * p)], [0, 1]])
        B = mp.matrix([[3, 0], [mp.mpf(2) ** -5, 1]])
        with working_precision(p):
            assert mp_bits((PairMatrix.read(A) * PairMatrix.read(B)).matrix()) == mp_bits(A * B)

    @pytest.mark.parametrize("p", [53, 113])
    @pytest.mark.parametrize("span", [-1, 0, 1])
    def test_abs_sum_at_top_bit_spans_next_to_2p(self, p, span):
        # _abs_sum adds on integers up to a span of 2p, mpf_sum past it
        rng = random.Random(10 * p + span)
        for each in (False, True):
            width = p if each else p + 20  # rounding each term first moves no top bit
            for _ in range(40):
                big = self._man(rng, rng.randint(1, width)), rng.randint(-80, 80)
                m = self._man(rng, rng.randint(1, width))
                small = m, _top(*big) - (2 * p + span) - abs(m).bit_length()
                m = self._man(rng, rng.randint(1, width))
                mid = m, rng.randint(_top(*small), _top(*big)) - abs(m).bit_length()
                xs = [big, small, mid, (0, rng.randint(-5, 5))]
                rng.shuffle(xs)
                tops = [_top(*x) for x in xs if x[0]]
                assert max(tops) - min(tops) == 2 * p + span
                want = libmp.mpf_sum([libmp.from_man_exp(abs(m), e, p if each else 0, libmp.round_nearest)
                                      for m, e in xs], p, libmp.round_nearest)
                assert libmp.from_man_exp(*numerics._abs_sum(xs, p, each)) == want

    @pytest.mark.parametrize("p", [53, 113])
    @pytest.mark.parametrize("offset", [3, 4, 5])
    def test_fms_at_top_bit_offsets_next_to_p_plus_4(self, p, offset):
        # _fms subtracts on integers while x and f y are at most p + 4 top bits apart
        rng = random.Random(10 * p + offset)
        f = self._man(rng, p), rng.randint(-40, 40)
        xs, ys, want = [], [], []
        for _ in range(80):
            y = self._man(rng, rng.randint(1, p)), rng.randint(-40, 40)
            t = libmp.mpf_mul(libmp.from_man_exp(*f), libmp.from_man_exp(*y), p, libmp.round_nearest)
            m = self._man(rng, rng.randint(1, p))
            x = m, t[2] + t[3] + rng.choice((-1, 1)) * (p + offset) - abs(m).bit_length()
            xs.append(x)
            ys.append(y)
            want.append(libmp.mpf_sub(libmp.from_man_exp(*x), t, p, libmp.round_nearest))
        assert [libmp.from_man_exp(*z) for z in numerics._fms(xs, f, ys, p)] == want
