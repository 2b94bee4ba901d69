from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from matgraph.numerics import (
    CoeffType,
    SingularMatrixError,
    bigfloat,
    convert_scalar,
    mat_lu_solve,
    mp_lincomb,
    mp_matmul,
    truncated_lstsq,
    working_precision,
)
from matgraph import numerics
from matgraph.numerics import (
    LIMB_BITS,
    _fixed_point,
    _limb_products,
    _normal_equations,
    _tridiagonal_eigenvalues,
    _tridiagonalize,
)

from support import (as_mp_matrix, gram_eig_lstsq, mp_bits, oracle_mp_lincomb,
                     oracle_mp_lu_solve, oracle_mp_matmul, pairwise_normal_equations)


class TestCoeffType:
    def test_tags_round_trip(self):
        for ct in (CoeffType(), CoeffType(is_complex=True), bigfloat(256),
                   bigfloat(1024, True)):
            assert CoeffType.from_tag(ct.tag) == ct

    def test_rejects_narrow_precision(self):
        with pytest.raises(ValueError):
            CoeffType(prec=24)

    def test_unit_roundoff(self):
        assert CoeffType().unit_roundoff() == 2.0 ** -53
        assert bigfloat(256).unit_roundoff() == mp.mpf(2) ** -256


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
            # the pivot search takes one reciprocal row sum per candidate row:
            # n + (n - 1) + ... + 2 for the one factorisation of A
            reciprocals = []
            rdiv = numerics.mpf_rdiv_int
            monkeypatch.setattr(numerics, "mpf_rdiv_int",
                                lambda *a: reciprocals.append(1) or rdiv(*a))
            X = mat_lu_solve(A, B)
        assert len(reciprocals) == n * (n + 1) // 2 - 1
        assert all(mp_bits(X.column(j)) == mp_bits(want[j]) for j in range(n))

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


def _bits(x):
    return x if type(x) is tuple else x._mpf_


class TestTruncatedLstsq:
    @pytest.mark.parametrize("n, zero_col", [(34, None), (12, 5), (2, None), (1, None)])
    def test_eigenvalues_bit_identical_to_eigsy(self, n, zero_col):
        rng = np.random.default_rng(71 + n)
        with mp.workprec(256):
            M = [[mp.mpf(v) * mp.mpf(2) ** int(e) for v, e in zip(row, rng.integers(-20, 20, n))]
                 for row in rng.standard_normal((n, n))]
            A = [[M[i][j] + M[j][i] for j in range(n)] for i in range(n)]
            if zero_col is not None:  # block diagonal: column zero_col needs no reflector
                for k in range(zero_col):
                    for j in range(zero_col, n):
                        A[k][j] = A[j][k] = mp.mpf(0)
            E, _ = mp.eigsy(mp.matrix(A))
            d, e, reflectors = _tridiagonalize([[x._mpf_ for x in row] for row in A])
            assert zero_col not in [i for i, _, _ in reflectors]
            _tridiagonal_eigenvalues(d, e)
            assert sorted(d, key=mp.make_mpf) == [_bits(E[j]) for j in range(n)]

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
                    assert _bits(G[a][c]) == _bits(mp.fdot(cols[a], cols[c]))
                    assert _bits(G[a][c]) == _bits(G0[a][c])

    def test_normal_equations_with_outliers_equal_fdot(self):
        # entries far below their column's largest are set aside and added
        # back exactly; each column's outlier rows meet the large entries of
        # another column, so a row left out changes the rounded sums
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
                col([-70, -80, 0, -90, -100, -200, -65, -66]),  # all but the top set aside
                col([None] * 8),                                # all zeros
                col([-400, -405, -410, -420, -430, -440, -450, -463]),  # small, none set aside
            ]
            # the 64/65 boundary: exactly 64 bits below the top stays in
            # the integers, 65 bits below is set aside
            top = max(x._mpf_[2] + x._mpf_[3] for x in cols[2])
            below = {i: top - (x._mpf_[2] + x._mpf_[3]) for i, x in enumerate(cols[2])}
            assert {i for i in below if below[i] > 64} == set(_fixed_point(cols[2])[2])
            assert 64 in below.values() and 65 in below.values()
            assert len(_fixed_point(cols[3])[2]) == 7
            assert not _fixed_point(cols[4])[2] and not _fixed_point(cols[5])[2]
            b = col([-2, -90, 0, -1, -300, 0, -1, -70])        # outliers in b
            G, y = _normal_equations(cols, b)
            G0, y0 = pairwise_normal_equations(cols, b)
            for a in range(len(cols)):
                assert _bits(y[a]) == _bits(mp.fdot(cols[a], b)) == _bits(y0[a])
                for c in range(len(cols)):
                    assert _bits(G[a][c]) == _bits(mp.fdot(cols[a], cols[c])) == _bits(G0[a][c])

    @staticmethod
    def gram_case(name, rng):
        """``(prec, cols, b)`` of one named least-squares data set."""
        def rand(n, prec, lo=-10, hi=10):
            with mp.workprec(prec):
                return [mp.mpf(v) * mp.mpf(2) ** int(e) / 3
                        for v, e in zip(rng.standard_normal(n), rng.integers(lo, hi, n))]

        if name == "short-outliers":
            # set-aside entries 2^-70 and -3 * 2^-90 have short mantissas, so their
            # products sit above the lowest bits of the full-width integers
            cols = [rand(10, 256, 0, 2) for _ in range(3)]
            cols[0][4], cols[1][4], cols[2][7] = (mp.mpf(2) ** -70, -3 * mp.mpf(2) ** -90,
                                                  mp.mpf(2) ** -70)
            return 256, cols, rand(10, 256, 0, 2)
        if name in ("random-256", "random-1024"):
            prec = int(name[7:])
            return prec, [rand(40, prec) for _ in range(8)], rand(40, prec)
        if name == "limb-edges":
            # integers +-2^16k, 2^16k - 1 and -2^(16k-1), k = k0..k0+3 in one
            # column (within 64 bits, so none is set aside): limbs of 0, 0xffff
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
                width = max(m.bit_length() for c in cols + [b] for m in _fixed_point(c)[0])
                assert len(b) > numerics.BLOCK_TERMS // (width // LIMB_BITS + 1)
            G, y = _normal_equations(cols, b)
            G0, y0 = pairwise_normal_equations(cols, b)
            for a in range(len(cols)):
                assert _bits(y[a]) == _bits(y0[a]) == _bits(mp.fdot(cols[a], b))
                for c in range(len(cols)):
                    assert _bits(G[a][c]) == _bits(G0[a][c]) == _bits(mp.fdot(cols[a], cols[c]))

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

    def test_zero_matrix_zero_step(self):
        with mp.workprec(128):
            x, kept = truncated_lstsq([[mp.mpf(0)] * 3] * 2, [mp.mpf(1)] * 3, 0.0)
        assert kept == 0 and x == [0, 0]
