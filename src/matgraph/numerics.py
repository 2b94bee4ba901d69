"""Precision-parametric scalar and dense-matrix arithmetic.

Scalars come in two families:

* binary64 values, represented by plain ``float``/``complex``, and
* extended-precision values, represented by ``mpmath`` ``mpf``/``mpc``
  numbers with a configurable number of mantissa bits.

mpmath performs every operation at the precision of the *ambient* context,
so all public entry points of this package wrap their numerical work in
:func:`working_precision`.  Dense extended-precision matrices are
``mpmath.matrix`` instances (classical O(n^3) multiply, partially pivoted
LU); binary64 matrices are numpy arrays and delegate to the optimized
kernels numpy binds to.

The extended-precision least-squares step (:func:`truncated_lstsq`) forms
its Gram matrix from exact integer dot products rounded once, setting aside
the few entries far below their column's largest so that they do not widen
every integer.  The dot products are float64 BLAS products of 16-bit limbs
of the integers, small enough that no sum rounds (the error-free splitting
of Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).  The Gram
matrix is reduced with ports of mpmath's symmetric eigensolver that run on
raw libmp tuples: the same roundings as ``mpmath.eigsy`` without an ``mpf``
object per operation.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import libmp, mp
from mpmath.libmp import (fone, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_hypot, mpf_le,
                          mpf_lt, mpf_mul, mpf_neg, mpf_shift, mpf_sqrt, mpf_sub, mpf_sum,
                          round_nearest as RND)


class SingularMatrixError(ArithmeticError):
    """A linear solve encountered an (exactly) singular operand."""


#: binary64 machine epsilon, 2^-52
EPS64 = 2.0 ** -52

SCALAR_TYPES = (int, float, complex, mpmath.mpf, mpmath.mpc)


@dataclass(frozen=True)
class CoeffType:
    """Scalar kind tag: mantissa width in bits plus real/complex flag.

    ``prec=None`` selects binary64 (53 mantissa bits, native floats).
    """

    prec: int | None = None
    is_complex: bool = False

    def __post_init__(self):
        if self.prec is not None and self.prec < 53:
            raise ValueError("extended precision needs at least 53 bits")

    @property
    def bits(self) -> int:
        return 53 if self.prec is None else self.prec

    @property
    def tag(self) -> str:
        """Textual tag used by the graph file format."""
        if self.prec is None:
            return "ComplexF64" if self.is_complex else "Float64"
        base = f"BigFloat{self.prec}"
        return "Complex" + base if self.is_complex else base

    @classmethod
    def from_tag(cls, tag: str) -> "CoeffType":
        is_complex = False
        t = tag
        if t.startswith("Complex"):
            is_complex = True
            t = t[len("Complex"):]
        if t in ("Float64", "F64"):
            return cls(None, is_complex)
        if t.startswith("BigFloat"):
            return cls(int(t[len("BigFloat"):]), is_complex)
        raise ValueError(f"unknown coefficient type tag {tag!r}")

    def unit_roundoff(self):
        """2^-p for p mantissa bits (an ``mpf`` for extended precision)."""
        if self.prec is None:
            return 2.0 ** -53
        with mp.workprec(self.prec):
            return mp.mpf(2) ** (-self.prec)

    def complexified(self) -> "CoeffType":
        return CoeffType(self.prec, True)


FLOAT64 = CoeffType()
COMPLEX128 = CoeffType(is_complex=True)


def bigfloat(prec: int = 256, is_complex: bool = False) -> CoeffType:
    return CoeffType(prec, is_complex)


def working_precision(prec: int | None):
    """Context manager setting the mpmath precision; no-op for binary64."""
    if prec is None:
        return contextlib.nullcontext()
    return mp.workprec(prec)


#: bound on the decimal exponent of :func:`exact_decimal`, far outside any
#: coefficient this package uses; the exact value of 1e<n> costs time in n
MAX_DECIMAL_EXPONENT = 10_000


def exact_decimal(text: str) -> Fraction:
    """Exact value of a decimal or ``p/q`` literal (``ValueError`` if malformed)."""
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    return Fraction(text)


def is_scalar(x) -> bool:
    return isinstance(x, SCALAR_TYPES)


def _imag_of(x):
    return x.imag if isinstance(x, (complex, mpmath.mpc)) else 0


def convert_scalar(x, ct: CoeffType):
    """Round a scalar to the given kind (exact rationals round to nearest).

    Complex-to-real conversion requires an exactly zero imaginary part.
    """
    if isinstance(x, Fraction):
        if ct.prec is None:
            return complex(x) if ct.is_complex else float(x)
        with mp.workprec(ct.prec):
            v = mp.make_mpf(libmp.from_rational(x.numerator, x.denominator, ct.prec,
                                                libmp.round_nearest))
            return mp.mpc(v) if ct.is_complex else v
    if not is_scalar(x):
        raise TypeError(f"not a scalar: {x!r}")
    if not ct.is_complex and _imag_of(x) != 0:
        raise ValueError("cannot convert complex value with nonzero imaginary part to real")
    if ct.prec is None:
        if ct.is_complex:
            return complex(x)
        return float(x.real if isinstance(x, (complex, mpmath.mpc)) else x)
    with mp.workprec(ct.prec):
        if ct.is_complex:
            return mp.mpc(x)
        return mp.mpf(x.real if isinstance(x, (complex, mpmath.mpc)) else x)


def scalar_to_float(x):
    """Round-to-nearest conversion to binary64 (complex allowed)."""
    if isinstance(x, (complex, mpmath.mpc)):
        return complex(x)
    return float(x)


# ---------------------------------------------------------------------------
# dense matrices


def is_np_matrix(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim == 2


def is_mp_matrix(x) -> bool:
    return isinstance(x, mpmath.matrix)


def as_mp_matrix(data, prec: int) -> mpmath.matrix:
    """Build an extended-precision matrix, rounding entries to ``prec`` bits."""
    with mp.workprec(prec):
        rows = np.asarray(data, dtype=object)
        if rows.ndim != 2:
            raise ValueError("expected a 2-d array")
        M = mp.matrix(rows.shape[0], rows.shape[1])
        for i in range(rows.shape[0]):
            for j in range(rows.shape[1]):
                v = rows[i, j]
                M[i, j] = mp.mpc(v) if _imag_of(v) != 0 else mp.mpf(v.real if isinstance(v, (complex, mpmath.mpc)) else v)
        return M


def mat_lu_solve(A, B):
    """Solve A X = B by partially pivoted LU; raise on a zero pivot.

    Accepts either two numpy 2-d arrays or two ``mpmath.matrix`` operands.
    Object arrays (mpmath entries) are solved by mpmath at the working
    precision.
    """
    if is_np_matrix(A):
        if A.shape[0] != A.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if A.dtype == object or B.dtype == object:
            X = mat_lu_solve(mp.matrix(A.tolist()), mp.matrix(B.tolist()))
            return np.array(X.tolist(), dtype=object)
        try:
            return np.linalg.solve(A, B)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from exc
    if is_mp_matrix(A):
        if A.rows != A.cols:
            raise ValueError("coefficient matrix must be square")
        if B.rows != A.rows:
            raise ValueError("dimension mismatch in linear solve")
        cols = [mp.matrix([B[i, j] for i in range(B.rows)]) for j in range(B.cols)]
        try:
            # factor once; mp.lu_solve's 10 guard bits keep the result bit-identical
            with mp.workprec(mp.prec + 10):
                LU, perm = mp.LU_decomp(A.copy(), overwrite=True)
                sols = [mp.U_solve(LU, mp.L_solve(LU, col, perm)) for col in cols]
        except ZeroDivisionError as exc:
            raise SingularMatrixError("singular matrix in LU solve") from exc
        return mp.matrix([[sol[i] for sol in sols] for i in range(A.rows)])
    raise TypeError(f"unsupported matrix type {type(A).__name__}")


# ---------------------------------------------------------------------------
# truncated least squares
#
# The kernels work on raw libmp tuples at (mp.prec, round nearest): they read
# ``_mpf_`` once and call libmp's ``mpf_*`` in the order the ``mpf``
# operators would, each rounding as its operator does, so the results are
# bit-identical to object code.  2*x is written ``mpf_shift(x, 1)``, which is
# exact, as ``2 * x`` is.

#: an entry more than this many bits below its vector's largest is set aside
OUTLIER_BITS = 64

#: the Gram product writes each integer in limbs of this many bits
LIMB_BITS = 16
#: a product of two limbs is below 2**32 in magnitude, so a float64 sum of
#: fewer than this many of them is exact: rows times limbs of one chunk
EXACT_TERMS = 2 ** 21
#: rows times limbs of one block of the float64 limb array, 4 KiB a column
BLOCK_TERMS = 2 ** 9


def _fixed_point(xs):
    """``(ms, e, outliers)`` with ``xs[i] == ms[i] * 2**e`` exactly, in Python integers.

    ``xs`` holds ``mpf`` values or raw libmp tuples.  An entry whose top bit
    is more than :data:`OUTLIER_BITS` below the largest would widen every
    integer of the vector; it is set aside instead: ``ms[i]`` is 0 and
    ``outliers[i]`` holds its exact ``(man, exp)``.
    """
    raw = [x if type(x) is tuple else x._mpf_ if isinstance(x, mpmath.mpf) else mp.mpf(x)._mpf_
           for x in xs]
    if any(exp and not man for _, man, exp, _ in raw):
        raise ArithmeticError("least-squares data is not finite")
    cut = max((exp + bc for _, man, exp, bc in raw if man), default=0) - OUTLIER_BITS
    e = min((exp for _, man, exp, bc in raw if man and exp + bc >= cut), default=0)
    ms, outliers = [], {}
    for i, (sign, man, exp, bc) in enumerate(raw):
        if man and exp + bc < cut:
            outliers[i], man = (-man if sign else man, exp), 0
        ms.append((-man if sign else man) << (exp - e) if man else 0)
    return ms, e, outliers


def _limb_products(mss):
    """``S[a][c]``, the exact dot product of the integer vectors ``mss[a]`` and ``mss[c]``.

    Each integer is written as L limbs of :data:`LIMB_BITS` bits with
    ``int.to_bytes``, the top one signed, and read into a float64 block
    ``A`` of rows by (limb, vector).  For each limb i, the BLAS product of
    ``A`` with the K columns of limb i holds the products of limb i with
    every limb j, summed over the block's rows, and float64 adds them into
    the sums of limb diagonal i + j.  Those stay exact integers while the
    rows times limbs stay below :data:`EXACT_TERMS`; longer vectors are
    split into chunks that do.  Propagating the carries in int64 gives each
    sum as base-2**16 digits, which ``int.from_bytes`` reads back.  Nothing
    is rounded.
    """
    K, N = len(mss), len(mss[0])
    L = max((m.bit_length() for ms in mss for m in ms), default=0) // LIMB_BITS + 1
    chunk = max(1, (EXACT_TERMS - 1) // L)
    if N > chunk:
        parts = [_limb_products([ms[s:s + chunk] for ms in mss]) for s in range(0, N, chunk)]
        return [[sum(p[a][c] for p in parts) for c in range(K)] for a in range(K)]
    size = LIMB_BITS // 8 * L
    diag = np.zeros((2 * L - 1, K, K))
    block = max(1, BLOCK_TERMS // L)
    for start in range(0, N, block):
        buf = b"".join(m.to_bytes(size, "little", signed=True)
                       for row in zip(*(ms[start:start + block] for ms in mss)) for m in row)
        limbs = np.frombuffer(buf, "<u2").reshape(-1, K, L).transpose(0, 2, 1)
        A = limbs.astype(np.float64, order="C")
        A[:, -1] = np.frombuffer(buf, "<i2").reshape(-1, K, L)[:, :, -1]
        A = A.reshape(-1, L * K)
        for i in range(L):
            diag[i:i + L] += (A.T @ A[:, i * K:(i + 1) * K]).reshape(L, K, K)
    diag = diag.astype(np.int64)
    for d in range(2 * L - 2):
        diag[d + 1] += diag[d] >> LIMB_BITS
        diag[d] &= (1 << LIMB_BITS) - 1
    low, top = diag[:-1].transpose(1, 2, 0).astype("<u2").tobytes(), diag[-1].tolist()
    width, shift = 2 * (2 * L - 2), LIMB_BITS * (2 * L - 2)
    return [[int.from_bytes(low[(a * K + c) * width:(a * K + c + 1) * width], "little")
             + (top[a][c] << shift) for c in range(K)] for a in range(K)]


def _normal_equations(cols, b):
    """``(A^T A, A^T b)`` as lists, each entry an exact integer sum rounded once.

    A row that some vector set aside (see :func:`_fixed_point`) leaves the
    limb product: every vector's exact entry there is kept instead, and each
    sum adds those rows' products, shifted with the integer sum to the
    lowest exponent among them.
    """
    fixed = [_fixed_point(c) for c in cols]
    fixed.append(_fixed_point(b))
    aside = sorted(set().union(*(outliers for _, _, outliers in fixed)))
    exact = []
    for ms, e, outliers in fixed:
        exact.append([outliers.get(i) or (ms[i], e) for i in aside])
        for i in aside:
            ms[i] = 0
    S = _limb_products([ms for ms, _, _ in fixed])

    def dot(a, c):
        man, exp = S[a][c], fixed[a][1] + fixed[c][1]
        if aside:
            terms = [(p * q, ep + eq) for (p, ep), (q, eq) in zip(exact[a], exact[c])]
            low = min(exp, *(t for _, t in terms))
            man = (man << (exp - low)) + sum(m << (t - low) for m, t in terms)
            exp = low
        return mp.make_mpf(libmp.from_man_exp(man, exp, mp.prec, RND))

    K = len(cols)
    G = [[None] * K for _ in range(K)]
    for a in range(K):
        for c in range(a, K):
            G[a][c] = G[c][a] = dot(a, c)
    return G, [dot(a, K) for a in range(K)]


def _tridiagonalize(A):
    """Householder reduction of the symmetric ``A`` to ``(d, e, reflectors)``.

    A port of mpmath 1.3's ``r_sy_tridiag`` (EISPACK tred2) to raw tuples
    that does not accumulate Q: the same operations in the same order, so the
    diagonal ``d`` and off-diagonal ``e`` (``mpf`` lists) are bit-identical to
    the ones mpmath's ``eigsy`` iterates on.  Only the upper triangle is read,
    as columns ``a[j][k] = A[k][j]``, k <= j.  A reflector ``(i, u, H)``
    (tuples) maps the leading ``i`` entries of a vector v to
    ``v - u (u.v) / H``; Q^T v applies them in list order.
    """
    p = mp.prec
    n = len(A)
    a = [[A[k][j]._mpf_ for k in range(j + 1)] for j in range(n)]
    e = [fzero] * n
    reflectors = []
    for i in range(n - 1, 0, -1):
        u = a[i][:i]
        scale = fzero
        for k in range(i):
            scale = mpf_add(scale, mpf_abs(u[k], p, RND), p, RND)
        if i == 1 or scale == fzero:  # mpmath also skips an infinite 1/scale, which mpf never gives
            e[i] = u[i - 1]
            continue
        scale_inv = mpf_div(fone, scale, p, RND)
        H = fzero
        for k in range(i):
            u[k] = uk = mpf_mul(u[k], scale_inv, p, RND)
            H = mpf_add(H, mpf_mul(uk, uk, p, RND), p, RND)
        F = u[i - 1]
        G = mpf_sqrt(H, p, RND)
        if mpf_gt(F, fzero):
            G = mpf_neg(G)
        e[i] = mpf_mul(scale, G, p, RND)
        H = mpf_sub(H, mpf_mul(F, G, p, RND), p, RND)
        u[i - 1] = mpf_sub(F, G, p, RND)
        F = fzero
        for j in range(i):
            aj, G = a[j], fzero
            for k in range(j + 1):
                G = mpf_add(G, mpf_mul(aj[k], u[k], p, RND), p, RND)
            for k in range(j + 1, i):
                G = mpf_add(G, mpf_mul(a[k][j], u[k], p, RND), p, RND)
            e[j] = mpf_div(G, H, p, RND)
            F = mpf_add(F, mpf_mul(e[j], u[j], p, RND), p, RND)
        HH = mpf_div(F, mpf_shift(H, 1), p, RND)
        for j in range(i):
            F, aj = u[j], a[j]
            e[j] = G = mpf_sub(e[j], mpf_mul(HH, F, p, RND), p, RND)
            for k in range(j + 1):
                aj[k] = mpf_sub(aj[k], mpf_add(mpf_mul(F, e[k], p, RND),
                                               mpf_mul(G, u[k], p, RND), p, RND), p, RND)
        reflectors.append((i, u, H))
    d = [mp.make_mpf(a[i][i]) for i in range(n)]
    return d, list(map(mp.make_mpf, e[1:] + [fzero])), reflectors


def _tridiagonal_eigenvalues(d, e):
    """Eigenvalues of the symmetric tridiagonal ``(d, e)``, ascending, into ``d``.

    A port of mpmath 1.3's ``tridiag_eigen`` (EISPACK imtql2, implicit QL)
    to raw tuples with the same arithmetic, so ``d`` ends bit-identical to
    the eigenvalues of mpmath's ``eigsy``.  Instead of updating an
    eigenvector matrix Z it returns the plane rotations ``(i, c, s)``
    (tuples) in the order applied and the swaps ``(i, k)`` of the final
    sort; replayed on a row vector z they give z Z.
    """
    p = mp.prec
    n = len(d)
    D, E = [x._mpf_ for x in d], [x._mpf_ for x in e[:n - 1]] + [fzero]
    eps = (+mp.eps)._mpf_
    iterlim = 2 * mp.dps
    rotations, swaps = [], []
    for l in range(n):
        j = 0
        while True:
            m = l
            while m + 1 != n and not mpf_le(mpf_abs(E[m]), mpf_mul(
                    eps, mpf_add(mpf_abs(D[m]), mpf_abs(D[m + 1]), p, RND), p, RND)):
                m += 1
            if m == l:
                break
            if j >= iterlim:
                raise ArithmeticError(f"no convergence to an eigenvalue after {iterlim} iterations")
            j += 1
            q = D[l]
            g = mpf_div(mpf_sub(D[l + 1], q, p, RND), mpf_shift(E[l], 1), p, RND)
            r = mpf_hypot(g, fone, p, RND)
            s = mpf_sub(g, r, p, RND) if mpf_lt(g, fzero) else mpf_add(g, r, p, RND)
            g = mpf_add(mpf_sub(D[m], q, p, RND), mpf_div(E[l], s, p, RND), p, RND)
            s, c, q = fone, fone, fzero
            for i in range(m - 1, l - 1, -1):
                f = mpf_mul(s, E[i], p, RND)
                b = mpf_mul(c, E[i], p, RND)
                if mpf_gt(mpf_abs(f), mpf_abs(g)):
                    c = mpf_div(g, f, p, RND)
                    r = mpf_hypot(c, fone, p, RND)
                    E[i + 1] = mpf_mul(f, r, p, RND)
                    s = mpf_div(fone, r, p, RND)
                    c = mpf_mul(c, s, p, RND)
                else:
                    s = mpf_div(f, g, p, RND)
                    r = mpf_hypot(s, fone, p, RND)
                    E[i + 1] = mpf_mul(g, r, p, RND)
                    c = mpf_div(fone, r, p, RND)
                    s = mpf_mul(s, c, p, RND)
                g = mpf_sub(D[i + 1], q, p, RND)
                r = mpf_add(mpf_mul(mpf_sub(D[i], g, p, RND), s, p, RND),
                            mpf_mul(mpf_shift(c, 1), b, p, RND), p, RND)
                q = mpf_mul(s, r, p, RND)
                D[i + 1] = mpf_add(g, q, p, RND)
                g = mpf_sub(mpf_mul(c, r, p, RND), b, p, RND)
                rotations.append((i, c, s))
            D[l] = mpf_sub(D[l], q, p, RND)
            E[l] = g
            E[m] = fzero
    d[:] = map(mp.make_mpf, D)
    for i in range(n - 1):
        k = min(range(i, n), key=d.__getitem__)  # the first smallest, as mpmath picks
        if k != i:
            d[i], d[k] = d[k], d[i]
            swaps.append((i, k))
    return rotations, swaps


def _reflect(v, reflectors):
    """Apply each reflector ``(i, u, H)`` in turn: ``v[:i] -= u (u.v[:i]) / H``.

    ``u.v`` is an exact sum rounded once, as ``mp.fdot`` forms it.
    """
    p = mp.prec
    for i, u, H in reflectors:
        t = mpf_div(mpf_sum(list(map(mpf_mul, u, v[:i])), p, RND), H, p, RND)
        for k in range(i):
            v[k] = mpf_sub(v[k], mpf_mul(t, u[k], p, RND), p, RND)


def _rotate(v, rotations):
    """Apply each rotation ``(i, c, s)`` in turn to the row vector ``v``.

    Rounding is symmetric, so ``(i, c, -s)`` in reverse order undoes them.
    """
    p = mp.prec
    for i, c, s in rotations:
        a, b = v[i], v[i + 1]
        v[i] = mpf_sub(mpf_mul(c, a, p, RND), mpf_mul(s, b, p, RND), p, RND)
        v[i + 1] = mpf_add(mpf_mul(s, a, p, RND), mpf_mul(c, b, p, RND), p, RND)


def truncated_lstsq(cols, b, droptol):
    """Minimum-norm least-squares solution of ``A x = b`` over the kept singular values.

    ``cols`` are the columns of the real ``A`` and ``b`` its right-hand
    side, each an iterable of ``mpf`` values or raw libmp tuples read once
    (so a caller can produce the entries as they are read).  With A^T A = Q diag(E) Q^T,
    ``x = sum_j q_j (q_j^T A^T b) / E_j`` over the eigenvalues E_j > 0 with
    E_j > droptol^2 max|E|, i.e. the singular values of A above ``droptol``
    times the largest.  The Gram matrix and A^T b are exact integer sums
    rounded once (bit-equal to ``mp.fdot``), which one blocked float64
    product of 16-bit limbs computes for all of them at once; E is what
    mpmath's ``eigsy`` returns for that Gram matrix, and Q is never formed:
    Q^T A^T b and the map back go through the reflectors and rotations that
    produced E.  Returns ``(x, kept)``.
    """
    G, y = _normal_equations(cols, b)
    K = len(y)
    E, e, reflectors = _tridiagonalize(G)
    rotations, swaps = _tridiagonal_eigenvalues(E, e)
    emax = max(map(abs, E), default=mp.mpf(0))
    if emax == 0:
        return [mp.mpf(0)] * K, 0
    drop2 = (mp.mpf(droptol) ** 2) * emax
    # y <- Q^T y, replaying Z's updates on a row vector
    y = [v._mpf_ for v in y]
    _reflect(y, reflectors)
    _rotate(y, rotations)
    for i, k in swaps:
        y[i], y[k] = y[k], y[i]
    keep = [not (Ej <= 0 or Ej <= drop2) for Ej in E]
    y = [mpf_div(yj, Ej._mpf_, mp.prec, RND) if kj else fzero for yj, Ej, kj in zip(y, E, keep)]
    # x <- Q y
    for i, k in reversed(swaps):
        y[i], y[k] = y[k], y[i]
    _rotate(y, [(i, c, mpf_neg(s)) for i, c, s in reversed(rotations)])
    _reflect(y, reversed(reflectors))
    return list(map(mp.make_mpf, y)), sum(keep)
