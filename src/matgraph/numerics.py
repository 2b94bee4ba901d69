"""Precision-parametric scalar and dense-matrix arithmetic.

Scalars come in two families:

* binary64 values, represented by plain ``float``/``complex``, and
* extended-precision values, represented by ``mpmath`` ``mpf``/``mpc``
  numbers with a configurable number of mantissa bits.

mpmath performs every operation at the precision of the *ambient* context,
so all public entry points of this package wrap their numerical work in
:func:`working_precision`.  Dense extended-precision matrices are
``mpmath.matrix`` instances; binary64 matrices are numpy arrays and
delegate to the optimized kernels numpy binds to.  The evaluator's three
extended-precision matrix operations (product, linear combination and the
partially pivoted LU solve) run on raw libmp tuples, without an ``mpf``
object or a matrix index per operation, and give mpmath's own results bit
for bit (:func:`mp_matmul`, :func:`mp_lincomb`, :func:`mat_lu_solve`).

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
import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath
import numpy as np
from mpmath import libmp, mp
from mpmath.libmp import (fone, fzero, mpc_abs, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_hypot,
                          mpf_le, mpf_lt, mpf_mul, mpf_neg, mpf_rdiv_int, mpf_shift, mpf_sqrt,
                          mpf_sub, mpf_sum, round_nearest as RND)


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
    if not ct.is_complex and isinstance(x, (complex, mpmath.mpc)) and x.imag != 0:
        raise ValueError("cannot convert complex value with nonzero imaginary part to real")
    if ct.prec is None:
        if ct.is_complex:
            return complex(x)
        return float(x.real if isinstance(x, (complex, mpmath.mpc)) else x)
    with mp.workprec(ct.prec):
        if ct.is_complex:
            return mp.mpc(x)
        return mp.mpf(x.real if isinstance(x, (complex, mpmath.mpc)) else x)


# ---------------------------------------------------------------------------
# dense matrices


def is_mp_matrix(x) -> bool:
    return isinstance(x, mpmath.matrix)


def mat_lu_solve(A, B):
    """Solve A X = B by partially pivoted LU; raise on a singular pivot.

    Accepts either two numpy 2-d arrays or two ``mpmath.matrix`` operands.
    Object arrays (mpmath entries) are solved as ``mpmath.matrix`` at the
    working precision, by :func:`_mp_lu_solve`.
    """
    if isinstance(A, np.ndarray) and A.ndim == 2:
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
        return _mp_lu_solve(A, B)
    raise TypeError(f"unsupported matrix type {type(A).__name__}")


# ---------------------------------------------------------------------------
# extended-precision dense kernels
#
# An ``mpmath.matrix`` keeps its nonzero entries in a dict keyed ``(i, j)``
# and reads a missing one as ``mp.zero``.  The kernels read that dict once
# into row lists, make the calls mpmath's matrix code makes, in its order and
# at its precision, and store the nonzero results the same way, so every
# result is bit-identical to mpmath's.  Each kernel is written once against
# an arithmetic table: ``_RAW`` acts on the ``_mpf_`` tuples of real operands
# with the libmp call each ``mpf`` operator makes, ``_NUMBERS`` on mpmath
# numbers (a complex entry, or a coefficient that is not an ``mpf``) with the
# operators themselves.


class _Arith(NamedTuple):
    """Entry arithmetic of the dense kernels; every op takes ``(..., prec, rnd)``.

    ``sub``, ``div`` and ``scale`` (``scale(x, c) = c*x``) return what a
    matrix entry reads back once stored: a zero reads back as ``mp.zero``.
    ``mul`` and ``add`` are used before any store.  ``absmin`` gives the raw
    ``|x|`` of ``mp.absmin``, ``normabs`` the raw ``|x|`` that
    ``mp.fsum(..., absolute=True)`` sums, and ``dot`` is ``mp.fdot``.
    """

    entry: Callable
    number: Callable
    mul: Callable
    add: Callable
    sub: Callable
    div: Callable
    scale: Callable
    absmin: Callable
    normabs: Callable
    dot: Callable


def _stored(x):
    return x or mp.zero


_RAW = _Arith(
    entry=operator.attrgetter("_mpf_"), number=mp.make_mpf,
    mul=mpf_mul, add=mpf_add, sub=mpf_sub, div=mpf_div,
    scale=lambda x, c, p, rnd: mpf_mul(c, x, p, rnd), absmin=mpf_abs,
    normabs=lambda x, p: mpf_abs(x),
    dot=lambda xs, ys, p, rnd: mpf_sum(list(map(mpf_mul, xs, ys)), p, rnd))

_NUMBERS = _Arith(
    entry=lambda x: x, number=lambda x: x,
    mul=lambda a, b, p, rnd: a * b,
    add=lambda a, b, p, rnd: a + b,
    sub=lambda a, b, p, rnd: _stored(a - b),
    div=lambda a, b, p, rnd: _stored(a / b),
    scale=lambda x, c, p, rnd: _stored(c * x),
    absmin=lambda x, p, rnd: abs(x)._mpf_,
    normabs=lambda x, p: mpc_abs(x._mpc_, p) if hasattr(x, "_mpc_") else mpf_abs(x._mpf_),
    dot=lambda xs, ys, p, rnd: mp.fdot(xs, ys))


def _arith_for(matrices, scalars=()) -> _Arith:
    """``_RAW`` when every entry and scalar is an ``mpf``, else ``_NUMBERS``."""
    mpf = mpmath.mpf
    if all(isinstance(c, mpf) for c in scalars) and all(
            isinstance(x, mpf) for M in matrices for x in M._matrix__data.values()):
        return _RAW
    return _NUMBERS


def _rows(M, ar: _Arith) -> list:
    get, zero = M._matrix__data.get, mp.zero
    return [[ar.entry(get((i, j), zero)) for j in range(M.cols)] for i in range(M.rows)]


def _matrix(rows, cols: int, ar: _Arith):
    """A ``cols``-column ``mpmath.matrix`` holding the nonzero entries of ``rows``."""
    M = mp.matrix(len(rows), cols)
    M._matrix__data.update(((i, j), v) for i, row in enumerate(rows)
                           for j, v in enumerate(map(ar.number, row)) if v)
    return M


def mp_matmul(A, B):
    """``A * B``: each entry the exact dot product rounded once, as ``mp.fdot`` forms it."""
    if A.cols != B.rows:
        raise ValueError("dimensions not compatible for multiplication")
    ar = _arith_for((A, B))
    p, dot = mp.prec, ar.dot
    cols = list(zip(*_rows(B, ar)))
    return _matrix([[dot(row, col, p, RND) for col in cols] for row in _rows(A, ar)], B.cols, ar)


def mp_lincomb(c1, A, c2, B):
    """``A * c1 + B * c2``: each entry ``c1 a + c2 b``, each product rounded.

    The coefficients are read as they are, never rounded to the working
    precision first, as the ``mpf`` operators read them.
    """
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ValueError("incompatible dimensions for addition")
    ar = _arith_for((A, B), (c1, c2))
    p, add, scale = mp.prec, ar.add, ar.scale
    c1, c2 = ar.entry(c1), ar.entry(c2)
    return _matrix([[add(scale(x, c1, p, RND), scale(y, c2, p, RND), p, RND)
                     for x, y in zip(r, s)] for r, s in zip(_rows(A, ar), _rows(B, ar))],
                   A.cols, ar)


def _mp_lu_solve(A, B):
    """``X`` with ``A X = B``, bit-identical to mpmath 1.3's ``lu_solve`` per column of B.

    A port of ``LU_decomp``, ``L_solve`` and ``U_solve`` at ``mp.prec + 10``,
    as ``lu_solve`` runs them, that factors A once for every column.  The
    pivot of column j is the first row k maximising ``|a_kj| / s_k``, with
    ``s_k`` the sum of ``|a_kl|``, l >= j.  ``SingularMatrixError`` is raised
    where mpmath raises ``ZeroDivisionError`` (a row sum or pivot at most
    ``tol = |mnorm(A, 1) eps|``) and where no row has a nonzero entry in
    column j, on which mpmath's pivot index stays ``None``.
    """
    ar = _arith_for((A, B))
    mul, sub, div, absmin = ar.mul, ar.sub, ar.div, ar.absmin
    with mp.workprec(mp.prec + 10):
        p = mp.prec
        a, b = _rows(A, ar), _rows(B, ar)
        n = len(a)
        # tol = absmin(mnorm(A, 1) * eps), mnorm the largest column sum
        sums = [mpf_sum([ar.normabs(row[j], p) for row in a], p, RND, True) for j in range(n)]
        norm = functools.reduce(lambda m, s: s if mpf_gt(s, m) else m, sums)
        tol = mpf_abs(mpf_mul(norm, mpf_shift(fone, 1 - p), p, RND), p, RND)
        perm = []
        for j in range(n - 1):
            biggest, pivot = fzero, None
            for k in range(j, n):
                s = mpf_sum([absmin(x, p, RND) for x in a[k][j:]], p, RND)
                if mpf_le(mpf_abs(s, p, RND), tol):
                    raise SingularMatrixError("matrix is numerically singular")
                current = mpf_mul(mpf_rdiv_int(1, s, p, RND), absmin(a[k][j], p, RND), p, RND)
                if mpf_gt(current, biggest):
                    biggest, pivot = current, k
            if pivot is None:
                raise SingularMatrixError(f"column {j} has no nonzero pivot")
            perm.append(pivot)
            a[j], a[pivot] = a[pivot], a[j]
            rj = a[j]
            if mpf_le(absmin(rj[j], p, RND), tol):
                raise SingularMatrixError("matrix is numerically singular")
            for ri in a[j + 1:]:
                ri[j] = f = div(ri[j], rj[j], p, RND)
                ri[j + 1:] = [sub(x, mul(f, y, p, RND), p, RND)
                              for x, y in zip(ri[j + 1:], rj[j + 1:])]
        if mpf_le(absmin(a[-1][-1], p, RND), tol):
            raise SingularMatrixError("matrix is numerically singular")
        for j, k in enumerate(perm):
            b[j], b[k] = b[k], b[j]
        for i in range(1, n):
            for j in range(i):
                lij, bj = a[i][j], b[j]
                b[i] = [sub(x, mul(lij, y, p, RND), p, RND) for x, y in zip(b[i], bj)]
        for i in range(n - 1, -1, -1):
            for j in range(i + 1, n):
                uij, bj = a[i][j], b[j]
                b[i] = [sub(x, mul(uij, y, p, RND), p, RND) for x, y in zip(b[i], bj)]
            b[i] = [div(x, a[i][i], p, RND) for x in b[i]]
    return _matrix(b, B.cols, ar)


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
    """``(A^T A, A^T b)`` as lists of raw tuples, each an exact integer sum rounded once.

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
        return libmp.from_man_exp(man, exp, mp.prec, RND)

    K = len(cols)
    G = [[None] * K for _ in range(K)]
    for a in range(K):
        for c in range(a, K):
            G[a][c] = G[c][a] = dot(a, c)
    return G, [dot(a, K) for a in range(K)]


def _tridiagonalize(A):
    """Householder reduction of the symmetric ``A`` (raw tuples) to ``(d, e, reflectors)``.

    A port of mpmath 1.3's ``r_sy_tridiag`` (EISPACK tred2) to raw tuples
    that does not accumulate Q: the same operations in the same order, so the
    diagonal ``d`` and off-diagonal ``e`` (tuple lists, ``e[-1]`` zero) are
    bit-identical to the ones mpmath's ``eigsy`` iterates on.  Only the upper
    triangle is read, as columns ``a[j][k] = A[k][j]``, k <= j.  A reflector
    ``(i, u, H)`` (tuples) maps the leading ``i`` entries of a vector v to
    ``v - u (u.v) / H``; Q^T v applies them in list order.
    """
    p = mp.prec
    n = len(A)
    a = [[A[k][j] for k in range(j + 1)] for j in range(n)]
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
    return [a[i][i] for i in range(n)], e[1:] + [fzero], reflectors


def _tridiagonal_eigenvalues(D, E):
    """Eigenvalues of the symmetric tridiagonal ``(D, E)`` (raw tuples), into ``D``.

    A port of mpmath 1.3's ``tridiag_eigen`` (EISPACK imtql2, implicit QL)
    to raw tuples with the same arithmetic, so ``D`` ends holding the
    eigenvalues of mpmath's ``eigsy``, bit for bit, in the order the
    iteration leaves them: ``eigsy`` sorts them after, which this port does
    not.  Instead of updating an eigenvector matrix Z it returns the plane
    rotations ``(i, c, s)`` (tuples) in the order applied; replayed on a row
    vector z they give z Z.
    """
    p = mp.prec
    n = len(D)
    eps = (+mp.eps)._mpf_
    iterlim = 2 * mp.dps
    rotations = []
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
    return rotations


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
    mpmath's ``eigsy`` returns for that Gram matrix, though not sorted:
    each component is divided by its own eigenvalue, so their order does not
    change the result.  Q is never formed: Q^T A^T b and the map back go
    through the reflectors and rotations that produced E.  Returns
    ``(x, kept)``.
    """
    G, y = _normal_equations(cols, b)
    E, e, reflectors = _tridiagonalize(G)
    rotations = _tridiagonal_eigenvalues(E, e)
    emax = functools.reduce(lambda m, x: x if mpf_gt(x, m) else m, map(mpf_abs, E), fzero)
    if emax == fzero:
        return [mp.mpf(0)] * len(y), 0
    drop2 = ((mp.mpf(droptol) ** 2) * mp.make_mpf(emax))._mpf_
    # y <- Q^T y, replaying Z's updates on a row vector
    _reflect(y, reflectors)
    _rotate(y, rotations)
    keep = [not (mpf_le(Ej, fzero) or mpf_le(Ej, drop2)) for Ej in E]
    y = [mpf_div(yj, Ej, mp.prec, RND) if kj else fzero for yj, Ej, kj in zip(y, E, keep)]
    # x <- Q y
    _rotate(y, [(i, c, mpf_neg(s)) for i, c, s in reversed(rotations)])
    _reflect(y, reversed(reflectors))
    return list(map(mp.make_mpf, y)), sum(keep)
