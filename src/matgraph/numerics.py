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
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import libmp, mp


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


def _fixed_point(xs):
    """``(ms, e)`` with ``xs[i] == ms[i] * 2**e`` exactly, in Python integers."""
    raw = [x._mpf_ if isinstance(x, mpmath.mpf) else mp.mpf(x)._mpf_ for x in xs]
    if any(exp and not man for _, man, exp, _ in raw):
        raise ArithmeticError("least-squares data is not finite")
    e = min((exp for _, man, exp, _ in raw if man), default=0)
    return [(-man if sign else man) << (exp - e) if man else 0 for sign, man, exp, _ in raw], e


def _rounded_dot(x, y):
    """Dot product of two fixed-point vectors, exact and then rounded once."""
    (mx, ex), (my, ey) = x, y
    return mp.make_mpf(libmp.from_man_exp(sum(map(operator.mul, mx, my)), ex + ey,
                                          mp.prec, libmp.round_nearest))


def _normal_equations(cols, b):
    """``(A^T A, A^T b)`` as lists, each entry an exact integer sum rounded once."""
    fixed = [_fixed_point(c) for c in cols]
    rhs = _fixed_point(b)
    K = len(fixed)
    G = [[None] * K for _ in range(K)]
    for a in range(K):
        for c in range(a, K):
            G[a][c] = G[c][a] = _rounded_dot(fixed[a], fixed[c])
    return G, [_rounded_dot(fa, rhs) for fa in fixed]


def _tridiagonalize(A):
    """Householder reduction of the symmetric ``A`` (overwritten) to ``(d, e, reflectors)``.

    A port of mpmath 1.3's ``r_sy_tridiag`` (EISPACK tred2) to nested lists
    that does not accumulate Q: the same operations in the same order, so the
    diagonal ``d`` and off-diagonal ``e`` are bit-identical to the ones
    mpmath's ``eigsy`` iterates on.  A reflector ``(i, u, H)`` maps the leading
    ``i`` entries of a vector v to ``v - u (u.v) / H``; Q^T v applies them
    in list order.
    """
    n = len(A)
    e = [0] * n
    reflectors = []
    for i in range(n - 1, 0, -1):
        scale = 0
        for k in range(i):
            scale += abs(A[k][i])
        if i == 1 or scale == 0:  # mpmath also skips an infinite 1/scale, which mpf never gives
            e[i] = A[i - 1][i]
            continue
        scale_inv = 1 / scale
        H = 0
        for k in range(i):
            A[k][i] *= scale_inv
            H += A[k][i] * A[k][i]
        F = A[i - 1][i]
        G = mp.sqrt(H)
        if F > 0:
            G = -G
        e[i] = scale * G
        H -= F * G
        A[i - 1][i] = F - G
        F = 0
        for j in range(i):
            G = 0
            for k in range(j + 1):
                G += A[k][j] * A[k][i]
            for k in range(j + 1, i):
                G += A[j][k] * A[k][i]
            e[j] = G / H
            F += e[j] * A[j][i]
        HH = F / (2 * H)
        for j in range(i):
            F = A[j][i]
            G = e[j] - HH * F
            e[j] = G
            for k in range(j + 1):
                A[k][j] -= F * e[k] + G * A[k][i]
        reflectors.append((i, [A[k][i] for k in range(i)], H))
    return [A[i][i] for i in range(n)], e[1:] + [0], reflectors


def _tridiagonal_eigenvalues(d, e):
    """Eigenvalues of the symmetric tridiagonal ``(d, e)``, ascending, into ``d``.

    A port of mpmath 1.3's ``tridiag_eigen`` (EISPACK imtql2, implicit QL)
    with the same arithmetic, so ``d`` ends bit-identical to the eigenvalues
    of mpmath's ``eigsy``.  Instead of updating an eigenvector matrix Z it returns the
    plane rotations ``(i, c, s)`` in the order applied and the swaps
    ``(i, k)`` of the final sort; replayed on a row vector z they give z Z.
    """
    n = len(d)
    e[n - 1] = 0
    eps = +mp.eps
    iterlim = 2 * mp.dps
    rotations, swaps = [], []
    for l in range(n):
        j = 0
        while True:
            m = l
            while m + 1 != n and not abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if j >= iterlim:
                raise ArithmeticError(f"no convergence to an eigenvalue after {iterlim} iterations")
            j += 1
            p = d[l]
            g = (d[l + 1] - p) / (2 * e[l])
            r = mp.hypot(g, 1)
            s = g - r if g < 0 else g + r
            g = d[m] - p + e[l] / s
            s, c, p = 1, 1, 0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                if abs(f) > abs(g):
                    c = g / f
                    r = mp.hypot(c, 1)
                    e[i + 1] = f * r
                    s = 1 / r
                    c = c * s
                else:
                    s = f / g
                    r = mp.hypot(s, 1)
                    e[i + 1] = g * r
                    c = 1 / r
                    s = s * c
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                rotations.append((i, c, s))
            d[l] = d[l] - p
            e[l] = g
            e[m] = 0
    for i in range(n - 1):
        k = min(range(i, n), key=d.__getitem__)  # the first smallest, as mpmath picks
        if k != i:
            d[i], d[k] = d[k], d[i]
            swaps.append((i, k))
    return rotations, swaps


def _reflect(v, reflectors):
    """Apply each reflector ``(i, u, H)`` in turn: ``v[:i] -= u (u.v[:i]) / H``."""
    for i, u, H in reflectors:
        t = mp.fdot(u, v[:i]) / H
        for k in range(i):
            v[k] -= t * u[k]


def truncated_lstsq(cols, b, droptol):
    """Minimum-norm least-squares solution of ``A x = b`` over the kept singular values.

    ``cols`` are the columns of the real ``A``, each an iterable read once
    (so a caller can produce the entries as they are read).  With A^T A = Q diag(E) Q^T,
    ``x = sum_j q_j (q_j^T A^T b) / E_j`` over the eigenvalues E_j > 0 with
    E_j > droptol^2 max|E|, i.e. the singular values of A above ``droptol``
    times the largest.  The Gram matrix and A^T b are exact integer sums
    rounded once; E is what mpmath's ``eigsy`` returns for that Gram matrix, and
    Q is never formed: Q^T A^T b and the map back go through the reflectors
    and rotations that produced E.  Returns ``(x, kept)``.
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
    _reflect(y, reflectors)
    for i, c, s in rotations:
        y[i], y[i + 1] = c * y[i] - s * y[i + 1], s * y[i] + c * y[i + 1]
    for i, k in swaps:
        y[i], y[k] = y[k], y[i]
    keep = [not (Ej <= 0 or Ej <= drop2) for Ej in E]
    y = [yj / Ej if kj else mp.mpf(0) for yj, Ej, kj in zip(y, E, keep)]
    # x <- Q y
    for i, k in reversed(swaps):
        y[i], y[k] = y[k], y[i]
    for i, c, s in reversed(rotations):
        y[i], y[i + 1] = c * y[i] + s * y[i + 1], c * y[i + 1] - s * y[i]
    _reflect(y, reversed(reflectors))
    return y, sum(keep)
