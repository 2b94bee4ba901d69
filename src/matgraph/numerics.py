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

