"""Precision-parametric scalar and dense-matrix arithmetic.

Scalars come in two families:

* binary64 values, represented by plain ``float``/``complex``, and
* extended-precision values, represented by ``mpmath`` ``mpf``/``mpc``
  numbers with a configurable number of mantissa bits.

A number is what ``numbers.Complex`` admits, or a numpy bool (:func:`is_scalar`):
a Python, numpy, ``Fraction`` or mpmath one, never a ``Decimal``.  Every
reader takes its exact value from :func:`_raw`.  mpmath performs every
operation at the precision of the *ambient* context, so all public entry
points of this package wrap their numerical work in :func:`working_precision`.
Coefficient rounding (:func:`convert_scalar`) needs no context: it calls
libmp at the target precision, bit for bit as mpmath's constructors under
that precision.  Dense extended-precision
matrices are ``mpmath.matrix`` instances; binary64 matrices are numpy arrays and
delegate to the optimized kernels numpy binds to.  The evaluator's three
extended-precision matrix operations (product, linear combination and the
partially pivoted LU solve) run on a :class:`PairMatrix`, rows of integer
(mantissa, exponent) pairs read once from a real ``mpmath.matrix`` of
finite entries, each rounded by one helper, and give mpmath's results bit
for bit; terms too far apart to add exactly go to libmp.
:func:`mat_lu_solve` reads two ``mpmath.matrix`` the same way and writes
X back, and solves complex and non-finite operands by mpmath's routines.

A 1-d vector of finite extended-precision points is a :class:`FixedVector`:
Python integers at one shared exponent, set after every operation by the
smallest entry.  The extended-precision least-squares step
(:func:`truncated_lstsq`) forms its Gram matrix from exact integer dot
products of such integers, each vector read as the real [Re v; Im v].  The dot
products are float64 BLAS products of their 16-bit limbs, each pair of limbs
formed once, small enough that no sum rounds (the error-free splitting of
Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).  The Gram matrix's
lower triangle is then reduced in fixed point on Python integers, F bits below
its largest entry (from prec + 128 up, growing as the drop tolerance shrinks,
and 2 prec + 64 for droptol 0), by Householder tridiagonalisation and implicit
QL; the step is rounded to the working precision once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import libmp, mp
from mpmath.libmp import fzero, mpf_sub, mpf_sum, round_nearest as RND


class SingularMatrixError(ArithmeticError):
    """A linear solve encountered an (exactly) singular operand."""


#: binary64 machine epsilon, 2^-52
EPS64 = 2.0 ** -52

@dataclass(frozen=True)
class CoeffType:
    """Scalar kind tag: mantissa width in bits plus real/complex flag.

    ``prec=None`` selects binary64 (53 mantissa bits, native floats).
    """

    prec: int | None = None
    is_complex: bool = False

    def __post_init__(self):
        p = self.prec
        if p is not None and not (isinstance(p, numbers.Integral) and p >= 53):
            raise ValueError(f"extended precision needs an integer of at least 53 bits, got {p!r}")

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


FLOAT64 = CoeffType()


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
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def is_scalar(x) -> bool:
    """Whether ``x`` is a number: a Python, numpy (a bool too), ``Fraction`` or mpmath one."""
    return isinstance(x, (numbers.Complex, np.bool_))


def _raw(x, prec: int):
    """The raw libmp parts ``(re, im)`` of the number ``x``, exactly.

    Reads a Python, numpy (of any width), ``Fraction`` or mpmath number, a
    numpy bool as 0 or 1.  A rational whose denominator is not a power of
    two has no exact binary value: it is rounded to nearest at ``prec``
    bits.  ``TypeError`` for a value that is not a number.
    """
    if isinstance(x, mpmath.mpf):
        return x._mpf_, fzero
    if isinstance(x, mpmath.mpc):
        return x._mpc_
    if isinstance(x, numbers.Rational):  # an integer too, with denominator 1
        p, q = int(x.numerator), int(x.denominator)
        return (libmp.from_rational(p, q, prec, RND) if q & (q - 1)
                else libmp.from_man_exp(p, 1 - q.bit_length())), fzero
    if isinstance(x, numbers.Real):
        return libmp.from_npfloat(x), fzero  # exact for a numpy float of any width
    if isinstance(x, numbers.Complex):
        return libmp.from_npfloat(x.real), libmp.from_npfloat(x.imag)
    if isinstance(x, np.bool_):
        return _raw(int(x), prec)
    raise TypeError(f"cannot read a {type(x).__name__} as an extended-precision number")


def convert_scalar(x, ct: CoeffType):
    """Round a number to the given kind, its exact value (:func:`_raw`) rounded once to nearest.

    Complex-to-real conversion requires an exactly zero imaginary part.  At
    extended precision each part is rounded by one libmp call at ``ct.prec``,
    with no precision context, bit for bit as ``mp.mpf(x)`` or ``mp.mpc(x)``
    under ``mp.workprec(ct.prec)``; at binary64 by ``float`` or ``complex``,
    so that an integer or ``Fraction`` beyond binary64's range is infinite.
    A value already of the kind (a ``float`` or ``complex`` at binary64, an
    ``mpf`` or ``mpc`` whose mantissas fit in ``ct.prec`` bits) is returned
    as it is, since rounding it would give the same number.
    """
    t, prec = type(x), ct.prec
    if prec is None:
        if t is (complex if ct.is_complex else float):
            return x
    elif ct.is_complex:
        if t is mp.mpc and x._mpc_[0][3] <= prec and x._mpc_[1][3] <= prec:
            return x
    elif t is mp.mpf:
        return x if x._mpf_[3] <= prec else mp.make_mpf(libmp.mpf_pos(x._mpf_, prec, RND))
    elif t is float:
        return mp.make_mpf(libmp.from_float(x, prec, RND))
    if not is_scalar(x):
        raise TypeError(f"not a scalar: {x!r}")
    if not ct.is_complex and x.imag != 0:
        raise ValueError("cannot convert complex value with nonzero imaginary part to real")
    if prec is None:
        try:
            return complex(x) if ct.is_complex else float(x.real)
        except OverflowError:  # a rational whose nearest binary64 value is infinite
            inf = math.inf if x > 0 else -math.inf
            return complex(inf) if ct.is_complex else inf
    re, im = _raw(x, prec)
    if ct.is_complex:
        return mp.make_mpc((libmp.mpf_pos(re, prec, RND), libmp.mpf_pos(im, prec, RND)))
    return mp.make_mpf(libmp.mpf_pos(re, prec, RND))


# ---------------------------------------------------------------------------
# dense matrices


def mat_lu_solve(A, B):
    """Solve A X = B by partially pivoted LU; raise on a singular pivot.

    Accepts two numpy arrays, A 2-d, two ``mpmath.matrix`` operands, or two
    :class:`PairMatrix`.  Object arrays (mpmath entries) are solved as
    ``mpmath.matrix`` at the working precision; the solution of an ndarray
    B has B's shape, as numpy's ``solve`` gives it, and an empty A gives an
    empty X.  Real ``mpmath.matrix`` operands of finite entries are solved on
    their pairs (:func:`_lu_solve`), any other by mpmath 1.3's ``LU_decomp``,
    ``L_solve`` and ``U_solve`` at ``mp.prec + 10``, A factored once; there a
    NaN entry of A makes every entry of X NaN, and an infinite one, which
    makes mpmath's tolerance infinite, raises SingularMatrixError naming it.
    """
    if isinstance(A, np.ndarray) and A.ndim == 2 and isinstance(B, np.ndarray):
        if A.shape[0] != A.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if A.dtype == object or B.dtype == object:
            X = (mat_lu_solve(mp.matrix(A.tolist()), mp.matrix(B.tolist())) if A.size
                 else mp.matrix(0, 0))
            return np.array(X.tolist(), dtype=object).reshape(B.shape)
        try:
            return np.linalg.solve(A, B)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from exc
    if not (isinstance(A, mpmath.matrix) and isinstance(B, mpmath.matrix) or
            isinstance(A, PairMatrix) and isinstance(B, PairMatrix)):
        raise TypeError(f"cannot solve with A a {type(A).__name__} and B a {type(B).__name__}: "
                        "give two numpy arrays (A 2-d) or two mpmath.matrix")
    if A.rows != A.cols:
        raise ValueError("coefficient matrix must be square")
    if B.rows != A.rows:
        raise ValueError("dimension mismatch in linear solve")
    a, b = (A, B) if isinstance(A, PairMatrix) else (PairMatrix.read(A), PairMatrix.read(B))
    if a is not None and b is not None:
        X = PairMatrix(_lu_solve(a.data, b.data, mp.prec + 10), B.cols)
        return X if a is A else X.matrix()
    bad = [(k, x) for k, x in A._matrix__data.items() if not mp.isfinite(x)]
    if any(mp.isnan(x) for _, x in bad):
        return mp.ones(A.rows, B.cols) * mp.nan
    if bad:
        raise SingularMatrixError(f"entry {bad[0][0]} of the coefficient matrix is not finite")
    cols = [mp.matrix([B[i, j] for i in range(B.rows)]) for j in range(B.cols)]
    with mp.workprec(mp.prec + 10):
        try:
            LU, perm = mp.LU_decomp(A.copy(), overwrite=True)
            sols = [mp.U_solve(LU, mp.L_solve(LU, col, perm)) for col in cols]
        except TypeError as exc:  # swap_row with the pivot index None
            raise SingularMatrixError("a column has no nonzero pivot") from exc
        except ZeroDivisionError as exc:  # a pivot at most tol
            raise SingularMatrixError(str(exc)) from exc
    return mp.matrix([[sol[i] for sol in sols] for i in range(A.rows)])


# ---------------------------------------------------------------------------
# extended-precision dense kernels
#
# A real ``mpmath.matrix`` of finite ``mpf`` is read once into a
# :class:`PairMatrix`, rows of pairs ``(m, e)`` for the entries ``m 2^e``.
# Products, linear combinations and LU solves form what mpmath's matrix code
# forms, in its order and precision, each rounding to a pair (:func:`_rounded`);
# only the write-back makes pairs canonical and drops zeros, so every result is
# mpmath's bit for bit.  libmp's shortcuts key on canonical exponents, so the
# guards use lowest and top set bits, and send libmp a signed sum whose lowest
# bits span over 2p (``mpf_sum`` drops terms) and terms over p + 4 apart
# (``mpf_add``'s sticky bit).


def _pair(t):
    """``(m, e)`` of a libmp tuple, ``m`` signed; None if it is not finite."""
    s, m, e, _ = t
    return None if e and not m else (-m if s else m, e)


def _rounded(m, e, p):
    """``m 2**e`` rounded to ``p`` bits, ties to even, as a pair."""
    n = m.bit_length() - p
    if n <= 0:
        return m, e
    q = m >> (n - 1)  # the floor, one bit past p: signs need no case
    return (q >> 1) + 1 if q & 1 and (q & 2 or m & ((1 << (n - 1)) - 1)) else q >> 1, e + n


def _aligned(xs, p):
    """``(ms, e, span)``: pairs as integers ``ms`` at one exponent ``e``, and the span of
    their lowest set bits; past ``2 p`` no integer is made and ``ms`` is None."""
    los = [e + (m & -m).bit_length() for m, e in xs if m]
    span = max(los) - min(los) if los else 0
    lo = min((e for m, e in xs if m), default=0)
    return ([m << (e - lo) if m else 0 for m, e in xs] if span <= 2 * p else None), lo, span


def _abs_sum(xs, p, each):
    """``mpf_sum`` of the ``|x|`` at ``p`` bits, each ``|x|`` first rounded if ``each``;
    terms of one sign add exactly while their top bits span at most ``2 p``."""
    ts = [_rounded(abs(m), e, p) if each else (abs(m), e) for m, e in xs if m]
    tops = [e + m.bit_length() for m, e in ts]
    if tops and max(tops) - min(tops) > 2 * p:
        return _pair(mpf_sum([libmp.from_man_exp(*t) for t in ts], p, RND))
    lo = min((e for _, e in ts), default=0)
    return _rounded(sum(m << (e - lo) for m, e in ts), lo, p)


def _fms(xs, f, ys, p):
    """``[x - f y for x, y in zip(xs, ys)]`` as ``mpf_sub(x, mpf_mul(f, y, p), p)`` rounds it:
    f y rounded, then the exact difference, as ``mpf_add`` forms it while the top bits of x
    and f y are at most ``p + 4`` apart; libmp takes terms further apart."""
    fm, fe = f
    out = []
    append = out.append
    for (xm, xe), (ym, ye) in zip(xs, ys):
        if not (fm and ym):
            append(_rounded(xm, xe, p))
            continue
        tm, te = _rounded(fm * ym, fe + ye, p)
        d = xe - te
        if not xm:
            append((-tm, te))
        elif abs(d + xm.bit_length() - tm.bit_length()) > p + 4:
            append(_pair(mpf_sub(libmp.from_man_exp(xm, xe), libmp.from_man_exp(tm, te), p, RND)))
        else:
            append(_rounded((xm << d) - tm, te, p) if d >= 0 else _rounded(xm - (tm << -d), xe, p))
    return out


def _below(x, y) -> bool:
    """``x < y`` for two pairs of values at least 0."""
    (xm, xe), (ym, ye) = x, y
    if not (xm and ym):  # 0 < y, or y = 0
        return bool(ym)
    d = xe + xm.bit_length() - ye - ym.bit_length()
    return d < 0 if d else xm << max(xe - ye, 0) < ym << max(ye - xe, 0)


def _quotient(x, y, p):
    """``x / y`` as ``mpf_div`` rounds it: over ``p`` bits, plus half a unit for a remainder."""
    (xm, xe), (ym, ye) = x, y
    k = max(0, p + 1 + ym.bit_length() - xm.bit_length())
    q, r = divmod(xm << k, ym)
    return _rounded(2 * q + (r != 0), xe - ye - k - 1, p)


def _reciprocal(s, a, p):
    """``1/s * |a|`` as the pivot search rounds it: ``1/s``, then the product, each to ``p`` bits."""
    rm, re = _quotient((1, 0), s, p)
    am, ae = _rounded(abs(a[0]), a[1], p)
    return _rounded(rm * am, re + ae, p)


def _scalar(c):
    """The pair of a finite real number, read exactly (:func:`_raw`) as mpmath's operators
    read an ``mpf``, ``int`` or ``float``; None for a complex or non-finite one."""
    return _pair(_raw(c, mp.prec)[0]) if isinstance(c, numbers.Real) else None


class PairMatrix:
    """The evaluator's kind of a real ``mpmath.matrix`` of finite entries, ``data`` its rows
    of pairs: ``*`` is the product, :meth:`lincomb` the combination, :func:`mat_lu_solve` the solve."""

    __slots__ = ("data", "rows", "cols")

    def __init__(self, data, cols: int):
        self.data, self.rows, self.cols = data, len(data), cols

    @classmethod
    def read(cls, M, scalars=()):
        """The pairs of an ``mpmath.matrix``; None unless its entries are finite ``mpf`` and
        ``scalars`` finite real (:func:`_scalar`)."""
        if None in map(_scalar, scalars):
            return None
        data = [[(0, 0)] * M.cols for _ in range(M.rows)]
        for (i, j), x in M._matrix__data.items():
            data[i][j] = v = _pair(x._mpf_) if isinstance(x, mpmath.mpf) else None
            if v is None:
                return None
        return cls(data, M.cols)

    def matrix(self):
        """The ``mpmath.matrix`` of the entries, each canonical, a zero stored as nothing."""
        M = mp.matrix(self.rows, self.cols)
        M._matrix__data.update(((i, j), mp.make_mpf(libmp.from_man_exp(m, e)))
                               for i, row in enumerate(self.data) for j, (m, e) in enumerate(row) if m)
        return M

    def __mul__(self, other):
        """Each entry the exact dot product rounded once, as ``mp.fdot`` rounds it."""
        if self.cols != other.rows:
            raise ValueError("dimensions not compatible for multiplication")
        p = mp.prec
        cols = [[row[j] for row in other.data] for j in range(other.cols)]
        ra, rb = [_aligned(x, p) for x in self.data], [_aligned(y, p) for y in cols]
        return PairMatrix([[_rounded(sum(map(operator.mul, r, c)), er + ec, p) if sr + sc <= 2 * p
                            else _pair(mpf_sum([libmp.from_man_exp(a * b, ea + eb)
                                                for (a, ea), (b, eb) in zip(x, y)], p, RND))
                            for (c, ec, sc), y in zip(rb, cols)]
                           for (r, er, sr), x in zip(ra, self.data)], other.cols)

    @staticmethod
    def lincomb(c1, A, c2, B):
        """``A c1 + B c2`` for finite real coefficients: each product rounded, then the sum."""
        if (A.rows, A.cols) != (B.rows, B.cols):
            raise ValueError("incompatible dimensions for addition")
        p, zero = mp.prec, [(0, 0)] * A.cols
        (m1, e1), (m2, e2) = _scalar(c1), _scalar(c2)
        return PairMatrix([_fms(_fms(zero, (-m1, e1), a, p), (-m2, e2), b, p)
                           for a, b in zip(A.data, B.data)], A.cols)


def _lu_solve(a, b, p):
    """The rows of X with A X = B, for the rows of pairs ``a`` and ``b``: mpmath 1.3's
    ``LU_decomp``, ``L_solve`` and ``U_solve`` at ``p`` bits, the pivot of column j the first
    row k maximising ``|a_kj| / sum_(l>=j) |a_kl|``; SingularMatrixError where mpmath divides
    by zero (a row sum or pivot at most ``tol = |mnorm(A, 1) eps|``) or finds no pivot row."""
    n, a, b = len(a), [r[:] for r in a], [r[:] for r in b]
    # tol = |mnorm(A, 1) eps|, mnorm the first largest column sum
    norm = functools.reduce(lambda m, s: s if _below(m, s) else m,
                            (_abs_sum(col, p, False) for col in zip(*a)), (0, 0))
    tol = norm[0], norm[1] + 1 - p

    def check(x):  # mpmath's absmin(x) <= tol, |x| rounded first
        if not _below(tol, _rounded(abs(x[0]), x[1], p)):
            raise SingularMatrixError("matrix is numerically singular")

    perm = []
    for j in range(n - 1):
        biggest, pivot = (0, 0), None
        for k in range(j, n):
            s = _abs_sum(a[k][j:], p, not j)  # later steps' entries are rounded
            check(s)
            current = _reciprocal(s, a[k][j], p)
            if _below(biggest, current):
                biggest, pivot = current, k
        if pivot is None:
            raise SingularMatrixError(f"column {j} has no nonzero pivot")
        perm.append(pivot)
        a[j], a[pivot] = a[pivot], a[j]
        rj = a[j]
        check(rj[j])
        for ri in a[j + 1:]:
            ri[j] = f = _quotient(ri[j], rj[j], p)
            ri[j + 1:] = _fms(ri[j + 1:], f, rj[j + 1:], p)
    if n:
        check(a[-1][-1])
    for j, k in enumerate(perm):
        b[j], b[k] = b[k], b[j]
    for i in range(1, n):  # L_solve, then U_solve
        for j in range(i):
            b[i] = _fms(b[i], a[i][j], b[j], p)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            b[i] = _fms(b[i], a[i][j], b[j], p)
        b[i] = [_quotient(x, a[i][i], p) for x in b[i]]
    return b


# ---------------------------------------------------------------------------
# extended-precision point vectors
#
# N complex values held as two lists of Python integers and one exponent,
# entry i being (re[i] + i im[i]) 2^exp.  Sums and scalings by an exactly
# read coefficient are exact; products and quotients are formed exactly (a
# quotient to a chosen number of bits) and then rounded down.  After every
# operation the exponent is raised as far as the smallest nonzero entry, by
# max(|re|, |im|), keeps prec + GUARD_BITS bits, so no entry is rounded more
# coarsely than an ``mpc`` operation rounds it, and entries whose magnitudes
# differ widely only make wider integers.

#: bits a point vector keeps in its smallest entry beyond the working precision
GUARD_BITS = 64


def _exact(x):
    """``(re, im, e)``: integers with ``x == (re + i im) 2**e``, or None if ``x`` is not finite.

    A rational whose denominator is not a power of two has no such form: it
    is rounded to nearest at ``mp.prec + GUARD_BITS`` bits.
    """
    (sa, ma, ea, _), (sb, mb, eb, _) = _raw(x, mp.prec + GUARD_BITS)
    if ea and not ma or eb and not mb:
        return None
    e = min(ea if ma else eb, eb if mb else ea)
    return ((-ma if sa else ma) << (ea - e) if ma else 0,
            (-mb if sb else mb) << (eb - e) if mb else 0, e)


def _is_complex(x) -> bool:
    return isinstance(x, (mpmath.mpc, complex, np.complexfloating))


def _normalized(re, im, exp, real):
    """The vector of the exact ``re``, ``im`` at ``exp``, its exponent set by the rule above."""
    tops = list(map(operator.or_, map(abs, re), map(abs, im)))  # as wide as max(|a|, |b|)
    low = (min(tops, default=0) or min(filter(None, tops), default=0)).bit_length()
    shift = low - mp.prec - GUARD_BITS
    if shift > 0:
        re, im, exp = [x >> shift for x in re], [x >> shift for x in im], exp + shift
    return FixedVector(re, im, exp, real)


class FixedVector:
    """N complex numbers ``(re[i] + i im[i]) 2**exp`` on Python integers, one shared exponent.

    The extended-precision kind of a 1-d point argument of finite values
    (see the rule above).  ``real`` records that every value it was made
    from was real, so that :meth:`numbers` gives ``mpf`` entries.
    The operators are those of a numpy array: ``+``, ``-``, ``*`` by a
    vector or a scalar, and elementwise ``/``, which raises
    :class:`SingularMatrixError` naming the first point whose divisor is 0.
    """

    __slots__ = ("re", "im", "exp", "real")

    def __init__(self, re, im, exp, real=False):
        self.re, self.im, self.exp, self.real = re, im, exp, real

    @classmethod
    def read(cls, values):
        """The exact values of a sequence of numbers; None if one is not finite."""
        parts = [_exact(v) for v in values]
        if None in parts:
            return None
        e = min((e for a, b, e in parts if a or b), default=0)
        return cls([a << (pe - e) if a else 0 for a, _, pe in parts],
                   [b << (pe - e) if b else 0 for _, b, pe in parts], e,
                   not any(map(_is_complex, values)))

    @classmethod
    def constant(cls, like: "FixedVector", v: int):
        """The integer ``v`` at every point of ``like``, real if ``like`` is."""
        n = len(like)
        return cls([v] * n, [0] * n, 0, like.real)

    def __len__(self):
        return len(self.re)

    @property
    def shape(self):
        return (len(self.re),)

    def take(self, index):
        """The entries at ``index`` (a sequence of positions, repeats allowed)."""
        re, im = self.re, self.im
        return FixedVector([re[i] for i in index], [im[i] for i in index], self.exp, self.real)

    def numbers(self) -> np.ndarray:
        """Object array of the entries (``mpf`` if real), each rounded to the working precision."""
        p, e = mp.prec, self.exp
        if self.real:
            return np.array([mp.make_mpf(libmp.from_man_exp(a, e, p, RND)) for a in self.re],
                            dtype=object)
        return np.array([mp.make_mpc((libmp.from_man_exp(a, e, p, RND),
                                      libmp.from_man_exp(b, e, p, RND)))
                         for a, b in zip(self.re, self.im)], dtype=object)

    def magnitudes(self) -> list:
        """``|v_i|`` as binary64 values, each correctly rounded from the exact sqrt(re^2 + im^2)."""
        out, keep = [], 2 * (mp.prec + GUARD_BITS)
        for a, b in zip(self.re, self.im):
            s = a * a + b * b
            k = max(0, keep - s.bit_length()) // 2
            m = math.isqrt(s << 2 * k)
            # the root is m or lies strictly between m and m + 1; m has far
            # more bits than binary64 keeps, so m + 1/2 rounds as the root does
            m = 2 * m + (m * m != s << 2 * k)
            out.append(libmp.to_float(libmp.from_man_exp(m, self.exp - k - 1, 53, RND)))
        return out

    def __add__(self, other):
        x, y = (self, other) if self.exp <= other.exp else (other, self)
        s = y.exp - x.exp
        return _normalized([a + (b << s) for a, b in zip(x.re, y.re)],
                           [a + (b << s) for a, b in zip(x.im, y.im)], x.exp,
                           x.real and y.real)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return FixedVector([-v for v in self.re], [-v for v in self.im], self.exp, self.real)

    def __mul__(self, other):
        if not isinstance(other, FixedVector):
            return lincomb_fixed(other, self, 0, self)
        # three products: (a + bi)(c + di) = ac - bd + ((a + b)(c + d) - ac - bd) i
        xr, xi, yr, yi = self.re, self.im, other.re, other.im
        ac = list(map(operator.mul, xr, yr))
        bd = list(map(operator.mul, xi, yi))
        s = map(operator.mul, map(operator.add, xr, xi), map(operator.add, yr, yi))
        return _normalized(list(map(operator.sub, ac, bd)),
                           [t - p - q for p, q, t in zip(ac, bd, s)],
                           self.exp + other.exp, self.real and other.real)

    def __truediv__(self, other):
        """``self / other`` entry by entry; the quotients keep the bits the rule asks for."""
        xr, xi, yr, yi = self.re, self.im, other.re, other.im
        den = [c * c + d * d for c, d in zip(yr, yi)]
        if 0 in den:
            raise SingularMatrixError(f"left-division by zero at point index {den.index(0)}")
        mul = operator.mul
        nr = list(map(operator.add, map(mul, xr, yr), map(mul, xi, yi)))
        ni = list(map(operator.sub, map(mul, xi, yr), map(mul, xr, yi)))
        # each nonzero quotient (n << k) / den has at least prec + GUARD_BITS + 1 bits
        bl = int.bit_length
        k = max(0, max((bl(q) - max(bl(a), bl(b)) for a, b, q in zip(nr, ni, den) if a or b),
                       default=0) + mp.prec + GUARD_BITS + 1)
        return _normalized([(a << k) // q for a, q in zip(nr, den)],
                           [(b << k) // q for b, q in zip(ni, den)],
                           self.exp - other.exp - k, self.real and other.real)


def lincomb_fixed(c1, v1, c2, v2) -> FixedVector:
    """``c1 v1 + c2 v2`` for point vectors and finite scalars, exact until the final rounding."""
    (r1, i1, e1), (r2, i2, e2) = _exact(c1), _exact(c2)
    # align the two terms through the coefficients, one shift each
    E1, E2 = v1.exp + e1, v2.exp + e2
    E = min(E1, E2)
    r1, i1, r2, i2 = r1 << (E1 - E), i1 << (E1 - E), r2 << (E2 - E), i2 << (E2 - E)
    real = v1.real and v2.real and not (_is_complex(c1) or _is_complex(c2))
    if i1 or i2:
        return _normalized([a * r1 - b * i1 + c * r2 - d * i2
                            for a, b, c, d in zip(v1.re, v1.im, v2.re, v2.im)],
                           [a * i1 + b * r1 + c * i2 + d * r2
                            for a, b, c, d in zip(v1.re, v1.im, v2.re, v2.im)], E, real)
    return _normalized([a * r1 + c * r2 for a, c in zip(v1.re, v2.re)],
                       [b * r1 + d * r2 for b, d in zip(v1.im, v2.im)], E, real)


# ---------------------------------------------------------------------------
# truncated least squares
#
# The kernels work on Python integers: the normal equations are exact, and
# the eigen-decomposition runs in fixed point, a value v held as the integer
# v 2^F for F fractional bits.  A product of two such integers is shifted
# down by F (``>> F``), a quotient shifted up first (``(x << F) // y``), and
# a square root of a sum of products, which has 2F fractional bits, is
# ``math.isqrt`` of it.  Each rounds down, by at most 2^-F.

#: the Gram product writes each integer in limbs of this many bits
LIMB_BITS = 16
#: a product of two limbs is below 2**32 in magnitude, so a float64 sum of
#: fewer than this many of them is exact: rows times limbs of one chunk
EXACT_TERMS = 2 ** 21
#: rows times limbs times vectors of one chunk's float64 limb array, 4 MiB
ARRAY_TERMS = 2 ** 19


def _limb_products(mss):
    """``S[a][c]``, the exact dot product of the integer vectors ``mss[a]`` and ``mss[c]``.

    Each integer is written as L limbs of :data:`LIMB_BITS` bits with
    ``int.to_bytes``, the top one signed, into a float64 array ``A`` of one
    row per (limb, vector).  For each limb i, one BLAS product of limb i's
    K rows with the rows of limbs j >= i sums the products of limb i with
    limb j over the entries; each block (i, j), and its transpose for
    j > i, is added to the sum of limb diagonal i + j, so each pair of
    limbs is formed once.  float64 adds them exactly while entries times
    limbs stay below :data:`EXACT_TERMS`; longer vectors are split into
    chunks that do and that hold at most :data:`ARRAY_TERMS` limbs.  Carries
    in int64 give each sum on and above the diagonal as base-2**16 digits,
    which ``int.from_bytes`` reads back: nothing is rounded.
    """
    K, N = len(mss), len(mss[0])
    L = max((m.bit_length() for ms in mss for m in ms), default=0) // LIMB_BITS + 1
    chunk = max(1, min((EXACT_TERMS - 1) // L, ARRAY_TERMS // (L * K)))
    if N > chunk:
        parts = [_limb_products([ms[s:s + chunk] for ms in mss]) for s in range(0, N, chunk)]
        return [[sum(p[a][c] for p in parts) for c in range(K)] for a in range(K)]
    buf = b"".join([m.to_bytes(LIMB_BITS // 8 * L, "little", signed=True) for ms in mss for m in ms])
    A = np.frombuffer(buf, "<u2").reshape(K, N, L).transpose(2, 0, 1).astype(np.float64, order="C")
    A[-1] = np.frombuffer(buf, "<i2").reshape(K, N, L)[:, :, -1]
    diag = np.zeros((2 * L - 1, K, K))
    P = np.empty(L * K * K)  # one output for the L products: a new one each costs page faults
    for i in range(L):
        B = np.matmul(A[i], A[i:].reshape(-1, N).T, out=P[:(L - i) * K * K].reshape(K, -1))
        B = B.reshape(K, L - i, K).transpose(1, 0, 2)  # block (i, j) at j - i
        diag[2 * i:i + L] += B
        diag[2 * i + 1:i + L] += B[1:].transpose(0, 2, 1)
    del A, B, P, buf  # before the carries, whose copies of the sums would raise the peak
    a, c = np.triu_indices(K)
    diag = diag[:, a, c].astype(np.int64)
    for d in range(2 * L - 2):
        diag[d + 1] += diag[d] >> LIMB_BITS
        diag[d] &= (1 << LIMB_BITS) - 1
    low, top = diag[:-1].T.astype("<u2").tobytes(), diag[-1].tolist()
    w, shift = 2 * (2 * L - 2), LIMB_BITS * (2 * L - 2)
    S = [[0] * K for _ in range(K)]
    for k, (x, z) in enumerate(zip(a.tolist(), c.tolist())):
        S[x][z] = S[z][x] = int.from_bytes(low[k * w:(k + 1) * w], "little") + (top[k] << shift)
    return S


def _normal_equations(cols, b):
    """``(A^T A, A^T b)`` as lists of exact ``(man, exp)`` sums, never rounded.

    Each of ``cols`` and ``b`` is read as :func:`truncated_lstsq` says; a
    sequence with a value that is not finite is refused.
    """
    vecs = [v if isinstance(v, FixedVector) else FixedVector.read(list(v)) for v in (*cols, b)]
    if None in vecs:
        raise ArithmeticError("least-squares data is not finite")
    if len(set(map(len, vecs))) > 1:
        raise ValueError(f"least-squares operands of unequal lengths {list(map(len, vecs))}")
    S, es = _limb_products([v.re + v.im for v in vecs]), [v.exp for v in vecs]
    K = len(vecs) - 1
    return ([[(S[a][c], es[a] + es[c]) for c in range(K)] for a in range(K)],
            [(S[a][K], es[a] + es[K]) for a in range(K)])


def _to_fixed(sums, bits):
    """``(ms, e)``: the exact ``(man, exp)`` pairs ``sums`` in fixed point, ``ms[i] * 2**e``.

    The largest entry is scaled to just below 2**bits and every entry keeps
    the bits above 2**e, rounded down.
    """
    e = max((exp + man.bit_length() for man, exp in sums if man), default=bits) - bits
    return [man << (exp - e) if exp >= e else man >> (e - exp) for man, exp in sums], e


def _householder(a, F):
    """Householder reduction of a symmetric fixed-point matrix to ``(d, e, reflectors)``.

    ``a`` holds the lower triangle by rows, ``a[j][k]`` for k <= j, each an
    integer with ``F`` fractional bits, and is overwritten (EISPACK tred2
    without Q).  ``e[m]`` couples ``d[m]`` and ``d[m + 1]``, and ``e[-1]`` is
    0.  A reflector ``(i, u, w)`` maps the leading ``i`` entries of a vector
    v to ``v - 2 u (u.v) / w`` with ``w = |u|^2`` exactly, so it is exactly
    orthogonal; Q^T v applies them in list order.
    """
    n = len(a)
    e = [0] * n
    reflectors = []
    for i in range(n - 1, 0, -1):
        u = a[i][:i]
        sigma = sum(x * x for x in u)
        if i == 1 or not sigma:
            e[i - 1] = u[-1]
            continue
        f = u[-1]
        g = -math.isqrt(sigma) if f > 0 else math.isqrt(sigma)
        e[i - 1] = g
        u[-1] = f - g
        w = sigma - f * f + u[-1] * u[-1]
        # p = 2 A u / w, K = u.p / w, q = p - K u, A <- A - u q^T - q u^T
        p = [((sum(map(operator.mul, a[j], u)) + sum(a[k][j] * u[k] for k in range(j + 1, i)))
              << (F + 1)) // w for j in range(i)]
        K = (sum(map(operator.mul, u, p)) << F) // w
        q = [pj - (K * uj >> F) for pj, uj in zip(p, u)]
        for j in range(i):
            uj, qj, aj = u[j], q[j], a[j]
            aj[:] = [x - ((uj * qk + qj * uk) >> F) for x, uk, qk in zip(aj, u, q)]
        reflectors.append((i, u, w))
    return [a[i][i] for i in range(n)], e, reflectors


def _implicit_ql(d, e, F):
    """Eigenvalues of the fixed-point symmetric tridiagonal ``(d, e)``, into ``d``.

    Implicit QL with shifts (EISPACK imtql2, as in Numerical Recipes'
    tqli) on integers with ``F`` fractional bits.  ``e[m]`` is deflated
    once ``|e[m]| <= (|d[m]| + |d[m + 1]|) 2^-q`` or ``|e[m]| <= 2^-F/2``
    times the largest ``|d|`` or ``|e|``, with q = F/2 - 32, so q = prec
    at F = 2 prec + 64.  On integers a coupling to a diagonal entry of D
    units is seen to stop shrinking near sqrt(D) units.  The relative test
    meets that level for D above 2^2q units, 2^-64 of the largest entry,
    and the floor for D below 2^F units, so every coupling is deflated.  A
    finer relative test leaves a band of D that neither meets: q = prec
    stalls at F = 384 on the 256-bit design's Gram matrices, with couplings
    to entries 2^-80 to 2^-16 of the largest near 2^142 units for 152
    iterations.
    Returns the plane rotations ``(i, c, s)`` in the order applied; replayed
    on a row vector z they give z Z for the eigenvector matrix Z.
    """
    n, one = len(d), 1 << F
    q = F // 2 - 32
    floor = max(map(abs, d + e), default=0) >> (F // 2)
    iterlim = 2 * mp.dps
    rotations = []
    for l in range(n):
        for it in range(iterlim + 1):
            m = l
            while m + 1 < n and abs(e[m]) > floor and abs(e[m]) << q > abs(d[m]) + abs(d[m + 1]):
                m += 1
            if m == l:
                break
            if it == iterlim:
                raise ArithmeticError(f"no convergence to an eigenvalue after {iterlim} iterations")
            g = ((d[l + 1] - d[l]) << F) // (2 * e[l])
            r = math.isqrt(g * g + one * one)
            g = d[m] - d[l] + (e[l] << F) // (g - r if g < 0 else g + r)
            s = c = one
            p = 0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i] >> F, c * e[i] >> F
                R = math.isqrt((f * f + g * g) << 2 * F)  # c^2 + s^2 = 1 to 2^-F, not 1/r
                e[i + 1] = R >> F
                c, s = ((g << 2 * F) // R, (f << 2 * F) // R) if R else (one, 0)
                g = d[i + 1] - p
                r = ((d[i] - g) * s + 2 * c * b) >> F
                p = s * r >> F
                d[i + 1] = g + p
                g = (c * r >> F) - b
                rotations.append((i, c, s))
            d[l] -= p
            e[l] = g
            e[m] = 0
    return rotations


def truncated_lstsq(cols, b, droptol):
    """Minimum-norm least-squares solution of ``A x = b`` over the kept singular values.

    ``cols`` are the columns of ``A`` and ``b`` its right-hand side, each a
    :class:`FixedVector` or a sequence of numbers, read exactly; a vector v
    stands for the real column [Re v; Im v], and operands of unequal length
    raise ``ValueError``.  With A^T A = Q diag(E) Q^T,
    ``x = sum_j q_j (q_j^T A^T b) / E_j`` over the eigenvalues E_j > 0 with
    E_j > droptol^2 max|E|, i.e. the singular values of A above ``droptol``
    times the largest.  The Gram matrix and A^T b are exact integer sums,
    which one float64 product per 16-bit limb computes for all of them at
    once (:func:`_limb_products`).  Everything after runs on Python integers
    in fixed point, F fractional bits below the largest Gram entry (A^T b
    below its own largest), on the Gram matrix's lower triangle:
    Householder tridiagonalisation, implicit QL, and Q^T A^T b and
    the map back through the reflectors and rotations, so Q is never formed.
    The rank rule compares each integer eigenvalue exactly with
    droptol^2 max|E| at the working precision, and x is rounded to the
    working precision once.  Returns ``(x, kept)``.

    The width is F = max(prec, 2t) + 128, where t = 2 ceil(-log2 droptol),
    so that every kept eigenvalue lies above droptol^2 max|E| >= 2^-t max|E|,
    and F = 2 prec + 64 for droptol = 0; QL deflates at q = F/2 - 32 bits
    (:func:`_implicit_ql`).

    * A unit of the fixed point, 2^-F of the largest Gram entry, moves the
      step by about 2^(2t' - F) of itself, 2^-t' <= 1 being the smallest
      kept eigenvalue over the largest: once through the eigenvalue it
      divides by and once through its eigenvector.  A deflation moves
      eigenvalues by up to about 2^-q max|E| and eigenvectors by 2^-q, so
      the step by about 2^(t' - q).  The step's relative error is about
      max(2^(2t' - F), 2^(t' - q), 2^(1 - prec)), the last term the final
      rounding, and an eigenvalue further than about 2^-q max|E| from the
      threshold is kept or dropped as in exact arithmetic.
    * F >= 2t + 128 makes q >= t + 32, which keeps an exactly zero
      eigenvalue 2^32 below the threshold, and the rounding term below
      2^-128.  The design needs far less: steps perturbed by 1e-30 (about
      2^-100) relative take the same iterations to a radius within 1e-24.
    * F >= prec + 128 makes q >= prec/2 + 32, which at prec 256 keeps steps
      near the threshold within the 1e-45 (about 2^-150) of an
      ``mp.eigsy`` projection that tests pin whatever the tolerance.

    At prec 256 and droptol 1e-15, t = 100, F = 384 and q = 160; the
    256-bit design's steps come out within about 2^-121 of steps reduced
    with 1400 fractional bits.
    """
    G, y = _normal_equations(cols, b)
    prec = mp.prec
    K, F = len(y), 2 * prec + 64
    if droptol:
        t = 2 * (1 - mp.frexp(min(droptol, 1))[1])  # droptol >= 2^(-t/2)
        F = max(prec, 2 * t) + 128
    lower, eg = _to_fixed([s for j, row in enumerate(G) for s in row[:j + 1]], F)
    y, ey = _to_fixed(y, F)
    d, e, reflectors = _householder([lower[j * (j + 1) // 2:(j + 1) * (j + 2) // 2]
                                     for j in range(K)], F)
    rotations = _implicit_ql(d, e, F)
    emax = max(map(abs, d), default=0)
    if not emax:
        return [mp.mpf(0)] * K, 0

    def reflect(reflectors):
        for i, u, w in reflectors:
            t = (sum(map(operator.mul, u, y)) << (F + 1)) // w
            y[:i] = [v - (t * uk >> F) for v, uk in zip(y, u)]

    def rotate(rotations, sign):
        for i, c, s in rotations:
            s *= sign
            a, b = y[i], y[i + 1]
            y[i], y[i + 1] = (c * a - s * b) >> F, (s * a + c * b) >> F

    # y <- Q^T y, replaying Z's updates on a row vector
    reflect(reflectors)
    rotate(rotations, 1)
    threshold = mp.mpf(droptol) ** 2 * emax
    keep = [Ej > 0 and Ej > threshold for Ej in d]
    y[:] = [(yj << F) // Ej if kj else 0 for yj, Ej, kj in zip(y, d, keep)]
    # x <- Q y
    rotate(reversed(rotations), -1)
    reflect(reversed(reflectors))
    return [mp.make_mpf(libmp.from_man_exp(v, ey - eg - F, mp.prec, RND)) for v in y], sum(keep)
