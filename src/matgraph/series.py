"""Truncated power series arithmetic.

Both series kinds hold the coefficients of z^0 .. z^nterms and support the
ring operations needed to extract the series expansion of the function
underlying a graph: linear combination, Cauchy product, division by a
series with nonzero constant term (the scalar shadow of a linear solve).
The certifier's kind also takes the logarithm of a series with constant
term one, as the integral of the quotient h'/h.

:class:`TruncSeries` is the public kind.  Its coefficients follow the
ambient mpmath precision, each rounded relative to its own magnitude;
construct and combine series inside
:func:`matgraph.numerics.working_precision` when extended precision is
wanted.  ``eval_graph`` on a series, ``eval_graph_poly`` and the
``series:`` target use it.

:class:`FixedSeries` is the certifier's kind.  Its coefficients are Python
integers at one absolute exponent of F fractional bits (the certifier
starts at 320 bits and widens F with the radius it certifies), and each
carries an integer error radius in units of 2^-F that bounds its distance
from the coefficient exact arithmetic would give: midpoint-radius
arithmetic, as in Johansson, "Arb", IEEE Trans. Comput. 66(8), 2017.  A
product is a truncated integer convolution with one shift per coefficient,
a division is an integer recurrence with one floor division per
coefficient, the logarithm is the division h'/h with one more floor
division (by k) per coefficient, and a linear combination reads each graph
coefficient exactly.  Every truncation adds one unit to the radius of a
real coefficient (two to a complex one, one per part), and products and
quotients propagate the radii of their operands.  Those bounds are formed
from magnitudes rounded up to ``_COARSE_BITS`` fractional bits, so they
cost small-integer arithmetic only: the two radius convolutions of a
product, on nonnegative integers, are one big-integer product each by
Kronecker substitution (:func:`_kron`).
"""

from __future__ import annotations

import math
import numbers
import operator

from mpmath import mp
from mpmath.libmp import from_man_exp

from .numerics import _exact, is_scalar



class SeriesError(ArithmeticError):
    pass


class TruncSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs, nterms=None):
        coeffs = list(coeffs)
        if nterms is not None:
            if len(coeffs) > nterms + 1:
                coeffs = coeffs[: nterms + 1]
            else:
                coeffs = coeffs + [0] * (nterms + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = coeffs

    @property
    def nterms(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, c, nterms: int) -> "TruncSeries":
        return cls([c], nterms)

    @classmethod
    def identity(cls, nterms: int) -> "TruncSeries":
        """The series of z itself."""
        if nterms < 1:
            raise ValueError("identity series needs nterms >= 1")
        return cls([0, 1], nterms)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:4])
        return f"TruncSeries([{head}{', ...' if self.nterms > 3 else ''}], nterms={self.nterms})"

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(self.nterms, other.nterms)
        a = self.coeffs + [0] * (n - self.nterms)
        b = other.coeffs + [0] * (n - other.nterms)
        return TruncSeries([x + y for x, y in zip(a, b)])

    def scale(self, c) -> "TruncSeries":
        return TruncSeries([c * x for x in self.coeffs])

    def __mul__(self, other):
        if is_scalar(other):
            return self.scale(other)
        n = min(self.nterms, other.nterms) + 1
        return TruncSeries(_conv(self.coeffs[:n], other.coeffs[:n], n))

    def divide(self, den: "TruncSeries") -> "TruncSeries":
        """self / den, requiring den to have a nonzero constant term."""
        if den.coeffs[0] == 0:
            raise SeriesError("series division by a series with zero constant term")
        n = min(self.nterms, den.nterms)
        c = [0] * (n + 1)
        c[0] = self.coeffs[0] / den.coeffs[0]
        d = [(j, dj) for j, dj in enumerate(den.coeffs[1 : n + 1], 1) if dj != 0]
        for k in range(1, n + 1):
            s = self.coeffs[k]
            for j, dj in d:
                if j > k:
                    break
                s = s - dj * c[k - j]
            c[k] = s / den.coeffs[0]
        return TruncSeries(c)

    def __call__(self, z):
        """Horner evaluation of the truncated polynomial.

        ``targets.get_target("series:FILE")`` returns a series as the target
        callable, which ``opt_gauss_newton`` evaluates at every point.
        """
        acc = 0 * z
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc



# ---------------------------------------------------------------------------
# fixed point with a carried radius

#: fractional bits of the magnitudes from which radius bounds are formed
_COARSE_BITS = 32


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _conv(a, b, m):
    """``[sum_{i+j=k} a_i b_j for k < m]``, exact."""
    la, lb = len(a), len(b)
    rb = b[::-1]
    out = []
    for k in range(m):
        lo, hi = max(0, k - lb + 1), min(k + 1, la)
        out.append(_dot(a[lo:hi], rb[lb - 1 - k + lo:lb - 1 - k + hi]))
    return out


def _kron(a, b, m):
    """``_conv(a, b, m)`` for nonnegative integers, as one big-integer product.

    Kronecker substitution (Harvey, J. Symbolic Comput. 44(10), 2009): each
    list is packed into one integer, an entry per digit of w bytes, wide
    enough that no sum of the convolution carries into the next digit; the
    digits of the one product are the sums.
    """
    a, b = a[:m], b[:m]
    top = min(len(a), len(b)) * max(a) * max(b)  # bounds every sum
    if not top:
        return [0] * m
    w = (top.bit_length() + 7) // 8

    def pack(values):
        return int.from_bytes(b"".join([v.to_bytes(w, "little") for v in values]), "little")

    p = (pack(a) * pack(b)).to_bytes(w * (len(a) + len(b)), "little")
    return [int.from_bytes(p[i:i + w], "little") for i in range(0, w * m, w)]


def _padded(values, n):
    return values[:n] + [0] * (n - len(values))


def _ceil_shift(x, k):
    """``ceil(x / 2**k)``."""
    return -(-x >> k)


def _bounds(re, im):
    """Upper bounds of |re_j + i im_j| (im None: real)."""
    if im is None:
        return list(map(abs, re))
    return [abs(a) + abs(b) for a, b in zip(re, im)]


def _coarse(values, frac):
    """Each nonnegative v 2^-frac, rounded up to a multiple of 2^-_COARSE_BITS, in those units."""
    s = frac - _COARSE_BITS
    return [-(-v >> s) for v in values]


class FixedSeries:
    """Coefficients ``(re[j] + i im[j]) 2**-frac`` of z^0 .. z^nterms, each within ``rad[j] 2**-frac``.

    ``rad[j]`` bounds the distance of coefficient j from the one exact
    arithmetic on the same inputs would give.  The three lists stop after
    the last nonzero entry (keeping at least the constant term): the rest
    are exact zeros.  ``im`` is None for a real series.  Every number a
    series is made from must be finite.
    """

    __slots__ = ("re", "im", "rad", "nterms", "frac")

    def __init__(self, re, im, rad, nterms, frac):
        n = len(re)
        while n > 1 and not (re[n - 1] or rad[n - 1] or im and im[n - 1]):
            n -= 1
        del re[n:], rad[n:]
        if im is not None:
            del im[n:]
            im = im if any(im) else None
        self.re, self.im, self.rad, self.nterms, self.frac = re, im, rad, nterms, frac

    @classmethod
    def constant(cls, v: int, nterms: int, frac: int) -> "FixedSeries":
        return cls([v << frac], None, [0], nterms, frac)

    @classmethod
    def identity(cls, nterms: int, frac: int) -> "FixedSeries":
        """The series of z itself."""
        if nterms < 1:
            raise ValueError("identity series needs nterms >= 1")
        return cls([0, 1 << frac], None, [0, 0], nterms, frac)

    @classmethod
    def exp_neg(cls, nterms: int, frac: int) -> "FixedSeries":
        """e^-z, each coefficient (-1)^j / j! rounded down."""
        re, rad, f = [], [], 1
        for j in range(nterms + 1):
            f *= j or 1
            q, r = divmod((-1) ** j << frac, f)
            re.append(q)
            rad.append(1 if r else 0)
        return cls(re, None, rad, nterms, frac)

    @classmethod
    def read(cls, values, nterms: int, frac: int) -> "FixedSeries":
        """The numbers ``values`` as coefficients, each rounded down to 2^-frac with that rounding as radius.

        A rational is floored at 2^-frac directly, not through a rounded binary value.
        """
        re, im, rad = [], [], []
        for v in values[: nterms + 1]:
            if isinstance(v, numbers.Rational):  # an integer too, with denominator 1
                q, r = divmod(int(v.numerator) << frac, int(v.denominator))
                re.append(q)
                im.append(0)
                rad.append(1 if r else 0)
                continue
            a, b, e = _exact(v)
            s = e + frac
            if s >= 0:
                re.append(a << s)
                im.append(b << s)
                rad.append(0)
            else:
                re.append(a >> -s)
                im.append(b >> -s)
                rad.append(2 if b else 1)
        return cls(re, im, rad, nterms, frac)

    def _parts(self, n):
        """re and im as n-entry lists."""
        return _padded(self.re, n), _padded(self.im or [], n)

    def magnitudes(self) -> list:
        """|coefficient| of z^0 .. z^nterms in units of 2^-frac: exact if real, rounded up if not."""
        if self.im is None:
            mags = list(map(abs, self.re))
        else:
            mags = []
            for a, b in zip(self.re, self.im):
                s = a * a + b * b
                m = math.isqrt(s)
                mags.append(m + (m * m != s))
        return _padded(mags, self.nterms + 1)

    def value(self, j: int):
        """Coefficient j as its exact mpmath number (an ``mpf`` if the series is real)."""
        def part(values):
            return from_man_exp(values[j] if j < len(values) else 0, -self.frac)
        if self.im is None:
            return mp.make_mpf(part(self.re))
        return mp.make_mpc((part(self.re), part(self.im)))

    def set_constant(self, v: int):
        """Make the constant term exactly the integer v."""
        self.re[0], self.rad[0] = v << self.frac, 0
        if self.im is not None:
            self.im[0] = 0

    @staticmethod
    def lincomb(c1, v1, c2, v2) -> "FixedSeries":
        """``c1 v1 + c2 v2`` for numbers c1, c2, read exactly; one truncation at the end."""
        n = min(v1.nterms, v2.nterms)
        (r1, i1, e1), (r2, i2, e2) = _exact(c1), _exact(c2)
        # align the two terms through the coefficients, one shift each
        e = min(e1, e2)
        s1, s2 = e1 - e, e2 - e
        m1, m2 = (abs(r1) + abs(i1)) << s1, (abs(r2) + abs(i2)) << s2
        r1, i1, r2, i2 = r1 << s1, i1 << s1, r2 << s2, i2 << s2
        L = min(n + 1, max(len(v1.re), len(v2.re)))
        rad = [m1 * a + m2 * b for a, b in zip(_padded(v1.rad, L), _padded(v2.rad, L))]
        if v1.im is None and v2.im is None and not (i1 or i2):
            re = [a * r1 + b * r2 for a, b in zip(_padded(v1.re, L), _padded(v2.re, L))]
            im, unit = None, 1
        else:
            (x1, y1), (x2, y2) = v1._parts(L), v2._parts(L)
            re = [a * r1 - b * i1 + c * r2 - d * i2 for a, b, c, d in zip(x1, y1, x2, y2)]
            im = [a * i1 + b * r1 + c * i2 + d * r2 for a, b, c, d in zip(x1, y1, x2, y2)]
            unit = 2
        if e >= 0:
            return FixedSeries([x << e for x in re], im and [x << e for x in im],
                               [r << e for r in rad], n, v1.frac)
        return FixedSeries([x >> -e for x in re], im and [x >> -e for x in im],
                           [_ceil_shift(r, -e) + unit for r in rad], n, v1.frac)

    def __sub__(self, other):
        return FixedSeries.lincomb(1, self, -1, other)

    def __mul__(self, other):
        n = min(self.nterms, other.nterms)
        F, G = self.frac, _COARSE_BITS
        la, lb = len(self.re), len(other.re)
        m = min(n + 1, la + lb - 1)
        if self.im is None and other.im is None:
            re, im, unit = _conv(self.re, other.re, m), None, 1
        else:
            (a, ai), (b, bi) = self._parts(la), other._parts(lb)
            re = [p - q for p, q in zip(_conv(a, b, m), _conv(ai, bi, m))]
            im = [p + q >> F for p, q in zip(_conv(a, bi, m), _conv(ai, b, m))]
            unit = 2
        # |ab - a'b'| <= |a'| |b - b'| + |b| |a - a'|, with |b| <= |b'| + rad
        ra, rb = self.rad, other.rad
        if any(ra) or any(rb):
            ea = _kron(_coarse(_bounds(self.re, self.im), F), rb, m)
            eb = _kron(ra, _coarse(list(map(operator.add, _bounds(other.re, other.im), rb)), F), m)
            rad = [_ceil_shift(x + y, G) + unit for x, y in zip(ea, eb)]
        else:
            rad = [unit] * m
        return FixedSeries([x >> F for x in re], im, rad, n, F)

    def divide(self, den: "FixedSeries") -> "FixedSeries":
        """self / den by c_k = (a_k - sum_{j>=1} d_j c_{k-j}) / d_0; den's constant term must be nonzero."""
        n = min(self.nterms, den.nterms)
        F, G = self.frac, _COARSE_BITS
        ld = len(den.re)
        d0r, d0i = den.re[0], den.im[0] if den.im else 0
        N = d0r * d0r + d0i * d0i
        low = math.isqrt(N) - den.rad[0]  # |d_0| >= low
        if low <= 0:
            raise SeriesError("series division by a series with zero constant term")
        real = self.im is None and den.im is None
        a, ai = self._parts(n + 1)
        dr, di = den._parts(ld)
        dr, di = dr[::-1], di[::-1]
        c, ci = [], []
        for k in range(n + 1):
            lo = max(0, k - ld + 1)
            w = slice(ld - 1 - k + lo, ld - 1)
            if real:
                c.append(((a[k] << F) - _dot(c[lo:k], dr[w])) // d0r)
                continue
            x, y = c[lo:k], ci[lo:k]
            sr = (a[k] << F) - _dot(x, dr[w]) + _dot(y, di[w])
            si = (ai[k] << F) - _dot(x, di[w]) - _dot(y, dr[w])
            c.append((sr * d0r + si * d0i) // N)
            ci.append((si * d0r - sr * d0i) // N)
        # the error of the numerator over |d_0|, |c_k| times the relative
        # error of d_0, and one truncation
        unit = 1 if real else 2
        mags = _bounds(c, None if real else ci)
        big = _coarse([v + unit for v in mags], F)
        inv = -((-1 << F + G) // low)  # >= 2^(F+G) / |d_0|
        dmag, drad = _coarse(_bounds(den.re, den.im), F)[::-1], den.rad[::-1]
        ra = _padded(self.rad, n + 1)
        rad, bound = [], []
        for k in range(n + 1):
            lo = max(0, k - ld + 1)
            w = slice(ld - 1 - k + lo, ld - 1)
            num = (ra[k] << G) + _dot(rad[lo:k], dmag[w]) + _dot(bound[lo:k], drad[w])
            r = _ceil_shift((num + big[k] * den.rad[0]) * inv, 2 * G) + unit
            rad.append(r)
            bound.append(_ceil_shift(mags[k] + r, F - G))
        return FixedSeries(c, None if real else ci, rad, n, F)

    def log(self) -> "FixedSeries":
        """log(self) for a constant term of exactly 1, as the integral of h'/h.

        The quotient q = h'/h is one :meth:`divide` (Brent & Kung, J. ACM
        25(4), 1978); phi_k = q_{k-1} / k, each part rounded down, within
        the radius of q_{k-1} over k and one truncation.
        """
        n, F = self.nterms, self.frac
        if self.re[0] != 1 << F or self.rad[0] or self.im and self.im[0]:
            raise SeriesError("series logarithm requires constant term 1")

        def deriv(values):
            return [k * v for k, v in enumerate(values[1:], 1)] or [0]

        dh = FixedSeries(deriv(self.re), self.im and deriv(self.im), deriv(self.rad), n - 1, F)
        q = dh.divide(self)
        unit = 1 if self.im is None else 2
        re = [0] + [v // k for k, v in enumerate(q.re, 1)]
        im = q.im and [0] + [v // k for k, v in enumerate(q.im, 1)]
        rad = [0] + [-(-r // k) + unit for k, r in enumerate(q.rad, 1)]
        return FixedSeries(re, im, rad, n, F)
