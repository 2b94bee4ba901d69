"""Truncated power series arithmetic.

A :class:`TruncSeries` holds coefficients for z^0 .. z^nterms and supports
the ring operations needed to extract the series expansion of the function
underlying a graph: addition, Cauchy product, division by a series with
nonzero constant term (the scalar shadow of a linear solve), and the
logarithm of a series with constant term one.

Coefficients follow the ambient mpmath precision; construct and combine
series inside :func:`matgraph.numerics.working_precision` when extended
precision is wanted.
"""

from __future__ import annotations

from mpmath import mp

from .numerics import is_scalar


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

    @classmethod
    def exp(cls, nterms: int) -> "TruncSeries":
        return cls([1 / mp.factorial(j) for j in range(nterms + 1)])

    @classmethod
    def exp_neg(cls, nterms: int) -> "TruncSeries":
        return cls([(-1) ** j / mp.factorial(j) for j in range(nterms + 1)])

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:4])
        return f"TruncSeries([{head}{', ...' if self.nterms > 3 else ''}], nterms={self.nterms})"

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __add__(self, other):
        if is_scalar(other):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return TruncSeries(out)
        n = max(self.nterms, other.nterms)
        a = self.coeffs + [0] * (n - self.nterms)
        b = other.coeffs + [0] * (n - other.nterms)
        return TruncSeries([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "TruncSeries":
        return TruncSeries([c * x for x in self.coeffs])

    def __mul__(self, other):
        if is_scalar(other):
            return self.scale(other)
        n = min(self.nterms, other.nterms)
        out = [0] * (n + 1)
        b = [(j, bj) for j, bj in enumerate(other.coeffs[: n + 1]) if bj != 0]
        for i, ai in enumerate(self.coeffs[: n + 1]):
            if ai == 0:
                continue
            for j, bj in b:
                if j > n - i:
                    break
                out[i + j] = out[i + j] + ai * bj
        return TruncSeries(out)

    def __rmul__(self, other):
        if is_scalar(other):
            return self.scale(other)
        return NotImplemented

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

    def log(self) -> "TruncSeries":
        """log(self) for a constant term of exactly 1, from phi' self = self'."""
        h = self.coeffs
        if h[0] != 1:
            raise SeriesError("series logarithm requires constant term 1")
        phi = [0] * len(h)
        jphi = [0] * len(h)  # j * phi_j, rounded once
        for k in range(1, len(h)):
            s = k * h[k]
            for j in range(1, k):
                s = s - jphi[j] * h[k - j]
            phi[k] = s / k
            jphi[k] = k * phi[k]
        return TruncSeries(phi)

    def abs_coeffs(self) -> "TruncSeries":
        return TruncSeries([abs(c) for c in self.coeffs])

    def __call__(self, z):
        """Horner evaluation of the truncated polynomial.

        ``targets.get_target("series:FILE")`` returns a series as the target
        callable, which ``opt_gauss_newton`` evaluates at every point.
        """
        acc = 0 * z
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

