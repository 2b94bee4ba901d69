"""Target scalar functions for coefficient optimization and certification."""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

from .numerics import FLOAT64, CoeffType, convert_scalar, exact_decimal
from .series import TruncSeries


def exp_target(z):
    return mp.exp(z)


def sqrt1p_target(z):
    return mp.sqrt(1 + z)


def load_series_file(path: str) -> list[Fraction]:
    """Taylor coefficients, one exact decimal per line; blank lines and # comments ignored."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            out.append(exact_decimal(line))
    if not out:
        raise ValueError(f"no coefficients found in {path}")
    return out


def get_target(name: str, coeff_type: CoeffType = FLOAT64):
    """Resolve a CLI target name to its callable.

    The coefficients of a ``series:<file>`` target are rounded once to
    ``coeff_type``; the callable is their truncated Taylor polynomial, a
    :class:`~matgraph.series.TruncSeries`.
    """
    if name == "exp":
        return exp_target
    if name == "sqrt1p":
        return sqrt1p_target
    if name.startswith("series:"):
        return TruncSeries([convert_scalar(c, coeff_type)
                            for c in load_series_file(name[len("series:"):])])
    raise ValueError(f"unknown target {name!r}; use exp, sqrt1p, or series:<file>")
