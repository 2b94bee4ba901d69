"""Accuracy certification: domain-radius bounds and running round-off bounds.

Two a priori certificates for a graph g approximating a target f:

* forward: E(z) = sum |gamma_j| z^j with gamma the coefficients of g - f;
  theta^F is the largest radius with E(theta) <= u.
* backward (exponential targets): with phi(z) = log(e^{-z} g(z)) the
  relative backward error on |z| <= theta is bounded by
  F(theta) = sum |delta_j| theta^{j-1}; theta^B is the largest radius
  keeping that below u.

Both use truncated series arithmetic at high precision and certify the
result by a bracketing pair (theta passes, theta*(1+1e-6) fails).  The
bound polynomial is evaluated exactly at each dyadic trial radius, so
every comparison with u in the search and the bracket check is decided
without rounding.

The a posteriori running error propagates per-node first-order round-off
through a scalar evaluation, either as a worst-case bound or as a
stochastic estimate with uniformly distributed rounding terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from mpmath import mp
from mpmath.libmp import from_float, from_int, from_man_exp

from .evaluation import _eval_nodes, _precision_context, eval_graph, graph_degree_bound
from .graph import ComputationGraph, GraphError, OpKind, get_topo_order
from .numerics import EPS64, is_scalar, working_precision
from .series import TruncSeries


class ThetaKind(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class RunErrMode(str, Enum):
    BOUND = "bound"
    RAND = "rand"


class CertificationError(ArithmeticError):
    pass


@dataclass
class ThetaResult:
    theta: object
    kind: ThetaKind
    nterms: int
    u: object
    saturated: bool = False
    bracket: tuple | None = None

    def __float__(self):
        return float(self.theta)


_SEARCH_CAP = mp.mpf(2) ** 60
_BRACKET_LO = mp.mpf(2) ** -20


def _bisect_max_below(bound, u, lo, hi, prec):
    """Largest theta in [lo, hi] with bound(theta) <= u; bound is increasing."""
    with mp.workprec(prec):
        for _ in range(prec):
            mid = (lo + hi) / 2
            if bound(mid) <= u:
                lo = mid
            else:
                hi = mid
            if hi - lo <= lo * mp.mpf("1e-30"):
                break
    return lo


def _poly_bound(coeffs):
    """Exact evaluator t -> sum_j c_j t^j for finite nonnegative c_j at a dyadic mpf t.

    The coefficients become integers C_j at a common exponent once; an
    evaluation at t = m 2^e is then an integer Horner and returns the sum
    as an exact mpf, so a test bound(t) <= u is decided without rounding.
    """
    parts = [c._mpf_ if isinstance(c, mp.mpf) else
             from_float(c) if isinstance(c, float) else from_int(c) for c in coeffs]
    nz = [k for k, (_, man, _, _) in enumerate(parts) if man]
    if not nz:
        return lambda t: mp.zero
    n = nz[-1]
    e0 = min(parts[k][2] for k in nz)
    C = [man << (exp - e0) if man else 0 for _, man, exp, _ in parts[: n + 1]]

    def bound(t):
        _, m, e, _ = t._mpf_
        if e > 0:
            m, e = m << e, 0
        # 2^(-e n) sum_j C_j t^j, with every term an integer
        acc = C[n]
        for k in range(n - 1, -1, -1):
            acc = acc * m + (C[k] << (-e * (n - k)))
        return mp.make_mpf(from_man_exp(acc, e0 + e * n))

    return bound


def _radius(coeffs, u, kind: ThetaKind, nterms: int, prec: int, why: str = "") -> ThetaResult:
    """Largest theta with sum_j coeffs[j] theta^j <= u, certified.

    The coefficients are finite and nonnegative, so the bound increases
    and is evaluated exactly (:func:`_poly_bound`).  A constant term above
    u fails everywhere.  Otherwise halves from 2^-20 until the bound
    passes, doubles until it fails (or saturates past the search cap),
    bisects, and checks the bracketing pair: theta passes and
    theta*(1+1e-6) fails.  A refusal says what it saw, and ``why``.
    """
    refusal = ("no sign change: bound above u on the whole bracket (bound "
               f"{mp.nstr(coeffs[0], 3)} at t -> 0, u = {mp.nstr(u, 3)}{why}")
    if coeffs[0] > u:
        raise CertificationError(refusal + ")")
    bound = _poly_bound(coeffs)
    lo = _BRACKET_LO
    while bound(lo) > u:
        lo /= 2
        if lo < mp.mpf(2) ** -(prec - 8):
            raise CertificationError(f"{refusal}, smallest radius tried {mp.nstr(lo * 2, 3)})")
    hi = lo
    while bound(hi) <= u:
        hi *= 2
        if hi > _SEARCH_CAP:
            return ThetaResult(hi, kind, nterms, u, saturated=True)
    theta = _bisect_max_below(bound, u, hi / 2, hi, prec)
    margin = theta * (1 + mp.mpf("1e-6"))
    if not (bound(theta) <= u and bound(margin) > u):
        raise CertificationError("bracketing certificate failed to verify")
    return ThetaResult(theta, kind, nterms, u, bracket=(theta, margin))


def _finite(s: TruncSeries) -> TruncSeries:
    """s itself, refusing a NaN or infinite coefficient (an exact bound would read it as 0)."""
    for j, c in enumerate(s.coeffs):
        if not mp.isfinite(c):
            raise CertificationError(f"non-finite series coefficient of z^{j}: {c}")
    return s


def _check_u_prec(u, prec: int):
    if not (0 < u < 1 and prec >= 53):
        raise ValueError(f"need u in (0, 1) and prec >= 53, got u={u!r}, prec={prec!r}")


def _graph_series(g: ComputationGraph, nterms: int, prec: int):
    s = eval_graph(g, TruncSeries.identity(nterms), prec)
    if isinstance(s, list):
        raise GraphError("certification expects a single-output graph")
    return s


def compute_fwd_theta(g: ComputationGraph, f_series: TruncSeries, u=2.0 ** -53,
                      prec: int = 1024) -> ThetaResult:
    """Largest radius at which the absolute forward-error series stays below u.

    The graph must be solve-free and the target series must dominate the
    graph's polynomial degree, so the coefficient differences are exact.
    A ``u`` outside (0, 1) or a ``prec`` below 53 raises ``ValueError``.
    """
    _check_u_prec(u, prec)
    if any(op == OpKind.LDIV for op in g.operations.values()):
        raise CertificationError("forward certification requires a solve-free graph")
    with working_precision(prec):
        u = mp.mpf(u)
        if f_series.nterms < graph_degree_bound(g):
            raise CertificationError("target series truncated below the graph degree")
        gs = _graph_series(g, f_series.nterms, prec)
        E = _finite(gs - f_series).abs_coeffs()
        if E.coeffs[0] > u:
            return ThetaResult(mp.mpf(0), ThetaKind.FORWARD, E.nterms, u)
        return _radius(E.coeffs, u, ThetaKind.FORWARD, E.nterms, prec)


def compute_bwd_theta_exp(g: ComputationGraph, u=2.0 ** -53, nterms: int = 100,
                          prec: int = 1024) -> ThetaResult:
    """Largest radius with certified relative backward error below u, target exp.

    Builds the truncated series of log(e^{-z} g(z)), takes coefficient
    magnitudes, and bisects sum |delta_j| theta^{j-1} = u at ``prec`` bits.
    Graphs with linear solves are fine as long as every denominator series
    has a nonzero constant term.  A ``u`` outside (0, 1), a ``prec`` below 53
    or an ``nterms`` below 1 raises ``ValueError``.
    """
    _check_u_prec(u, prec)
    with working_precision(prec):
        u = mp.mpf(u)
        gs = _graph_series(g, nterms, prec)
        h = _finite(TruncSeries.exp_neg(nterms) * gs)
        if abs(h.coeffs[0] - 1) > u * nterms:
            raise CertificationError(
                "graph does not match exp at the origin; backward-error series undefined"
            )
        h.coeffs[0] = mp.mpf(1)
        F = h.log().abs_coeffs()
        # sum_j |delta_j| t^(j-1); the j=0 coefficient is exactly zero
        return _radius(F.coeffs[1:], u, ThetaKind.BACKWARD, nterms, prec,
                       f", g(0) - 1 = {mp.nstr(gs.coeffs[0] - 1, 3)}")


def theta_table_csv(rows) -> str:
    """CSV rows (graph name, multiplication count, theta, u, nterms)."""
    lines = ["graph,multiplications,theta,u,nterms"]
    for name, m, theta, u, nterms in rows:
        lines.append(f"{name},{m},{float(theta)!r},{float(u)!r},{nterms}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# running round-off error


def eval_runerr(g: ComputationGraph, x, mode: RunErrMode = RunErrMode.BOUND,
                u: float = EPS64, seed: int | None = None):
    """First-order round-off estimate for a scalar evaluation of the graph.

    BOUND accumulates the worst-case relative bound: a product or solve
    adds one rounding (u), a linear combination adds two (its scalar
    products and the addition) plus the magnitude-weighted parent errors
    over the computed value.  RAND instead draws each rounding uniformly
    from [-u/2, u/2] and propagates the signed first-order recurrences,
    giving a stochastic estimate of the same quantity.

    ``u`` is the machine epsilon of the arithmetic being modeled
    (binary64 by default); the values are those ``eval_graph`` computes.  A vanishing computed value at a linear
    combination makes the relative error undefined; infinity is returned
    with a warning.
    """
    if not is_scalar(x):
        raise CertificationError("running error analysis is defined for scalar arguments")
    if len(g.outputs) != 1:
        raise GraphError("running error analysis expects a single-output graph")
    mode = RunErrMode(mode)
    order = get_topo_order(g)
    with _precision_context(g):
        slots = _eval_nodes(g, x, order, keep_all=True)
    out = g.outputs[0]
    rng = np.random.default_rng(seed)

    def eta():
        return rng.uniform(-u / 2, u / 2)

    acc: dict[str, object] = {}
    inf_hit = False
    for nid in order:
        p1, p2 = g.parents[nid]
        e1 = acc.get(p1, 0.0)
        e2 = acc.get(p2, 0.0)
        kind = g.operations[nid]
        if kind == OpKind.LINCOMB:
            c1, c2 = g.coeffs[nid]
            z1, z2, zi = slots[p1], slots[p2], slots[nid]
            if zi == 0:
                acc[nid] = math.inf
                inf_hit = True
                continue
            if mode == RunErrMode.BOUND:
                if math.isinf(e1) or math.isinf(e2):
                    acc[nid] = math.inf
                    continue
                acc[nid] = (abs(c1) * abs(z1) * e1 + abs(c2) * abs(z2) * e2) / abs(zi) + 2 * u
            else:
                acc[nid] = (c1 * z1 * (e1 + eta()) + c2 * z2 * (e2 + eta())) / zi + eta()
        else:
            if mode == RunErrMode.BOUND:
                acc[nid] = e1 + e2 + u
            elif kind == OpKind.MULT:
                acc[nid] = e1 + e2 + eta()
            else:
                acc[nid] = e2 - e1 + eta()
    if inf_hit:
        warnings.warn("relative running error undefined at a vanishing linear combination")
    result = acc.get(out, 0.0)
    return result if mode == RunErrMode.BOUND else abs(result)
