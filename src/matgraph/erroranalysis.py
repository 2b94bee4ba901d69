"""Accuracy certification: domain-radius bounds and running round-off bounds.

Two a priori certificates for a graph g approximating a target f:

* forward: E(z) = sum |gamma_j| z^j with gamma the coefficients of g - f;
  theta^F is the largest radius with E(theta) <= u.
* backward (exponential targets): with phi(z) = log(e^{-z} g(z)) the
  relative backward error on |z| <= theta is bounded by
  F(theta) = sum |delta_j| theta^{j-1}; theta^B is the largest radius
  keeping that below u.

Both run the series on fixed-point integers (:class:`~matgraph.series.FixedSeries`),
which carry an error radius for every coefficient; ``ThetaResult.rounding``
reports the largest radius of the coefficients the bound is built from.
The fixed point starts at 320 fractional bits and widens until those
radii move the bound by at most u 2^-min(prec, 128) at every radius the
search can return: an absolute error of 2^-F in coefficient j weighs
2^-F theta^j in the bound, which outgrows u for long series at large theta
unless F grows with them.  A narrow start is sound: a radius that moves
the bound by less than u 2^-128 cannot change a decision of the 1e-30
bisection, except at a midpoint within about 2^-128 relative of the root.
So ``prec`` sets only the bisection and the returned theta.  Both refuse a
NaN or an inf coefficient before any series is formed, and a radius at
which the last quarter of the bound's terms holds more than u 2^-20: the
terms past the truncation then plausibly matter too.  The bound takes the
exact magnitudes of the computed coefficients as the series holds them,
integers at its fixed point's one exponent, and the search certifies its
result by a bracketing pair (theta passes, theta*(1+1e-6) fails).  The
bound polynomial has nonnegative coefficients, so it increases in theta,
and it is evaluated exactly at dyadic radii.  Once the root is bracketed
by a power of two, Newton's method gives an untrusted root, and two exact
evaluations check dyadics tl < th about 2^-198 theta apart around it with
bound(tl) <= u < bound(th).  The bisection and the bracket check then
decide a radius outside (tl, th) by comparison with tl and th, and any
other radius, or every radius when the check fails, by an exact
evaluation.  So every comparison with u is decided without rounding, and
the radius and bracket are those of an exact evaluation at every step.

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
from mpmath.libmp import from_man_exp, mpf_pos

from .evaluation import _eval_nodes, _precision_context, eval_graph, graph_degree_bound
from .graph import ComputationGraph, GraphError, OpKind, get_topo_order
from .numerics import EPS64, _exact, is_scalar, working_precision
from .series import FixedSeries, TruncSeries


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
    rounding: object = None


_SEARCH_CAP = mp.mpf(2) ** 60
_BRACKET_LO = mp.mpf(2) ** -20


def _bisect_max_below(passes, lo, hi, prec):
    """Largest theta in [lo, hi] that ``passes``, a decision monotone in theta, accepts."""
    with mp.workprec(prec):
        tol = mp.mpf("1e-30")
        for _ in range(prec):
            mid = (lo + hi) / 2
            if passes(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= lo * tol:
                break
    return lo


def _poly_bound(C, e0):
    """Exact evaluator t -> 2^e0 sum_j C_j t^j for nonnegative integers C_j at a dyadic mpf t.

    An evaluation at t = m 2^e is an integer Horner and returns the sum as
    an exact mpf, so a test bound(t) <= u is decided without rounding.
    """
    n = len(C) - 1

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


#: bits of the enclosure's dyadic ends: they lie about 2^-(bits - 2) theta apart
_ENCLOSURE_BITS = 200
#: fractional bits of the fixed point in which Newton's method sharpens the root
_NEWTON_BITS = 256


def _approx_root(C, e0, u, k: int):
    """An approximation to the root of 2^e0 sum_j C_j t^j = u in [2^(k-1), 2^k), which nothing trusts.

    On s = t 2^-k the equation reads q(s) = 1, q(s) = sum_j a_j s^j with
    a_j = C_j 2^(e0 + jk) / u in [0, 2^j], since the bound is at most u at
    s = 1/2.  log q is increasing and convex in log s, so Newton's method on
    log q = 0 moves monotonically down from s = 1; it runs in binary64.
    Newton's method on q = 1 then sharpens s on integers at 256 fractional
    bits.  NaN when a step breaks down (an overflow or a zero derivative).
    """
    W = _NEWTON_BITS
    _, um, ue, _ = u._mpf_
    A = []
    for j, c in enumerate(C):  # a_j at W fractional bits
        sh = e0 + j * k - ue + W
        A.append((c << sh if sh >= 0 else c >> -sh) // um)
    try:
        a = [c / (1 << W) for c in A]
        x = 0.0  # log s
        for _ in range(100):
            s, q, dq = math.exp(x), 0.0, 0.0
            for j in range(len(a) - 1, -1, -1):  # dq = s q'(s)
                q, dq = q * s + a[j], dq * s + j * a[j]
            step = math.log(q) * q / dq
            if not step > 2 ** -52:
                break
            x -= step
        S, one = int(math.ldexp(math.exp(x), W)), 1 << W
        for _ in range(4):
            q, dq = A[-1], 0
            for c in reversed(A[:-1]):  # dq = q'(s)
                q, dq = (q * S >> W) + c, (dq * S >> W) + q
            step = ((q - one) << W) // dq
            S -= step
            if abs(step) >> (W - _ENCLOSURE_BITS - 16) == 0:
                break
    except (ArithmeticError, ValueError):
        return mp.nan
    return mp.make_mpf(from_man_exp(S, k - W))


def _enclosure(bound, u, approx, hi):
    """Dyadics tl < approx < th about 2^-198 approx apart with bound(tl) <= u < bound(th), checked exactly; None if not."""
    if not (mp.isfinite(approx) and hi / 2 < approx < hi):
        return None
    _, man, exp, bc = approx._mpf_
    shift = bc - _ENCLOSURE_BITS
    man, exp = (man >> shift, exp + shift) if shift > 0 else (man << -shift, exp + shift)
    tl, th = (mp.make_mpf(from_man_exp(m, exp)) for m in (man - 1, man + 1))
    return (tl, th) if bound(tl) <= u < bound(th) else None


def _decider(bound, u, enclosure):
    """The search's step function t -> bound(t) <= u for t > 0.

    With an enclosure (tl, th) the bound, increasing on t > 0, is at most u
    at every t <= tl and above it at every t >= th, so those decisions are
    comparisons; only a t strictly between evaluates the bound, exactly.
    """
    tl, th = enclosure or (mp.zero, mp.inf)
    return lambda t: t <= tl or (t < th and bound(t) <= u)


def _radius(C, e0, u, kind: ThetaKind, nterms: int, prec: int, why: str = "") -> ThetaResult:
    """Largest theta with 2^e0 sum_j C_j theta^j <= u, certified.

    The coefficients are nonnegative integers C_j at one exponent e0, so
    the bound increases and is evaluated exactly (:func:`_poly_bound`).  A
    constant term above u fails everywhere.  Otherwise halves from 2^-20
    until the bound passes and doubles until it fails (or saturates past
    the search cap).  Newton's method then gives an untrusted root (:func:`_approx_root`),
    and two exact evaluations check a short dyadic enclosure of it
    (:func:`_enclosure`).  The bisection and the check of the bracketing
    pair (theta passes, theta*(1+1e-6) fails) decide every t outside the
    enclosure by comparison with its ends (:func:`_decider`), and every t
    when the check fails by an exact evaluation, so their outcome is the
    same either way.  A refusal says what it saw, and ``why``.
    """
    c0 = mp.make_mpf(from_man_exp(C[0], e0))

    def refusal(tried=""):
        return CertificationError("no sign change: bound above u on the whole bracket (bound "
                                  f"{mp.nstr(c0, 3)} at t -> 0, u = {mp.nstr(u, 3)}{why}{tried})")

    if c0 > u:
        raise refusal()
    bound = _poly_bound(C, e0)
    lo = _BRACKET_LO
    while bound(lo) > u:
        lo /= 2
        if lo < mp.mpf(2) ** -(prec - 8):
            raise refusal(f", smallest radius tried {mp.nstr(lo * 2, 3)}")
    hi = lo
    while bound(hi) <= u:
        hi *= 2
        if hi > _SEARCH_CAP:
            return ThetaResult(hi, kind, nterms, u, saturated=True)
    k = mp.frexp(hi)[1] - 1  # hi = 2^k
    passes = _decider(bound, u, _enclosure(bound, u, _approx_root(C, e0, u, k), hi))
    theta = _bisect_max_below(passes, hi / 2, hi, prec)
    margin = theta * (1 + mp.mpf("1e-6"))
    if not (passes(theta) and not passes(margin)):
        raise CertificationError("bracketing certificate failed to verify")
    return ThetaResult(theta, kind, nterms, u, bracket=(theta, margin))


# the search resolves theta to a relative 1e-30 (about 2^-100); rounding of
# the bound below u 2^-128 moves theta by less than 2^-128 relative
_ROUNDING_BITS = 128


def _widening(mags, rad, F: int, u, prec: int) -> int:
    """Bits to add to the fixed point 2^-F so that radii ``rad`` move the bound by at most u 2^-min(prec, 128).

    The bound is 2^-F sum_k mags_k t^k.  No radius the search returns or
    tries near its result exceeds theta_up, the least (u / m_k)^(1/k) over
    the lower bounds m_k = 2^-F (mags_k - rad_k) > 0 (k >= 1), which also
    bound the exact coefficients; nor twice the search cap.  The radii move
    the bound at theta_up by at most len(rad) max_k rad_k theta_up^k.  Sizing
    runs on bit lengths, each rounded the safe way; 0 if no widening is needed.
    A step at most doubles the fixed point: with few coefficients resolved,
    theta_up can be far too large, and the next pass resolves more.
    """
    lu = float(mp.log(u, 2))
    # log2 theta_up: log2 m_k >= bit_length(m_k) - 1 - F
    lt = min([(lu + F - (m - r).bit_length() + 1) / k
              for k, (m, r) in enumerate(zip(mags, rad)) if k and m > r],
             default=math.inf)
    lt = min(lt, math.log2(_SEARCH_CAP) + 1)
    spread = [r.bit_length() + k * lt for k, r in enumerate(rad) if r]
    if not spread:
        return 0
    need = max(spread) + len(rad).bit_length() - F - (lu - min(prec, _ROUNDING_BITS))
    return max(0, min(math.ceil(need), F))


def _check_u_prec(u, prec: int):
    if not (0 < u < 1 and prec >= 53):
        raise ValueError(f"need u in (0, 1) and prec >= 53, got u={u!r}, prec={prec!r}")


def _graph_series(g: ComputationGraph, nterms: int, prec: int, frac: int) -> FixedSeries:
    s = eval_graph(g, FixedSeries.identity(nterms, frac), prec)
    if isinstance(s, list):
        raise GraphError("certification expects a single-output graph")
    return s


def _check_finite(g: ComputationGraph, target=()):
    """Refuse a NaN or an inf among the coefficients the series are made from: the graph's live nodes and ``target``."""
    live = (c for nid in get_topo_order(g) for c in g.coeffs.get(nid, ()))
    if any(_exact(c) is None for c in (*live, *target)):
        raise CertificationError("non-finite series coefficient: a graph or target coefficient "
                                 "is NaN or infinite")


#: fractional bits the fixed point starts at; _widening adds what the bound needs
_START_BITS = 320
#: largest share of u the last quarter of the bound's terms may hold at the bracket's upper end
_TAIL_SHARE = mp.mpf(2) ** -20


def _check_truncation(C, e0, res: ThetaResult):
    """Refuse a radius at which the last quarter of the N bound terms, j >= N - N//4, adds more than u 2^-20.

    The bound leaves out the terms past the truncation, which then plausibly
    matter too.  It is evaluated at the bracket's upper end rounded up to 64 bits.
    """
    n = len(C)
    first = n - n // 4
    t = mp.make_mpf(mpf_pos(res.bracket[1]._mpf_, 64, "u"))
    tail = _poly_bound([0] * first + C[first:], e0)(t)
    if tail > res.u * _TAIL_SHARE:
        raise CertificationError(
            f"series truncated too early: the last {n - first} of {n} bound terms hold "
            f"{mp.nstr(tail / res.u, 3)} of u at theta {mp.nstr(t, 6)}; "
            f"use a larger nterms than {res.nterms}")


def _theta(g: ComputationGraph, kind: ThetaKind, nterms: int, u, prec: int, form) -> ThetaResult:
    """The radius of the error series ``form(graph series)``, formed again wider until :func:`_widening` is content.

    A forward error above u at the origin gives theta 0; a search result is
    checked for truncation.
    """
    first = 1 if kind == ThetaKind.BACKWARD else 0  # sum_j |delta_j| t^(j-1); delta_0 is 0
    frac = _START_BITS
    while True:
        gs = _graph_series(g, nterms, prec, frac)
        s = form(gs)
        C = s.magnitudes()[first:]
        widen = _widening(C, s.rad[first:], s.frac, u, prec)  # rad stops at the last nonzero entry
        if not widen:
            break
        frac += widen
    e0 = -s.frac
    if kind == ThetaKind.FORWARD and mp.make_mpf(from_man_exp(C[0], e0)) > u:
        res = ThetaResult(mp.mpf(0), kind, nterms, u)
    else:
        why = f", g(0) - 1 = {mp.nstr(gs.value(0) - 1, 3)}" if kind == ThetaKind.BACKWARD else ""
        res = _radius(C, e0, u, kind, nterms, prec, why)
        if not res.saturated:
            _check_truncation(C, e0, res)
    res.rounding = mp.make_mpf(from_man_exp(max(s.rad), e0))  # the largest carried radius
    return res


def compute_fwd_theta(g: ComputationGraph, f_series: TruncSeries, u=2.0 ** -53,
                      prec: int = 1024) -> ThetaResult:
    """Largest radius at which the absolute forward-error series stays below u.

    The graph must be solve-free and the target series must dominate the
    graph's polynomial degree.  The target's coefficients are rounded down
    to the graph series' fixed point, with that rounding added to their
    radii, and the differences are then formed exactly.  The fixed point
    widens as the module docstring says.  A ``u`` outside
    (0, 1) or a ``prec`` below 53 raises ``ValueError``.
    """
    _check_u_prec(u, prec)
    if any(op == OpKind.LDIV for op in g.operations.values()):
        raise CertificationError("forward certification requires a solve-free graph")
    _check_finite(g, f_series.coeffs)
    with working_precision(prec):
        if f_series.nterms < graph_degree_bound(g):
            raise CertificationError("target series truncated below the graph degree")
        return _theta(g, ThetaKind.FORWARD, f_series.nterms, mp.mpf(u), prec,
                      lambda gs: gs - FixedSeries.read(f_series.coeffs, gs.nterms, gs.frac))


def compute_bwd_theta_exp(g: ComputationGraph, u=2.0 ** -53, nterms: int = 100,
                          prec: int = 1024) -> ThetaResult:
    """Largest radius with certified relative backward error below u, target exp.

    Builds the truncated series of log(e^{-z} g(z)), takes coefficient
    magnitudes, and bisects sum |delta_j| theta^{j-1} = u at ``prec`` bits;
    the fixed point widens as the module docstring says.
    Graphs with linear solves are fine as long as every denominator series
    has a nonzero constant term.  A ``u`` outside (0, 1), a ``prec`` below 53
    or an ``nterms`` below 1 raises ``ValueError``.
    """
    _check_u_prec(u, prec)
    _check_finite(g)
    with working_precision(prec):
        u = mp.mpf(u)

        def log_of_ratio(gs):
            h = FixedSeries.exp_neg(nterms, gs.frac) * gs
            if abs(h.value(0) - 1) > u * nterms:
                raise CertificationError(
                    "graph does not match exp at the origin; backward-error series undefined"
                )
            h.set_constant(1)
            return h.log()

        return _theta(g, ThetaKind.BACKWARD, nterms, u, prec, log_of_ratio)


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
