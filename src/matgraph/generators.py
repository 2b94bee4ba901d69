"""Ready-made graphs for well-known matrix iterations and rational schemes."""

from __future__ import annotations

import math
from fractions import Fraction

from .graph import CoeffRef, ComputationGraph, GraphError, OpKind, merge_graph
from .numerics import CoeffType


def _lincomb_refs(g: ComputationGraph) -> list[CoeffRef]:
    """Both coefficient slots of every linear combination, in creation order."""
    return [CoeffRef(n, s) for n in g.coeffs for s in (1, 2)]


def graph_denman_beavers(iters: int, coeff_type: CoeffType = CoeffType()):
    """Square-root iteration X_{k+1} = (X_k + Y_k^{-1})/2, Y_{k+1} = (Y_k + X_k^{-1})/2.

    Starts from X0 = A, Y0 = I (so the trivial inverse of Y0 is elided) and
    outputs X_{iters+1}.  The companion nodes Xinv{iters} and Y{iters+1}
    are built but not reachable from the output.
    """
    if iters < 1:
        raise GraphError("need at least one iteration")
    g = ComputationGraph(coeff_type)
    g.add_ldiv("Xinv0", "A", "I")
    g.add_lincomb("X1", 0.5, "A", 0.5, "I")
    g.add_lincomb("Y1", 0.5, "I", 0.5, "Xinv0")
    for k in range(1, iters + 1):
        g.add_ldiv(f"Yinv{k}", f"Y{k}", "I")
        g.add_lincomb(f"X{k + 1}", 0.5, f"X{k}", 0.5, f"Yinv{k}")
        g.add_ldiv(f"Xinv{k}", f"X{k}", "I")
        g.add_lincomb(f"Y{k + 1}", 0.5, f"Y{k}", 0.5, f"Xinv{k}")
    g.set_outputs([f"X{iters + 1}"])
    return g, _lincomb_refs(g)


def graph_newton_schulz(iters: int, coeff_type: CoeffType = CoeffType()):
    """Inverse iteration X_{k+1} = X_k (2I - A X_k) with X0 = A."""
    if iters < 1:
        raise GraphError("need at least one iteration")
    g = ComputationGraph(coeff_type)
    prev = "A"
    for k in range(1, iters + 1):
        g.add_mult(f"W{k}", "A", prev)
        g.add_lincomb(f"T{k}", 2.0, "I", -1.0, f"W{k}")
        g.add_mult(f"X{k}", prev, f"T{k}")
        prev = f"X{k}"
    g.set_outputs([prev])
    return g, _lincomb_refs(g)


def pade_exp_coeffs(degree: int, exact: bool = False):
    """Numerator coefficients of the diagonal Pade approximant to exp.

    b_j = (2m-j)! m! / ((2m)! j! (m-j)!) for m = ``degree``; the denominator
    has the same coefficients with alternating signs.
    """
    out = []
    for j in range(degree + 1):
        v = Fraction(
            math.factorial(2 * degree - j) * math.factorial(degree),
            math.factorial(2 * degree) * math.factorial(j) * math.factorial(degree - j),
        )
        out.append(v if exact else float(v))
    return out


def graph_exp_pade_ss(degree: int, squarings: int = 0,
                      coeff_type: CoeffType = CoeffType()):
    """Scaling-and-squaring exponential via the diagonal Pade approximant.

    Evaluates r(A/2^s) with one linear solve and then squares s times.
    Supported degrees: 3, 5, 7, 9, 13 (13 splits the polynomial parts to
    keep the multiplication count at six).
    """
    if degree not in (3, 5, 7, 9, 13):
        raise GraphError("degree must be one of 3, 5, 7, 9, 13")
    if squarings < 0:
        raise GraphError("squarings must be nonnegative")
    # exact rationals: they round correctly at any coefficient precision
    b = pade_exp_coeffs(degree, exact=True)
    g = ComputationGraph(coeff_type)
    if squarings > 0:
        g.add_lincomb("As", 2.0 ** -squarings, "A", 0.0, "I")
        x = "As"
    else:
        x = "A"
    npow = {3: 1, 5: 2, 7: 3, 9: 4, 13: 3}[degree]
    g.add_mult("A2", x, x)
    powers = {2: "A2"}
    for j in range(2, npow + 1):
        g.add_mult(f"A{2 * j}", "A2", f"A{2 * (j - 1)}")
        powers[2 * j] = f"A{2 * j}"
    if degree == 13:
        g.add_sum("W1s", [(b[9], "A2"), (b[11], "A4"), (b[13], "A6")])
        g.add_mult("W1", "A6", "W1s")
        g.add_sum("Us", [(b[1], "I"), (b[3], "A2"), (b[5], "A4"), (b[7], "A6"), (1.0, "W1")])
        g.add_mult("U", x, "Us")
        g.add_sum("W2s", [(b[8], "A2"), (b[10], "A4"), (b[12], "A6")])
        g.add_mult("W2", "A6", "W2s")
        g.add_sum("V", [(b[0], "I"), (b[2], "A2"), (b[4], "A4"), (b[6], "A6"), (1.0, "W2")])
    else:
        odd = [(b[1], "I")] + [(b[2 * j + 1], powers[2 * j]) for j in range(1, (degree - 1) // 2 + 1)]
        g.add_sum("Us", odd)
        g.add_mult("U", x, "Us")
        even = [(b[0], "I")] + [(b[2 * j], powers[2 * j]) for j in range(1, degree // 2 + 1)]
        g.add_sum("V", even)
    g.add_lincomb("VmU", 1.0, "V", -1.0, "U")
    g.add_lincomb("VpU", 1.0, "V", 1.0, "U")
    g.add_ldiv("R0", "VmU", "VpU")
    prev = "R0"
    for k in range(1, squarings + 1):
        g.add_mult(f"S{k}", prev, prev)
        prev = f"S{k}"
    g.set_outputs([prev])
    return g, _lincomb_refs(g)


def pade_squarings_for_norm(norm_bound: float, degree: int = 13) -> int:
    """Squaring count so that the scaled norm is within the approximant's
    backward-stable radius (the classical per-degree thresholds).

    A norm bound that is negative or not finite, or a degree other than 3,
    5, 7, 9 or 13, raises ``ValueError``.
    """
    thetas = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
              7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}
    if degree not in thetas:
        raise ValueError(f"no Pade radius for degree {degree!r}; use one of {list(thetas)}")
    if not (math.isfinite(norm_bound) and norm_bound >= 0):
        raise ValueError(f"norm bound must be finite and nonnegative, got {norm_bound!r}")
    # halving is exact, so this is norm_bound > theta * 2^s without overflow
    s = 0
    while norm_bound > thetas[degree]:
        norm_bound /= 2
        s += 1
    return s


def graph_rational(p_graph: ComputationGraph, q_graph: ComputationGraph) -> ComputationGraph:
    """Graph of q(A)^{-1} p(A) from two solve-free single-output graphs."""
    for part in (p_graph, q_graph):
        if len(part.outputs) != 1:
            raise GraphError("rational composition needs single-output graphs")
        if any(op == OpKind.LDIV for op in part.operations.values()):
            raise GraphError("numerator and denominator must be solve-free")
    merged = merge_graph(p_graph, q_graph)
    p_out, q_out = merged.outputs
    merged.clear_outputs()
    nid = "Rat"
    while nid in merged.operations:
        nid = nid + "_b"
    merged.add_ldiv(nid, q_out, p_out)
    merged.set_outputs([nid])
    return merged
