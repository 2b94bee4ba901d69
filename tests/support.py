"""Shared test helpers: oracles, random graphs, and replay interpreters."""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import tempfile
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import libmp, mp

from matgraph import (CertificationError, CoeffRef, CoeffType, ComputationGraph, Degopt, DegoptError, GraphError,
                      JacobianMatrix, OpKind, SeriesError, TruncSeries, eval_graph, eval_graph_poly,
                      get_topo_order, graph_degopt)
from matgraph.autodiff import as_point_array
from matgraph.graph import IDENTITY_ID, _drop, _retarget
from matgraph.codegen import Schedule
from matgraph.evaluation import _argument, _precision_context
from matgraph.numerics import FixedVector, PairMatrix, convert_scalar, working_precision


def as_mp_matrix(data, prec: int) -> mpmath.matrix:
    """Build an extended-precision matrix, rounding entries to ``prec`` bits."""
    with mp.workprec(prec):
        rows = np.asarray(data, dtype=object)
        if rows.ndim != 2:
            raise ValueError("expected a 2-d array")
        M = mp.matrix(*rows.shape)
        for (i, j), v in np.ndenumerate(rows):
            M[i, j] = mp.mpc(v) if getattr(v, "imag", 0) != 0 else mp.mpf(getattr(v, "real", v))
        return M


def taylor_exp_mp(A: np.ndarray, prec: int = 512) -> np.ndarray:
    """exp(A) by Taylor summation to convergence at ``prec`` bits."""
    with mp.workprec(prec):
        n = A.shape[0]
        M = as_mp_matrix(A, prec)
        acc = mp.eye(n)
        term = mp.eye(n)
        k = 0
        while True:
            k += 1
            term = term * M * (mp.mpf(1) / k)
            acc2 = acc + term
            if max(abs(term[i, j]) for i in range(n) for j in range(n)) < mp.mpf(2) ** (-prec - 8):
                acc = acc2
                break
            acc = acc2
        if np.iscomplexobj(A):
            return np.array([[complex(acc[i, j]) for j in range(n)] for i in range(n)])
        return np.array([[float(acc[i, j]) for j in range(n)] for i in range(n)])


def taylor_exp_scalar(z, prec: int = 256):
    with mp.workprec(prec):
        return mp.exp(mp.mpc(z) if isinstance(z, complex) else mp.mpf(z))


def forward_jac(g: ComputationGraph, points, refs, prec: int | None = None) -> np.ndarray:
    """Forward-mode Jacobian of a single-output graph at points, one tangent sweep per column.

    Oracle for the adjoint ``matgraph.eval_jac``, sharing none of its
    arithmetic: each point is lifted to an ``mpc`` at ``prec`` bits (the
    graph's precision by default; Python ``complex`` for a binary64 graph),
    the node values are formed by a scalar loop over the topological order,
    and the column of a coefficient is seeded at its node with the parent
    value the slot multiplies and pushed along with the product and quotient
    rules.  Returns an N x K object array (complex128 for binary64).
    """
    refs = [CoeffRef(*r) for r in refs]
    prec = prec or g.coeff_type.prec
    out = g.outputs[0]
    order = get_topo_order(g)
    pos = {nid: i for i, nid in enumerate(order)}
    with working_precision(prec):
        lift = mp.mpc if prec else complex
        pts = [lift(z) for z in np.asarray(points, dtype=object).reshape(-1)]
        J = np.empty((len(pts), len(refs)), dtype=object if prec else np.complex128)
        for i, z in enumerate(pts):
            val = {IDENTITY_ID: lift(1), g.input_id: z}
            for nid in order:
                p1, p2 = g.parents[nid]
                v1, v2 = val[p1], val[p2]
                kind = g.operations[nid]
                if kind == OpKind.LINCOMB:
                    c1, c2 = g.coeffs[nid]
                    val[nid] = c1 * v1 + c2 * v2
                elif kind == OpKind.MULT:
                    val[nid] = v1 * v2
                else:
                    val[nid] = v2 / v1
            for col, ref in enumerate(refs):
                if ref.node not in pos:
                    J[i, col] = lift(0)  # coefficient not reachable from the output
                    continue
                deriv = {ref.node: val[g.parents[ref.node][ref.slot - 1]]}
                for nid in order[pos[ref.node] + 1:]:
                    p1, p2 = g.parents[nid]
                    d1, d2 = deriv.get(p1, 0), deriv.get(p2, 0)
                    kind = g.operations[nid]
                    if kind == OpKind.LINCOMB:
                        c1, c2 = g.coeffs[nid]
                        deriv[nid] = c1 * d1 + c2 * d2
                    elif kind == OpKind.MULT:
                        deriv[nid] = d1 * val[p2] + val[p1] * d2
                    else:  # v = p1 \ p2, so dv = p1 \ (d2 - d1 v)
                        deriv[nid] = (d2 - d1 * val[nid]) / val[p1]
                J[i, col] = lift(deriv.get(out, 0))
    return J


def finite_diff_jac(g: ComputationGraph, points, refs, h=1e-7) -> JacobianMatrix:
    """Central-difference Jacobian, the independent check for :func:`eval_jac`."""
    if h <= 0:
        raise ValueError("step size must be positive")
    refs = [CoeffRef(*r) for r in refs]
    pts = as_point_array(points)
    base = g.get_coeffs(refs)
    extended = g.coeff_type.prec is not None or pts.dtype == object
    J = np.empty((len(pts), len(refs)), dtype=object if extended else np.complex128)
    with _precision_context(g):
        for col, ref in enumerate(refs):
            c0 = base[col]
            g.set_coeffs([ref], [c0 + h])
            up = eval_graph(g, pts)
            g.set_coeffs([ref], [c0 - h])
            dn = eval_graph(g, pts)
            g.set_coeffs([ref], [c0])
            J[:, col] = (up - dn) / (2 * h)
        pts = _argument(g, pts)
        return JacobianMatrix(J, pts.numbers() if isinstance(pts, FixedVector) else pts, refs)


def gram_eig_lstsq(J, b, droptol, hermitian: bool):
    """Truncated least squares through ``mp.eigsy``/``mp.eighe`` of G = J^H J.

    Oracle for ``matgraph.numerics.truncated_lstsq``: ``J`` is a list of rows,
    G and J^H b are formed with ``mp.fdot``, and each kept eigenpair
    (E_j > 0 and E_j > droptol^2 max|E|) is projected out explicitly.
    Returns ``(delta, kept, E)``.
    """
    N, K = len(J), len(J[0])
    G = mp.matrix(K, K)
    w = [mp.mpf(0)] * K
    for a in range(K):
        cola = [J[i][a] for i in range(N)]
        for c in range(a, K):
            s = mp.fdot(cola, (J[i][c] for i in range(N)), conjugate=hermitian)
            G[c, a] = s  # fdot conjugates its second argument, so s = (J^H J)[c, a]
            G[a, c] = mp.conj(s) if hermitian else s
        w[a] = mp.fdot(b, cola, conjugate=hermitian)
    E, Q = mp.eighe(G) if hermitian else mp.eigsy(G)
    emax = max((abs(E[j]) for j in range(K)), default=mp.mpf(0))
    drop2 = (mp.mpf(droptol) ** 2) * emax
    delta = [mp.mpf(0)] * K
    kept = 0
    for j in range(K):
        if emax == 0 or E[j] <= 0 or E[j] <= drop2:
            continue
        kept += 1
        proj = mp.fdot(w, (Q[t, j] for t in range(K)), conjugate=hermitian) / E[j]
        for t in range(K):
            delta[t] = delta[t] + Q[t, j] * proj
    return delta, kept, [E[j] for j in range(K)]


def pairwise_normal_equations(cols, b):
    """``(A^T A, A^T b)`` with each entry's exact dot product summed pair by pair.

    Oracle for ``matgraph.numerics._normal_equations``: every ``mpf`` is read
    as its own exact ``(man, exp)``, each product formed exactly and the
    products summed at the lowest exponent among them, then rounded once.
    """
    def exact(x):
        sign, man, exp, _ = x._mpf_
        return -man if sign else man, exp

    def dot(x, y):
        terms = [(p * q, ep + eq) for (p, ep), (q, eq) in zip(map(exact, x), map(exact, y))
                 if p and q]
        low = min((t for _, t in terms), default=0)
        man = sum(m << (t - low) for m, t in terms)
        return mp.make_mpf(libmp.from_man_exp(man, low, mp.prec, libmp.round_nearest))

    return [[dot(a, c) for c in cols] for a in cols], [dot(a, b) for a in cols]


def random_graph(rng: np.random.Generator, n_nodes: int = 8, allow_ldiv: bool = True,
                 coeff_type: CoeffType = CoeffType()) -> ComputationGraph:
    """Random DAG whose evaluation stays tame for |z| <= 1.

    Node value magnitudes are tracked so linear combinations are rescaled
    before they can blow up and solve denominators stay bounded away from
    zero on the closed unit disk.
    """
    g = ComputationGraph(coeff_type)
    avail = ["I", "A"]
    bound = {"I": 1.0, "A": 1.0}
    for i in range(n_nodes):
        nid = f"N{i}"
        kinds = ["lincomb", "mult"] + (["ldiv"] if allow_ldiv else [])
        kind = kinds[rng.integers(len(kinds))]
        p1 = avail[rng.integers(len(avail))]
        p2 = avail[rng.integers(len(avail))]
        if kind == "lincomb":
            c1, c2 = rng.uniform(-1, 1, 2)
            b = abs(c1) * bound[p1] + abs(c2) * bound[p2]
            if b > 4.0:
                c1, c2 = c1 * 2 / b, c2 * 2 / b
                b = 2.0
            g.add_lincomb(nid, c1, p1, c2, p2)
            bound[nid] = max(b, 1e-2)
        elif kind == "mult":
            g.add_mult(nid, p1, p2)
            b = bound[p1] * bound[p2]
            if b > 8.0:
                g.del_node(nid)
                c = 2.0 / b
                g.add_lincomb(nid + "s", c, p1, 0.0, "I")
                g.add_mult(nid, nid + "s", p2)
                b = 2.0
            bound[nid] = b
        else:
            # denominator 2 + small*p1 keeps the solve well conditioned
            den = f"{nid}d"
            small = float(rng.uniform(-0.5, 0.5)) / (1.0 + bound[p1])
            g.add_lincomb(den, 2.0, "I", small, p1)
            g.add_ldiv(nid, den, p2)
            bound[nid] = bound[p2] / 1.5
        avail.append(nid)
    g.set_outputs([avail[-1]])
    return g


def _children_of(g: ComputationGraph) -> dict[str, list[str]]:
    ch: dict[str, list[str]] = {}
    for nid, (p1, p2) in g.parents.items():
        ch.setdefault(p1, []).append(nid)
        if p2 != p1:
            ch.setdefault(p2, []).append(nid)
    return ch


def _is_input(g: ComputationGraph, nid: str) -> bool:
    return nid in g.input_ids and nid not in g.operations


def compress_graph_fixpoint(g: ComputationGraph):
    """Reference ``compress_graph``: finds dead nodes by removing sinks until none is left.

    The package finds them as the complement of one walk from the outputs.
    """
    one = convert_scalar(1, g.coeff_type)
    zero = convert_scalar(0, g.coeff_type)
    changed = True
    while changed:
        changed = False
        # dangling: non-output nodes without children
        while True:
            ch = _children_of(g)
            dead = [n for n in sorted(g.operations) if not ch.get(n) and n not in g.outputs]
            if not dead:
                break
            for n in dead:
                _drop(g, n)
            changed = True
        # trivial: identity operand of mult/ldiv
        for nid in sorted(g.operations):
            op = g.operations[nid]
            p1, p2 = g.parents[nid]
            alias = None
            if op == OpKind.MULT and _is_input(g, p1) and p1 == IDENTITY_ID:
                alias = p2
            elif op == OpKind.MULT and _is_input(g, p2) and p2 == IDENTITY_ID:
                alias = p1
            elif op == OpKind.LDIV and _is_input(g, p1) and p1 == IDENTITY_ID:
                alias = p2
            if alias is not None and nid not in g.outputs:
                _retarget(g, nid, alias)
                _drop(g, nid)
                changed = True
        # redundant: structurally identical nodes
        seen: dict[tuple, str] = {}
        for nid in sorted(g.operations):
            key = (g.operations[nid], g.parents[nid], g.coeffs.get(nid))
            survivor = seen.get(key)
            if survivor is None:
                seen[key] = nid
            elif nid not in g.outputs:
                _retarget(g, nid, survivor)
                _drop(g, nid)
                changed = True
        # pass-through: unit/zero coefficient pairs
        for nid in sorted(g.operations):
            if g.operations.get(nid) != OpKind.LINCOMB or nid in g.outputs:
                continue
            c1, c2 = g.coeffs[nid]
            p1, p2 = g.parents[nid]
            alias = None
            if c1 == one and c2 == zero:
                alias = p1
            elif c1 == zero and c2 == one:
                alias = p2
            if alias is not None:
                _retarget(g, nid, alias)
                _drop(g, nid)
                changed = True


def random_messy_graph(rng: np.random.Generator) -> ComputationGraph:
    """``random_graph`` plus what compression removes.

    Adds pass-throughs, identity products and solves, structural duplicates
    and chains no output reaches; sometimes leaves a pending graft of the
    input, and picks 1-3 outputs, repeats allowed.
    """
    ct = CoeffType(is_complex=bool(rng.integers(2)))
    g = random_graph(rng, n_nodes=int(rng.integers(2, 10)), coeff_type=ct)
    g.metadata = {"seed": str(rng.integers(1000))}
    if rng.integers(4) == 0:
        g.rename_node("A", "Ashift")
    for k in range(int(rng.integers(0, 12))):
        avail = ["I", "A", *g.operations]
        p, q = (avail[rng.integers(len(avail))] for _ in range(2))
        nid = f"X{k}"
        kind = rng.integers(6)
        if kind == 0:
            g.add_lincomb(nid, *((1.0, p, 0.0, q) if rng.integers(2) else (0.0, p, 1.0, q)))
        elif kind == 1:
            g.add_mult(nid, *(("I", p) if rng.integers(2) else (p, "I")))
        elif kind == 2:
            g.add_ldiv(nid, "I", p)
        elif kind == 3 and g.operations:
            src = avail[rng.integers(2, len(avail))]
            if not set(g.parents[src]) & g._dangling:
                g._insert(nid, g.operations[src], *g.parents[src], *g.coeffs.get(src, ()))
        elif kind == 4:
            g.add_mult(nid, p, q)
        else:
            g.add_lincomb(nid, float(rng.uniform(-1, 1)), p, float(rng.uniform(-1, 1)), q)
    if "Ashift" in g._dangling and rng.integers(2):
        g.add_lincomb("Ashift", 1.0, "A", 0.5, "I")
    nodes = list(g.operations)
    g.set_outputs(nodes[i] for i in rng.integers(len(nodes), size=int(rng.integers(1, 4))))
    return g


def degopt_degree(d: Degopt, prec: int = 256) -> int:
    """Exact degree of the represented polynomial (mult variant only).

    The polynomial is expanded at ``prec`` bits, a binary64 ``d`` too, and
    coefficients smaller than 2^(-prec/2) in magnitude are treated as zero.
    """
    if set(d.row_ops) != {OpKind.MULT}:
        raise DegoptError("degree is defined for the polynomial (mult) variant only")
    g, _ = graph_degopt(d)
    coeffs = eval_graph_poly(g, prec=prec)
    tol = 2.0 ** (-prec // 2)
    deg = 0
    for j, c in enumerate(coeffs):
        if abs(c) > tol:
            deg = j
    return deg


def as_fraction(x) -> Fraction:
    """The exact value of an ``mpf``, float or int."""
    if isinstance(x, mp.mpf):
        _, man, exp, _ = x._mpf_
        return Fraction(man) * Fraction(2) ** exp
    return Fraction(x)


def as_integers(coeffs) -> tuple[list[int], int]:
    """``(C, e0)`` with c_j = C_j 2^e0 exactly for dyadic ``coeffs``: the radius search's reading of them."""
    cf = [as_fraction(c) for c in coeffs]
    assert all(c.denominator & (c.denominator - 1) == 0 for c in cf), "coefficients must be dyadic"
    e0 = -max(c.denominator.bit_length() - 1 for c in cf)
    return [int(c * 2 ** -e0) for c in cf], e0


def radius_exact_only(coeffs, u, prec: int):
    """The radius search of ``erroranalysis._radius``, every decision an exact Fraction Horner.

    For finite nonnegative ``coeffs``: halves from 2^-20 until sum_j c_j t^j
    <= u, doubles until it fails (saturated past 2^60), bisects at ``prec``
    bits to a relative 1e-30 and checks that theta passes and theta
    (1 + 1e-6) fails.  Returns ``(theta, bracket, saturated)``; raises
    ``CertificationError`` where the search refuses.
    """
    cf, uf = [as_fraction(c) for c in coeffs], as_fraction(u)

    def passes(t):
        acc, tf = Fraction(0), as_fraction(t)
        for c in reversed(cf):
            acc = acc * tf + c
        return acc <= uf

    if cf[0] > uf:
        raise CertificationError("bound above u at t -> 0")
    with mp.workprec(prec):
        lo = mp.mpf(2) ** -20
        while not passes(lo):
            lo /= 2
            if lo < mp.mpf(2) ** -(prec - 8):
                raise CertificationError("bound above u down to the smallest radius")
        hi = lo
        while passes(hi):
            hi *= 2
            if hi > mp.mpf(2) ** 60:
                return hi, None, True
        lo = hi / 2
        for _ in range(prec):
            mid = (lo + hi) / 2
            if passes(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= lo * mp.mpf("1e-30"):
                break
        margin = lo * (1 + mp.mpf("1e-6"))
        if not (passes(lo) and not passes(margin)):
            raise CertificationError("bracketing certificate failed to verify")
        return lo, (lo, margin), False


def yks_eval_direct(spec, x):
    """Reference evaluation of the y_ks recursion of a ``YksCoeffs`` bundle at ``x``."""
    w = x ** spec.s * sum(spec.c[j] * x ** (j + 1) for j in range(spec.s))
    left = sum(spec.d[j] * x ** (j + 1) for j in range(spec.s)) + w
    right = sum(spec.e[j] * x ** (j + 2) for j in range(spec.s - 1)) + w
    return left * right + spec.e0 * w + sum(spec.f[j] * x ** j for j in range(spec.s + 1))


# ---------------------------------------------------------------------------
# truncated series: e^-z and the logarithm at the ambient precision, the
# references the certifier's fixed-point series are checked against, and
# the plain loops, as bit-exact references


def series_exp(nterms: int) -> TruncSeries:
    """The series of e^z to z^nterms."""
    return TruncSeries([1 / mp.factorial(j) for j in range(nterms + 1)])


def series_exp_neg(n: int) -> TruncSeries:
    """The series of e^-z to z^n."""
    return TruncSeries([(-1) ** j / mp.factorial(j) for j in range(n + 1)])


def series_log(h: TruncSeries) -> TruncSeries:
    """log(h) for a constant term of exactly 1, from phi' h = h'."""
    h = h.coeffs
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


def series_mul_loop(a, b):
    """Cauchy product of two TruncSeries, testing every coefficient for zero in the loop."""
    n = min(a.nterms, b.nterms)
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs[: n + 1]):
        if ai == 0:
            continue
        for j in range(0, n + 1 - i):
            bj = b.coeffs[j]
            if bj != 0:
                out[i + j] = out[i + j] + ai * bj
    return out


def series_divide_loop(num, den):
    """num / den by the recurrence, testing every denominator coefficient in the loop."""
    n = min(num.nterms, den.nterms)
    c = [0] * (n + 1)
    c[0] = num.coeffs[0] / den.coeffs[0]
    for k in range(1, n + 1):
        s = num.coeffs[k]
        for j in range(1, k + 1):
            if den.coeffs[j] != 0:
                s = s - den.coeffs[j] * c[k - j]
        c[k] = s / den.coeffs[0]
    return c


def series_log_loop(h):
    """log of a series with constant term 1, forming j * phi_j afresh in the inner loop."""
    h = h.coeffs
    phi = [0] * len(h)
    for k in range(1, len(h)):
        s = k * h[k]
        for j in range(1, k):
            s = s - j * phi[j] * h[k - j]
        phi[k] = s / k
    return phi


# ---------------------------------------------------------------------------
# replay interpreter for emitted MATLAB sources


_ML_ASSIGN = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*(.+);$")


def min_peak_exhaustive(g: ComputationGraph) -> int:
    """Exhaustive minimum peak-buffer count over all topological orders.

    Exponential; intended as a test oracle for small graphs.
    """
    wanted = set(get_topo_order(g))
    parents = {nid: [p for p in g.parents[nid]] for nid in wanted}
    uses: dict[str, int] = {}
    for nid, ps in parents.items():
        for p in set(ps):
            if p in parents:
                uses[p] = uses.get(p, 0) + 1
    keep = set(g.outputs)
    best = [len(wanted) + 1]

    def rec(scheduled: frozenset, live: frozenset, remaining: dict, peak: int):
        if peak >= best[0]:
            return
        if len(scheduled) == len(wanted):
            best[0] = peak
            return
        for nid in wanted:
            if nid in scheduled:
                continue
            if any(p in parents and p not in scheduled for p in parents[nid]):
                continue
            new_live = set(live)
            new_live.add(nid)
            new_peak = max(peak, len(new_live))
            new_rem = dict(remaining)
            for p in set(parents[nid]):
                if p in parents:
                    new_rem[p] -= 1
                    if new_rem[p] == 0 and p not in keep:
                        new_live.discard(p)
            rec(scheduled | {nid}, frozenset(new_live), new_rem, new_peak)

    rec(frozenset(), frozenset(), uses, 0)
    return best[0]


def schedule_kary_scan(node_parents: dict[str, tuple], outputs: list[str]) -> Schedule:
    """Reference list scheduler: rescans every node after each pick, O(n^2).

    Picks ``max(sorted(ready), key=frees)``: the ready node freeing the most
    buffers, the smallest id on a tie.  Oracle for ``codegen._schedule_kary``.
    """
    remaining_uses: dict[str, int] = {}
    for nid, ps in node_parents.items():
        for p in set(ps):
            if p in node_parents:
                remaining_uses[p] = remaining_uses.get(p, 0) + 1
    ready = {nid for nid, ps in node_parents.items()
             if all(p not in node_parents for p in ps)}
    scheduled: set[str] = set()
    live: dict[str, int] = {}
    free: list[int] = []
    next_slot = 0
    order: list[str] = []
    slots: dict[str, int] = {}
    keep = set(outputs)

    def frees(nid):
        # buffers that die once nid is scheduled (a repeated parent is one buffer)
        return sum(
            1
            for p in set(node_parents[nid])
            if p in live and p not in keep and remaining_uses.get(p, 0) == 1
        )

    peak = 0
    while ready:
        nid = max(sorted(ready), key=frees)
        ready.discard(nid)
        if free:
            slot = free.pop()
        else:
            slot = next_slot
            next_slot += 1
        slots[nid] = slot
        live[nid] = slot
        scheduled.add(nid)
        order.append(nid)
        peak = max(peak, len(live))
        for p in dict.fromkeys(node_parents[nid]):
            if p in node_parents:
                remaining_uses[p] -= 1
                if remaining_uses[p] == 0 and p not in keep:
                    free.append(live.pop(p))
        for other, ps in node_parents.items():
            if other not in scheduled and other not in ready:
                if all(p not in node_parents or p in scheduled for p in ps):
                    ready.add(other)
    if len(order) != len(node_parents):
        raise GraphError("cycle detected while scheduling")
    return Schedule(order, slots, peak)


def random_kary_dag(rng: np.random.Generator, n_nodes: int,
                    max_parents: int = 4) -> tuple[dict, list[str]]:
    """Random ``(node_parents, outputs)`` for a k-ary list scheduler.

    Parents are drawn from "I", "A" and earlier nodes, 1 to ``max_parents``
    per node with repeats; ids are shuffled so that id order and insertion
    order differ, and 1 to 3 random nodes are outputs.
    """
    ids = [f"n{k}" for k in rng.permutation(n_nodes)]
    avail = ["I", "A"]
    node_parents: dict[str, tuple] = {}
    for nid in ids:
        k = int(rng.integers(1, max_parents + 1))
        node_parents[nid] = tuple(avail[int(rng.integers(len(avail)))] for _ in range(k))
        avail.append(nid)
    outputs = [ids[int(i)] for i in rng.choice(n_nodes, size=min(n_nodes, int(rng.integers(1, 4))),
                                               replace=False)]
    return node_parents, outputs


def _ml_factor(tok: str, env):
    tok = tok.strip()
    if tok in env:
        return env[tok]
    if tok.startswith("(") and tok.endswith(")"):
        return complex(tok[1:-1].replace(" ", "").replace("i", "j"))
    return float(tok)


def run_matlab_like(src: str, A: np.ndarray):
    """Execute an emitted MATLAB function on a numpy matrix.

    Supports exactly the statement shapes the generator emits.
    """
    env = {"A": A}
    out_vars = None
    for raw in src.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("function"):
            head = line[len("function"):].split("=")[0].strip()
            out_vars = [v.strip() for v in head.strip("[]").split(",")]
            continue
        if line == "end":
            break
        m = _ML_ASSIGN.match(line)
        if not m:
            raise AssertionError(f"unrecognized line {line!r}")
        target, expr = m.groups()
        expr = expr.strip()
        if expr == "size(A,1)":
            env[target] = A.shape[0]
        elif expr == "eye(n,n)":
            env[target] = np.eye(A.shape[0], dtype=A.dtype)
        elif expr.startswith("("):  # a complex literal, (a + bi) or (a - bi)
            env[target] = _ml_factor(expr, env)
        elif " \\ " in expr:
            lhs, rhs = expr.split(" \\ ")
            env[target] = np.linalg.solve(env[lhs.strip()], env[rhs.strip()])
        elif " * " in expr and "+" not in expr:
            lhs, rhs = expr.split(" * ")
            env[target] = env[lhs.strip()] @ env[rhs.strip()]
        else:
            acc = None
            for term in expr.split(" + "):
                term = term.strip()
                if "*" in term:
                    c, _, ident = term.partition("*")
                    val = _ml_factor(c, env) * env[ident.strip()]
                else:
                    val = _ml_factor(term, env)
                acc = val if acc is None else acc + val
            env[target] = acc
    assert out_vars is not None, "no function header found"
    results = [env[v] for v in out_vars]
    return results[0] if len(results) == 1 else results


def replay_cgr_scalar(text: str, x):
    """Execute a CGR file as a sequential scalar script (independent of the parser)."""
    env = {"A": x, "I": 1.0}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("graph_coeff_type"):
            continue
        target, _, expr = line.rstrip(";").partition("=")
        target, expr = target.strip(), expr.strip()
        if "*" in expr and "+" in expr:
            t1, t2 = expr.split("+", 1) if not expr.startswith("-") else expr.split("+", 1)
            c1, _, p1 = t1.partition("*")
            c2, _, p2 = t2.partition("*")
            env[target] = env[c1.strip()] * env[p1.strip()] + env[c2.strip()] * env[p2.strip()]
        elif "*" in expr:
            p1, _, p2 = expr.partition("*")
            env[target] = env[p1.strip()] * env[p2.strip()]
        elif "\\" in expr:
            p1, _, p2 = expr.partition("\\")
            env[target] = env[p2.strip()] / env[p1.strip()]
        else:
            env[target] = float(expr)
    return env


# ---------------------------------------------------------------------------
# C compile-and-run harness


_SHIMS_C = r"""
#include <stdlib.h>
#include <math.h>

void mgk_mult(int n, const double *x, const double *y, double *out) {
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            double s = 0.0;
            for (int k = 0; k < n; k++) s += x[(long) i * n + k] * y[(long) k * n + j];
            out[(long) i * n + j] = s;
        }
}

void mgk_lincomb(int n, double a, const double *x, double b, const double *y, double *out) {
    long nn = (long) n * n;
    for (long k = 0; k < nn; k++) out[k] = a * x[k] + b * y[k];
}

void mgk_copy(int n, const double *x, double *out) {
    long nn = (long) n * n;
    for (long k = 0; k < nn; k++) out[k] = x[k];
}

/* out = x \ y by Gaussian elimination with partial pivoting */
void mgk_solve(int n, const double *x, const double *y, double *out) {
    double *M = (double *) malloc(sizeof(double) * (size_t) n * n);
    mgk_copy(n, x, M);
    mgk_copy(n, y, out);
    for (int col = 0; col < n; col++) {
        int piv = col;
        for (int r = col + 1; r < n; r++)
            if (fabs(M[(long) r * n + col]) > fabs(M[(long) piv * n + col])) piv = r;
        if (piv != col) {
            for (int j = 0; j < n; j++) {
                double t = M[(long) col * n + j];
                M[(long) col * n + j] = M[(long) piv * n + j];
                M[(long) piv * n + j] = t;
                t = out[(long) col * n + j];
                out[(long) col * n + j] = out[(long) piv * n + j];
                out[(long) piv * n + j] = t;
            }
        }
        double d = M[(long) col * n + col];
        for (int r = col + 1; r < n; r++) {
            double f = M[(long) r * n + col] / d;
            for (int j = col; j < n; j++) M[(long) r * n + j] -= f * M[(long) col * n + j];
            for (int j = 0; j < n; j++) out[(long) r * n + j] -= f * out[(long) col * n + j];
        }
    }
    for (int col = n - 1; col >= 0; col--) {
        double d = M[(long) col * n + col];
        for (int j = 0; j < n; j++) {
            double s = out[(long) col * n + j];
            for (int k = col + 1; k < n; k++) s -= M[(long) col * n + k] * out[(long) k * n + j];
            out[(long) col * n + j] = s / d;
        }
    }
    free(M);
}
"""

_MAIN_C = r"""
#include <stdio.h>
#include <stdlib.h>
#include "{fn}.h"

int main(void) {{
    int n;
    if (scanf("%d", &n) != 1) return 1;
    double *A = (double *) malloc(sizeof(double) * (size_t) n * n);
    double *out = (double *) malloc(sizeof(double) * (size_t) n * n);
    for (long k = 0; k < (long) n * n; k++)
        if (scanf("%lf", &A[k]) != 1) return 1;
    {fn}(n, A, out);
    for (long k = 0; k < (long) n * n; k++) printf("%.17e\n", out[k]);
    return 0;
}}
"""


def compile_and_run_c(src: str, header: str, fn: str, A: np.ndarray) -> np.ndarray:
    """Compile emitted C against the reference shims and run it on A (row-major)."""
    n = A.shape[0]
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, f"{fn}.c"), "w") as fh:
            fh.write(src)
        with open(os.path.join(tmp, f"{fn}.h"), "w") as fh:
            fh.write(header)
        with open(os.path.join(tmp, "shims.c"), "w") as fh:
            fh.write(_SHIMS_C)
        with open(os.path.join(tmp, "main.c"), "w") as fh:
            fh.write(_MAIN_C.format(fn=fn))
        exe = os.path.join(tmp, "prog")
        subprocess.run(
            ["cc", "-O1", "-o", exe, os.path.join(tmp, "main.c"),
             os.path.join(tmp, f"{fn}.c"), os.path.join(tmp, "shims.c"), "-lm"],
            check=True, capture_output=True,
        )
        feed = f"{n}\n" + "\n".join(repr(float(v)) for v in A.reshape(-1))
        proc = subprocess.run([exe], input=feed, capture_output=True, text=True, check=True)
        vals = [float(tok) for tok in proc.stdout.split()]
    return np.array(vals).reshape(n, n)


# ---------------------------------------------------------------------------
# mpmath.matrix oracles: the dense extended-precision path through mpmath's
# own matrix operators, which the pair kernels of matgraph.numerics must
# reproduce bit for bit; mp_matmul and mp_lincomb run one kernel as an
# mpmath.matrix operation (read into pairs, run, write back)


def oracle_mp_matmul(A, B):
    """``A * B`` by ``mpmath.matrix.__mul__`` (``mp.fdot`` per entry)."""
    return A * B


def oracle_mp_lincomb(c1, A, c2, B):
    """``A * c1 + B * c2`` by mpmath's scalar product and matrix sum."""
    return A * c1 + B * c2


def mp_matmul(A, B):
    """``A * B`` for ``mpmath.matrix`` operands, bit-identical to mpmath's."""
    a, b = PairMatrix.read(A), PairMatrix.read(B)
    return A * B if a is None or b is None else (a * b).matrix()


def mp_lincomb(c1, A, c2, B):
    """``A * c1 + B * c2`` for ``mpmath.matrix`` operands, bit-identical to mpmath's; the
    coefficients are read as they are, never rounded first, as ``mpf`` operators read them."""
    a, b = PairMatrix.read(A, (c1, c2)), PairMatrix.read(B)
    return A * c1 + B * c2 if a is None or b is None else PairMatrix.lincomb(c1, a, c2, b).matrix()


def oracle_mp_lu_solve(A, B):
    """mpmath's ``LU_decomp``, ``L_solve`` and ``U_solve`` at ``mp.prec + 10``, factoring once.

    Raises what mpmath raises: ``ZeroDivisionError`` on a numerically
    singular A.
    """
    cols = [mp.matrix([B[i, j] for i in range(B.rows)]) for j in range(B.cols)]
    with mp.workprec(mp.prec + 10):
        LU, perm = mp.LU_decomp(A.copy(), overwrite=True)
        sols = [mp.U_solve(LU, mp.L_solve(LU, col, perm)) for col in cols]
    return mp.matrix([[sol[i] for sol in sols] for i in range(A.rows)])


def oracle_eval_mp_matrix(g: ComputationGraph, A, prec: int | None = None):
    """``eval_graph(g, A, prec=prec)`` on an ``mpmath.matrix`` through the oracles above."""
    with _precision_context(g, prec):
        slots = {IDENTITY_ID: mp.eye(A.rows), g.input_id: A}
        for nid in get_topo_order(g):
            v1, v2 = (slots[p] for p in g.parents[nid])
            kind = g.operations[nid]
            if kind == OpKind.LINCOMB:
                c1, c2 = g.coeffs[nid]
                slots[nid] = oracle_mp_lincomb(c1, v1, c2, v2)
            elif kind == OpKind.MULT:
                slots[nid] = oracle_mp_matmul(v1, v2)
            else:
                slots[nid] = oracle_mp_lu_solve(v1, v2)
    outs = [slots[o] for o in g.outputs]
    return outs[0] if len(outs) == 1 else outs


def mp_bits(M):
    """The shape and stored entries of an ``mpmath.matrix``: ``(i, j)`` -> ``(type, raw value)``.

    mpmath stores only nonzero entries and reads a missing one as ``mp.zero``,
    so this tells apart a stored zero and a missing entry as well.
    """
    return M.rows, M.cols, {k: (type(x).__name__, x._mpc_ if hasattr(x, "_mpc_") else x._mpf_)
                            for k, x in M._matrix__data.items()}


def mp_eval_inputs(seed: int):
    """``(A, B)``, the 16 x 16 256-bit matrices of the benchmark's ``mp-eval`` workload.

    A = Q diag(lam) Q, with Q the Householder reflector of a seeded Gaussian
    v and lam seeded uniform on [1/4, 4]; B a seeded Gaussian matrix scaled
    to unit 1-norm.
    """
    rng = np.random.default_rng(seed)
    n = 16
    with mp.workprec(256):
        v = mp.matrix(rng.standard_normal(n).tolist())
        Q = mp.eye(n) - v * v.T * (2 / (v.T * v)[0])
        lam = [mp.mpf(x) for x in rng.uniform(0.25, 4.0, n)]
        A = Q * mp.diag(lam) * Q
        B = mp.matrix(rng.standard_normal((n, n)).tolist())
        B = B / mp.mnorm(B, 1)
    return A, B


def mp_digest(*matrices) -> str:
    """sha256 of the raw ``_mpf_`` tuples of every entry, row by row, of real ``mpmath.matrix``."""
    return hashlib.sha256(repr([[M[i, j]._mpf_ for i in range(M.rows) for j in range(M.cols)]
                                for M in matrices]).encode()).hexdigest()
