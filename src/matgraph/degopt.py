"""Degree-optimal polynomial form and classical evaluation schemes.

A :class:`Degopt` captures the recursion that reaches degree 2^m with m
non-scalar products: starting from B1 = I and B2 = A, each step multiplies
two linear combinations of everything computed so far,

    B_{k+2} = (sum_j HA[k][j] * B_j) op (sum_j HB[k][j] * B_j),

and the result is p(A) = sum_j y[j] * B_j.  ``op`` is multiplication in the
polynomial variant and left division in the rational variant; mixed rows
are supported internally so that solve-based schemes embed too.

The row-k coefficient vectors use only their first k+1 entries; with the
final combination vector y of length m+2 this gives (m+2)^2 - 2 free
parameters.

Every scheme reaches this form one way: :func:`degopt_from_graph` reads the
scheme's own graph, and :func:`graph_degopt` builds the form's graph, e.g.
``graph_degopt(degopt_from_graph(graph_ps(c, ct)[0]), ct)``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .graph import IDENTITY_ID, CoeffRef, ComputationGraph, OpKind, get_topo_order
from .numerics import CoeffType, convert_scalar, is_scalar, working_precision


class DegoptError(ValueError):
    pass


def _pad_rows(rows, m):
    out = []
    for k, row in enumerate(rows, start=1):
        row = list(row)
        if len(row) > m + 1:
            raise DegoptError(f"row {k} longer than {m + 1}")
        if len(row) < k + 1:
            raise DegoptError(f"row {k} must provide at least {k + 1} entries")
        for j, v in enumerate(row):
            if j > k and v != 0:
                raise DegoptError(f"row {k} entry {j + 1} must be zero")
        out.append(row + [0] * (m + 1 - len(row)))
    return out


class Degopt:
    """Compact (HA, HB, y) container for the degree-optimal form; ``row_ops`` defaults to mult."""

    def __init__(self, HA: Sequence[Sequence], HB: Sequence[Sequence], y: Sequence,
                 row_ops: Sequence[OpKind] | None = None):
        m = len(HA)
        if m < 1:
            raise DegoptError("need at least one product row")
        if len(HB) != m:
            raise DegoptError("HA and HB must have the same number of rows")
        self.HA = _pad_rows(HA, m)
        self.HB = _pad_rows(HB, m)
        self.y = list(y)
        if len(self.y) != m + 2:
            raise DegoptError(f"y must have length {m + 2}")
        row_ops = [OpKind.MULT] * m if row_ops is None else [OpKind(o) for o in row_ops]
        if len(row_ops) != m:
            raise DegoptError("row_ops must have one entry per row")
        if any(o == OpKind.LINCOMB for o in row_ops):
            raise DegoptError("row operations must be mult or ldiv")
        self.row_ops = row_ops

    @property
    def m(self) -> int:
        return len(self.HA)

    def __eq__(self, other):
        return (
            isinstance(other, Degopt)
            and self.HA == other.HA
            and self.HB == other.HB
            and self.y == other.y
            and self.row_ops == other.row_ops
        )


def graph_degopt(d: Degopt,
                 coeff_type: CoeffType = CoeffType()) -> tuple[ComputationGraph, list[CoeffRef]]:
    """Build the graph of a degree-optimal form.

    Returns the graph together with refs for all (m+2)^2 - 2 tunable
    coefficients, ordered HA row-major, then HB row-major, then y.
    """
    g = ComputationGraph(coeff_type)
    m = d.m
    B = ["I", "A"]
    refs_a: list[CoeffRef] = []
    refs_b: list[CoeffRef] = []
    for k in range(1, m + 1):
        ra = g.add_sum(f"Ba{k}", [(d.HA[k - 1][j], B[j]) for j in range(k + 1)])
        rb = g.add_sum(f"Bb{k}", [(d.HB[k - 1][j], B[j]) for j in range(k + 1)])
        refs_a.extend(ra)
        refs_b.extend(rb)
        prod = f"B{k + 2}"
        if d.row_ops[k - 1] == OpKind.MULT:
            g.add_mult(prod, f"Ba{k}", f"Bb{k}")
        else:
            g.add_ldiv(prod, f"Ba{k}", f"Bb{k}")
        B.append(prod)
    refs_y = g.add_sum("P", [(d.y[j], B[j]) for j in range(m + 2)])
    g.set_outputs(["P"])
    return g, refs_a + refs_b + refs_y


def degopt_from_graph(g: ComputationGraph) -> Degopt:
    """Read a single-output graph as a degree-optimal form.

    Each product (mult or ldiv), in :func:`get_topo_order`, becomes one row:
    its operands written as linear combinations of I, A and the earlier
    products.  y is the output written the same way.  Coefficient products
    are formed at the graph's coefficient precision.
    """
    if len(g.outputs) != 1:
        raise DegoptError("need a graph with exactly one output")
    one = convert_scalar(1, g.coeff_type)
    zero = convert_scalar(0, g.coeff_type)
    # node -> {basis index: coefficient}; basis is I, A, then the products
    expansion = {IDENTITY_ID: {0: one}, g.input_id: {1: one}}
    HA, HB, row_ops = [], [], []

    def row(nid, n):
        return [expansion[nid].get(j, zero) for j in range(n)]

    with working_precision(g.coeff_type.prec):
        for nid in get_topo_order(g):
            p1, p2 = g.parents[nid]
            if g.operations[nid] == OpKind.LINCOMB:
                c1, c2 = g.coeffs[nid]
                e = {j: v * c1 for j, v in expansion[p1].items()}
                for j, v in expansion[p2].items():
                    e[j] = e[j] + v * c2 if j in e else v * c2
                expansion[nid] = e
            else:
                n = len(HA) + 2
                HA.append(row(p1, n))
                HB.append(row(p2, n))
                row_ops.append(g.operations[nid])
                expansion[nid] = {n: one}
    if not HA:
        raise DegoptError("graph has no product")
    return Degopt(HA, HB, row(g.outputs[0], len(HA) + 2), row_ops=row_ops)


# ---------------------------------------------------------------------------
# classical schemes as graphs


def _as_coeff_list(coeffs):
    coeffs = list(coeffs)
    if not coeffs:
        raise DegoptError("need at least one coefficient")
    if not all(is_scalar(c) for c in coeffs):
        raise DegoptError("coefficients must be scalars")
    return coeffs


def _constant_graph(c0, coeff_type):
    g = ComputationGraph(coeff_type)
    g.add_lincomb("P0", c0, "I", 0.0, "A")
    g.set_outputs(["P0"])
    return g, [CoeffRef("P0", 1)]


def graph_monomial(coeffs,
                   coeff_type: CoeffType = CoeffType()) -> tuple[ComputationGraph, list[CoeffRef]]:
    """Evaluate sum c_i x^i with explicitly computed powers.

    Powers are the nodes A2..Ad; partial sums are P2..P{d+1}, so the refs
    for the polynomial coefficients are (P2,1), (P2,2), (P3,2), ...
    """
    c = _as_coeff_list(coeffs)
    d = len(c) - 1
    if d == 0:
        return _constant_graph(c[0], coeff_type)
    g = ComputationGraph(coeff_type)
    powers = {1: "A"}
    for j in range(2, d + 1):
        pid = f"A{j}"
        g.add_mult(pid, powers[j - 1], "A")
        powers[j] = pid
    g.add_lincomb("P2", c[0], "I", c[1], "A")
    refs = [CoeffRef("P2", 1), CoeffRef("P2", 2)]
    prev = "P2"
    for j in range(2, d + 1):
        nid = f"P{j + 1}"
        g.add_lincomb(nid, 1.0, prev, c[j], powers[j])
        refs.append(CoeffRef(nid, 2))
        prev = nid
    g.set_outputs([prev])
    return g, refs


def graph_horner(coeffs,
                 coeff_type: CoeffType = CoeffType()) -> tuple[ComputationGraph, list[CoeffRef]]:
    """Evaluate sum c_i x^i by the Horner scheme."""
    c = _as_coeff_list(coeffs)
    d = len(c) - 1
    if d == 0:
        return _constant_graph(c[0], coeff_type)
    g = ComputationGraph(coeff_type)
    g.add_lincomb(f"H{d - 1}", c[d - 1], "I", c[d], "A")
    refs = [CoeffRef(f"H{d - 1}", 1), CoeffRef(f"H{d - 1}", 2)]
    prev = f"H{d - 1}"
    for j in range(d - 2, -1, -1):
        g.add_mult(f"HM{j}", prev, "A")
        g.add_lincomb(f"H{j}", c[j], "I", 1.0, f"HM{j}")
        refs.insert(0, CoeffRef(f"H{j}", 1))
        prev = f"H{j}"
    g.set_outputs([prev])
    return g, refs


def ps_block_size(degree: int) -> int:
    """Block size for Paterson-Stockmeyer evaluation of the given degree.

    ceil(sqrt(degree+1)) unless a strictly cheaper size exists, in which
    case the smallest size attaining the minimum multiplication count.
    """
    if degree < 1:
        return 1

    def cost(s):
        return (s - 1) + (degree - 1) // s

    s0 = math.isqrt(degree)
    if s0 * s0 < degree + 1:
        s0 += 1
    best = min(range(1, degree + 1), key=lambda s: (cost(s), s))
    return best if cost(best) < cost(s0) else s0


def _ps_blocks(c, s):
    """Split coefficients into blocks; the top block may reach degree s."""
    d = len(c) - 1
    K = (d - 1) // s
    blocks = []
    for k in range(K + 1):
        hi = d if k == K else k * s + s - 1
        blocks.append(c[k * s: hi + 1])
    return blocks


def graph_ps(coeffs,
             coeff_type: CoeffType = CoeffType()) -> tuple[ComputationGraph, list[CoeffRef]]:
    """Paterson-Stockmeyer evaluation of sum c_i x^i.

    Block k is accumulated through nodes B_k_1, B_k_2, ...; the outer
    Horner recursion alternates products C_k with the stride power and
    combinations P_k.
    """
    c = _as_coeff_list(coeffs)
    d = len(c) - 1
    if d == 0:
        return _constant_graph(c[0], coeff_type)
    s = ps_block_size(d)
    blocks = _ps_blocks(c, s)
    K = len(blocks) - 1
    g = ComputationGraph(coeff_type)
    max_power = s if K >= 1 else d
    powers = {1: "A"}
    for j in range(2, max_power + 1):
        g.add_mult(f"A{j}", powers[j - 1], "A")
        powers[j] = f"A{j}"
    refs: list[CoeffRef] = []
    block_tail = {}
    for k, blk in enumerate(blocks):
        nid = f"B_{k}_1"
        if len(blk) == 1:
            g.add_lincomb(nid, blk[0], "I", 0.0, "A")
            refs.append(CoeffRef(nid, 1))
        else:
            g.add_lincomb(nid, blk[0], "I", blk[1], "A")
            refs.append(CoeffRef(nid, 1))
            refs.append(CoeffRef(nid, 2))
        prev = nid
        for j in range(2, len(blk)):
            nid = f"B_{k}_{j}"
            g.add_lincomb(nid, 1.0, prev, blk[j], powers[j])
            refs.append(CoeffRef(nid, 2))
            prev = nid
        block_tail[k] = prev
    acc = block_tail[K]
    for k in range(K - 1, -1, -1):
        g.add_mult(f"C{k}", acc, powers[s])
        g.add_lincomb(f"P{k}", 1.0, f"C{k}", 1.0, block_tail[k])
        acc = f"P{k}"
    g.set_outputs([acc])
    return g, refs


def graph_monomial_degopt(coeffs, coeff_type: CoeffType = CoeffType()):
    """The monomial scheme in degree-optimal form, the optimizer's usual start.

    Below degree 2 the coefficients are padded with zeros, so the form has
    one A*A row and y = [c0, c1, 0].
    """
    c = _as_coeff_list(coeffs)
    g, _ = graph_monomial(c + [0.0] * (3 - len(c)), coeff_type)
    return graph_degopt(degopt_from_graph(g), coeff_type)


# ---------------------------------------------------------------------------
# y_ks-form conversion


class YksCoeffs:
    """Coefficient bundle of the multiplication-efficient y_ks scheme (k=1).

    With s the highest computed plain power, the scheme is

        w(x)  = x^s * (c[0] x + c[1] x^2 + ... + c[s-1] x^s)
        p(x)  = (d[0] x + ... + d[s-1] x^s + w) * (e[0] x^2 + ... + e[s-2] x^s + w)
                + e0 * w + f[0] + f[1] x + ... + f[s] x^s
    """

    def __init__(self, s: int, c, d, e, e0, f):
        if s < 2:
            raise DegoptError("the scheme needs s >= 2")
        self.s = s
        self.c = _as_coeff_list(c)
        self.d = _as_coeff_list(d)
        self.e = list(e)
        self.e0 = e0
        self.f = _as_coeff_list(f)
        if len(self.c) != s or len(self.d) != s:
            raise DegoptError(f"c and d must have length s = {s}")
        if len(self.e) != s - 1:
            raise DegoptError(f"e must have length s-1 = {s - 1}")
        if len(self.f) != s + 1:
            raise DegoptError(f"f must have length s+1 = {s + 1}")


def yks_to_degopt(spec: YksCoeffs) -> Degopt:
    """Convert a y_ks coefficient bundle to degree-optimal form."""
    s = spec.s
    HA, HB = [], []
    for k in range(1, s):
        ra = [0.0] * (k + 1)
        ra[k] = 1.0
        rb = [0.0] * (k + 1)
        rb[1] = 1.0
        HA.append(ra)
        HB.append(rb)
    # row s: w = x^s * (c[0] x + ... + c[s-1] x^s); B_{j+1} holds x^j
    ra = [0.0] * (s + 1)
    ra[s] = 1.0
    rb = [0.0] * (s + 1)
    for j in range(s):
        rb[j + 1] = spec.c[j]
    HA.append(ra)
    HB.append(rb)
    # row s+1: (d-part + w) * (e-part + w)
    ra = [0.0] * (s + 2)
    for j in range(s):
        ra[j + 1] = spec.d[j]
    ra[s + 1] = 1.0
    rb = [0.0] * (s + 2)
    for j in range(s - 1):
        rb[j + 2] = spec.e[j]
    rb[s + 1] = 1.0
    HA.append(ra)
    HB.append(rb)
    m = s + 1
    y = [0.0] * (m + 2)
    for j in range(s + 1):
        y[j] = spec.f[j]
    y[s + 1] = spec.e0
    y[s + 2] = 1.0
    return Degopt(HA, HB, y)
