"""Jacobian of a graph's scalar evaluation with respect to selected coefficients.

One reverse (adjoint) sweep gives every column: after a forward pass that
keeps all node values, the adjoint of the output (1, or a weight w_i per
point) is pulled back along the reversed topological order, so each node
ends with w_i d g / d v_node (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 3-4).  The adjoint is linear in its seed, so
seeding with w_i = 1/f(z_i) gives the Jacobian of a relative residual
without dividing every entry.  The column for a coefficient is its node's
adjoint times the parent value the slot multiplies.  All evaluation points
are processed in one vectorized pass (:func:`forward_pass`), whose output
values are returned with the Jacobian; a caller that already made that pass
hands it to :func:`eval_jac` instead of paying for it twice.
:func:`finite_diff_jac` is the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .evaluation import _eval_nodes, _ops_for, _precision_context, eval_graph
from .graph import CoeffRef, ComputationGraph, GraphError, OpKind, get_topo_order


@dataclass
class JacobianMatrix:
    """N x K matrix of derivatives d g(z_i) / d c_k (times w_i if weighted).

    ``values`` holds g(z_i) when the Jacobian came from a forward pass.
    """

    entries: np.ndarray
    points: np.ndarray
    refs: list[CoeffRef]
    values: np.ndarray | None = None

    @property
    def shape(self):
        return self.entries.shape


def as_point_array(points) -> np.ndarray:
    """1-d array of evaluation points; extended-precision scalars stay objects."""
    arr = np.asarray(points)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.dtype == object:
        return arr
    if not np.iscomplexobj(arr):
        arr = arr.astype(np.complex128)
    return arr


def _zeros_like_points(pts):
    if pts.dtype == object:
        return np.array([mp.mpf(0)] * len(pts), dtype=object)
    return np.zeros(len(pts), dtype=pts.dtype)


def forward_pass(g: ComputationGraph, points) -> dict:
    """Every node value of ``g`` at the points, keyed by node id.

    The output's entry holds g(z_i); the whole map is what one adjoint
    sweep of :func:`eval_jac` reads.  Requires a single-output graph.
    """
    if len(g.outputs) != 1:
        raise GraphError("forward pass needs a single-output graph")
    with _precision_context(g):
        return _eval_nodes(g, as_point_array(points), get_topo_order(g), keep_all=True)


def eval_jac(g: ComputationGraph, points, refs, weights=None,
             slots: dict | None = None) -> JacobianMatrix:
    """Reverse-mode Jacobian over all points at once, with the values g(z_i).

    ``weights`` (one per point) seed the output adjoint, so row i comes out
    scaled by w_i.  ``slots``, the :func:`forward_pass` of ``g`` at these
    points, spares the forward pass; the sweep consumes it.  Requires a
    single-output graph; an evaluation singularity at some point aborts
    with an error naming the point.
    """
    if len(g.outputs) != 1:
        raise GraphError("Jacobian needs a single-output graph")
    refs = [CoeffRef(*r) for r in refs]
    for ref in refs:
        g._check_ref(ref)
    pts = as_point_array(points)
    if weights is not None and np.shape(weights) != pts.shape:
        raise ValueError("need one weight per point")
    with _precision_context(g):
        order = get_topo_order(g)
        ops = _ops_for(pts)
        if slots is None:
            slots = forward_pass(g, pts)
        values = slots[g.outputs[0]]
        J = np.empty((len(pts), len(refs)), dtype=object if pts.dtype == object else np.complex128)
        J[:] = _zeros_like_points(pts)[:, None]  # columns of coefficients the output does not use
        cols: dict[str, list] = {}
        for col, ref in enumerate(refs):
            cols.setdefault(ref.node, []).append((col, ref.slot))
        # adjoints d g / d v_n, summed over every use of n (both slots of a node
        # count when p1 == p2); points are scalars, so nothing is transposed.
        # A node's adjoint and value are dropped once the sweep has passed it.
        bar = {g.outputs[0]: ops.identity(pts) if weights is None else np.asarray(weights)}
        nodes = g.operations  # the inputs need no adjoint

        def add(p, v):
            bar[p] = bar[p] + v if p in bar else v

        for nid in reversed(order):
            vbar, v = bar.pop(nid), slots.pop(nid)
            p1, p2 = g.parents[nid]
            for col, slot in cols.get(nid, ()):
                # d/dc of c1*v1 + c2*v2 is the parent value the slot multiplies
                J[:, col] = ops.mult(vbar, slots[(p1, p2)[slot - 1]])
            kind = nodes[nid]
            if kind == OpKind.LINCOMB:
                c1, c2 = g.coeffs[nid]
                if p1 in nodes:
                    add(p1, vbar * c1)
                if p2 in nodes:
                    add(p2, vbar * c2)
            elif kind == OpKind.MULT:
                if p1 in nodes:
                    add(p1, ops.mult(vbar, slots[p2]))
                if p2 in nodes:
                    add(p2, ops.mult(slots[p1], vbar))
            else:  # v = p1 \ p2: p2 gets t = p1 \ vbar, p1 gets -t v
                t = ops.ldiv(slots[p1], vbar)
                if p2 in nodes:
                    add(p2, t)
                if p1 in nodes:
                    add(p1, -ops.mult(t, v))
    return JacobianMatrix(J, pts, refs, values)


def finite_diff_jac(g: ComputationGraph, points, refs, h=1e-7) -> JacobianMatrix:
    """Central-difference Jacobian, the independent check for :func:`eval_jac`."""
    if h <= 0:
        raise ValueError("step size must be positive")
    refs = [CoeffRef(*r) for r in refs]
    pts = as_point_array(points)
    base = g.get_coeffs(refs)
    N, K = len(pts), len(refs)
    J = np.empty((N, K), dtype=object if pts.dtype == object else np.complex128)
    with _precision_context(g):
        for col, ref in enumerate(refs):
            c0 = base[col]
            g.set_coeffs([ref], [c0 + h])
            up = eval_graph(g, pts)
            g.set_coeffs([ref], [c0 - h])
            dn = eval_graph(g, pts)
            g.set_coeffs([ref], [c0])
            J[:, col] = (up - dn) / (2 * h)
    return JacobianMatrix(J, pts, refs)
