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
"""

from __future__ import annotations

import numpy as np
from mpmath import mp

from .evaluation import _argument, _eval_nodes, _points_full, _precision_context
from .graph import CoeffRef, ComputationGraph, GraphError, OpKind, get_topo_order
from .numerics import FixedVector


class JacobianMatrix:
    """N x K matrix of derivatives d g(z_i) / d c_k (times w_i if weighted).

    ``values`` holds g(z_i) when the Jacobian came from a forward pass.
    ``entries`` may be given as a list of K column
    :class:`~matgraph.numerics.FixedVector`, kept as ``columns``, and
    ``points`` and ``values`` as a ``FixedVector`` each: each is then made
    an object array of mpmath numbers, at the working precision of the
    construction, when it is first read.  Otherwise ``columns`` is None.
    """

    def __init__(self, entries, points, refs, values=None):
        self.columns = entries if isinstance(entries, list) else None
        self._entries, self._points, self.refs, self._values = entries, points, refs, values
        self._prec = mp.prec

    @property
    def entries(self):
        if self._entries is self.columns:
            self._entries = np.empty(self.shape, dtype=object)
            with mp.workprec(self._prec):
                for k, col in enumerate(self.columns):
                    self._entries[:, k] = col.numbers()
        return self._entries

    def _numbers(self, v):
        if not isinstance(v, FixedVector):
            return v
        with mp.workprec(self._prec):
            return v.numbers()

    @property
    def points(self):
        self._points = self._numbers(self._points)
        return self._points

    @property
    def values(self):
        self._values = self._numbers(self._values)
        return self._values

    @property
    def shape(self):
        if self.columns is not None:
            return len(self._points), len(self.columns)
        return self._entries.shape


def as_point_array(points) -> np.ndarray:
    """1-d array of points (a scalar is one): numbers at least complex128, other dtypes as given."""
    if isinstance(points, FixedVector):
        return points
    arr = np.asarray(points)
    if arr.ndim > 1:
        raise ValueError(f"points must be a scalar or a 1-d array, not {arr.ndim}-d")
    if arr.dtype.kind in "biufc":
        arr = arr.astype(np.result_type(arr.dtype, np.complex128), copy=False)
    return arr.reshape(-1)


def forward_pass(g: ComputationGraph, points) -> dict:
    """Every node value of ``g`` at the points, keyed by node id.

    The output's entry holds g(z_i); the whole map is what one adjoint
    sweep of :func:`eval_jac` reads.  Requires a single-output graph.
    """
    if len(g.outputs) != 1:
        raise GraphError("forward pass needs a single-output graph")
    with _precision_context(g):
        pts = as_point_array(_argument(g, as_point_array(points))[0])  # numbers widen once read
        return _eval_nodes(g, pts, get_topo_order(g), keep_all=True)


def eval_jac(g: ComputationGraph, points, refs, weights=None,
             slots: dict | None = None) -> JacobianMatrix:
    """Reverse-mode Jacobian over all points at once, with the values g(z_i).

    ``weights`` (one per point) seed the output adjoint, so row i comes out
    scaled by w_i.  ``slots``, the :func:`forward_pass` of ``g`` at these
    points, spares the forward pass, and its points are read no more; the
    sweep consumes it.  Points and finite weights are read in the graph's
    arithmetic.  Requires a single-output graph; an evaluation singularity
    at some point aborts with an error naming the point.
    """
    if len(g.outputs) != 1:
        raise GraphError("Jacobian needs a single-output graph")
    refs = [CoeffRef(*r) for r in refs]
    for ref in refs:
        g._check_ref(ref)
    with _precision_context(g):
        if slots is None:
            slots = forward_pass(g, points)
        pts, ops = _argument(g, slots[g.input_id])  # as the pass read them
        if weights is not None:
            weights = _argument(g, weights if isinstance(weights, FixedVector)
                                else np.asarray(weights))[0]
            if np.shape(weights) != pts.shape:
                raise ValueError("need one weight per point")
            if not (isinstance(weights, FixedVector) or all(map(mp.isfinite, weights))):
                raise ValueError("weights must be finite")
        fixed = isinstance(pts, FixedVector)
        if isinstance(weights, FixedVector) and not fixed:  # the points run on mpmath numbers
            weights = weights.numbers()
        values = slots[g.outputs[0]]
        J = [None] * len(refs)
        cols: dict[str, list] = {}
        for col, ref in enumerate(refs):
            cols.setdefault(ref.node, []).append((col, ref.slot))
        # adjoints d g / d v_n, summed over every use of n (both slots of a node
        # count when p1 == p2); points are scalars, so nothing is transposed.
        # A node's adjoint and value are dropped once the sweep has passed it.
        bar = {g.outputs[0]: ops.identity(pts) if weights is None else weights}
        nodes = g.operations  # the inputs need no adjoint

        def add(p, v):
            bar[p] = bar[p] + v if p in bar else v

        for nid in reversed(get_topo_order(g)):
            vbar, v = bar.pop(nid), slots.pop(nid)
            p1, p2 = g.parents[nid]
            for col, slot in cols.get(nid, ()):
                # d/dc of c1*v1 + c2*v2 is the parent value the slot multiplies
                J[col] = ops.mult(vbar, slots[(p1, p2)[slot - 1]])
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
        # columns of coefficients the output does not use are zero
        zero = FixedVector.constant(pts, 0) if fixed else _points_full(pts, 0)
        J = [zero if c is None else c for c in J]
        if fixed:
            return JacobianMatrix(J, pts, refs, values)
        entries = np.empty((len(pts), len(refs)), dtype=zero.dtype)
        for k, c in enumerate(J):
            entries[:, k] = c
        return JacobianMatrix(entries, pts, refs, values)
