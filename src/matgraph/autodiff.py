"""Jacobian of a graph's scalar evaluation with respect to selected coefficients.

Derivatives are propagated forward: the column for a coefficient is seeded
at its owning linear-combination node with the value of the parent the
slot multiplies, then pushed along the topological order with the product
and quotient rules.  Nodes not downstream of the seed carry an implicit
zero, and all evaluation points are processed in one vectorized pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .evaluation import _eval_nodes, _ops_for, _precision_context, lincomb
from .graph import CoeffRef, ComputationGraph, GraphError, OpKind, get_topo_order


@dataclass
class JacobianMatrix:
    """N x K matrix of derivatives d g(z_i) / d c_k."""

    entries: np.ndarray
    points: np.ndarray
    refs: list[CoeffRef]

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


def eval_jac(g: ComputationGraph, points, refs, input: str | None = None,
             prec: int | None = None) -> JacobianMatrix:
    """Forward-mode Jacobian over all points at once.

    Requires a single-output graph; an evaluation singularity at some
    point aborts with an error naming the point.
    """
    if len(g.outputs) != 1:
        raise GraphError("Jacobian needs a single-output graph")
    refs = [CoeffRef(*r) for r in refs]
    for ref in refs:
        g._check_ref(ref)
    input_id = input if input is not None else g.input_id
    pts = as_point_array(points)
    out = g.outputs[0]
    with _precision_context(g, prec):
        order = get_topo_order(g)
        pos = {nid: i for i, nid in enumerate(order)}
        ops = _ops_for(pts)
        slots = _eval_nodes(g, pts, input_id, order, keep_all=True)
        J = np.empty((len(pts), len(refs)), dtype=object if pts.dtype == object else np.complex128)
        zero = _zeros_like_points(pts)
        for col, ref in enumerate(refs):
            if ref.node not in pos:
                J[:, col] = zero  # coefficient not reachable from the output
                continue
            # d/dc of c1*v1 + c2*v2 is the parent value the slot multiplies
            deriv = {ref.node: slots[g.parents[ref.node][ref.slot - 1]]}
            for nid in order[pos[ref.node] + 1:]:
                p1, p2 = g.parents[nid]
                d1, d2 = deriv.get(p1, zero), deriv.get(p2, zero)
                if d1 is zero and d2 is zero:
                    continue
                kind = g.operations[nid]
                if kind == OpKind.LINCOMB:
                    c1, c2 = g.coeffs[nid]
                    deriv[nid] = lincomb(c1, d1, c2, d2)
                elif kind == OpKind.MULT:
                    deriv[nid] = ops.mult(d1, slots[p2]) + ops.mult(slots[p1], d2)
                else:  # v = p1 \ p2, so dv = p1 \ (d2 - d1 v)
                    deriv[nid] = ops.ldiv(slots[p1], d2 - ops.mult(d1, slots[nid]))
            J[:, col] = deriv.get(out, zero)
    return JacobianMatrix(J, pts, refs)


def finite_diff_jac(g: ComputationGraph, points, refs, h=1e-7,
                    complex_step: bool = False, input: str | None = None,
                    prec: int | None = None) -> JacobianMatrix:
    """Difference-quotient Jacobian, the independent check for :func:`eval_jac`.

    Central differences by default; ``complex_step`` instead perturbs each
    coefficient along the imaginary axis (the dependence on a coefficient
    is polynomial, hence analytic, so the complex derivative matches).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    refs = [CoeffRef(*r) for r in refs]
    pts = as_point_array(points)
    from .evaluation import eval_graph
    from .graph import convert_precision

    work = g
    if complex_step and not g.coeff_type.is_complex:
        work = convert_precision(g, g.coeff_type.complexified())
    base = work.get_coeffs(refs)
    N, K = len(pts), len(refs)
    J = np.empty((N, K), dtype=object if pts.dtype == object else np.complex128)
    with _precision_context(work, prec):
        if complex_step:
            step = mp.mpc(0, h) if work.coeff_type.prec else complex(0, h)
        else:
            step = h
        for col, ref in enumerate(refs):
            c0 = base[col]
            work.set_coeffs([ref], [c0 + step])
            up = eval_graph(work, pts, input=input)
            work.set_coeffs([ref], [c0 - step])
            dn = eval_graph(work, pts, input=input)
            work.set_coeffs([ref], [c0])
            J[:, col] = (up - dn) / (2 * step)
    return JacobianMatrix(J, pts, refs)
