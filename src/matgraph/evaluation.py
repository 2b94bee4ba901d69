"""Evaluate the function underlying a graph.

Supported argument kinds, selected by the type of ``x``:

* scalars (``float``/``complex``/``mpf``/``mpc``): the three node
  operations act as scalar +, *, and /;
* 1-d numpy arrays: N independent scalar evaluations in one pass
  (object-dtype arrays carry extended-precision scalars);
* 2-d numpy arrays: dense matrices (object-dtype arrays carry
  extended-precision scalars), with the linear solve done by LU with
  partial pivoting;
* ``mpmath.matrix``: extended-precision dense matrices;
* :class:`~matgraph.series.TruncSeries`: truncated-series semantics, the
  route by which a graph's series expansion is extracted (a linear solve
  becomes series division and needs a nonzero denominator constant term).

The identity input ``"I"`` binds to the multiplicative identity of the
matching kind.
"""

from __future__ import annotations

import numbers
import operator
from typing import Callable, NamedTuple

import mpmath
import numpy as np
from mpmath import libmp, mp

from .graph import ComputationGraph, GraphError, OpKind, get_topo_order
from .numerics import (
    SingularMatrixError,
    is_mp_matrix,
    is_scalar,
    mat_lu_solve,
    mp_lincomb,
    mp_matmul,
    working_precision,
)
from .series import TruncSeries


class EvalError(ArithmeticError):
    pass


def _precision_context(g: ComputationGraph, prec: int | None = None):
    """Precision to evaluate under: ``prec`` if given, else the graph's own."""
    return working_precision(g.coeff_type.prec if prec is None else prec)


def _exact_mp(x):
    """A binary64 argument (scalar or ndarray) as mpmath numbers of the same value.

    Any other argument is returned as it is.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind in "fc":
        return np.array([_exact_mp(v) for v in x.ravel().tolist()], dtype=object).reshape(x.shape)
    if isinstance(x, complex):
        return mp.make_mpc((libmp.from_float(x.real), libmp.from_float(x.imag)))
    if isinstance(x, float):
        return mp.make_mpf(libmp.from_float(x))
    if isinstance(x, int):
        return mp.make_mpf(libmp.from_int(x))
    return x


def lincomb(c1, v1, c2, v2):
    """``c1*v1 + c2*v2`` for every argument kind but ``mpmath.matrix``.

    The coefficients go on the right: each kind scales by a scalar from
    the right, and an ``mpf`` on the left of an object array first tries
    (and fails, expensively) to convert the whole array.  Correctly rounded
    scalar products commute, so the order does not change any result.
    """
    return v1 * c1 + v2 * c2


class _Ops(NamedTuple):
    """Identity, product, left-division ``v1 \\ v2`` and ``lincomb`` for one argument kind."""

    identity: Callable
    mult: Callable
    ldiv: Callable
    lincomb: Callable = lincomb


def _scalar_ldiv(v1, v2):
    if v1 == 0:
        raise SingularMatrixError("scalar left-division by zero")
    return v2 / v1


def _points_identity(x):
    if x.dtype == object:
        return np.array([mp.mpf(1)] * len(x), dtype=object)
    return np.ones(len(x), dtype=x.dtype)


def _points_ldiv(v1, v2):
    if v1.dtype == object:
        out = np.empty(len(v1), dtype=object)
        for i in range(len(v1)):
            if v1[i] == 0:
                raise SingularMatrixError(f"left-division by zero at point index {i}")
            out[i] = v2[i] / v1[i]
        return out
    zero = np.flatnonzero(v1 == 0)
    if zero.size:
        raise SingularMatrixError(f"left-division by zero at point index {int(zero[0])}")
    return v2 / v1


def _matrix_ldiv(v1, v2):
    return mat_lu_solve(v1, v2)


# Entries look module attributes up at call time (``mat_lu_solve``,
# ``TruncSeries.__mul__``), so a wrapper installed on them is seen.
_SCALAR = _Ops(lambda x: mp.mpf(1) if isinstance(x, (mpmath.mpf, mpmath.mpc)) else 1,
               operator.mul, _scalar_ldiv)
_POINTS = _Ops(_points_identity, operator.mul, _points_ldiv)
_NP_MATRIX = _Ops(lambda x: np.eye(x.shape[0], dtype=x.dtype), operator.matmul, _matrix_ldiv)
_MP_MATRIX = _Ops(lambda x: mp.eye(x.rows), mp_matmul, _matrix_ldiv, mp_lincomb)
_SERIES = _Ops(lambda x: TruncSeries.constant(1, x.nterms), operator.mul,
               lambda v1, v2: v2.divide(v1))


def _ops_for(x) -> _Ops:
    if is_scalar(x) or isinstance(x, numbers.Number):
        return _SCALAR
    if isinstance(x, np.ndarray):
        if x.ndim == 1:
            return _POINTS
        if x.ndim == 2:
            if x.shape[0] != x.shape[1]:
                raise EvalError("matrix argument must be square")
            return _NP_MATRIX
        raise EvalError(f"unsupported array rank {x.ndim}")
    if is_mp_matrix(x):
        if x.rows != x.cols:
            raise EvalError("matrix argument must be square")
        return _MP_MATRIX
    if isinstance(x, TruncSeries):
        return _SERIES
    raise EvalError(f"cannot evaluate a graph at a {type(x).__name__}")


def _eval_nodes(g, x, order, keep_all=False):
    """Run the forward pass, returning the slot map.

    The map holds ``x`` under ``g.input_id``, the identity under ``"I"``,
    every output, and, with ``keep_all``, every node of ``order``.  Without
    ``keep_all``, other slots are freed after their last use; results are
    unaffected.  An extended-precision graph reads a binary64 ``x`` as the
    mpmath numbers of the same value, so that no operation runs in binary64.
    """
    if g.coeff_type.prec is not None:
        x = _exact_mp(x)
    ops = _ops_for(x)
    slots = {"I": ops.identity(x), g.input_id: x}
    last_use: dict[str, int] = {}
    if not keep_all:
        for idx, nid in enumerate(order):
            for p in g.parents[nid]:
                last_use[p] = idx
    needed = set(g.outputs) | {g.input_id, "I"}
    for idx, nid in enumerate(order):
        p1, p2 = g.parents[nid]
        try:
            v1, v2 = slots[p1], slots[p2]
        except KeyError as exc:
            raise GraphError(f"unresolved parent {exc.args[0]!r} during evaluation") from None
        kind = g.operations[nid]
        try:
            if kind == OpKind.LINCOMB:
                c1, c2 = g.coeffs[nid]
                slots[nid] = ops.lincomb(c1, v1, c2, v2)
            elif kind == OpKind.MULT:
                slots[nid] = ops.mult(v1, v2)
            else:
                slots[nid] = ops.ldiv(v1, v2)
        except ZeroDivisionError as exc:
            raise SingularMatrixError(str(exc)) from exc
        if not keep_all:
            for p in (p1, p2):
                if last_use.get(p) == idx and p not in needed:
                    slots.pop(p, None)
    return slots


def eval_graph(g: ComputationGraph, x, prec: int | None = None):
    """Evaluate the graph at ``x``; returns one value per output node.

    ``x`` binds to the graph's input id, ``g.input_id``.  A single output
    is returned bare, several as a list.
    """
    if not g.outputs:
        raise GraphError("graph has no output nodes")
    with _precision_context(g, prec):
        slots = _eval_nodes(g, x, get_topo_order(g))
    missing = [o for o in g.outputs if o not in slots]
    if missing:
        raise GraphError(f"output {missing[0]!r} was not computed")
    results = [slots[o] for o in g.outputs]
    return results[0] if len(results) == 1 else results


def graph_degree_bound(g: ComputationGraph) -> int:
    """Upper bound on the polynomial degree of each output (no solves allowed)."""
    deg = {"I": 0, g.input_id: 1}
    for nid in get_topo_order(g):
        p1, p2 = g.parents[nid]
        kind = g.operations[nid]
        if kind == OpKind.LDIV:
            raise EvalError("degree bound undefined for graphs with linear solves")
        d1, d2 = deg.get(p1, 1), deg.get(p2, 1)
        deg[nid] = max(d1, d2) if kind == OpKind.LINCOMB else d1 + d2
    return max(deg.get(o, 0) for o in g.outputs) if g.outputs else 0


def eval_graph_poly(g: ComputationGraph, prec: int | None = None) -> list:
    """Monomial coefficients of the polynomial the graph evaluates.

    Exact up to arithmetic rounding at the working precision: the graph is
    run on a truncated series long enough to hold the full polynomial.
    Graphs containing a linear solve are rejected.
    """
    if len(g.outputs) != 1:
        raise GraphError("polynomial extraction expects a single output")
    with _precision_context(g, prec):
        n = max(graph_degree_bound(g), 1)
        coeffs = list(eval_graph(g, TruncSeries.identity(n), prec).coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
