"""Evaluate the function underlying a graph.

One function, :func:`_argument`, reads every argument (exactly, at extended
precision), picks its route and refuses what no route takes.  The kinds:

* numbers (Python, numpy, ``Fraction`` or mpmath; a numpy bool is 0 or 1):
  the three node operations act as scalar +, *, and /;
* 1-d numpy arrays: N independent scalar evaluations in one pass.  An
  extended-precision graph runs one of finite values, at finite coefficients,
  on the integers of a :class:`~matgraph.numerics.FixedVector`, any other
  point by point on mpmath numbers, and returns mpmath numbers; a binary64
  graph reads each entry of an object one as that scalar;
* 2-d numpy arrays: dense matrices, the linear solve done by LU with
  partial pivoting.  An extended-precision graph runs one, an empty one
  too, as the ``mpmath.matrix`` of its entries, each read as a scalar, and
  returns an object array, and so does a binary64 graph an object one;
* ``mpmath.matrix``: extended-precision dense matrices, by one of two
  routes.  A real one of finite entries, in a graph whose coefficients are
  all finite reals, is read once into a
  :class:`~matgraph.numerics.PairMatrix` (rows of integer mantissa and
  exponent pairs); every node runs on pairs, and each output is written
  back once as an ``mpmath.matrix``.  Any other runs on mpmath's own
  matrix operators, its solves through ``mat_lu_solve``.  Both give
  mpmath's results bit for bit, except that a solve whose coefficient
  matrix has a NaN entry gives NaN entries, and one with an infinite entry
  raises ``SingularMatrixError`` naming it;
* :class:`~matgraph.series.TruncSeries`: truncated-series semantics, the
  route by which a graph's series expansion is extracted (a linear solve
  becomes series division and needs a nonzero denominator constant term);
* :class:`~matgraph.series.FixedSeries`: the same on fixed-point integers
  with a carried error radius per coefficient, the certifier's kind.

numpy arrays are those of a bool, integer, float, complex or object dtype,
an object one holding numbers only.  Any other argument, an array of
another rank and a non-square matrix raise :class:`EvalError`, with one
message at every precision.

The identity input ``"I"`` binds to the multiplicative identity of the
matching kind.
"""

from __future__ import annotations

import numbers
import operator
from typing import Callable, NamedTuple

import mpmath
import numpy as np
from mpmath import mp

from .graph import ComputationGraph, GraphError, OpKind, convert_precision, get_topo_order
from .numerics import (
    CoeffType,
    FixedVector,
    PairMatrix,
    SingularMatrixError,
    _is_complex,
    _raw,
    convert_scalar,
    is_scalar,
    lincomb_fixed,
    mat_lu_solve,
    working_precision,
)
from .series import FixedSeries, TruncSeries


class EvalError(ArithmeticError):
    pass


def _precision_context(g: ComputationGraph, prec: int | None = None):
    """Precision to evaluate under: ``prec`` if given, else the graph's own."""
    return working_precision(g.coeff_type.prec if prec is None else prec)


def lincomb(c1, v1, c2, v2):
    """``c1*v1 + c2*v2`` for the argument kinds with no fused form of their own.

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


def _points_full(x, v):
    """``v`` at each of the points ``x``; at mpmath points an ``mpf``, or an ``mpc`` if one is."""
    if x.dtype == object:
        kind = mp.mpc if any(isinstance(z, mpmath.mpc) for z in x) else mp.mpf
        return np.array([kind(v)] * len(x), dtype=object)
    return np.full(len(x), v, dtype=x.dtype)


def _points_ldiv(v1, v2):
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
_POINTS = _Ops(lambda x: _points_full(x, 1), operator.mul, _points_ldiv)
_FIXED = _Ops(lambda x: FixedVector.constant(x, 1), operator.mul,
              lambda v1, v2: v2 / v1, lincomb_fixed)
_NP_MATRIX = _Ops(lambda x: np.eye(x.shape[0], dtype=x.dtype), operator.matmul, _matrix_ldiv)
_MP_MATRIX = _Ops(lambda x: mp.eye(x.rows), operator.mul, _matrix_ldiv)
_PAIRS = _Ops(lambda x: PairMatrix.read(mp.eye(x.rows)), operator.mul, _matrix_ldiv,
               PairMatrix.lincomb)
_SERIES = _Ops(lambda x: TruncSeries.constant(1, x.nterms), operator.mul,
               lambda v1, v2: v2.divide(v1))
_FIXED_SERIES = _Ops(lambda x: FixedSeries.constant(1, x.nterms, x.frac), operator.mul,
                     lambda v1, v2: v2.divide(v1), FixedSeries.lincomb)


def _argument(g: ComputationGraph, x):
    """``(x, ops)``: ``x`` in the arithmetic of ``g``, and the :class:`_Ops` it runs on.

    The one reader of an argument: every type and dtype test that picks a
    route or refuses one is here (see the module docstring).  Only finite
    numbers, at finite coefficients, enter the integer kinds.  An
    extended-precision graph reads each number by its exact value
    (:func:`~matgraph.numerics._raw`) as an mpmath number.  A binary64
    graph reads an ``int`` or ``Fraction`` by ``convert_scalar``, numpy
    numbers and arrays, bools too, as ``np.result_type(dtype, float64)``, and
    each entry of an object array as that scalar, so that none runs in exact
    or narrow arithmetic.  A 2-d array it runs as an ``mpmath.matrix`` is
    read entry by entry the same way.
    """
    extended = g.coeff_type.prec is not None
    coeffs = (c for cs in g.coeffs.values() for c in cs)
    if isinstance(x, (np.ndarray, np.bool_)) and x.dtype.kind == "b":
        x = x.astype(np.float64)  # np.result_type(bool, float64): 0 and 1
    if isinstance(x, np.ndarray):
        if x.ndim not in (1, 2):
            raise EvalError(f"unsupported array rank {x.ndim}")
        if x.dtype.kind not in "iufcO":
            raise EvalError(f"cannot evaluate a graph at an array of dtype {x.dtype}")
        for v in x.flat if x.dtype == object else ():
            if not is_scalar(v):
                raise EvalError(f"cannot evaluate a graph at an array holding a {type(v).__name__}")
        if x.ndim == 2 and x.shape[0] != x.shape[1]:
            raise EvalError("matrix argument must be square")
        if x.ndim == 2 and (extended or x.dtype == object):
            x = (mp.matrix([[_argument(g, v)[0] for v in row] for row in x.tolist()]) if x.size
                 else mp.matrix(*x.shape))  # mpmath has no empty literal
    if isinstance(x, mpmath.matrix):
        if x.rows != x.cols:
            raise EvalError("matrix argument must be square")
        pairs = PairMatrix.read(x, coeffs)
        return (x, _MP_MATRIX) if pairs is None else (pairs, _PAIRS)
    if isinstance(x, FixedVector):  # read already: it stays one while the coefficients are finite
        return (x, _FIXED) if all(map(mp.isfinite, coeffs)) else (x.numbers(), _POINTS)
    if isinstance(x, (TruncSeries, FixedSeries)):
        return x, _SERIES if isinstance(x, TruncSeries) else _FIXED_SERIES
    if not (isinstance(x, np.ndarray) or is_scalar(x)):
        raise EvalError(f"cannot evaluate a graph at a {type(x).__name__}")
    if not extended:
        if isinstance(x, (np.ndarray, np.number)) and x.dtype != object:
            x = x.astype(np.result_type(x.dtype, np.float64), copy=False)
        elif isinstance(x, np.ndarray):  # 1-d, of objects: numpy infers the kind of the entries read
            x = np.array([_argument(g, v)[0] for v in x.tolist()])
        elif isinstance(x, numbers.Rational):
            x = convert_scalar(x, g.coeff_type)
        return x, _SCALAR if is_scalar(x) else _POINTS if x.ndim == 1 else _NP_MATRIX
    if is_scalar(x):
        re, im = _raw(x, mp.prec)
        return mp.make_mpf(re) if isinstance(x, numbers.Real) else mp.make_mpc((re, im)), _SCALAR
    if all(map(mp.isfinite, coeffs)) and (vector := FixedVector.read(x)) is not None:
        return vector, _FIXED
    make = mp.make_mpc if any(map(_is_complex, x)) else lambda p: mp.make_mpf(p[0])
    return np.array([make(_raw(v, mp.prec)) for v in x], dtype=object), _POINTS


def _eval_nodes(g, x, order, keep_all=False):
    """Run the forward pass, returning the slot map.

    The map holds ``x`` under ``g.input_id``, the identity under ``"I"``,
    every output, and, with ``keep_all``, every node of ``order``.  Without
    ``keep_all``, other slots are freed after their last use; results are
    unaffected.  ``x`` is read in the graph's arithmetic (:func:`_argument`).
    """
    x, ops = _argument(g, x)
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
        if kind == OpKind.LINCOMB:
            c1, c2 = g.coeffs[nid]
            slots[nid] = ops.lincomb(c1, v1, c2, v2)
        elif kind == OpKind.MULT:
            slots[nid] = ops.mult(v1, v2)
        else:
            slots[nid] = ops.ldiv(v1, v2)
        if not keep_all:
            for p in (p1, p2):
                if last_use.get(p) == idx and p not in needed:
                    slots.pop(p, None)
    return slots


def eval_graph(g: ComputationGraph, x, prec: int | None = None):
    """Evaluate the graph at ``x``; returns one value per output node.

    ``x`` binds to the graph's input id, ``g.input_id``.  A single output
    is returned bare, several as a list; an ndarray gives ndarrays.  A
    binary64 graph runs a series under an explicit ``prec`` as its
    extended-precision copy (its coefficients read exactly) does.
    """
    if not g.outputs:
        raise GraphError("graph has no output nodes")
    if prec is not None and g.coeff_type.prec is None and isinstance(x, TruncSeries):
        g = convert_precision(g, CoeffType(max(prec, 53), g.coeff_type.is_complex))
    with _precision_context(g, prec):
        slots = _eval_nodes(g, x, get_topo_order(g))
        missing = [o for o in g.outputs if o not in slots]
        if missing:
            raise GraphError(f"output {missing[0]!r} was not computed")
        results = [slots[o].matrix() if isinstance(slots[o], PairMatrix) else slots[o]
                   for o in g.outputs]
        if isinstance(x, (np.ndarray, FixedVector)):  # an extended-precision graph read it
            results = [r.numbers() if isinstance(r, FixedVector) else
                       np.array(r.tolist(), dtype=object).reshape(r.rows, r.cols)
                       if isinstance(r, mpmath.matrix) else r for r in results]
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
    Each coefficient, zeros too, is of the graph's kind at that precision.
    Graphs containing a linear solve are rejected.
    """
    if len(g.outputs) != 1:
        raise GraphError("polynomial extraction expects a single output")
    with _precision_context(g, prec):
        n = max(graph_degree_bound(g), 1)
        coeffs = list(eval_graph(g, TruncSeries.identity(n), prec).coeffs)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    ct = CoeffType(g.coeff_type.prec if prec is None else max(prec, 53), g.coeff_type.is_complex)
    return [convert_scalar(c, ct) for c in coeffs]
