"""Every argument kind through every entry point, at binary64 and at 256 bits.

One function, ``evaluation._argument``, reads each argument, picks its route
and refuses what no route takes. So a binary64 graph and its 256-bit copy
either refuse an argument with the same error and message, or return values
of the same shape that agree once rounded to binary64. The graph and the
values are chosen so that both arithmetics compute them exactly.
"""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffType,
    ComputationGraph,
    EvalError,
    bigfloat,
    convert_precision,
    eval_graph,
    eval_jac,
    graph_monomial,
    residual,
)
from matgraph.autodiff import forward_pass
from matgraph.numerics import FixedVector
from matgraph.optimizer import Discretization

SCALARS = {
    "float": 0.5, "int": 3, "bool": True, "complex": 0.5 + 1j, "Fraction": Fraction(1, 4),
    "np.float16": np.float16(0.5), "np.int8": np.int8(-3), "np.uint64": np.uint64(5),
    "np.complex64": np.complex64(0.5 + 1j), "np.bool": np.True_,
    "mpf": mp.mpf(0.25), "mpc": mp.mpc(0.5, -1),
    "Decimal": Decimal("0.5"), "str": "0.5", "None": None,
}

# eight values of each dtype, small and dyadic, so that every result is exact
DTYPES = {
    "bool": ([True, False, True, True] * 2, bool),
    "int8": ([1, -2, 3, 0, -1, 2, 1, 1], np.int8),
    "uint64": ([1, 2, 3, 0, 1, 2, 2, 1], np.uint64),
    "float16": ([0.5, -1.5, 2, 0.25, 1, -0.5, 0.75, 1], np.float16),
    "complex64": ([0.5 + 1j, -1, 2j, 0.25, 1, -0.5j, 0.75, 1 + 1j], np.complex64),
    "object-of-numbers": ([Fraction(1, 2), 3, mp.mpf(0.25), 1.5j, -1.0, np.float32(0.5),
                           Fraction(-3, 4), mp.mpc(0, 1)], object),
    "object-of-str": (["1", "2", "3", "4"] * 2, object),
    "<U": (["1", "2", "3", "4"] * 2, str),
    "datetime64": (["2020-01-0%d" % d for d in range(1, 9)], "datetime64[D]"),
    "timedelta64": (list(range(8)), "timedelta64[s]"),
}
SHAPES = {0: (), 1: (2,), 2: (2, 2), 3: (2, 2, 2)}


def _array(dtype: str, rank: int) -> np.ndarray:
    values, kind = DTYPES[dtype]
    shape = SHAPES[rank]
    out = np.empty(int(np.prod(shape)), dtype=kind)
    out[:] = values[:out.size]
    return out.reshape(shape)


ARGUMENTS = dict(SCALARS)
ARGUMENTS.update({f"{d} rank {r}": _array(d, r) for d in DTYPES for r in SHAPES})
ARGUMENTS["non-square matrix"] = np.ones((2, 3))


def _graphs():
    g, refs = graph_monomial([0.0, 1.0, 0.5])  # z + z^2/2
    return (g, convert_precision(g, bigfloat(256))), refs


def _numbers(v):
    v = v.numbers() if isinstance(v, FixedVector) else v
    return np.shape(v), [complex(x) for x in np.ravel(v)]


def _jacobian(g, refs, x):
    J = eval_jac(g, x, refs)
    return [_numbers(J.entries), _numbers(J.values), _numbers(J.points)]


ENTRY_POINTS = {
    "eval_graph": lambda g, refs, x: _numbers(eval_graph(g, x)),
    "forward_pass": lambda g, refs, x: _numbers(forward_pass(g, x)[g.outputs[0]]),
    "eval_jac": _jacobian,
    "residual": lambda g, refs, x: _numbers(residual(g, lambda z: z, Discretization(x))),
}


def _outcome(run):
    try:
        return "value", run()
    except (EvalError, ValueError) as exc:
        return type(exc).__name__, str(exc)


REFUSED = ("Decimal", "str", "None", "non-square matrix", "object-of-str", "<U", "datetime64",
           "timedelta64")


def _expected(kind: str, entry: str) -> str:
    """The outcome's status: a value, a refusal of the argument, or of points that are not 1-d."""
    rank = int(kind[-1]) if " rank " in kind else None
    if entry != "eval_graph" and (kind == "non-square matrix" or (rank or 0) >= 2):
        return "ValueError"  # as_point_array: points are a scalar or a 1-d array
    if kind.split(" rank ")[0] in REFUSED or entry == "eval_graph" and rank in (0, 3):
        return "EvalError"
    return "value"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", ARGUMENTS)
def test_both_precisions_agree_on_every_argument_kind(kind, entry):
    graphs, refs = _graphs()
    outcomes = [_outcome(lambda: ENTRY_POINTS[entry](g, refs, ARGUMENTS[kind])) for g in graphs]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == _expected(kind, entry)


@pytest.mark.parametrize("run, message", [
    (lambda g, refs: eval_graph(g, ARGUMENTS["<U rank 2"]), "an array of dtype <U1"),
    (lambda g, refs: eval_graph(g, ARGUMENTS["datetime64 rank 1"]), "an array of dtype datetime64[D]"),
    (lambda g, refs: eval_graph(g, ARGUMENTS["timedelta64 rank 2"]), "an array of dtype timedelta64[s]"),
    (lambda g, refs: eval_graph(g, ARGUMENTS["object-of-str rank 1"]), "an array holding a str"),
    (lambda g, refs: eval_jac(g, np.array([0.5, None], dtype=object), refs),
     "an array holding a NoneType"),
    (lambda g, refs: eval_jac(g, ["x"], refs), "an array of dtype <U1"),
])
def test_refusals_name_their_reason(run, message):
    graphs, refs = _graphs()
    for g in graphs:
        with pytest.raises(EvalError, match=f"^{re.escape('cannot evaluate a graph at ' + message)}$"):
            run(g, refs)


def _square(ct=CoeffType()):
    g = ComputationGraph(ct)
    g.add_mult("X", "A", "A")
    g.set_outputs(["X"])
    return g


class TestNumpyBools:
    """numpy bools are their values 0 and 1, ``np.result_type(bool, float64)``, at every precision."""

    graphs = [_square(), _square(bigfloat(256))]

    def test_all_true_matrix_squared_is_two(self):
        # binary64 ran a boolean matmul and gave True
        for g in self.graphs:
            got = eval_graph(g, np.ones((2, 2), dtype=bool))
            assert got.shape == (2, 2) and all(v == 2 and not isinstance(v, np.bool_) for v in got.flat)

    def test_points(self):
        for g, dtype in zip(self.graphs, (np.float64, object)):
            got = eval_graph(g, np.array([True, False]))
            assert got.dtype == dtype and [complex(v) for v in got] == [1, 0]

    def test_scalar_is_like_true(self):
        for g in self.graphs:
            got, want = eval_graph(g, np.True_), eval_graph(g, True)
            assert got == want == 1 and isinstance(got, type(want))


class TestPointsReadAtTheGraphsPrecision:
    """The Jacobian's values and the residual read a rational point at the graph's precision."""

    @staticmethod
    def graph():
        return graph_monomial([1.0, 1.0, 1.0], bigfloat(256))

    @staticmethod
    def bits(x):
        return type(x).__name__, x._mpf_

    def test_jacobian_values(self):
        g, refs = self.graph()
        pts = np.array([Fraction(1, 3)], dtype=object)
        with mp.workprec(53):  # the ambient precision plays no part
            got = eval_jac(g, pts, refs).values[0]
        assert self.bits(got) == self.bits(eval_graph(g, pts)[0])

    def test_residual(self):
        g, _ = self.graph()
        pts = np.array([Fraction(1, 3)], dtype=object)
        with mp.workprec(53):
            got = residual(g, lambda z: 0, Discretization(pts))[0]
        assert self.bits(got) == self.bits(eval_graph(g, pts)[0])
