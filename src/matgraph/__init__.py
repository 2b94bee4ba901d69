"""Computational graphs for matrix-function algorithms.

Build DAGs whose nodes are linear combinations, products, and linear
solves; evaluate them at scalars, vectors of points, dense matrices, or
truncated series; differentiate the evaluation with respect to selected
coefficients; fit the coefficients to a target function by Gauss-Newton;
certify accuracy via backward/forward error radii and running round-off
bounds; and emit MATLAB/C code or a portable text file for any graph.

Importing the package loads only ``graph`` and ``numerics``. Every other
submodule loads the first time it, or a name it defines, is looked up on
the package (PEP 562).
"""

import importlib

# every other submodule imports these two, so they load with the package
from . import graph, numerics

__version__ = "0.1.0"

# each submodule and the public names it defines; the package exports both
_EXPORTS = {
    "autodiff": ["JacobianMatrix", "eval_jac"],
    "cgr": ["CgrError", "export_compgraph", "import_compgraph", "parse_cgr", "render_cgr"],
    "codegen": ["Dialect", "EmitTarget", "Schedule", "gen_code", "plan_schedule"],
    "degopt": ["Degopt", "DegoptError", "YksCoeffs", "degopt_from_graph", "graph_degopt",
               "graph_horner", "graph_monomial", "graph_monomial_degopt", "graph_ps",
               "ps_block_size", "yks_to_degopt"],
    "erroranalysis": ["CertificationError", "RunErrMode", "ThetaKind", "ThetaResult",
                      "compute_bwd_theta_exp", "compute_fwd_theta", "eval_runerr"],
    "evaluation": ["EvalError", "eval_graph", "eval_graph_poly", "graph_degree_bound"],
    "generators": ["graph_denman_beavers", "graph_exp_pade_ss", "graph_newton_schulz",
                   "graph_rational", "pade_exp_coeffs", "pade_squarings_for_norm"],
    "graph": ["CoeffRef", "ComputationGraph", "GraphError", "OpKind", "compress_graph",
              "convert_precision", "get_topo_order", "merge_graph"],
    "numerics": ["EPS64", "CoeffType", "SingularMatrixError", "bigfloat", "convert_scalar",
                 "mat_lu_solve", "working_precision"],
    "optimizer": ["Discretization", "ErrType", "GNConfig", "GNReport", "LinLsqr",
                  "OptimizeError", "gn_step", "opt_gauss_newton", "residual"],
    "series": ["SeriesError", "TruncSeries"],
    "targets": ["exp_target", "get_target", "sqrt1p_target"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return __all__
