"""Computational graphs for matrix-function algorithms.

Build DAGs whose nodes are linear combinations, products, and linear
solves; evaluate them at scalars, vectors of points, dense matrices, or
truncated series; differentiate the evaluation with respect to selected
coefficients; fit the coefficients to a target function by Gauss-Newton;
certify accuracy via backward/forward error radii and running round-off
bounds; and emit MATLAB/C code or a portable text file for any graph.
"""

__version__ = "0.1.0"

from .autodiff import JacobianMatrix, eval_jac
from .cgr import CgrError, export_compgraph, import_compgraph, parse_cgr, render_cgr
from .codegen import Dialect, EmitTarget, Schedule, gen_code, plan_schedule
from .degopt import (
    Degopt,
    DegoptError,
    YksCoeffs,
    degopt_from_graph,
    graph_degopt,
    graph_horner,
    graph_monomial,
    graph_monomial_degopt,
    graph_ps,
    ps_block_size,
    yks_to_degopt,
)
from .erroranalysis import (
    CertificationError,
    RunErrMode,
    ThetaKind,
    ThetaResult,
    compute_bwd_theta_exp,
    compute_fwd_theta,
    eval_runerr,
)
from .evaluation import EvalError, eval_graph, eval_graph_poly, graph_degree_bound
from .generators import (
    graph_denman_beavers,
    graph_exp_pade_ss,
    graph_newton_schulz,
    graph_rational,
    pade_exp_coeffs,
    pade_squarings_for_norm,
)
from .graph import (
    CoeffRef,
    ComputationGraph,
    GraphError,
    OpKind,
    compress_graph,
    convert_precision,
    get_topo_order,
    merge_graph,
)
from .numerics import (
    EPS64,
    CoeffType,
    SingularMatrixError,
    bigfloat,
    convert_scalar,
    mat_lu_solve,
    working_precision,
)
from .optimizer import (
    Discretization,
    ErrType,
    GNConfig,
    GNReport,
    LinLsqr,
    OptimizeError,
    gn_step,
    opt_gauss_newton,
    residual,
)
from .series import SeriesError, TruncSeries
from .targets import exp_target, get_target, sqrt1p_target

__all__ = [name for name in dir() if not name.startswith("_")]
