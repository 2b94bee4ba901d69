"""The package's public surface, recorded: adding or removing a name shows up in this file.

``matgraph.__all__`` is every name in the package namespace without a
leading underscore, so the submodules are part of it.
"""

import matgraph

PUBLIC_NAMES = [
    "CertificationError", "CgrError", "CoeffRef", "CoeffType", "ComputationGraph", "Degopt",
    "DegoptError", "Dialect", "Discretization", "EPS64", "EmitTarget", "ErrType",
    "EvalError", "GNConfig", "GNReport", "GraphError", "JacobianMatrix", "LinLsqr",
    "OpKind", "OptimizeError", "RunErrMode", "Schedule", "SeriesError",
    "SingularMatrixError", "ThetaKind", "ThetaResult", "TruncSeries", "YksCoeffs",
    "autodiff", "bigfloat", "cgr", "codegen", "compress_graph", "compute_bwd_theta_exp",
    "compute_fwd_theta", "convert_precision", "convert_scalar", "degopt", "degopt_degree",
    "degopt_from_graph", "erroranalysis", "eval_graph", "eval_graph_poly", "eval_jac",
    "eval_runerr", "evaluation", "exp_target", "export_compgraph", "finite_diff_jac",
    "gen_code", "generators", "get_target", "get_topo_order", "gn_step", "graph",
    "graph_degopt", "graph_degree_bound", "graph_denman_beavers", "graph_exp_pade_ss",
    "graph_horner", "graph_monomial", "graph_monomial_degopt", "graph_newton_schulz",
    "graph_ps", "graph_rational", "import_compgraph", "mat_lu_solve", "merge_graph",
    "numerics", "opt_gauss_newton", "optimizer", "pade_exp_coeffs",
    "pade_squarings_for_norm", "parse_cgr", "plan_schedule", "ps_block_size", "render_cgr",
    "residual", "series", "sqrt1p_target", "targets", "theta_table_csv",
    "working_precision", "yks_to_degopt",
]


def test_public_names_are_the_recorded_list():
    assert sorted(matgraph.__all__) == PUBLIC_NAMES
