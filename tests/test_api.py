"""The package's public surface, recorded: adding or removing a name, or a
parameter of a public callable, shows up in this file.

``matgraph.__all__`` is every name in the package namespace without a
leading underscore, so the submodules are part of it.
"""

import enum
import inspect

import matgraph

PUBLIC_NAMES = [
    "CertificationError", "CgrError", "CoeffRef", "CoeffType", "ComputationGraph", "Degopt",
    "DegoptError", "Dialect", "Discretization", "EPS64", "EmitTarget", "ErrType",
    "EvalError", "GNConfig", "GNReport", "GraphError", "JacobianMatrix", "LinLsqr",
    "OpKind", "OptimizeError", "RunErrMode", "Schedule", "SeriesError",
    "SingularMatrixError", "ThetaKind", "ThetaResult", "TruncSeries", "YksCoeffs",
    "autodiff", "bigfloat", "cgr", "codegen", "compress_graph", "compute_bwd_theta_exp",
    "compute_fwd_theta", "convert_precision", "convert_scalar", "degopt", "degopt_from_graph",
    "erroranalysis", "eval_graph", "eval_graph_poly", "eval_jac",
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


# the parameter names of every public callable; an enum, and an exception
# that keeps its base class's constructor, has none of its own
PARAMETERS = {
    "CgrError": ["message", "line"],
    "CoeffRef": ["node", "slot"],
    "CoeffType": ["prec", "is_complex"],
    "ComputationGraph": ["coeff_type", "input_id"],
    "Degopt": ["HA", "HB", "y", "row_ops"],
    "Discretization": ["points"],
    "EmitTarget": ["dialect", "function_name", "fuse_lincomb"],
    "GNConfig": ["errtype", "stoptol", "maxiter", "gamma", "droptol", "linlsqr", "perturbation",
                 "seed"],
    "GNReport": ["iterations", "residual_history", "converged", "best_residual", "stop_reason"],
    "JacobianMatrix": ["entries", "points", "refs", "values"],
    "Schedule": ["order", "slot_assignment", "peak_buffers"],
    "ThetaResult": ["theta", "kind", "nterms", "u", "saturated", "bracket"],
    "TruncSeries": ["coeffs", "nterms"],
    "YksCoeffs": ["s", "c", "d", "e", "e0", "f"],
    "bigfloat": ["prec", "is_complex"],
    "compress_graph": ["g"],
    "compute_bwd_theta_exp": ["g", "u", "nterms", "prec"],
    "compute_fwd_theta": ["g", "f_series", "u", "prec"],
    "convert_precision": ["g", "ct"],
    "convert_scalar": ["x", "ct"],
    "degopt_from_graph": ["g"],
    "eval_graph": ["g", "x", "prec"],
    "eval_graph_poly": ["g", "prec"],
    "eval_jac": ["g", "points", "refs", "weights", "slots"],
    "eval_runerr": ["g", "x", "mode", "u", "seed"],
    "exp_target": ["z"],
    "export_compgraph": ["g", "path"],
    "finite_diff_jac": ["g", "points", "refs", "h"],
    "gen_code": ["g", "target", "path"],
    "get_target": ["name", "coeff_type"],
    "get_topo_order": ["g", "all_nodes"],
    "gn_step": ["J", "r", "config"],
    "graph_degopt": ["d", "coeff_type"],
    "graph_degree_bound": ["g"],
    "graph_denman_beavers": ["iters", "coeff_type"],
    "graph_exp_pade_ss": ["degree", "squarings", "coeff_type"],
    "graph_horner": ["coeffs", "coeff_type"],
    "graph_monomial": ["coeffs", "coeff_type"],
    "graph_monomial_degopt": ["coeffs", "coeff_type"],
    "graph_newton_schulz": ["iters", "coeff_type"],
    "graph_ps": ["coeffs", "coeff_type"],
    "graph_rational": ["p_graph", "q_graph"],
    "import_compgraph": ["path"],
    "mat_lu_solve": ["A", "B"],
    "merge_graph": ["g1", "g2"],
    "opt_gauss_newton": ["g", "f", "discr", "refs", "config"],
    "pade_exp_coeffs": ["degree", "exact"],
    "pade_squarings_for_norm": ["norm_bound", "degree"],
    "parse_cgr": ["text"],
    "plan_schedule": ["g"],
    "ps_block_size": ["degree"],
    "render_cgr": ["g"],
    "residual": ["g", "f", "discr", "errtype"],
    "sqrt1p_target": ["z"],
    "theta_table_csv": ["rows"],
    "working_precision": ["prec"],
    "yks_to_degopt": ["spec"],
}


def _parameters():
    out = {}
    for name in matgraph.__all__:
        obj = getattr(matgraph, name)
        if inspect.ismodule(obj) or not callable(obj):
            continue
        if inspect.isclass(obj) and (issubclass(obj, enum.Enum) or (
                issubclass(obj, BaseException) and "__init__" not in vars(obj))):
            continue
        out[name] = list(inspect.signature(obj).parameters)
    return out


def test_public_parameters_are_the_recorded_map():
    assert _parameters() == PARAMETERS


def test_only_the_graph_constructor_chooses_an_input_id():
    # every evaluation binds its argument to g.input_id
    assert [name for name, params in _parameters().items()
            if {"input", "input_id"} & set(params)] == ["ComputationGraph"]
