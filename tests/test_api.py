"""The package's public surface, recorded: adding or removing a name, or a
parameter of a public callable, shows up in this file.

``matgraph.__all__`` is every submodule the package exports (all but the
``cli`` entry point) and every public name those submodules export through
it. The package loads a submodule when it or one of its names is first
looked up, so the names are looked up, not read from the namespace.
"""

import enum
import inspect
import json
import os
import subprocess
import sys

import pytest

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
    "eval_runerr", "evaluation", "exp_target", "export_compgraph",
    "gen_code", "generators", "get_target", "get_topo_order", "gn_step", "graph",
    "graph_degopt", "graph_degree_bound", "graph_denman_beavers", "graph_exp_pade_ss",
    "graph_horner", "graph_monomial", "graph_monomial_degopt", "graph_newton_schulz",
    "graph_ps", "graph_rational", "import_compgraph", "mat_lu_solve", "merge_graph",
    "numerics", "opt_gauss_newton", "optimizer", "pade_exp_coeffs",
    "pade_squarings_for_norm", "parse_cgr", "plan_schedule", "ps_block_size", "render_cgr",
    "residual", "series", "sqrt1p_target", "targets",
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
    "ThetaResult": ["theta", "kind", "nterms", "u", "saturated", "bracket", "rounding"],
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


def _run(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this matgraph."""
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(matgraph.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          check=True, capture_output=True, text=True, timeout=120).stdout


def test_import_loads_only_graph_and_numerics():
    loaded = _run("import sys, matgraph\n"
                  "print(sorted(m for m in sys.modules if m.startswith('matgraph')))\n")
    assert loaded.strip() == "['matgraph', 'matgraph.graph', 'matgraph.numerics']"


# looks every public name up on the package, after importing each submodule
# itself when argv[1] is "submodule"; prints the submodule count and the
# names that are not the object every submodule holding that name holds
SAME_OBJECTS = """
import importlib, json, pkgutil, sys
import matgraph
subs = [m.name for m in pkgutil.iter_modules(matgraph.__path__) if m.name in matgraph.__all__]
if sys.argv[1] == "submodule":
    for m in subs:
        importlib.import_module("matgraph." + m)
seen = {name: getattr(matgraph, name) for name in matgraph.__all__}
modules = [sys.modules["matgraph." + m] for m in subs]
bad = [m for m, mod in zip(subs, modules) if seen[m] is not mod]
for name, obj in seen.items():
    homes = [mod for mod in modules if hasattr(mod, name)]
    if name not in subs and (not homes or any(getattr(mod, name) is not obj for mod in homes)):
        bad.append(name)
print(json.dumps([len(subs), bad]))
"""


@pytest.mark.parametrize("first", ["package", "submodule"])
def test_public_names_are_their_modules_objects(first):
    assert json.loads(_run(SAME_OBJECTS, first)) == [12, []]


def test_dir_lists_every_public_name():
    assert set(matgraph.__all__) <= set(dir(matgraph))


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from matgraph import *", ns)
    assert all(ns[name] is getattr(matgraph, name) for name in matgraph.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as info:
        matgraph.no_such_name
    assert str(info.value) == "module 'matgraph' has no attribute 'no_such_name'"
    assert not hasattr(matgraph, "no_such_name")
