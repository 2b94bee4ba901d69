"""Command-line front end.

    matgraph generate  --scheme ps --coeffs 1,1,0.5 --out g.cgr
    matgraph eval      g.cgr --matrix A.csv      (or --point 0.5)
    matgraph optimize  g.cgr --target exp --radius 0.45 --out opt.cgr
    matgraph certify   g.cgr
    matgraph compress  g.cgr --out small.cgr
    matgraph codegen   g.cgr --lang c --funname expm13 --out expm13.c
    matgraph convert   g.cgr --type BigFloat256 --out big.cgr

``eval`` binds its argument to the graph's input id: ``A``, or the one
the file's ``# input:`` key names.

Exit codes: 0 success, 2 usage error, 3 numerical failure or out of memory,
4 I/O or format error.  A ``--config`` file of ``key=value`` lines
overrides the corresponding flags; the MATGRAPH_PRECISION environment
variable sets the default coefficient precision in bits of ``generate`` and
``optimize``.  ``certify --precision`` does not read it: that flag is the
certificate's working precision, 1024 bits by default.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .cgr import CgrError, export_compgraph, import_compgraph
from .codegen import EmitTarget, gen_code
from .degopt import (
    degopt_from_graph,
    graph_degopt,
    graph_horner,
    graph_monomial,
    graph_monomial_degopt,
    graph_ps,
)
from .erroranalysis import CertificationError, compute_bwd_theta_exp, theta_table_csv
from .evaluation import eval_graph
from .generators import (
    graph_denman_beavers,
    graph_exp_pade_ss,
    graph_newton_schulz,
)
from .graph import ComputationGraph, GraphError, OpKind, compress_graph, convert_precision
from .numerics import CoeffType, convert_scalar, exact_decimal
from .optimizer import (
    Discretization,
    ErrType,
    GNConfig,
    LinLsqr,
    opt_gauss_newton,
)
from .targets import get_target

USAGE_ERROR = 2
NUMERICAL_ERROR = 3
IO_ERROR = 4

# schemes built from --coeffs; "<name>-degopt" gives the same scheme in degree-optimal form
POLY_SCHEMES = {"monomial": graph_monomial, "horner": graph_horner, "ps": graph_ps}
CONFIG_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
                   "0": False, "false": False, "no": False, "off": False}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse(conv, text, what: str):
    """``conv(text)`` for a value the user typed; a rejected value is a usage error."""
    try:
        return conv(text)
    except (ValueError, ArithmeticError) as exc:
        raise CliError(f"bad {what} {text!r}: {exc}", USAGE_ERROR) from exc


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace(" ", "").replace("i", "j"))


def _format_entry(v) -> str:
    v = complex(v)
    if v.imag == 0:
        return repr(v.real)
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i"


def read_matrix_csv(path: str) -> np.ndarray:
    """CSV matrix, one row per line; complex entries as a+bi."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                rows.append([_parse_complex(tok) for tok in line.split(",")])
    except ValueError as exc:
        raise CliError(f"bad matrix entry in {path}: {exc}", IO_ERROR) from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise CliError(f"{path}: ragged or empty matrix", IO_ERROR)
    arr = np.array(rows, dtype=complex)
    if np.all(arr.imag == 0):
        return arr.real
    return arr


def write_matrix_csv(M: np.ndarray, fh):
    M = np.atleast_2d(M)
    for row in M:
        fh.write(",".join(_format_entry(v) for v in row) + "\n")


def _load_graph(path: str) -> ComputationGraph:
    try:
        return import_compgraph(path)
    except CgrError as exc:
        raise CliError(f"{path}: {exc}", IO_ERROR) from exc


def _default_prec() -> int | None:
    env = os.environ.get("MATGRAPH_PRECISION")
    return _parse(int, env, "MATGRAPH_PRECISION") if env else None


def _coeff_type(bits: int | None) -> CoeffType:
    if bits is None or bits == 53:
        return CoeffType()
    return _parse(CoeffType, bits, "precision")


# -- commands -----------------------------------------------------------------


def cmd_generate(args) -> int:
    scheme = args.scheme
    ct = _coeff_type(args.precision if args.precision is not None else _default_prec())
    build = POLY_SCHEMES.get(scheme.removesuffix("-degopt"))
    if build and not args.coeffs:
        raise CliError(f"--coeffs is required for scheme {scheme}", USAGE_ERROR)
    try:
        if build:
            # exact decimal parse, then one rounding to the coefficient kind
            coeffs = [_parse(lambda t: convert_scalar(exact_decimal(t), ct), tok, "coefficient")
                      for tok in args.coeffs.split(",")]
            if not scheme.endswith("-degopt"):
                g, _ = build(coeffs, ct)
            elif len(coeffs) < 3:
                # below degree 2 every scheme has the same form, one A*A row
                g, _ = graph_monomial_degopt(coeffs, ct)
            else:
                g, _ = graph_degopt(degopt_from_graph(build(coeffs, ct)[0]), ct)
        elif scheme == "denman-beavers":
            g, _ = graph_denman_beavers(args.iters, ct)
        elif scheme == "newton-schulz":
            g, _ = graph_newton_schulz(args.iters, ct)
        else:
            g, _ = graph_exp_pade_ss(args.degree, args.squarings, ct)
    except GraphError as exc:
        # the generators refuse degrees, squarings and iteration counts they lack
        raise CliError(str(exc), USAGE_ERROR) from exc
    if args.compress:
        compress_graph(g)
    export_compgraph(g, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    g = _load_graph(args.graph)
    if args.point is not None:
        z = _parse(_parse_complex, args.point, "point")
        if not cmath.isfinite(z):
            raise CliError(f"non-finite point {args.point}", NUMERICAL_ERROR)
        value = eval_graph(g, z)
        values = value if isinstance(value, list) else [value]
        if not all(cmath.isfinite(complex(v)) for v in values):
            raise CliError(f"non-finite value at {args.point}", NUMERICAL_ERROR)
        for v in values:
            print(_format_entry(v))
        return 0
    if not args.matrix:
        raise CliError("provide --matrix FILE or --point VALUE", USAGE_ERROR)
    A = read_matrix_csv(args.matrix)
    value = eval_graph(g, A)
    values = value if isinstance(value, list) else [value]
    if not all(cmath.isfinite(complex(x)) for v in values for x in np.asarray(v).flat):
        raise CliError(f"non-finite value at {args.matrix}", NUMERICAL_ERROR)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for i, v in enumerate(values):
            if len(values) > 1:
                out.write(f"# output {g.outputs[i]}\n")
            write_matrix_csv(np.asarray(v), out)
    finally:
        if args.out:
            out.close()
    return 0


@contextlib.contextmanager
def _progress_to_stderr(enabled: bool):
    """Send the package's INFO log records (Gauss-Newton progress) to stderr."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("matgraph")
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def cmd_optimize(args) -> int:
    g = _load_graph(args.graph)
    # default: optimize in 256-bit arithmetic (override via flag or env)
    bits = args.precision if args.precision is not None else _default_prec()
    ct = _coeff_type(256 if bits is None else bits)
    g = convert_precision(g, CoeffType(ct.prec, g.coeff_type.is_complex))
    try:
        f = get_target(args.target, CoeffType(g.coeff_type.prec))
    except (ValueError, OSError) as exc:
        raise CliError(str(exc), USAGE_ERROR) from exc
    if args.target == "sqrt1p" and args.errtype == "rel" and abs(args.center + 1.0) <= args.radius:
        raise CliError(
            "sqrt1p has a root at -1 inside the requested disk; the relative "
            "error is unusable there (use --errtype abs)",
            NUMERICAL_ERROR,
        )
    try:
        discr = Discretization.disk(args.center, args.radius, args.points,
                                    prec=g.coeff_type.prec)
        config = GNConfig(
            errtype=ErrType.REL if args.errtype == "rel" else ErrType.ABS,
            stoptol=args.stoptol,
            maxiter=args.maxiter,
            gamma=args.gamma,
            droptol=args.droptol,
            linlsqr=LinLsqr.REAL_SVD if args.linlsqr == "real" else LinLsqr.COMPLEX_SVD,
            perturbation=args.perturb,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(f"bad optimize option: {exc}", USAGE_ERROR) from exc
    refs = g.all_coeff_refs()
    if not refs:
        raise CliError("graph has no tunable coefficients", NUMERICAL_ERROR)
    with _progress_to_stderr(args.verbose):
        report = opt_gauss_newton(g, f, discr, refs, config)
    export_compgraph(g, args.out)
    if args.report:
        payload = {
            "iterations": report.iterations,
            "converged": report.converged,
            "stop_reason": report.stop_reason,
            "best_residual": report.best_residual,
            "residual_history": report.residual_history,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            if args.report.endswith(".json"):
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            else:
                fh.write("iteration,max_residual\n")
                for i, rv in enumerate(report.residual_history):
                    fh.write(f"{i},{rv!r}\n")
    status = "converged" if report.converged else "not converged"
    best = report.best_residual
    print(f"wrote {args.out} ({status}, {report.iterations} iterations"
          + (f", residual of saved graph {best:.3e}" if best is not None else "") + ")")
    return 0


def cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    flag = None
    try:
        result = compute_bwd_theta_exp(g, u=args.u, nterms=args.nterms, prec=args.precision)
        theta = result.theta
        if result.saturated:
            flag = "bound never crossed u inside the search interval"
    except CertificationError as exc:
        # no certifiable radius: report zero and say why
        theta = 0.0
        flag = str(exc)
    except GraphError:
        raise  # a multi-output graph is a format error, not a bad option
    except ValueError as exc:
        raise CliError(f"bad certify option: {exc}", USAGE_ERROR) from exc
    mults = sum(1 for op in g.operations.values() if op != OpKind.LINCOMB)
    name = os.path.splitext(os.path.basename(args.graph))[0]
    csv = theta_table_csv([(name, mults, theta, args.u, args.nterms)])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    sys.stdout.write(csv)
    if flag:
        print(f"# warning: {flag}", file=sys.stderr)
    return 0


def cmd_compress(args) -> int:
    g = _load_graph(args.graph)
    before = len(g.operations)
    compress_graph(g)
    export_compgraph(g, args.out)
    print(f"wrote {args.out} ({before} -> {len(g.operations)} nodes)")
    return 0


def cmd_codegen(args) -> int:
    g = _load_graph(args.graph)
    target = EmitTarget(
        dialect="matlab" if args.lang == "matlab" else "c",
        function_name=args.funname,
        fuse_lincomb=not args.no_fuse,
    )
    try:
        gen_code(g, target, args.out)
    except GraphError as exc:
        raise CliError(str(exc), USAGE_ERROR) from exc
    print(f"wrote {args.out}")
    return 0


def cmd_convert(args) -> int:
    g = _load_graph(args.graph)
    ct = _parse(CoeffType.from_tag, args.type, "coefficient type")
    try:
        g2 = convert_precision(g, ct)
    except ValueError as exc:
        raise CliError(str(exc), NUMERICAL_ERROR) from exc
    export_compgraph(g2, args.out)
    print(f"wrote {args.out}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="matgraph", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"matgraph {__version__}")
    p.add_argument("--config", help="key=value file overriding flags", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a named graph and save it")
    gen.add_argument("--scheme", required=True,
                     choices=[*POLY_SCHEMES, *(f"{s}-degopt" for s in POLY_SCHEMES),
                              "denman-beavers", "newton-schulz", "exp-pade"])
    gen.add_argument("--coeffs", help="comma-separated polynomial coefficients")
    gen.add_argument("--iters", type=int, default=4)
    gen.add_argument("--degree", type=int, default=13)
    gen.add_argument("--squarings", type=int, default=0)
    gen.add_argument("--precision", type=int, default=None, help="coefficient bits")
    gen.add_argument("--compress", action="store_true")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("eval", help="evaluate a graph at a matrix or scalar")
    ev.add_argument("graph")
    ev.add_argument("--matrix", help="CSV file, complex entries as a+bi")
    ev.add_argument("--point", help="scalar evaluation point")
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    opt = sub.add_parser("optimize", help="fit coefficients to a target function")
    opt.add_argument("graph")
    opt.add_argument("--target", required=True, help="exp, sqrt1p, or series:<file>")
    opt.add_argument("--center", type=float, default=0.0)
    opt.add_argument("--radius", type=float, required=True)
    opt.add_argument("--points", type=int, default=200)
    opt.add_argument("--precision", type=int, default=None)
    opt.add_argument("--stoptol", type=float, default=4e-15)
    opt.add_argument("--droptol", type=float, default=1e-15)
    opt.add_argument("--gamma", type=float, default=1.0)
    opt.add_argument("--maxiter", type=int, default=200)
    opt.add_argument("--errtype", choices=["abs", "rel"], default="rel")
    opt.add_argument("--linlsqr", choices=["real", "complex"], default="real")
    opt.add_argument("--perturb", type=float, default=None)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--verbose", action="store_true",
                     help="log each iteration's residual and the stop reason to stderr")
    opt.add_argument("--report", default=None, help="JSON or CSV residual history")
    opt.add_argument("--out", required=True)
    opt.set_defaults(func=cmd_optimize)

    cert = sub.add_parser("certify", help="backward-error radius for exp approximants")
    cert.add_argument("graph")
    cert.add_argument("--u", type=float, default=2.0 ** -53)
    cert.add_argument("--nterms", type=int, default=100)
    cert.add_argument("--precision", type=int, default=1024)
    cert.add_argument("--out", default=None)
    cert.set_defaults(func=cmd_certify)

    comp = sub.add_parser("compress", help="remove redundant operations")
    comp.add_argument("graph")
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=cmd_compress)

    cg = sub.add_parser("codegen", help="emit MATLAB or C source")
    cg.add_argument("graph")
    cg.add_argument("--lang", choices=["matlab", "c"], required=True)
    cg.add_argument("--funname", default="evalgraph")
    cg.add_argument("--no-fuse", action="store_true")
    cg.add_argument("--out", required=True)
    cg.set_defaults(func=cmd_codegen)

    cv = sub.add_parser("convert", help="change the coefficient type")
    cv.add_argument("graph")
    cv.add_argument("--type", required=True, help="Float64, ComplexF64, BigFloat<bits>, ...")
    cv.add_argument("--out", required=True)
    cv.set_defaults(func=cmd_convert)
    return p


def _apply_config(args, parser):
    """Override flags of the chosen command from ``key=value`` lines.

    Each value goes through its flag's own ``type`` and ``choices``.
    """
    if not args.config:
        return args
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    with open(args.config, "r", encoding="utf-8") as fh:
        lines = [raw.strip() for raw in fh]
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line {line!r}", USAGE_ERROR)
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        action = actions.get(key)
        if action is None or not hasattr(args, key):
            raise CliError(f"unknown config key {key!r}", USAGE_ERROR)
        if action.nargs == 0:
            if value.lower() not in CONFIG_BOOLEANS:
                raise CliError(f"config value for {key} must be one of "
                               f"{list(CONFIG_BOOLEANS)}", USAGE_ERROR)
            setattr(args, key, CONFIG_BOOLEANS[value.lower()])
            continue
        v = _parse(action.type or str, value, f"config value for {key}")
        if action.choices is not None and v not in action.choices:
            raise CliError(f"config value for {key} must be one of {list(action.choices)}",
                           USAGE_ERROR)
        setattr(args, key, v)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, parser)
        # a non-finite result is reported by the command itself (exit 3);
        # numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return args.func(args)
    except CliError as exc:
        print(f"matgraph: {exc}", file=sys.stderr)
        return exc.code
    except (GraphError, CgrError, OSError) as exc:
        print(f"matgraph: {exc}", file=sys.stderr)
        return IO_ERROR
    except ArithmeticError as exc:
        print(f"matgraph: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except MemoryError as exc:  # e.g. numpy refusing the points of a huge --points
        print("matgraph: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
