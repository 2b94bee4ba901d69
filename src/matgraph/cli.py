"""Command-line front end.

    matgraph generate  --scheme ps --coeffs 1,1,0.5 --out g.cgr
    matgraph eval      g.cgr --matrix A.csv      (or --point 0.5)
    matgraph optimize  g.cgr --target exp --radius 0.45 --out opt.cgr
    matgraph certify   g.cgr
    matgraph compress  g.cgr --out small.cgr
    matgraph codegen   g.cgr --lang c --funname expm13 --out expm13.c
    matgraph convert   g.cgr --type BigFloat256 --out big.cgr

``eval`` takes exactly one of ``--matrix`` and ``--point`` and binds it to
the graph's input id: ``A``, or the one the file's ``# input:`` key names.
``eval`` and ``certify`` write their CSV to ``--out``, or to stdout without
it.  ``optimize --report`` writes the fit's ``GNReport`` fields as JSON.
Each command loads only the submodules it runs, reaching them as ``mg.X``.

Exit codes: 0 success, 2 usage error, 3 numerical failure or out of memory,
4 I/O or format error.  Every value is set by its own flag; the
MATGRAPH_PRECISION environment variable sets the default coefficient
precision in bits of ``generate`` and ``optimize``.  ``certify --precision``
does not read it: that flag is the certificate's working precision, 1024
bits by default.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import json
import logging
import os
import sys

import numpy as np

import matgraph as mg  # every other submodule, on first use
from .graph import ComputationGraph, GraphError, OpKind, compress_graph, convert_precision
from .numerics import CoeffType, convert_scalar, exact_decimal

USAGE_ERROR = 2
NUMERICAL_ERROR = 3
IO_ERROR = 4

# schemes built from --coeffs by graph_<name>; "<name>-degopt" is their degree-optimal form
POLY_SCHEMES = ("monomial", "horner", "ps")


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
    """a+bi as a complex; only a trailing i is the imaginary unit, so inf and nan stay words."""
    text = text.strip().replace(" ", "")
    return complex(text[:-1] + "j" if text.endswith("i") else text)


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


def _require_finite(arrays, what: str):
    if not all(cmath.isfinite(complex(x)) for a in arrays for x in np.asarray(a).flat):
        raise CliError(f"non-finite {what}", NUMERICAL_ERROR)


def _sink(path: str | None):
    """The file at ``path`` opened for writing, or stdout without one."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _load_graph(path: str) -> ComputationGraph:
    try:
        return mg.import_compgraph(path)
    except mg.CgrError as exc:
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
    base = scheme.removesuffix("-degopt")
    build = getattr(mg, f"graph_{base}") if base in POLY_SCHEMES else None
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
                g, _ = mg.graph_monomial_degopt(coeffs, ct)
            else:
                g, _ = mg.graph_degopt(mg.degopt_from_graph(build(coeffs, ct)[0]), ct)
        elif scheme == "denman-beavers":
            g, _ = mg.graph_denman_beavers(args.iters, ct)
        elif scheme == "newton-schulz":
            g, _ = mg.graph_newton_schulz(args.iters, ct)
        else:
            g, _ = mg.graph_exp_pade_ss(args.degree, args.squarings, ct)
    except GraphError as exc:
        # the generators refuse degrees, squarings and iteration counts they lack
        raise CliError(str(exc), USAGE_ERROR) from exc
    if args.compress:
        compress_graph(g)
    mg.export_compgraph(g, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    g = _load_graph(args.graph)
    if args.point is not None:
        where, arg = args.point, _parse(_parse_complex, args.point, "point")
    else:
        where, arg = args.matrix, read_matrix_csv(args.matrix)
    _require_finite([arg], f"argument {where}")
    value = mg.eval_graph(g, arg)
    values = value if isinstance(value, list) else [value]
    _require_finite(values, f"value at {where}")
    with _sink(args.out) as out:
        for name, v in zip(g.outputs, values):
            if len(values) > 1:
                out.write(f"# output {name}\n")
            write_matrix_csv(np.asarray(v), out)
    return 0


@contextlib.contextmanager
def _progress_to_stderr():
    """Send the package's INFO log records (Gauss-Newton progress) to stderr."""
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
        f = mg.get_target(args.target, CoeffType(g.coeff_type.prec))
    except ValueError as exc:
        raise CliError(str(exc), USAGE_ERROR) from exc
    if args.target == "sqrt1p" and args.errtype == "rel" and abs(args.center + 1.0) <= args.radius:
        raise CliError(
            "sqrt1p has a root at -1 inside the requested disk; the relative "
            "error is unusable there (use --errtype abs)",
            NUMERICAL_ERROR,
        )
    try:
        discr = mg.Discretization.disk(args.center, args.radius, args.points,
                                       prec=g.coeff_type.prec)
        config = mg.GNConfig(
            errtype=args.errtype,
            stoptol=args.stoptol,
            maxiter=args.maxiter,
            gamma=args.gamma,
            droptol=args.droptol,
            linlsqr=mg.LinLsqr.REAL_SVD if args.linlsqr == "real" else mg.LinLsqr.COMPLEX_SVD,
            perturbation=args.perturb,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(f"bad optimize option: {exc}", USAGE_ERROR) from exc
    refs = g.all_coeff_refs()
    if not refs:
        raise CliError("graph has no tunable coefficients", NUMERICAL_ERROR)
    with _progress_to_stderr() if args.verbose else contextlib.nullcontext():
        report = mg.opt_gauss_newton(g, f, discr, refs, config)
    mg.export_compgraph(g, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2)
            fh.write("\n")
    status = "converged" if report.converged else "not converged"
    best = report.best_residual
    print(f"wrote {args.out} ({status}, {report.iterations} iterations"
          + (f", residual of saved graph {best:.3e}" if best is not None else "") + ")")
    return 0


def cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    flag = None
    try:
        result = mg.compute_bwd_theta_exp(g, u=args.u, nterms=args.nterms, prec=args.precision)
        theta = result.theta
        if result.saturated:
            flag = "bound never crossed u inside the search interval"
    except mg.CertificationError as exc:
        # no certifiable radius: report zero and say why
        theta = 0.0
        flag = str(exc)
    except GraphError:
        raise  # a multi-output graph is a format error, not a bad option
    except ValueError as exc:
        raise CliError(f"bad certify option: {exc}", USAGE_ERROR) from exc
    mults = sum(1 for op in g.operations.values() if op != OpKind.LINCOMB)
    name = os.path.splitext(os.path.basename(args.graph))[0]
    with _sink(args.out) as out:
        out.write("graph,multiplications,theta,u,nterms\n"
                  f"{name},{mults},{float(theta)!r},{float(args.u)!r},{args.nterms}\n")
    if flag:
        print(f"# warning: {flag}", file=sys.stderr)
    return 0


def cmd_compress(args) -> int:
    g = _load_graph(args.graph)
    before = len(g.operations)
    compress_graph(g)
    mg.export_compgraph(g, args.out)
    print(f"wrote {args.out} ({before} -> {len(g.operations)} nodes)")
    return 0


def cmd_codegen(args) -> int:
    g = _load_graph(args.graph)
    try:
        target = mg.EmitTarget(args.lang, function_name=args.funname,
                               fuse_lincomb=not args.no_fuse)
        mg.gen_code(g, target, args.out)
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
    mg.export_compgraph(g2, args.out)
    print(f"wrote {args.out}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="matgraph", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"matgraph {mg.__version__}")
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
    ev_arg = ev.add_mutually_exclusive_group(required=True)
    ev_arg.add_argument("--matrix", help="CSV file, complex entries as a+bi")
    ev_arg.add_argument("--point", help="scalar evaluation point")
    ev.add_argument("--out", default=None, help="CSV result file (default: stdout)")
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
    opt.add_argument("--report", default=None, help="JSON record of the fit")
    opt.add_argument("--out", required=True)
    opt.set_defaults(func=cmd_optimize)

    cert = sub.add_parser("certify", help="backward-error radius for exp approximants")
    cert.add_argument("graph")
    cert.add_argument("--u", type=float, default=2.0 ** -53)
    cert.add_argument("--nterms", type=int, default=100)
    cert.add_argument("--precision", type=int, default=1024)
    cert.add_argument("--out", default=None, help="CSV row file (default: stdout)")
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


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1):  # argparse reads a point such as -0.5+1i or -inf as an option
        if argv[i] == "--point" and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"--point={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)  # argparse exits by itself on a usage error
    try:
        # a non-finite result is reported by the command itself (exit 3);
        # numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return args.func(args)
    except CliError as exc:
        print(f"matgraph: {exc}", file=sys.stderr)
        return exc.code
    except (GraphError, mg.CgrError, OSError) as exc:
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
