"""Read/write graphs in the CGR text format.

A CGR file is a sequence of scalar-shaped assignments that doubles as an
executable script: a header states the coefficient type, products appear
as ``X=P1*P2;``, solves as ``X=P1\\P2;``, and linear combinations bind the
pseudo-variables ``coeff1``/``coeff2`` immediately before use:

    graph_coeff_type="Float64";

    A2tmp=A*A;
    coeff1=1.0;
    coeff2=-0.5;
    B_0_1=coeff1*I+coeff2*A2tmp;
    ...
    # outputs: P0

Binary64 coefficients are written as shortest round-trip decimals,
extended-precision ones as exact hex-float literals, and a non-finite
one as ``nan``, ``inf`` or ``-inf`` at every precision, so parsing an
exported file reproduces the graph coefficient-exactly.  Comment lines of
the form ``# key: value`` are preserved as opaque metadata; the
``outputs`` (and, for non-standard graphs, ``input``) keys are written by
the exporter and honored on import, defaulting to the last assigned node
when absent.  Node ids follow the graph's grammar ``[A-Za-z_][A-Za-z0-9_]*``,
and every malformed file raises :class:`CgrError`.
"""

from __future__ import annotations

import re

from mpmath import libmp, mp

from .graph import ComputationGraph, GraphError, get_topo_order, OpKind
from .numerics import CoeffType


class CgrError(ValueError):
    def __init__(self, message, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# -- number formatting -------------------------------------------------------


_HEX_RE = re.compile(r"^(-?)0x([0-9a-fA-F]+)p(-?\d+)$")


def _word(x, prec: int | None) -> str:
    """One real part of a coefficient, as the module docstring states."""
    if prec is None:
        return repr(float(x))
    sign, man, exp, _ = x._mpf_
    if man:
        return f"{'-' if sign else ''}0x{man:x}p{exp}"
    return repr(float(x)) if exp else "0x0p0"


def _read_word(text: str, prec: int | None):
    """The real part that :func:`_word` wrote as ``text``, rounded to ``prec``."""
    if prec is None:
        return float(text)
    mobj = _HEX_RE.match(text)
    if mobj:
        sign, man, exp = mobj.groups()
        man = -int(man, 16) if sign else int(man, 16)
        return mp.make_mpf(libmp.from_man_exp(man, int(exp), prec, libmp.round_nearest))
    if text in ("nan", "inf", "-inf"):
        return mp.make_mpf(libmp.from_str(text, prec))
    raise ValueError(f"bad hex float {text!r}")


def _format_number(v, ct: CoeffType) -> str:
    if not ct.is_complex:
        return _word(v, ct.prec)
    re_s, im_s = _word(v.real, ct.prec), _word(v.imag, ct.prec)
    return f"{re_s}{'' if im_s.startswith('-') else '+'}{im_s}i"


# a complex literal splits at its last sign that follows neither a sign
# nor an exponent or hex marker
_COMPLEX_RE = re.compile(r"(.*[^eEpx+-])([+-].*)i")


def _parse_number(text: str, ct: CoeffType, line: int):
    text = text.strip()
    try:
        if not ct.is_complex:
            return _read_word(text, ct.prec)
        mobj = _COMPLEX_RE.fullmatch(text)
        if not mobj:
            raise ValueError("complex literal must read <real>+<imag>i or <real>-<imag>i")
        re_x, im_x = (_read_word(w.removeprefix("+"), ct.prec) for w in mobj.groups())
        return complex(re_x, im_x) if ct.prec is None else mp.make_mpc((re_x._mpf_, im_x._mpf_))
    except ValueError as exc:
        raise CgrError(f"cannot parse number {text!r}: {exc}", line) from exc


# -- rendering ---------------------------------------------------------------


_RESERVED_WORDS_RE = re.compile(r"^(coeff\d+|graph_coeff_type)$")


def render_cgr(g: ComputationGraph) -> str:
    ct = g.coeff_type
    for nid in g.operations:
        if _RESERVED_WORDS_RE.match(nid):
            raise CgrError(f"node id {nid!r} collides with a format keyword")
        for p in g.parents[nid]:
            if p not in g.operations and p not in g.input_ids:
                raise CgrError(f"cannot export: dangling parent reference {p!r} of {nid!r}")
    lines = [f'graph_coeff_type="{ct.tag}";', ""]
    for key in sorted(g.metadata):
        lines.append(f"# {key}: {g.metadata[key]}")
    if g.metadata:
        lines.append("")
    if g.input_id != "A":
        lines.append(f"# input: {g.input_id}")
    for nid in get_topo_order(g, all_nodes=True):
        p1, p2 = g.parents[nid]
        op = g.operations[nid]
        if op == OpKind.MULT:
            lines.append(f"{nid}={p1}*{p2};")
        elif op == OpKind.LDIV:
            lines.append(f"{nid}={p1}\\{p2};")
        else:
            c1, c2 = g.coeffs[nid]
            lines.append(f"coeff1={_format_number(c1, ct)};")
            lines.append(f"coeff2={_format_number(c2, ct)};")
            lines.append(f"{nid}=coeff1*{p1}+coeff2*{p2};")
    lines.append(f"# outputs: {','.join(g.outputs)}")
    return "\n".join(lines) + "\n"


def export_compgraph(g: ComputationGraph, path: str):
    """Write the graph to ``path`` in CGR format (UTF-8, LF line endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_cgr(g))


# -- parsing -----------------------------------------------------------------


_HEADER_RE = re.compile(r'^graph_coeff_type\s*=\s*"([^"]+)"\s*;$')
_COEFF_RE = re.compile(r"^coeff([12])\s*=\s*([^;]+?)\s*;$")
_PRODUCT_RE = re.compile(r"^(\w+)\s*=\s*(\w+)\s*([*\\])\s*(\w+)\s*;$")
_LINCOMB_RE = re.compile(
    r"^(\w+)\s*=\s*coeff1\s*\*\s*(\w+)\s*\+\s*coeff2\s*\*\s*(\w+)\s*;$"
)


def _check_assigned_id(nid: str, lineno: int):
    # the writer refuses these ids, so a file that assigns one cannot round-trip
    if _RESERVED_WORDS_RE.match(nid):
        raise CgrError(f"node id {nid!r} collides with a format keyword", lineno)


def parse_cgr(text: str) -> ComputationGraph:
    pending: dict[int, object] = {}
    metadata: dict[str, str] = {}
    outputs = None  # (line, ids) of the "# outputs" comment
    input_line, input_id = None, "A"
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = (part.strip() for part in line[1:].partition(":"))
            if sep and key == "outputs":
                outputs = (lineno, [o.strip() for o in value.split(",") if o.strip()])
            elif sep and key == "input":
                input_line, input_id = lineno, value
            elif sep:
                metadata[key] = value
            continue
        statements.append((lineno, line))
    if not statements:
        raise CgrError("empty file: missing graph_coeff_type header")
    lineno, header = statements[0]
    mobj = _HEADER_RE.match(header)
    if not mobj:
        raise CgrError("first statement must declare graph_coeff_type", lineno)
    try:
        ct = CoeffType.from_tag(mobj.group(1))
    except ValueError as exc:
        raise CgrError(str(exc), lineno) from exc
    # the graph enforces the id, parent and duplicate rules; its GraphError
    # is reported against the line being read
    lineno = input_line
    try:
        g = ComputationGraph(ct, input_id)
        for lineno, line in statements[1:]:
            # each regex runs only on the lines it can match
            mobj = _COEFF_RE.match(line) if line.startswith("coeff") else None
            if mobj:
                slot = int(mobj.group(1))
                if slot in pending:
                    raise CgrError(f"coeff{slot} bound twice before use", lineno)
                pending[slot] = _parse_number(mobj.group(2), ct, lineno)
                continue
            mobj = _LINCOMB_RE.match(line) if "coeff1" in line else None
            if mobj:
                target, p1, p2 = mobj.groups()
                _check_assigned_id(target, lineno)
                if 1 not in pending or 2 not in pending:
                    raise CgrError(
                        "linear combination without preceding coeff1/coeff2 bindings", lineno
                    )
                g.add_lincomb(target, pending.pop(1), p1, pending.pop(2), p2)
                continue
            if pending:
                raise CgrError("dangling coeff bindings before a non-lincomb statement", lineno)
            mobj = _PRODUCT_RE.match(line)
            if not mobj:
                raise CgrError(f"unrecognized statement {line!r}", lineno)
            target, p1, op, p2 = mobj.groups()
            _check_assigned_id(target, lineno)
            (g.add_mult if op == "*" else g.add_ldiv)(target, p1, p2)
        if pending:
            raise CgrError("file ends with dangling coeff bindings", lineno)
        g.metadata = metadata
        # without an outputs comment the output is the last node assigned
        lineno, ids = outputs or (None, list(g.operations)[-1:])
        g.set_outputs(ids)
    except GraphError as exc:
        raise CgrError(str(exc), lineno) from exc
    return g


def import_compgraph(path: str) -> ComputationGraph:
    """Parse a CGR file into a graph."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cgr(fh.read())
