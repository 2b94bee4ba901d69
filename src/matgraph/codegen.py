"""Emit standalone MATLAB or C source evaluating a graph at a dense matrix.

The emission order comes from a greedy list scheduler that tries to keep
the number of simultaneously live n-by-n temporaries small: among ready
nodes it prefers one whose scheduling frees the most dead buffers, with
lexicographic tie-breaks for determinism.  Buffers are reused out of
place; in-place updates are not exploited.

The C target binds to four shim kernels (multiply, two-term scaled add,
solve, copy) declared in an emitted header, so the file links against any
BLAS/LAPACK wrapper the user provides.  Fused multi-term linear
combinations are emitted as plain loops.
"""

from __future__ import annotations

import heapq
import os
import re
from dataclasses import dataclass
from enum import Enum

import mpmath

from .graph import IDENTITY_ID, ComputationGraph, GraphError, OpKind, _live


class Dialect(str, Enum):
    MATLAB = "matlab"
    C_BLAS = "c"


@dataclass
class EmitTarget:
    dialect: Dialect = Dialect.MATLAB
    function_name: str = "evalgraph"
    fuse_lincomb: bool = True

    def __post_init__(self):
        self.dialect = Dialect(self.dialect)
        if not self.function_name.isidentifier() or _reserved(self.function_name):
            raise GraphError(f"invalid function name {self.function_name!r}")


@dataclass
class Schedule:
    order: list[str]
    slot_assignment: dict[str, int]
    peak_buffers: int


def _schedule_kary(node_parents: dict[str, tuple], outputs: list[str]) -> Schedule:
    """Greedy list scheduling over nodes with arbitrary parent arity.

    Picks the ready node that frees the most buffers, the smallest id on a
    tie.  A ready node's count only grows (when a parent gets down to its
    last use), so a heap on ``(-frees, id)`` that skips stale entries makes
    the same picks as rescanning the ready set, in O(E log V).
    """
    keep = set(outputs)
    frees: dict[str, int] = {}  # ready node -> its parents' buffers that die with it
    heap: list[tuple[int, str]] = []

    def push(nid, n):
        frees[nid] = n
        heapq.heappush(heap, (-n, nid))

    uses: dict[str, int] = {}  # unscheduled distinct children
    pending: dict[str, int] = {}  # unscheduled distinct parents in the graph
    children: dict[str, list[str]] = {}
    for nid, ps in node_parents.items():
        deps = {p for p in ps if p in node_parents}
        pending[nid] = len(deps)
        for p in deps:
            uses[p] = uses.get(p, 0) + 1
            children.setdefault(p, []).append(nid)
        if not deps:
            push(nid, 0)
    # every slot handed out is either held by a live node or free
    live: dict[str, int] = {}
    free: list[int] = []
    order: list[str] = []
    slots: dict[str, int] = {}
    while heap:
        neg, nid = heapq.heappop(heap)
        if frees.get(nid) != -neg:
            continue  # scheduled already, or pushed again with a larger count
        del frees[nid]
        slots[nid] = live[nid] = free.pop() if free else len(live)
        order.append(nid)
        # release in parent order (a repeated parent once): the last slot
        # released is the first reused, so the order fixes the emitted code
        for p in dict.fromkeys(node_parents[nid]):
            if p in uses:
                uses[p] -= 1
                if p not in keep and uses[p] == 0:
                    free.append(live.pop(p))
                elif p not in keep and uses[p] == 1:
                    for c in children[p]:
                        if c in frees:
                            push(c, frees[c] + 1)
        for c in children.get(nid, ()):
            pending[c] -= 1
            if pending[c] == 0:
                push(c, sum(p not in keep and uses.get(p) == 1 for p in set(node_parents[c])))
    if len(order) != len(node_parents):
        raise GraphError("cycle detected while scheduling")
    return Schedule(order, slots, len(live) + len(free))


def plan_schedule(g: ComputationGraph) -> Schedule:
    """Memory-aware topological schedule of the nodes the outputs need."""
    return _schedule_kary({nid: g.parents[nid] for nid in _live(g)}, g.outputs)


# ---------------------------------------------------------------------------
# fusion planning


def _emission_plan(g: ComputationGraph, fuse: bool):
    """Terms to emit per materialized node.

    Returns (node_terms, node_parents) where node_terms maps a
    linear-combination node to its flattened [(coeff, operand), ...] list;
    chains of single-use linear combinations are inlined when fusing.
    """
    wanted = _live(g)
    children: dict[str, list[str]] = {}
    for nid in wanted:
        for p in g.parents[nid]:
            if p in wanted:
                children.setdefault(p, []).append(nid)
    inlined: set[str] = set()
    if fuse:
        for nid in wanted:
            if (
                g.operations[nid] == OpKind.LINCOMB
                and nid not in g.outputs
                and len(children.get(nid, [])) == 1
                and g.operations[children[nid][0]] == OpKind.LINCOMB
            ):
                inlined.add(nid)

    def expand(nid, scale):
        c1, c2 = g.coeffs[nid]
        out = []
        for c, p in ((scale * c1, g.parents[nid][0]), (scale * c2, g.parents[nid][1])):
            if p in inlined:
                out.extend(expand(p, c))
            else:
                out.append((c, p))
        return out

    node_terms = {}
    node_parents = {}
    for nid in wanted:
        if nid in inlined:
            continue
        if g.operations[nid] == OpKind.LINCOMB:
            terms = expand(nid, 1.0) if fuse else \
                [(g.coeffs[nid][0], g.parents[nid][0]), (g.coeffs[nid][1], g.parents[nid][1])]
            node_terms[nid] = terms
            node_parents[nid] = tuple(p for _, p in terms)
        else:
            node_parents[nid] = g.parents[nid]
    return node_terms, node_parents


def _fmt(c) -> str:
    if isinstance(c, (complex, mpmath.mpc)):
        c = complex(c)
        re, im = repr(c.real), repr(c.imag)
        return f"({re} + {im}i)" if im[0] != "-" else f"({re} - {im[1:]}i)"
    return repr(float(c))


_C_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do", "double",
    "else", "enum", "extern", "float", "for", "goto", "if", "inline", "int", "long",
    "register", "restrict", "return", "short", "signed", "sizeof", "static", "struct",
    "switch", "typedef", "union", "unsigned", "void", "volatile", "while",
}

_MATLAB_KEYWORDS = {
    "break", "case", "catch", "classdef", "continue", "else", "elseif", "end", "for",
    "function", "global", "if", "otherwise", "parfor", "persistent", "return", "spmd",
    "switch", "try", "while",
}

#: the names the emitted code itself uses, besides ``coeffN``, ``outN`` and
#: the function name and its header guard
_EMITTED = {
    "A", "I", "Ieye", "n", "nn", "k", "i", "work", "output", "size", "eye",
    "calloc", "free", "size_t", "mgk_mult", "mgk_lincomb", "mgk_solve", "mgk_copy",
}

_RESERVED = _C_KEYWORDS | _MATLAB_KEYWORDS | _EMITTED
_NUMBERED = re.compile(r"(coeff|out)[0-9]+")


def _reserved(name: str) -> bool:
    """A name no graph id may be emitted as; ``v_`` prefixes keep the map injective."""
    return name in _RESERVED or name.startswith("v_") or bool(_NUMBERED.fullmatch(name))


def _guard(fn: str) -> str:
    return f"{fn.upper()}_H"


def _namer(g: ComputationGraph, target: EmitTarget):
    """Map node ids to emission-safe variable names, one to one.

    An id that is reserved, the function name or its header guard, or that
    starts with ``v_`` gets a ``v_`` prefix: no prefixed name is reserved,
    and no unprefixed name starts with ``v_``, so no two ids meet.
    """
    fn = target.function_name
    own = {fn, _guard(fn)}
    identity = "I" if target.dialect == Dialect.MATLAB else "Ieye"

    def name(nid):
        if nid == g.input_id:
            return "A"
        if nid == IDENTITY_ID:
            return identity
        return "v_" + nid if _reserved(nid) or nid in own else nid

    return name


# ---------------------------------------------------------------------------
# MATLAB


def _gen_matlab(g: ComputationGraph, target: EmitTarget) -> str:
    node_terms, node_parents = _emission_plan(g, target.fuse_lincomb)
    sched = _schedule_kary(node_parents, g.outputs)
    outs = [f"out{i + 1}" for i in range(len(g.outputs))] if len(g.outputs) > 1 else ["output"]
    name = _namer(g, target)
    head = outs[0] if len(outs) == 1 else "[" + ", ".join(outs) + "]"
    lines = [f"function {head} = {target.function_name}(A)", "    n = size(A,1);"]
    uses_identity = any("I" in ps for ps in node_parents.values()) or "I" in g.outputs
    if uses_identity:
        lines.append("    I = eye(n,n);")
    lines.append("")
    for nid in sched.order:
        kind = g.operations[nid]
        p = node_parents[nid]
        if kind == OpKind.LINCOMB:
            terms = node_terms[nid]
            for i, (c, _) in enumerate(terms):
                lines.append(f"    coeff{i + 1} = {_fmt(c)};")
            expr = " + ".join(f"coeff{i + 1}*{name(pi)}" for i, (_, pi) in enumerate(terms))
            lines.append(f"    {name(nid)} = {expr};")
        elif kind == OpKind.MULT:
            lines.append(f"    {name(nid)} = {name(p[0])} * {name(p[1])};")
        else:
            lines.append(f"    {name(nid)} = {name(p[0])} \\ {name(p[1])};")
        lines.append("")
    for var, o in zip(outs, g.outputs):
        lines.append(f"    {var} = {name(o)};")
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# C


_C_HEADER = """\
#ifndef {guard}
#define {guard}

/* Kernel shims: bind these to any BLAS/LAPACK at link time.
 * All matrices are dense n-by-n, column order irrelevant as long as it is
 * consistent, out must not alias the inputs. */
void mgk_mult(int n, const double *x, const double *y, double *out);    /* out = x*y  */
void mgk_lincomb(int n, double a, const double *x, double b, const double *y,
                 double *out);                                          /* out = a*x + b*y */
void mgk_solve(int n, const double *x, const double *y, double *out);   /* out = x \\ y */
void mgk_copy(int n, const double *x, double *out);

void {fn}(int n, const double *A, double *output);

#endif
"""


def _gen_c(g: ComputationGraph, target: EmitTarget) -> tuple[str, str]:
    if len(g.outputs) != 1:
        raise GraphError("the C target supports a single output")
    if g.coeff_type.is_complex:
        raise GraphError("the C target emits real binary64 code only")
    node_terms, node_parents = _emission_plan(g, target.fuse_lincomb)
    sched = _schedule_kary(node_parents, g.outputs)
    uses_identity = any("I" in ps for ps in node_parents.values()) or "I" in g.outputs
    fn = target.function_name
    name = _namer(g, target)
    header = _C_HEADER.format(guard=_guard(fn), fn=fn)
    nbuf = max(sched.peak_buffers, 1)
    lines = [
        f'#include "{fn}.h"',
        "#include <stdlib.h>",
        "",
        f"void {fn}(int n, const double *A, double *output)",
        "{",
        "    const long nn = (long) n * n;",
        f"    double *work = (double *) calloc((size_t) nn * {nbuf}, sizeof(double));",
    ]
    if uses_identity:
        lines += [
            "    double *Ieye = (double *) calloc((size_t) nn, sizeof(double));",
            "    for (int i = 0; i < n; i++) Ieye[(long) i * n + i] = 1.0;",
        ]
    lines.append("")
    for nid in sched.order:
        slot = sched.slot_assignment[nid]
        lines.append(f"    double *{name(nid)} = work + nn * {slot};")
        kind = g.operations[nid]
        p = node_parents[nid]
        if kind == OpKind.MULT:
            lines.append(f"    mgk_mult(n, {name(p[0])}, {name(p[1])}, {name(nid)});")
        elif kind == OpKind.LDIV:
            lines.append(f"    mgk_solve(n, {name(p[0])}, {name(p[1])}, {name(nid)});")
        else:
            terms = node_terms[nid]
            if len(terms) == 2:
                (c1, p1), (c2, p2) = terms
                lines.append(
                    f"    mgk_lincomb(n, {_fmt(c1)}, {name(p1)}, {_fmt(c2)}, {name(p2)}, {name(nid)});"
                )
            else:
                expr = " + ".join(f"{_fmt(c)}*{name(pi)}[k]" for c, pi in terms)
                lines.append(f"    for (long k = 0; k < nn; k++) {name(nid)}[k] = {expr};")
        lines.append("")
    out = g.outputs[0]
    lines.append(f"    mgk_copy(n, {name(out)}, output);")
    lines.append("    free(work);")
    if uses_identity:
        lines.append("    free(Ieye);")
    lines.append("}")
    return "\n".join(lines) + "\n", header


def gen_code(g: ComputationGraph, target: EmitTarget, path: str | None = None) -> str:
    """Emit source for the graph; writes ``path`` (plus a header for C).

    Returns the main source text.  The MATLAB dialect mirrors the node
    structure directly; the C dialect allocates a workspace of
    peak-buffer n-by-n arrays and calls the shim kernels.
    """
    if not g.outputs:
        raise GraphError("graph has no output nodes")
    if target.dialect == Dialect.MATLAB:
        src = _gen_matlab(g, target)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(src)
        return src
    src, header = _gen_c(g, target)
    if path:
        base, ext = os.path.splitext(path)
        cpath = path if ext == ".c" else base + ".c"
        with open(cpath, "w", encoding="utf-8") as fh:
            fh.write(src)
        with open(base + ".h", "w", encoding="utf-8") as fh:
            fh.write(header)
    return src
