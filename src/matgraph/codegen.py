"""Emit standalone MATLAB or C source evaluating a graph at a dense matrix.

The emission order comes from a greedy list scheduler that tries to keep
the number of simultaneously live n-by-n temporaries small: among ready
nodes it prefers one whose scheduling frees the most dead buffers, the
smallest id on a tie.  It ranks the V nodes by id and keys each ready
node by the int ``rank - frees * V``, so the least key is that pick.
Buffers are reused out of place; in-place updates are not exploited.

The C target binds to four shim kernels (multiply, two-term scaled add,
solve, copy) declared in an emitted header, so the file links against any
BLAS/LAPACK wrapper the user provides.  Fused multi-term linear
combinations are emitted as plain loops.
"""

from __future__ import annotations

import cmath
import heapq
import os
import re
from dataclasses import dataclass
from enum import Enum

import mpmath
from mpmath import mp

from .graph import _ID_RE, IDENTITY_ID, ComputationGraph, GraphError, OpKind, _live


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
        if not _ID_RE.fullmatch(self.function_name) or _reserved(self.function_name):
            raise GraphError(f"invalid function name {self.function_name!r}")


@dataclass
class Schedule:
    order: list[str]
    slot_assignment: dict[str, int]
    peak_buffers: int


def _schedule_kary(node_parents: dict[str, tuple], outputs: list[str]) -> Schedule:
    """Greedy list scheduling over nodes with arbitrary parent arity.

    Picks the ready node that frees the most buffers, the smallest id on a
    tie.  Nodes are ranked by id, so the pick is the ready node of least
    ``rank - frees * n``: ``0 <= rank < n`` makes a larger count win and
    the rank break ties.  A ready node's count only grows (when a parent
    gets down to its last use), so a heap of these ints that skips stale
    entries makes the same picks as rescanning the ready set, in
    O(E log V).
    """
    ids = sorted(node_parents)
    n = len(ids)
    rank = {nid: r for r, nid in enumerate(ids)}
    keep = set(outputs)
    kept = [nid in keep for nid in ids]
    # distinct parents in the graph, in first-use order: the last slot
    # released is the first reused, so this order fixes the emitted code
    parents = [[rank[p] for p in dict.fromkeys(node_parents[nid]) if p in rank] for nid in ids]
    children: list[list[int]] = [[] for _ in ids]
    uses = [0] * n  # unscheduled distinct children
    pending = [len(ps) for ps in parents]  # unscheduled distinct parents
    for r, ps in enumerate(parents):
        for p in ps:
            uses[p] += 1
            children[p].append(r)
    key: list[int | None] = [None] * n  # a ready node's current heap entry
    heap = [r for r in range(n) if not pending[r]]  # ascending, so a heap
    for r in heap:
        key[r] = r
    # every slot handed out is either held by a live node or free
    slot = [0] * n
    free: list[int] = []
    nslots = 0
    order: list[int] = []
    while heap:
        k = heapq.heappop(heap)
        r = k % n
        if key[r] != k:
            continue  # scheduled already, or pushed again with a larger count
        key[r] = None
        if free:
            slot[r] = free.pop()
        else:
            slot[r] = nslots
            nslots += 1
        order.append(r)
        for p in parents[r]:
            uses[p] -= 1
            if kept[p]:
                continue
            if uses[p] == 0:
                free.append(slot[p])
            elif uses[p] == 1:
                for c in children[p]:
                    if key[c] is not None:
                        key[c] -= n
                        heapq.heappush(heap, key[c])
        for c in children[r]:
            pending[c] -= 1
            if not pending[c]:
                k = c
                for p in parents[c]:
                    if uses[p] == 1 and not kept[p]:
                        k -= n
                key[c] = k
                heapq.heappush(heap, k)
    if len(order) != n:
        raise GraphError("cycle detected while scheduling")
    return Schedule([ids[r] for r in order], {ids[r]: slot[r] for r in order}, nslots)


def plan_schedule(g: ComputationGraph) -> Schedule:
    """Memory-aware topological schedule of the nodes the outputs need.

    Raises GraphError when one of them reads an id still to be grafted.
    """
    return _schedule_kary({nid: g.parents[nid] for nid in _live_resolved(g)}, g.outputs)


def _live_resolved(g: ComputationGraph) -> set[str]:
    """The nodes the outputs need; a parent or output still to be grafted is refused."""
    wanted = _live(g)
    inputs = g.input_ids
    unresolved = sorted((p, nid) for nid in wanted for p in g.parents[nid]
                        if p not in wanted and p not in inputs)
    if unresolved:
        raise GraphError("unresolved parent {!r} of node {!r}".format(*unresolved[0]))
    for o in g.outputs:
        if o not in wanted and o not in inputs:
            raise GraphError(f"unresolved output {o!r}")
    return wanted


# ---------------------------------------------------------------------------
# fusion planning


def _emission_plan(g: ComputationGraph, fuse: bool):
    """Terms to emit per materialized node.

    Returns (node_terms, node_parents) where node_terms maps a
    linear-combination node to its flattened [(coeff, operand), ...] list;
    chains of single-use linear combinations are inlined when fusing.
    Neither dialect has a literal for NaN or infinity, so a coeff that is
    not finite in binary64 raises GraphError.
    """
    wanted = _live_resolved(g)
    ops, parents, coeffs = g.operations, g.parents, g.coeffs
    inlined: set[str] = set()
    if fuse:
        uses: dict[str, int] = {}  # parent occurrences among the live nodes
        user: dict[str, str] = {}  # a parent used once -> its one user
        for nid in wanted:
            for p in parents[nid]:
                uses[p] = uses.get(p, 0) + 1
                user[p] = nid
        keep = set(g.outputs)
        inlined = {nid for nid in wanted
                   if ops[nid] == OpKind.LINCOMB and nid not in keep
                   and uses.get(nid) == 1 and ops[user[nid]] == OpKind.LINCOMB}

    def expand(nid, scale, out):
        (c1, c2), (p1, p2) = coeffs[nid], parents[nid]
        for c, p in ((scale * c1, p1), (scale * c2, p2)):
            if p in inlined:
                expand(p, c, out)
            else:
                out.append((c, p))
        return out

    node_terms = {}
    node_parents = {}
    # fused products are formed at the 53 bits they are printed at, so the
    # emitted text does not follow the caller's mp.prec
    with mp.workprec(53):
        for nid in wanted:
            if nid in inlined:
                continue
            if ops[nid] == OpKind.LINCOMB:
                terms = expand(nid, 1.0, []) if fuse else list(zip(coeffs[nid], parents[nid]))
                bad = [c for c, _ in terms if not cmath.isfinite(c)]
                if bad:
                    raise GraphError(f"node {nid!r}: coefficient {bad[0]} is not finite in binary64")
                node_terms[nid] = terms
                node_parents[nid] = tuple([p for _, p in terms])
            else:
                node_parents[nid] = parents[nid]
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
    """A name no graph id may be emitted as; ``v_`` prefixes keep the map injective.

    A leading underscore is refused too: MATLAB names start with a letter,
    and C reserves ``_T`` and ``__x``.
    """
    return name in _RESERVED or name.startswith(("v_", "_")) or bool(_NUMBERED.fullmatch(name))


def _guard(fn: str) -> str:
    return f"{fn.upper()}_H"


def _namer(g: ComputationGraph, target: EmitTarget):
    """Map node ids to emission-safe variable names, one to one, each named once.

    An id that is reserved, the function name or its header guard, or that
    starts with ``v_`` or ``_`` gets a ``v_`` prefix: no prefixed name is
    one the emitted code uses, and no unprefixed name starts with ``v_``,
    so no two ids meet.
    """
    fn = target.function_name
    own = {fn, _guard(fn)}
    identity = "I" if target.dialect == Dialect.MATLAB else "Ieye"
    ids = {p for ps in g.parents.values() for p in ps}.union(g.operations, g.outputs)
    names = {nid: "v_" + nid if _reserved(nid) or nid in own else nid for nid in ids}
    names[IDENTITY_ID] = identity
    names[g.input_id] = "A"
    return names.__getitem__


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
    peak-buffer n-by-n arrays and calls the shim kernels.  A graph whose
    needed nodes read an id still to be grafted raises GraphError.
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
