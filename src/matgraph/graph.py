"""The DAG data model for matrix algorithms.

Every non-input node is produced from two parent nodes by one of three
operations: linear combination (with two tunable coefficients), matrix
multiplication, or linear solve.  The two reserved input identifiers are
``"I"`` (identity) and the graph's input id (``"A"`` unless overridden).

Structural mutation lives here: adding/removing/renaming nodes, output
management, topological ordering, compression, merging, and coefficient
access by :class:`CoeffRef` addresses.
"""

from __future__ import annotations

import heapq
import re
from enum import Enum
from typing import Iterable, NamedTuple

from .numerics import CoeffType, convert_scalar


class OpKind(str, Enum):
    LINCOMB = "lincomb"
    MULT = "mult"
    LDIV = "ldiv"


class CoeffRef(NamedTuple):
    """Address of one tunable scalar: a linear-combination node and slot 1 or 2."""

    node: str
    slot: int


class GraphError(ValueError):
    pass


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

IDENTITY_ID = "I"
DEFAULT_INPUT_ID = "A"


class ComputationGraph:
    """DAG of named nodes with per-node operation, parents, and coefficients.

    The four core fields mirror the storage layout used throughout this
    package: ``operations``, ``parents``, ``coeffs`` (linear-combination
    nodes only), and the ordered ``outputs`` list.
    """

    def __init__(self, coeff_type: CoeffType = CoeffType(), input_id: str = DEFAULT_INPUT_ID):
        if not _ID_RE.fullmatch(input_id) or input_id == IDENTITY_ID:
            raise GraphError(f"invalid input id {input_id!r}")
        self.operations: dict[str, OpKind] = {}
        self.parents: dict[str, tuple[str, str]] = {}
        self.coeffs: dict[str, tuple] = {}
        self.outputs: list[str] = []
        self.coeff_type = coeff_type
        self.input_id = input_id
        self.metadata: dict[str, str] = {}
        # ids referenced as parents but not defined: left by renaming an input
        self._dangling: set[str] = set()

    # -- basic queries ------------------------------------------------------

    @property
    def input_ids(self) -> set[str]:
        return {IDENTITY_ID, self.input_id}

    def __eq__(self, other):
        if not isinstance(other, ComputationGraph):
            return NotImplemented
        return (
            self.operations == other.operations
            and self.parents == other.parents
            and self.coeffs == other.coeffs
            and self.outputs == other.outputs
            and self.coeff_type == other.coeff_type
            and self.input_id == other.input_id
        )

    def copy(self) -> "ComputationGraph":
        return convert_precision(self, self.coeff_type)

    # -- node insertion -----------------------------------------------------

    def _check_new_id(self, nid: str):
        if not isinstance(nid, str) or not _ID_RE.fullmatch(nid):
            raise GraphError(f"invalid node id {nid!r}")
        if nid in self.operations:
            raise GraphError(f"duplicate node id {nid!r}")
        if nid == IDENTITY_ID or nid == self.input_id:
            raise GraphError(f"node id {nid!r} collides with a reserved input id")

    def _check_parent(self, nid, p):
        if p in self.operations or p in self.input_ids:
            return
        raise GraphError(f"unknown parent {p!r} for node {nid!r}")

    def _insert(self, nid: str, kind: OpKind, p1: str, p2: str, c1=None, c2=None):
        self._check_new_id(nid)
        self._check_parent(nid, p1)
        self._check_parent(nid, p2)
        if kind == OpKind.LINCOMB:
            if c1 is None or c2 is None:
                raise GraphError("linear combination requires two coefficients")
            coeffs = (convert_scalar(c1, self.coeff_type), convert_scalar(c2, self.coeff_type))
        elif c1 is not None or c2 is not None:
            raise GraphError(f"{kind.value} node takes no coefficients")
        if nid in self._dangling:
            # grafting closes a cycle if an ancestor already lists nid as a parent
            seen, stack = set(), [p1, p2]
            while stack:
                v = stack.pop()
                if v in self.parents and v not in seen:
                    if nid in self.parents[v]:
                        raise GraphError(f"inserting {nid!r} would create a cycle")
                    seen.add(v)
                    stack.extend(self.parents[v])
            self._dangling.discard(nid)
        self.operations[nid] = kind
        self.parents[nid] = (p1, p2)
        if kind == OpKind.LINCOMB:
            self.coeffs[nid] = coeffs

    def add_lincomb(self, nid: str, c1, p1: str, c2, p2: str):
        """Add the node ``nid = c1*p1 + c2*p2``."""
        self._insert(nid, OpKind.LINCOMB, p1, p2, c1, c2)

    def add_mult(self, nid: str, p1: str, p2: str):
        """Add the node ``nid = p1*p2``."""
        self._insert(nid, OpKind.MULT, p1, p2)

    def add_ldiv(self, nid: str, p1: str, p2: str):
        """Add the node ``nid = p1 \\ p2`` (solve p1 * nid = p2)."""
        self._insert(nid, OpKind.LDIV, p1, p2)

    def add_sum(self, nid: str, terms: Iterable[tuple]) -> list[CoeffRef]:
        """Add ``nid = sum of alpha_j * node_j`` as a chain of binary nodes.

        Intermediate nodes are named ``<nid>_sum<k>``.  Returns the refs
        addressing the term coefficients, in term order.
        """
        terms = list(terms)
        if len(terms) < 2:
            raise GraphError("add_sum needs at least two terms")
        refs: list[CoeffRef] = []
        alpha0, n0 = terms[0]
        alpha1, n1 = terms[1]
        first = nid if len(terms) == 2 else f"{nid}_sum1"
        self.add_lincomb(first, alpha0, n0, alpha1, n1)
        refs.append(CoeffRef(first, 1))
        refs.append(CoeffRef(first, 2))
        prev = first
        for k, (alpha, nk) in enumerate(terms[2:], start=2):
            cur = nid if k == len(terms) - 1 else f"{nid}_sum{k}"
            self.add_lincomb(cur, 1.0, prev, alpha, nk)
            refs.append(CoeffRef(cur, 2))
            prev = cur
        return refs

    # -- node removal / renaming -------------------------------------------

    def del_node(self, nid: str):
        if nid not in self.operations:
            raise GraphError(f"unknown node {nid!r}")
        for other, (p1, p2) in self.parents.items():
            if other != nid and nid in (p1, p2):
                raise GraphError(f"cannot delete {nid!r}: node {other!r} references it")
        if nid in self.outputs:
            raise GraphError(f"cannot delete output node {nid!r}")
        _drop(self, nid)

    def rename_node(self, old: str, new: str, crefs: list[CoeffRef] | None = None):
        """Rewrite every occurrence of ``old`` to ``new``.

        Renaming the input id re-points all references to it, leaving them
        dangling until a node named ``new`` is added (grafting); until then
        evaluation, which binds the input id, raises "unresolved parent".
        A cref list passed in is rewritten in place.
        """
        known = old in self.operations or old in self.input_ids
        if not known:
            raise GraphError(f"unknown node {old!r}")
        self._check_new_id(new)
        for (p1, p2) in self.parents.values():
            if new in (p1, p2):
                raise GraphError(f"id {new!r} already referenced in the graph")
        if old in self.operations:
            self.operations[new] = self.operations.pop(old)
            self.parents[new] = self.parents.pop(old)
            if old in self.coeffs:
                self.coeffs[new] = self.coeffs.pop(old)
        else:
            self._dangling.add(new)
        _retarget(self, old, new)
        if crefs is not None:
            for i, ref in enumerate(crefs):
                if ref.node == old:
                    crefs[i] = CoeffRef(new, ref.slot)

    # -- outputs ------------------------------------------------------------

    def _check_output(self, nid: str):
        if nid not in self.operations and nid not in self.input_ids:
            raise GraphError(f"unknown output node {nid!r}")

    def add_output(self, nid: str):
        self._check_output(nid)
        self.outputs.append(nid)

    def set_outputs(self, ids: Iterable[str]):
        ids = list(ids)
        for nid in ids:
            self._check_output(nid)
        self.outputs = ids

    def clear_outputs(self):
        self.outputs = []

    # -- coefficient access ---------------------------------------------------

    def _check_ref(self, ref: CoeffRef):
        node, slot = ref
        if node not in self.coeffs:
            raise GraphError(f"{node!r} is not a linear-combination node")
        if slot not in (1, 2):
            raise GraphError(f"invalid coefficient slot {slot!r}")

    def get_coeffs(self, refs: Iterable[CoeffRef]) -> list:
        out = []
        for ref in refs:
            ref = CoeffRef(*ref)
            self._check_ref(ref)
            out.append(self.coeffs[ref.node][ref.slot - 1])
        return out

    def set_coeffs(self, refs: Iterable[CoeffRef], vals: Iterable):
        refs = [CoeffRef(*r) for r in refs]
        vals = list(vals)
        if len(refs) != len(vals):
            raise GraphError("refs and values must have equal length")
        for ref, v in zip(refs, vals):
            self._check_ref(ref)
            c1, c2 = self.coeffs[ref.node]
            v = convert_scalar(v, self.coeff_type)
            self.coeffs[ref.node] = (v, c2) if ref.slot == 1 else (c1, v)

    def all_coeff_refs(self) -> list[CoeffRef]:
        """Every coefficient slot of every linear combination, sorted by id."""
        return [CoeffRef(nid, s) for nid in sorted(self.coeffs) for s in (1, 2)]

    # -- structure checks -----------------------------------------------------

    def validate(self):
        """Raise unless the structural invariants hold.

        Parent references must resolve (no dangling grafts left behind),
        the graph must be acyclic, and outputs must exist.
        """
        if set(self.operations) != set(self.parents):
            raise GraphError("operations and parents key sets differ")
        if set(self.coeffs) != {n for n, op in self.operations.items() if op == OpKind.LINCOMB}:
            raise GraphError("coeffs keys must be exactly the linear-combination nodes")
        for nid, (p1, p2) in self.parents.items():
            for p in (p1, p2):
                if p not in self.operations and p not in self.input_ids:
                    raise GraphError(f"dangling parent reference {p!r} of {nid!r}")
        for o in self.outputs:
            self._check_output(o)
        get_topo_order(self, all_nodes=True)  # raises on cycles


# ---------------------------------------------------------------------------
# module-level operations


def get_topo_order(g: ComputationGraph, all_nodes: bool = False) -> list[str]:
    """Topological order of the nodes the outputs transitively depend on.

    Deterministic: among ready nodes the lexicographically smallest id is
    taken first.  With ``all_nodes=True`` unreachable nodes are included
    (used for validation).
    """
    wanted = set(g.operations) if all_nodes else _live(g)
    remaining: dict[str, int] = {}
    dependents: dict[str, list[str]] = {}
    ready: list[str] = []
    for nid in wanted:
        deps = {p for p in g.parents[nid] if p in wanted}
        remaining[nid] = len(deps)
        for p in deps:
            dependents.setdefault(p, []).append(nid)
        if not deps:
            ready.append(nid)
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in dependents.get(v, ()):
            remaining[w] -= 1
            if remaining[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(wanted):
        raise GraphError("graph contains a cycle")
    return order


def _live(g: ComputationGraph) -> set[str]:
    """The nodes the outputs transitively depend on, outputs included."""
    live: set[str] = set()
    stack = list(g.outputs)
    while stack:
        v = stack.pop()
        if v not in live and v in g.operations:
            live.add(v)
            stack.extend(g.parents[v])
    return live


def _retarget(g: ComputationGraph, old: str, new: str):
    """Rewrite references to ``old`` (parents and outputs) to ``new``."""
    g.parents = {
        nid: (new if p1 == old else p1, new if p2 == old else p2)
        for nid, (p1, p2) in g.parents.items()
    }
    g.outputs = [new if o == old else o for o in g.outputs]


def _drop(g: ComputationGraph, nid: str):
    del g.operations[nid]
    del g.parents[nid]
    g.coeffs.pop(nid, None)


def compress_graph(g: ComputationGraph):
    """Remove dangling, trivial, redundant, and pass-through nodes, to fixpoint.

    Output nodes are never removed.  Pass-through elimination is
    conservative: a linear combination is bypassed only when it is exactly
    ``1*p + 0*q`` or ``0*p + 1*q``, so evaluation is unchanged in exact
    arithmetic.  Each sweep removes the dangling nodes first; they are
    never parents of live nodes, so the fixpoint ends after the first sweep
    in which the other three scans remove nothing.
    """
    one = convert_scalar(1, g.coeff_type)
    zero = convert_scalar(0, g.coeff_type)
    changed = True
    while changed:
        # dangling: nodes no output depends on
        for n in set(g.operations) - _live(g):
            _drop(g, n)
        changed = False
        # trivial: identity operand of mult/ldiv
        for nid in sorted(g.operations):
            op = g.operations[nid]
            p1, p2 = g.parents[nid]
            alias = None
            if op != OpKind.LINCOMB and p1 == IDENTITY_ID:
                alias = p2
            elif op == OpKind.MULT and p2 == IDENTITY_ID:
                alias = p1
            if alias is not None and nid not in g.outputs:
                _retarget(g, nid, alias)
                _drop(g, nid)
                changed = True
        # redundant: structurally identical nodes
        seen: dict[tuple, str] = {}
        for nid in sorted(g.operations):
            key = (g.operations[nid], g.parents[nid], g.coeffs.get(nid))
            survivor = seen.get(key)
            if survivor is None:
                seen[key] = nid
            elif nid not in g.outputs:
                _retarget(g, nid, survivor)
                _drop(g, nid)
                changed = True
        # pass-through: unit/zero coefficient pairs
        for nid in sorted(g.operations):
            if g.operations.get(nid) != OpKind.LINCOMB or nid in g.outputs:
                continue
            c1, c2 = g.coeffs[nid]
            p1, p2 = g.parents[nid]
            alias = None
            if c1 == one and c2 == zero:
                alias = p1
            elif c1 == zero and c2 == one:
                alias = p2
            if alias is not None:
                _retarget(g, nid, alias)
                _drop(g, nid)
                changed = True


def merge_graph(g1: ComputationGraph, g2: ComputationGraph) -> ComputationGraph:
    """Disjoint union over the shared inputs; colliding ids of g2 get suffixed.

    A g2 id (a node or a pending graft) collides when it names a g1 node, an
    input or one of g1's pending grafts; its new id avoids those, every g2
    id and every new id already handed out.
    """
    if g1.input_id != g2.input_id:
        raise GraphError("cannot merge graphs with different input ids")
    prec = None
    for p in (g1.coeff_type.prec, g2.coeff_type.prec):
        if p is not None:
            prec = p if prec is None else max(prec, p)
    ct = CoeffType(prec, g1.coeff_type.is_complex or g2.coeff_type.is_complex)
    out, g2 = convert_precision(g1, ct), convert_precision(g2, ct)
    colliding = set(g1.operations) | g1.input_ids | g1._dangling
    taken = colliding | set(g2.operations) | g2._dangling
    mapping: dict[str, str] = {}
    for nid in [*g2.operations, *sorted(g2._dangling)]:
        new = nid
        if nid in colliding:
            while new in taken:
                new = new + "_b"
            taken.add(new)
        mapping[nid] = new
    out._dangling |= {mapping[d] for d in g2._dangling}
    for nid in g2.operations:
        new = mapping[nid]
        p1, p2 = g2.parents[nid]
        out.operations[new] = g2.operations[nid]
        out.parents[new] = (mapping.get(p1, p1), mapping.get(p2, p2))
        if nid in g2.coeffs:
            out.coeffs[new] = g2.coeffs[nid]
    out.outputs.extend(mapping.get(o, o) for o in g2.outputs)
    return out


def convert_precision(g: ComputationGraph, ct: CoeffType) -> ComputationGraph:
    """Copy of ``g`` with all coefficients rounded to the target kind.

    This is the one place that lists a graph's fields: ``copy`` and
    ``merge_graph`` start from it.
    """
    out = ComputationGraph(ct, g.input_id)
    out.operations = dict(g.operations)
    out.parents = dict(g.parents)
    out.outputs = list(g.outputs)
    out.metadata = dict(g.metadata)
    out._dangling = set(g._dangling)
    out.coeffs = dict(g.coeffs) if ct == g.coeff_type else {
        nid: (convert_scalar(c1, ct), convert_scalar(c2, ct))
        for nid, (c1, c2) in g.coeffs.items()
    }
    return out
