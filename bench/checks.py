"""Output checks that do not rely on the code they check.

Each check returns a list of failure messages; an empty list passes.
References are computed here, from mpmath, numpy or the published
literature, never from a stored copy of an earlier run.
"""

from __future__ import annotations

import math
import re

import numpy as np
from mpmath import mp

# Higham, "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3.
HIGHAM_THETA = {
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


def rel_close(name, got, want, tol):
    err = abs(got - want) / abs(want)
    if err <= tol:
        return []
    return [f"{name}: relative deviation {float(err):.3e} above {float(tol):.1e}"]


# -- graphs -------------------------------------------------------------------


def graph_fields(g):
    return (dict(g.operations), dict(g.parents), dict(g.coeffs), list(g.outputs),
            g.coeff_type, g.input_id)


def same_graph(name, got, want):
    """Field-by-field equality, exact in every coefficient."""
    a, b = graph_fields(got), graph_fields(want)
    labels = ("operations", "parents", "coefficients", "outputs", "coefficient type",
              "input id")
    return [f"{name}: {label} differ" for label, x, y in zip(labels, a, b) if x != y]


# -- schedules ----------------------------------------------------------------


def replay(steps, outputs, inputs, declared_peak, name):
    """Replay (node, slot, operands) steps on a bank of buffers.

    Confirms that every operand was computed earlier and still sits in its
    buffer, that no buffer is reassigned while its value is still needed,
    and that the largest number of simultaneously live buffers equals
    ``declared_peak``.  Returns (measured peak, failures).
    """
    fails = []
    step_of = {node: i for i, (node, _, _) in enumerate(steps)}
    last_use = {node: i for i, (node, _, _) in enumerate(steps)}
    for i, (_, _, operands) in enumerate(steps):
        for p in operands:
            if p in last_use:
                last_use[p] = max(last_use[p], i)
    for o in outputs:
        if o in last_use:
            last_use[o] = len(steps)
    holder: dict[int, str] = {}
    slot_of: dict[str, int] = {}
    for i, (node, slot, operands) in enumerate(steps):
        for p in operands:
            if p in inputs:
                continue
            if step_of.get(p, len(steps)) >= i:
                fails.append(f"{name}: {node} reads {p} before it is computed")
            elif holder.get(slot_of[p]) != p:
                fails.append(f"{name}: {p} was overwritten before {node} read it")
        prev = holder.get(slot)
        if prev is not None and last_use[prev] >= i:
            fails.append(f"{name}: {node} overwrites live buffer {slot} holding {prev}")
        holder[slot] = node
        slot_of[node] = slot
    # live at step i: computed at or before i and read at or after i
    delta = [0] * (len(steps) + 2)
    for i, (node, _, _) in enumerate(steps):
        delta[i] += 1
        delta[last_use[node] + 1] -= 1
    peak = live = 0
    for i in range(len(steps)):
        live += delta[i]
        peak = max(peak, live)
    if peak != declared_peak:
        fails.append(f"{name}: replayed peak {peak} buffers, declared {declared_peak}")
    return peak, fails


_DECL = re.compile(r"^\s*double \*(\w+) = work \+ nn \* (\d+);$")
_CALLOC = re.compile(r"calloc\(\(size_t\) nn \* (\d+), sizeof\(double\)\)")
_COPY = re.compile(r"^\s*mgk_copy\(n, (\w+), output\);$")
_IDENT = re.compile(r"[A-Za-z_]\w*")


def c_schedule(src, name):
    """Workspace size of emitted C, confirmed by replaying its statements.

    Returns (buffers, failures); buffers is the n-by-n count the emitted
    code allocates.
    """
    alloc = _CALLOC.search(src)
    if alloc is None:
        return 0, [f"{name}: no workspace allocation in the emitted C"]
    nbuf = int(alloc.group(1))
    lines = src.splitlines()
    steps, outputs = [], []
    declared = set()
    for i, line in enumerate(lines):
        m = _DECL.match(line)
        if m:
            node, slot = m.group(1), int(m.group(2))
            operands = [t for t in _IDENT.findall(lines[i + 1])
                        if t != node and (t in declared or t in ("A", "Ieye"))]
            steps.append((node, slot, operands))
            declared.add(node)
            if slot >= nbuf:
                return nbuf, [f"{name}: buffer {slot} outside the {nbuf}-buffer workspace"]
        m = _COPY.match(line)
        if m:
            outputs.append(m.group(1))
    _, fails = replay(steps, outputs, {"A", "Ieye"}, nbuf, name)
    return nbuf, fails


def plan_schedule_replay(g, sched, name):
    steps = [(nid, sched.slot_assignment[nid],
              [p for p in g.parents[nid] if p in sched.slot_assignment])
             for nid in sched.order]
    reachable = set()
    stack = list(g.outputs)
    while stack:
        v = stack.pop()
        if v in g.operations and v not in reachable:
            reachable.add(v)
            stack.extend(g.parents[v])
    fails = [] if set(sched.order) == reachable else [
        f"{name}: schedule covers {len(sched.order)} nodes, outputs need {len(reachable)}"]
    _, more = replay(steps, g.outputs, g.input_ids, sched.peak_buffers, name)
    return fails + more


# -- scalar references --------------------------------------------------------


def denman_beavers_scalar(lam, steps):
    """x_{k+1} = (x_k + 1/y_k)/2, y_{k+1} = (y_k + 1/x_k)/2 from (lam, 1)."""
    x, y = lam, mp.mpf(1)
    for _ in range(steps):
        x, y = (x + 1 / y) / 2, (y + 1 / x) / 2
    return x


def sqrt_ulps(name, got, x, ulps):
    want = math.sqrt(x)
    err = abs(float(got) - want) / math.ulp(want)
    if err <= ulps:
        return []
    return [f"{name}: sqrt({x!r}) off by {err:.1f} ulp (allowed {ulps})"]


def max_rel_error_vs_exp(values, z):
    ez = np.exp(z)
    return float(np.max(np.abs((values - ez) / ez)))
