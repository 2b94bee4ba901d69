import hashlib
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from matgraph import (
    CoeffType,
    ComputationGraph,
    EmitTarget,
    GraphError,
    compress_graph,
    eval_graph,
    gen_code,
    get_topo_order,
    graph_denman_beavers,
    graph_exp_pade_ss,
    graph_monomial,
    graph_newton_schulz,
    graph_ps,
    plan_schedule,
)
from matgraph.codegen import _emission_plan, _schedule_kary
from support import (
    compile_and_run_c,
    min_peak_exhaustive,
    random_graph,
    random_kary_dag,
    run_matlab_like,
    schedule_kary_scan,
)

HAVE_CC = shutil.which("cc") is not None


def cosine_ps_graph():
    """Paterson-Stockmeyer cosine in the squared variable."""
    c = [(-1.0) ** k / math.factorial(2 * k) for k in range(10)]
    g, _ = graph_ps(c)
    g.rename_node("A", "A2tmp")
    g.add_mult("A2tmp", "A", "A")
    return g


class TestSchedule:
    def test_compressed_monomial_peak(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        compress_graph(g)
        s = plan_schedule(g)
        assert s.peak_buffers <= 2
        assert s.peak_buffers == min_peak_exhaustive(g)

    def test_squaring_chain_peak_two(self):
        g = ComputationGraph()
        prev = "A"
        for k in range(5):
            g.add_mult(f"S{k}", prev, prev)
            prev = f"S{k}"
        g.set_outputs([prev])
        s = plan_schedule(g)
        assert s.peak_buffers == 2  # out-of-place kernels

    def test_live_range_safety(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            g = random_graph(rng, n_nodes=9)
            s = plan_schedule(g)
            pos = {n: i for i, n in enumerate(s.order)}
            uses = {}
            for nid in s.order:
                for p in g.parents[nid]:
                    if p in pos:
                        uses.setdefault(p, []).append(pos[nid])
            for a in s.order:
                for b in s.order:
                    if a >= b or s.slot_assignment[a] != s.slot_assignment[b]:
                        continue
                    # a's buffer is reused by b: a must be dead by then
                    last_use_a = max(uses.get(a, [pos[a]]))
                    assert a not in g.outputs
                    assert last_use_a < pos[b]

    def test_greedy_near_optimal_small_graphs(self):
        rng = np.random.default_rng(62)
        for _ in range(12):
            g = random_graph(rng, n_nodes=7)
            s = plan_schedule(g)
            assert s.peak_buffers <= min_peak_exhaustive(g) + 1

    def test_denman_beavers_vs_exhaustive(self):
        g, _ = graph_denman_beavers(4)
        s = plan_schedule(g)
        assert s.peak_buffers <= min_peak_exhaustive(g) + 1

    def test_compress_does_not_increase_peak(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            g = random_graph(rng, n_nodes=9)
            p0 = plan_schedule(g).peak_buffers
            gc = g.copy()
            compress_graph(gc)
            assert plan_schedule(gc).peak_buffers <= p0

    def test_heap_scheduler_matches_scan_on_random_dags(self):
        # repeated parents, several outputs, ids out of insertion order
        rng = np.random.default_rng(64)
        for trial in range(300):
            node_parents, outputs = random_kary_dag(rng, int(rng.integers(1, 40)))
            args = (node_parents, outputs)
            assert _schedule_kary(*args) == schedule_kary_scan(*args), trial

    def test_heap_scheduler_matches_scan_on_emission_plans(self):
        rng = np.random.default_rng(65)
        graphs = [random_graph(rng, n_nodes=int(rng.integers(2, 30))) for _ in range(40)]
        graphs += [cosine_ps_graph(), graph_exp_pade_ss(13, 2)[0], graph_newton_schulz(4)[0]]
        for g in graphs:
            for fuse in (False, True):
                _, node_parents = _emission_plan(g, fuse)
                args = (node_parents, g.outputs)
                assert _schedule_kary(*args) == schedule_kary_scan(*args)

    def test_heap_scheduler_matches_scan_on_denman_beavers_400(self):
        g, _ = graph_denman_beavers(400)
        node_parents = {nid: g.parents[nid] for nid in get_topo_order(g)}
        assert plan_schedule(g) == schedule_kary_scan(node_parents, g.outputs)
        compress_graph(g)
        _, node_parents = _emission_plan(g, True)
        args = (node_parents, g.outputs)
        assert _schedule_kary(*args) == schedule_kary_scan(*args)

    def test_cycle_raises(self):
        node_parents = {"X": ("A", "Y"), "Y": ("X", "I"), "Z": ("A", "A")}
        with pytest.raises(GraphError, match="cycle"):
            _schedule_kary(node_parents, ["Y"])


class TestMatlab:
    def test_cosine_graph_against_evaluator(self):
        g = cosine_ps_graph()
        src = gen_code(g, EmitTarget("matlab", "mycosm"))
        rng = np.random.default_rng(64)
        A = rng.standard_normal((20, 20)) / 20
        got = run_matlab_like(src, A)
        want = eval_graph(g, A)
        assert np.max(np.abs(got - want)) <= 1e-13
        # and it is an accurate cosine: (exp(iA) + exp(-iA))/2
        from support import taylor_exp_mp

        cosA = ((taylor_exp_mp(1j * A) + taylor_exp_mp(-1j * A)) / 2).real
        assert np.max(np.abs(got - cosA)) <= 1e-14

    def test_identity_graph_copies_input(self):
        g = ComputationGraph()
        g.set_outputs(["A"])
        src = gen_code(g, EmitTarget("matlab", "ident"))
        A = np.arange(4.0).reshape(2, 2)
        assert np.array_equal(run_matlab_like(src, A), A)

    def test_golden_matches_structure(self):
        # unfused emission keeps the per-node statements of the reference shape
        src = gen_code(cosine_ps_graph(), EmitTarget("matlab", "mycosm", fuse_lincomb=False))
        lines = [l.strip() for l in src.splitlines() if l.strip()]
        assert lines[0] == "function output = mycosm(A)"
        assert "A2tmp = A * A;" in lines
        assert "coeff1 = 1.0;" in lines and "coeff2 = -0.5;" in lines
        assert "B_0_1 = coeff1*I + coeff2*A2tmp;" in lines
        assert "output = P0;" in lines
        assert lines[-1] == "end"

    def test_frozen_golden_file(self):
        # emission verified against the evaluator and a cosine oracle before
        # freezing; any later change to the emitter shows up as a diff here
        import os

        golden = os.path.join(os.path.dirname(__file__), "data", "cosine_ps_golden.m")
        with open(golden, "r", encoding="utf-8") as fh:
            want = fh.read()
        src = gen_code(cosine_ps_graph(), EmitTarget("matlab", "mycosm"))
        assert src == want

    def test_frozen_denman_beavers_400_digests(self):
        g, _ = graph_denman_beavers(400)
        compress_graph(g)
        digests = [hashlib.sha256(gen_code(g, EmitTarget(d)).encode()).hexdigest()
                   for d in ("c", "matlab")]
        assert digests == [
            "62ce3512789b1533364c110c9248cdd7b9bc45ad398a1e96838978c38411cdac",
            "c0e324b0bd0fd26985e85365826f75a16597f5fa6dd33acb01f6cd31f8b01d1e",
        ]

    def test_c_independent_of_hash_seed(self):
        # buffers freed at one node are released in parent order, not in the
        # iteration order of a set of strings
        script = (
            "import sys\n"
            "from matgraph import EmitTarget, compress_graph, gen_code, graph_denman_beavers\n"
            "g, _ = graph_denman_beavers(40)\n"
            "compress_graph(g)\n"
            "sys.stdout.write(gen_code(g, EmitTarget('c')))\n"
        )
        src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        outs = [subprocess.run([sys.executable, "-c", script],
                               env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                               check=True, capture_output=True, text=True, timeout=300).stdout
                for seed in ("0", "1")]
        assert outs[0] and outs[0] == outs[1]

    def test_fusion_reduces_statements(self):
        g = ComputationGraph()
        g.add_mult("X", "A", "A")
        g.add_sum("S", [(1.0, "I"), (2.0, "A"), (3.0, "X")])
        g.set_outputs(["S"])
        fused = gen_code(g, EmitTarget("matlab", "f", fuse_lincomb=True))
        plain = gen_code(g, EmitTarget("matlab", "f", fuse_lincomb=False))
        count = lambda s: sum(l.count(";") for l in s.splitlines())
        assert count(fused) < count(plain)
        A = np.diag([0.3, 0.7])
        u = 2.0 ** -53
        a, b = run_matlab_like(fused, A), run_matlab_like(plain, A)
        assert np.max(np.abs(a - b)) <= 10 * u * np.max(1 + np.abs(a))

    def test_ldiv_emission(self):
        g, _ = graph_newton_schulz(3)
        g2, _ = graph_denman_beavers(2)
        src = gen_code(g2, EmitTarget("matlab", "sqrtdb"))
        assert "\\" in src
        rng = np.random.default_rng(65)
        A = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        got = run_matlab_like(src, A)
        assert np.max(np.abs(got - eval_graph(g2, A))) <= 1e-12

    def test_multiple_outputs(self):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        g.add_output("A2")
        src = gen_code(g, EmitTarget("matlab", "multi"))
        outs = run_matlab_like(src, np.diag([0.1, 0.2]))
        assert len(outs) == 2


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
class TestC:
    def test_emitted_c_matches_evaluator(self):
        g = cosine_ps_graph()
        target = EmitTarget("c", "mycosm")
        src = gen_code(g, target)
        from matgraph.codegen import _gen_c

        src, header = _gen_c(g, target)
        rng = np.random.default_rng(66)
        A = rng.standard_normal((20, 20)) / 20
        got = compile_and_run_c(src, header, "mycosm", A)
        want = eval_graph(g, A)
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 1e-12

    def test_solve_kernel_used(self):
        g, _ = graph_exp_pade_ss(5, 1)
        from matgraph.codegen import _gen_c

        src, header = _gen_c(g, EmitTarget("c", "expm5"))
        assert "mgk_solve" in src
        rng = np.random.default_rng(67)
        A = rng.standard_normal((12, 12)) / 6
        got = compile_and_run_c(src, header, "expm5", A)
        want = eval_graph(g, A)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12

    def test_multi_output_rejected(self):
        g, _ = graph_monomial([1.0, 1.0, 1.0])
        g.add_output("A2")
        with pytest.raises(GraphError):
            gen_code(g, EmitTarget("c", "f"))

    def test_workspace_size_matches_schedule(self):
        g = cosine_ps_graph()
        from matgraph.codegen import _gen_c

        src, _ = _gen_c(g, EmitTarget("c", "f", fuse_lincomb=False))
        s = plan_schedule(g)
        assert f"* {s.peak_buffers}, sizeof(double)" in src

    def test_every_generator_graph_at_n20(self):
        # all generator families, three random binary64 matrices each
        import math as _math

        from matgraph import (
            degopt_from_graph,
            graph_degopt,
            graph_horner,
            graph_monomial_degopt,
            graph_rational,
        )
        from matgraph.codegen import _gen_c

        builders = [
            lambda: graph_monomial([1.0 / _math.factorial(j) for j in range(7)])[0],
            lambda: graph_horner([1.0, -0.5, 0.25, 0.125])[0],
            lambda: graph_ps([1.0 / _math.factorial(j) for j in range(10)])[0],
            lambda: graph_monomial_degopt([1.0, 1.0, 0.5, 1 / 6])[0],
            lambda: graph_degopt(degopt_from_graph(
                graph_ps([1.0 / _math.factorial(j) for j in range(10)])[0]))[0],
            lambda: graph_denman_beavers(3)[0],
            lambda: graph_newton_schulz(3)[0],
            lambda: graph_degopt(degopt_from_graph(graph_newton_schulz(2)[0]))[0],
            lambda: graph_exp_pade_ss(9, 1)[0],
            lambda: graph_rational(graph_ps([1.0, 0.5, 1 / 12])[0],
                                   graph_ps([1.0, -0.5, 1 / 12])[0]),
        ]
        rng = np.random.default_rng(68)
        for i, build in enumerate(builders):
            g = build()
            src, header = _gen_c(g, EmitTarget("c", f"g{i}"))
            solves = any(op.value == "ldiv" for op in g.operations.values())
            for _ in range(3):
                if solves:
                    A = np.eye(20) + 0.2 * rng.standard_normal((20, 20)) / math.sqrt(20)
                else:
                    A = rng.standard_normal((20, 20)) / 20
                got = compile_and_run_c(src, header, f"g{i}", A)
                want = eval_graph(g, A)
                rel = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30)
                assert rel <= 1e-12, f"builder {i}: {rel}"


def test_invalid_function_name():
    with pytest.raises(GraphError):
        EmitTarget("matlab", "bad name")


@pytest.mark.parametrize("name", ["double", "end", "A", "n", "free", "coeff3", "out12", "v_f"])
def test_reserved_function_name_refused(name):
    with pytest.raises(GraphError, match="invalid function name"):
        EmitTarget("c", name)


def _chain(ids, input_id="A"):
    """A single-output graph whose nodes carry the given ids, each used after it is made."""
    g = ComputationGraph(input_id=input_id)
    prev = input_id
    for k, nid in enumerate(ids):
        if k % 2:
            g.add_lincomb(nid, 0.5, prev, 0.25 * k, input_id)
        else:
            g.add_mult(nid, prev, input_id)
        prev = nid
    g.add_mult("Y", prev, ids[0])
    g.set_outputs(["Y"])
    return g


def _emitted_matches_evaluator(g, A, fn="f"):
    want = eval_graph(g, A)
    got = run_matlab_like(gen_code(g, EmitTarget("matlab", fn)), A)
    assert np.allclose(got, want, rtol=1e-13, atol=0)
    if HAVE_CC:
        from matgraph.codegen import _gen_c

        src, header = _gen_c(g, EmitTarget("c", fn))
        got = compile_and_run_c(src, header, fn, A)
        assert np.allclose(got, want, rtol=1e-13, atol=0)


class TestEmittedNames:
    """Every node gets its own name, legal in C and MATLAB, that no emitted name shadows."""

    def test_node_named_like_the_argument(self):
        g = ComputationGraph(input_id="x")
        g.add_mult("A", "x", "x")
        g.add_mult("Y", "A", "x")
        g.set_outputs(["Y"])
        A = np.diag([2.0, 3.0])
        assert np.array_equal(eval_graph(g, A), np.diag([8.0, 27.0]))
        _emitted_matches_evaluator(g, A)

    def test_prefixed_ids_stay_distinct(self):
        g = _chain(["n", "v_n", "v_v_n"])
        src = gen_code(g, EmitTarget("matlab", "f"))
        assert "v_v_n = " in src and "v_v_v_n = " in src
        _emitted_matches_evaluator(g, np.diag([0.5, 0.75]))

    def test_numbered_node_survives_a_long_fused_lincomb(self):
        g = ComputationGraph()
        g.add_mult("coeff10", "A", "A")
        prev = "coeff10"
        for k in range(1, 11):
            g.add_lincomb(f"S{k}", 0.5, prev, 0.125 * k, "A" if k % 2 else "I")
            prev = f"S{k}"
        g.add_mult("Y", prev, "coeff10")
        g.set_outputs(["Y"])
        src = gen_code(g, EmitTarget("matlab", "f"))
        assert "coeff11 = " in src
        _emitted_matches_evaluator(g, np.array([[0.5, 0.25], [-0.125, 0.75]]))

    def test_reserved_ids_compile(self):
        ids = ["free", "F_H", "int", "end", "size", "eye", "out2", "output", "Ieye", "i", "k",
               "work", "nn", "f", "mgk_copy", "size_t", "calloc", "function"]
        g = _chain(ids)
        _emitted_matches_evaluator(g, np.array([[0.5, 0.25], [-0.125, 0.75]]))

    def test_complex_coefficients_in_matlab(self):
        g = ComputationGraph(CoeffType(is_complex=True))
        g.add_mult("X2", "A", "A")
        g.add_sum("S", [(1 + 2j, "I"), (-0.5j, "A"), (0.25 - 1j, "X2")])
        g.set_outputs(["S"])
        src = gen_code(g, EmitTarget("matlab", "f"))
        assert "(1.0 + 2.0i)" in src and "(0.25 - 1.0i)" in src
        A = np.array([[0.5, 0.25j], [-0.125, 0.75]])
        assert np.allclose(run_matlab_like(src, A), eval_graph(g, A), rtol=1e-15, atol=0)
