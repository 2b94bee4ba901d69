import hashlib
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffType,
    ComputationGraph,
    EmitTarget,
    GraphError,
    OpKind,
    bigfloat,
    compress_graph,
    convert_scalar,
    degopt_from_graph,
    eval_graph,
    eval_graph_poly,
    gen_code,
    get_topo_order,
    graph_degopt,
    graph_denman_beavers,
    graph_exp_pade_ss,
    graph_horner,
    graph_monomial,
    graph_monomial_degopt,
    graph_newton_schulz,
    graph_ps,
    graph_rational,
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

    def test_heap_scheduler_matches_scan_on_wide_random_dags(self):
        # up to 12 parents per node, as a fused Pade-13 linear combination has;
        # the outputs name both inputs and one node twice
        rng = np.random.default_rng(69)
        for trial in range(200):
            node_parents, outputs = random_kary_dag(rng, int(rng.integers(1, 40)), max_parents=12)
            args = (node_parents, outputs + ["A", "I", outputs[0]])
            assert _schedule_kary(*args) == schedule_kary_scan(*args), trial

    @pytest.mark.parametrize("build, want", [
        (lambda: graph_denman_beavers(400)[0],
         ("ea88f93a68adfa251027c13dad138ea7e24b1971fc2e60c206ee557d31cdd25e",
          "38d14c1bff4c18e363f81190952c57c9a442a4b397dc47595d7e841ead4513ce", 4)),
        (lambda: graph_exp_pade_ss(5, 0, bigfloat(256))[0],
         ("b0d2d17e3d3e80e442202969df79f0c7fc24de4e542bb06253725f56b8dae555",
          "729b084f1989a99848b2e6b45c921a007fc7ed4736c9d0fd56327f8e9d8e337e", 4)),
        (lambda: graph_exp_pade_ss(7, 0, bigfloat(256))[0],
         ("b22020620ffc6f73eb1e12ec793414e8f1f7a9e1a7e1ffe6ac3ec9fd69944810",
          "25cd0176775f574fb201a5a1a87db543dbd6e674a7be6fc3d16b38b930a97970", 5)),
        (lambda: graph_exp_pade_ss(9, 0, bigfloat(256))[0],
         ("dfe84bd782d8553719c1015fe4c15f4ff3a163b219deba42eca1cc2b1ab02d63",
          "415bb55723ad2af44650e3da40587e31311b018fce34ad86163701fdba2e111c", 6)),
        (lambda: graph_exp_pade_ss(13, 0, bigfloat(256))[0],
         ("f48b5e263d8164b61a8b4df8d8f9e8fdc234ca03e06e6539e166815936abe92b",
          "0136a52b1254a50673b7c29e6e0d364256b242aa971e4d2dee7637144fe4e067", 7)),
        (lambda: graph_exp_pade_ss(13, 1, bigfloat(256))[0],
         ("14dd1e74ff93b97c3397255b0e9cf4f5f49770ce897fd0ab01efb5f9b4924f74",
          "cae2eca7d07c24980929e158e1244a1f38626bf2845b5b0309351001a596c67f", 8)),
    ], ids=["db400", "pade5", "pade7", "pade9", "pade13", "pade13s1"])
    def test_frozen_plan_schedule(self, build, want):
        # sha256 of the order, of the slots in that order, and the peak
        s = plan_schedule(build())
        assert set(s.slot_assignment) == set(s.order)
        digest = lambda xs: hashlib.sha256("\n".join(map(str, xs)).encode()).hexdigest()
        assert (digest(s.order), digest(s.slot_assignment[n] for n in s.order),
                s.peak_buffers) == want

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


@pytest.mark.parametrize("name", ["_f", "f\u00e9"])
def test_function_name_outside_the_id_grammar_refused(name):
    # MATLAB names start with a letter, and node ids are ASCII
    for dialect in ("c", "matlab"):
        with pytest.raises(GraphError, match="invalid function name"):
            EmitTarget(dialect, name)


def _pending_graft():
    """``B = A*A; Y = B*A`` with the input renamed to X: B and Y read X, not yet grafted."""
    g = ComputationGraph()
    g.add_mult("B", "A", "A")
    g.add_mult("Y", "B", "A")
    g.set_outputs(["Y"])
    g.rename_node("A", "X")
    return g


class TestUnresolvedParent:
    """A graph with a pending graft is refused, as eval_graph and render_cgr refuse it."""

    @pytest.mark.parametrize("dialect", ["c", "matlab"])
    def test_gen_code_refuses(self, dialect):
        with pytest.raises(GraphError, match="unresolved parent 'X' of node 'B'"):
            gen_code(_pending_graft(), EmitTarget(dialect))

    def test_plan_schedule_refuses(self):
        with pytest.raises(GraphError, match="unresolved parent 'X' of node 'B'"):
            plan_schedule(_pending_graft())

    def test_unresolved_output_refused(self):
        g = ComputationGraph()
        g.set_outputs(["A"])
        g.rename_node("A", "X")
        for emit in (lambda: plan_schedule(g), lambda: gen_code(g, EmitTarget("matlab"))):
            with pytest.raises(GraphError, match="unresolved output 'X'"):
                emit()

    def test_emitted_once_grafted(self):
        g = _pending_graft()
        g.add_lincomb("X", 1.0, "A", 0.5, "I")
        assert plan_schedule(g).order == ["X", "B", "Y"]
        _emitted_matches_evaluator(g, np.diag([0.5, 2.0]))


def _product_chain(ct, c_b, c_c):
    """``B = c_b*A^2 + I; C = c_c*B + A``: fused, C's terms carry c_c*c_b."""
    g = ComputationGraph(ct)
    g.add_mult("A2", "A", "A")
    g.add_lincomb("B", c_b, "A2", convert_scalar(1, ct), "I")
    g.add_lincomb("C", c_c, "B", convert_scalar(1, ct), "A")
    g.set_outputs(["C"])
    return g


class TestNonFiniteCoefficients:
    """Neither dialect can print NaN or infinity, so a coefficient not finite in binary64 is refused."""

    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("ct, c, dialect", [
        *((ct, c, dialect) for dialect in ("c", "matlab")
          for ct, c in ((CoeffType(), math.inf), (CoeffType(), -math.inf),
                        (CoeffType(), math.nan), (bigfloat(256), mp.mpf("1e400")))),
        # the C target refuses every complex graph
        (CoeffType(is_complex=True), complex(1, math.inf), "matlab"),
        (CoeffType(is_complex=True), complex(math.nan, math.nan), "matlab"),
    ])
    def test_non_finite_coefficient_refused(self, ct, c, dialect, fuse):
        g = _product_chain(ct, convert_scalar(2, ct), c)
        with pytest.raises(GraphError, match="node 'C': coefficient .* is not finite in binary64"):
            gen_code(g, EmitTarget(dialect, "f", fuse))

    @pytest.mark.parametrize("dialect", ["c", "matlab"])
    @pytest.mark.parametrize("ct", [CoeffType(), bigfloat(256)])
    def test_overflowing_fused_product_refused(self, ct, dialect):
        g = _product_chain(ct, convert_scalar(1e308, ct), convert_scalar(10, ct))
        with pytest.raises(GraphError, match="node 'C': coefficient .* is not finite in binary64"):
            gen_code(g, EmitTarget(dialect, "f", True))
        # unfused, each coefficient prints as it is
        assert "1e+308" in gen_code(g, EmitTarget(dialect, "f", False))


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

    @pytest.mark.parametrize("ids", [["_t"], ["_T"], ["__x"], ["_t", "v__t", "_T", "__x"]])
    def test_leading_underscore_ids_get_a_letter_first(self, ids):
        g = _chain(ids)
        _emitted_matches_evaluator(g, np.array([[0.5, 0.25], [-0.125, 0.75]]))
        src = gen_code(g, EmitTarget("matlab", "f"))
        assigned = re.findall(r"^ +(\w+) = ", src, flags=re.M)
        assert len(assigned) > len(ids)
        for var in assigned:
            assert re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", var), var
        nodes = [var for var in assigned if not re.fullmatch(r"coeff[0-9]+", var)]
        assert len(set(nodes)) == len(nodes)  # one name per node and output


# the ten graphs of TestC.test_every_generator_graph_at_n20
GENERATOR_GRAPHS = {
    "monomial": lambda: graph_monomial([1.0 / math.factorial(j) for j in range(7)])[0],
    "horner": lambda: graph_horner([1.0, -0.5, 0.25, 0.125])[0],
    "ps": lambda: graph_ps([1.0 / math.factorial(j) for j in range(10)])[0],
    "monomial_degopt": lambda: graph_monomial_degopt([1.0, 1.0, 0.5, 1 / 6])[0],
    "ps_degopt": lambda: graph_degopt(degopt_from_graph(
        graph_ps([1.0 / math.factorial(j) for j in range(10)])[0]))[0],
    "denman_beavers": lambda: graph_denman_beavers(3)[0],
    "newton_schulz": lambda: graph_newton_schulz(3)[0],
    "newton_schulz_degopt": lambda: graph_degopt(degopt_from_graph(graph_newton_schulz(2)[0]))[0],
    "pade9": lambda: graph_exp_pade_ss(9, 1)[0],
    "rational": lambda: graph_rational(graph_ps([1.0, 0.5, 1 / 12])[0],
                                       graph_ps([1.0, -0.5, 1 / 12])[0]),
}

# sha256 of the emitted C and MATLAB, fused and unfused, and of the _mpf_
# tuples of the 256-bit polynomial coefficients (an exact int as itself;
# None for a graph with a solve): a change to the emitter or to the series
# arithmetic shows up here
GENERATOR_DIGESTS = {
    "monomial": (
        "aff0c51fffd7c81ea8a2183e0507a7d33023b84498499205d7ae4824df97f9b9",
        "852c02e41557bebf556656bc2d22613b61b476c13bdfe7afa0176c87fb3636dd",
        "241bb94bc33d0397d8ea00e85b9eab1e9b6ed2438eba8fda09374632902331a0",
        "8ca5410dcf094c6d2e15e5461f2001fd9d0e40fc006efa7b3c562e3cfa2c6617",
        "26f8f4d15a5680b9630c5f776ce28f6a9a013f5eef529412bf9ccc01e7b7bafe"),
    "horner": (
        "19dbe320fb034e1795427ccd778792d68e425725512185b1bcc7d3985853cadb",
        "19dbe320fb034e1795427ccd778792d68e425725512185b1bcc7d3985853cadb",
        "3b8373771588248a20936e69577bc6e1372de0db38e7bc15bbd2d3974bd6ba4c",
        "3b8373771588248a20936e69577bc6e1372de0db38e7bc15bbd2d3974bd6ba4c",
        "9f078c83985a22710e6085f954dc2099f2eb0113a3b696f51e8c8b9ee859b3ea"),
    "ps": (
        "b0f4c83728f55cf47a9afbdd2fc6e03600bc429cd450f0869203152c2df956bc",
        "8e90ced46a9f073c8c1ec6a6569b10393d4ce2458e5fa740c6b187be07305ff2",
        "e5ad3ee56d67796675575261df893d13f15b6832516af00d5ca609cf13e5c220",
        "3d193d5dce5a0583184c22ab8ed2474b37a12e3901ba00c3ef991b013720dde4",
        "262ece5f483ad03f0ba052f100884cb5524d44aad1dfcf57d01aba26490fe5bf"),
    "monomial_degopt": (
        "5767e13a4992727b27fd1ab2b2917c31e5fd05f28ef125d6da0ae3994fb69f90",
        "f3f90a0b5f57af97abe5b8156c532490a9f7b2e3de004706a10db57325d5d93b",
        "00b6c96dd35d8b9df8098348ff03ef70c043fd8c8d96a00e3244c8a7693199d7",
        "3a6cf6345e0b1ca5ff6fdf322997d1a64d32dc7aa6d25f2a608282c96a639cdc",
        "99f5f6834f31cde9bf28cb8cdcd18e5d3d4b12fa869d704097933d78523054f0"),
    "ps_degopt": (
        "85e24afc009f4367a5c126db65987809b56b0444175ca3820f94aea7f0e4591e",
        "5179c5494c3638f2b1a8f5d28a54d57b64b21ec793b1aca30081094a9d47782f",
        "5d891ad60863c401536abef2559eba4683711cc1b10f15915cc7121f0e81c651",
        "979992eaff0a30c454540a8955c8a45df7de7db730de48db8a2a5503ed864801",
        "262ece5f483ad03f0ba052f100884cb5524d44aad1dfcf57d01aba26490fe5bf"),
    "denman_beavers": (
        "d005c4f64b508739372bd87954c15c39f3c3328695511d64b419d88bff36ad2f",
        "e88ef26c99826d645dd58cab560f41c0ae7d2fcb99bc2c6ac93d510b34dbd1e6",
        "d9bdad2ca81adc9eb19933bcf78eff0a217818a78f53de43655d72f092d2679e",
        "c6aa55a294ea72b8d89cec4ddd45c5638f6ea013750855bbba12dcddaea126c7",
        None),
    "newton_schulz": (
        "a91864fff7d10437d1bb800aee1def3609d9fe828f78b91ab5219c35cf7b9d8e",
        "a91864fff7d10437d1bb800aee1def3609d9fe828f78b91ab5219c35cf7b9d8e",
        "8efac09d584f46394f1aa4d7c7e6c748a885294d7358cd1a75a591bc5fd4f48d",
        "8efac09d584f46394f1aa4d7c7e6c748a885294d7358cd1a75a591bc5fd4f48d",
        "3c4114d7633356fa75dbccf24e3b324c8c0018a026c3ef9449d70cc7881b3c55"),
    "newton_schulz_degopt": (
        "82c18bcdf5ad4a671343531724f7b81720e35a46f923fbefa1ecc3c28fc96b19",
        "d909277f3c8ae5574b6359bbcc17b321676f04e86f38b700b84d9dc78443aca9",
        "3ec33692d2ba02d960be18f4dc89e5121df40c7fd0e79011f1130e4235ce3f2a",
        "3815493c8c36e3c4fe9b2229122656607e0342b149444549b46deece2a4191ec",
        "457e5b72f8965adca4754448ff35fb011a438a1c72b12191883fc13409e0d743"),
    "pade9": (
        "a4aa4210ef2589992f734b062be40206736f90ce533bd1e11156366566fe42c0",
        "cf762320442a817413eb1fd425b987ed67e6de07eb47f9c4bb80163f238ca550",
        "01e48154333c74c132b168ebd87b8ded25178f96145e63dfd83a6ffaf757cb8e",
        "f5bf150944b47fd689bff19825e11e05b5075d8283009b4b8a76c9f2cd0e8c5e",
        None),
    "rational": (
        "89f2c8c2083dbd6944fcaeb90fddb68955dc817be0ea04194ebd12ad4177217a",
        "cd24cc96635a79eb1eb7a0ff5788ac5337717010bde2725d71d8c35c97cd9a76",
        "406a03d3952554b257f54124594a78ee054dcf608b094ad059703b89f3ddf632",
        "81a1fd500b38791bf74145d42c7e978a4863e8934cb4b6b0f43ab16caf686d2d",
        None),
}


@pytest.mark.parametrize("name", GENERATOR_GRAPHS)
def test_frozen_generator_graph_digests(name):
    g = GENERATOR_GRAPHS[name]()
    sha = lambda text: hashlib.sha256(text.encode()).hexdigest()
    got = [sha(gen_code(g, EmitTarget(dialect, "f", fuse))) for dialect in ("c", "matlab")
           for fuse in (True, False)]
    if any(op == OpKind.LDIV for op in g.operations.values()):
        got.append(None)
    else:
        got.append(sha(repr([getattr(c, "_mpf_", c) for c in eval_graph_poly(g, prec=256)])))
    assert tuple(got) == GENERATOR_DIGESTS[name]


@pytest.mark.parametrize("prec", [20, 53, 2000])
def test_emitted_code_ignores_ambient_precision(prec):
    """Fused coefficient products are formed at 53 bits, whatever mp.prec is."""
    g, _ = graph_exp_pade_ss(13, 0, bigfloat(256))
    targets = [EmitTarget(dialect, "f", fuse) for dialect in ("c", "matlab")
               for fuse in (True, False)]
    want = [gen_code(g, t) for t in targets]
    assert "    coeff1 = 6.306022705717595e-10;" in want[2].splitlines()
    with mp.workprec(prec):
        got = [gen_code(g, t) for t in targets]
        assert mp.prec == prec
    assert got == want
