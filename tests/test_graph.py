import numpy as np
import pytest
from mpmath import mp

from matgraph import (
    CoeffRef,
    CoeffType,
    ComputationGraph,
    GraphError,
    OpKind,
    bigfloat,
    compress_graph,
    convert_precision,
    degopt_from_graph,
    eval_graph,
    get_topo_order,
    graph_degopt,
    graph_monomial,
    graph_ps,
    merge_graph,
)

from support import compress_graph_fixpoint, random_graph, random_messy_graph


def monomial_103():
    g, cref = graph_monomial([1.0, 0.0, 3.0])
    return g, cref


class TestAddNode:
    def test_mult_node_registration(self):
        g = ComputationGraph()
        g.add_mult("A2", "A", "A")
        assert g.parents["A2"] == ("A", "A")
        assert g.operations["A2"] == OpKind.MULT

    def test_lincomb_coeffs_registered(self):
        g = ComputationGraph()
        g.add_lincomb("P2", 1.0, "I", 0.0, "A")
        assert g.coeffs["P2"] == (1.0, 0.0)

    def test_duplicate_id_rejected(self):
        g = ComputationGraph()
        g.add_mult("A2", "A", "A")
        with pytest.raises(GraphError):
            g.add_mult("A2", "A", "A")

    @pytest.mark.parametrize("bad", ["X\n", "X\nY", "\nX", "X "])
    def test_id_with_trailing_or_inner_newline_rejected(self, bad):
        g = ComputationGraph()
        g.add_mult("X0", "A", "A")
        for insert in (lambda: g.add_mult(bad, "A", "A"),
                       lambda: g.add_lincomb(bad, 1.0, "A", 1.0, "I"),
                       lambda: g.add_ldiv(bad, "X0", "A"),
                       lambda: g.rename_node("X0", bad)):
            with pytest.raises(GraphError, match="invalid node id"):
                insert()
        with pytest.raises(GraphError, match="invalid input id"):
            ComputationGraph(input_id=bad)
        assert list(g.operations) == ["X0"]

    def test_unknown_parent_rejected(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g.add_mult("X", "A", "missing")

    def test_coefficient_arity(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g._insert("X", OpKind.MULT, "A", "A", 1.0, 2.0)
        with pytest.raises(GraphError):
            g._insert("X", OpKind.LINCOMB, "A", "A", 1.0, None)

    def test_graft_cycle_rejected(self):
        g = ComputationGraph()
        g.rename_node("A", "B")  # dangling references may now be created
        g.add_mult("C", "A", "A")
        g.rename_node("C", "D")
        # adding D = E * A where E depends on D must not be constructible:
        g.add_mult("E", "A", "A")
        g.rename_node("E", "F")
        g.add_mult("E", "A", "A")
        with pytest.raises(GraphError):
            # D is referenced nowhere, but a self-cycle is still a cycle
            g.add_mult("G", "G", "A")

    def test_bad_coefficient_leaves_graph_unchanged(self):
        g = ComputationGraph()
        with pytest.raises(TypeError):
            g.add_lincomb("X", object(), "A", 1.0, "I")
        assert g == ComputationGraph()
        g.validate()

    def test_graft_closing_a_cycle_rejected_at_insert(self):
        g = ComputationGraph()
        g.add_mult("X", "A", "A")
        g.rename_node("A", "B")  # X = B*B, B not yet defined
        # copies, conversions and merges keep the pending graft
        for h in (g, g.copy(), convert_precision(g, bigfloat(256)),
                  merge_graph(g, ComputationGraph())):
            with pytest.raises(GraphError, match="cycle"):
                h.add_mult("B", "X", "I")
        g.add_lincomb("B", 1.0, "I", 1.0, "I")
        g.set_outputs(["X"])
        g.validate()

    def test_graft_cycle_found_beyond_the_direct_parents(self):
        g = ComputationGraph()
        g.add_mult("P", "A", "A")
        g.add_mult("Q", "P", "I")
        g.add_lincomb("R", 1.0, "Q", 1.0, "I")
        g.set_outputs(["R"])
        g.rename_node("A", "X")  # P = X*X, X not yet defined
        before = g.copy()
        with pytest.raises(GraphError, match="would create a cycle"):
            g.add_mult("X", "R", "I")  # R -> Q -> P -> X
        assert g == before


class TestAddSum:
    def test_three_terms_matches_scalar_arithmetic(self):
        g = ComputationGraph()
        g.add_mult("X", "A", "A")
        g.add_mult("Y", "X", "A")
        g.add_mult("Z", "Y", "A")
        g.add_sum("S", [(1.0, "X"), (2.0, "Y"), (3.0, "Z")])
        g.set_outputs(["S"])
        z = 0.7
        expected = 1.0 * z**2 + 2.0 * z**3 + 3.0 * z**4
        assert eval_graph(g, z) == pytest.approx(expected, rel=1e-15)
        # two binary nodes: S_sum1 and S
        assert "S_sum1" in g.operations and "S" in g.operations

    def test_two_terms_single_node(self):
        g = ComputationGraph()
        g.add_sum("S", [(1.0, "A"), (2.0, "I")])
        assert set(g.operations) == {"S"}

    def test_one_term_rejected(self):
        g = ComputationGraph()
        with pytest.raises(GraphError):
            g.add_sum("S", [(1.0, "A")])


class TestDelRename:
    def test_delete_leaf(self):
        g, _ = monomial_103()
        g.clear_outputs()
        g.del_node("P3")
        assert "P3" not in g.operations

    def test_delete_referenced_rejected(self):
        g, _ = monomial_103()
        with pytest.raises(GraphError):
            g.del_node("A2")

    def test_delete_then_readd(self):
        g, _ = monomial_103()
        g.clear_outputs()
        g.del_node("P3")
        g.add_lincomb("P3", 1.0, "P2", 3.0, "A2")
        g.set_outputs(["P3"])
        assert eval_graph(g, 0.1) == pytest.approx(1.03)

    def test_rename_updates_outputs(self):
        g, _ = monomial_103()
        g.rename_node("P3", "OUT")
        assert g.outputs == ["OUT"]
        assert eval_graph(g, 0.1) == pytest.approx(1.03)

    def test_rename_input_grafts_shift(self):
        # f(x) = 1 + 3x^2 turns into f(x+1) by re-pointing the input
        g, cref = monomial_103()
        g.rename_node("A", "A_shift", cref)
        g.add_lincomb("A_shift", 1.0, "A", 1.0, "I")
        x = 0.25
        assert eval_graph(g, x) == pytest.approx(1 + 3 * (x + 1) ** 2)

    def test_rename_collision_rejected(self):
        g, _ = monomial_103()
        with pytest.raises(GraphError):
            g.rename_node("P2", "A2")

    def test_rename_rewrites_cref_list(self):
        g, cref = monomial_103()
        g.rename_node("P2", "Q2", cref)
        assert cref[0] == CoeffRef("Q2", 1)


class TestOutputs:
    def test_set_add_clear(self):
        g, _ = monomial_103()
        g.clear_outputs()
        assert g.outputs == []
        g.add_output("P2")
        assert g.outputs == ["P2"]
        g.set_outputs(["P3", "P2"])
        assert g.outputs == ["P3", "P2"]

    def test_unknown_output_rejected(self):
        g, _ = monomial_103()
        with pytest.raises(GraphError):
            g.add_output("missing")


class TestTopoOrder:
    def test_monomial_golden(self):
        g, _ = monomial_103()
        assert get_topo_order(g) == ["A2", "P2", "P3"]

    def test_single_node(self):
        g = ComputationGraph()
        g.add_lincomb("C", 1.0, "I", 1.0, "A")
        g.set_outputs(["C"])
        assert get_topo_order(g) == ["C"]

    def test_parents_precede_children(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, n_nodes=10)
            order = get_topo_order(g)
            pos = {n: i for i, n in enumerate(order)}
            for nid in order:
                for p in g.parents[nid]:
                    if p in pos:
                        assert pos[p] < pos[nid]

    def test_only_reachable_nodes(self):
        g, _ = monomial_103()
        g.add_mult("dead", "A2", "A2")
        assert "dead" not in get_topo_order(g)


class TestCompress:
    def test_monomial_passthrough_removed(self):
        g, _ = monomial_103()
        compress_graph(g)
        assert "P2" not in g.operations
        assert g.parents["P3"] == ("I", "A2")
        assert g.parents["A2"] == ("A", "A")

    def test_redundant_merged(self):
        g = ComputationGraph()
        g.add_mult("X1", "A", "A")
        g.add_mult("X2", "A", "A")
        g.add_lincomb("S", 1.0, "X1", 1.0, "X2")
        g.set_outputs(["S"])
        compress_graph(g)
        assert ("X1" in g.operations) != ("X2" in g.operations)
        assert eval_graph(g, 3.0) == pytest.approx(18.0)

    def test_identity_mult_collapsed(self):
        g = ComputationGraph()
        g.add_mult("X", "I", "A")
        g.add_mult("Y", "X", "X")
        g.set_outputs(["Y"])
        compress_graph(g)
        assert "X" not in g.operations
        assert eval_graph(g, 3.0) == 9.0

    def test_semantics_preserved_degopt_ps(self):
        import math

        c = [1.0 / math.factorial(j) for j in range(12)]
        g, _ = graph_degopt(degopt_from_graph(graph_ps(c)[0]))
        gc = g.copy()
        compress_graph(gc)
        rng = np.random.default_rng(1)
        zs = rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100)
        zs /= np.maximum(1.0, np.abs(zs))
        v1 = eval_graph(g, zs)
        v2 = eval_graph(gc, zs)
        u = 2.0 ** -53
        assert np.all(np.abs(v1 - v2) <= 10 * u * (1 + np.abs(v1)))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(rng, n_nodes=9)
            compress_graph(g)
            snapshot = g.copy()
            compress_graph(g)
            assert g == snapshot

    def test_semantics_random_graphs(self):
        rng = np.random.default_rng(3)
        u = 2.0 ** -53
        for _ in range(50):
            g = random_graph(rng, n_nodes=8)
            gc = g.copy()
            compress_graph(gc)
            zs = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
            zs /= np.maximum(1.0, np.abs(zs))
            v1, v2 = eval_graph(g, zs), eval_graph(gc, zs)
            assert np.all(np.abs(v1 - v2) <= 10 * u * (1 + np.abs(v1)))

    def test_outputs_never_removed(self):
        g = ComputationGraph()
        g.add_lincomb("X", 1.0, "A", 0.0, "I")
        g.set_outputs(["X"])
        compress_graph(g)
        assert g.outputs == ["X"] and "X" in g.operations

    def test_matches_sink_removal_fixpoint(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            g = random_messy_graph(rng)
            got, want = g.copy(), g.copy()
            compress_graph(got)
            compress_graph_fixpoint(want)
            assert got == want
            assert list(got.operations) == list(want.operations)
            assert (got.metadata, got._dangling) == (want.metadata, want._dangling)


class TestMerge:
    def test_merge_with_empty(self):
        g, _ = monomial_103()
        empty = ComputationGraph()
        merged = merge_graph(g, empty)
        assert merged.outputs == g.outputs
        assert eval_graph(merged, 0.1) == pytest.approx(1.03)

    def test_merge_two_copies(self):
        g, _ = monomial_103()
        merged = merge_graph(g, g.copy())
        vals = eval_graph(merged, 0.1)
        assert len(merged.outputs) == 2
        assert vals[0] == pytest.approx(1.03) and vals[1] == pytest.approx(1.03)
        # exact value preservation: no coefficient rewriting
        assert vals[0] == vals[1] == eval_graph(g, 0.1)

    def test_mixed_precisions_merge_at_the_higher(self):
        third = {}
        graphs = []
        for prec in (128, 256):
            g = ComputationGraph(bigfloat(prec))
            with mp.workprec(prec):
                third[prec] = mp.mpf(1) / 3
            g.add_lincomb("Y", third[prec], "A", 0, "I")
            g.set_outputs(["Y"])
            graphs.append(g)
        merged = merge_graph(*graphs)
        assert merged.coeff_type == bigfloat(256)
        c1, c2 = merged.get_coeffs([CoeffRef("Y", 1), CoeffRef("Y_b", 1)])
        assert c1 == third[128] and c2 == third[256] and c1 != c2

    def test_collision_renamed(self):
        g, _ = monomial_103()
        merged = merge_graph(g, g.copy())
        assert "P2_b" in merged.operations

    def test_suffixed_id_avoids_g2_ids(self):
        g1 = ComputationGraph()
        g1.add_mult("X", "A", "A")
        g1.set_outputs(["X"])
        g2 = ComputationGraph()
        g2.add_lincomb("X", 2.0, "A", 1.0, "I")
        g2.add_mult("X_b", "X", "A")
        g2.set_outputs(["X_b"])
        merged = merge_graph(g1, g2)
        assert len(merged.operations) == 3
        merged.validate()
        assert eval_graph(merged, 0.5) == [0.25, (2 * 0.5 + 1) * 0.5]

    def test_g2_id_naming_a_pending_graft_renamed(self):
        g1 = ComputationGraph()
        g1.add_mult("X", "A", "A")
        g1.rename_node("A", "B")  # X = B*B, B still to be grafted
        g1.set_outputs(["X"])
        g2 = ComputationGraph()
        g2.add_mult("B", "A", "A")
        g2.set_outputs(["B"])
        merged = merge_graph(g1, g2)
        assert "B" not in merged.operations and merged._dangling == {"B"}
        merged.add_lincomb("B", 1.0, "A", 1.0, "I")
        merged.validate()
        assert eval_graph(merged, 0.5) == [1.5 ** 2, 0.25]

    def test_g2_pending_graft_naming_a_g1_node_renamed(self):
        g1 = ComputationGraph()
        g1.add_mult("B", "A", "A")
        g1.set_outputs(["B"])
        g2 = ComputationGraph()
        g2.add_mult("Y", "A", "A")
        g2.set_outputs(["Y"])
        g2.rename_node("A", "B")  # Y = B*B, B still to be grafted
        merged = merge_graph(g1, g2)
        assert merged.parents["Y"] == ("B_b", "B_b") and merged._dangling == {"B_b"}
        with pytest.raises(GraphError):
            merged.validate()
        with pytest.raises(GraphError, match="unresolved parent 'B_b'"):
            eval_graph(merged, 0.5)
        merged.add_lincomb("B_b", 1.0, "A", 1.0, "I")
        merged.validate()
        assert eval_graph(merged, 0.5) == [0.25, 1.5 ** 2]

    def test_merge_preserves_outputs_exactly(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            g1 = random_graph(rng, n_nodes=7)
            g2 = random_graph(rng, n_nodes=6)
            merged = merge_graph(g1, g2)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            vals = eval_graph(merged, z)
            assert vals[0] == eval_graph(g1, z)
            assert vals[1] == eval_graph(g2, z)


class TestCoeffAccess:
    def test_get_monomial_exp_coeffs(self):
        import math

        c = [1.0 / math.factorial(j) for j in range(6)]
        g, cref = graph_monomial(c)
        assert g.get_coeffs(cref) == pytest.approx(c)

    def test_set_get_round_trip(self):
        g, cref = monomial_103()
        g.set_coeffs(cref, [4.0, 5.0, 6.0])
        assert g.get_coeffs(cref) == [4.0, 5.0, 6.0]

    def test_ref_into_mult_rejected(self):
        g, _ = monomial_103()
        with pytest.raises(GraphError):
            g.get_coeffs([CoeffRef("A2", 1)])


class TestConvertPrecision:
    def test_round_trip_within_eps(self):
        g, cref = graph_monomial([1 / 3, 1 / 7, 1 / 11])
        gb = convert_precision(g, bigfloat(256))
        g64 = convert_precision(gb, CoeffType())
        gb2 = convert_precision(g64, bigfloat(256))
        for a, b in zip(gb.get_coeffs(cref), gb2.get_coeffs(cref)):
            assert abs(a - b) <= abs(a) * 2.0 ** -53

    def test_float64_identity(self):
        g, cref = monomial_103()
        g2 = convert_precision(g, CoeffType())
        assert g2 == g

    def test_complex_to_real(self):
        g = ComputationGraph(CoeffType(is_complex=True))
        g.add_lincomb("X", 1 + 0j, "I", 2 + 0j, "A")
        g.set_outputs(["X"])
        g2 = convert_precision(g, CoeffType())
        assert g2.coeffs["X"] == (1.0, 2.0)
        g.set_coeffs([CoeffRef("X", 1)], [1 + 2j])
        with pytest.raises(ValueError):
            convert_precision(g, CoeffType())


def test_copy_convert_merge_keep_every_field():
    ct = CoeffType(is_complex=True)
    g = ComputationGraph(ct, input_id="x")
    g.add_lincomb("Y", 1 + 2j, "I", -3.0, "x")
    g.add_mult("Z", "Y", "x")
    g.rename_node("x", "x0")  # leaves a pending graft
    g.set_outputs(["Z", "Y"])
    g.metadata = {"designed_for": "exp"}
    empty = ComputationGraph()
    unset = [k for k in vars(empty) if getattr(g, k) == getattr(empty, k)]
    assert not unset, f"give {unset} a non-default value here"
    big = bigfloat(256, True)
    for h, kind in ((g.copy(), ct), (convert_precision(g, big), big),
                    (merge_graph(g, ComputationGraph(ct, input_id="x")), ct)):
        assert vars(h).keys() == vars(g).keys()
        for k, v in vars(g).items():
            assert getattr(h, k) == (kind if k == "coeff_type" else v), k
            if isinstance(v, (dict, list, set)):
                assert getattr(h, k) is not v, k


def test_invariants_after_random_mutations():
    rng = np.random.default_rng(7)
    for trial in range(25):
        g = random_graph(rng, n_nodes=10)
        for _ in range(6):
            action = rng.integers(4)
            nodes = list(g.operations)
            try:
                if action == 0:
                    g.add_mult(f"M{rng.integers(10**6)}", nodes[rng.integers(len(nodes))], "A")
                elif action == 1:
                    g.del_node(nodes[rng.integers(len(nodes))])
                elif action == 2:
                    g.rename_node(nodes[rng.integers(len(nodes))], f"R{rng.integers(10**6)}")
                else:
                    g.add_output(nodes[rng.integers(len(nodes))])
            except GraphError:
                pass
        g.validate()
