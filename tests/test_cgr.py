import math

import numpy as np
import pytest
from mpmath import libmp, mp

from matgraph import (
    CgrError,
    ComputationGraph,
    bigfloat,
    convert_precision,
    eval_graph,
    export_compgraph,
    graph_denman_beavers,
    graph_exp_pade_ss,
    graph_horner,
    graph_monomial,
    graph_monomial_degopt,
    graph_newton_schulz,
    graph_ps,
    import_compgraph,
    parse_cgr,
    render_cgr,
)

from support import replay_cgr_scalar


def cosine_ps_graph():
    c = [(-1.0) ** k / math.factorial(2 * k) for k in range(10)]
    g, _ = graph_ps(c)
    g.rename_node("A", "A2tmp")
    g.add_mult("A2tmp", "A", "A")
    return g


class TestRender:
    def test_header_and_reference_lines(self):
        text = render_cgr(cosine_ps_graph())
        lines = [l for l in text.splitlines() if l]
        assert lines[0] == 'graph_coeff_type="Float64";'
        assert lines[1] == "A2tmp=A*A;"
        joined = "\n".join(lines)
        assert "coeff1=1.0;\ncoeff2=-0.5;\nB_0_1=coeff1*I+coeff2*A2tmp;" in joined
        assert "coeff1=-0.001388888888888889;" in joined
        assert "coeff2=2.48015873015873e-05;" in joined
        assert "coeff1=2.08767569878681e-09;" in joined
        assert "coeff2=-1.1470745597729725e-11;" in joined
        assert "B_1_1=coeff1*I+coeff2*A2tmp;" in joined
        assert "B_2_1=coeff1*I+coeff2*A2tmp;" in joined
        assert lines[-1].startswith("# outputs: ")

    def test_empty_graph_with_input_output(self):
        g = ComputationGraph()
        g.set_outputs(["A"])
        text = render_cgr(g)
        lines = [l for l in text.splitlines() if l]
        assert lines == ['graph_coeff_type="Float64";', "# outputs: A"]

    def test_ldiv_statement(self):
        g, _ = graph_denman_beavers(1)
        assert "Xinv0=A\\I;" in render_cgr(g)

    def test_dangling_reference_rejected(self):
        g, _ = graph_monomial([1.0, 2.0])
        g.rename_node("A", "A_shift")  # graft left unfinished
        with pytest.raises(CgrError, match="dangling"):
            render_cgr(g)


class TestRoundTrip:
    @pytest.mark.parametrize("build", [
        lambda: graph_monomial([1.0, 0.0, 3.0])[0],
        lambda: graph_horner([0.5, -1.5, 2.0, 1.0])[0],
        lambda: graph_ps([1.0 / math.factorial(j) for j in range(12)])[0],
        lambda: graph_monomial_degopt([1.0, 1.0, 0.5])[0],
        lambda: graph_denman_beavers(4)[0],
        lambda: graph_newton_schulz(3)[0],
        lambda: graph_exp_pade_ss(13, 2)[0],
        cosine_ps_graph,
    ])
    def test_structural_equality(self, build, tmp_path):
        g = build()
        path = tmp_path / "g.cgr"
        export_compgraph(g, str(path))
        g2 = import_compgraph(str(path))
        assert g2 == g

    def test_render_parse_render_stable(self):
        g = cosine_ps_graph()
        once = render_cgr(g)
        twice = render_cgr(parse_cgr(once))
        assert once == twice

    def test_bigfloat_lossless(self, tmp_path):
        g, cref = graph_monomial([1 / 3, 1 / 7, 1 / 11, 1 / 13])
        gb = convert_precision(g, bigfloat(256))
        with mp.workprec(256):
            gb.set_coeffs([cref[0]], [mp.mpf(1) / 3])
        path = tmp_path / "big.cgr"
        export_compgraph(gb, str(path))
        g2 = import_compgraph(str(path))
        assert g2.coeff_type == gb.coeff_type
        assert g2.coeffs == gb.coeffs

    def test_complex_coefficients(self, tmp_path):
        from matgraph import CoeffType

        g = ComputationGraph(CoeffType(is_complex=True))
        g.add_lincomb("X", 1.5 - 2.5j, "I", -1e-3 + 4e2j, "A")
        g.set_outputs(["X"])
        path = tmp_path / "c.cgr"
        export_compgraph(g, str(path))
        assert import_compgraph(str(path)) == g

    def test_complex_bigfloat(self, tmp_path):
        g = ComputationGraph(bigfloat(128, True))
        with mp.workprec(128):
            g.add_lincomb("X", mp.mpc(1, 1) / 3, "I", mp.mpc(-2, 5) / 7, "A")
        g.set_outputs(["X"])
        path = tmp_path / "cb.cgr"
        export_compgraph(g, str(path))
        assert import_compgraph(str(path)) == g

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
    def test_non_finite_extended_coefficients(self, word, is_complex):
        """Written as nan, inf or -inf, as binary64 writes them, and read back exactly."""
        v = mp.mpf(word)
        g = ComputationGraph(bigfloat(113, True) if is_complex else bigfloat(256))
        g.add_lincomb("X", *((mp.mpc(v, 1), "I", mp.mpc(1, v), "A") if is_complex
                             else (v, "I", mp.mpf(1), "A")))
        g.set_outputs(["X"])
        text = render_cgr(g)
        assert f"coeff1={word}" in text
        raw = lambda c: c._mpc_ if is_complex else c._mpf_
        assert [raw(c) for c in parse_cgr(text).coeffs["X"]] == [raw(c) for c in g.coeffs["X"]]

    def test_custom_input_id(self, tmp_path):
        g = ComputationGraph(input_id="x")
        g.add_lincomb("y", 1.0, "I", 1.0, "x")
        g.set_outputs(["y"])
        path = tmp_path / "x.cgr"
        export_compgraph(g, str(path))
        g2 = import_compgraph(str(path))
        assert g2.input_id == "x" and g2 == g

    def test_metadata_preserved(self, tmp_path):
        g, _ = graph_monomial([1.0, 2.0])
        g.metadata = {"designed_for": "exp", "radius": "0.45"}
        path = tmp_path / "m.cgr"
        export_compgraph(g, str(path))
        g2 = import_compgraph(str(path))
        assert g2.metadata == g.metadata


class TestParse:
    def test_fig_style_fragment(self):
        text = (
            'graph_coeff_type="Float64";\n'
            "A2tmp=A*A;\n"
            "coeff1=1.0;\n"
            "coeff2=-0.5;\n"
            "B_0_1=coeff1*I+coeff2*A2tmp;\n"
            "coeff1=-0.001388888888888889;\n"
            "coeff2=2.48015873015873e-5;\n"
            "B_1_1=coeff1*I+coeff2*A2tmp;\n"
            "coeff1=2.08767569878681e-9;\n"
            "coeff2=-1.1470745597729725e-11;\n"
            "B_2_1=coeff1*I+coeff2*A2tmp;\n"
        )
        g = parse_cgr(text)
        assert set(g.operations) == {"A2tmp", "B_0_1", "B_1_1", "B_2_1"}
        assert g.coeffs["B_0_1"] == (1.0, -0.5)
        assert g.coeffs["B_1_1"] == (-0.001388888888888889, 2.48015873015873e-5)
        # no outputs comment: defaults to the last assignment
        assert g.outputs == ["B_2_1"]

    def test_whitespace_insensitive(self):
        text = (
            'graph_coeff_type = "Float64" ;\n'
            "X = A * A ;\n"
            "coeff1 = 2.0 ;\n"
            "coeff2 = -1.0 ;\n"
            "Y = coeff1 * X + coeff2 * I ;\n"
            "Z = X \\ Y ;\n"
        )
        g = parse_cgr(text)
        assert g.operations["Z"].value == "ldiv"
        assert eval_graph(g, 2.0) == pytest.approx((2 * 4 - 1) / 4)

    def test_wide_hex_mantissa_rounds_once_to_nearest_even(self):
        # mantissas of 257 and 258 bits read at 256: the ties 2^256 + 1 and
        # 2^256 + 3 go to the even neighbour, 2^257 + 3 (above half) rounds
        # up and 2^257 + 1 (below half) down
        cases = [(2 ** 256 + 1, 2 ** 256), (2 ** 256 + 3, 2 ** 256 + 4),
                 (2 ** 257 + 3, 2 ** 257 + 4), (2 ** 257 + 1, 2 ** 257)]
        for sign in ("", "-"):
            text = 'graph_coeff_type="BigFloat256";\n' + "".join(
                f"coeff1={sign}0x{man:x}p-300;\ncoeff2=0x1p0;\nB{k}=coeff1*I+coeff2*A;\n"
                for k, (man, _) in enumerate(cases))
            g = parse_cgr(text)
            for k, (_, want) in enumerate(cases):
                assert g.coeffs[f"B{k}"][0]._mpf_ == libmp.from_man_exp(int(f"{sign}{want}"), -300)

    def test_undeclared_identifier(self):
        text = 'graph_coeff_type="Float64";\nX=Y*Z;\n'
        with pytest.raises(CgrError, match="line 2.*'Y'"):
            parse_cgr(text)

    def test_duplicate_assignment(self):
        text = 'graph_coeff_type="Float64";\nX=A*A;\nX=A*A;\n'
        with pytest.raises(CgrError, match="duplicate"):
            parse_cgr(text)

    def test_missing_header(self):
        with pytest.raises(CgrError):
            parse_cgr("X=A*A;\n")

    def test_unknown_statement(self):
        text = 'graph_coeff_type="Float64";\nX=A*A*A;\n'
        with pytest.raises(CgrError, match="line 2"):
            parse_cgr(text)

    @pytest.mark.parametrize("text, line", [
        ('graph_coeff_type="Float64";\n# input: 2X\nY=A*A;\n', 2),
        ('graph_coeff_type="Float64";\nY=A*A;\n# outputs: nope\n', 3),
        ('graph_coeff_type="Float64";\n2Y=A*A;\n', 2),
        ('graph_coeff_type="Float64";\nA=A*A;\n', 2),
        ('graph_coeff_type="Float64";\ncoeff1=1.0;\ncoeff2=2.0;\nI=coeff1*A+coeff2*A;\n', 4),
        ('graph_coeff_type="Float64";\nX=A*A;\ncoeff1=1.0;\n', 3),
        ('graph_coeff_type="Float64";\nX=A*A;\ncoeff3=A*X;\n', 3),
        ('graph_coeff_type="Float64";\ngraph_coeff_type=A*A;\n', 2),
        ('graph_coeff_type="Float64";\ncoeff1=1.0;\ncoeff2=2.0;\ncoeff9=coeff1*A+coeff2*I;\n', 4),
    ], ids=["input-id", "unknown-output", "bad-target-id", "assign-input", "assign-identity",
            "trailing-coeff", "assign-coeff-keyword", "assign-header-keyword",
            "lincomb-coeff-keyword"])
    def test_malformed_file_names_line(self, text, line):
        with pytest.raises(CgrError, match=f"^line {line}: ") as exc:
            parse_cgr(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("tag, one, half", [
        ("Float64", "1.5", "-0.5"),
        ("BigFloat256", "0x3p-1", "-0x1p-1"),
        ("ComplexBigFloat113", "0x3p-1+0x0p0i", "-0x1p-1+0x1p-2i"),
    ])
    def test_ids_starting_with_coeff_parse_and_round_trip(self, tag, one, half):
        # ids a keyword line's prefix matches: product and linear-combination
        # targets, and parents of both kinds of statement
        text = (
            f'graph_coeff_type="{tag}";\n\n'
            "coeffs=A*A;\n"
            f"coeff1={one};\n"
            f"coeff2={half};\n"
            "coefficient=coeff1*coeffs+coeff2*I;\n"
            "coeff1x=coefficient\\coeffs;\n"
            f"coeff1={half};\n"
            f"coeff2={one};\n"
            "coeffsum=coeff1*coeff1x+coeff2*coefficient;\n"
            "# outputs: coeffsum\n"
        )
        g = parse_cgr(text)
        assert g.parents == {"coeffs": ("A", "A"), "coefficient": ("coeffs", "I"),
                             "coeff1x": ("coefficient", "coeffs"),
                             "coeffsum": ("coeff1x", "coefficient")}
        assert [op.value for op in g.operations.values()] == ["mult", "lincomb", "ldiv", "lincomb"]
        assert g.outputs == ["coeffsum"]
        assert render_cgr(g) == text
        assert render_cgr(parse_cgr(render_cgr(g))) == text

    @pytest.mark.parametrize("text, message", [
        ('graph_coeff_type="Float64";\nX=A*A;\ncoeff3=1.0;\n',
         "line 3: unrecognized statement 'coeff3=1.0;'"),
        ('graph_coeff_type="Float64";\ncoeff1=1.0;\ncoeff3=1.0;\n',
         "line 3: dangling coeff bindings before a non-lincomb statement"),
    ])
    def test_unknown_coeff_slot_is_refused(self, text, message):
        with pytest.raises(CgrError) as exc:
            parse_cgr(text)
        assert str(exc.value) == message
        assert exc.value.line == 3

    def test_lincomb_without_coeffs(self):
        text = 'graph_coeff_type="Float64";\nX=coeff1*I+coeff2*A;\n'
        with pytest.raises(CgrError, match="coeff"):
            parse_cgr(text)


class TestReplay:
    def test_exported_file_is_executable_script(self):
        # replay the statements with an independent scalar interpreter
        for build in (lambda: graph_monomial([1.0, 0.0, 3.0])[0], cosine_ps_graph,
                      lambda: graph_denman_beavers(3)[0]):
            g = build()
            text = render_cgr(g)
            env = replay_cgr_scalar(text, 0.37)
            want = eval_graph(g, 0.37)
            assert env[g.outputs[0]] == pytest.approx(want, rel=1e-13)


class TestRefused:
    @pytest.mark.parametrize("text, message", [
        ("", "empty file: missing graph_coeff_type header"),
        ("# only a comment\n\n", "empty file: missing graph_coeff_type header"),
        ('graph_coeff_type="Float64";\ncoeff1=1.0;\ncoeff1=2.0;\n',
         "line 3: coeff1 bound twice before use"),
        ('graph_coeff_type="Decimal32";\n', "line 1: unknown coefficient type tag 'Decimal32'"),
        ('graph_coeff_type="BigFloat256";\ncoeff1=1.5;\n',
         "line 2: cannot parse number '1.5': bad hex float '1.5'"),
        ('graph_coeff_type="ComplexF64";\ncoeff1=1.5;\n',
         "line 2: cannot parse number '1.5': complex literal must read "
         r"<real>\+<imag>i or <real>-<imag>i"),
    ])
    def test_malformed_file(self, text, message):
        with pytest.raises(CgrError, match=f"^{message}$"):
            parse_cgr(text)

    def test_node_id_that_is_a_format_keyword_is_not_rendered(self):
        g = ComputationGraph()
        g.add_mult("coeff1", "A", "A")
        g.set_outputs(["coeff1"])
        with pytest.raises(CgrError, match="^node id 'coeff1' collides with a format keyword$"):
            render_cgr(g)
