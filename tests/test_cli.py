import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

import matgraph
from matgraph import (
    CoeffType,
    ComputationGraph,
    Discretization,
    TruncSeries,
    bigfloat,
    convert_scalar,
    eval_graph,
    export_compgraph,
    get_target,
    graph_exp_pade_ss,
    graph_monomial,
    import_compgraph,
    working_precision,
)
from matgraph.cli import main


def run(args):
    return main(args)


class TestGenerate:
    def test_monomial_generates_importable_graph(self, tmp_path):
        out = tmp_path / "g.cgr"
        assert run(["generate", "--scheme", "monomial", "--coeffs", "1,0,3",
                    "--out", str(out)]) == 0
        g = import_compgraph(str(out))
        assert eval_graph(g, 0.1) == pytest.approx(1.03)

    def test_denman_beavers_node_count(self, tmp_path):
        out = tmp_path / "db.cgr"
        assert run(["generate", "--scheme", "denman-beavers", "--iters", "4",
                    "--out", str(out)]) == 0
        from matgraph import get_topo_order

        g = import_compgraph(str(out))
        assert len(get_topo_order(g)) == 17

    def test_unknown_scheme_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--scheme", "bogus", "--out", str(tmp_path / "x.cgr")])
        assert exc.value.code == 2

    def test_missing_coeffs_usage_error(self, tmp_path):
        assert run(["generate", "--scheme", "monomial", "--out", str(tmp_path / "x.cgr")]) == 2

    def test_compress_flag(self, tmp_path):
        out = tmp_path / "m.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,0,3", "--compress",
             "--out", str(out)])
        g = import_compgraph(str(out))
        assert len(g.operations) == 2  # the pass-through node is gone


class TestEval:
    def test_matrix_csv_round_trip(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,0,3", "--out", str(gfile)])
        mfile = tmp_path / "A.csv"
        mfile.write_text("3,4\n5,6\n")
        capsys.readouterr()
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 0
        outlines = capsys.readouterr().out.strip().splitlines()
        rows = [[float(t) for t in line.split(",")] for line in outlines]
        assert rows == [[88.0, 108.0], [135.0, 169.0]]

    def test_denman_beavers_example_values(self, tmp_path, capsys):
        gfile = tmp_path / "db.cgr"
        run(["generate", "--scheme", "denman-beavers", "--iters", "4", "--out", str(gfile)])
        mfile = tmp_path / "A.csv"
        mfile.write_text("0.5,0.2\n0.3,0.5\n")
        capsys.readouterr()
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 0
        outlines = capsys.readouterr().out.strip().splitlines()
        got = np.array([[float(t) for t in line.split(",")] for line in outlines])
        assert np.max(np.abs(got - [[0.684065, 0.146185], [0.219277, 0.684065]])) <= 5e-7

    def test_scalar_point(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,0,3", "--out", str(gfile)])
        capsys.readouterr()
        assert run(["eval", str(gfile), "--point", "0.1"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.03)

    def test_input_flag_is_a_usage_error(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "ps", "--coeffs", "1,1,0.5", "--out", str(gfile)])
        with pytest.raises(SystemExit) as exc:
            run(["eval", str(gfile), "--point", "0.5", "--input", "A"])
        assert exc.value.code == 2

    def test_point_binds_the_files_input_id(self, tmp_path, capsys):
        g = ComputationGraph(input_id="x")
        g.add_lincomb("y", 1.0, "I", 2.0, "x")
        g.set_outputs(["y"])
        gfile = tmp_path / "x.cgr"
        export_compgraph(g, str(gfile))
        assert "# input: x" in gfile.read_text()
        assert run(["eval", str(gfile), "--point", "3"]) == 0
        assert capsys.readouterr().out.strip() == "7.0"

    def test_complex_entries(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "0,1", "--out", str(gfile)])
        mfile = tmp_path / "A.csv"
        mfile.write_text("1+2i,0\n0,1-2i\n")
        capsys.readouterr()
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 0
        out = capsys.readouterr().out
        assert "1.0+2.0i" in out and "1.0-2.0i" in out

    @pytest.mark.parametrize("args", [["--point", "0.5", "--matrix", "A.csv"], []])
    def test_point_and_matrix_are_one_of_usage_error(self, tmp_path, args):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,0,3", "--out", str(gfile)])
        with pytest.raises(SystemExit) as exc:
            run(["eval", str(gfile), *args])
        assert exc.value.code == 2

    def test_point_out_writes_the_file_only(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "ps", "--coeffs", "1,1,0.5", "--out", str(gfile)])
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert run(["eval", str(gfile), "--point", "0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == "1.625\n"

    def test_two_output_graph_out_holds_both_blocks(self, tmp_path, capsys):
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        g.add_output("A2")
        gfile = tmp_path / "g.cgr"
        export_compgraph(g, str(gfile))
        out = tmp_path / "v.csv"
        capsys.readouterr()
        assert run(["eval", str(gfile), "--point", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines == [f"# output {g.outputs[0]}", "13.0", "# output A2", "4.0"]

    def test_missing_file_io_error(self, tmp_path):
        assert run(["eval", str(tmp_path / "nope.cgr"), "--point", "1"]) == 4

    def test_bad_matrix_io_error(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1", "--out", str(gfile)])
        mfile = tmp_path / "bad.csv"
        mfile.write_text("1,2\n3\n")
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 4

    def test_singular_solve_numerical_error(self, tmp_path):
        gfile = tmp_path / "ns.cgr"
        run(["generate", "--scheme", "denman-beavers", "--iters", "1", "--out", str(gfile)])
        mfile = tmp_path / "Z.csv"
        mfile.write_text("0,0\n0,0\n")
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 3

    def test_high_precision_solve(self, tmp_path, capsys):
        # a linear solve on mpmath entries of a numpy matrix
        gfile = tmp_path / "p.cgr"
        run(["generate", "--scheme", "exp-pade", "--degree", "3", "--precision", "128",
             "--out", str(gfile)])
        mfile = tmp_path / "A.csv"
        mfile.write_text("0.5,0.2\n0.3,0.5\n")
        capsys.readouterr()
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 0
        outlines = capsys.readouterr().out.strip().splitlines()
        got = np.array([[float(t) for t in line.split(",")] for line in outlines])
        want = eval_graph(graph_exp_pade_ss(3, 0)[0], np.array([[0.5, 0.2], [0.3, 0.5]]))
        assert np.max(np.abs(got - want)) <= 1e-14
        run(["generate", "--scheme", "denman-beavers", "--iters", "1", "--precision", "256",
             "--out", str(gfile)])
        mfile.write_text("0,0\n0,0\n")
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 3

    def test_nan_coefficient_matrix_numerical_error(self, tmp_path):
        # --matrix refuses a non-finite result as --point does, writing nothing
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,2", "--out", str(gfile)])
        text = gfile.read_text()
        first = next(l for l in text.splitlines() if l.startswith("coeff1="))
        gfile.write_text(text.replace(first, "coeff1=nan;", 1))
        assert run(["eval", str(gfile), "--point", "0.5"]) == 3
        mfile = tmp_path / "A.csv"
        mfile.write_text("0.5,0\n0,0.5\n")
        out = tmp_path / "out.csv"
        assert run(["eval", str(gfile), "--matrix", str(mfile), "--out", str(out)]) == 3
        assert not out.exists()


class TestOptimize:
    def test_small_fit_writes_report(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial-degopt", "--coeffs", "1,1,0.5,0.16666666666666666",
             "--out", str(gfile)])
        out = tmp_path / "opt.cgr"
        rep = tmp_path / "report.json"
        # the degree-4 model bottoms out at ~2.1e-5 relative on this disk
        code = run(["optimize", str(gfile), "--target", "exp", "--radius", "0.3",
                    "--points", "40", "--precision", "128", "--stoptol", "5e-5",
                    "--maxiter", "12", "--out", str(out), "--report", str(rep)])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["converged"] and payload["stop_reason"] == "converged"
        g = import_compgraph(str(out))
        z = 0.25
        assert abs(eval_graph(g, z) - math.exp(z)) <= 5e-5 * math.exp(z)

    def test_report_is_json_whatever_its_name(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,0.5", "--out", str(gfile)])
        rep = tmp_path / "fit.csv"
        assert run(["optimize", str(gfile), "--target", "exp", "--radius", "0.3",
                    "--points", "20", "--precision", "53", "--maxiter", "3", "--stoptol", "1e-30",
                    "--out", str(tmp_path / "o.cgr"), "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["iterations"] == 3 and len(payload["residual_history"]) == 3

    def test_verbose_logs_progress_to_stderr(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,0.5", "--out", str(gfile)])
        args = ["optimize", str(gfile), "--target", "exp", "--radius", "0.3", "--points", "20",
                "--precision", "53", "--maxiter", "3", "--stoptol", "1e-30",
                "--out", str(tmp_path / "o.cgr")]
        capsys.readouterr()
        assert run(args + ["--verbose"]) == 0
        out = capsys.readouterr()
        lines = out.err.strip().splitlines()
        assert [l.split(":")[0] for l in lines[:3]] == [f"gauss-newton iter {k}" for k in range(3)]
        assert lines[-1] == "gauss-newton: 3 iterations done; stopping"
        assert "gauss-newton" not in out.out
        # the handler is gone afterwards
        assert run(args) == 0
        assert capsys.readouterr().err == ""

    def test_zero_iterations_when_converged(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        series = tmp_path / "t.txt"
        series.write_text("1\n1\n")
        out = tmp_path / "o.cgr"
        rep = tmp_path / "r.json"
        code = run(["optimize", str(gfile), "--target", f"series:{series}",
                    "--radius", "0.5", "--stoptol", "1e-10", "--precision", "53",
                    "--out", str(out), "--report", str(rep)])
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["iterations"] == 0 and payload["converged"]
        assert import_compgraph(str(out)) == import_compgraph(str(gfile))

    def test_default_precision_is_256(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial-degopt", "--coeffs", "1,1",
             "--out", str(gfile)])
        out = tmp_path / "o.cgr"
        assert run(["optimize", str(gfile), "--target", "exp", "--radius", "0.2",
                    "--points", "20", "--stoptol", "1e-8", "--maxiter", "6",
                    "--out", str(out)]) == 0
        assert import_compgraph(str(out)).coeff_type.prec == 256

    def test_precision_53_converts_extended_graph(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,0.5", "--precision", "256",
             "--out", str(gfile)])
        out = tmp_path / "o.cgr"
        assert run(["optimize", str(gfile), "--target", "exp", "--radius", "0.2",
                    "--points", "20", "--precision", "53", "--maxiter", "1",
                    "--out", str(out)]) == 0
        assert out.read_text().startswith('graph_coeff_type="Float64";')
        assert import_compgraph(str(out)).coeff_type == CoeffType()

    def test_graph_without_coefficients_numerical_error(self, tmp_path, capsys):
        g = ComputationGraph()
        g.add_mult("A2", "A", "A")
        g.set_outputs(["A2"])
        gfile, out = tmp_path / "g.cgr", tmp_path / "o.cgr"
        export_compgraph(g, str(gfile))
        assert run(["optimize", str(gfile), "--target", "exp", "--radius", "0.3",
                    "--points", "8", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "matgraph: graph has no tunable coefficients\n"
        assert not out.exists()

    def test_rel_with_root_in_domain_numerical_error(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,0.5", "--out", str(gfile)])
        code = run(["optimize", str(gfile), "--target", "sqrt1p", "--radius", "1.5",
                    "--errtype", "rel", "--out", str(tmp_path / "o.cgr")])
        assert code == 3
        assert "root" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("precision", [["--precision", "53"], []])
    def test_nan_coefficient_numerical_error(self, tmp_path, capsys, precision):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,0.5", "--out", str(gfile)])
        text = gfile.read_text()
        gfile.write_text(text.replace("coeff1=1.0;", "coeff1=nan;", 1))
        code = run(["optimize", str(gfile), "--target", "exp", "--radius", "0.5", *precision,
                    "--out", str(tmp_path / "o.cgr")])
        assert code == 3
        assert "not finite" in capsys.readouterr().err

    def test_nan_coefficient_in_solve_graph_warns_nothing(self, tmp_path, capsys):
        # numpy flags the NaN divisions of the points evaluation; the command
        # reports the non-finite residual itself and numpy's warning is not
        # raised (the test suite turns warnings into errors) nor printed
        gfile = tmp_path / "db.cgr"
        run(["generate", "--scheme", "denman-beavers", "--iters", "2", "--out", str(gfile)])
        text = gfile.read_text()
        gfile.write_text(text.replace("coeff1=0.5;", "coeff1=nan;", 1))
        code = run(["optimize", str(gfile), "--target", "exp", "--radius", "0.5",
                    "--points", "8", "--maxiter", "2", "--precision", "53",
                    "--out", str(tmp_path / "o.cgr")])
        assert code == 3
        err = capsys.readouterr().err
        assert "not finite" in err
        assert "RuntimeWarning" not in err


class TestCertify:
    def test_pade13_theta_row(self, tmp_path, capsys):
        gfile = tmp_path / "p13.cgr"
        run(["generate", "--scheme", "exp-pade", "--degree", "13", "--squarings", "0",
             "--precision", "256", "--out", str(gfile)])
        capsys.readouterr()
        assert run(["certify", str(gfile)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "graph,multiplications,theta,u,nterms"
        name, mults, theta, u, nterms = out[1].split(",")
        assert int(mults) == 7
        assert abs(float(theta) - 5.371920351148152) <= 5e-2
        assert int(nterms) == 100

    def test_out_writes_the_file_only(self, tmp_path, capsys):
        gfile = tmp_path / "p3.cgr"
        run(["generate", "--scheme", "exp-pade", "--degree", "3", "--precision", "128",
             "--out", str(gfile)])
        out = tmp_path / "theta.csv"
        capsys.readouterr()
        assert run(["certify", str(gfile), "--nterms", "20", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "graph,multiplications,theta,u,nterms"
        assert lines[1].startswith("p3,") and len(lines) == 2

    def test_non_exp_graph_reports_zero_radius(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "0", "--out", str(gfile)])
        capsys.readouterr()
        assert run(["certify", str(gfile)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split(",")[2] == "0.0"
        assert "warning" in captured.err

    def test_non_finite_graph_reports_zero_radius(self, tmp_path, capsys):
        g, _ = graph_monomial([1.0, 1.0, 0.5, math.nan])
        gfile = tmp_path / "g.cgr"
        export_compgraph(g, str(gfile))
        assert run(["certify", str(gfile), "--nterms", "20"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split(",")[2] == "0.0"
        assert "warning: non-finite series coefficient" in captured.err

    def test_refusal_warning_names_the_bound_u_and_g0(self, tmp_path, capsys):
        # g(0) = 1, but the log series starts at delta_1 = 1e-10 z, above u from t = 0
        g, _ = graph_monomial([1, 1 + 1e-10, 0.5], bigfloat(256))
        gfile = tmp_path / "g.cgr"
        export_compgraph(g, str(gfile))
        assert run(["certify", str(gfile), "--nterms", "20"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("# warning: no sign change: bound above u on the whole bracket")
        assert "(bound 1.0e-10 at t -> 0, u = 1.11e-16, g(0) - 1 = 0.0)" in err


class TestCompressCodegenConvert:
    def test_compress_removes_passthrough(self, tmp_path, capsys):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,0,3", "--out", str(gfile)])
        out = tmp_path / "c.cgr"
        assert run(["compress", str(gfile), "--out", str(out)]) == 0
        g = import_compgraph(str(out))
        assert len(g.operations) == 2

    def test_codegen_matlab_golden_stable(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "ps", "--coeffs",
             ",".join(str((-1.0) ** k / math.factorial(2 * k)) for k in range(10)),
             "--out", str(gfile)])
        m1 = tmp_path / "f1.m"
        m2 = tmp_path / "f2.m"
        assert run(["codegen", str(gfile), "--lang", "matlab", "--funname", "f",
                    "--out", str(m1)]) == 0
        assert run(["codegen", str(gfile), "--lang", "matlab", "--funname", "f",
                    "--out", str(m2)]) == 0
        assert m1.read_text() == m2.read_text()

    def test_codegen_c_writes_header(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,0,3", "--out", str(gfile)])
        cfile = tmp_path / "ev.c"
        assert run(["codegen", str(gfile), "--lang", "c", "--funname", "ev",
                    "--out", str(cfile)]) == 0
        assert cfile.exists() and (tmp_path / "ev.h").exists()

    @pytest.mark.parametrize("name", ["bad name", "_f"])
    def test_codegen_bad_funname_usage_error(self, tmp_path, capsys, name):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "exp-pade", "--degree", "5", "--out", str(gfile)])
        cfile = tmp_path / "x.c"
        assert run(["codegen", str(gfile), "--lang", "c", "--funname", name,
                    "--out", str(cfile)]) == 2
        assert "invalid function name" in capsys.readouterr().err and not cfile.exists()

    @pytest.mark.parametrize("lang", ["c", "matlab"])
    def test_codegen_non_finite_coefficient_usage_error(self, tmp_path, capsys, lang):
        gfile = tmp_path / "g.cgr"
        gfile.write_text('graph_coeff_type="Float64";\n'
                         "coeff1=inf;\ncoeff2=1.0;\nB=coeff1*A+coeff2*I;\n")
        assert run(["codegen", str(gfile), "--lang", lang, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == "matgraph: node 'B': coefficient inf is not finite in binary64\n"
        assert os.listdir(tmp_path) == ["g.cgr"]

    def test_convert_precision(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "0.333333333333,1",
             "--out", str(gfile)])
        out = tmp_path / "b.cgr"
        assert run(["convert", str(gfile), "--type", "BigFloat256", "--out", str(out)]) == 0
        g = import_compgraph(str(out))
        assert g.coeff_type.prec == 256


class TestConfigAndDeterminism:
    def test_config_flag_is_a_usage_error(self, tmp_path):
        # every value is set by its own flag; there is no config file
        with pytest.raises(SystemExit) as exc:
            run(["--config", "run.cfg", "generate", "--scheme", "denman-beavers",
                 "--out", str(tmp_path / "db.cgr")])
        assert exc.value.code == 2

    def test_deterministic_given_seed(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial-degopt", "--coeffs", "1,1,0.5",
             "--out", str(gfile)])
        outs = []
        for name in ("a.cgr", "b.cgr"):
            out = tmp_path / name
            run(["optimize", str(gfile), "--target", "exp", "--radius", "0.25",
                 "--points", "30", "--precision", "128", "--stoptol", "1e-9",
                 "--maxiter", "6", "--perturb", "1e-4", "--seed", "11",
                 "--out", str(out)])
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_precision_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MATGRAPH_PRECISION", "128")
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial-degopt", "--coeffs", "1,1",
             "--out", str(gfile)])
        out = tmp_path / "o.cgr"
        assert run(["optimize", str(gfile), "--target", "exp", "--radius", "0.2",
                    "--points", "20", "--stoptol", "1e-8", "--maxiter", "6",
                    "--out", str(out)]) == 0
        assert import_compgraph(str(out)).coeff_type.prec == 128


class TestUserInput:
    """Bad values typed by the user end in a usage error, not a traceback."""

    def test_bad_coefficient_usage_error(self, tmp_path):
        assert run(["generate", "--scheme", "monomial", "--coeffs", "1,abc",
                    "--out", str(tmp_path / "g.cgr")]) == 2

    def test_bad_point_usage_error(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        assert run(["eval", str(gfile), "--point", "abc"]) == 2

    @pytest.mark.parametrize("args", [
        ["--scheme", "exp-pade", "--degree", "4"],
        ["--scheme", "exp-pade", "--degree", "0"],
        ["--scheme", "exp-pade", "--squarings", "-1"],
        ["--scheme", "denman-beavers", "--iters", "0"],
        ["--scheme", "newton-schulz", "--iters", "0"],
    ])
    def test_generator_argument_usage_error(self, tmp_path, args):
        assert run(["generate", *args, "--out", str(tmp_path / "g.cgr")]) == 2

    def test_unknown_type_tag_usage_error(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        assert run(["convert", str(gfile), "--type", "Bogus",
                    "--out", str(tmp_path / "o.cgr")]) == 2

    def test_huge_decimal_exponent_rejected_quickly(self, tmp_path):
        # building the exact value of 1e3000000 would take seconds
        t0 = time.perf_counter()
        assert run(["generate", "--scheme", "monomial", "--coeffs", "1,1e3000000",
                    "--out", str(tmp_path / "g.cgr")]) == 2
        assert time.perf_counter() - t0 < 0.2

    @pytest.mark.parametrize("command, args", [
        ("optimize", ["--gamma", "2"]),
        ("optimize", ["--gamma", "nan"]),
        ("optimize", ["--droptol", "-1"]),
        ("optimize", ["--droptol", "nan"]),
        ("optimize", ["--maxiter", "-1"]),
        ("optimize", ["--points", "1"]),
        ("certify", ["--nterms", "0"]),
        ("optimize", ["--stoptol", "nan"]),
        ("optimize", ["--stoptol", "-1"]),
        ("certify", ["--nterms", "20", "--u", "-1"]),
        ("certify", ["--nterms", "20", "--u", "nan"]),
        ("certify", ["--nterms", "20", "--u", "0"]),
        ("certify", ["--nterms", "20", "--u", "1"]),
        ("certify", ["--nterms", "20", "--u", "inf"]),
        ("certify", ["--nterms", "20", "--precision", "0"]),
        ("certify", ["--nterms", "20", "--precision", "-5"]),
        ("certify", ["--nterms", "20", "--precision", "52"]),
        ("optimize", ["--radius", "nan"]),
        ("optimize", ["--radius", "inf"]),
        ("optimize", ["--center", "nan"]),
        ("optimize", ["--perturb", "nan"]),
        ("optimize", ["--perturb", "inf"]),
        ("optimize", ["--perturb", "0.1", "--seed", "-1"]),
        ("optimize", ["--precision", "0"]),
        ("optimize", ["--precision", "30"]),
        ("optimize", ["--precision", "-5"]),
        ("optimize", ["--droptol", "1"]),
        ("optimize", ["--droptol", "inf"]),
    ])
    def test_bad_numeric_option_usage_error(self, tmp_path, command, args):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        if command == "optimize":
            args = ["--target", "exp", "--radius", "0.3", "--precision", "53",
                    "--maxiter", "1", *args, "--out", str(tmp_path / "o.cgr")]
        assert run([command, str(gfile), *args]) == 2

    def test_precision_env_below_53_usage_error(self, tmp_path, monkeypatch):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        monkeypatch.setenv("MATGRAPH_PRECISION", "30")
        assert run(["optimize", str(gfile), "--target", "exp", "--radius", "0.3",
                    "--maxiter", "1", "--out", str(tmp_path / "o.cgr")]) == 2

    def test_generate_precision_env_below_53_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MATGRAPH_PRECISION", "30")
        assert run(["generate", "--scheme", "monomial", "--coeffs", "1,0.1",
                    "--out", str(tmp_path / "g.cgr")]) == 2

    def test_graph_rule_broken_in_file_format_error(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        gfile.write_text('graph_coeff_type="Float64";\n# input: 2X\nY=A*A;\n')
        assert run(["eval", str(gfile), "--point", "0.5"]) == 4

    def test_certify_multi_output_graph_format_error(self, tmp_path):
        # GraphError is a ValueError, but a graph certify cannot read is not a bad option
        g, _ = graph_monomial([1.0, 0.0, 3.0])
        g.add_output("A2")
        gfile = tmp_path / "g.cgr"
        export_compgraph(g, str(gfile))
        assert run(["certify", str(gfile), "--nterms", "20"]) == 4

    def test_removed_adaptive_gamma_usage_error(self, tmp_path):
        # the step-halving mode is gone: its flag is refused
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        argv = ["optimize", str(gfile), "--target", "exp", "--radius", "0.3",
                "--precision", "53", "--maxiter", "1", "--out", str(tmp_path / "o.cgr")]
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--adaptive-gamma"])
        assert exc.value.code == 2

    def test_out_of_memory_numerical_error(self, tmp_path, capsys, monkeypatch):
        # a huge --points makes numpy refuse the point array; nothing is allocated here
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(Discretization, "disk", refuse)
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        capsys.readouterr()
        assert run(["optimize", str(gfile), "--target", "exp", "--radius", "0.3",
                    "--precision", "53", "--points", "100000000000",
                    "--out", str(tmp_path / "o.cgr")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("matgraph: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("point", ["1e400", "1e200"])
    def test_non_finite_point_or_value_numerical_error(self, tmp_path, capsys, point):
        # 1e400 is not finite as a point; 1e200 is, but its square is not
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,1", "--out", str(gfile)])
        capsys.readouterr()
        assert run(["eval", str(gfile), "--point", point]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("point", ["inf", "infinity", "1+infi", "-inf"])
    def test_inf_point_numerical_error(self, tmp_path, capsys, point):
        # inf is a non-finite point, as nan is, not a malformed one; -inf is
        # no option, though argparse would read it as one
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,1", "--out", str(gfile)])
        capsys.readouterr()
        assert run(["eval", str(gfile), "--point", point]) == 3
        assert capsys.readouterr().out == ""

    def test_negative_complex_point_after_a_space(self, tmp_path, capsys):
        # argparse would take -0.5+1i for an option; it binds as --point=-0.5+1i does
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,0.5", "--out", str(gfile)])
        capsys.readouterr()
        assert run(["eval", str(gfile), "--point", "-0.5+1i"]) == 0
        assert capsys.readouterr().out == "0.125+0.5i\n"

    def test_inf_matrix_entry_numerical_error(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1,1", "--out", str(gfile)])
        mfile = tmp_path / "A.csv"
        mfile.write_text("0.5,inf\n0,0.5+2i\n")
        assert run(["eval", str(gfile), "--matrix", str(mfile)]) == 3


class TestExactCoefficients:
    def test_coeffs_rounded_once_at_precision(self, tmp_path):
        out = tmp_path / "g.cgr"
        assert run(["generate", "--scheme", "monomial", "--coeffs", "1,0.1",
                    "--precision", "256", "--out", str(out)]) == 0
        g = import_compgraph(str(out))
        assert g.coeffs["P2"][1] == convert_scalar(Fraction(1, 10), bigfloat(256))

    def test_precision_env_sets_generate_precision(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MATGRAPH_PRECISION", "256")
        out = tmp_path / "g.cgr"
        assert run(["generate", "--scheme", "monomial", "--coeffs", "1,0.1",
                    "--out", str(out)]) == 0
        g = import_compgraph(str(out))
        assert g.coeff_type.tag == "BigFloat256"
        assert g.coeffs["P2"][1] == convert_scalar(Fraction(1, 10), bigfloat(256))

    def test_series_target_rounded_once_at_precision(self, tmp_path):
        sfile = tmp_path / "t.txt"
        sfile.write_text("# 1 + z/10\n1\n0.1\n")
        f = get_target(f"series:{sfile}", bigfloat(256))
        tenth = convert_scalar(Fraction(1, 10), bigfloat(256))
        assert isinstance(f, TruncSeries) and f.coeffs == [1, tenth]
        with working_precision(256):
            assert f(mp.mpf(2)) == 1 + 2 * tenth

    def test_missing_series_target_file_io_error(self, tmp_path):
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        assert run(["optimize", str(gfile), "--target", f"series:{tmp_path / 'missing.txt'}",
                    "--radius", "0.3", "--out", str(tmp_path / "o.cgr")]) == 4

    def test_series_target_huge_exponent_usage_error(self, tmp_path):
        sfile = tmp_path / "t.txt"
        sfile.write_text("1\n1e-3000000\n")
        gfile = tmp_path / "g.cgr"
        run(["generate", "--scheme", "monomial", "--coeffs", "1,1", "--out", str(gfile)])
        t0 = time.perf_counter()
        assert run(["optimize", str(gfile), "--target", f"series:{sfile}", "--radius", "0.5",
                    "--precision", "53", "--out", str(tmp_path / "o.cgr")]) == 2
        assert time.perf_counter() - t0 < 0.2


# -- each command loads only the modules it runs --

# runs main(argv) in a fresh interpreter, then prints its exit code and the
# matgraph modules loaded
FOOTPRINT = """
import sys
from matgraph.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version and argparse usage errors
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("matgraph")))
"""


@pytest.mark.parametrize("argv, code, modules", [
    (["--version"], 0, []),
    (["generate", "--out", "q.cgr"], 2, []),
    (["codegen", "p.cgr", "--lang", "c", "--out", "p.c"], 0, ["cgr", "codegen"]),
    (["convert", "p.cgr", "--type", "BigFloat256", "--out", "q.cgr"], 0, ["cgr"]),
    (["compress", "p.cgr", "--out", "q.cgr"], 0, ["cgr"]),
    (["eval", "p.cgr", "--point", "0.5"], 0, ["cgr", "evaluation", "series"]),
    (["certify", "p.cgr", "--nterms", "30"], 0, ["cgr", "erroranalysis", "evaluation", "series"]),
    (["generate", "--scheme", "ps", "--coeffs", "1,1,0.5,0.25", "--out", "q.cgr"], 0,
     ["cgr", "degopt"]),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, argv, code, modules):
    assert run(["generate", "--scheme", "exp-pade", "--degree", "5",
                "--out", str(tmp_path / "p.cgr")]) == 0
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(matgraph.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    core = ["matgraph", "matgraph.cli", "matgraph.graph", "matgraph.numerics"]
    want = [str(code), *sorted(core + [f"matgraph.{m}" for m in modules])]
    assert proc.stdout.splitlines()[-1].split() == want, proc.stderr


# -- fuzzing: every argv and CGR text ends in a documented exit code --

_TEXT = st.text(alphabet="0123456789.,-+eEij/ nafxI=#", max_size=10)

# CGR mutations, applied to one of the files the test writes: ("delete", i),
# ("insert", i, token), ("coeff", i, value) and ("header", line)
_CGR_TOKENS = ["=", ";", "*", "+", "\\", "(", "A", "I", "A2", "coeff1", "coeff2", "0x1p0",
               "-1.5", "nan", "inf", "\n", "#", '"', "graph_coeff_type", "# outputs:", "P3"]
_CGR_VALUES = ["nan", "-nan", "inf", "-inf", "1e400", "0x1p99999", "nani", "1+nani", "0x1.8p-1",
               "", "1/0", "1.0.0"]
_CGR_HEADERS = ['graph_coeff_type="Bogus";', 'graph_coeff_type="BigFloat1";',
                'graph_coeff_type="BigFloat128";', 'graph_coeff_type="ComplexF64";',
                'graph_coeff_type=Float64;', 'graph_coeff_type="Float64"', "", "coeff1=1.0;"]
_CGR_MUTATION = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 400)),
    st.tuples(st.just("insert"), st.integers(0, 400), st.sampled_from(_CGR_TOKENS)),
    st.tuples(st.just("coeff"), st.integers(0, 40), st.sampled_from(_CGR_VALUES)),
    st.tuples(st.just("header"), st.sampled_from(_CGR_HEADERS)),
)


def _mutate_cgr(text, mutations):
    for kind, *arg in mutations:
        lines = text.split("\n")
        if kind == "header":
            lines[0] = arg[0]
            text = "\n".join(lines)
        elif kind == "coeff":
            slots = [k for k, line in enumerate(lines) if line.startswith("coeff")]
            if slots:
                k = slots[arg[0] % len(slots)]
                lines[k] = f"{lines[k].partition('=')[0]}={arg[1]};"
            text = "\n".join(lines)
        else:
            tokens = [t for t in re.split(r"(\W)", text) if t]
            if kind == "delete" and tokens:
                del tokens[arg[0] % len(tokens)]
            elif kind == "insert":
                tokens.insert(arg[0] % (len(tokens) + 1), arg[1])
            text = "".join(tokens)
    return text


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["generate", "eval", "convert", "cgr"]))
    mutation = None
    if command == "generate":
        argv = ["generate", "--scheme", draw(st.sampled_from(
            ["monomial", "horner", "ps", "monomial-degopt", "horner-degopt", "ps-degopt",
             "denman-beavers", "newton-schulz", "exp-pade"]))]
        if draw(st.booleans()):
            argv += ["--coeffs", draw(st.one_of(
                _TEXT, st.lists(st.sampled_from(["1", "0.1", "-2.5e-3", "0", "1/3", "1e400"]),
                                min_size=1, max_size=6).map(",".join)))]
        for flag in ("--iters", "--degree", "--squarings"):
            if draw(st.booleans()):
                argv += [flag, draw(st.integers(-2, 14).map(str))]
        if draw(st.booleans()):
            argv += ["--precision", draw(st.sampled_from(["10", "53", "64", "256"]))]
        if draw(st.booleans()):
            argv.append("--compress")
        argv += ["--out", draw(st.sampled_from(["out.cgr", "missing/out.cgr"]))]
    elif command == "eval":
        argv = ["eval", draw(st.sampled_from(["g.cgr", "g256.cgr", "db.cgr", "bad.cgr",
                                              "none.cgr"]))]
        if draw(st.booleans()):
            argv += ["--point", draw(st.one_of(
                _TEXT, st.sampled_from(["0.5", "1e400", "1e200", "-1", "nan", "inf", "1+2i"])))]
        else:
            argv += ["--matrix", draw(st.sampled_from(["A.csv", "Z.csv", "bad.csv", "none.csv"]))]
    elif command == "convert":
        argv = ["convert", draw(st.sampled_from(["g.cgr", "bad.cgr", "none.cgr"])), "--type",
                draw(st.one_of(_TEXT, st.sampled_from(
                    ["Float64", "ComplexF64", "BigFloat256", "BigFloat10", "Bogus"]))),
                "--out", draw(st.sampled_from(["out.cgr", "missing/out.cgr"]))]
    else:
        mutation = (draw(st.sampled_from(["g.cgr", "g256.cgr", "db.cgr", "pade.cgr"])),
                    draw(st.lists(_CGR_MUTATION, min_size=1, max_size=3)))
        argv = draw(st.sampled_from([
            ["eval", "mut.cgr", "--point", "0.5"],
            ["eval", "mut.cgr", "--matrix", "A.csv"],
            ["convert", "mut.cgr", "--type", "BigFloat128", "--out", "out.cgr"],
            ["compress", "mut.cgr", "--out", "out.cgr"],
            ["codegen", "mut.cgr", "--lang", "c", "--out", "out.c"],
            ["certify", "mut.cgr", "--nterms", "8", "--precision", "64"],
            ["optimize", "mut.cgr", "--target", "exp", "--radius", "0.5", "--points", "8",
             "--maxiter", "2", "--out", "out.cgr"],
            ["optimize", "mut.cgr", "--target", "exp", "--radius", "0.5", "--points", "8",
             "--maxiter", "2", "--precision", "53", "--out", "out.cgr"],
        ]))
    return argv, mutation


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argv())
def test_fuzz_exit_codes(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "g.cgr").exists():
        for name, scheme, extra in (("g.cgr", "monomial", ["--coeffs", "1,1,1"]),
                                    ("g256.cgr", "monomial",
                                     ["--coeffs", "1,0.1", "--precision", "256"]),
                                    ("db.cgr", "denman-beavers", ["--iters", "2"]),
                                    ("pade.cgr", "exp-pade",
                                     ["--degree", "3", "--precision", "128"])):
            assert main(["generate", "--scheme", scheme, *extra, "--out", name]) == 0
        (tmp_path / "bad.cgr").write_text("not a graph\n")
        (tmp_path / "A.csv").write_text("0.5,0.2\n0.3,0.5\n")
        (tmp_path / "Z.csv").write_text("0,0\n0,0\n")
        (tmp_path / "bad.csv").write_text("1,2\n3\n")
    argv, mutation = case
    if mutation is not None:
        base, mutations = mutation
        (tmp_path / "mut.cgr").write_text(_mutate_cgr((tmp_path / base).read_text(), mutations))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv itself
        code = exc.code
    capsys.readouterr()
    assert code in (0, 2, 3, 4), argv
