"""Byte-for-byte pins of the CLI's optimized graphs, run in-process.

The CI step "optimize a degree-optimal exp graph in real and complex step
modes" runs the same commands through the installed entry point and checks
the same digests.  The optimized coefficients depend on every bit of the
Gauss-Newton steps, so a change to the least-squares kernels that moves
one bit moves a digest.
"""

import hashlib

import pytest

from matgraph.cli import main

# copied from .github/workflows/tier1.yml
DIGESTS = {
    "o.cgr": "56a3c1da21fa081c76878c2f9f66e28938fa20a9c8537d094f090efdce6bac0d",
    "oc.cgr": "d2b0f882727a1e66290a230069320a060ce93979f33c634b6d14dd7ce90a17b5",
}
COMMANDS = [
    ["generate", "--scheme", "monomial-degopt", "--precision", "256", "--out", "m.cgr",
     "--coeffs", "1,1,0.5,0.16666666666666666,0.041666666666666664,0.008333333333333333"],
    ["optimize", "m.cgr", "--target", "exp", "--radius", "0.45", "--points", "40",
     "--maxiter", "3", "--out", "o.cgr"],
    ["convert", "m.cgr", "--type", "ComplexBigFloat256", "--out", "mc.cgr"],
    ["optimize", "mc.cgr", "--target", "exp", "--radius", "0.45", "--points", "40",
     "--maxiter", "2", "--linlsqr", "complex", "--out", "oc.cgr"],
]
# the optimized coefficients use every mantissa bit: converting a graph to
# its own kind rewrites the same words, real and complex
ROUND_TRIPS = [("o.cgr", "BigFloat256"), ("oc.cgr", "ComplexBigFloat256"),
               ("ocf.cgr", "ComplexF64"), ("o113.cgr", "BigFloat113")]
NARROWED = [("oc.cgr", "ComplexF64", "ocf.cgr"), ("o.cgr", "BigFloat113", "o113.cgr")]


@pytest.fixture(scope="module")
def optimized(tmp_path_factory):
    """The directory holding the optimized graphs, made once."""
    path = tmp_path_factory.mktemp("pins")
    for argv in COMMANDS + [["convert", src, "--type", kind, "--out", out]
                            for src, kind, out in NARROWED]:
        argv = [str(path / a) if a.endswith(".cgr") else a for a in argv]
        assert main(argv) == 0, argv
    return path


@pytest.mark.parametrize("name", DIGESTS)
def test_optimized_graph_digest(optimized, name):
    assert hashlib.sha256((optimized / name).read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name, kind", ROUND_TRIPS)
def test_own_kind_convert_rewrites_the_same_bytes(optimized, tmp_path, name, kind):
    out = tmp_path / name
    assert main(["convert", str(optimized / name), "--type", kind, "--out", str(out)]) == 0
    assert out.read_bytes() == (optimized / name).read_bytes()
