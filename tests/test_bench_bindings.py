"""Names the benchmark harness under perfbench/ imports or rebinds.

perfbench/tests cannot be collected in one pytest run with tests/ (both
define a top-level ``conftest``), so this checks here that a library change
keeps every name the harness binds, and the decoder state it reads.
"""

import importlib

import pytest

import lrsc.sim
from lrsc.codec import Encoder, MdsDeCode, make_lrsc
from lrsc.gf import make_tower
from lrsc.oracle import verify_scalar

BOUND = [
    # rebound by the traced set-up, which wraps construction in spans
    ("lrsc.codec", "make_tower"),
    ("lrsc.codec", "superregular_matrix"),
    ("lrsc.codec", "is_superregular"),
    # rebound by the traced runs, which swap in counting codec classes;
    # run_sim calls neither Encoder nor Decoder, but the traced run rebinds
    # both all the same
    ("lrsc.sim", "Encoder"),
    ("lrsc.sim", "Decoder"),
    ("lrsc.oracle", "Encoder"),
    ("lrsc.oracle", "Decoder"),
    # called directly by the timed workloads and their correctness gates
    ("lrsc.sim", "run_sim"),
    ("lrsc.sim", "PecChannel"),
    ("lrsc.sim", "splitmix64"),
    ("lrsc.sim", "explain_losses"),
    ("lrsc.gf", "make_tower"),
    ("lrsc.codec", "Decoder"),
    ("lrsc.codec", "Encoder"),
    ("lrsc.codec", "LrscCode"),
    ("lrsc.codec", "MdsDeCode"),
    ("lrsc.params", "derive_params"),
    ("lrsc.oracle", "verify_scalar"),
    ("lrsc.oracle", "verify_stream"),
]

# the harness's GF_FIELDS: make_tower(q, a) arguments of the micro-benchmarked fields
GF_FIELDS = {"GF3": (3, 2), "GF5": (5, 2), "GF16": (4, 3), "GF625": (5, 4)}


@pytest.mark.parametrize("module,name", BOUND)
def test_benchmark_bound_name_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_decoder_exposes_rows_and_unknowns():
    code = make_lrsc(2, 5, 2)
    packet = Encoder(code).push((1, 2))
    dec = lrsc.sim.Decoder(code)
    dec.push(0, packet)
    dec.push(1, None)
    assert dec.unknowns == {(1, 0), (1, 1)}
    assert len(dec.rows) == 0


def test_code_attributes_the_harness_reads():
    # workloads label and size the codes, gate the scalar oracle on
    # code.weights, and tell the kinds apart by params (a from either)
    lrsc, mds = make_lrsc(2, 5, 2), MdsDeCode(2, 5)
    assert verify_scalar(lrsc.weights).ok
    assert lrsc.params.a == 2
    assert mds.a == 2 and mds.params is None
    assert [(c.label, c.k, c.tau, c.field.order) for c in (lrsc, mds)] == [
        ("lrsc-2-5-2", 2, 5, 3), ("mds-de-2-5", 4, 5, 5)]


@pytest.mark.parametrize("label,shape", GF_FIELDS.items())
def test_gf_field_shapes_the_harness_builds(label, shape):
    assert make_tower(*shape).order == int(label[2:])
