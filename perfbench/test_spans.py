"""Self-test of the span bookkeeping and of the wrapper installation.

    PYTHONPATH=src python -m pytest -q perfbench/test_spans.py
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import polybloch as pb  # noqa: E402
from polybloch import block, cli, simple  # noqa: E402
from spans import CLI_SUBCOMMANDS, Counting, Installation, Tracer, layer_metrics, leftover_wrappers  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    def leaf():
        advance(3.0)

    def inner():
        advance(1.0)
        traced_leaf()
        advance(2.0)

    def outer():
        advance(1.0)
        traced_inner()
        traced_leaf()
        advance(0.5)

    traced_leaf = tracer.wrap(leaf, "m.leaf")
    traced_inner = tracer.wrap(inner, "m.inner")
    tracer.wrap(outer, "m.outer")()

    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.leaf", "m.leaf"]
    assert parents == [-1, 0, 1, 0]
    totals = tracer.self_times()
    # outer: 1 + (inner 6) + (leaf 3) + 0.5 = 10.5 long, children cover 9
    assert totals["m.outer"] == (1.5, 1)
    # inner: 1 + leaf 3 + 2 = 6 long, child covers 3
    assert totals["m.inner"] == (3.0, 1)
    assert totals["m.leaf"] == (6.0, 2)
    assert sum(t for t, _ in totals.values()) == tracer.spans[0][2] - tracer.spans[0][1]


def test_wrappers_cover_every_importing_namespace_and_are_removed():
    originals = (block.assemble_block, np.linalg.eigh, pb.LatticeModel.enumerate_shifted_ball,
                 pb.FourierPotential.coefficient)
    lat = pb.LatticeModel.cubic(2)
    q = pb.cosine_pair(lat, (1, 0), 0.1)
    tracer = Tracer()
    with Installation(tracer):
        assert simple.assemble_block is block.assemble_block is pb.assemble_block
        assert block.assemble_block is not originals[0]
        assert np.linalg.eigh is not originals[1]
        assert pb.FourierPotential.coefficient is originals[3]
        pb.bloch_solve(lat, 1, q, np.array([3.3, 2.1]), 3.0)
    assert leftover_wrappers() == []
    n_spans = len(tracer.spans)
    with Counting(tracer):
        assert block.assemble_block is originals[0]
        pb.bloch_solve(lat, 1, q, np.array([3.3, 2.1]), 3.0)
    assert leftover_wrappers() == []
    assert (block.assemble_block, np.linalg.eigh, pb.LatticeModel.enumerate_shifted_ball,
            pb.FourierPotential.coefficient) == originals
    assert len(tracer.spans) == n_spans

    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == "oracle.bloch_solve"
    for child, parent in (("oracle.assemble", "oracle.solve"), ("oracle.diagonalize", "oracle.solve"),
                          ("linalg.numpy_linalg.eigh", "oracle.diagonalize"),
                          ("lattice.enumerate_shifted_ball", "oracle.bloch_solve")):
        span = spans[names.index(child)]
        assert spans[span[3]][0] == parent
    assert tracer.counters["potential.coefficient_calls"] > 0
    metrics = layer_metrics(tracer, 0.0)
    assert metrics["linalg.eigensolve_calls"]["value"] == 1
    assert metrics["oracle.basis_size"]["value"] == metrics["linalg.eigensolve_n_max"]["value"]


def test_benchmark_file_lists_every_reported_metric():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    reported = {k: v["unit"] for k, v in layer_metrics(Tracer(), 0.0).items()}
    for sub in CLI_SUBCOMMANDS:
        reported[f"cli.{sub}_s"] = "s"
        reported[f"cli.{sub}_exit"] = "code"
    assert declared == reported
    assert set(CLI_SUBCOMMANDS) == set(cli._COMMANDS)
