"""The benchmark reads the engine's matrices from outside: `bench/run.py`
rebuilds each differential from `Mat.data` in its own exact arithmetic to
check the cohomology dimensions, and `bench/spans.py` keys bimodules by the
payloads of their matrices.  Both files are loaded here as they are, so a
change to how a `Mat` stores its entries cannot break every benchmark run
unseen."""

import importlib.util
from pathlib import Path

from conftest import dense_regular

from orecohom.cohomology import Bimodule, build_small_complex, cohomology_dims
from orecohom.instances import gh4_instance

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports calib, exact and spans by name
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_reference_reads_the_complex(monkeypatch):
    """The ladder workloads' check: the gh4(2) complex to degree 8."""
    run = load("run", monkeypatch)
    alg = gh4_instance(2)[0]
    C = build_small_complex(alg, Bimodule.regular(alg), 8)
    ref = run.reference_of_complex(C, {"kind": "ext", "minpoly": [1, 0, 1]}, run.GH4_CHARACTER, alg.n)
    assert ref["problems"] == []
    assert ref["dims"] == cohomology_dims(C, C.max_degree - 1)


def test_bench_span_keys_read_matrices(monkeypatch):
    spans = load("spans", monkeypatch)
    alg = gh4_instance(2)[0]
    M = Bimodule.regular(alg)
    for A in [alg.alpha.matrix, *M.L_k, M.Rx]:
        zv = A.field.zero.v
        dense = tuple(tuple(row.get(j, zv) for j in range(A.cols)) for row in A.sparse)
        assert spans._payloads(A) == dense
    assert spans._bimodule_key(M) == spans._bimodule_key(Bimodule.regular(alg))
    assert spans._bimodule_key(Bimodule.regular(alg)) == spans._bimodule_key(dense_regular(Bimodule, alg))
