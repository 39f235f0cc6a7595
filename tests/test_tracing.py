"""The benchmark's per-layer tracer (`bench/spans.py`) wraps package names from
outside: every function, method and dispatch entry it names must exist, and
uninstalling it must restore each one."""

import importlib.util
import time
from pathlib import Path

from orecohom import cli, linalg, products

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class WallClock:
    now = staticmethod(time.perf_counter)


def test_tracer_wraps_a_cohomology_run(capsys):
    spans = load_spans()
    originals = (linalg.rref, linalg.LinSolver.__init__, cli.RUNNERS["cohomology"])
    tracer = spans.Tracer(WallClock())
    tracer.install()
    try:
        assert linalg.rref is not originals[0]
        spec = str(ROOT / "demos" / "specs" / "truncated_square.json")
        # the complex reads its coordinates without a solver; a products run
        # builds the class solvers that the solver counter wraps
        rcs = [cli.main([verb, spec]) for verb in ("cohomology", "products")]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rcs == [0, 0]
    assert (linalg.rref, linalg.LinSolver.__init__, cli.RUNNERS["cohomology"]) == originals
    counts = tracer.counts
    for key in ("cli.run_cohomology", "cohomology.build_small_complex", "linalg.rref",
                "linalg.kernel_basis", "linalg.solver_build", "fields.scalar_is_zero"):
        assert counts[key] > 0, key
    metrics = tracer.layer_metrics(1.0)
    assert set(metrics) == set(spans.METRICS) - {"trace.round_s", "trace.overhead_s"}


def test_tracer_times_each_theorem_check(capsys):
    """Each check of `cli.THEOREM_CHECKS` takes the run's session and is timed
    as one span per call; uninstalling restores every entry."""
    spans = load_spans()
    originals = dict(cli.THEOREM_CHECKS)
    tracer = spans.Tracer(WallClock())
    tracer.install()
    try:
        assert all(cli.THEOREM_CHECKS[k] is not f for k, f in originals.items())
        rc = cli.main(["theorems", str(ROOT / "demos" / "specs" / "c4_sign.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert all(cli.THEOREM_CHECKS[k] is f for k, f in originals.items())
    assert set(spans.THEOREM_CHECKS) == set(originals)
    names = [record[0] for record in tracer.spans]
    for check in originals:
        assert names.count(f"closedforms.check.{check}") == 1, check


def test_tracer_counts_each_oracle_bracket_once(monkeypatch, capsys):
    """A traced `products` run still counts the oracle's cups and brackets,
    and the run's product store asks the oracle for each distinct pair of
    cochains once, which evaluates it once."""
    spans = load_spans()
    asked = []
    ask = products.BarOracle.bracket

    def record(self, a, b, bound=5):
        asked.append(((a.degree, a.value.coords), (b.degree, b.value.coords)))
        return ask(self, a, b, bound)

    monkeypatch.setattr(products.BarOracle, "bracket", record)
    tracer = spans.Tracer(WallClock())
    tracer.install()
    try:
        rc = cli.main(["products", str(ROOT / "demos" / "specs" / "sweedler.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    counts = tracer.counts
    assert counts["products.cup_oracle"] > 0
    assert counts["products.bracket_generic"] > 0
    assert counts["products.bracket_generic"] == len(set(asked)) == len(asked)


def test_traced_report_reads_every_counted_name(capsys):
    """A traced `report` of c4_sign reaches every name a counter of
    `spans.COUNTS` wraps, so a refactor that routes around one of them fails
    here instead of zeroing its per-layer metric."""
    spans = load_spans()
    tracer = spans.Tracer(WallClock())
    tracer.install()
    try:
        rc = cli.main(["report", str(ROOT / "demos" / "specs" / "c4_sign.json")])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    assert [metric for metric, key in spans.COUNTS.items() if not tracer.counts[key] > 0] == []
