"""Benchmark for orecohom: calibrated end-to-end times and a traced per-layer run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload repeats whole rounds of fixed operations until
``--seconds`` have passed (at least one round), checks every output, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are end to end (``round_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer ones of ``spans.METRICS``.
All inputs are fixed files or canned instances, so ``--seed`` changes
nothing.  See README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calib
import exact
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPECS = ROOT / "demos" / "specs"
OUT = BENCH / "out"
SETUP_PROBES = 5
VERBS = ("validate", "cohomology", "products", "theorems", "report")
# The character of gh4_instance: g -> 1, h -> i (see its docstring).
GH4_CHARACTER = {"g": 1, "h": ["0", "1"]}
# Demo specs whose f is not admissible (a coefficient that alpha moves):
# every verb must exit 1 on them, naming the defining-polynomial failure.
BAD_SPECS = {"sweedler_bad"}


def engine():
    sys.path.insert(0, str(ROOT / "src"))
    import orecohom.cli
    import orecohom.instances

    return orecohom


# -- independent references ---------------------------------------------------


def reference_of_complex(C, field_desc: dict, character: dict | None, n: int) -> dict:
    """Dimensions of H^0 .. H^{max_degree-1} from the engine's differentials,
    with ranks, d.d = 0 and the period 2 ord(chi^n) computed in ``exact``."""
    F = exact.field_for(field_desc)
    enc = C.field.encode
    dmats = [None] + [[[F.read(enc(x)) for x in row] for row in C.dmats[r].data] for r in range(1, C.max_degree + 1)]
    dims_cochain = [C.dim_cochain(r) for r in range(C.max_degree + 1)]
    problems = []
    try:
        dims = exact.complex_dims(F, dims_cochain, dmats)
    except ValueError as exc:
        return {"dims": None, "problems": [str(exc)]}
    period = None
    if character is not None:
        period = exact.twist_period(F, character, n)
        if not exact.is_periodic(dims, period):
            problems.append(f"dims {dims} do not have period {period}")
    return {"dims": dims, "period": period, "problems": problems}


# -- output checks ------------------------------------------------------------


def check_payload(verb: str, payload: dict, ref: dict) -> list[str]:
    """Problems with one verb's JSON output for a well-formed spec."""
    problems = []
    if verb == "validate" or verb == "report":
        v = payload if verb == "validate" else payload["validate"]
        problems += [f"validate check {c['name']} failed" for c in v["checks"] if not c["ok"]]
    if verb == "cohomology" or verb == "report":
        c = payload if verb == "cohomology" else payload["cohomology"]
        if c["dims"] != ref["dims"]:
            problems.append(f"dims {c['dims']} != independent {ref['dims']}")
        for row in c["table"]:
            if row["dim_H"] != row["dim_cochain"] - row["rank_in"] - row["rank_out"]:
                problems.append(f"table row {row['degree']} is inconsistent")
    if verb == "products" or verb == "report":
        p = payload if verb == "products" else payload["products"]
        problems += [f"cup {r['deg_a']},{r['deg_b']} disagrees" for r in p["cup_closed_vs_oracle"] if r["agree"] is not True]
        problems += [
            f"bracket {r['deg_a']},{r['deg_b']} disagrees"
            for r in p["bracket_closed_vs_oracle"]
            if r["agree"] not in (True, None)
        ]
    if verb == "theorems" or verb == "report":
        t = payload if verb == "theorems" else payload["theorems"]
        problems += [f"theorem {e['which']} mismatch" for e in t["checks"] if e["status"] == "mismatch"]
        if t["generic_dims"] != ref["dims"]:
            problems.append(f"generic dims {t['generic_dims']} != independent {ref['dims']}")
    if verb == "report" and payload["ok"] is not True:
        problems.append("report ok is not true")
    return problems


def check_bad_spec(verb: str, code: int, out: str, err: str, f_failures: list[str]) -> list[str]:
    """A spec whose f is not admissible: every verb exits 1 and names the
    defining-polynomial failure."""
    if code != 1:
        return [f"exit {code}, expected 1"]
    if verb in ("validate", "report"):
        payload = json.loads(out)
        v = payload if verb == "validate" else payload["validate"]
        checks = {c["name"]: c for c in v["checks"]}
        if checks["defining-polynomial"]["ok"] or checks["defining-polynomial"]["failures"] != f_failures:
            return ["defining-polynomial check did not fail as expected"]
        if v["ok"] or "cohomology" in payload:
            return ["a failed validation was not reported as failed"]
        return []
    if not err.startswith("error:") or not all(f in err for f in f_failures):
        return [f"stderr does not name the defining-polynomial failure: {err!r}"]
    return []


# -- workloads ----------------------------------------------------------------


class Op:
    """One timed operation: ``run()`` returns its output, ``check(output)``
    returns a list of problems."""

    def __init__(self, label, run, check):
        self.label, self.run, self.check = label, run, check


def cli_call(orecohom, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = orecohom.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def spec_reference(orecohom, path: Path) -> dict:
    raw = json.loads(path.read_text())
    inst = orecohom.specio.load_instance(str(path))
    D = inst.default_degree()
    character = raw["K"].get("character")
    alg = inst.algebra(check=True)
    C = orecohom.cohomology.build_small_complex(alg, orecohom.cohomology.Bimodule.regular(alg), D + 1)
    ref = reference_of_complex(C, raw["field"], character, raw["f"]["n"])
    if path.stem == "truncated_square" and ref["dims"] != [2] + [1] * D:
        ref["problems"].append(f"Q[x]/(x^2) dims {ref['dims']} are not 2, 1, 1, ...")
    return ref


def spec_op(orecohom, path: Path, verb: str, ref: dict) -> Op:
    argv = [verb, str(path), "--format", "json"]

    def check(result):
        code, out, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        return check_payload(verb, json.loads(out), ref)

    return Op(f"{path.stem}/{verb}", lambda: cli_call(orecohom, argv), check)


def bad_spec_op(orecohom, path: Path, verb: str, f_failures: list[str]) -> Op:
    argv = [verb, str(path), "--format", "json"]
    return Op(
        f"{path.stem}/{verb}",
        lambda: cli_call(orecohom, argv),
        lambda result: check_bad_spec(verb, *result, f_failures),
    )


class Workload:
    """``setup()`` is what ``setup_s`` times (package import and instances);
    ``ops(state)`` prepares the untimed references and returns the round."""

    def __init__(self, name, setup, ops):
        self.name, self.setup, self.ops = name, setup, ops


def gh4_spec_workload(verb: str) -> Workload:
    path = SPECS / "gh4_u3.json"

    def setup():
        orecohom = engine()
        return orecohom, orecohom.specio.load_instance(str(path))

    def ops(state):
        orecohom, _ = state
        ref = spec_reference(orecohom, path)
        return [spec_op(orecohom, path, verb, ref)], ref["problems"]

    return Workload(f"gh4-{verb}", setup, ops)


def ladder_workload(degree: int) -> Workload:
    def setup():
        orecohom = engine()
        return orecohom, orecohom.instances.gh4_instance(2)[0]

    def ops(state):
        orecohom, alg = state
        from orecohom.cohomology import Bimodule, build_small_complex, complex_report

        def run():
            C = build_small_complex(alg, Bimodule.regular(alg), degree)
            return C, complex_report(C)

        refs = []

        def check(result):
            C, rows = result
            if not refs:  # the first build is checked in full, the rest against it
                refs.append(reference_of_complex(C, {"kind": "ext", "minpoly": [1, 0, 1]}, GH4_CHARACTER, alg.n))
            dims = [row["dim_H"] for row in rows]
            return refs[0]["problems"] + ([] if dims == refs[0]["dims"] else [f"dims {dims} != {refs[0]['dims']}"])

        return [Op(f"gh4(2)/degree-{degree}", run, check)], []

    return Workload(f"ladder-d{degree}", setup, ops)


def small_specs_workload() -> Workload:
    paths = sorted(p for p in SPECS.glob("*.json") if p.stem != "gh4_u3")

    def setup():
        orecohom = engine()
        return orecohom, [orecohom.specio.load_instance(str(p)) for p in paths]

    def ops(state):
        orecohom, instances = state
        out, problems = [], []
        for path, inst in zip(paths, instances):
            if path.stem in BAD_SPECS:
                f_report = orecohom.monogenic.validate_f(inst.K, inst.alpha, inst.f_coeffs)
                if f_report.ok:
                    problems.append(f"{path.stem}: f was accepted")
                out += [bad_spec_op(orecohom, path, verb, list(f_report.failures)) for verb in VERBS]
                continue
            ref = spec_reference(orecohom, path)
            problems += [f"{path.stem}: {p}" for p in ref["problems"]]
            out += [spec_op(orecohom, path, verb, ref) for verb in VERBS]
        return out, problems

    return Workload("small-specs", setup, ops)


WORKLOADS = {
    w.name: w
    for w in (
        gh4_spec_workload("report"),
        gh4_spec_workload("cohomology"),
        ladder_workload(8),
        ladder_workload(32),
        small_specs_workload(),
    )
}


# -- running ------------------------------------------------------------------


def setup_seconds(workload: str) -> float:
    """Median calibrated set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_round(ops, clock, log, tracer=None):
    """Run each op once; returns (calibrated, raw) round seconds and failures."""
    cal_total = raw_total = 0.0
    failed = 0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            try:
                result, raw, cal = clock.measure(op.run)
                problems = op.check(result)
            except Exception:  # a crash or an unreadable output fails the op
                raw = cal = 0.0
                problems = [traceback.format_exc()]
            cal_total += cal
            raw_total += raw
            if problems:
                failed += 1
                print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
            log.append({"op": op.label, "raw_s": raw, "calibrated_s": cal, "traced": tracer is not None})
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cal_total, raw_total, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded only: every input is fixed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, _, cal = calib.Clock().measure(WORKLOADS[args.setup_probe].setup)
        print(repr(cal))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    try:
        state = workload.setup()
        setup_s = setup_seconds(workload.name)
    except (ImportError, OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    ops, problems = workload.ops(state)
    for p in problems:
        print(f"REFERENCE CHECK FAILED: {p}", file=sys.stderr)

    clock = calib.Clock()
    log: list[dict] = []
    rounds = {False: [], True: []}  # traced? -> [(calibrated, raw)]
    tracers = []
    attempted = failed = 0
    rss_mb = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds[False]) > len(rounds[True])
        tracer = spans.Tracer(clock) if traced else None
        cal, raw, bad = run_round(ops, clock, log, tracer)
        rounds[traced].append((cal, raw))
        if tracer is not None:
            tracers.append(tracer)
        attempted += len(ops)
        failed += bad
        if rss_mb is None:  # after one round, so it does not depend on how many rounds fit
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= args.seconds and (not args.trace or tracers):
            break

    untraced = statistics.median(c for c, _ in rounds[False])
    if args.trace:
        per_round = [t.layer_metrics(c / r) for t, (c, r) in zip(tracers, rounds[True])]
        traced_s = statistics.median(c for c, _ in rounds[True])
        values = {}
        for name, value in per_round[0].items():
            if spans.METRICS[name] == "s":
                values[name] = statistics.median(m[name] for m in per_round)
            else:
                values[name] = value
                if any(m[name] != value for m in per_round):
                    print(f"count {name} differs between traced rounds", file=sys.stderr)
        values["trace.round_s"] = traced_s
        values["trace.overhead_s"] = traced_s - untraced
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.METRICS.items()}
    else:
        metrics = {
            "round_s": {"value": untraced, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": {"untraced": rounds[False], "traced": rounds[True]},
        "raw_round_median_s": statistics.median(r for _, r in rounds[False]),
        "kernel_quartiles_s": statistics.quantiles(clock.kernel_times, n=4),
        "kernel_samples": len(clock.kernel_times),
        "kernel_s": clock.paused,
        "measured_s": time.perf_counter() - start,
        "ops": log,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracers:
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"rounds": [{"spans": t.spans, "counts": dict(t.counts)} for t in tracers]}) + "\n"
        )
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
