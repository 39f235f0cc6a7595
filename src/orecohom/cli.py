"""Command-line front end.

Verbs: validate (constructor and resolution checks), cohomology (dimension
table), products (cup and bracket class tables with oracle agreement),
theorems (closed-form checks against the generic complex), report (all of
the above).  Input is a JSON spec file; output is JSON (deterministic,
sorted keys), plain text, or CSV.  Exit codes: 0 all checks pass, 1 a
mathematical check failed, 2 the spec file is unusable or the output file
cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from .cohomology import Bimodule, CohomologyError, build_small_complex, cohomology_dims, complex_report
from .closedforms import (
    ClosedFormError,
    check_collapsed_cochain_spaces,
    check_collapsed_differentials,
    class_membership_period,
    cohomology_periodicity,
    collapsed_cohomology_table,
    cyclic_group_cohomology,
    diagonalizable_cohomology_table,
    find_witness,
    group_algebra_cohomology_table,
    presentation_report,
    quaternion_rotation_report,
    rank_one_hopf_report,
    twist_character,
    untwisted_annihilator_table,
    untwisted_model_check,
)
from .fields import FieldError
from .kalgebra import AlgebraError, ValidationReport
from .linalg import dense
from .monogenic import MonogenicAlgebra, MonogenicError, Resolution, instance_checks, normality_check
from .products import ProductsError, ProductStore, bracket_class_table, cup_class_table
from .specio import Instance, SpecError, decode_witness, load_instance

__all__ = ["main"]


# -- shared helpers -----------------------------------------------------------


def _witness_candidates(inst: Instance, flag_value: str | None) -> list:
    """The ``--witness`` candidate, if any, then the spec's candidates.  The
    flag is a basis label of K if it names one (such as ``1``), else JSON."""
    if flag_value is None:
        return inst.witness_candidates
    parsed = flag_value
    if flag_value not in inst.K.basis_names:
        try:
            parsed = json.loads(flag_value)
        except json.JSONDecodeError:
            pass
    return [decode_witness(inst.K, parsed), *inst.witness_candidates]


def _encode_kelem(inst: Instance, u: dict) -> list:
    return [inst.field.encode(c) for c in dense(inst.field, u, inst.K.dim)]


class Session:
    """What the verbs of one run share: the instance, the parsed arguments,
    the degree bound D, the decoded witness candidates, the theorem checks
    ``--which`` names (all when it is absent) and, each built on
    first use, the instance checks, the one checked build of A, which runs
    them again and raises the first that fails, its regular bimodule, the
    small complex through degree D + 1, the result of the run's one
    witness search (None when it found none), the run's character and the
    run's product store.  The checks read these as given and build none of
    them again.  The store (``products.ProductStore``) holds the class
    coordinates of each product of class representatives that is read,
    computed once: the closed and oracle cups, and the oracle and closed
    brackets.  It holds the run's bar oracle, which evaluates only the bar
    indices phi reads, each psi value at each index once and the slot
    compositions of each ordered pair once.  The products tables, both
    closed-vs-oracle agreements, the rank-one bracket rows and the
    presentation's period map read the store.  A session belongs to one
    run; nothing outlives it."""

    def __init__(self, inst: Instance, args):
        self.inst = inst
        self.args = args
        self.D = args.max_degree if args.max_degree is not None else inst.default_degree()
        self.candidates = _witness_candidates(inst, getattr(args, "witness", None))
        which = getattr(args, "which", None)
        names = THEOREM_CHECKS if which is None else (t.strip() for t in which.split(",") if t.strip())
        self.which = list(dict.fromkeys(names))  # each check once, in order of first mention
        unknown = [t for t in self.which if t not in THEOREM_CHECKS]
        if unknown or not self.which:
            problem = f"unknown checks {unknown}" if unknown else f"--which {which!r} names no check"
            raise SpecError(f"{problem}; available: {', '.join(sorted(THEOREM_CHECKS))}")

    @functools.cached_property
    def checks(self) -> list[tuple[str, ValidationReport]]:
        """``instance_checks`` of the instance; ``validate`` reports each."""
        return instance_checks(self.inst.K, self.inst.alpha, self.inst.f_coeffs)

    @functools.cached_property
    def algebra(self) -> MonogenicAlgebra:
        """The checked build of A, which raises the first failed check."""
        return self.inst.algebra()

    @functools.cached_property
    def bimodule(self) -> Bimodule:
        return Bimodule.regular(self.algebra)

    @functools.cached_property
    def complex(self):
        return build_small_complex(self.algebra, self.bimodule, self.D + 1)

    @functools.cached_property
    def products(self) -> ProductStore:
        return ProductStore(self.complex)

    @functools.cached_property
    def witness(self):
        return find_witness(self.algebra, self.candidates)

    @functools.cached_property
    def _chi(self):
        """The character (``twist_character``) or the ClosedFormError reading
        it raised, once per run; ``chi`` raises that error on each read."""
        try:
            return twist_character(self.algebra, self.inst.chi)
        except ClosedFormError as exc:
            return exc

    @property
    def chi(self):
        if isinstance(self._chi, ClosedFormError):
            raise self._chi
        return self._chi


# -- verb: validate -----------------------------------------------------------


def run_validate(session: Session) -> tuple[dict, bool]:
    inst, D = session.inst, session.D
    checks = []

    def record(name, rep):
        checks.append({"name": name, "ok": rep.ok, "failures": list(rep.failures)})
        return rep.ok

    ok = all([record(name, rep) for name, rep in session.checks])  # a list: record every check
    if ok:
        alg = session.algebra
        ok = record("normality", normality_check(alg)) and ok
        ok = record("contraction", Resolution(alg, D).contraction_check()) and ok
    payload = {"instance": inst.raw, "max_degree": D, "checks": checks, "ok": ok}
    return payload, ok


# -- verb: cohomology ---------------------------------------------------------


def run_cohomology(session: Session) -> tuple[dict, bool]:
    rows = complex_report(session.complex)
    payload = {
        "instance": session.inst.raw,
        "max_degree": session.D,
        "dims": [row["dim_H"] for row in rows],
        "table": rows,
    }
    return payload, True


# -- verb: products -----------------------------------------------------------


def _cup_agreement(store: ProductStore, cap: int) -> list[dict]:
    out = []
    for p in range(cap + 1):
        for q in range(cap + 1 - p):
            if p + q + 1 > store.C.max_degree:
                continue
            pairs = list(store.pairs(p, q))
            if pairs:
                agree = all(store.cup(p, q, ia, ib) == store.cup_oracle(p, q, ia, ib) for ia, ib in pairs)
                out.append({"deg_a": p, "deg_b": q, "pairs": len(pairs), "agree": agree})
    return out


def _bracket_agreement(store: ProductStore, witness, cap: int) -> list[dict]:
    out = []
    top = store.C.max_degree - 1
    for p in range(min(cap + 2, top + 1)):
        for q in range(min(cap + 2 - p, top + 1)):
            deg = max(p + q - 1, 0)
            if deg > cap or deg + 1 > store.C.max_degree:
                continue
            pairs = 0
            agree = True
            note = None
            for ia, ib in store.pairs(p, q):
                try:
                    want = store.closed_bracket(p, q, ia, ib, witness)
                except ProductsError as exc:
                    note = str(exc)
                    continue
                pairs += 1
                agree = store.bracket(p, q, ia, ib, max(cap, 1)) == want and agree
            if pairs or note:
                row = {"deg_a": p, "deg_b": q, "pairs": pairs, "agree": agree if pairs else None}
                if note:
                    row["note"] = note
                out.append(row)
    return out


def run_products(session: Session) -> tuple[dict, bool]:
    inst, D, args = session.inst, session.D, session.args
    store = session.products
    bound = args.oracle_bound if args.oracle_bound is not None else inst.options.get("oracle_bound", 5)
    cup_rows = cup_class_table(store, D)
    bracket_rows = bracket_class_table(store, D, bound)
    cup_checked = _cup_agreement(store, min(D, 3))
    witness = session.witness
    if witness:
        bracket_checked = _bracket_agreement(store, witness, min(bound, 3))
        witness_enc = _encode_kelem(inst, witness.value)
    else:
        bracket_checked = []
        witness_enc = "none"
    payload = {
        "instance": inst.raw,
        "max_degree": D,
        "oracle_bound": bound,
        "cup_source": "small-complex formula",
        "cup": cup_rows,
        "cup_closed_vs_oracle": cup_checked,
        "bracket_source": "bar-complex oracle",
        "bracket": bracket_rows,
        "bracket_closed_vs_oracle": bracket_checked,
        "witness": witness_enc,
    }
    ok = all(row["agree"] for row in cup_checked) and all(
        row["agree"] in (True, None) for row in bracket_checked
    )
    return payload, ok


# -- verb: theorems -----------------------------------------------------------


def _run_rank_one(s: Session):
    inst = s.inst
    if inst.K.group is None or inst.chi is None:
        raise ClosedFormError("rank-one analysis needs a character-twist group instance")
    if inst.rank_one is None:
        raise ClosedFormError("rank-one analysis needs options.g1 and options.xi")
    return rank_one_hopf_report(s.complex, inst.chi, *inst.rank_one, min(s.D, 5), s.witness, s.products)


def _run_quaternion(s: Session):
    if s.inst.rotation is None:
        raise ClosedFormError("rotation analysis needs quaternion coefficients")
    return quaternion_rotation_report(s.complex, *s.inst.rotation, min(s.D, 4))


# Each check takes the run's Session and reads its state as given.  Its
# complex is regular and reaches degree D + 1, so a check skips on the first
# of the character or the witness it reads: a run without a character raises
# in ``Session.chi``, and a check handed the None of a search that found no
# witness raises ``NO_WITNESS``.
THEOREM_CHECKS = {
    "collapsed-spaces": lambda s: check_collapsed_cochain_spaces(s.complex, s.witness, s.D),
    "collapsed-differentials":
        lambda s: check_collapsed_differentials(s.complex, s.witness, s.D),
    "collapsed-cohomology": lambda s: collapsed_cohomology_table(s.complex, s.witness, s.D),
    "cyclic-comparison": lambda s: cyclic_group_cohomology(s.complex, s.witness, s.D),
    "diagonalizable": lambda s: diagonalizable_cohomology_table(s.complex, s.witness, s.D),
    "untwisted-model": lambda s: untwisted_model_check(s.complex, s.D),
    "untwisted-annihilator": lambda s: untwisted_annihilator_table(s.complex, s.D),
    "group-cohomology":
        lambda s: group_algebra_cohomology_table(s.complex, s.chi, s.D, s.witness),
    "membership-period": lambda s: class_membership_period(s.algebra.K, s.chi, s.algebra.n),
    "periodicity": lambda s: cohomology_periodicity(s.complex, s.chi, s.D),
    "presentation": lambda s: presentation_report(s.complex, s.chi, s.D, s.products),
    "rank-one-hopf": _run_rank_one,
    "quaternion-rotation": _run_quaternion,
}


def run_theorems(session: Session) -> tuple[dict, bool]:
    inst, D, C, witness = session.inst, session.D, session.complex, session.witness
    entries = []
    ok = True
    for token in session.which:
        try:
            result = THEOREM_CHECKS[token](session)
        except ClosedFormError as exc:
            entries.append({"which": token, "status": "skipped", "reason": str(exc)})
            continue
        match = result.get("match")
        status = "ok" if match in (True, None) else "mismatch"
        ok = ok and status == "ok"
        entries.append({"which": token, "status": status, "result": result})
    payload = {
        "instance": inst.raw,
        "max_degree": D,
        "witness": _encode_kelem(inst, witness.value) if witness else "none",
        "generic_dims": cohomology_dims(C, D),
        "checks": entries,
    }
    return payload, ok


# -- verb: report -------------------------------------------------------------


def run_report(session: Session) -> tuple[dict, bool]:
    v_payload, v_ok = run_validate(session)
    payload = {"instance": session.inst.raw, "validate": v_payload, "ok": v_ok}
    ok = v_ok
    if v_ok:
        c_payload, _ = run_cohomology(session)
        p_payload, p_ok = run_products(session)
        t_payload, t_ok = run_theorems(session)
        for part in (c_payload, p_payload, t_payload):
            part.pop("instance", None)
        payload["cohomology"] = c_payload
        payload["products"] = p_payload
        payload["theorems"] = t_payload
        ok = v_ok and p_ok and t_ok
        payload["ok"] = ok
    v_payload.pop("instance", None)
    return payload, ok


# -- rendering ----------------------------------------------------------------


def _text_validate(d, lines):
    for c in d["checks"]:
        if c["ok"]:
            lines.append(f"  {c['name']}: ok")
        else:
            lines.append(f"  {c['name']}: FAIL ({'; '.join(c['failures'])})")
    lines.append(f"validate: {'ok' if d['ok'] else 'FAIL'}")


def _text_cohomology(d, lines):
    lines.append("  degree  dim_cochain  twist  dim_H")
    for row in d["table"]:
        lines.append(
            f"  {row['degree']:>6}  {row['dim_cochain']:>11}  "
            f"{row['twist_exponent']:>5}  {row['dim_H']:>5}"
        )
    lines.append(f"dims: {d['dims']}")


def _text_products(d, lines):
    lines.append(f"  cup entries: {len(d['cup'])} ({d['cup_source']})")
    for row in d["cup_closed_vs_oracle"]:
        verdict = "agree" if row["agree"] else "DISAGREE"
        lines.append(f"  cup ({row['deg_a']},{row['deg_b']}): {verdict} [{row['pairs']} pairs]")
    lines.append(f"  bracket entries: {len(d['bracket'])} ({d['bracket_source']})")
    lines.append(f"  witness: {d['witness']}")
    for row in d["bracket_closed_vs_oracle"]:
        if row["agree"] is None:
            verdict = f"skipped ({row.get('note', '')})"
        else:
            verdict = "agree" if row["agree"] else "DISAGREE"
        lines.append(f"  bracket ({row['deg_a']},{row['deg_b']}): {verdict}")


def _text_theorems(d, lines):
    lines.append(f"  witness: {d['witness']}")
    lines.append(f"  generic dims: {d['generic_dims']}")
    for e in d["checks"]:
        if e["status"] == "skipped":
            lines.append(f"  {e['which']}: skipped ({e['reason']})")
        elif e["status"] == "ok":
            lines.append(f"  {e['which']}: ok")
        else:
            mismatches = e["result"].get("mismatches", [])
            lines.append(f"  {e['which']}: MISMATCH ({'; '.join(map(str, mismatches))})")


def render_text(verb: str, payload: dict, elapsed_ms: float) -> str:
    lines = [f"orecohom {verb}"]
    if verb == "validate":
        _text_validate(payload, lines)
    elif verb == "cohomology":
        _text_cohomology(payload, lines)
    elif verb == "products":
        _text_products(payload, lines)
    elif verb == "theorems":
        _text_theorems(payload, lines)
    else:
        lines.append("[validate]")
        _text_validate(payload["validate"], lines)
        if "cohomology" in payload:
            lines.append("[cohomology]")
            _text_cohomology(payload["cohomology"], lines)
            lines.append("[products]")
            _text_products(payload["products"], lines)
            lines.append("[theorems]")
            _text_theorems(payload["theorems"], lines)
        lines.append(f"report: {'ok' if payload['ok'] else 'FAIL'}")
    lines.append(f"elapsed: {elapsed_ms:.1f} ms")
    return "\n".join(lines) + "\n"


def render_csv(verb: str, payload: dict) -> str:
    if verb == "validate":
        rows = ["check,ok"]
        rows += [f"{c['name']},{str(c['ok']).lower()}" for c in payload["checks"]]
        return "\n".join(rows) + "\n"
    if verb == "products":
        rows = ["kind,deg_a,deg_b,basis_index_a,basis_index_b,result_class_coords"]
        for kind in ("cup", "bracket"):
            for r in payload[kind]:
                # an extension field's coordinate is a list: its entries joined by a space
                coords = ";".join(" ".join(map(str, c)) if isinstance(c, list) else str(c)
                                  for c in r["result_class_coords"])
                rows.append(
                    f"{kind},{r['deg_a']},{r['deg_b']},"
                    f"{r['basis_index_a']},{r['basis_index_b']},{coords}"
                )
        return "\n".join(rows) + "\n"
    if verb == "theorems":
        rows = ["check,status"]
        rows += [f"{e['which']},{e['status']}" for e in payload["checks"]]
        return "\n".join(rows) + "\n"
    if verb == "report" and "cohomology" not in payload:  # validation failed
        return render_csv("validate", payload["validate"])
    source = payload["cohomology"] if verb == "report" else payload
    rows = ["degree,dim"]
    rows += [f"{i},{dim}" for i, dim in enumerate(source["dims"])]
    return "\n".join(rows) + "\n"


def _write_json(o, out: list, pad: str) -> None:
    """Append to out the text of ``json.dumps(o, sort_keys=True, indent=2)``
    in one pass (an indent turns the C encoder off); pad is a newline and the
    indent of o's line.  Types other than str, int, bool, None, list and a
    dict with str keys raise TypeError."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, (dict, list)) and not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner, sep = pad + "  ", "{"
        for k in sorted(o):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out += (sep, inner, encode_basestring_ascii(k), ": ")
            _write_json(o[k], out, inner)
            sep = ","
        out += (pad, "}")
    elif isinstance(o, list):
        inner, sep = pad + "  ", "["
        for x in o:
            out += (sep, inner)
            _write_json(x, out, inner)
            sep = ","
        out += (pad, "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def render(verb: str, payload: dict, fmt: str, elapsed_ms: float) -> str:
    if fmt == "json":
        out: list[str] = []
        _write_json(payload, out, "\n")
        return "".join(out) + "\n"
    if fmt == "csv":
        return render_csv(verb, payload)
    return render_text(verb, payload, elapsed_ms)


# -- argument parsing and dispatch --------------------------------------------


RUNNERS = {
    "validate": run_validate,
    "cohomology": run_cohomology,
    "products": run_products,
    "theorems": run_theorems,
    "report": run_report,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orecohom",
        description="Exact relative Hochschild cohomology of monogenic skew extensions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, help_text, *, oracle=False, which=False, witness=False):
        sp = sub.add_parser(verb, help=help_text)
        sp.add_argument("spec", help="path to a JSON instance description")
        sp.add_argument("--max-degree", type=int, default=None, metavar="D",
                        help="top cohomological degree (default: one twist period plus two, capped at 6)")
        sp.add_argument("--format", choices=["json", "text", "csv"], default="json")
        sp.add_argument("--out", default=None, metavar="PATH",
                        help="write the output to a file instead of stdout")
        if oracle:
            sp.add_argument("--oracle-bound", type=int, default=None, metavar="B",
                            help="top degree for bar-complex bracket evaluation (default 5)")
        if which:
            sp.add_argument("--which", default=None, metavar="NAMES",
                            help="comma-separated closed-form checks (default: all applicable)")
        if witness:
            sp.add_argument("--witness", default=None, metavar="ELEM",
                            help="witness candidate: a basis label or a JSON coordinate list")
        return sp

    add("validate", "check the coefficient algebra, twist, defining polynomial, and resolution")
    add("cohomology", "compute the cohomology dimension table")
    add("products", "tabulate cup products and brackets on classes", oracle=True, witness=True)
    add("theorems", "run closed-form checks against the generic complex", which=True, witness=True)
    add("report", "run everything", oracle=True, which=True, witness=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_degree is not None and args.max_degree < 1:
        print("error: --max-degree must be at least 1", file=sys.stderr)
        return 2
    if getattr(args, "oracle_bound", None) is not None and args.oracle_bound < 0:
        print("error: --oracle-bound must be at least 0", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        payload, ok = RUNNERS[args.verb](Session(load_instance(args.spec), args))
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (
        MonogenicError,
        AlgebraError,
        CohomologyError,
        ProductsError,
        ClosedFormError,
        FieldError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    text = render(args.verb, payload, args.format, elapsed_ms)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output file {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
