"""Per-layer tracing of ``orecohom`` from outside the package.

``Tracer.install`` wraps public functions and methods of each module.  A
function imported with ``from ... import`` is bound in several modules (and in
dispatch tables such as ``cli.RUNNERS``), so every binding of the original
object in every ``orecohom`` module, and in every module-level dict, is
replaced; methods are replaced on their class.  Each wrapper records a span
(name, start, end, parent) and counts its calls; ``Scalar`` operations are
only counted.  Spans are kept in memory, and ``uninstall`` restores every
original.  Times exclude the calibration kernel's samples (``Clock.now``).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter

# The closed-form checks of ``cli.THEOREM_CHECKS``, each timed as a span.
THEOREM_CHECKS = (
    "collapsed-spaces", "collapsed-differentials", "collapsed-cohomology",
    "cyclic-comparison", "diagonalizable", "untwisted-model",
    "untwisted-annihilator", "group-cohomology", "membership-period",
    "periodicity", "presentation", "rank-one-hopf", "quaternion-rotation",
)

# metric name -> span whose outermost calls it sums (calibrated seconds)
TIMES = {
    "cli.run_validate_s": "cli.run_validate",
    "cli.run_cohomology_s": "cli.run_cohomology",
    "cli.run_products_s": "cli.run_products",
    "cli.run_theorems_s": "cli.run_theorems",
    "specio.load_instance_s": "specio.load_instance",
    "monogenic.algebra_build_s": "monogenic.algebra_build",
    "monogenic.contraction_check_s": "monogenic.contraction_check",
    "monogenic.normality_check_s": "monogenic.normality_check",
    "kalgebra.algebra_validate_s": "kalgebra.algebra_validate",
    "kalgebra.twisted_invariants_k_s": "kalgebra.twisted_invariants_k",
    "cohomology.build_small_complex_s": "cohomology.build_small_complex",
    "cohomology.twisted_invariants_s": "cohomology.twisted_invariants",
    "cohomology.cohomology_group_s": "cohomology.cohomology_group",
    "linalg.kernel_basis_s": "linalg.kernel_basis",
    "linalg.matmul_s": "linalg.matmul",
    "products.cup_class_table_s": "products.cup_class_table",
    "products.bracket_class_table_s": "products.bracket_class_table",
    "products.cup_oracle_s": "products.cup_oracle",
    "products.bracket_generic_s": "products.bracket_generic",
    "closedforms.find_witness_s": "closedforms.find_witness",
    **{f"closedforms.check.{c}_s": f"closedforms.check.{c}" for c in THEOREM_CHECKS},
}

# metric name -> counter key
COUNTS = {
    "monogenic.algebra_builds": "monogenic.algebra_build",
    "kalgebra.twisted_invariants_k_calls": "kalgebra.twisted_invariants_k",
    "cohomology.complex_builds": "cohomology.build_small_complex",
    "cohomology.twisted_invariants_calls": "cohomology.twisted_invariants",
    "cohomology.twisted_invariants_distinct": "cohomology.twisted_invariants_distinct",
    "cohomology.group_builds": "cohomology.cohomology_group",
    "linalg.kernel_basis_calls": "linalg.kernel_basis",
    "linalg.rref_calls": "linalg.rref",
    "linalg.rref_entries": "linalg.rref_entries",
    "linalg.solver_builds": "linalg.solver_build",
    "linalg.matmul_calls": "linalg.matmul",
    "fields.scalar_mul": "fields.scalar_mul",
    "fields.scalar_add": "fields.scalar_add",
    "fields.scalar_is_zero": "fields.scalar_is_zero",
    "fields.scalar_inv": "fields.scalar_inv",
    "products.cup_oracle_calls": "products.cup_oracle",
    "products.bracket_generic_calls": "products.bracket_generic",
    "closedforms.witness_attempts": "closedforms.witness_attempts",
    "closedforms.witnesses_found": "closedforms.witnesses_found",
}

# Layers with spans; each reports its self time (span time not in a child span).
LAYERS = ("cli", "specio", "monogenic", "kalgebra", "cohomology", "linalg", "products", "closedforms")

# Every per-layer metric with its unit, in the order printed.
METRICS = {
    **{name: "s" for name in TIMES},
    **{name: "count" for name in COUNTS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.round_s": "s",
    "trace.overhead_s": "s",
}


def _payloads(m) -> tuple:
    return tuple(tuple(x.v for x in row) for row in m.data)


def _bimodule_key(M) -> tuple:
    """What twisted_invariants reads from a bimodule: its field, the actions of
    K's basis on both sides and the twist.  Equal keys give equal results, so
    rebuilt copies of one bimodule count once."""
    return (id(M.field), tuple(map(_payloads, M.L_k)), tuple(map(_payloads, M.R_k)),
            _payloads(M.alg.alpha.matrix))


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []
        self._bimodules: dict = {}  # id -> (bimodule kept alive, content key)
        self._distinct: set = set()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, on_call=None, on_return=None):
        spans, stack, counts, now = self.spans, self._stack, self.counts, self.clock.now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if on_call is not None:
                on_call(args)
            record = [name, now(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- patching -------------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items()) if n == "orecohom" or n.startswith("orecohom.")]

    def _rebind(self, original, wrapper):
        """Replace every binding of ``original`` in the package's modules and
        in their module-level dicts."""
        for mod in self._modules():
            namespace = vars(mod)
            for table in [namespace] + [v for v in namespace.values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    if value is original:
                        table[key] = wrapper
                        self._undo.append((table.__setitem__, key, original))

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((functools.partial(setattr, cls), attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        from orecohom import cli, closedforms, cohomology, fields, kalgebra, linalg, monogenic, products, specio

        def function(mod, attr, name, **hooks):
            original = getattr(mod, attr)
            self._rebind(original, self._span(name, original, **hooks))

        def method(cls, attr, name, **hooks):
            self._patch_method(cls, attr, self._span(name, cls.__dict__[attr], **hooks))

        def on_invariants(args):
            bimodule, exponent = args[0], args[1]
            if id(bimodule) not in self._bimodules:
                self._bimodules[id(bimodule)] = (bimodule, _bimodule_key(bimodule))
            self._distinct.add((self._bimodules[id(bimodule)][1], exponent))
            self.counts["cohomology.twisted_invariants_distinct"] = len(self._distinct)

        def on_rref(args):
            self.counts["linalg.rref_entries"] += args[0].rows * args[0].cols

        def on_witness(result):
            if result:
                self.counts["closedforms.witnesses_found"] += 1

        for verb in ("validate", "cohomology", "products", "theorems"):
            function(cli, f"run_{verb}", f"cli.run_{verb}")
        for check in THEOREM_CHECKS:
            if check in cli.THEOREM_CHECKS:
                function_obj = cli.THEOREM_CHECKS[check]
                self._rebind(function_obj, self._span(f"closedforms.check.{check}", function_obj))
        function(specio, "load_instance", "specio.load_instance")
        method(monogenic.MonogenicAlgebra, "__init__", "monogenic.algebra_build")
        method(monogenic.Resolution, "contraction_check", "monogenic.contraction_check")
        function(monogenic, "normality_check", "monogenic.normality_check")
        function(kalgebra, "algebra_validate", "kalgebra.algebra_validate")
        function(kalgebra, "twisted_invariants_k", "kalgebra.twisted_invariants_k")
        method(cohomology.SmallComplex, "__init__", "cohomology.build_small_complex")
        function(cohomology, "twisted_invariants", "cohomology.twisted_invariants", on_call=on_invariants)
        method(cohomology.CohomologyGroup, "__init__", "cohomology.cohomology_group")
        function(linalg, "kernel_basis", "linalg.kernel_basis")
        function(linalg, "rref", "linalg.rref", on_call=on_rref)
        method(linalg.LinSolver, "__init__", "linalg.solver_build")
        method(linalg.Mat, "matmul", "linalg.matmul")
        function(products, "cup_class_table", "products.cup_class_table")
        function(products, "bracket_class_table", "products.bracket_class_table")
        function(products, "cup_small_oracle", "products.cup_oracle")
        function(products, "bracket_small_generic", "products.bracket_generic")
        function(closedforms, "find_witness", "closedforms.find_witness")
        function(closedforms, "witness_check", "closedforms.witness_attempts", on_return=on_witness)
        scalar = fields.Scalar
        for attrs, key in (
            (("__mul__", "__rmul__"), "fields.scalar_mul"),
            (("__add__", "__radd__", "__sub__", "__rsub__"), "fields.scalar_add"),
            (("is_zero",), "fields.scalar_is_zero"),
            (("inv",), "fields.scalar_inv"),
        ):
            for attr in attrs:
                self._patch_method(scalar, attr, self._counter(key, scalar.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)
        self._bimodules.clear()

    # -- results --------------------------------------------------------------

    def layer_metrics(self, scale: float) -> dict:
        """Per-layer figures of everything recorded; times are multiplied by
        ``scale`` (calibrated over raw seconds of the traced round)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            own[name.split(".")[0]] += (end - start) - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:  # outermost call of this name
                inclusive[name] += end - start
        out = {m: inclusive[span] * scale for m, span in TIMES.items()}
        out.update({m: self.counts[key] for m, key in COUNTS.items()})
        out.update({f"{layer}.self_s": own[layer] * scale for layer in LAYERS})
        out["trace.spans"] = len(spans)
        return out
