"""Instance descriptions as JSON files.

A spec file names a base field, a coefficient algebra, a twist, and a
defining polynomial; this module turns one into live objects.  Anything
wrong with the file itself (unreadable, bad JSON, missing or ill-typed
keys) raises SpecError; purely mathematical failures (f not admissible,
twist not an endomorphism) are left to the usual validators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as _field

from .fields import Field, FieldError, Scalar, make_field
from .kalgebra import (
    AlgebraError,
    AlgebraK,
    Endo,
    GroupData,
    char_power,
    character_from_values,
    character_order,
    cyclic_group,
    endo_from_character,
    group_algebra,
    group_from_presentation_gh4,
    group_from_table,
    identity_endo,
    quaternion_algebra,
)
from .linalg import Mat
from .monogenic import MonogenicAlgebra

__all__ = ["SpecError", "Instance", "build_instance", "decode_witness", "load_instance"]


class SpecError(ValueError):
    """The spec file cannot be interpreted."""


def _need(d: dict, key: str, where: str):
    if not isinstance(d, dict):
        raise SpecError(f"{where} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        raise SpecError(f"{where} is missing the {key!r} key")
    return d[key]


def _decode_scalar(field: Field, obj, where: str) -> Scalar:
    try:
        return field.decode(obj)
    except (FieldError, ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _decode_coords(field: Field, obj, dim: int, where: str) -> tuple:
    if not isinstance(obj, list) or len(obj) != dim:
        raise SpecError(f"{where} must be a list of {dim} scalars")
    return tuple(_decode_scalar(field, c, where) for c in obj)


def decode_witness(K: AlgebraK, raw) -> tuple:
    """A witness candidate: a basis label of K or a list of K.dim scalars."""
    if isinstance(raw, str):
        if raw not in K.basis_names:
            raise SpecError(f"witness candidate {raw!r} names no basis element")
        return K.elem(raw)
    if isinstance(raw, list):
        return _decode_coords(K.field, raw, K.dim, f"witness coordinates {raw!r}")
    raise SpecError(f"a witness candidate is a basis label or a coordinate list, got {raw!r}")


@dataclass
class Instance:
    """A fully parsed spec: live objects plus the raw JSON for echoing.

    ``rank_one`` is (options.g1, options.xi) when the spec gives both, and
    ``rotation`` the decoded cos, sin, cos_half, sin_half of quaternion
    coefficients."""

    raw: dict
    field: Field
    K: AlgebraK
    alpha: Endo
    chi: list | None
    f_coeffs: list
    n: int
    max_degree: int | None = None
    options: dict = _field(default_factory=dict)
    witness_candidates: list = _field(default_factory=list)
    rank_one: tuple | None = None
    rotation: tuple | None = None

    def algebra(self, check: bool = True) -> MonogenicAlgebra:
        return MonogenicAlgebra(self.K, self.alpha, self.f_coeffs, check=check)

    def default_degree(self) -> int:
        """Degree bound when the spec does not pin one: one period of the
        n-th twist power plus two, capped at six."""
        if self.max_degree is not None:
            return self.max_degree
        if self.chi is not None and self.K.group is not None:
            v = character_order(self.K.group, char_power(self.chi, self.n))
        else:
            v = Endo(self.K, self.alpha.power_matrix(self.n)).order
        if v is not None and 2 * v + 2 <= 6:
            return 2 * v + 2
        return 6


def _check_labels(labels, what: str) -> None:
    """Raise SpecError unless labels is a list of distinct strings."""
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SpecError(f"{what} must be a list of strings, got {labels!r}")
    if len(set(labels)) != len(labels):
        raise SpecError(f"{what} must be distinct, got {labels!r}")


def _build_group(gspec: dict) -> GroupData:
    kind = _need(gspec, "kind", "the group description")
    if kind == "cyclic":
        order = _need(gspec, "order", "the cyclic group description")
        if type(order) is not int or order < 1:
            raise SpecError("cyclic group order must be a positive integer")
        return cyclic_group(order)
    if kind == "gh4":
        u = _need(gspec, "u", "the two-generator group description")
        if type(u) is not int or u < 1:
            raise SpecError("the first generator order u must be a positive integer")
        return group_from_presentation_gh4(u)
    if kind == "table":
        labels = _need(gspec, "labels", "the group table description")
        table = _need(gspec, "table", "the group table description")
        _check_labels(labels, "group table labels")
        n = len(labels)
        if not isinstance(table, list) or len(table) != n or any(
                not isinstance(row, list) or len(row) != n for row in table):
            raise SpecError(f"the group table must be a list of {n} rows of {n} entries, one per label")
        bad = [(a, b, t) for a, row in enumerate(table) for b, t in enumerate(row)
               if type(t) is not int or not 0 <= t < n]
        if bad:
            a, b, t = bad[0]
            raise SpecError(f"group table entry {t!r} at ({a},{b}) is not a label index in [0, {n})")
        try:
            return group_from_table(labels, table)
        except AlgebraError as exc:
            raise SpecError(f"bad group table: {exc}") from exc
    raise SpecError(f"unknown group kind {kind!r}")


def _build_character(G: GroupData, field: Field, cspec: dict) -> list:
    if not isinstance(cspec, dict) or not cspec:
        raise SpecError("a character is a non-empty object mapping labels to scalars")
    values = {
        label: _decode_scalar(field, v, f"character value at {label!r}")
        for label, v in cspec.items()
    }
    try:
        return character_from_values(G, field, values)
    except AlgebraError as exc:
        raise SpecError(f"bad character: {exc}") from exc


def _build_K(field: Field, kspec: dict):
    """Returns (K, chi_or_None, rotation_endo_or_None, rotation_values_or_None)."""
    kind = _need(kspec, "kind", "the coefficient algebra description")
    if kind == "table":
        dim = _need(kspec, "dim", "the structure-constant description")
        basis = _need(kspec, "basis", "the structure-constant description")
        unit = _need(kspec, "unit", "the structure-constant description")
        mul = _need(kspec, "mul", "the structure-constant description")
        if type(dim) is not int or dim < 1:
            raise SpecError("dim must be a positive integer")
        if not isinstance(basis, list) or len(basis) != dim:
            raise SpecError("basis must list one label per dimension")
        _check_labels(basis, "basis labels")
        unit_coords = _decode_coords(field, unit, dim, "the unit coordinates")
        if not isinstance(mul, list):
            raise SpecError("mul must be a list of [i, j, k, scalar] quadruples")
        quads = []
        for q in mul:
            if not isinstance(q, list) or len(q) != 4:
                raise SpecError("each mul entry must be [i, j, k, scalar]")
            i, j, k, s = q
            if not all(type(t) is int and 0 <= t < dim for t in (i, j, k)):
                raise SpecError(f"mul entry {q!r} has an index out of range")
            quads.append((i, j, k, _decode_scalar(field, s, f"mul entry {q!r}")))
        try:
            K = AlgebraK.from_structure_constants(field, dim, basis, unit_coords, quads)
        except AlgebraError as exc:
            raise SpecError(f"bad structure constants: {exc}") from exc
        return K, None, None, None
    if kind == "group":
        G = _build_group(_need(kspec, "group", "the group-algebra description"))
        K = group_algebra(G, field)
        chi = None
        if "character" in kspec:
            chi = _build_character(G, field, kspec["character"])
        return K, chi, None, None
    if kind == "quaternion":
        vals = [
            _decode_scalar(field, _need(kspec, key, "the quaternion description"), key)
            for key in ("cos", "sin", "cos_half", "sin_half")
        ]
        try:
            K, rot = quaternion_algebra(field, *vals)
        except AlgebraError as exc:
            raise SpecError(f"bad rotation data: {exc}") from exc
        return K, None, rot, tuple(vals)
    raise SpecError(f"unknown coefficient algebra kind {kind!r}")


def _build_alpha(field: Field, K: AlgebraK, chi, rot, aspec) -> tuple[Endo, list | None]:
    """Returns (alpha, chi) where chi may be filled in from the twist spec."""
    if aspec is None:
        if chi is not None:
            return endo_from_character(K, chi), chi
        if rot is not None:
            return rot, None
        raise SpecError(
            "the spec has no twist: add an 'alpha' entry, or a character on a "
            "group coefficient algebra, or use the quaternion coefficients"
        )
    kind = _need(aspec, "kind", "the twist description")
    if kind == "identity":
        return identity_endo(K), chi
    if kind == "matrix":
        rows = _need(aspec, "matrix", "the matrix twist description")
        if not isinstance(rows, list) or len(rows) != K.dim:
            raise SpecError(f"the twist matrix must have {K.dim} rows")
        entries = [list(_decode_coords(field, row, K.dim, "a twist matrix row")) for row in rows]
        return Endo(K, Mat(field, entries)), chi
    if kind == "character":
        if K.group is None:
            raise SpecError("a character twist needs a group coefficient algebra")
        if "values" in aspec:
            chi = _build_character(K.group, field, aspec["values"])
        if chi is None:
            raise SpecError("a character twist needs generator values")
        return endo_from_character(K, chi), chi
    if kind == "rotation":
        if rot is None:
            raise SpecError("the rotation twist only applies to quaternion coefficients")
        return rot, chi
    raise SpecError(f"unknown twist kind {kind!r}")


def _build_f(field: Field, K: AlgebraK, fspec: dict) -> tuple[list, int]:
    coeffs_raw = _need(fspec, "coeffs", "the defining polynomial")
    if not isinstance(coeffs_raw, list) or not coeffs_raw:
        raise SpecError("the defining polynomial needs a non-empty coefficient list")
    n = fspec.get("n", len(coeffs_raw))
    if type(n) is not int or n < 2:
        raise SpecError("the defining polynomial degree must be an integer >= 2")
    if n != len(coeffs_raw):
        raise SpecError(
            f"the defining polynomial lists {len(coeffs_raw)} coefficients "
            f"but declares degree {n}"
        )
    coeffs = [
        _decode_coords(field, c, K.dim, f"coefficient {i + 1} of the defining polynomial")
        for i, c in enumerate(coeffs_raw)
    ]
    return coeffs, n


def build_instance(spec: dict) -> Instance:
    """Turn a parsed spec object into live field, algebra, and twist data."""
    if not isinstance(spec, dict):
        raise SpecError("a spec must be a JSON object")
    try:
        field = make_field(_need(spec, "field", "the spec"))
    except FieldError as exc:
        raise SpecError(f"bad field description: {exc}") from exc
    K, chi, rot, rotation = _build_K(field, _need(spec, "K", "the spec"))
    alpha, chi = _build_alpha(field, K, chi, rot, spec.get("alpha"))
    f_coeffs, n = _build_f(field, K, _need(spec, "f", "the spec"))
    max_degree = spec.get("max_degree")
    if max_degree is not None and (type(max_degree) is not int or max_degree < 1):
        raise SpecError("max_degree must be a positive integer")
    options = spec.get("options", {})
    if not isinstance(options, dict):
        raise SpecError("options must be a JSON object")
    if "oracle_bound" in options and (
        type(options["oracle_bound"]) is not int or options["oracle_bound"] < 0
    ):
        raise SpecError("options.oracle_bound must be a non-negative integer")
    candidates = options.get("witness_candidates", [])
    if not isinstance(candidates, list):
        raise SpecError("options.witness_candidates must be a list")
    if "g1" in options and (K.group is None or options["g1"] not in K.group.labels):
        raise SpecError(f"options.g1 {options['g1']!r} names no group element")
    xi = _decode_scalar(field, options["xi"], "options.xi") if "xi" in options else None
    return Instance(
        raw=spec,
        field=field,
        K=K,
        alpha=alpha,
        chi=chi,
        f_coeffs=f_coeffs,
        n=n,
        max_degree=max_degree,
        options=options,
        witness_candidates=[decode_witness(K, raw) for raw in candidates],
        rank_one=(options["g1"], xi) if "g1" in options and xi is not None else None,
        rotation=rotation,
    )


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return build_instance(spec)
