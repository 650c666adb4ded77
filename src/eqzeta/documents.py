"""Document schemas, parsing and rendering for the command-line tool.

Documents are JSON objects with an explicit ``kind`` tag: group, gperm,
strata, lefschetz, expr, or complex.  This module parses every kind, group
descriptions included (``build_group``), with one set of field helpers.
Group references inside other documents are either an inline group object
or a path string relative to the referencing file.  Diagnostics carry a
field path such as ``strata[2].n`` or ``group: factors[1].n`` and, for
syntax errors, the line reported by the JSON parser.
"""

from __future__ import annotations

import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterator

from . import _forward
from .errors import DocumentError, EqzetaError, GroupError
from .groups import FiniteGroup, cyclic, dihedral, from_permutations, product, symmetric
from .records import Record

if TYPE_CHECKING:
    from .burnside import BurnsideElement
    from .complexes import GCellularMap, GComplex
    from .gperm import GPermutation, LefschetzTable
    from .zeta import StratumRecord
    from .zg import ClassicalZeta, TripleClass, ZGRingElement

# Each kind's parser imports the modules of its kind, so a command loads only
# what its documents need.  These names still resolve as attributes of this
# module, for code that reads or wraps them here (PEP 562).
__getattr__ = _forward(globals(), {
    "BurnsideElement": "burnside",
    "GCellularMap": "complexes",
    "GComplex": "complexes",
    "GPermutation": "gperm",
    "LefschetzTable": "gperm",
    "ClassicalZeta": "zg",
    "TripleClass": "zg",
    "ZGRingElement": "zg",
    "canonical_pair": "zg",
    "canonical_triple": "zg",
    "StratumRecord": "zeta",
})


class InputDocument(Record):
    __slots__ = ("kind", "group", "payload", "raw_group")

    def __init__(self, kind: str, group: FiniteGroup, payload: Any, raw_group: Any) -> None:
        self.kind = kind
        self.group = group
        self.payload = payload
        self.raw_group = raw_group

    def _key(self) -> tuple:
        return (self.kind, self.group, self.payload, self.raw_group)


def parse_document(
    text: str, base_dir: str | os.PathLike | None = None, group: FiniteGroup | None = None
) -> InputDocument:
    """Parse and validate a document, or raise DocumentError with a location.

    A document whose group ``is_same_as`` ``group`` is parsed on ``group``.
    """
    try:
        return parse_object(_decode(text), base_dir=base_dir, group=group)
    except RecursionError:  # say, products nested hundreds deep
        raise DocumentError("document is nested too deeply") from None


def parse_document_file(path: str | os.PathLike, group: FiniteGroup | None = None) -> InputDocument:
    text = _read(path)
    return _in_file(path, lambda: parse_document(text, base_dir=os.path.dirname(path), group=group))


def _read(path: str | os.PathLike) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # a NUL in the path, which the repr shows escaped
        raise DocumentError(f"cannot read {os.fspath(path)!r}: {exc}") from None


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # int() of a literal past sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"an integer has more than {limit} digits") from None
    except RecursionError:
        raise DocumentError("document is nested too deeply") from None


def _in_file(path: str | os.PathLike, parse: Callable[[], Any]) -> Any:
    """``parse()``, with its DocumentError prefixed by the file."""
    try:
        return parse()
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def parse_object(
    obj: Any, base_dir: str | os.PathLike | None = None, group: FiniteGroup | None = None
) -> InputDocument:
    if not isinstance(obj, dict):
        raise DocumentError("document root must be an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"kind: expected one of {', '.join(KINDS)}, got {kind!r}")
    if kind == "group":
        return InputDocument(kind, _group_from(obj, "", base_dir), None, obj)
    raw_group = _need(obj, "group", "")
    built = _group_from(raw_group, "group", base_dir)
    if group is None or not built.is_same_as(group):
        group = built
    return InputDocument(kind, group, _PARSERS[kind](obj, group), raw_group)


# -- field helpers -----------------------------------------------------------


def _loc(path: str, key: str | int) -> str:
    """The path of ``key`` in a document, as diagnostics print it: ``factors[1].n``."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _need(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise DocumentError(f"{_loc(path, key)}: missing field")
    return obj[key]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{path}: expected an integer, got {value!r}")
    return value


def _int_field(obj: dict, key: str, path: str) -> int:
    value = _need(obj, key, path)
    return value if type(value) is int else _as_int(value, _loc(path, key))


def _array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{path}: expected an array")
    return value


def _as_int_list(value: Any, path: str) -> list[int]:
    """The array itself, not a copy, so callers must not change it (a group
    description is echoed in structured output).  Item types are tested at
    C speed; a location is formatted only for an item that fails."""
    if not isinstance(value, list):
        raise DocumentError(f"{path}: expected an array of integers")
    if not {int}.issuperset(map(type, value)):
        for i, x in enumerate(value):
            _as_int(x, _loc(path, i))
    return value


def _int_rows(value: Any, path: str) -> list[list[int]]:
    """An array of integer arrays, as group descriptions give them."""
    for i, row in enumerate(_array(value, path)):
        at = _loc(path, i)
        _as_int_list(_array(row, at), at)
    return value


def _out_of_range(group: FiniteGroup, g: int, path: str) -> DocumentError:
    return DocumentError(f"{path}: element index {g} out of range 0..{group.order - 1}")


def _element_field(group: FiniteGroup, obj: dict, key: str, path: str) -> int:
    g = _int_field(obj, key, path)
    if not 0 <= g < group.order:
        raise _out_of_range(group, g, _loc(path, key))
    return g


def _elements(group: FiniteGroup, value: Any, path: str) -> tuple[int, ...]:
    """An array of element indices; every item is type-checked before any
    index is range-checked."""
    elems = _as_int_list(value, path)
    for j, g in enumerate(elems):
        if not 0 <= g < group.order:
            raise _out_of_range(group, g, _loc(path, j))
    return tuple(elems)


def _wrap(path: str, exc: EqzetaError) -> DocumentError:
    return DocumentError(f"{path}: {exc}")


def _objects(obj: dict, key: str, path: str = "") -> Iterator[tuple[str, dict]]:
    """(path, item) for each item of the array of objects ``obj[key]``."""
    at = _loc(path, key)
    for i, item in enumerate(_array(_need(obj, key, path), at)):
        if not isinstance(item, dict):
            raise DocumentError(f"{_loc(at, i)}: expected an object")
        yield _loc(at, i), item


# -- group descriptions ------------------------------------------------------


def build_group(spec: dict) -> FiniteGroup:
    """The group a description gives (see the document schemas), or GroupError
    for a malformed or impossible one, naming a malformed field by its path."""
    try:
        return _group(spec, "")
    except DocumentError as exc:
        raise GroupError(str(exc)) from None


def _group(spec: dict, path: str) -> FiniteGroup:
    """The group ``spec`` describes; ``path`` locates it in the description.
    Products recurse here, so ``build_group`` runs once per description."""
    if "kind" in spec and spec["kind"] != "group":
        raise DocumentError(f"{_loc(path, 'kind')}: expected 'group'")
    kind = _need(spec, "type", path)
    if kind in ("cyclic", "dihedral", "symmetric"):
        build = {"cyclic": cyclic, "dihedral": dihedral, "symmetric": symmetric}[kind]
        return build(_int_field(spec, "n", path))
    if kind == "product":
        if len(_array(_need(spec, "factors", path), _loc(path, "factors"))) < 2:
            raise DocumentError("product needs at least two factors")
        group = None
        for at, factor in _objects(spec, "factors", path):
            g = _group(factor, at)
            group = g if group is None else product(group, g)
        return group
    if kind == "perm-gens":
        points = _int_field(spec, "points", path)
        if points < 0:
            raise DocumentError(f"{_loc(path, 'points')}: must be nonnegative")
        at = _loc(path, "generators")
        return from_permutations(points, _int_rows(_need(spec, "generators", path), at))
    if kind == "table":
        mul = _int_rows(_need(spec, "mul", path), _loc(path, "mul"))
        labels, gens, at = spec.get("labels"), spec.get("generators"), _loc(path, "generators")
        return FiniteGroup(
            mul,
            name=str(spec.get("name", "G")),
            labels=None if labels is None else _array(labels, _loc(path, "labels")),
            generators=None if gens is None else _as_int_list(_array(gens, at), at),
        )
    raise DocumentError(f"unknown group type {kind!r}")


# -- per-kind parsers --------------------------------------------------------


def _group_from(value: Any, path: str, base_dir: str | os.PathLike | None) -> FiniteGroup:
    if isinstance(value, str):
        ref = value if base_dir is None else os.path.join(base_dir, value)
        text = _read(ref)
        obj = _in_file(ref, lambda: _decode(text))
        # the kind is read first, so no other document is built, nor its references
        if isinstance(obj, dict) and obj.get("kind") in KINDS and obj["kind"] != "group":
            raise DocumentError(f"{path}: referenced document is not a group")
        return _in_file(ref, lambda: parse_object(obj, base_dir=os.path.dirname(ref))).group
    if not isinstance(value, dict):
        raise DocumentError(f"{path}: expected a group object or a path string")
    try:
        return build_group(value)
    except EqzetaError as exc:
        raise _wrap(path or "group", exc) from None


def _parse_gperm(obj: dict, group: FiniteGroup) -> GPermutation:
    from .gperm import GPermutation

    n = _int_field(obj, "points", "")
    if n < 0:
        raise DocumentError("points: must be nonnegative")
    action = _need(obj, "action", "")
    if not isinstance(action, list):
        raise DocumentError("action: expected an array of image arrays")
    if len(action) != len(group.generators):
        raise DocumentError(
            f"action: {len(action)} image arrays given, group has "
            f"{len(group.generators)} generators"
        )
    images = [_as_int_list(row, _loc("action", i)) for i, row in enumerate(action)]
    sigma = _as_int_list(_need(obj, "sigma", ""), "sigma")
    try:
        return GPermutation.from_generator_images(group, n, images, sigma)
    except EqzetaError as exc:
        raise _wrap("gperm", exc) from None


def _parse_strata(obj: dict, group: FiniteGroup) -> list[StratumRecord]:
    from .zeta import StratumRecord

    records = []
    for path, item in _objects(obj, "strata"):
        record = StratumRecord(
            chi=_int_field(item, "chi", path),
            m=_int_field(item, "m", path),
            n=_int_field(item, "n", path),
            subgroup=_elements(group, _need(item, "H", path), _loc(path, "H")),
            alpha=_element_field(group, item, "alpha", path),
        )
        try:
            record.validate(group)
        except EqzetaError as exc:
            raise _wrap(path, exc) from None
        records.append(record)
    return records


def _parse_lefschetz(obj: dict, group: FiniteGroup) -> LefschetzTable:
    from .gperm import LefschetzTable
    from .zg import canonical_pair

    m_max = _int_field(obj, "m_max", "")
    if m_max < 1:
        raise DocumentError("m_max: must be positive")
    by_pair: dict[tuple[int, int, int], int] = {}
    source: dict[tuple[int, int, int], str] = {}
    for path, item in _objects(obj, "entries"):
        h_value = _need(item, "H", path)
        if isinstance(h_value, list):
            elems, cls = _elements(group, h_value, _loc(path, "H")), None
        else:
            cls = _int_field(item, "H", path)
            classes = group.subgroup_classes.classes
            if not 0 <= cls < len(classes):
                raise DocumentError(f"{_loc(path, 'H')}: class id {cls} out of range")
            elems = classes[cls].elements
        g = _element_field(group, item, "g", path)
        m = _int_field(item, "m", path)
        if not 1 <= m <= m_max:
            raise DocumentError(f"{_loc(path, 'm')}: must lie in 1..m_max={m_max}")
        value = _int_field(item, "value", path)
        # a class id, as `lefschetz --format structured` writes it, reads its
        # pair table, which saves one canonical_pair per entry of a table read
        # back; canonical_pair reads element lists and reports a g that does
        # not normalize H
        try:
            alpha = None if cls is None else group.pair_table[cls].get(group.coset_min(elems, g))
            h_class, alpha = canonical_pair(group, elems, g) if alpha is None else (cls, alpha)
        except EqzetaError as exc:
            raise _wrap(path, exc) from None
        key = (h_class, m, alpha)
        if key in by_pair and by_pair[key] != value:
            raise DocumentError(
                f"{path}: conflicts with {source[key]} "
                f"(same class up to conjugation, values {by_pair[key]} != {value})"
            )
        by_pair[key] = value
        source[key] = path
    # spread conjugation-invariant values over all coset representatives
    entries = {
        (h_class, m, r): value
        for (h_class, m, alpha), value in by_pair.items()
        for r, canonical in group.pair_table[h_class].items()
        if canonical == alpha
    }
    return LefschetzTable(group, m_max, entries)


def _parse_expr(obj: dict, group: FiniteGroup) -> ZGRingElement:
    from .zg import ZGRingElement, canonical_triple

    coeffs: dict[TripleClass, int] = {}
    for path, item in _objects(obj, "terms"):
        coeff = _int_field(item, "coeff", path)
        elems = _elements(group, _need(item, "H", path), _loc(path, "H"))
        m = _int_field(item, "m", path)
        alpha = _element_field(group, item, "alpha", path)
        try:
            t = canonical_triple(group, elems, m, alpha)
        except EqzetaError as exc:
            raise _wrap(path, exc) from None
        coeffs[t] = coeffs.get(t, 0) + coeff
    return ZGRingElement(group, coeffs)


def _parse_complex(obj: dict, group: FiniteGroup) -> tuple[GComplex, GCellularMap | None]:
    from .complexes import GCellularMap, GComplex

    cells = _as_int_list(_need(obj, "cells", ""), "cells")
    raw_boundary = _need(obj, "boundary", "")
    if not isinstance(raw_boundary, list) or len(raw_boundary) != len(cells):
        raise DocumentError(
            f"boundary: expected one array per dimension ({len(cells)})"
        )
    boundary = []
    for d, per_dim in enumerate(raw_boundary):
        at = _loc("boundary", d)
        boundary.append(
            [_as_int_list(faces, _loc(at, i)) for i, faces in enumerate(_array(per_dim, at))]
        )
    raw_action = _need(obj, "action", "")
    if not isinstance(raw_action, list) or len(raw_action) != len(group.generators):
        raise DocumentError(
            f"action: expected one entry per group generator ({len(group.generators)})"
        )
    images = []
    for i, per_gen in enumerate(raw_action):
        if not isinstance(per_gen, list) or len(per_gen) != len(cells):
            raise DocumentError(
                f"action[{i}]: expected one image array per dimension ({len(cells)})"
            )
        images.append(
            [_as_int_list(row, _loc(_loc("action", i), d)) for d, row in enumerate(per_gen)]
        )
    try:
        complex_ = GComplex.from_generator_images(group, cells, boundary, images)
    except EqzetaError as exc:
        raise _wrap("complex", exc) from None
    cellular_map = None
    if "sigma" in obj:
        raw_sigma = obj["sigma"]
        if not isinstance(raw_sigma, list) or len(raw_sigma) != len(cells):
            raise DocumentError(
                f"sigma: expected one image array per dimension ({len(cells)})"
            )
        maps = [_as_int_list(row, _loc("sigma", d)) for d, row in enumerate(raw_sigma)]
        try:
            cellular_map = GCellularMap(complex_, maps)
        except EqzetaError as exc:
            raise _wrap("sigma", exc) from None
    return complex_, cellular_map


# the payload parser of each kind but "group"
_PARSERS: dict[str, Callable[[dict, FiniteGroup], Any]] = {
    "gperm": _parse_gperm,
    "strata": _parse_strata,
    "lefschetz": _parse_lefschetz,
    "expr": _parse_expr,
    "complex": _parse_complex,
}
KINDS = ("group", *_PARSERS)  # in the order diagnostics list them


# -- rendering ---------------------------------------------------------------


def structured_zg(doc_group: Any, z: ZGRingElement) -> dict:
    group = z.group
    terms = []
    for t in sorted(z.coeffs):
        rep = group.subgroup_classes.classes[t.h_class]
        terms.append(
            {
                "coeff": z.coeffs[t],
                "H": list(rep.elements),
                "m": t.m,
                "alpha": t.alpha,
            }
        )
    classical = structured_classical(z.forget_to_classical())
    return {"kind": "expr", "group": doc_group, "terms": terms, "classical": classical}


def structured_classical(c: ClassicalZeta) -> dict:
    return {"factors": [{"m": m, "s": s} for m, s in c.factors]}


def structured_burnside(doc_group: Any, b: BurnsideElement) -> dict:
    group = b.group
    terms = []
    for cls in sorted(b.coeffs, reverse=True):
        rep = group.subgroup_classes.classes[cls]
        terms.append(
            {
                "coeff": b.coeffs[cls],
                "H_class": cls,
                "H": list(rep.elements),
                "label": group.subgroup_label(cls),
            }
        )
    return {"group": doc_group, "terms": terms}


def structured_lefschetz(doc_group: Any, table: LefschetzTable) -> dict:
    entries = [
        {"H": h, "g": a, "m": m, "value": v}
        for (h, m, a), v in sorted(table.entries.items())
    ]
    return {
        "kind": "lefschetz",
        "group": doc_group,
        "m_max": table.m_max,
        "entries": entries,
    }
