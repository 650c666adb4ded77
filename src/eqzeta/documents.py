"""Document schemas, parsing and rendering for the command-line tool.

Documents are JSON objects with an explicit ``kind`` tag: group, gperm,
strata, lefschetz, expr, or complex.  Group references inside other
documents are either an inline group object or a path string relative to
the referencing file.  Diagnostics carry a field path such as
``strata[2].n`` and, for syntax errors, the line reported by the JSON
parser.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from .burnside import BurnsideElement
from .complexes import GCellularMap, GComplex
from .errors import DocumentError, EqzetaError
from .gperm import GPermutation, LefschetzTable
from .groups import FiniteGroup, _loc, build_group
from .zg import ClassicalZeta, TripleClass, ZGRingElement, canonical_pair, canonical_triple
from .zeta import StratumRecord

@dataclass
class InputDocument:
    kind: str
    group: FiniteGroup
    payload: Any
    raw_group: Any


def parse_document(
    text: str, base_dir: str | Path | None = None, group: FiniteGroup | None = None
) -> InputDocument:
    """Parse and validate a document, or raise DocumentError with a location.

    A document whose group ``is_same_as`` ``group`` is parsed on ``group``.
    """
    try:
        return parse_object(_decode(text), base_dir=base_dir, group=group)
    except RecursionError:  # say, products nested hundreds deep
        raise DocumentError("document is nested too deeply") from None


def parse_document_file(path: str | Path, group: FiniteGroup | None = None) -> InputDocument:
    path = Path(path)
    text = _read(path)
    return _in_file(path, lambda: parse_document(text, base_dir=path.parent, group=group))


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


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


def _in_file(path: Path, parse: Callable[[], Any]) -> Any:
    """``parse()``, with its DocumentError prefixed by the file."""
    try:
        return parse()
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def parse_object(
    obj: Any, base_dir: str | Path | None = None, group: FiniteGroup | None = None
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


def _as_int_list(value: Any, path: str) -> list[int]:
    """The array; a location is formatted only for an item that fails."""
    if not isinstance(value, list):
        raise DocumentError(f"{path}: expected an array of integers")
    for i, x in enumerate(value):
        if type(x) is not int:
            _as_int(x, _loc(path, i))
    return list(value)


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


def _objects(obj: dict, key: str) -> Iterator[tuple[str, dict]]:
    """(path, item) for each item of the array of objects ``obj[key]``."""
    raw = _need(obj, key, "")
    if not isinstance(raw, list):
        raise DocumentError(f"{key}: expected an array")
    for i, item in enumerate(raw):
        path = _loc(key, i)
        if not isinstance(item, dict):
            raise DocumentError(f"{path}: expected an object")
        yield path, item


# -- per-kind parsers --------------------------------------------------------


def _group_from(value: Any, path: str, base_dir: str | Path | None) -> FiniteGroup:
    if isinstance(value, str):
        ref = Path(value)
        if base_dir is not None and not ref.is_absolute():
            ref = Path(base_dir) / ref
        text = _read(ref)
        obj = _in_file(ref, lambda: _decode(text))
        # the kind is read first, so no other document is built, nor its references
        if isinstance(obj, dict) and obj.get("kind") in KINDS and obj["kind"] != "group":
            raise DocumentError(f"{path}: referenced document is not a group")
        return _in_file(ref, lambda: parse_object(obj, base_dir=ref.parent)).group
    if not isinstance(value, dict):
        raise DocumentError(f"{path}: expected a group object or a path string")
    if "kind" in value and value["kind"] != "group":
        raise DocumentError(f"{_loc(path, 'kind')}: expected 'group'")
    try:
        return build_group(value)
    except EqzetaError as exc:
        raise _wrap(path or "group", exc) from None


def _parse_gperm(obj: dict, group: FiniteGroup) -> GPermutation:
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
    cells = _as_int_list(_need(obj, "cells", ""), "cells")
    raw_boundary = _need(obj, "boundary", "")
    if not isinstance(raw_boundary, list) or len(raw_boundary) != len(cells):
        raise DocumentError(
            f"boundary: expected one array per dimension ({len(cells)})"
        )
    boundary = []
    for d, per_dim in enumerate(raw_boundary):
        if not isinstance(per_dim, list):
            raise DocumentError(f"boundary[{d}]: expected an array")
        boundary.append(
            [_as_int_list(faces, _loc(_loc("boundary", d), i)) for i, faces in enumerate(per_dim)]
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
