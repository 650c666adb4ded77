"""Deterministic command-line front end.

Exit codes: 0 on success, 1 on validation failure (diagnostic on stderr),
2 on usage errors.  Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import documents
from .complexes import brute_zeta
from .errors import DocumentError, EqzetaError
from .gperm import classify, lefschetz_table
from .groups import FiniteGroup
from .zeta import acampo, sebastiani_thom, zeta_from_lefschetz
from .zg import ZGRingElement


def _emit(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load(path: str, kind: str, group: FiniteGroup | None = None) -> documents.InputDocument:
    doc = documents.parse_document_file(path, group=group)
    if doc.kind != kind:
        raise DocumentError(f"{path}: expected a {kind!r} document, got {doc.kind!r}")
    return doc


def _print_zg(doc: documents.InputDocument, z: ZGRingElement, fmt: str) -> None:
    if fmt == "structured":
        _emit(documents.structured_zg(doc.raw_group, z))
    else:
        print(z.render())
        print(z.forget_to_classical().render())


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EqzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache  # built on the first command, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqzeta",
        description="Equivariant monodromy zeta functions with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *files: str, m_max: bool = False):
        p = sub.add_parser(name, help=help_)
        for f in files:
            p.add_argument(f)
        if m_max:
            p.add_argument("--m-max", type=int, default=0)
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            dest="fmt",
        )
        return p

    add("subgroups", "list subgroup classes of a group", "group_file").set_defaults(
        func=_cmd_subgroups
    )
    add("marks", "print the table of marks", "group_file").set_defaults(func=_cmd_marks)
    add("chi", "equivariant Euler characteristic of a complex", "complex_file").set_defaults(
        func=_cmd_chi
    )
    add("classify", "classify a G-permutation into triples", "gperm_file").set_defaults(
        func=_cmd_classify
    )
    add(
        "lefschetz",
        "tabulate Lefschetz data of a G-permutation",
        "gperm_file",
        m_max=True,
    ).set_defaults(func=_cmd_lefschetz)
    add("zeta-solve", "solve a Lefschetz table for the zeta element", "lefschetz_file").set_defaults(
        func=_cmd_zeta_solve
    )
    add("zeta", "brute-force zeta of a cellular map", "complex_file").set_defaults(
        func=_cmd_zeta_complex
    )
    add("st", "Sebastiani-Thom combination of two elements", "expr_file1", "expr_file2").set_defaults(
        func=_cmd_st
    )
    add("acampo", "evaluate the exceptional-divisor formula", "strata_file").set_defaults(
        func=_cmd_acampo
    )
    add("forget", "classical zeta of an element", "expr_file").set_defaults(func=_cmd_forget)
    add("mul", "product of two elements", "expr_file1", "expr_file2").set_defaults(
        func=_cmd_mul
    )
    add("add", "sum of two elements", "expr_file1", "expr_file2").set_defaults(func=_cmd_add)
    return parser


def _cmd_subgroups(args) -> int:
    doc = _load(args.group_file, "group")
    group = doc.group
    table = group.subgroup_classes
    if args.fmt == "structured":
        _emit(
            {
                "group": doc.raw_group,
                "classes": [
                    {
                        "id": i,
                        "label": group.subgroup_label(i),
                        "order": rep.order,
                        "count": table.class_sizes[i],
                        "elements": list(rep.elements),
                        "normalizer": list(table.normalizers[i]),
                    }
                    for i, rep in enumerate(table.classes)
                ],
            }
        )
    else:
        for i, rep in enumerate(table.classes):
            print(
                f"{group.subgroup_label(i)}: order={rep.order}, "
                f"count={table.class_sizes[i]}, elements={list(rep.elements)}"
            )
    return 0


def _cmd_marks(args) -> int:
    doc = _load(args.group_file, "group")
    group = doc.group
    labels = [group.subgroup_label(i) for i in range(len(group.subgroup_classes))]
    matrix = group.table_of_marks.matrix
    if args.fmt == "structured":
        _emit({"group": doc.raw_group, "labels": labels, "matrix": [list(r) for r in matrix]})
    else:
        print("columns: " + " ".join(labels))
        for label, row in zip(labels, matrix):
            print(f"{label}: " + " ".join(str(v) for v in row))
    return 0


def _cmd_chi(args) -> int:
    doc = _load(args.complex_file, "complex")
    complex_, _ = doc.payload
    cellwise = complex_.chi_cellwise()
    strata = complex_.chi_strata()
    if cellwise != strata:
        raise EqzetaError("internal: the two Euler characteristic routes disagree")
    if args.fmt == "structured":
        _emit(documents.structured_burnside(doc.raw_group, cellwise))
    else:
        print(cellwise.render())
    return 0


def _cmd_classify(args) -> int:
    doc = _load(args.gperm_file, "gperm")
    _print_zg(doc, classify(doc.payload), args.fmt)
    return 0


def _cmd_lefschetz(args) -> int:
    doc = _load(args.gperm_file, "gperm")
    table = lefschetz_table(doc.payload, args.m_max)
    if args.fmt == "structured":
        _emit(documents.structured_lefschetz(doc.raw_group, table))
    else:
        group = doc.group
        print(f"m_max: {table.m_max}")
        for (h, m, a), v in sorted(table.entries.items()):
            print(f"H={group.subgroup_label(h)} m={m} a={group.labels[a]}: {v}")
    return 0


def _cmd_zeta_solve(args) -> int:
    doc = _load(args.lefschetz_file, "lefschetz")
    _print_zg(doc, zeta_from_lefschetz(doc.payload), args.fmt)
    return 0


def _cmd_zeta_complex(args) -> int:
    doc = _load(args.complex_file, "complex")
    complex_, cellular_map = doc.payload
    if cellular_map is None:
        raise DocumentError(f"{args.complex_file}: document has no sigma field")
    _print_zg(doc, brute_zeta(complex_, cellular_map), args.fmt)
    return 0


def _cmd_st(args) -> int:
    doc, z1, z2 = _binary_operands(args)
    _print_zg(doc, sebastiani_thom(z1, z2), args.fmt)
    return 0


def _cmd_mul(args) -> int:
    doc, z1, z2 = _binary_operands(args)
    _print_zg(doc, z1 * z2, args.fmt)
    return 0


def _cmd_add(args) -> int:
    doc, z1, z2 = _binary_operands(args)
    _print_zg(doc, z1 + z2, args.fmt)
    return 0


def _binary_operands(args) -> tuple[documents.InputDocument, ZGRingElement, ZGRingElement]:
    doc1 = _load(args.expr_file1, "expr")
    # the second document is parsed on the first one's group when they agree
    doc2 = _load(args.expr_file2, "expr", doc1.group)
    if doc2.group is not doc1.group:
        raise DocumentError(
            f"{args.expr_file2}: group differs from {args.expr_file1}; "
            "binary operations need a common group"
        )
    return doc1, doc1.payload, doc2.payload


def _cmd_acampo(args) -> int:
    doc = _load(args.strata_file, "strata")
    _print_zg(doc, acampo(doc.group, doc.payload), args.fmt)
    return 0


def _cmd_forget(args) -> int:
    doc = _load(args.expr_file, "expr")
    c = doc.payload.forget_to_classical()
    if args.fmt == "structured":
        _emit(documents.structured_classical(c))
    else:
        print(c.render())
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
