"""Deterministic command-line front end.

``COMMANDS`` is the one list of subcommands: each row gives the name, the
help text, the document kinds the command reads (one positional file each)
and the handler that prints the answer.  Exit codes: 0 on success, 1 on
validation failure (diagnostic on stderr), 2 on usage errors.  Identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from . import _forward, documents
from .errors import DocumentError, EqzetaError

if TYPE_CHECKING:
    from .zg import ZGRingElement

# Handlers import the compute modules they call, so a command loads only what
# it runs.  These names still resolve as attributes of this module, for code
# that reads or wraps them here (PEP 562).
__getattr__ = _forward(globals(), {
    "brute_zeta": "complexes",
    "classify": "gperm",
    "lefschetz_table": "gperm",
    "acampo": "zeta",
    "sebastiani_thom": "zeta",
    "zeta_from_lefschetz": "zeta",
    "ZGRingElement": "zg",
})


def _show(fmt: str, structured: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the answer in ``fmt``; it is rendered whole before any of it is printed."""
    try:
        out = json.dumps(structured(), indent=2, sort_keys=True) if fmt == "structured" else text()
    except ValueError:  # str() of an int past sys.get_int_max_str_digits()
        raise EqzetaError(
            f"the answer holds an integer of more than {sys.get_int_max_str_digits()} digits, "
            "too long to print"
        ) from None
    print(out)


def _print_zg(doc: documents.InputDocument, z: ZGRingElement, fmt: str) -> None:
    _show(
        fmt,
        lambda: documents.structured_zg(doc.raw_group, z),
        lambda: z.render() + "\n" + z.forget_to_classical().render(),
    )


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args, *_load(args))
    except EqzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _load(args) -> list[documents.InputDocument]:
    """The command's documents; a second one is parsed on the first one's group
    when they agree, and must agree."""
    docs: list[documents.InputDocument] = []
    paths = [getattr(args, f) for f in args.files]
    for path, kind in zip(paths, args.kinds):
        doc = documents.parse_document_file(path, group=docs[0].group if docs else None)
        if doc.kind != kind:
            raise DocumentError(f"{path}: expected a {kind!r} document, got {doc.kind!r}")
        if docs and doc.group is not docs[0].group:
            raise DocumentError(
                f"{path}: group differs from {paths[0]}; binary operations need a common group"
            )
        docs.append(doc)
    return docs


@functools.cache  # built on the first command, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqzeta",
        description="Equivariant monodromy zeta functions with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, kinds, handler in COMMANDS:
        p = sub.add_parser(name, help=help_)
        # one positional per document: gperm_file, or expr_file1 and expr_file2
        files = [f"{kind}_file{i if len(kinds) > 1 else ''}" for i, kind in enumerate(kinds, 1)]
        for f in files:
            p.add_argument(f)
        if name == "lefschetz":
            p.add_argument("--m-max", type=int, default=0)
        p.add_argument("--format", choices=("text", "structured"), default="text", dest="fmt")
        p.set_defaults(files=files, kinds=kinds, handler=handler)
    return parser


# -- handlers: (args, *documents) -> None; compute functions are imported from
# their module at each call, so that a wrapper installed on the module is the
# one called


def _zg(compute: Callable[..., ZGRingElement]) -> Callable[..., None]:
    """The handler that prints the (Z×G) element ``compute(args, *docs)``."""
    return lambda args, *docs: _print_zg(docs[0], compute(args, *docs), args.fmt)


def _subgroups(args, doc) -> None:
    group = doc.group
    table = group.subgroup_classes
    _show(
        args.fmt,
        lambda: {
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
        },
        lambda: "\n".join(
            f"{group.subgroup_label(i)}: order={rep.order}, "
            f"count={table.class_sizes[i]}, elements={list(rep.elements)}"
            for i, rep in enumerate(table.classes)
        ),
    )


def _marks(args, doc) -> None:
    group = doc.group
    labels = [group.subgroup_label(i) for i in range(len(group.subgroup_classes))]
    matrix = group.table_of_marks.matrix
    _show(
        args.fmt,
        lambda: {"group": doc.raw_group, "labels": labels, "matrix": [list(r) for r in matrix]},
        lambda: "\n".join(
            ["columns: " + " ".join(labels)]
            + [f"{label}: " + " ".join(str(v) for v in row) for label, row in zip(labels, matrix)]
        ),
    )


def _chi(args, doc) -> None:
    complex_, _ = doc.payload
    cellwise = complex_.chi_cellwise()
    if cellwise != complex_.chi_strata():
        raise EqzetaError("internal: the two Euler characteristic routes disagree")
    _show(args.fmt, lambda: documents.structured_burnside(doc.raw_group, cellwise), cellwise.render)


def _lefschetz(args, doc) -> None:
    from .gperm import lefschetz_table

    table = lefschetz_table(doc.payload, args.m_max)
    group = doc.group
    _show(
        args.fmt,
        lambda: documents.structured_lefschetz(doc.raw_group, table),
        lambda: "\n".join(
            [f"m_max: {table.m_max}"]
            + [
                f"H={group.subgroup_label(h)} m={m} a={group.labels[a]}: {v}"
                for (h, m, a), v in sorted(table.entries.items())
            ]
        ),
    )


def _classify(args, doc) -> ZGRingElement:
    from .gperm import classify

    return classify(doc.payload)


def _zeta_solve(args, doc) -> ZGRingElement:
    from .zeta import zeta_from_lefschetz

    return zeta_from_lefschetz(doc.payload)


def _brute_zeta(args, doc) -> ZGRingElement:
    from .complexes import brute_zeta

    complex_, cellular_map = doc.payload
    if cellular_map is None:
        raise DocumentError(f"{args.complex_file}: document has no sigma field")
    return brute_zeta(complex_, cellular_map)


def _sebastiani_thom(args, d1, d2) -> ZGRingElement:
    from .zeta import sebastiani_thom

    return sebastiani_thom(d1.payload, d2.payload)


def _acampo(args, doc) -> ZGRingElement:
    from .zeta import acampo

    return acampo(doc.group, doc.payload)


def _forget(args, doc) -> None:
    c = doc.payload.forget_to_classical()
    _show(args.fmt, lambda: documents.structured_classical(c), c.render)


COMMANDS: tuple[tuple[str, str, tuple[str, ...], Callable[..., None]], ...] = (
    ("subgroups", "list subgroup classes of a group", ("group",), _subgroups),
    ("marks", "print the table of marks", ("group",), _marks),
    ("chi", "equivariant Euler characteristic of a complex", ("complex",), _chi),
    ("classify", "classify a G-permutation into triples", ("gperm",), _zg(_classify)),
    ("lefschetz", "tabulate Lefschetz data of a G-permutation", ("gperm",), _lefschetz),
    ("zeta-solve", "solve a Lefschetz table for the zeta element", ("lefschetz",),
     _zg(_zeta_solve)),
    ("zeta", "brute-force zeta of a cellular map", ("complex",), _zg(_brute_zeta)),
    ("st", "Sebastiani-Thom combination of two elements", ("expr", "expr"),
     _zg(_sebastiani_thom)),
    ("acampo", "evaluate the exceptional-divisor formula", ("strata",), _zg(_acampo)),
    ("forget", "classical zeta of an element", ("expr",), _forget),
    ("mul", "product of two elements", ("expr", "expr"),
     _zg(lambda args, d1, d2: d1.payload * d2.payload)),
    ("add", "sum of two elements", ("expr", "expr"),
     _zg(lambda args, d1, d2: d1.payload + d2.payload)),
)


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader went away (say, `| head -1`); point stdout at devnull so
        # that the flush at exit does not fail again, as the Python docs advise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
