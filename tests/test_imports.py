"""The import graph: ``import eqzeta`` loads no submodule, a command loads the
modules it runs, and every public name still resolves.  Each test runs in a
fresh interpreter, since this one has imported everything already."""

import ast
import json
import subprocess
import sys
from pathlib import Path

GROUP_D4 = str(Path(__file__).parent / "fixtures" / "group_d4.json")
SRC = Path(__file__).parents[1] / "src" / "eqzeta"

# the public names of the package, by defining module, as they were bound when
# ``eqzeta/__init__`` imported every submodule
EXPORTS = {
    "burnside": ["BurnsideElement", "GSet", "class_of_gset"],
    "cli": ["run_command"],
    "complexes": ["GCellularMap", "GComplex", "brute_zeta", "pair_lefschetz_table"],
    "documents": ["InputDocument", "parse_document", "parse_document_file"],
    "errors": ["ActionError", "DocumentError", "EqzetaError", "GroupError", "RegularityError",
               "StratumError", "TableError"],
    "gperm": ["GPermutation", "LefschetzTable", "classify", "equivariant_lefschetz",
              "lefschetz_table", "realize", "realize_element", "validate", "zg_orbits"],
    "groups": ["FiniteGroup", "Subgroup", "SubgroupClassTable", "TableOfMarks", "build_group",
               "cyclic", "dihedral", "from_permutations", "product", "symmetric", "trivial"],
    "zeta": ["StratumRecord", "acampo", "classical_from_lefschetz",
             "classical_lefschetz_numbers", "elementary_zeta", "predicted_table",
             "sebastiani_thom", "zeta_from_lefschetz"],
    "zg": ["ClassicalZeta", "TripleClass", "ZGRingElement", "canonical_triple", "triple_index",
           "triple_z_period", "zg_contains", "zg_contains_bruteforce"],
}
COMPUTE_MODULES = ("burnside", "zg", "gperm", "zeta", "complexes")


def fresh(code: str):
    """The JSON value that ``code`` prints on its last line, in a new interpreter."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_eqzeta_loads_no_submodule():
    loaded = fresh(
        "import json, sys, eqzeta\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('eqzeta.')]))"
    )
    assert loaded == []


def test_subgroups_loads_no_compute_module_and_no_dataclasses():
    probe = "import json, runpy, sys\n"
    bare = set(fresh(probe + "print(json.dumps(sorted(sys.modules)))"))
    loaded = set(fresh(
        probe
        + f"sys.argv = ['eqzeta', 'subgroups', {GROUP_D4!r}]\n"
        "try:\n"
        "    runpy.run_module('eqzeta', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    ))
    assert "eqzeta.groups" in loaded
    assert not {f"eqzeta.{m}" for m in COMPUTE_MODULES} & loaded
    assert not {"dataclasses", "inspect"} & (loaded - bare)


def test_every_public_name_is_the_object_its_module_defines():
    pairs = [(module, name) for module, names in EXPORTS.items() for name in names]
    same = fresh(
        "import importlib, json, eqzeta\n"
        f"pairs = {pairs!r}\n"
        "print(json.dumps([getattr(eqzeta, n) is getattr(importlib.import_module("
        "'eqzeta.' + m), n) for m, n in pairs]))"
    )
    assert same == [True] * len(pairs)
    # each submodule is an attribute of the package, as when __init__ imported it
    assert fresh(
        "import json, sys, eqzeta\n"
        f"print(json.dumps([getattr(eqzeta, m) is sys.modules['eqzeta.' + m]\n"
        f"                  for m in {list(EXPORTS)!r}]))"
    ) == [True] * len(EXPORTS)


def test_star_import_gives_the_public_names_and_the_submodules():
    names = fresh(
        "import json\n"
        "before = set(globals())\n"
        "from eqzeta import *\n"
        "print(json.dumps(sorted(set(globals()) - before - {'before'})))"
    )
    expected = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)
    assert sorted(names) == sorted(expected)


def test_an_unknown_name_is_an_attribute_error():
    out = fresh(
        "import json, eqzeta\n"
        "try:\n"
        "    eqzeta.nope\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps([str(exc), hasattr(eqzeta, 'nope'), 'nope' in dir(eqzeta),\n"
        "                      'classify' in dir(eqzeta)]))"
    )
    assert out == ["module 'eqzeta' has no attribute 'nope'", False, False, True]


def test_names_the_cli_and_documents_imported_still_resolve():
    # the traced benchmark finds its wrappers' targets through these names
    same = fresh(
        "import json\n"
        "from eqzeta import burnside, cli, complexes, documents, gperm, groups, zeta, zg\n"
        "print(json.dumps([\n"
        "    cli.classify is gperm.classify, cli.lefschetz_table is gperm.lefschetz_table,\n"
        "    cli.brute_zeta is complexes.brute_zeta, cli.acampo is zeta.acampo,\n"
        "    cli.sebastiani_thom is zeta.sebastiani_thom,\n"
        "    cli.zeta_from_lefschetz is zeta.zeta_from_lefschetz,\n"
        "    cli.ZGRingElement is zg.ZGRingElement,\n"
        "    documents.build_group is groups.build_group,\n"
        "    documents.canonical_pair is zg.canonical_pair,\n"
        "    documents.canonical_triple is zg.canonical_triple,\n"
        "    documents.GPermutation is gperm.GPermutation,\n"
        "    documents.LefschetzTable is gperm.LefschetzTable,\n"
        "    documents.GComplex is complexes.GComplex,\n"
        "    documents.GCellularMap is complexes.GCellularMap,\n"
        "    documents.StratumRecord is zeta.StratumRecord,\n"
        "    documents.TripleClass is zg.TripleClass,\n"
        "    documents.ClassicalZeta is zg.ClassicalZeta,\n"
        "    documents.ZGRingElement is zg.ZGRingElement,\n"
        "    documents.BurnsideElement is burnside.BurnsideElement,\n"
        "    not hasattr(cli, 'nope'), not hasattr(documents, 'nope'),\n"
        "]))"
    )
    assert same == [True] * len(same)


def test_no_module_imports_a_private_name_of_a_sibling():
    """A name another module needs is public; the one exception is the package's
    ``_forward``, which builds each lazy module namespace."""
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "eqzeta"
            ):
                private += [
                    f"{path.name}: {node.module or '.'} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                    and not (node.module is None and alias.name == "_forward")
                ]
    assert private == []
