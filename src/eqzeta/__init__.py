"""Equivariant monodromy zeta functions over rings of finite (Z x G)-sets.

Exact integer arithmetic throughout: finite groups as explicit tables,
Burnside rings via tables of marks, classification of G-permutations into
the triple basis, recovery of zeta functions from Lefschetz data, the
Sebastiani-Thom combinator, the exceptional-divisor evaluator, and the
specialization to classical zeta functions prod (1-t^m)^{s_m}.

``import eqzeta`` loads no submodule: each name below is resolved from its
module on first use (PEP 562), so a command pays only for the modules it runs.
"""

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "burnside": ("BurnsideElement", "GSet", "class_of_gset"),
    "cli": ("run_command",),
    "complexes": ("GCellularMap", "GComplex", "brute_zeta", "pair_lefschetz_table"),
    "documents": ("InputDocument", "build_group", "parse_document", "parse_document_file"),
    "errors": (
        "ActionError", "DocumentError", "EqzetaError", "GroupError", "RegularityError",
        "StratumError", "TableError",
    ),
    "gperm": (
        "GPermutation", "LefschetzTable", "classify", "equivariant_lefschetz",
        "lefschetz_table", "realize", "realize_element", "validate", "zg_orbits",
    ),
    "groups": (
        "FiniteGroup", "Subgroup", "SubgroupClassTable", "TableOfMarks", "cyclic", "dihedral",
        "from_permutations", "product", "symmetric", "trivial",
    ),
    "zeta": (
        "StratumRecord", "acampo", "classical_from_lefschetz", "classical_lefschetz_numbers",
        "elementary_zeta", "predicted_table", "sebastiani_thom", "zeta_from_lefschetz",
    ),
    "zg": (
        "ClassicalZeta", "TripleClass", "ZGRingElement", "canonical_triple", "triple_index",
        "triple_z_period", "zg_contains", "zg_contains_bruteforce",
    ),
}
# name -> the submodule it is read from; a submodule maps to itself
_NAMES = {name: module for module, names in _EXPORTS.items() for name in (*names, module)}

__all__ = list(_NAMES)


def _forward(namespace: dict, names: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: each of ``names`` is read from the eqzeta submodule it maps
    to, which is imported then, and kept in ``namespace``."""
    module_name = namespace["__name__"]

    def __getattr__(name: str):
        source = names.get(name)
        if source is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        from importlib import import_module

        module = import_module(f"{__name__}.{source}")
        value = module if name == source else getattr(module, name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _forward(globals(), _NAMES)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
