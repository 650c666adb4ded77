"""Equivariant monodromy zeta functions over rings of finite (Z x G)-sets.

Exact integer arithmetic throughout: finite groups as explicit tables,
Burnside rings via tables of marks, classification of G-permutations into
the triple basis, recovery of zeta functions from Lefschetz data, the
Sebastiani-Thom combinator, the exceptional-divisor evaluator, and the
specialization to classical zeta functions prod (1-t^m)^{s_m}.
"""

from .burnside import BurnsideElement, GSet, class_of_gset
from .complexes import (
    GCellularMap,
    GComplex,
    brute_zeta,
    pair_lefschetz_table,
)
from .cli import run_command
from .documents import InputDocument, parse_document, parse_document_file
from .errors import (
    ActionError,
    DocumentError,
    EqzetaError,
    GroupError,
    RegularityError,
    StratumError,
    TableError,
)
from .gperm import (
    GPermutation,
    LefschetzTable,
    classify,
    equivariant_lefschetz,
    lefschetz_table,
    realize,
    realize_element,
    validate,
    zg_orbits,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    SubgroupClassTable,
    TableOfMarks,
    build_group,
    cyclic,
    dihedral,
    from_permutations,
    product,
    symmetric,
    trivial,
)
from .zeta import (
    StratumRecord,
    acampo,
    classical_from_lefschetz,
    classical_lefschetz_numbers,
    elementary_zeta,
    predicted_table,
    sebastiani_thom,
    zeta_from_lefschetz,
)
from .zg import (
    ClassicalZeta,
    TripleClass,
    ZGRingElement,
    canonical_triple,
    triple_index,
    triple_z_period,
    zg_contains,
    zg_contains_bruteforce,
)

__version__ = "0.1.0"
