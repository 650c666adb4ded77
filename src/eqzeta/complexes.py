"""Finite regular G-CW data, kept purely combinatorial.

Cells carry no geometry; "fixed pointwise" is modeled as fixing the cell and
every face below it, which is all the zeta and Euler-characteristic
computations need.  The module provides the equivariant Euler characteristic
by two independent routes and a brute-force zeta oracle for cellular
automorphisms that commute with the action.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .burnside import BurnsideElement, GSet, extend_action, permutation_orbits
from .errors import ActionError, EqzetaError, RegularityError
from .gperm import GPermutation, LefschetzTable, classify, predicted_table, table_m_max
from .groups import FiniteGroup
from .zg import ZGRingElement

MAX_CELLS = 10_000


def _checked_cell_counts(cells: Sequence[int]) -> tuple[int, ...]:
    counts = tuple(int(c) for c in cells)
    if any(c < 0 for c in counts):
        raise EqzetaError("cell counts must be nonnegative")
    if sum(counts) > MAX_CELLS:
        raise EqzetaError(f"complex exceeds {MAX_CELLS} cells")
    return counts


def _first_boundary_break(
    boundary: Sequence[Sequence[tuple[int, ...]]], perms: Sequence[Sequence[int]]
) -> tuple[int, int] | None:
    """The first cell (d, c) whose faces the dimension-wise cell permutations
    do not carry onto the faces of its image, or None."""
    for d in range(1, len(perms)):
        perm_d, perm_f = perms[d], perms[d - 1]
        for c, faces in enumerate(boundary[d]):
            if tuple(sorted(perm_f[f] for f in faces)) != boundary[d][perm_d[c]]:
                return d, c
    return None


class GComplex:
    """Cells per dimension, boundary incidence, and a cell-permuting action.

    ``boundary[d][i]`` lists the (d-1)-cells under the i-th d-cell (empty in
    dimension 0); ``action[g][d]`` is the permutation of d-cells by the group
    element g.  Regularity: an element that maps a cell to itself must fix
    all of its faces.
    """

    def __init__(
        self,
        group: FiniteGroup,
        cells: Sequence[int],
        boundary: Sequence[Sequence[Sequence[int]]],
        action: Sequence[Sequence[Sequence[int]]],
        *,
        validate: bool = True,
    ):
        self.group = group
        self.cells = _checked_cell_counts(cells)
        dims = len(self.cells)
        if len(boundary) != dims:
            raise EqzetaError(
                f"boundary data covers {len(boundary)} dimensions, expected {dims}"
            )
        self.boundary = tuple(
            tuple(tuple(sorted(set(int(f) for f in faces))) for faces in per_dim)
            for per_dim in boundary
        )
        self.action = tuple(
            tuple(tuple(int(x) for x in per_dim) for per_dim in per_elem)
            for per_elem in action
        )
        if validate:
            self._validate()

    @classmethod
    def from_generator_images(
        cls,
        group: FiniteGroup,
        cells: Sequence[int],
        boundary: Sequence[Sequence[Sequence[int]]],
        images: Sequence[Sequence[Sequence[int]]],
    ) -> "GComplex":
        """Build the full action from per-generator, per-dimension images
        and check it as a directly given one: complexes are small, so every
        dimension runs the ``GSet`` check."""
        cells = _checked_cell_counts(cells)  # before any action row is built
        dims = len(cells)
        for i, per_gen in enumerate(images):
            if len(per_gen) != dims:
                raise ActionError(
                    f"generator {i} gives images for {len(per_gen)} dimensions, expected {dims}"
                )
        per_dim = [
            extend_action(group, cells[d], [per_gen[d] for per_gen in images])[0]
            for d in range(dims)
        ]
        action = [[table[g] for table in per_dim] for g in range(group.order)]
        return cls(group, cells, boundary, action)

    def _validate(self) -> None:
        """Boundary shape, the dimension count of each element's action,
        then the action dimension by dimension as a ``GSet``, then boundary
        respect and regularity.

        Boundary respect is checked for the generators only: it is closed
        under products, and the ``GSet`` checks make every row a product of
        generator rows.  Regularity is not closed under products, so it is
        checked for every element.
        """
        dims = len(self.cells)
        for d in range(dims):
            if len(self.boundary[d]) != self.cells[d]:
                raise EqzetaError(
                    f"dimension {d} has {len(self.boundary[d])} boundary rows, "
                    f"expected {self.cells[d]}"
                )
            for i, faces in enumerate(self.boundary[d]):
                if d == 0 and faces:
                    raise EqzetaError(f"0-cell {i} has boundary entries")
                for f in faces:
                    if not 0 <= f < (self.cells[d - 1] if d else 0):
                        raise EqzetaError(
                            f"cell ({d},{i}) lists invalid face {f}"
                        )
        if len(self.action) != self.group.order:
            raise ActionError("action table needs one row per group element")
        for g, per_elem in enumerate(self.action):
            if len(per_elem) != dims:
                raise ActionError(
                    f"element {self.group.labels[g]} gives images for {len(per_elem)} "
                    f"dimensions, expected {dims}"
                )
        for d in range(dims):
            GSet(self.group, self.cells[d], [row[d] for row in self.action])
        for g in self.group.generators:
            broken = _first_boundary_break(self.boundary, self.action[g])
            if broken:
                raise ActionError(
                    f"element {self.group.labels[g]} does not respect the "
                    f"boundary of cell ({broken[0]},{broken[1]})"
                )
        others = (g for g in range(self.group.order) if g != self.group.identity)
        if found := _first_irregular(self, [range(n) for n in self.cells], others):
            g, d, c, _ = found
            raise RegularityError(
                f"element {self.group.labels[g]} maps cell ({d},{c}) to "
                "itself without fixing its faces"
            )

    def dim_gset(self, d: int) -> GSet:
        return GSet(self.group, self.cells[d], [row[d] for row in self.action], validate=False)

    def chi_cellwise(self) -> BurnsideElement:
        """Alternating sum of the cell G-sets."""
        out = BurnsideElement.zero(self.group)
        for d in range(len(self.cells)):
            term = self.dim_gset(d).burnside_class()
            out = out + term if d % 2 == 0 else out - term
        return out

    def chi_strata(self) -> BurnsideElement:
        """Alternating orbit counts over the partition by stabilizer class."""
        tally: dict[int, int] = {}
        for d in range(len(self.cells)):
            sign = 1 if d % 2 == 0 else -1
            rows = [self.action[g][d] for g in range(self.group.order)]
            for orbit in permutation_orbits(rows, range(self.cells[d])):
                c = orbit[0]
                stab = tuple(
                    g for g in range(self.group.order) if self.action[g][d][c] == c
                )
                cls = self.group.class_of_subgroup(stab)
                tally[cls] = tally.get(cls, 0) + sign
        return BurnsideElement(self.group, tally)


class GCellularMap:
    """A dimension-wise cell permutation commuting with the group action
    and with the boundary incidence."""

    def __init__(self, complex_: GComplex, maps: Sequence[Sequence[int]]):
        self.complex = complex_
        dims = len(complex_.cells)
        if len(maps) != dims:
            raise ActionError(f"map covers {len(maps)} dimensions, expected {dims}")
        self.maps = tuple(tuple(int(x) for x in per_dim) for per_dim in maps)
        self._validate()

    def _validate(self) -> None:
        cx, group = self.complex, self.complex.group
        for d, perm in enumerate(self.maps):
            if sorted(perm) != list(range(cx.cells[d])):
                raise ActionError(f"map is not a bijection in dimension {d}")
        for g in group.generators:
            for d, perm in enumerate(self.maps):
                row = cx.action[g][d]
                for c in range(cx.cells[d]):
                    if row[perm[c]] != perm[row[c]]:
                        raise ActionError(
                            f"map does not commute with generator {group.labels[g]} "
                            f"on cell ({d},{c})"
                        )
        broken = _first_boundary_break(cx.boundary, self.maps)
        if broken:
            raise ActionError(
                f"map does not respect the boundary of cell ({broken[0]},{broken[1]})"
            )

    def dim_gperm(self, d: int) -> GPermutation:
        cx = self.complex
        return GPermutation(
            cx.group, cx.cells[d], [row[d] for row in cx.action], self.maps[d], validate=False
        )

    def z_period(self) -> int:
        return math.lcm(*(self.dim_gperm(d).z_period() for d in range(len(self.complex.cells))))


def _first_irregular(k: GComplex, powers: Sequence[Sequence[int]], elements: Iterable[int]):
    """The first (g, d, c, (d', face)), in g, d, c order, at which g∘f^m
    maps the cell (d, c) to itself but moves a face below it, or None;
    ``powers[d]`` is f^m on the d-cells."""
    for g in elements:
        act = k.action[g]
        for d, (row, power) in enumerate(zip(act, powers)):
            for c in range(k.cells[d]):
                if row[power[c]] != c:
                    continue
                stack = [(d, c)]
                while stack:
                    dd, cc = stack.pop()
                    for face in k.boundary[dd][cc]:
                        if act[dd - 1][powers[dd - 1][face]] != face:
                            return g, d, c, (dd - 1, face)
                        stack.append((dd - 1, face))
    return None


def check_joint_regularity(k: GComplex, f: GCellularMap) -> None:
    """Whenever g∘f^m maps a cell to itself it must fix the cell's faces.

    The (Z x G)-stabilizer of a cell y is the triple (H, j, a) that
    ``classify`` gives its orbit: {0} x H, regular as k is, and one (j, a),
    j the first level with f^j(y) in G·y (tom Dieck, LNM 766).  The elements
    fixing every face of y form a subgroup, so y fails only if it fails at
    j, its least level: scanning these levels in order finds the first
    failing power and its witness.  The levels come from each dimension's
    classification, not from the alternating sum, in which triples of
    different dimensions may cancel.  ``classify`` relies on f commuting
    with G, which ``GCellularMap`` checks.
    """
    group = k.group
    levels = {t.m for d in range(len(k.cells)) for t in classify(f.dim_gperm(d)).coeffs}
    for m in sorted(levels):
        powers = [f.dim_gperm(d).power(m).sigma for d in range(len(k.cells))]
        if found := _first_irregular(k, powers, range(group.order)):
            g, d, c, (dd, face) = found
            raise RegularityError(
                f"g∘f^{m} with g={group.labels[g]} fixes cell "
                f"({d},{c}) but moves its face ({dd},{face})"
            )


def _alternating_classification(k: GComplex, f: GCellularMap) -> ZGRingElement:
    out = ZGRingElement.zero(k.group)
    for d in range(len(k.cells)):
        term = classify(f.dim_gperm(d))
        out = out + term if d % 2 == 0 else out - term
    return out


def brute_zeta(k: GComplex, f: GCellularMap) -> ZGRingElement:
    """Alternating sum of the per-dimension classifications.

    By construction its Lefschetz data equals the equivariant Euler
    characteristic of the fixed subcomplex of each g∘f^m, so it serves as
    the oracle for the triangular solver.
    """
    if f.complex is not k:
        raise EqzetaError("map was built for a different complex")
    check_joint_regularity(k, f)
    return _alternating_classification(k, f)


def pair_lefschetz_table(k: GComplex, f: GCellularMap, m_max: int = 0) -> LefschetzTable:
    """The table of the alternating classification, which is the
    alternating sum of the per-dimension tables (``m_max=0``: the period)."""
    if not k.cells:
        raise EqzetaError("complex has no cells")
    m_max = m_max or f.z_period()
    for d in range(len(k.cells)):
        table_m_max(f.dim_gperm(d), m_max)
    return predicted_table(_alternating_classification(k, f), m_max)
