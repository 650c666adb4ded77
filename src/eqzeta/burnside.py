"""The Grothendieck ring of finite G-sets.

Elements are integer combinations of the classes [G/H] indexed by subgroup
class ids.  Addition is disjoint union; multiplication is computed through
the mark homomorphism (pointwise product of fixed-point vectors followed by
exact triangular back-substitution), which keeps everything in integers.
Direct orbit decomposition of Cartesian products is kept in the test suite
as the oracle for the marks route.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ActionError
from .groups import FiniteGroup


def permutation_orbits(
    rows: Sequence[Sequence[int]], points: Iterable[int]
) -> list[list[int]]:
    """Sorted orbits through ``points`` of the group generated by ``rows``.

    ``rows`` is a nonempty list of permutations of range(n).  Orbits come in
    the order of their first point in ``points``; one may leave ``points``
    when they are not closed under the rows, so callers that need closure
    compare the orbit sizes with the point count.
    """
    seen = [False] * len(rows[0])
    out = []
    for x in points:
        if seen[x]:
            continue
        orbit = [x]
        seen[x] = True
        for y in orbit:
            for row in rows:
                z = row[y]
                if not seen[z]:
                    seen[z] = True
                    orbit.append(z)
        out.append(sorted(orbit))
    return out


def sigma_powers(sigma: Sequence[int], count: int) -> Iterator[tuple[int, ...]]:
    """sigma^1, ..., sigma^count, each as the tuple of point images."""
    power = tuple(range(len(sigma)))
    for _ in range(count):
        power = tuple(sigma[x] for x in power)
        yield power


class GSet:
    """A finite G-set given by one permutation of the points per element.

    The check runs on the Cayley edges: every row has n entries, the
    identity and the generators act by bijections, and act[a*s] equals
    act[a] after act[s] for every element a and every generator s.  The
    generators generate G, so every row is a product of generator rows,
    hence a bijection, and the rows form a homomorphism; this is the same
    induction as Light's test in ``FiniteGroup``.
    """

    def __init__(
        self,
        group: FiniteGroup,
        n: int,
        act: Sequence[Sequence[int]],
        *,
        validate: bool = True,
    ):
        self.group = group
        self.n = int(n)
        if len(act) != group.order:
            raise ActionError(
                f"action table has {len(act)} rows, expected one per group element ({group.order})"
            )
        if validate:  # only checked rows are copied entry by entry
            self.act = tuple(tuple(map(int, row)) for row in act)
            self._validate()
        else:
            self.act = tuple(map(tuple, act))

    def _validate(self) -> None:
        n, act, group = self.n, self.act, self.group
        points = tuple(range(n))
        checked = {group.identity, *group.generators}
        for g, row in enumerate(act):
            if len(row) != n or (g in checked and tuple(sorted(row)) != points):
                raise ActionError(f"action of element {g} is not a bijection")
        if act[group.identity] != points:
            raise ActionError("the identity element does not act trivially")
        for a, ra in enumerate(act):
            for s in group.generators:
                rs, ras = act[s], act[group.mul(a, s)]
                if tuple(map(ra.__getitem__, rs)) != ras:
                    x = next(x for x in points if ras[x] != ra[rs[x]])
                    raise ActionError(
                        f"action is not a homomorphism at elements ({a},{s}), point {x}"
                    )

    def orbits(self) -> list[list[int]]:
        return permutation_orbits(self.act, range(self.n))

    def stabilizer(self, x: int) -> tuple[int, ...]:
        return tuple(g for g in range(self.group.order) if self.act[g][x] == x)

    def burnside_class(self) -> "BurnsideElement":
        coeffs: dict[int, int] = {}
        for orbit in self.orbits():
            cls = self.group.class_of_subgroup(self.stabilizer(orbit[0]))
            coeffs[cls] = coeffs.get(cls, 0) + 1
        return BurnsideElement(self.group, coeffs)


def extend_action(
    group: FiniteGroup, n: int, images: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Extend generator images to a full per-element action table, and say
    whether it passes the edge check of ``GSet``: each row is built along a
    tree edge act[g*s] = act[g]∘act[s], and every other edge is compared.
    An image given for the identity or for a repeated generator builds no
    row, so each image is then compared with its generator's row."""
    if len(images) != len(group.generators):
        raise ActionError(
            f"{len(images)} generator images given, group has {len(group.generators)} generators"
        )
    gen_perms = []
    for i, img in enumerate(images):
        t = tuple(int(x) for x in img)
        if len(t) != n or sorted(t) != list(range(n)):
            raise ActionError(f"image of generator {i} is not a bijection on {n} points")
        gen_perms.append(t)
    identity = tuple(range(n))
    act: dict[int, tuple[int, ...]] = {group.identity: identity}
    homomorphic = True
    frontier = [group.identity]
    while frontier:
        nxt = []
        for g in frontier:
            pg = act[g]
            for s, ps in zip(group.generators, gen_perms):
                h = group.mul(g, s)
                if h not in act:
                    act[h] = tuple(map(pg.__getitem__, ps))
                    nxt.append(h)
                elif homomorphic:  # act[s]: a repeated generator keeps its first row
                    homomorphic = act[h] == tuple(map(pg.__getitem__, act[s]))
        frontier = nxt
    if len(act) != group.order:
        raise ActionError("the listed generators do not generate the group")
    for i, (s, ps) in enumerate(zip(group.generators, gen_perms)):
        if act[s] != ps:
            if s == group.identity:
                raise ActionError(
                    f"generator {i} is the identity element, but its image is not trivial"
                )
            j = group.generators.index(s)
            raise ActionError(
                f"image of generator {i} differs from that of generator {j}, the same element"
            )
    return tuple(act[g] for g in range(group.order)), homomorphic


class Combination:
    """A finite integer combination of basis keys over one group.

    The Burnside ring and the ring of finite (Z x G)-sets are both free
    abelian groups on their transitive classes, so the additive structure is
    shared here.  Subclasses supply the product, the term format and
    ``mismatch_error``, the exception raised when the operands belong to
    different groups.
    """

    __slots__ = ("group", "coeffs")
    mismatch_error: type[Exception]

    def __init__(self, group: FiniteGroup, coeffs: Mapping):
        self.group = group
        self.coeffs = {key: int(c) for key, c in coeffs.items() if c}

    @classmethod
    def zero(cls, group: FiniteGroup):
        return cls(group, {})

    @classmethod
    def basis(cls, group: FiniteGroup, key):
        return cls(group, {key: 1})

    def coefficient(self, key) -> int:
        return self.coeffs.get(key, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_group(self, other: "Combination") -> None:
        if self.group is not other.group:
            raise self.mismatch_error("elements belong to different groups")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.group is other.group and self.coeffs == other.coeffs

    __hash__ = None  # mutable mapping inside

    def __add__(self, other):
        self._check_group(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return type(self)(self.group, out)

    def __neg__(self):
        return type(self)(self.group, {key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return type(self)(self.group, {key: k * c for key, c in self.coeffs.items()})

    def _signed_sum(self, keys: Iterable, term) -> str:
        """``keys`` joined with their signs; ``term(key, |c|)`` formats one."""
        out = ""
        for key in keys:
            c = self.coeffs[key]
            if out:
                out += " + " if c > 0 else " - "
            elif c < 0:
                out = "-"
            out += term(key, abs(c))
        return out or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class BurnsideElement(Combination):
    """Integer combination of subgroup-class generators [G/H]."""

    __slots__ = ()
    mismatch_error = ActionError

    def __init__(self, group: FiniteGroup, coeffs: Mapping[int, int]):
        n_classes = len(group.subgroup_classes)
        for cls in coeffs:
            if not 0 <= cls < n_classes:
                raise ActionError(f"invalid subgroup class id {cls}")
        super().__init__(group, coeffs)

    def mark_vector(self) -> tuple[int, ...]:
        """Fixed-point counts of each class representative; injective ring map."""
        marks = self.group.table_of_marks.matrix
        n = len(marks)
        out = [0] * n
        for cls, c in self.coeffs.items():
            row = marks[cls]
            for h in range(n):
                out[h] += c * row[h]
        return tuple(out)

    def __mul__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check_group(other)
        va = self.mark_vector()
        vb = other.mark_vector()
        return _from_mark_vector(self.group, [a * b for a, b in zip(va, vb)])

    def point_count(self) -> int:
        """Underlying cardinality: sum of coefficients times [G:H]."""
        classes = self.group.subgroup_classes.classes
        order = self.group.order
        return sum(c * (order // classes[cls].order) for cls, c in self.coeffs.items())

    def render(self) -> str:
        label = self.group.subgroup_label
        return self._signed_sum(
            sorted(self.coeffs, reverse=True), lambda cls, n: f"{n}*[G/{label(cls)}]"
        )


def _from_mark_vector(group: FiniteGroup, marks_vec: Sequence[int]) -> BurnsideElement:
    """Invert the mark homomorphism by back-substitution (exact)."""
    marks = group.table_of_marks.matrix
    n = len(marks)
    coeffs: dict[int, int] = {}
    residual = list(marks_vec)
    for h in range(n - 1, -1, -1):
        diag = marks[h][h]
        value = residual[h]
        if value % diag:
            raise ActionError("vector is not in the image of the mark homomorphism")
        c = value // diag
        if c:
            coeffs[h] = c
            row = marks[h]
            for j in range(n):
                residual[j] -= c * row[j]
    if any(residual):
        raise ActionError("vector is not in the image of the mark homomorphism")
    return BurnsideElement(group, coeffs)


def class_of_gset(points: GSet) -> BurnsideElement:
    """Orbit decomposition of a finite G-set in the Burnside ring."""
    return points.burnside_class()
