"""Finite G-permutations: finite G-sets with a commuting bijection.

A G-permutation is the concrete model of a finite (Z x G)-set: the integer 1
acts by sigma, the group acts through the action table, and the two commute.
``classify`` decomposes a G-permutation into canonical triples; ``realize``
builds the coset model of a triple from the rows of ``zg.coset_model_row``:

    points are pairs (k, bH) with k in Z/m and bH a coset of H in G; the
    group acts on the coset factor by left multiplication, sigma raises the
    level and twists the last step by right multiplication with a^-1.

With this convention the base point x = (0, H) satisfies a * sigma^m(x) = x,
so the triple extracted by ``classify`` matches the one realized.  No ring
operation builds a model: products read single rows (``zg``), and tables
read the fixed cosets of G/H.

Lefschetz data depend only on the class of a G-permutation, so
``lefschetz_table`` predicts them from ``classify``: the fixed cosets of G/H
and their normalizer orbits (marks after Pfeiffer, Experimental Math. 6,
1997; coset model after tom Dieck, LNM 766, 1979) are profiled once per
class and call, and each basis column picks its cosets from that profile.
The point-by-point tabulation is the test suite's oracle for this route.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .burnside import BurnsideElement, GSet, extend_action, permutation_orbits
from .errors import ActionError, EqzetaError
from .groups import FiniteGroup
from .records import Record
from .zg import TripleClass, ZGRingElement, coset_model_row, orbit_triple, triple_rep, triple_z_period


class GPermutation:
    """A finite G-set together with an equivariant bijection sigma."""

    __slots__ = ("group", "n", "act", "sigma")

    def __init__(
        self,
        group: FiniteGroup,
        n: int,
        act: Sequence[Sequence[int]],
        sigma: Sequence[int],
        *,
        validate: bool = True,
    ):
        self.group = group
        self.n = int(n)
        self.sigma = tuple(int(x) for x in sigma)
        if len(self.sigma) != self.n:
            raise ActionError(f"sigma has {len(self.sigma)} entries, expected {self.n}")
        self.act = GSet(group, self.n, act, validate=validate).act
        if validate:
            self._check_sigma()

    @classmethod
    def from_generator_images(
        cls,
        group: FiniteGroup,
        n: int,
        images: Sequence[Sequence[int]],
        sigma: Sequence[int],
    ) -> "GPermutation":
        if not group.generators and len(sigma) != n:  # no image array bounds n here
            raise ActionError(f"sigma has {len(sigma)} entries, expected {n}")
        act, homomorphic = extend_action(group, n, images)
        # extend_action checked the rows; only a broken edge needs GSet, to report it
        p = cls(group, n, act, sigma, validate=not homomorphic)
        p._check_sigma()
        return p

    def _check_sigma(self) -> None:
        if sorted(self.sigma) != list(range(self.n)):
            raise ActionError("sigma is not a bijection")
        # generators suffice: the action table is already a homomorphism
        for g in self.group.generators:
            row = self.act[g]
            for x in range(self.n):
                if row[self.sigma[x]] != self.sigma[row[x]]:
                    raise ActionError(
                        f"sigma does not commute with generator {self.group.labels[g]} "
                        f"at point {x}"
                    )

    def gset(self) -> GSet:
        return GSet(self.group, self.n, self.act, validate=False)

    def power(self, m: int) -> "GPermutation":
        """Same G-set with sigma replaced by sigma^m (m >= 0)."""
        if m < 0:
            raise EqzetaError("negative powers are not needed; sigma has finite order")
        sig = [0] * self.n
        for cycle in self._sigma_cycles():
            for i, x in enumerate(cycle):
                sig[x] = cycle[(i + m) % len(cycle)]
        return GPermutation(self.group, self.n, self.act, sig, validate=False)

    def disjoint_union(self, other: "GPermutation") -> "GPermutation":
        if self.group is not other.group:
            raise ActionError("operands belong to different groups")
        n = self.n + other.n
        act = tuple(
            tuple(row1) + tuple(x + self.n for x in row2)
            for row1, row2 in zip(self.act, other.act)
        )
        sigma = self.sigma + tuple(x + self.n for x in other.sigma)
        return GPermutation(self.group, n, act, sigma, validate=False)

    def product(self, other: "GPermutation") -> "GPermutation":
        """Cartesian product with the diagonal action and product sigma."""
        if self.group is not other.group:
            raise ActionError("operands belong to different groups")
        n2 = other.n
        act = []
        for g in range(self.group.order):
            r1, r2 = self.act[g], other.act[g]
            act.append(
                tuple(r1[x] * n2 + r2[y] for x in range(self.n) for y in range(n2))
            )
        sigma = tuple(
            self.sigma[x] * n2 + other.sigma[y]
            for x in range(self.n)
            for y in range(n2)
        )
        return GPermutation(self.group, self.n * n2, act, sigma, validate=False)

    def relabel(self, tau: Sequence[int]) -> "GPermutation":
        """Conjugate everything by a relabeling permutation of the points."""
        if sorted(tau) != list(range(self.n)):
            raise ActionError("relabeling is not a bijection")
        inv = [0] * self.n
        for i, t in enumerate(tau):
            inv[t] = i
        act = tuple(
            tuple(tau[row[inv[x]]] for x in range(self.n)) for row in self.act
        )
        sigma = tuple(tau[self.sigma[inv[x]]] for x in range(self.n))
        return GPermutation(self.group, self.n, act, sigma, validate=False)

    def _sigma_cycles(self) -> list[list[int]]:
        """The cycles of sigma, each listed from its least point in sigma order."""
        seen = [False] * self.n
        cycles = []
        for x in range(self.n):
            if seen[x]:
                continue
            cycle, y = [], x
            while not seen[y]:
                seen[y] = True
                cycle.append(y)
                y = self.sigma[y]
            cycles.append(cycle)
        return cycles

    def sigma_cycle_lengths(self) -> list[int]:
        return sorted(len(cycle) for cycle in self._sigma_cycles())

    def z_period(self) -> int:
        """lcm of the sigma cycle lengths; sigma to this power is the identity."""
        return math.lcm(*self.sigma_cycle_lengths()) if self.n else 1

    def __repr__(self) -> str:
        return f"GPermutation({self.group.name}, n={self.n})"


def validate(p: GPermutation) -> None:
    """Re-run all validation on an existing G-permutation."""
    GPermutation(p.group, p.n, p.act, p.sigma, validate=True)


def zg_orbits(p: GPermutation) -> list[list[int]]:
    """Orbits of the combined action of the group and sigma."""
    return permutation_orbits([p.sigma] + [p.act[g] for g in p.group.generators], range(p.n))


def classify(p: GPermutation) -> ZGRingElement:
    """Decompose a G-permutation into canonical triples.

    For each combined orbit: H is the stabilizer of a base point x, m the
    least k > 0 with sigma^k(x) back in the G-orbit of x, and alpha the coset
    of any a with a * sigma^m(x) = x.  The result does not depend on the base
    point; the test suite checks that explicitly.
    """
    group = p.group
    coeffs: dict[TripleClass, int] = {}
    for orbit in zg_orbits(p):
        t = _classify_orbit(p, orbit[0])
        coeffs[t] = coeffs.get(t, 0) + 1
    z = ZGRingElement(group, coeffs)
    if z.point_count() != p.n:
        raise AssertionError("classification lost points; this is a bug")
    return z


def _classify_orbit(p: GPermutation, x: int) -> TripleClass:
    return orbit_triple(p.group, range(p.group.order), p.act, p.sigma, 1, p.group.identity, x)


def realize(group: FiniteGroup, t: TripleClass) -> GPermutation:
    """Coset model of a canonical triple; classify(realize(t)) == [t].

    act[g] is the row of (0, g) and sigma the row of (1, e), both from
    ``zg.coset_model_row``.
    """
    cosets = group.left_cosets(triple_rep(group, t)[0])
    act = [coset_model_row(group, t, cosets, 0, g) for g in range(group.order)]
    sigma = coset_model_row(group, t, cosets, 1, group.identity)
    return GPermutation(group, len(sigma), act, sigma, validate=False)


def realize_element(group: FiniteGroup, z: ZGRingElement) -> GPermutation:
    """Disjoint union of realized basis triples, built in one pass; requires
    nonnegative coefficients."""
    act: list[list[int]] = [[] for _ in range(group.order)]
    sigma: list[int] = []
    for t in sorted(z.coeffs):
        c = z.coeffs[t]
        if c < 0:
            raise EqzetaError("cannot realize an element with negative coefficients")
        part = realize(group, t)
        for _ in range(c):
            offset = len(sigma)
            for row, part_row in zip(act, part.act):
                row.extend(x + offset for x in part_row)
            sigma.extend(x + offset for x in part.sigma)
    return GPermutation(group, len(sigma), act, sigma, validate=False)


def equivariant_lefschetz(g: int, p: GPermutation) -> BurnsideElement:
    """The fixed points of g∘sigma as a class in the Burnside ring.

    Raises ActionError when that fixed set is not G-invariant, which can
    happen for non-central g in a nonabelian group; in that case no honest
    G-set of fixed points exists and the caller should work with
    ``lefschetz_table`` instead.
    """
    group = p.group
    row_g = p.act[g]
    fixed = [x for x in range(p.n) if row_g[p.sigma[x]] == x]
    fixed_set = set(fixed)
    for h in group.generators:
        row = p.act[h]
        for x in fixed:
            if row[x] not in fixed_set:
                raise ActionError(
                    f"fixed set of g∘sigma is not G-invariant: generator "
                    f"{group.labels[h]} moves fixed point {x} to {row[x]}"
                )
    reindex = {x: i for i, x in enumerate(fixed)}
    act = tuple(
        tuple(reindex[p.act[e][x]] for x in fixed) for e in range(group.order)
    )
    return GSet(group, len(fixed), act, validate=False).burnside_class()


class LefschetzTable(Record):
    """Fixed-unit counts indexed by (subgroup class, m, alpha coset).

    The entry at (class of H, m, coset of a in N(H)) counts the N(H)-orbits
    of the H-fixed locus that contain a point fixed by a∘sigma^m.  For one
    transitive piece this is nonzero exactly when the subgroup of Z x G
    named by (H, m, a) is conjugate into the piece's own subgroup, which
    makes the system triangular; on abelian groups the entries agree with
    the coefficients of the honest fixed-point G-sets.

    Only nonzero entries are stored: the constructor drops zero values, so
    equal tables have equal ``entries`` and ``get`` reads a missing key as 0.
    Keys use coset representatives (least element index in each coset);
    values are constant on simultaneous conjugation of (H, a).
    """

    __slots__ = ("group", "m_max", "entries")

    def __init__(self, group: FiniteGroup, m_max: int, entries: dict | None = None) -> None:
        self.group = group
        self.m_max = m_max
        self.entries = {k: v for k, v in entries.items() if v} if entries else {}

    def _key(self) -> tuple:
        return (self.group, self.m_max, self.entries)

    def get(self, h_class: int, m: int, alpha: int) -> int:
        return self.entries.get((h_class, m, alpha), 0)

    def __add__(self, other: "LefschetzTable") -> "LefschetzTable":
        if self.group is not other.group:
            raise EqzetaError("tables belong to different groups")
        if self.m_max != other.m_max:
            raise EqzetaError("tables have different m_max")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return LefschetzTable(self.group, self.m_max, out)

    def __sub__(self, other: "LefschetzTable") -> "LefschetzTable":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "LefschetzTable":
        return LefschetzTable(
            self.group, self.m_max, {key: k * v for key, v in self.entries.items()}
        )


def coset_representatives(group: FiniteGroup, h_elems: Sequence[int]) -> list[int]:
    """Least-element representatives of the cosets of H in its normalizer."""
    return sorted({group.coset_min(h_elems, a) for a in group.normalizer(h_elems)})


def lefschetz_table(p: GPermutation, m_max: int = 0) -> LefschetzTable:
    """The Lefschetz data of all pairs (a, sigma^m), m = 1..m_max.

    The data depend only on the class of p, so the table is
    ``predicted_table(classify(p), m_max)``: basis columns read from fixed
    cosets, with no pass over the points of p or the powers of sigma.  With
    ``m_max=0`` the table covers one full period of sigma (the lcm of its
    cycle lengths), which always determines the class of p.  An explicit
    m_max must not truncate below that period.
    """
    m_max = table_m_max(p, m_max)  # before classify does any work
    return predicted_table(classify(p), m_max)


def table_m_max(p: GPermutation, m_max: int) -> int:
    """m_max, or the sigma period of p for 0; raises if it is below that period."""
    period = p.z_period()
    if m_max and m_max < period:
        raise EqzetaError(
            f"m_max={m_max} is below the sigma period {period}; the table would lose data"
        )
    return m_max or period


def _coset_profile(group: FiniteGroup, h_class: int) -> list:
    """Per element x, the (k, r, orbits) that the cosets a^q H = xH give
    every basis column over H = classes[h_class].

    A point (k, cH) of realize(t) is fixed by K when c^-1 K c lies in H, and
    N(K) moves only its coset; ``orbits`` counts the N(K)-orbits of K-fixed
    cosets holding a cH with c^-1 r c in xH.  Only classes with |K| dividing
    |H| and nonzero counts appear; the lists are shared within each coset.
    """
    h = group.subgroup_classes.classes[h_class].elements
    elem2coset, reps = group.left_cosets(h)
    per_coset: list[list] = [[] for _ in reps]
    classes = group.subgroup_classes
    for k, (rep, norm) in enumerate(zip(classes.classes, classes.normalizers)):
        if len(h) % rep.order:
            continue  # no conjugate of K lies in H
        orbits, seen = [], set()  # each orbit as the c^-1 of its cosets cH
        for i, c in enumerate(reps):  # N(K) keeps K-fixed cosets K-fixed
            if i not in seen and all(elem2coset[group.mul(x, c)] == i for x in rep.elements):
                orbit = {elem2coset[group.mul(n, c)] for n in norm}
                seen |= orbit
                orbits.append([group.inv(reps[j]) for j in orbit])
        for r in group.pair_table[k]:
            # each orbit counts once at every coset of H that its c^-1 r c meet
            met = Counter(
                j for orbit in orbits for j in {elem2coset[group.conj(ic, r)] for ic in orbit}
            )
            for j, count in met.items():
                per_coset[j].append((k, r, count))
    return [per_coset[j] for j in elem2coset]


def _column(group: FiniteGroup, t: TripleClass, profile: list):
    """(period, entries grouped by m) of the basis column of t = (H, m, a).

    r fixes sigma^(q*m)(k, cH) = (k, c a^-q H) when c^-1 r c lies in a^q H, so
    the entry at (K, q*m, r) is m times the count in ``profile[a^q]``, for
    q = 1 .. d/m with d = ``triple_z_period``; other powers move every level.
    """
    m, d = t.m, triple_z_period(group, t)
    by_m = {
        q * m: [(k, r, m * count) for k, r, count in entries]
        for q in range(1, d // m + 1) if (entries := profile[group.power(t.alpha, q)])
    }
    anchor = sum(v for k, r, v in by_m.get(m, ()) if (k, r) == (t.h_class, t.alpha))
    if anchor != m:
        raise AssertionError("basis column diagonal is off; this is a bug")
    return d, by_m


def column_entries(group: FiniteGroup, t: TripleClass, m_max: int, profiles: dict):
    """The entries (h, m, a, v) of the basis column of t at levels up to m_max.

    ``profiles`` (class id -> ``_coset_profile``) lives for one table or
    solve.  Only multiples of t.m are visited: a point of realize(t) is fixed
    by b∘sigma^m only when t.m divides m.
    """
    if t.h_class not in profiles:
        profiles[t.h_class] = _coset_profile(group, t.h_class)
    d, by_m = _column(group, t, profiles[t.h_class])
    for m in range(t.m, m_max + 1, t.m):
        for h, a, v in by_m.get((m - 1) % d + 1, ()):
            yield h, m, a, v


def predicted_table(z: ZGRingElement, m_max: int) -> LefschetzTable:
    """The Lefschetz table a virtual element would produce."""
    group = z.group
    entries: dict = {}
    profiles: dict = {}
    for t, k in z.coeffs.items():
        for h, m, a, v in column_entries(group, t, m_max, profiles):
            entries[(h, m, a)] = entries.get((h, m, a), 0) + k * v
    return LefschetzTable(group, m_max, entries)
