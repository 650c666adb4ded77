"""The Grothendieck ring of finite G-permutations in the triple basis.

A finite-index subgroup of Z x G is described by a triple (H, m, alpha):
H a subgroup of G, m a positive integer, alpha a coset of H in its
normalizer.  The subgroup is generated by {0} x H together with (m, a) for
any representative a of alpha.  Two triples give conjugate subgroups exactly
when they have the same m and the pairs (H, alpha) are simultaneously
conjugate in G; ``canonical_triple`` reduces to the lexicographically least
such pair, read from ``FiniteGroup.pair_table``, so triples can be hashed
and compared.

The coset model of a triple has the points (k, cH) with k in Z/m;
``coset_model_row`` gives the action of one element (j, b) of Z x G on it,
and ``gperm.realize`` assembles the whole model from those rows.

The product of two basis triples is the class of the Cartesian product of
their coset models.  It is computed by the Mackey double-coset route: the
stabilizer of the base point of the first model acts on the second, and
each of its orbits names one orbit of the product.  As (1, e) is central
in Z x G, its orbits on level 0 of the second model stand for all levels,
so only |H1| + 1 rows on G/H2 are read: no level but one is built.

``ClassicalZeta`` is the image ring: rational functions of the shape
prod (1 - t^m)^{s_m}, stored as the finite exponent mapping m -> s_m and
never expanded into polynomial coefficients.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Iterable, Mapping, Sequence

from .burnside import Combination, permutation_orbits
from .errors import EqzetaError, GroupError
from .groups import FiniteGroup, Subgroup
from .records import FrozenRecord


@total_ordering
class TripleClass(FrozenRecord):
    """Canonical triple (H, m, alpha) naming a conjugacy class of
    finite-index subgroups of Z x G.

    ``h_class`` is a subgroup class id, ``alpha`` the least element index in
    its coset orbit under simultaneous conjugation.  Instances are only
    meaningful together with the group they were canonicalized for.
    """

    __slots__ = ("h_class", "m", "alpha")

    def __init__(self, h_class: int, m: int, alpha: int) -> None:
        object.__setattr__(self, "h_class", h_class)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alpha", alpha)

    def _key(self) -> tuple:
        return (self.h_class, self.m, self.alpha)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() < other._key()
        return NotImplemented


def canonical_pair(group: FiniteGroup, h_elems: Sequence[int], a: int) -> tuple[int, int]:
    """Canonicalize (H, a*H) under simultaneous conjugation.

    Returns (class id of H, least alpha index).  ``a`` must normalize H.
    With H = c K c^-1 for the class representative K, (H, aH) is conjugate to
    (K, bK) for b = c^-1 a c, and ``group.pair_table`` holds bK's alpha.
    """
    h = tuple(sorted(h_elems))
    h_class, c = group.class_conjugator(h)
    if 0 <= a < group.order:
        rep = group.subgroup_classes.classes[h_class].elements
        b = group.conj(group.inv(c), a)
        alpha = group.pair_table[h_class].get(group.coset_min(rep, b))
        if alpha is not None:
            return h_class, alpha
    raise GroupError(f"element {a} does not normalize the subgroup {h}")


def canonical_triple(
    group: FiniteGroup, subgroup: Subgroup | Iterable[int], m: int, a: int
) -> TripleClass:
    """Canonical representative of the triple (H, m, a)."""
    if m < 1:
        raise EqzetaError(f"triple period must be positive, got {m}")
    elems = subgroup.elements if isinstance(subgroup, Subgroup) else tuple(subgroup)
    h_class, alpha = canonical_pair(group, elems, a)
    return TripleClass(h_class=h_class, m=int(m), alpha=alpha)


def triple_rep(group: FiniteGroup, t: TripleClass) -> tuple[tuple[int, ...], int, int]:
    """(H elements, m, alpha representative) for a canonical triple."""
    rep = group.subgroup_classes.classes[t.h_class]
    return rep.elements, t.m, t.alpha


def triple_index(group: FiniteGroup, t: TripleClass) -> int:
    """Index of the subgroup named by t in Z x G, i.e. m * [G:H]."""
    h_order = group.subgroup_classes.classes[t.h_class].order
    return t.m * (group.order // h_order)


def triple_z_period(group: FiniteGroup, t: TripleClass) -> int:
    """Least d with (d, e) in the subgroup: m times the coset order of alpha."""
    h = group.subgroup_classes.classes[t.h_class].elements
    return t.m * group.coset_order(h, t.alpha)


def zg_contains(group: FiniteGroup, inner: TripleClass, outer: TripleClass) -> bool:
    """Whether the subgroup named by ``inner`` is conjugate into the one
    named by ``outer``.

    Decided by the algebraic criterion: some c in G conjugates H' into H
    with m | m' and c^-1 a' c lying in the coset a^(m'/m) H.  The criterion
    is validated against brute-force containment in the finite quotient
    (Z/M) x G by the test suite before anything relies on it.
    """
    if inner.m % outer.m:
        return False
    h_in, m_in, a_in = triple_rep(group, inner)
    h_out, m_out, a_out = triple_rep(group, outer)
    if len(h_in) > len(h_out):
        return False
    j = m_in // m_out
    h_out_set = set(h_out)
    target = {group.mul(group.power(a_out, j), h) for h in h_out}
    for c in range(group.order):
        ic = group.inv(c)
        if group.conj(ic, a_in) not in target:
            continue
        if all(group.conj(ic, x) in h_out_set for x in h_in):
            return True
    return False


def zg_contains_bruteforce(
    group: FiniteGroup, inner: TripleClass, outer: TripleClass
) -> bool:
    """Oracle for ``zg_contains``: subgroup containment inside (Z/M) x G."""
    m_quot = math.lcm(triple_z_period(group, inner), triple_z_period(group, outer))
    inner_elems = _quotient_subgroup(group, inner, m_quot)
    outer_elems = _quotient_subgroup(group, outer, m_quot)
    for c in range(group.order):
        ic = group.inv(c)
        if all((k, group.conj(ic, x)) in outer_elems for (k, x) in inner_elems):
            return True
    return False


def _quotient_subgroup(group: FiniteGroup, t: TripleClass, m_quot: int) -> frozenset:
    h, m, a = triple_rep(group, t)
    elems = set()
    power = group.identity
    j = 0
    while True:
        k = (j * m) % m_quot
        cand = {(k, group.mul(power, x)) for x in h}
        if j and cand <= elems:
            break
        elems |= cand
        j += 1
        power = group.mul(power, a)
    return frozenset(elems)


class ZGRingElement(Combination):
    """Finite integer combination of canonical triples."""

    __slots__ = ()
    mismatch_error = EqzetaError

    @classmethod
    def one(cls, group: FiniteGroup) -> "ZGRingElement":
        """The class of a single fixed point, (G, 1, e)."""
        t = canonical_triple(group, tuple(range(group.order)), 1, group.identity)
        return cls.basis(group, t)

    def __mul__(self, other: "ZGRingElement") -> "ZGRingElement":
        """Cartesian product with the diagonal action, extended bilinearly.

        Basis products follow the Mackey route of ``_mackey_product``: the
        K1-orbits on one level of the coset model of t2, [G:H2] * (|H1| + 1)
        steps instead of the |X1| * |X2| * |G| of building the product.  The
        test suite keeps two routes as oracles: classifying the product of
        two models built level by level, and the K1-orbits on every level.
        """
        self._check_group(other)
        out: dict[TripleClass, int] = {}
        for t1, c1 in self.coeffs.items():
            for t2, c2 in other.coeffs.items():
                for t, c in _basis_product(self.group, t1, t2).items():
                    out[t] = out.get(t, 0) + c1 * c2 * c
        return ZGRingElement(self.group, out)

    def point_count(self) -> int:
        return sum(c * triple_index(self.group, t) for t, c in self.coeffs.items())

    def forget_to_classical(self) -> "ClassicalZeta":
        """Forget the G-structure, keeping only Z-orbit data.

        A triple (H, m, alpha) realizes to [G:H]/w disjoint cycles of length
        m*w where w is the order of alpha's coset; the test suite validates
        this closed form against direct orbit decomposition of the realized
        permutation.
        """
        group = self.group
        exps: dict[int, int] = {}
        for t, c in self.coeffs.items():
            h = group.subgroup_classes.classes[t.h_class]
            w = group.coset_order(h.elements, t.alpha)
            m = t.m * w
            s = c * ((group.order // h.order) // w)
            exps[m] = exps.get(m, 0) + s
        return ClassicalZeta.from_exponents(exps)

    def render(self) -> str:
        group = self.group
        return self._signed_sum(
            sorted(self.coeffs),
            lambda t, n: f"{n} * [ZxG / (H={group.subgroup_label(t.h_class)}, "
            f"m={t.m}, a={group.labels[t.alpha]})]",
        )


def _basis_product(group: FiniteGroup, t1: TripleClass, t2: TripleClass) -> dict:
    return _mackey_product(group, *sorted((t1, t2)))


def _mackey_product(group: FiniteGroup, t1: TripleClass, t2: TripleClass) -> dict:
    """[X1 x X2] for the coset models X1, X2 of t1, t2, without building either.

    K1 = {(j*m1, a1^j h) : h in H1} is the stabilizer of the base point x0
    of X1, so the orbits of X1 x X2 are those of the points (x0, y), one per
    K1-orbit of y in X2, with stabilizer K1 n Stab(y) (Mackey).  K1 moves
    levels by multiples of g = gcd(m1, m2), and (1, e) is central, so the
    orbits on each level class mod g repeat those on level 0.  Level 0 is
    kept by {0} x H1 and (L, b), L = lcm(m1, m2), b = a1^(L/m1), which sends
    cH2 to b c a2^(-L/m2) H2; ``orbit_triple`` names the orbits of their rows.
    """
    h1, m1, a1 = triple_rep(group, t1)
    h2, m2, a2 = triple_rep(group, t2)
    g, lcm = math.gcd(m1, m2), math.lcm(m1, m2)
    b = group.power(a1, lcm // m1)
    elem2coset, reps = group.left_cosets(h2)
    twist = group.power(a2, -(lcm // m2))
    h1_rows = [tuple(elem2coset[group.mul(h, c)] for c in reps) for h in h1]
    step = tuple(elem2coset[group.mul(group.mul(b, c), twist)] for c in reps)
    out: dict[TripleClass, int] = {}
    points = 0
    for orbit in permutation_orbits(h1_rows + [step], range(len(step))):
        t = orbit_triple(group, h1, h1_rows, step, lcm, b, orbit[0])
        out[t] = out.get(t, 0) + g
        points += g * triple_index(group, t)
    if points != triple_index(group, t1) * triple_index(group, t2):
        raise AssertionError("the Mackey product lost points; this is a bug")
    return out


def coset_model_row(
    group: FiniteGroup,
    t: TripleClass,
    cosets: tuple[Sequence[int], Sequence[int]],
    j: int,
    b: int,
) -> tuple[int, ...]:
    """The action of (j, b) in Z x G on the coset model of t = (H, m, a).

    The model has the points (k, cH), k in Z/m, numbered k*[G:H] + i for the
    i-th coset of ``cosets`` = ``group.left_cosets(H)``.  (j, b) sends (k, cH)
    to ((k + j) mod m, b c a^-w H) with w = (k + j) // m: b acts on the
    coset by left multiplication, and each wrap of the level twists it by
    right multiplication with a^-1.  The base point (0, H) is then fixed by
    (m, a), so the stabilizer is the subgroup t names.
    """
    elem2coset, reps = cosets
    m, ia = t.m, group.inv(t.alpha)
    row: list[int] = []
    for k in range(m):
        aw = group.power(ia, (k + j) // m)
        offset = (k + j) % m * len(reps)
        row.extend(offset + elem2coset[group.mul(group.mul(b, c), aw)] for c in reps)
    return tuple(row)


def orbit_triple(
    group: FiniteGroup,
    h: Sequence[int],
    h_rows: Sequence[Sequence[int]],
    step: Sequence[int],
    m: int,
    a: int,
    y: int,
) -> TripleClass:
    """Canonical triple of the stabilizer of y in K = <{0} x H, (m, a)>.

    K acts through ``h_rows`` (the action of the elements ``h`` of H) and
    ``step`` (the action of (m, a)).  The stabilizer is (H n Stab(y), j*m,
    h'^-1 a^j) for the least j >= 1 with z = step^j(y) in the H-orbit of y
    and an h' in H with h' y = z.  The elements h a^j with h in H and
    h z = y, which fix y at level j*m, form one coset of H n Stab(y), so
    the triple does not depend on the choice of h'.
    """
    stab = []
    back = {}  # z in the H-orbit of y -> an element of H taking y to z
    for hh, row in zip(h, h_rows):
        z = row[y]
        if z == y:
            stab.append(hh)
        back.setdefault(z, hh)
    z, a_j, j = step[y], a, 1
    while z not in back:
        if j == len(step):  # a permutation returns to y by then
            raise AssertionError(f"step is not a permutation: the walk from {y} never returns")
        z, a_j, j = step[z], group.mul(a_j, a), j + 1
    return canonical_triple(group, stab, j * m, group.mul(group.inv(back[z]), a_j))


class ClassicalZeta(FrozenRecord):
    """A rational function prod (1 - t^m)^{s_m} with finite support.

    ``factors`` holds (m, s_m) pairs sorted by m with all s_m nonzero.  The
    ring operation induced by disjoint union is multiplication of these
    functions, i.e. exponentwise addition.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...] = ()) -> None:
        object.__setattr__(self, "factors", factors)

    def _key(self) -> tuple:
        return (self.factors,)

    @classmethod
    def from_exponents(cls, exps: Mapping[int, int]) -> "ClassicalZeta":
        for m in exps:
            if m < 1:
                raise EqzetaError(f"factor index must be positive, got {m}")
        return cls(tuple(sorted((m, s) for m, s in exps.items() if s)))

    @classmethod
    def one(cls) -> "ClassicalZeta":
        return cls(())

    def __mul__(self, other: "ClassicalZeta") -> "ClassicalZeta":
        out = dict(self.factors)
        for m, s in other.factors:
            out[m] = out.get(m, 0) + s
        return ClassicalZeta.from_exponents(out)

    def inverse(self) -> "ClassicalZeta":
        return ClassicalZeta(tuple((m, -s) for m, s in self.factors))

    def degree(self) -> int:
        """Sum of m * s_m; the Euler characteristic of whatever was forgotten."""
        return sum(m * s for m, s in self.factors)

    def render(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for m, s in self.factors:
            base = "(1-t)" if m == 1 else f"(1-t^{m})"
            parts.append(base if s == 1 else f"{base}^{s}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"ClassicalZeta({self.render()})"
