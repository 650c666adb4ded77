"""The Grothendieck ring of finite G-permutations in the triple basis.

A finite-index subgroup of Z x G is described by a triple (H, m, alpha):
H a subgroup of G, m a positive integer, alpha a coset of H in its
normalizer.  The subgroup is generated by {0} x H together with (m, a) for
any representative a of alpha.  Two triples give conjugate subgroups exactly
when they have the same m and the pairs (H, alpha) are simultaneously
conjugate in G; ``canonical_triple`` reduces to the lexicographically least
such pair, read from ``FiniteGroup.pair_table``, so triples can be hashed
and compared.

``ClassicalZeta`` is the image ring: rational functions of the shape
prod (1 - t^m)^{s_m}, stored as the finite exponent mapping m -> s_m and
never expanded into polynomial coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EqzetaError, GroupError
from .groups import FiniteGroup, Subgroup


@dataclass(frozen=True, order=True)
class TripleClass:
    """Canonical triple (H, m, alpha) naming a conjugacy class of
    finite-index subgroups of Z x G.

    ``h_class`` is a subgroup class id, ``alpha`` the least element index in
    its coset orbit under simultaneous conjugation.  Instances are only
    meaningful together with the group they were canonicalized for.
    """

    h_class: int
    m: int
    alpha: int


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


class ZGRingElement:
    """Finite integer combination of canonical triples."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: Mapping[TripleClass, int]):
        self.group = group
        self.coeffs = {t: int(c) for t, c in coeffs.items() if c}

    @classmethod
    def zero(cls, group: FiniteGroup) -> "ZGRingElement":
        return cls(group, {})

    @classmethod
    def basis(cls, group: FiniteGroup, t: TripleClass) -> "ZGRingElement":
        return cls(group, {t: 1})

    @classmethod
    def one(cls, group: FiniteGroup) -> "ZGRingElement":
        """The class of a single fixed point, (G, 1, e)."""
        t = canonical_triple(group, tuple(range(group.order)), 1, group.identity)
        return cls.basis(group, t)

    def coefficient(self, t: TripleClass) -> int:
        return self.coeffs.get(t, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_group(self, other: "ZGRingElement") -> None:
        if self.group is not other.group:
            raise EqzetaError("elements belong to different groups")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZGRingElement):
            return NotImplemented
        return self.group is other.group and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "ZGRingElement") -> "ZGRingElement":
        self._check_group(other)
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, 0) + c
        return ZGRingElement(self.group, out)

    def __neg__(self) -> "ZGRingElement":
        return ZGRingElement(self.group, {t: -c for t, c in self.coeffs.items()})

    def __sub__(self, other: "ZGRingElement") -> "ZGRingElement":
        return self + (-other)

    def __rmul__(self, k: int) -> "ZGRingElement":
        if not isinstance(k, int):
            return NotImplemented
        return ZGRingElement(self.group, {t: k * c for t, c in self.coeffs.items()})

    def __mul__(self, other: "ZGRingElement") -> "ZGRingElement":
        """Cartesian product with the diagonal action, extended bilinearly.

        Basis products are computed by realizing both triples, forming the
        product permutation and classifying the result; there is no closed
        product formula to trust instead, and the realized models stay tiny.
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
        if not self.coeffs:
            return "0"
        group = self.group
        out = ""
        for i, t in enumerate(sorted(self.coeffs)):
            c = self.coeffs[t]
            h_label = group.subgroup_label(t.h_class)
            a_label = group.labels[t.alpha]
            term = f"{abs(c)} * [ZxG / (H={h_label}, m={t.m}, a={a_label})]"
            if i == 0:
                out = term if c > 0 else "-" + term
            else:
                out += (" + " if c > 0 else " - ") + term
        return out

    def __repr__(self) -> str:
        return f"ZGRingElement({self.render()})"


def _basis_product(group: FiniteGroup, t1: TripleClass, t2: TripleClass) -> dict:
    key = tuple(sorted((t1, t2)))
    cached = group._basis_product_cache.get(key)
    if cached is None:
        from .gperm import classify, realize  # deferred: gperm imports this module

        p = realize(group, t1).product(realize(group, t2))
        cached = classify(p).coeffs
        group._basis_product_cache[key] = cached
    return cached


def zg_add(a: ZGRingElement, b: ZGRingElement) -> ZGRingElement:
    return a + b


def zg_neg(a: ZGRingElement) -> ZGRingElement:
    return -a


def zg_mul(a: ZGRingElement, b: ZGRingElement) -> ZGRingElement:
    return a * b


@dataclass(frozen=True)
class ClassicalZeta:
    """A rational function prod (1 - t^m)^{s_m} with finite support.

    ``factors`` holds (m, s_m) pairs sorted by m with all s_m nonzero.  The
    ring operation induced by disjoint union is multiplication of these
    functions, i.e. exponentwise addition.
    """

    factors: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_exponents(cls, exps: Mapping[int, int]) -> "ClassicalZeta":
        for m in exps:
            if m < 1:
                raise EqzetaError(f"factor index must be positive, got {m}")
        return cls(tuple(sorted((m, s) for m, s in exps.items() if s)))

    @classmethod
    def one(cls) -> "ClassicalZeta":
        return cls(())

    def exponents(self) -> dict[int, int]:
        return dict(self.factors)

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


def forget_to_classical(z: ZGRingElement) -> ClassicalZeta:
    return z.forget_to_classical()


def degree(c: ClassicalZeta) -> int:
    return c.degree()
