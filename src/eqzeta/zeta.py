"""Zeta-function constructors.

``zeta_from_lefschetz`` recovers the unique finite-support virtual
(Z x G)-permutation whose Lefschetz data matches a table.  The system is
triangular: the table column of one transitive class is supported on that
class's own anchor entry (value m) plus entries whose named subgroup is
conjugate into a strictly larger one, so walking candidate triples by
increasing index m*[G:H] and subtracting basis columns solves it with
exact integer arithmetic.  Columns come from ``gperm`` (which owns
``predicted_table``, re-exported here), one coset profile per class per solve.
The walk visits only nonzero residual entries: a heap ordered by (index,
triple) holds the entries at canonical pairs, and each column subtraction
pushes the entries it touches, so the work follows the nonzeros of the
table rather than m_max.  Any leftover residue or failed division means the
table is not the data of any element, and is reported with the offending
entry.

``classical_from_lefschetz`` is the non-equivariant special case: divisor
recursion L(phi^m) = sum_{i|m} r_i with r_m = m * s_m.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EqzetaError, StratumError, TableError
from .gperm import GPermutation, LefschetzTable, _column_entries, predicted_table
from .groups import FiniteGroup, Subgroup
from .zg import ClassicalZeta, TripleClass, ZGRingElement, canonical_triple, triple_index


def zeta_from_lefschetz(table: LefschetzTable) -> ZGRingElement:
    """Solve the triangular Lefschetz system for the unique element.

    With ``m_max == 0`` the truncation is derived from the data (largest m
    carrying an entry); the residue check still runs, so inconsistent or
    truncated tables are rejected rather than silently accepted.
    """
    group = table.group
    m_max = table.m_max or max((k[1] for k in table.entries), default=0)
    pairs = {(k, alpha) for k, alphas in enumerate(group.pair_table) for alpha in alphas.values()}
    residual = dict(table.entries)
    heap: list = []

    def push(key) -> None:
        h, m, a = key
        if (h, a) in pairs and 1 <= m <= m_max:
            t = TripleClass(h, m, a)
            heapq.heappush(heap, (triple_index(group, t), t))

    for key in residual:
        push(key)
    coeffs: dict[TripleClass, int] = {}
    profiles: dict = {}
    while heap:
        t = heapq.heappop(heap)[1]
        value = residual[(t.h_class, t.m, t.alpha)]
        if value == 0:
            continue
        k, rem = divmod(value, t.m)
        if rem:
            raise TableError(
                f"no integer solution: entry (H class {t.h_class}, m={t.m}, "
                f"a={group.labels[t.alpha]}) leaves remainder {rem} of {t.m}"
            )
        coeffs[t] = k
        for h, m, a, v in _column_entries(group, t, m_max, profiles):
            key = (h, m, a)
            if key not in residual:
                residual[key] = 0
                push(key)
            residual[key] -= k * v
    for key in sorted(residual):
        if residual[key]:
            h, m, a = key
            raise TableError(
                f"inconsistent table: residue {residual[key]} left at "
                f"(H class {h}, m={m}, a={group.labels[a]})"
            )
    return ZGRingElement(group, coeffs)


def classical_lefschetz_numbers(p: GPermutation, m_max: int = 0) -> list[int]:
    """Plain fixed-point counts of sigma^m for m = 1..m_max (period if 0)."""
    if m_max == 0:
        m_max = p.z_period()
    # sigma^m fixes exactly the points on cycles whose length divides m
    lengths = p.sigma_cycle_lengths()
    return [sum(n for n in lengths if m % n == 0) for m in range(1, m_max + 1)]


def classical_from_lefschetz(numbers: Sequence[int]) -> ClassicalZeta:
    """Recover prod (1-t^m)^{s_m} from Lefschetz numbers of the powers.

    The recursion L(phi^m) = sum over divisors i of m of r_i defines r; each
    r_m counts points on orbits of exact order m and so must be divisible by
    m.  A failed division identifies the first non-realizable index.
    """
    if not numbers:
        raise TableError("need at least one Lefschetz number")
    r: dict[int, int] = {}
    exps: dict[int, int] = {}
    for m, value in enumerate(numbers, start=1):
        rm = value - sum(r[i] for i in r if m % i == 0)
        if rm % m:
            raise TableError(
                f"sequence is not realizable: r_{m} = {rm} is not divisible by {m}"
            )
        r[m] = rm
        if rm:
            exps[m] = rm // m
    return ClassicalZeta.from_exponents(exps)


def elementary_zeta(
    group: FiniteGroup,
    chi_quotient: int,
    m0: int,
    subgroup: Subgroup | Iterable[int],
    g0: int,
) -> ZGRingElement:
    """Zeta of a map that shifts every orbit for m0 steps and then closes up.

    Applies when all isotropy groups lie in one class, no G-orbit returns to
    itself before step m0, and g0 composed with the m0-th power is the
    identity; the value is chi(X/G)/m0 times the class of (H, m0, g0).
    """
    if m0 < 1:
        raise EqzetaError(f"m0 must be positive, got {m0}")
    if chi_quotient % m0:
        raise EqzetaError(
            f"chi(X/G) = {chi_quotient} is not divisible by m0 = {m0}; "
            "no such map exists on a genuine model"
        )
    t = canonical_triple(group, subgroup, m0, g0)
    return ZGRingElement(group, {t: chi_quotient // m0})


def sebastiani_thom(z1: ZGRingElement, z2: ZGRingElement) -> ZGRingElement:
    """Zeta of a sum of germs on disjoint variables: z1 + z2 - z1*z2."""
    return z1 + z2 - z1 * z2


@dataclass(frozen=True)
class StratumRecord:
    """Per-stratum input for the exceptional-divisor formula.

    ``chi`` is the Euler characteristic of the stratum, ``m`` the multiplicity
    along it, ``n`` the order of the cyclic isotropy quotient acting on the
    normal direction, ``subgroup`` the kernel of that action and ``alpha`` a
    representative of the distinguished generator.  The orientation of alpha
    follows the convention that its inverse acts on the normal fibre as the
    standard primitive n-th root of unity; the library cannot verify that
    geometric choice and trusts the record.
    """

    chi: int
    m: int
    n: int
    subgroup: tuple[int, ...]
    alpha: int

    def validate(self, group: FiniteGroup) -> None:
        if self.m < 1 or self.n < 1:
            raise StratumError(f"multiplicities must be positive, got m={self.m}, n={self.n}")
        if self.m % self.n:
            raise StratumError(f"n={self.n} does not divide the multiplicity m={self.m}")
        h = tuple(sorted(self.subgroup))
        if len(set(h)) != len(h) or not group.is_subgroup(h):  # is_subgroup ignores repeats
            raise StratumError(f"{h} is not a subgroup")
        if self.alpha not in group.normalizer(h):
            raise StratumError(f"alpha={self.alpha} does not normalize the kernel {h}")
        if group.coset_order(h, self.alpha) != self.n:
            raise StratumError(
                f"the coset of alpha={self.alpha} has order "
                f"{group.coset_order(h, self.alpha)}, expected n={self.n}"
            )


def acampo(group: FiniteGroup, strata: Sequence[StratumRecord]) -> ZGRingElement:
    """Sum chi(stratum) * [(ZxG)/(H, m/n, alpha)] over the strata."""
    out = ZGRingElement.zero(group)
    for record in strata:
        record.validate(group)
        t = canonical_triple(group, record.subgroup, record.m // record.n, record.alpha)
        out = out + ZGRingElement(group, {t: record.chi})
    return out
