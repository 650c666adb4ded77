"""Finite groups as explicit multiplication tables, and their builders.

Elements are dense indices ``0..order-1`` and all group data is precomputed
tables; the groups of interest are tiny, so exactness and simplicity win over
cleverness.  Composition is "left acts last": for permutation-built groups
``mul(a, b)`` is the permutation ``x -> a(b(x))``.

The builders take Python values and raise GroupError for mathematical faults
only.  Group descriptions are parsed in ``documents``, whose ``build_group``
also resolves here.

Canonical element orders (fixed so that documents are reproducible):

* cyclic ``n``: element ``i`` is the ``i``-th power of the generator,
* dihedral ``n`` (order ``2n``): indices ``0..n-1`` are rotations ``r^i``,
  ``n+i`` is ``r^i s``,
* symmetric ``n``: all one-line permutation tuples in lexicographic order,
* products: pairs ``(x, y)`` packed as ``x * |G2| + y``,
* permutation generators: breadth-first closure from the identity,
  right-multiplying by the generators in the order given.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from . import _forward
from .errors import GroupError
from .records import FrozenRecord

DEFAULT_ORDER_BOUND = 5040

# build_group is read from documents on first use (PEP 562)
__getattr__ = _forward(globals(), {"build_group": "documents"})


class Subgroup(FrozenRecord):
    """A subgroup given by its sorted element indices."""

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]) -> None:
        object.__setattr__(self, "elements", elements)

    def _key(self) -> tuple:
        return (self.elements,)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self.elements


class SubgroupClassTable(FrozenRecord):
    """Conjugacy classes of subgroups with canonical representatives.

    Classes are sorted by (order, element tuple); every representative is the
    lexicographically least sorted element set within its class, so class ids
    are stable across runs.  ``class_sizes[k]`` is the size of the conjugate
    orbit of ``classes[k]`` and ``normalizers[k]`` its sorted normalizer.

    The table also holds every subgroup with its class id and conjugator, from
    which the table of marks is counted on first read.  ``subconjugacy[i][j]``
    is derived from the marks then: it is true when some conjugate of
    ``classes[i]`` is contained in ``classes[j]``, that is when the mark of
    ``classes[i]`` on G/``classes[j]`` is positive.  Neither takes part in
    equality or repr.
    """

    # the cached properties live in __dict__
    __slots__ = ("classes", "class_sizes", "normalizers", "_conjugator", "__dict__")

    def __init__(
        self,
        classes: tuple[Subgroup, ...],
        class_sizes: tuple[int, ...],
        normalizers: tuple[tuple[int, ...], ...],
        # every subgroup -> (class id, c) with subgroup = c classes[k] c^-1
        _conjugator: Mapping[tuple[int, ...], tuple[int, int]],
    ) -> None:
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_sizes", class_sizes)
        object.__setattr__(self, "normalizers", normalizers)
        object.__setattr__(self, "_conjugator", _conjugator)

    def _key(self) -> tuple:
        return (self.classes, self.class_sizes, self.normalizers)

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def _marks(self) -> TableOfMarks:
        n = len(self.classes)
        containing = [0] * len(self.normalizers[-1])  # the last class is G
        class_of = []  # bit i -> class id of subgroup i
        for i, (h, (k, _)) in enumerate(self._conjugator.items()):
            class_of.append(k)
            bit = 1 << i
            for x in h:
                containing[x] |= bit
        index = [len(norm) // rep.order for norm, rep in zip(self.normalizers, self.classes)]
        rows = [[0] * n for _ in range(n)]
        for h, rep in enumerate(self.classes):
            sup = -1
            for x in rep.elements:
                sup &= containing[x]
            while sup:  # one step per subgroup containing H
                low = sup & -sup
                k = class_of[low.bit_length() - 1]
                rows[k][h] += index[k]
                sup ^= low
        for k, row in enumerate(rows):  # each list is freed as its tuple is made
            rows[k] = tuple(row)
        return TableOfMarks(tuple(rows))

    @cached_property
    def subconjugacy(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(v > 0 for v in column) for column in zip(*self._marks.matrix))


class TableOfMarks(FrozenRecord):
    """Matrix of fixed-coset counts.

    ``matrix[k][h]`` is the number of cosets in G/K fixed by H, for the class
    representatives K = classes[k], H = classes[h].  A coset aK is fixed by H
    exactly when H is contained in the conjugate aKa^-1, and each conjugate
    arises from |N(K)| elements a, so with orbit(K) the conjugates of K::

        matrix[k][h] = [N(K):K] * #{K' in orbit(K) : H <= K'}

    (Pfeiffer 1997).  The count runs on bitmasks over all subgroups: the
    AND over x in H of the mask of subgroups containing x is sup(H), with
    one bit per subgroup K' >= H, and each such bit adds [N(K):K] to
    matrix[k][h] for the class k of K'.  Lower triangular in the canonical
    class order, with positive diagonal [N(K):K] and first column [G:K].
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "matrix", matrix)

    def _key(self) -> tuple:
        return (self.matrix,)


def _check_order(order: int, order_bound: int) -> None:
    if order > order_bound:
        raise GroupError(f"group order {order} exceeds the bound {order_bound}")


def _is_prime_power(n: int) -> bool:
    """n = p^k, k >= 1, for the least prime p dividing n: n divides p^n."""
    return n > 1 and pow(next(d for d in range(2, n + 1) if n % d == 0), n, n) == 0


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    # (p o q)(x) = p[q[x]]
    return tuple(p[x] for x in q)


class FiniteGroup:
    """A finite group defined by an explicit multiplication table.

    The multiplication table, identity, inverses and generators are fixed at
    construction.  Derived data (the subgroup lattice, classes with their
    normalizers, marks and pair table) is computed on first read and cached
    on the instance, so reads write to it: an instance is not safe to share
    between threads without a lock.
    """

    def __init__(
        self,
        mul_table: Sequence[Sequence[int]],
        *,
        name: str = "G",
        labels: Sequence[str] | None = None,
        generators: Sequence[int] | None = None,
        validate: bool = True,
        order_bound: int = DEFAULT_ORDER_BOUND,
    ):
        n = len(mul_table)
        if n == 0:
            raise GroupError("a group needs at least one element")
        _check_order(n, order_bound)
        rows = []
        for i, row in enumerate(mul_table):
            r = tuple(int(x) for x in row)
            if len(r) != n:
                raise GroupError(f"multiplication table row {i} has length {len(r)}, expected {n}")
            for x in r:
                if not 0 <= x < n:
                    raise GroupError(f"multiplication table entry {x} out of range 0..{n - 1}")
            rows.append(r)
        self.order = n
        self._mul = tuple(rows)
        self.name = name

        identity = None
        for e in range(n):
            if all(self._mul[e][x] == x and self._mul[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise GroupError("multiplication table has no two-sided identity")
        self.identity = identity

        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if self._mul[a][b] == identity and self._mul[b][a] == identity:
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise GroupError(f"element {a} has no two-sided inverse")
        self._inv = tuple(inv)

        if generators is None:
            generators = [g for g in range(n) if g != identity]
        for g in generators:
            if not 0 <= g < n:
                raise GroupError(f"generator index {g} out of range")
        self.generators = tuple(int(g) for g in generators)
        if len(self.closure(self.generators)) != n:
            raise GroupError("the listed generators do not generate the group")

        if validate:
            # Light's test: the b with (a b) c = a (b c) for all a, c are closed
            # under products, and the closure above reached every element as
            # a left-normed product of generators, so generators b suffice
            mul = self._mul
            for a in range(n):
                row_a = mul[a]
                for b in self.generators:
                    row_ab = mul[row_a[b]]
                    row_b = mul[b]
                    for c in range(n):
                        if row_ab[c] != row_a[row_b[c]]:
                            raise GroupError(
                                f"multiplication table is not associative at ({a},{b},{c})"
                            )

        if labels is None:
            labels = ["e" if i == identity else f"g{i}" for i in range(n)]
        elif len(labels) != n:
            raise GroupError("labels length does not match group order")
        self.labels = tuple(str(x) for x in labels)

    def is_same_as(self, other: "FiniteGroup") -> bool:
        """Same multiplication table and generators, hence the same subgroup
        class ids and canonical triples."""
        return (self._mul, self.generators) == (other._mul, other.generators)

    # -- elementary operations -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, h: int) -> int:
        """a h a^-1."""
        return self._mul[self._mul[a][h]][self._inv[a]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self._inv[a], -k
        out = self.identity
        while k:
            if k & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        out, k = a, 1
        while out != self.identity:
            out = self._mul[out][a]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    # -- subgroup machinery ----------------------------------------------

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Subgroup generated by the seed elements.

        Breadth-first search from the identity, right-multiplying by the seed
        elements: O(|K| * #seed) table lookups.  In a finite group the
        monoid the seed generates is already a group.
        """
        gens = tuple(seed)
        found = {self.identity}
        queue = [self.identity]
        for x in queue:
            row = self._mul[x]
            for g in gens:
                y = row[g]
                if y not in found:
                    found.add(y)
                    queue.append(y)
        return tuple(sorted(found))

    def is_subgroup(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        if self.identity not in s:
            return False
        return all(self._mul[a][b] in s for a in s for b in s)

    def conjugate_subgroup(self, a: int, elems: Sequence[int]) -> tuple[int, ...]:
        row, ia = self._mul[a], self._inv[a]
        return tuple(sorted(self._mul[row[h]][ia] for h in elems))

    @cached_property
    def all_subgroups(self) -> tuple[tuple[int, ...], ...]:
        """Every subgroup, sorted by (order, elements): the subgroups that
        ``subgroup_classes`` holds a conjugator for."""
        return tuple(sorted(self.subgroup_classes._conjugator, key=lambda t: (len(t), t)))

    def _discovery(self) -> tuple[dict, dict]:
        """(registry, normalizers) by cyclic extension of class
        representatives with zuppos, the cyclic subgroups of prime-power
        order (Neubüser 1960): each subgroup H -> (K, c) with K its least
        conjugate and c the greatest element with H = cKc^-1, and each
        K -> N(K).  ``subgroup_classes`` runs it once.

        From the trivial subgroup on, each representative V is joined with
        one generator z of each zuppo, closing the generators V was found
        with plus z.  A new join is conjugated once per coset of its
        normalizer, every conjugate is registered, and its least conjugate
        is queued with the generators conjugated along.  As
        ⟨V, zv⟩ = ⟨V, z⟩ for v in V, the join with z covers the coset zV,
        and zuppos in covered cosets are skipped.  Complete: a subgroup
        H > 1 is generated by its zuppos, so one of them, Z, lies outside a
        maximal subgroup V of H and ⟨V, Z⟩ = H; by induction V = cV0c^-1
        with V0 queued, and the join of V0 with c^-1Zc is c^-1Hc.  All
        zuppos are joined, not only those normalizing V, so perfect
        subgroups such as A5 need no special case.  Only a new class grows
        the queue, so there is one pass per class.

        A new join k, closed from ``gens``, first gets its normalizer: the b
        with b g b^-1 in k for each g in ``gens``, |G|·|gens| lookups.  The
        conjugate b k b^-1 depends only on the left coset bN(k), so the scan
        over b in increasing order conjugates once per coset, at its least
        element: |G|/|N(k)| conjugations.  The least conjugate is the
        representative, and a0, the least b mapping k to it, starts its
        coset.  Then b' rep b'^-1 = b k b^-1 exactly for b' in bN(k)a0^-1,
        and N(rep) = a0 N(k) a0^-1."""
        zuppos = {}
        for g in range(self.order):
            cyc = self.closure((g,))
            if _is_prime_power(len(cyc)):
                zuppos.setdefault(cyc, g)
        registry: dict[tuple[int, ...], tuple] = {}
        normalizers: dict[tuple[int, ...], tuple[int, ...]] = {}
        queue: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # (rep, its generators)
        mul, inv = self._mul, self._inv

        def register(k: tuple[int, ...], gens: tuple[int, ...]) -> None:
            k_set = set(k)
            norm = range(self.order)
            for g in gens:
                norm = [b for b in norm if mul[mul[b][g]][inv[b]] in k_set]
            least = {}  # conjugate -> least element of the coset bN(k) giving it
            seen: set[int] = set()
            for b in range(self.order):
                if b not in seen:
                    seen.update(map(mul[b].__getitem__, norm))
                    least[self.conjugate_subgroup(b, k)] = b
            rep = min(least)
            a0 = least[rep]
            ia0 = inv[a0]
            tail = [mul[n][ia0] for n in norm]  # N(k) a0^-1
            for h, b in least.items():
                registry[h] = (rep, max(map(mul[b].__getitem__, tail)))
            normalizers[rep] = tuple(sorted(mul[a0][x] for x in tail))
            queue.append((rep, tuple(self.conj(a0, g) for g in gens)))

        register((self.identity,), ())
        for v, gens in queue:
            covered = set(v)
            for z in zuppos.values():
                if z not in covered:
                    row = self._mul[z]
                    covered.update(row[x] for x in v)
                    k = self.closure(gens + (z,))
                    if k not in registry:
                        register(k, gens + (z,))
        return registry, normalizers

    @cached_property
    def subgroup_classes(self) -> SubgroupClassTable:
        """Classes, conjugators and normalizers from one ``_discovery``.

        The representatives are the least members of their classes, so
        sorted by (order, elements) they come out in class order.  The marks
        are left to their first read.
        """
        registry, normalizer_of = self._discovery()
        reps = sorted(normalizer_of, key=lambda t: (len(t), t))
        class_id = {h: k for k, h in enumerate(reps)}
        return SubgroupClassTable(
            classes=tuple(Subgroup(r) for r in reps),
            class_sizes=tuple(self.order // len(normalizer_of[r]) for r in reps),
            normalizers=tuple(normalizer_of[r] for r in reps),
            _conjugator={h: (class_id[rep], c) for h, (rep, c) in registry.items()},
        )

    @cached_property
    def table_of_marks(self) -> TableOfMarks:
        return self.subgroup_classes._marks

    def class_of_subgroup(self, elems: Iterable[int]) -> int:
        """Class id of a subgroup (canonicalized by conjugation)."""
        return self.class_conjugator(elems)[0]

    def class_conjugator(self, elems: Iterable[int]) -> tuple[int, int]:
        """(k, c) for a subgroup H: its class id k and an element c with
        H = c K c^-1, K the representative of class k."""
        t = tuple(sorted(elems))
        found = self.subgroup_classes._conjugator.get(t)
        if found is None:
            raise GroupError(f"{t} is not a subgroup")
        return found

    def normalizer(self, elems: Iterable[int]) -> tuple[int, ...]:
        """{a in G : a H a^-1 = H}, read as c N(K) c^-1 for H = c K c^-1 with
        K its class representative; repeated elements are ignored."""
        t = tuple(sorted(elems))
        found = self.subgroup_classes._conjugator.get(tuple(sorted(set(t))))
        if found is None:
            raise GroupError(f"{t} is not a subgroup")
        k, c = found
        return tuple(sorted(self.conj(c, a) for a in self.subgroup_classes.normalizers[k]))

    @cached_property
    def pair_table(self) -> tuple[dict[int, int], ...]:
        """``pair_table[k][r]`` is the canonical alpha of the pair (K, rK), for
        K = classes[k] and r running over the least elements of the cosets of
        K in N(K), increasing.  Conjugating by n in N(K) fixes K and moves rK
        to n^-1 r n K; alpha is the least representative over all n."""
        return tuple(
            {r: min(self.coset_min(rep.elements, self.conj(self._inv[n], r)) for n in norm)
             for r in sorted({self.coset_min(rep.elements, n) for n in norm})}
            for rep, norm in zip(self.subgroup_classes.classes, self.subgroup_classes.normalizers)
        )

    def coset_min(self, h_elems: Sequence[int], a: int) -> int:
        """Least element index in the coset a*H."""
        return min(self._mul[a][h] for h in h_elems)

    def left_cosets(self, h_elems: Sequence[int]) -> tuple[list[int], list[int]]:
        """(elem2coset, reps) for the left cosets xH of a subgroup H.

        ``reps`` lists the least element of each coset in increasing order,
        and ``elem2coset[x]`` is the position in ``reps`` of the coset of x.
        """
        elem2coset = [-1] * self.order
        reps: list[int] = []
        for x in range(self.order):
            if elem2coset[x] < 0:
                row = self._mul[x]
                for h in h_elems:
                    elem2coset[row[h]] = len(reps)
                reps.append(x)
        return elem2coset, reps

    def coset_order(self, h_elems: Sequence[int], a: int) -> int:
        """Order of the coset a*H in N(H)/H (a must normalize H)."""
        h_set = set(h_elems)
        out, k = a, 1
        while out not in h_set:
            out = self._mul[out][a]
            k += 1
        return k

    def subgroup_label(self, class_id: int) -> str:
        rep = self.subgroup_classes.classes[class_id]
        if rep.order == self.order:
            return "G"
        if rep.order == 1:
            return "e"
        return f"H{class_id}"


# -- builders --------------------------------------------------------------
# Each builder compares the order with the bound before it builds anything
# of that size.


def cyclic(n: int, *, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError(f"cyclic group order must be positive, got {n}")
    _check_order(n, order_bound)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [1] if n > 1 else []
    return FiniteGroup(
        table, name=f"C{n}", generators=gens, validate=False, order_bound=order_bound
    )


def dihedral(n: int, *, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError(f"dihedral parameter must be positive, got {n}")
    _check_order(2 * n, order_bound)

    def mul(i: int, j: int) -> int:
        a, b = i % n, i // n
        c, d = j % n, j // n
        rot = (a - c) % n if b else (a + c) % n
        return rot + n * (b ^ d)

    table = [[mul(i, j) for j in range(2 * n)] for i in range(2 * n)]
    gens = ([1] if n > 1 else []) + [n]
    return FiniteGroup(
        table, name=f"D{n}", generators=gens, validate=False, order_bound=order_bound
    )


def symmetric(n: int, *, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    if n < 1:
        raise GroupError(f"symmetric group degree must be positive, got {n}")
    order = 1
    for k in range(2, n + 1):  # k! passes the bound long before a huge n
        order *= k
        if order > order_bound:
            shown = math.factorial(n) if n <= 20 else f"{n}!"
            raise GroupError(f"group order {shown} exceeds the bound {order_bound}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_compose(p, q)] for q in perms] for p in perms]
    gens = []
    if n >= 2:
        gens.append(index[(1, 0) + tuple(range(2, n))])
    if n >= 3:
        gens.append(index[tuple(range(1, n)) + (0,)])
    group = FiniteGroup(
        table, name=f"S{n}", generators=gens, validate=False, order_bound=order_bound
    )
    group.permutation_forms = tuple(perms)
    return group


def product(g1: FiniteGroup, g2: FiniteGroup, *, order_bound: int = DEFAULT_ORDER_BOUND) -> FiniteGroup:
    n1, n2 = g1.order, g2.order
    _check_order(n1 * n2, order_bound)

    def pack(a: int, b: int) -> int:
        return a * n2 + b

    table = [
        [
            pack(g1.mul(i // n2, j // n2), g2.mul(i % n2, j % n2))
            for j in range(n1 * n2)
        ]
        for i in range(n1 * n2)
    ]
    gens = [pack(s, g2.identity) for s in g1.generators] + [
        pack(g1.identity, s) for s in g2.generators
    ]
    return FiniteGroup(
        table,
        name=f"{g1.name}x{g2.name}",
        generators=gens,
        validate=False,
        order_bound=order_bound,
    )


def trivial() -> FiniteGroup:
    return cyclic(1)


def from_permutations(
    n_points: int,
    generators: Sequence[Sequence[int]],
    *,
    name: str = "perm",
    order_bound: int = DEFAULT_ORDER_BOUND,
) -> FiniteGroup:
    """Closure of permutation generators on ``n_points`` points."""
    gens = []
    for i, g in enumerate(generators):
        t = tuple(int(x) for x in g)
        if sorted(t) != list(range(n_points)):
            raise GroupError(f"generator {i} is not a bijection on {n_points} points")
        gens.append(t)
    # the group acts faithfully on the points some generator moves, so elements
    # are composed there only: the cost does not follow n_points
    moved = sorted({x for g in gens for x in range(n_points) if g[x] != x})
    at = {x: i for i, x in enumerate(moved)}
    gens = [tuple(at[g[x]] for x in moved) for g in gens]
    identity = tuple(range(len(moved)))
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in index:
                    if len(elems) >= order_bound:
                        raise GroupError(
                            f"generated group exceeds the order bound {order_bound}"
                        )
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    table = [[index[_compose(p, q)] for q in elems] for p in elems]
    gen_idx = [index[g] for g in gens]
    return FiniteGroup(
        table, name=name, generators=gen_idx, validate=False, order_bound=order_bound
    )
