import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import eqzeta as eq
from eqzeta.burnside import permutation_orbits, sigma_powers
from eqzeta.gperm import GPermutation, LefschetzTable, classify, realize
from eqzeta.zg import (
    TripleClass,
    canonical_triple,
    coset_model_row,
    orbit_triple,
    triple_index,
    triple_rep,
    triple_z_period,
)

# child interpreters started by the CLI tests import eqzeta from src as well
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def _build_suite():
    return [
        ("trivial", eq.trivial()),
        ("C2", eq.cyclic(2)),
        ("C3", eq.cyclic(3)),
        ("C4", eq.cyclic(4)),
        ("C2xC2", eq.product(eq.cyclic(2), eq.cyclic(2))),
        ("S3", eq.symmetric(3)),
        ("D4", eq.dihedral(4)),
    ]


_SUITE = _build_suite()


@pytest.fixture(scope="session")
def suite_groups():
    return _SUITE


@pytest.fixture(scope="session")
def small_groups():
    return [(name, g) for name, g in _SUITE if g.order <= 6]


def canonical_triples(group, max_m):
    """All canonical triples with m up to max_m."""
    pairs = sorted(
        {(h, alpha) for h, alphas in enumerate(group.pair_table) for alpha in alphas.values()}
    )
    return [TripleClass(h, m, a) for (h, a) in pairs for m in range(1, max_m + 1)]


def capped_perm_group(n_points, gens, cap=24):
    """Group of the longest prefix of gens whose closure has order <= cap."""
    for k in range(len(gens), 0, -1):
        try:
            return eq.from_permutations(n_points, gens[:k], order_bound=cap)
        except eq.GroupError:
            continue
    raise AssertionError("a single permutation of at most 5 points has order <= 6")


def perm_group_cases(max_degree):
    """Strategy for the arguments of ``capped_perm_group``: a degree up to
    max_degree and one to three permutations of that degree."""
    return st.integers(1, max_degree).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3)
        )
    )


def realize_direct(group, t):
    """Oracle for ``gperm.realize``: the coset model of t = (H, m, a) built
    level by level, with the action of g on the cosets of H repeated on every
    level and sigma's wrap-around step twisted by a^-1."""
    h, m, a = triple_rep(group, t)
    elem2coset, coset_reps = group.left_cosets(h)
    n_cosets = len(coset_reps)
    n = m * n_cosets
    act = []
    for g in range(group.order):
        g_on_coset = [elem2coset[group.mul(g, rep)] for rep in coset_reps]
        act.append(
            tuple(k * n_cosets + g_on_coset[c] for k in range(m) for c in range(n_cosets))
        )
    ia = group.inv(a)
    twist = [elem2coset[group.mul(rep, ia)] for rep in coset_reps]
    sigma = [0] * n
    for k in range(m):
        for c in range(n_cosets):
            if k < m - 1:
                sigma[k * n_cosets + c] = (k + 1) * n_cosets + c
            else:
                sigma[k * n_cosets + c] = twist[c]
    return GPermutation(group, n, act, tuple(sigma), validate=False)


def basis_product_oracle(group, t1, t2):
    """Oracle for ``zg._basis_product``: build both coset models directly,
    take X1 x X2 with the diagonal action and classify it."""
    return classify(realize_direct(group, t1).product(realize_direct(group, t2))).coeffs


def levelwise_mackey_product(group, t1, t2):
    """Oracle for ``zg._mackey_product``: the K1-orbits on all m2 levels of
    the coset model of t2, read from the rows of H1 and of (m1, a1) there."""
    h1, m1, a1 = triple_rep(group, t1)
    cosets = group.left_cosets(triple_rep(group, t2)[0])
    h1_rows = [coset_model_row(group, t2, cosets, 0, h) for h in h1]
    step = coset_model_row(group, t2, cosets, m1, a1)
    out = {}
    points = 0
    for orbit in permutation_orbits(h1_rows + [step], range(len(step))):
        t = orbit_triple(group, h1, h1_rows, step, m1, a1, orbit[0])
        out[t] = out.get(t, 0) + 1
        points += triple_index(group, t)
    if points != triple_index(group, t1) * len(step):
        raise AssertionError("the levelwise Mackey product lost points")
    return out


def lefschetz_table_direct(p, m_max=0):
    """Oracle for ``gperm.lefschetz_table``: tabulate every level point by
    point, counting the N(H)-orbits of the H-fixed locus that hold a point
    fixed by a∘sigma^m."""
    group = p.group
    period = p.z_period()
    if m_max == 0:
        m_max = period
    elif m_max < period:
        raise eq.EqzetaError(
            f"m_max={m_max} is below the sigma period {period}; the table would lose data"
        )
    per_class = []
    for h_class, rep in enumerate(group.subgroup_classes.classes):
        h = rep.elements
        fixed_locus = [x for x in range(p.n) if all(p.act[g][x] == x for g in h)]
        units = permutation_orbits([p.act[g] for g in group.normalizer(h)], fixed_locus)
        if sum(map(len, units)) != len(fixed_locus):
            raise AssertionError("normalizer action leaves the fixed locus; this is a bug")
        per_class.append((h_class, units, group.pair_table[h_class]))
    entries = {}
    for m, sig_m in enumerate(sigma_powers(p.sigma, m_max), start=1):
        for h_class, units, reps in per_class:
            for a in reps:
                row = p.act[a]
                count = 0
                for unit in units:
                    if any(row[sig_m[x]] == x for x in unit):
                        count += 1
                if count:
                    entries[(h_class, m, a)] = count
    return LefschetzTable(group, m_max, entries)


def joint_regularity_scan(k, f):
    """Oracle for ``complexes.check_joint_regularity``: every element g and
    every power f^m up to the period of f, cell by cell, raising at the first
    g∘f^m that maps a cell to itself but moves a face below it."""
    group = k.group
    period = f.z_period()
    per_dim = [sigma_powers(perm, period) for perm in f.maps]
    for m, powers in enumerate(zip(*per_dim), start=1):
        for g in range(group.order):
            for d in range(len(k.cells)):
                row = k.action[g][d]
                for c in range(k.cells[d]):
                    if row[powers[d][c]] != c:
                        continue
                    stack = [(d, c)]
                    while stack:
                        dd, cc = stack.pop()
                        for face in k.boundary[dd][cc]:
                            if k.action[g][dd - 1][powers[dd - 1][face]] != face:
                                raise eq.RegularityError(
                                    f"g∘f^{m} with g={group.labels[g]} fixes cell "
                                    f"({d},{c}) but moves its face ({dd - 1},{face})"
                                )
                            stack.append((dd - 1, face))


def empty_gperm(group):
    return GPermutation(group, 0, [() for _ in range(group.order)], (), validate=False)


def random_gperm(group, rng: random.Random, max_points: int = 24) -> GPermutation:
    """Disjoint union of random realized triples, relabeled at random."""
    pairs = []
    for rep in group.subgroup_classes.classes:
        for a in group.normalizer(rep.elements):
            pairs.append((rep.elements, a))
    p = empty_gperm(group)
    budget = rng.randint(1, max_points)
    while True:
        h, a = rng.choice(pairs)
        index = group.order // len(h)
        max_m = (budget - p.n) // index
        if max_m < 1:
            break
        m = rng.randint(1, max_m)
        t = canonical_triple(group, h, m, a)
        p = p.disjoint_union(realize(group, t))
        if p.n >= budget or rng.random() < 0.25:
            break
    if p.n == 0:
        p = realize(group, canonical_triple(group, range(group.order), 1, group.identity))
    tau = list(range(p.n))
    rng.shuffle(tau)
    return p.relabel(tau)


def oracle_column(group, t):
    """Oracle for ``gperm._column``: the fixed-coset column of one triple,
    with every per-H step (fixed cosets, normalizer orbits, cosets met)
    repeated for this triple.

    The entry at (K, q*m, r) is m times the number of N(K)-orbits of
    K-fixed cosets cH holding one with c^-1 r c a^-q in H, for
    q = 1 .. d/m with d = ``triple_z_period``.
    """
    h, m, a = triple_rep(group, t)
    d = triple_z_period(group, t)
    elem2coset, reps = group.left_cosets(h)
    # c^-1 r c a^-q lies in H when c^-1 r c lies in the coset a^q H
    targets = [elem2coset[group.power(a, q)] for q in range(1, d // m + 1)]
    by_m = {}
    classes = group.subgroup_classes
    for k, (rep, norm) in enumerate(zip(classes.classes, classes.normalizers)):
        if len(h) % rep.order:
            continue  # no conjugate of K lies in H
        fixed = [
            c for i, c in enumerate(reps)
            if all(elem2coset[group.mul(x, c)] == i for x in rep.elements)
        ]
        orbits, seen = [], set()  # each orbit as the c^-1 of its cosets cH
        for c in fixed:
            if elem2coset[c] not in seen:
                orbit = {elem2coset[group.mul(n, c)] for n in norm}
                seen |= orbit
                orbits.append([group.inv(reps[i]) for i in orbit])
        for r in group.pair_table[k]:
            # per orbit: the cosets of H met by c^-1 r c
            met = [{elem2coset[group.conj(ic, r)] for ic in orbit} for orbit in orbits]
            for q, target in enumerate(targets, start=1):
                count = sum(target in cosets for cosets in met)
                if count:
                    by_m.setdefault(q * m, []).append((k, r, m * count))
    return d, by_m
