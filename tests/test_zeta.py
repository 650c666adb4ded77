import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqzeta as eq
from eqzeta.errors import EqzetaError, StratumError, TableError
from eqzeta.gperm import (
    GPermutation,
    classify,
    coset_representatives,
    lefschetz_table,
    realize,
)
from eqzeta.zeta import (
    StratumRecord,
    acampo,
    classical_from_lefschetz,
    classical_lefschetz_numbers,
    elementary_zeta,
    predicted_table,
    sebastiani_thom,
    zeta_from_lefschetz,
)
from eqzeta.zg import ClassicalZeta, ZGRingElement, canonical_triple

from conftest import canonical_triples, random_gperm


def cyc(group, m):
    return ZGRingElement.basis(group, canonical_triple(group, (group.identity,), m, group.identity))


def full_cycle(group, m):
    return ZGRingElement.basis(
        group, canonical_triple(group, range(group.order), m, group.identity)
    )


# -- zeta_from_lefschetz -----------------------------------------------------


def test_solve_single_fixed_point(suite_groups):
    for _, group in suite_groups:
        one = ZGRingElement.one(group)
        table = lefschetz_table(realize(group, next(iter(one.coeffs))), 4)
        assert zeta_from_lefschetz(table) == one


def test_solve_three_cycle_literal_table():
    triv = eq.trivial()
    table = eq.LefschetzTable(triv, 3, {(0, 1, 0): 0, (0, 2, 0): 0, (0, 3, 0): 3})
    assert zeta_from_lefschetz(table) == cyc(triv, 3)


def test_solve_swap_roundtrip():
    c2 = eq.cyclic(2)
    p = GPermutation(c2, 2, [[0, 1], [1, 0]], [1, 0])
    assert zeta_from_lefschetz(lefschetz_table(p)) == classify(p)


def test_solve_roundtrip_randomized(suite_groups):
    rng = random.Random(67)
    for _, group in suite_groups:
        for _ in range(8):
            p = random_gperm(group, rng)
            assert zeta_from_lefschetz(lefschetz_table(p)) == classify(p)


def test_solver_rejects_inconsistent_tables():
    triv = eq.trivial()
    # no integer solution at m=2
    with pytest.raises(TableError, match="no integer solution"):
        zeta_from_lefschetz(eq.LefschetzTable(triv, 2, {(0, 1, 0): 0, (0, 2, 0): 1}))
    # a 2-cycle forces matching data at m=4; dropping it leaves a remainder
    with pytest.raises(TableError):
        zeta_from_lefschetz(
            eq.LefschetzTable(
                triv, 4, {(0, 1, 0): 0, (0, 2, 0): 2, (0, 3, 0): 0, (0, 4, 0): 0}
            )
        )
    # an entry that breaks conjugation invariance leaves a residue: the value
    # sits at a transposition that is not the canonical representative
    s3 = eq.symmetric(3)
    with pytest.raises(TableError, match="residue"):
        zeta_from_lefschetz(eq.LefschetzTable(s3, 1, {(0, 1, 2): 1}))


def test_single_entry_perturbations_change_output_or_fail(suite_groups):
    rng = random.Random(71)
    for _, group in suite_groups:
        p = random_gperm(group, rng, max_points=10)
        table = lefschetz_table(p)
        baseline = zeta_from_lefschetz(table)
        # the full grid, zeros included: a table stores its nonzero entries only
        keys = sorted(
            (h, m, a)
            for h, rep in enumerate(group.subgroup_classes.classes)
            for a in coset_representatives(group, rep.elements)
            for m in range(1, table.m_max + 1)
        )
        for key in keys[:: max(1, len(keys) // 6)]:
            for delta in (-1, 1):
                entries = dict(table.entries)
                entries[key] = entries.get(key, 0) + delta
                perturbed = eq.LefschetzTable(group, table.m_max, entries)
                try:
                    other = zeta_from_lefschetz(perturbed)
                except TableError:
                    continue
                assert other != baseline, key


def test_solver_recovers_virtual_elements(suite_groups):
    """Tables of virtual elements (negative coefficients included) solve back."""
    rng = random.Random(83)
    from eqzeta.zg import triple_z_period

    for _, group in suite_groups:
        triples = canonical_triples(group, 4)
        for _ in range(6):
            picks = rng.sample(triples, min(4, len(triples)))
            z = ZGRingElement(group, {t: rng.randint(-3, 3) for t in picks})
            if z.is_zero():
                continue
            m_max = max(triple_z_period(group, t) for t in z.coeffs)
            assert zeta_from_lefschetz(predicted_table(z, m_max)) == z


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=2)
        )
    ),
    st.data(),
)
def test_solver_inverts_predicted_table_on_random_groups(case, data):
    n_points, gens = case
    group = eq.from_permutations(n_points, gens)
    triples = canonical_triples(group, 3)
    picks = data.draw(st.lists(st.sampled_from(triples), min_size=1, max_size=4))
    z = ZGRingElement(group, {t: data.draw(st.integers(-3, 3)) for t in picks})
    m_max = max((t.m for t in z.coeffs), default=1) + data.draw(st.integers(0, 3))
    assert zeta_from_lefschetz(predicted_table(z, m_max)) == z


def test_solve_derives_m_max_from_data():
    triv = eq.trivial()
    table = eq.LefschetzTable(triv, 0, {(0, 1, 0): 0, (0, 2, 0): 0, (0, 3, 0): 3})
    assert zeta_from_lefschetz(table) == cyc(triv, 3)
    assert zeta_from_lefschetz(eq.LefschetzTable(triv, 0, {})).is_zero()


# -- classical_from_lefschetz -------------------------------------------------


def test_classical_constant_one():
    assert classical_from_lefschetz([1, 1, 1, 1]) == ClassicalZeta(((1, 1),))


def test_classical_three_cycle():
    assert classical_from_lefschetz([0, 0, 3, 0, 0, 3]) == ClassicalZeta(((3, 1),))


def test_classical_zero_sequence():
    assert classical_from_lefschetz([0, 0, 0]) == ClassicalZeta.one()


def test_classical_rejects_non_realizable():
    with pytest.raises(TableError, match="r_2"):
        classical_from_lefschetz([0, 1])


def test_classical_route_commutes_with_forgetting(suite_groups):
    rng = random.Random(73)
    for _, group in suite_groups:
        for _ in range(6):
            p = random_gperm(group, rng)
            numbers = classical_lefschetz_numbers(p)
            assert classical_from_lefschetz(numbers) == classify(p).forget_to_classical()
            # realizability: every r_m divisible by m is implied by success
            assert sum(numbers) >= 0


# -- elementary_zeta ----------------------------------------------------------


def test_elementary_free_fixed_orbit(suite_groups):
    for _, group in suite_groups:
        z = elementary_zeta(group, 1, 1, (group.identity,), group.identity)
        assert z == ZGRingElement.basis(
            group, canonical_triple(group, (group.identity,), 1, group.identity)
        )


def test_elementary_trivial_group_cycle():
    triv = eq.trivial()
    for m in (1, 2, 4):
        p = realize(triv, canonical_triple(triv, (0,), m, 0))
        assert elementary_zeta(triv, m, m, (0,), 0) == classify(p)


def test_elementary_twisted_swap():
    c2 = eq.cyclic(2)
    z = elementary_zeta(c2, 1, 1, (0,), 1)
    assert z == ZGRingElement.basis(c2, canonical_triple(c2, (0,), 1, 1))


def test_elementary_rejects_bad_divisibility():
    with pytest.raises(EqzetaError, match="divisible"):
        elementary_zeta(eq.trivial(), 3, 2, (0,), 0)


def _satisfies_elementary_hypotheses(group, p):
    """All isotropy in one class, no G-orbit preserved before m0, and some
    g0 with g0∘sigma^m0 = id; returns (m0, g0) or None."""
    if p.n == 0:
        return None
    classes = {group.class_of_subgroup(p.gset().stabilizer(x)) for x in range(p.n)}
    if len(classes) != 1:
        return None
    sig = tuple(range(p.n))
    for m in range(1, p.z_period() + 1):
        sig = tuple(p.sigma[x] for x in sig)
        for g in range(group.order):
            row = p.act[g]
            if all(row[sig[x]] == x for x in range(p.n)):
                return m, g
        # some orbit preserved before closing up?
        for x in range(p.n):
            if any(p.act[g][sig[x]] == x for g in range(group.order)):
                return None
    return None


def test_elementary_agrees_with_solver_on_eligible_models(suite_groups):
    checked = 0
    for _, group in suite_groups:
        for t in canonical_triples(group, 6):
            for copies in (1, 2):
                p = realize(group, t)
                for _ in range(copies - 1):
                    p = p.disjoint_union(realize(group, t))
                hypo = _satisfies_elementary_hypotheses(group, p)
                if hypo is None:
                    continue
                m0, g0 = hypo
                h = group.subgroup_classes.classes[t.h_class].elements
                orbit_count = len(eq.GSet(group, p.n, p.act, validate=False).orbits())
                z = elementary_zeta(group, orbit_count, m0, h, g0)
                assert z == zeta_from_lefschetz(lefschetz_table(p))
                checked += 1
    assert checked > 50


# -- sebastiani_thom ----------------------------------------------------------


def test_st_with_zero_is_identity(suite_groups):
    for _, group in suite_groups:
        z = ZGRingElement.basis(
            group, canonical_triple(group, (group.identity,), 2, group.identity)
        )
        assert sebastiani_thom(z, ZGRingElement.zero(group)) == z


def test_st_of_two_points_is_a_point(suite_groups):
    for _, group in suite_groups:
        one = ZGRingElement.one(group)
        assert sebastiani_thom(one, one) == one


def test_st_desk_check_squares():
    triv = eq.trivial()
    m2 = cyc(triv, 2)
    result = sebastiani_thom(m2, m2)
    assert result.is_zero()
    assert result.forget_to_classical() == ClassicalZeta.one()
    strata = [StratumRecord(chi=0, m=2, n=1, subgroup=(0,), alpha=0)]
    assert result == acampo(triv, strata)


def test_st_commutes_with_forgetting(suite_groups):
    rng = random.Random(79)
    for _, group in suite_groups:
        triples = canonical_triples(group, 3)
        for _ in range(5):
            a = ZGRingElement(
                group,
                {t: rng.randint(-2, 2) for t in rng.sample(triples, min(3, len(triples)))},
            )
            b = ZGRingElement(
                group,
                {t: rng.randint(-2, 2) for t in rng.sample(triples, min(3, len(triples)))},
            )
            fa, fb = a.forget_to_classical(), b.forget_to_classical()
            # the same identity in the classical ring: sum -> product
            lhs = sebastiani_thom(a, b).forget_to_classical()
            rhs = fa * fb * (a * b).forget_to_classical().inverse()
            assert lhs == rhs


# -- acampo -------------------------------------------------------------------


def test_acampo_power_germ():
    triv = eq.trivial()
    for k in (1, 2, 5):
        strata = [StratumRecord(chi=1, m=k, n=1, subgroup=(0,), alpha=0)]
        z = acampo(triv, strata)
        assert z == cyc(triv, k)
        assert z.forget_to_classical() == ClassicalZeta(((k, 1),))


def test_acampo_square_sum_after_blowup():
    triv = eq.trivial()
    strata = [StratumRecord(chi=0, m=2, n=1, subgroup=(0,), alpha=0)]
    z = acampo(triv, strata)
    assert z.is_zero()
    assert z.forget_to_classical() == ClassicalZeta.one()


def test_acampo_equivariant_square():
    c2 = eq.cyclic(2)
    strata = [StratumRecord(chi=1, m=2, n=2, subgroup=(0,), alpha=1)]
    z = acampo(c2, strata)
    model = GPermutation(c2, 2, [[0, 1], [1, 0]], [1, 0])
    assert z == classify(model)
    assert z.forget_to_classical() == ClassicalZeta(((2, 1),))


def test_stratum_validation_errors():
    c2 = eq.cyclic(2)
    with pytest.raises(StratumError, match="does not divide"):
        StratumRecord(chi=1, m=3, n=2, subgroup=(0,), alpha=1).validate(c2)
    with pytest.raises(StratumError, match="order"):
        StratumRecord(chi=1, m=2, n=2, subgroup=(0,), alpha=0).validate(c2)
    s3 = eq.symmetric(3)
    h = next(h for h in s3.all_subgroups if len(h) == 2)
    outside = next(a for a in range(6) if a not in s3.normalizer(h))
    with pytest.raises(StratumError, match="normalize"):
        StratumRecord(chi=1, m=2, n=2, subgroup=h, alpha=outside).validate(s3)


def test_stratum_with_a_repeated_kernel_element_is_rejected():
    # is_subgroup and normalizer would both read (0, 0) as the subgroup (0,)
    with pytest.raises(StratumError, match=r"^\(0, 0\) is not a subgroup$"):
        StratumRecord(chi=1, m=2, n=2, subgroup=(0, 0), alpha=1).validate(eq.cyclic(2))
