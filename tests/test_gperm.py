import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqzeta as eq
from eqzeta import gperm
from eqzeta.burnside import extend_action, permutation_orbits, sigma_powers
from eqzeta.documents import parse_document, parse_document_file
from eqzeta.errors import ActionError, EqzetaError
from eqzeta.gperm import (
    GPermutation,
    classify,
    equivariant_lefschetz,
    lefschetz_table,
    realize,
    realize_element,
    zg_orbits,
)
from eqzeta.zeta import classical_lefschetz_numbers, predicted_table, zeta_from_lefschetz
from eqzeta.zg import ZGRingElement, canonical_triple, triple_z_period

from conftest import (
    canonical_triples,
    capped_perm_group,
    empty_gperm,
    lefschetz_table_direct,
    oracle_column,
    perm_group_cases,
    random_gperm,
    realize_direct,
)


def swap_model():
    c2 = eq.cyclic(2)
    return c2, GPermutation(c2, 2, [[0, 1], [1, 0]], [1, 0])


def test_validate_identity_sigma(suite_groups):
    for _, group in suite_groups:
        act = [tuple(group.mul(g, x) for x in range(group.order)) for g in range(group.order)]
        GPermutation(group, group.order, act, tuple(range(group.order)))


def test_validate_swap_model():
    _, p = swap_model()
    eq.validate(p)


def test_commutation_failure_reports_witness():
    c2 = eq.cyclic(2)
    with pytest.raises(ActionError, match="commute.*point"):
        GPermutation(c2, 3, [[0, 1, 2], [1, 0, 2]], [1, 2, 0])


def test_errors_come_in_order_sigma_length_action_sigma():
    c2 = eq.cyclic(2)
    bad_act = [[0, 1], [0, 0]]
    with pytest.raises(ActionError, match="^sigma has 1 entries, expected 2$"):
        GPermutation(c2, 2, bad_act, [0])
    with pytest.raises(ActionError, match="^action of element 1 is not a bijection$"):
        GPermutation(c2, 2, bad_act, [0, 0])
    with pytest.raises(ActionError, match="^sigma is not a bijection$"):
        GPermutation(c2, 2, [[0, 1], [1, 0]], [0, 0])


def test_wrong_row_count_rejected_without_validation():
    with pytest.raises(ActionError, match="rows"):
        GPermutation(eq.cyclic(2), 2, [[0, 1]], [1, 0], validate=False)


def test_classify_trivial_three_cycle():
    triv = eq.trivial()
    p = GPermutation(triv, 3, [[0, 1, 2]], [1, 2, 0])
    assert classify(p) == ZGRingElement.basis(
        triv, canonical_triple(triv, (0,), 3, 0)
    )


def test_classify_swap_with_identity_sigma():
    c2 = eq.cyclic(2)
    p = GPermutation(c2, 2, [[0, 1], [1, 0]], [0, 1])
    assert classify(p) == ZGRingElement.basis(c2, canonical_triple(c2, (0,), 1, 0))


def test_classify_swap_with_swap_sigma():
    c2, p = swap_model()
    assert classify(p) == ZGRingElement.basis(c2, canonical_triple(c2, (0,), 1, 1))


def test_classify_is_base_point_independent(suite_groups):
    rng = random.Random(41)
    from eqzeta.gperm import _classify_orbit

    for _, group in suite_groups:
        for _ in range(5):
            p = random_gperm(group, rng, max_points=16)
            for orbit in zg_orbits(p):
                triples = {_classify_orbit(p, x) for x in orbit}
                assert len(triples) == 1


def test_realize_fixed_point():
    triv = eq.trivial()
    p = realize(triv, canonical_triple(triv, (0,), 1, 0))
    assert p.n == 1 and p.sigma == (0,)


def test_realize_full_subgroup_gives_cycle_with_trivial_action(suite_groups):
    for _, group in suite_groups:
        for m in (1, 2, 5):
            t = canonical_triple(group, range(group.order), m, group.identity)
            p = realize(group, t)
            assert p.n == m
            assert all(row == tuple(range(m)) for row in p.act)
            assert sorted(p.sigma_cycle_lengths()) == [m]


def test_realize_roundtrip_all_triples(suite_groups):
    for name, group in suite_groups:
        for t in canonical_triples(group, 6):
            z = classify(realize(group, t))
            assert z == ZGRingElement.basis(group, t), (name, t)


def test_realize_matches_the_direct_model(suite_groups):
    """realize assembles its rows from zg.coset_model_row; the levelwise
    construction in conftest must give the same points, action and sigma."""
    groups = [g for _, g in suite_groups]
    groups += [eq.symmetric(4), eq.product(eq.cyclic(2), eq.symmetric(3))]
    for group in groups:
        for t in canonical_triples(group, 3):
            p, direct = realize(group, t), realize_direct(group, t)
            assert (p.n, p.act, p.sigma) == (direct.n, direct.act, direct.sigma), (group, t)


def test_classify_conserves_cardinality(suite_groups):
    rng = random.Random(13)
    for _, group in suite_groups:
        for _ in range(8):
            p = random_gperm(group, rng)
            assert classify(p).point_count() == p.n


def test_classify_additive_on_disjoint_union(suite_groups):
    rng = random.Random(29)
    for _, group in suite_groups:
        for _ in range(5):
            p1 = random_gperm(group, rng, max_points=12)
            p2 = random_gperm(group, rng, max_points=12)
            assert classify(p1.disjoint_union(p2)) == classify(p1) + classify(p2)


def test_classify_multiplicative_on_products(suite_groups):
    rng = random.Random(31)
    for _, group in suite_groups:
        for _ in range(4):
            p1 = random_gperm(group, rng, max_points=8)
            p2 = random_gperm(group, rng, max_points=8)
            assert classify(p1.product(p2)) == classify(p1) * classify(p2)


def test_lefschetz_identity_sigma_counts_whole_set():
    c2 = eq.cyclic(2)
    p = GPermutation(c2, 2, [[0, 1], [1, 0]], [0, 1])
    assert equivariant_lefschetz(c2.identity, p) == p.gset().burnside_class()


def test_lefschetz_cycle_without_fixed_points():
    triv = eq.trivial()
    p = GPermutation(triv, 3, [[0, 1, 2]], [1, 2, 0])
    assert equivariant_lefschetz(0, p).is_zero()


def test_lefschetz_swap_composition_is_free_orbit():
    c2, p = swap_model()
    value = equivariant_lefschetz(1, p)
    assert value.coeffs == {c2.class_of_subgroup((0,)): 1}


def test_lefschetz_fixed_set_invariance_failure_detected():
    s3 = eq.symmetric(3)
    # regular model twisted by a transposition: fixed set of g∘sigma is the
    # centralizer of g, which is not closed under left translation
    perms = s3.permutation_forms
    act = [tuple(s3.mul(g, x) for x in range(6)) for g in range(6)]
    transposition = next(
        g for g in range(6) if g != s3.identity and s3.mul(g, g) == s3.identity
    )
    sigma = tuple(s3.mul(x, transposition) for x in range(6))
    p = GPermutation(s3, 6, act, sigma)
    with pytest.raises(ActionError, match="not G-invariant"):
        equivariant_lefschetz(transposition, p)


def test_table_trivial_three_cycle():
    triv = eq.trivial()
    p = GPermutation(triv, 3, [[0, 1, 2]], [1, 2, 0])
    table = lefschetz_table(p)
    assert table.m_max == 3
    assert table.entries == {(0, 3, 0): 3}
    assert table.get(0, 1, 0) == table.get(0, 2, 0) == 0


def test_table_constructor_drops_zeros(suite_groups):
    for _, group in suite_groups:
        table = lefschetz_table(realize(group, next(iter(ZGRingElement.one(group).coeffs))), 4)
        assert table.entries and all(table.entries.values())
        assert (table - table).entries == {}
        assert (0 * table).entries == {}
        assert (table + table) - table == table
    triv = eq.trivial()
    assert eq.LefschetzTable(triv, 2, {(0, 1, 0): 0, (0, 2, 0): 1}).entries == {(0, 2, 0): 1}


def test_table_single_fixed_point(suite_groups):
    for _, group in suite_groups:
        one = ZGRingElement.one(group)
        p = realize(group, next(iter(one.coeffs)))
        table = lefschetz_table(p, 4)
        full_class = group.class_of_subgroup(range(group.order))
        for m in range(1, 5):
            assert table.get(full_class, m, group.identity) == 1


def test_table_swap_entry():
    c2, p = swap_model()
    table = lefschetz_table(p)
    triv_class = c2.class_of_subgroup((0,))
    assert table.get(triv_class, 1, 1) == 1
    assert table.get(triv_class, 1, 0) == 0
    assert table.get(triv_class, 2, 0) == 1


def test_table_equals_prediction_from_classification(suite_groups):
    rng = random.Random(53)
    for _, group in suite_groups:
        for _ in range(6):
            p = random_gperm(group, rng, max_points=16)
            table = lefschetz_table(p)
            assert table == predicted_table(classify(p), table.m_max)


def test_fixed_coset_columns_match_direct_tabulation():
    """Each basis column, read from the fixed cosets of G/H, equals the
    point-by-point table of the realized triple over one sigma period."""
    groups = [
        eq.cyclic(2), eq.cyclic(3), eq.cyclic(4), eq.symmetric(3), eq.dihedral(4),
        eq.symmetric(4), eq.product(eq.cyclic(2), eq.symmetric(3)),
    ]
    for group in groups:
        for t in canonical_triples(group, 3):
            d = triple_z_period(group, t)
            column = predicted_table(ZGRingElement.basis(group, t), d)
            assert column == lefschetz_table_direct(realize(group, t), d), (group, t)


@settings(max_examples=40, deadline=None)
@given(perm_group_cases(4), st.randoms(use_true_random=False), st.sampled_from([0, 1, 2]))
def test_table_matches_direct_tabulation_on_random_groups(case, rng, level):
    group = capped_perm_group(*case)
    p = random_gperm(group, rng, max_points=16)
    period = p.z_period()
    m_max = (0, period, 2 * period + 1)[level]
    assert lefschetz_table(p, m_max) == lefschetz_table_direct(p, m_max)


def test_solver_inverts_direct_tabulation(suite_groups):
    """The solver against tables that do not come from ``classify``."""
    rng = random.Random(89)
    for _, group in suite_groups:
        for _ in range(6):
            p = random_gperm(group, rng, max_points=16)
            assert zeta_from_lefschetz(lefschetz_table_direct(p)) == classify(p)


def test_table_entries_are_conjugation_invariant(suite_groups):
    rng = random.Random(59)
    from eqzeta.zg import canonical_pair

    for _, group in suite_groups:
        p = random_gperm(group, rng, max_points=16)
        table = lefschetz_table(p)
        classes = group.subgroup_classes.classes
        by_pair = {}
        for (h, m, a), v in table.entries.items():
            key = (canonical_pair(group, classes[h].elements, a), m)
            assert by_pair.setdefault(key, v) == v


def test_table_m_max_below_period_rejected():
    triv = eq.trivial()
    p = GPermutation(triv, 3, [[0, 1, 2]], [1, 2, 0])
    with pytest.raises(eq.EqzetaError):
        lefschetz_table(p, 2)


def test_abelian_coefficients_match_containment_sums(suite_groups):
    """On abelian groups the fixed sets are honest G-sets; their orbit
    coefficients must match the containment-weighted sums over classify."""
    rng = random.Random(61)
    for name, group in suite_groups:
        if name in ("S3", "D4"):
            continue
        for _ in range(4):
            p = random_gperm(group, rng, max_points=12)
            z = classify(p)
            classes = group.subgroup_classes.classes
            for m in range(1, p.z_period() + 1):
                pm = p.power(m)
                for g in range(group.order):
                    value = equivariant_lefschetz(g, pm)
                    for h_class, rep in enumerate(classes):
                        if g not in group.normalizer(rep.elements):
                            continue
                        eval_triple = canonical_triple(group, rep.elements, m, g)
                        predicted = sum(
                            c * t.m
                            for t, c in z.coeffs.items()
                            if t.h_class == h_class
                            and eq.zg_contains(group, eval_triple, t)
                        )
                        assert value.coefficient(h_class) == predicted, (name, m, g)


def test_realize_element_equals_disjoint_union_fold(suite_groups):
    rng = random.Random(67)
    for name, group in suite_groups:
        triples = canonical_triples(group, 3)
        picks = [rng.sample(triples, min(6, len(triples))) for _ in range(3)]
        elements = [ZGRingElement.zero(group)] + [
            ZGRingElement(group, {t: rng.randint(1, 3) for t in picked}) for picked in picks
        ]
        for z in elements:
            fold = empty_gperm(group)
            for t in sorted(z.coeffs):
                for _ in range(z.coeffs[t]):
                    fold = fold.disjoint_union(realize(group, t))
            p = realize_element(group, z)
            assert (p.n, p.act, p.sigma) == (fold.n, fold.act, fold.sigma), name
    with pytest.raises(eq.EqzetaError, match="negative"):
        realize_element(group, ZGRingElement(group, {triples[0]: -1}))


def test_power_is_repeated_composition(suite_groups):
    rng = random.Random(71)
    for _, group in suite_groups:
        p = random_gperm(group, rng, max_points=12)
        sig = tuple(range(p.n))
        for m in range(0, p.z_period() + 2):
            pm = p.power(m)
            assert pm.sigma == sig and pm.act == p.act
            sig = tuple(p.sigma[x] for x in sig)


def test_cycle_rotation_matches_the_sigma_powers_walk():
    fixtures = Path(__file__).parent / "fixtures"
    perms = [
        parse_document_file(str(path)).payload
        for path in sorted(fixtures.glob("gperm_*.json"))
        if path.name != "gperm_bad_commutation.json"
    ]
    perms += [
        random_gperm(eq.dihedral(4), random.Random(73), max_points=40),
        # cycles of lengths 2, 3 and 5: period 30
        GPermutation(eq.trivial(), 10, [tuple(range(10))], [1, 0, 3, 4, 2, 6, 7, 8, 9, 5]),
    ]
    for p in perms:
        period = p.z_period()
        walk = [tuple(range(p.n))] + list(sigma_powers(p.sigma, 2 * period + 1))
        for m, sig in enumerate(walk):
            pm = p.power(m)
            assert pm.sigma == sig and pm.act == p.act, (p, m)
        assert classical_lefschetz_numbers(p, len(walk) - 1) == [
            sum(x == y for x, y in enumerate(sig)) for sig in walk[1:]
        ]
        far = 10**12 + 5
        assert p.power(far).sigma == walk[far % period]
        cycles = permutation_orbits([p.sigma], range(p.n))
        assert p.sigma_cycle_lengths() == sorted(len(c) for c in cycles)


def _same_column(group, t):
    d, by_m = gperm._column(group, t, gperm._coset_profile(group, t.h_class))
    d_oracle, by_m_oracle = oracle_column(group, t)
    assert d == d_oracle, (group, t)
    assert by_m.keys() == by_m_oracle.keys(), (group, t)
    for m, entries in by_m.items():
        assert sorted(entries) == sorted(by_m_oracle[m]), (group, t, m)


def test_profile_columns_match_the_per_triple_oracle(suite_groups):
    for _, group in suite_groups:
        for t in canonical_triples(group, 3):
            _same_column(group, t)


@settings(max_examples=30, deadline=None)
@given(perm_group_cases(4))
def test_profile_columns_match_the_per_triple_oracle_on_random_groups(case):
    group = capped_perm_group(*case)
    for t in canonical_triples(group, 3):
        _same_column(group, t)


def _count_profiles(monkeypatch):
    calls = []
    original = gperm._coset_profile

    def counted(group, h_class):
        calls.append(h_class)
        return original(group, h_class)

    monkeypatch.setattr(gperm, "_coset_profile", counted)
    return calls


def test_table_and_solver_read_one_profile_per_class(monkeypatch):
    group = eq.symmetric(4)
    z = ZGRingElement(group, {t: 1 for t in canonical_triples(group, 3)})
    assert len({t.h_class for t in z.coeffs}) < len(z.coeffs)
    calls = _count_profiles(monkeypatch)
    table = predicted_table(z, 12)
    assert calls and len(calls) == len(set(calls))
    calls.clear()
    assert zeta_from_lefschetz(table) == z
    assert calls and len(calls) == len(set(calls))


def _lefschetz_doc(h):
    return json.dumps({
        "kind": "lefschetz", "group": {"type": "symmetric", "n": 3}, "m_max": 1,
        "entries": [{"H": h, "g": 3, "m": 1, "value": 1}],
    })


def test_class_id_entry_with_a_non_normalizing_g_is_rejected():
    s3 = eq.symmetric(3)
    k = next(i for i, rep in enumerate(s3.subgroup_classes.classes) if rep.order == 2)
    rep = s3.subgroup_classes.classes[k].elements
    assert 3 not in s3.normalizer(rep)
    expected = f"entries[0]: element 3 does not normalize the subgroup {rep}"
    for h in (k, list(rep)):  # the class id and the element list give one message
        with pytest.raises(eq.DocumentError) as info:
            parse_document(_lefschetz_doc(h))
        assert str(info.value) == expected


def _gperm_outcome(build):
    try:
        p = build()
    except EqzetaError as exc:
        return type(exc).__name__, str(exc)
    return "ok", (p.act, p.sigma)


def _old_gperm_route(group, n, images, sigma):
    """``from_generator_images`` as it was: the table, then the full check."""
    if not group.generators and len(sigma) != n:
        raise ActionError(f"sigma has {len(sigma)} entries, expected {n}")
    return GPermutation(group, n, extend_action(group, n, images)[0], sigma)


@settings(max_examples=120, deadline=None)
@given(perm_group_cases(4).filter(lambda case: case[0] >= 3), st.randoms(use_true_random=False),
       st.data())
def test_generator_images_check_matches_the_old_route(case, rng, data):
    group = capped_perm_group(*case)
    regular = realize(group, canonical_triple(group, [group.identity], 1, group.identity))
    p = random_gperm(group, rng, max_points=12).disjoint_union(regular)
    images = [list(p.act[s]) for s in group.generators]
    sigma = list(p.sigma)
    change = data.draw(st.sampled_from(["image", "image and sigma length", "sigma", "none"]))
    if images and change.startswith("image"):  # may break a relation
        images[data.draw(st.integers(0, len(images) - 1))] = data.draw(st.permutations(range(p.n)))
    if change == "image and sigma length":
        sigma = sigma[:-1]
    elif change == "sigma":  # may break commutation
        sigma = data.draw(st.permutations(sigma))
    new = _gperm_outcome(lambda: GPermutation.from_generator_images(group, p.n, images, sigma))
    assert new == _gperm_outcome(lambda: _old_gperm_route(group, p.n, images, sigma))


def test_repeated_and_identity_generators_keep_their_first_rows():
    table = [[0, 1], [1, 0]]  # C2; generator 1 listed twice, the identity once
    group = eq.FiniteGroup(table, generators=[1, 0, 1])
    swap, fixed = [1, 0], [0, 1]
    for images in ([swap, fixed, swap], [swap, swap, swap], [swap, fixed, fixed]):
        new = _gperm_outcome(lambda: GPermutation.from_generator_images(group, 2, images, [0, 1]))
        assert new == _gperm_outcome(lambda: _old_gperm_route(group, 2, images, [0, 1]))


def test_document_reports_sigma_length_before_a_broken_relation():
    # the generator of C3 acting by a transposition breaks g^3 = e
    doc = {"kind": "gperm", "group": {"type": "cyclic", "n": 3}, "points": 2, "action": [[1, 0]]}
    with pytest.raises(eq.DocumentError, match=r"^gperm: sigma has 1 entries, expected 2$"):
        parse_document(json.dumps({**doc, "sigma": [0]}))
    with pytest.raises(eq.DocumentError, match=r"^gperm: action is not a homomorphism at elements"):
        parse_document(json.dumps({**doc, "sigma": [0, 1]}))
