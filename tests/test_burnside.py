import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqzeta as eq
from eqzeta.burnside import BurnsideElement, GSet, class_of_gset
from eqzeta.errors import ActionError

from conftest import capped_perm_group, perm_group_cases, random_gperm


def regular_gset(group):
    act = [tuple(group.mul(g, x) for x in range(group.order)) for g in range(group.order)]
    return GSet(group, group.order, act)


def coset_gset(group, h_elems):
    """Left multiplication on the cosets of H."""
    elem2coset = {}
    reps = []
    for x in range(group.order):
        if x not in elem2coset:
            cid = len(reps)
            reps.append(x)
            for h in h_elems:
                elem2coset[group.mul(x, h)] = cid
    act = [
        tuple(elem2coset[group.mul(g, rep)] for rep in reps)
        for g in range(group.order)
    ]
    return GSet(group, len(reps), act)


def test_fixed_point_class():
    c2 = eq.cyclic(2)
    gset = GSet(c2, 1, [(0,), (0,)])
    cls = class_of_gset(gset)
    full = c2.class_of_subgroup(range(2))
    assert cls.coeffs == {full: 1}


def test_regular_action_class(suite_groups):
    for _, group in suite_groups:
        cls = class_of_gset(regular_gset(group))
        triv = group.class_of_subgroup((group.identity,))
        assert cls.coeffs == {triv: 1}


def test_natural_s3_action_has_order_two_stabilizer():
    s3 = eq.symmetric(3)
    perms = s3.permutation_forms
    act = [perms[g] for g in range(6)]
    cls = class_of_gset(GSet(s3, 3, act))
    [(class_id, coeff)] = cls.coeffs.items()
    assert coeff == 1
    assert s3.subgroup_classes.classes[class_id].order == 2


def test_invalid_action_rejected():
    c2 = eq.cyclic(2)
    with pytest.raises(ActionError):
        GSet(c2, 2, [(0, 1), (0, 0)])  # not bijective
    with pytest.raises(ActionError):
        GSet(c2, 2, [(1, 0), (0, 1)])  # identity acts nontrivially


def test_short_non_generator_row_is_an_action_error():
    s3 = eq.symmetric(3)
    act = [[s3.mul(g, x) for x in range(6)] for g in range(6)]
    g = next(g for g in range(6) if g != s3.identity and g not in s3.generators)
    act[g] = act[g][:5]
    with pytest.raises(ActionError, match=f"^action of element {g} is not a bijection$"):
        GSet(s3, 6, act)


def oracle_action_error(group, n, act):
    """The full check made before the Cayley-edge check, kept as its oracle:
    every row a bijection, the identity trivial, and act[a*b] = act[a]∘act[b]
    on all |G|^2 pairs, O(|G|^2 * n).  Returns the first error, or None."""
    for g, row in enumerate(act):
        if sorted(row) != list(range(n)):
            return f"action of element {g} is not a bijection"
    if list(act[group.identity]) != list(range(n)):
        return "the identity element does not act trivially"
    for a in range(group.order):
        for b in range(group.order):
            rab = act[group.mul(a, b)]
            for x in range(n):
                if rab[x] != act[a][act[b][x]]:
                    return f"action is not a homomorphism at elements ({a},{b}), point {x}"
    return None


def _gset_error(group, n, act):
    try:
        GSet(group, n, act)
    except ActionError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(perm_group_cases(4), st.randoms(use_true_random=False), st.data())
def test_edge_check_matches_the_full_scan(case, rng, data):
    group = capped_perm_group(*case)
    p = random_gperm(group, rng, max_points=12)
    act = [list(row) for row in p.act]
    if p.n > 1 and data.draw(st.booleans()):  # swap two entries of one row
        g = data.draw(st.integers(0, group.order - 1))
        x, y = data.draw(st.lists(st.integers(0, p.n - 1), min_size=2, max_size=2, unique=True))
        act[g][x], act[g][y] = act[g][y], act[g][x]
    error, expected = _gset_error(group, p.n, act), oracle_action_error(group, p.n, act)
    assert (error is None) == (expected is None)
    if expected is not None and "homomorphism" not in expected:  # the witness may differ
        assert error == expected


def test_identity_element_of_the_ring(suite_groups):
    for _, group in suite_groups:
        one = BurnsideElement.basis(group, group.class_of_subgroup(range(group.order)))
        for class_id in range(len(group.subgroup_classes)):
            x = BurnsideElement.basis(group, class_id)
            assert one * x == x


def test_free_square_in_cyclic_two():
    c2 = eq.cyclic(2)
    free = BurnsideElement.basis(c2, c2.class_of_subgroup((0,)))
    assert (free * free).coeffs == {c2.class_of_subgroup((0,)): 2}


def test_s3_mixed_product_is_free():
    s3 = eq.symmetric(3)
    classes = s3.subgroup_classes.classes
    c2_id = next(i for i, rep in enumerate(classes) if rep.order == 2)
    c3_id = next(i for i, rep in enumerate(classes) if rep.order == 3)
    prod = BurnsideElement.basis(s3, c2_id) * BurnsideElement.basis(s3, c3_id)
    assert prod.coeffs == {s3.class_of_subgroup((s3.identity,)): 1}


def product_orbit_oracle(group, h1, h2):
    """Orbit decomposition of the product of two coset spaces."""
    a = coset_gset(group, h1)
    b = coset_gset(group, h2)
    n = a.n * b.n
    act = [
        tuple(
            a.act[g][x] * b.n + b.act[g][y] for x in range(a.n) for y in range(b.n)
        )
        for g in range(group.order)
    ]
    return class_of_gset(GSet(group, n, act, validate=False))


def test_multiplication_matches_product_orbit_decomposition(suite_groups):
    for name, group in suite_groups:
        classes = group.subgroup_classes.classes
        for i, rep1 in enumerate(classes):
            for j, rep2 in enumerate(classes):
                via_marks = BurnsideElement.basis(group, i) * BurnsideElement.basis(group, j)
                direct = product_orbit_oracle(group, rep1.elements, rep2.elements)
                assert via_marks == direct, (name, i, j)


def test_mark_vector_basics(suite_groups):
    for _, group in suite_groups:
        n_classes = len(group.subgroup_classes)
        free = BurnsideElement.basis(group, group.class_of_subgroup((group.identity,)))
        assert free.mark_vector() == (group.order,) + (0,) * (n_classes - 1)
        one = BurnsideElement.basis(group, group.class_of_subgroup(range(group.order)))
        assert one.mark_vector() == (1,) * n_classes


def test_mark_vector_is_ring_homomorphism(suite_groups):
    rng = random.Random(11)
    for _, group in suite_groups:
        n_classes = len(group.subgroup_classes)
        for _ in range(10):
            a = BurnsideElement(
                group, {cls: rng.randint(-3, 3) for cls in range(n_classes)}
            )
            b = BurnsideElement(
                group, {cls: rng.randint(-3, 3) for cls in range(n_classes)}
            )
            va, vb = a.mark_vector(), b.mark_vector()
            assert (a + b).mark_vector() == tuple(x + y for x, y in zip(va, vb))
            assert (a * b).mark_vector() == tuple(x * y for x, y in zip(va, vb))


def test_ring_axioms_on_random_elements(suite_groups):
    rng = random.Random(23)
    for _, group in suite_groups:
        n_classes = len(group.subgroup_classes)
        def rand():
            return BurnsideElement(
                group, {cls: rng.randint(-3, 3) for cls in range(n_classes)}
            )
        for _ in range(10):
            a, b, c = rand(), rand(), rand()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_group_mismatch_rejected():
    a = BurnsideElement.basis(eq.cyclic(2), 0)
    b = BurnsideElement.basis(eq.cyclic(2), 0)
    with pytest.raises(ActionError):
        a + b  # different instances are different groups


def test_render_contract():
    c2 = eq.cyclic(2)
    full = c2.class_of_subgroup(range(2))
    triv = c2.class_of_subgroup((0,))
    x = BurnsideElement(c2, {full: 2, triv: -1})
    assert x.render() == "2*[G/G] - 1*[G/e]"
    assert BurnsideElement.zero(c2).render() == "0"
