import ast
import itertools
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqzeta as eq
from eqzeta.burnside import BurnsideElement
from eqzeta.errors import ActionError, EqzetaError, GroupError
from eqzeta.gperm import realize
from eqzeta.zg import (
    ClassicalZeta,
    ZGRingElement,
    _basis_product,
    _mackey_product,
    canonical_triple,
    coset_model_row,
    orbit_triple,
    triple_index,
    triple_rep,
    zg_contains,
    zg_contains_bruteforce,
)

from conftest import (
    basis_product_oracle,
    canonical_triples,
    capped_perm_group,
    levelwise_mackey_product,
    perm_group_cases,
    realize_direct,
)


def top_triple(group):
    return canonical_triple(group, range(group.order), 1, group.identity)


def test_full_subgroup_triples_are_canonical(suite_groups):
    for _, group in suite_groups:
        for m in range(1, 5):
            t = canonical_triple(group, range(group.order), m, group.identity)
            assert t.m == m
            assert t.alpha == group.identity


def test_s3_order_two_subgroups_collapse_to_one_class():
    s3 = eq.symmetric(3)
    seen = set()
    for h in s3.all_subgroups:
        if len(h) != 2:
            continue
        nontrivial = next(x for x in h if x != s3.identity)
        seen.add(canonical_triple(s3, h, 1, nontrivial))
    assert len(seen) == 1


def test_alpha_outside_normalizer_rejected():
    s3 = eq.symmetric(3)
    h = next(h for h in s3.all_subgroups if len(h) == 2)
    outside = next(a for a in range(6) if a not in s3.normalizer(h))
    with pytest.raises(GroupError):
        canonical_triple(s3, h, 1, outside)
    with pytest.raises(EqzetaError):
        canonical_triple(s3, h, 0, next(iter(h)))


def test_everything_is_contained_in_the_top_class(suite_groups):
    for _, group in suite_groups:
        top = top_triple(group)
        for t in canonical_triples(group, 4):
            assert zg_contains(group, t, top)


def test_divisibility_blocks_containment():
    triv = eq.trivial()
    t3 = canonical_triple(triv, (0,), 3, 0)
    t2 = canonical_triple(triv, (0,), 2, 0)
    assert not zg_contains(triv, t3, t2)
    assert zg_contains(triv, canonical_triple(triv, (0,), 4, 0), t2)


def test_even_shift_is_inside_the_twisted_class():
    c2 = eq.cyclic(2)
    inner = canonical_triple(c2, (0,), 2, 0)
    outer = canonical_triple(c2, (0,), 1, 1)
    assert zg_contains(c2, inner, outer)
    assert not zg_contains(c2, outer, inner)


def test_containment_criterion_against_bruteforce(suite_groups):
    for name, group in suite_groups:
        triples = canonical_triples(group, 4)
        for t1, t2 in itertools.product(triples, repeat=2):
            assert zg_contains(group, t1, t2) == zg_contains_bruteforce(
                group, t1, t2
            ), (name, t1, t2)


@settings(max_examples=25, deadline=None)
@given(perm_group_cases(4))
def test_containment_criterion_against_bruteforce_on_random_groups(case):
    group = capped_perm_group(*case)
    triples = canonical_triples(group, 3)
    for t1, t2 in itertools.product(triples, repeat=2):
        assert zg_contains(group, t1, t2) == zg_contains_bruteforce(group, t1, t2), (t1, t2)


def test_multiplication_by_one_point_set_is_identity(suite_groups):
    for _, group in suite_groups:
        one = ZGRingElement.one(group)
        for t in canonical_triples(group, 3):
            x = ZGRingElement.basis(group, t)
            assert one * x == x


def test_trivial_group_cycle_products():
    triv = eq.trivial()
    def cyc(m):
        return ZGRingElement.basis(triv, canonical_triple(triv, (0,), m, 0))
    assert cyc(2) * cyc(3) == cyc(6)
    assert cyc(2) * cyc(2) == 2 * cyc(2)


def _assert_mackey_matches_oracle(group, t1, t2):
    expected = basis_product_oracle(group, t1, t2)
    assert _mackey_product(group, t1, t2) == expected, (group.name, t1, t2)
    assert _mackey_product(group, t2, t1) == expected, (group.name, t2, t1)
    assert _basis_product(group, t1, t2) == expected
    points = sum(c * triple_index(group, t) for t, c in expected.items())
    assert points == triple_index(group, t1) * triple_index(group, t2)


@pytest.mark.parametrize(
    "group",
    [eq.cyclic(2), eq.cyclic(3), eq.cyclic(4), eq.symmetric(3), eq.dihedral(4)],
    ids=["C2", "C3", "C4", "S3", "D4"],
)
def test_mackey_product_matches_oracle_exhaustively(group):
    triples = canonical_triples(group, 3)
    for t1, t2 in itertools.combinations_with_replacement(triples, 2):
        _assert_mackey_matches_oracle(group, t1, t2)


@pytest.mark.parametrize(
    "group",
    [eq.symmetric(4), eq.product(eq.cyclic(2), eq.symmetric(3))],
    ids=["S4", "C2xS3"],
)
def test_mackey_product_matches_oracle_on_a_sample(group):
    rng = random.Random(11)
    triples = canonical_triples(group, 3)
    for _ in range(150):
        _assert_mackey_matches_oracle(group, *rng.sample(triples, 2))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3)
        )
    ),
    st.data(),
)
def test_mackey_product_matches_oracle_on_random_groups(case, data):
    group = capped_perm_group(*case, cap=12)
    triples = canonical_triples(group, 4)
    rng = random.Random(data.draw(st.integers(0, 2**32)))  # uniform picks
    for _ in range(5):
        _assert_mackey_matches_oracle(group, rng.choice(triples), rng.choice(triples))


@pytest.mark.parametrize(
    "group, max_m",
    [
        (eq.cyclic(2), 6),
        (eq.symmetric(3), 6),
        (eq.dihedral(4), 5),
        (eq.symmetric(4), 3),
        (eq.product(eq.cyclic(2), eq.symmetric(3)), 4),
    ],
    ids=["C2", "S3", "D4", "S4", "C2xS3"],
)
def test_one_level_product_matches_the_levelwise_oracle_exhaustively(group, max_m):
    triples = canonical_triples(group, max_m)
    for t1, t2 in itertools.combinations_with_replacement(triples, 2):
        expected = levelwise_mackey_product(group, t1, t2)
        assert _mackey_product(group, t1, t2) == expected, (t1, t2)


@settings(max_examples=40, deadline=None)
@given(perm_group_cases(4), st.data())
def test_one_level_product_matches_the_levelwise_oracle_up_to_m_12(case, data):
    """Periods up to 12 reach pairs such as (4, 6), where gcd(m1, m2) > 1
    and lcm(m1, m2) exceeds both."""
    group = capped_perm_group(*case, cap=12)
    triples = st.sampled_from(canonical_triples(group, 12))
    for _ in range(5):
        t1, t2 = data.draw(triples), data.draw(triples)
        expected = levelwise_mackey_product(group, t1, t2)
        assert _mackey_product(group, t1, t2) == expected, (t1, t2)
        assert _mackey_product(group, t2, t1) == expected, (t2, t1)


def test_product_cost_does_not_follow_the_period():
    c2 = eq.cyclic(2)
    x = ZGRingElement.basis(c2, canonical_triple(c2, (0,), 1000000007, 1))
    assert x * x == 2000000014 * x


def test_ring_axioms_on_random_elements(suite_groups):
    rng = random.Random(5)
    for _, group in suite_groups:
        triples = canonical_triples(group, 4)
        def rand():
            picks = rng.sample(triples, min(3, len(triples)))
            return ZGRingElement(group, {t: rng.randint(-3, 3) for t in picks})
        for _ in range(6):
            a, b, c = rand(), rand(), rand()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ZGRingElement.zero(group)


def test_forget_trivial_group_cycle():
    triv = eq.trivial()
    for m in (1, 2, 5):
        z = ZGRingElement.basis(triv, canonical_triple(triv, (0,), m, 0))
        assert z.forget_to_classical() == ClassicalZeta(((m, 1),))


def test_forget_twisted_swap_gives_period_two():
    c2 = eq.cyclic(2)
    z = ZGRingElement.basis(c2, canonical_triple(c2, (0,), 1, 1))
    assert z.forget_to_classical() == ClassicalZeta(((2, 1),))


def test_forget_zero_is_one():
    assert ZGRingElement.zero(eq.trivial()).forget_to_classical() == ClassicalZeta.one()


def test_forget_closed_form_matches_orbit_decomposition(suite_groups):
    for name, group in suite_groups:
        for t in canonical_triples(group, 6):
            model = realize(group, t)
            exps = {}
            for length in model.sigma_cycle_lengths():
                exps[length] = exps.get(length, 0) + 1
            direct = ClassicalZeta.from_exponents(exps)
            closed = ZGRingElement.basis(group, t).forget_to_classical()
            assert direct == closed, (name, t)


def test_forget_is_additive_to_multiplicative(suite_groups):
    rng = random.Random(17)
    for _, group in suite_groups:
        triples = canonical_triples(group, 4)
        for _ in range(5):
            picks = rng.sample(triples, min(3, len(triples)))
            a = ZGRingElement(group, {t: rng.randint(-3, 3) for t in picks})
            picks = rng.sample(triples, min(3, len(triples)))
            b = ZGRingElement(group, {t: rng.randint(-3, 3) for t in picks})
            assert (a + b).forget_to_classical() == (
                a.forget_to_classical() * b.forget_to_classical()
            )


def test_degree():
    assert ClassicalZeta(((4, 1),)).degree() == 4
    a = ClassicalZeta(((2, 3), (6, -1)))
    b = ClassicalZeta(((2, -3), (3, 2)))
    assert (a * b).degree() == a.degree() + b.degree()


def test_classical_render_contract():
    assert ClassicalZeta(((2, 3), (6, -1))).render() == "(1-t^2)^3 (1-t^6)^-1"
    assert ClassicalZeta(((2, 1),)).render() == "(1-t^2)"
    assert ClassicalZeta.one().render() == "1"


def test_zg_render_zero():
    assert ZGRingElement.zero(eq.trivial()).render() == "0"


def test_triple_index_and_period(suite_groups):
    for _, group in suite_groups:
        for t in canonical_triples(group, 3):
            model = realize(group, t)
            assert eq.triple_index(group, t) == model.n
            assert eq.triple_z_period(group, t) == model.z_period()


def test_coset_model_rows_match_the_direct_model(suite_groups):
    """The row of (j, b) is act[b] after sigma^j on the levelwise model; j
    runs to 2m + 1, so the level wraps up to three times."""
    for _, group in suite_groups:
        for t in canonical_triples(group, 3):
            direct = realize_direct(group, t)
            cosets = group.left_cosets(triple_rep(group, t)[0])
            sigma_j = tuple(range(direct.n))
            for j in range(2 * t.m + 2):
                for b in range(group.order):
                    expected = tuple(direct.act[b][x] for x in sigma_j)
                    assert coset_model_row(group, t, cosets, j, b) == expected, (t, j, b)
                sigma_j = tuple(direct.sigma[x] for x in sigma_j)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_group_mismatch_errors_keep_their_types(op):
    g1, g2 = eq.cyclic(2), eq.cyclic(2)
    with pytest.raises(EqzetaError) as info:
        op(ZGRingElement.one(g1), ZGRingElement.one(g2))
    assert not isinstance(info.value, ActionError)
    with pytest.raises(ActionError):
        op(BurnsideElement.zero(g1), BurnsideElement.zero(g2))


def test_zg_does_not_import_gperm():
    tree = ast.parse(Path(eq.zg.__file__).read_text(encoding="utf-8"))
    names = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert not [name for name in names if "gperm" in name]


def test_orbit_triple_rejects_a_step_that_is_not_a_permutation():
    group = eq.trivial()
    # a constant row: the walk from 0 goes to 1 and stays there
    with pytest.raises(AssertionError, match="walk from 0"):
        orbit_triple(group, (group.identity,), [(0, 1, 2)], (1, 1, 1), 1, group.identity, 0)
