import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqzeta as eq
from eqzeta.complexes import (
    GCellularMap,
    GComplex,
    brute_zeta,
    check_joint_regularity,
    pair_lefschetz_table,
)
from eqzeta.burnside import extend_action
from eqzeta.errors import ActionError, EqzetaError, RegularityError
from eqzeta.gperm import realize
from eqzeta.zeta import zeta_from_lefschetz
from eqzeta.zg import ZGRingElement, canonical_triple

import corpus
from conftest import capped_perm_group, perm_group_cases, random_gperm


def test_single_fixed_vertex_chi():
    c2 = eq.cyclic(2)
    k = corpus.point_complex(c2)
    full = c2.class_of_subgroup(range(2))
    assert k.chi_cellwise().coeffs == {full: 1}


def test_free_orbit_chi():
    c2 = eq.cyclic(2)
    k = corpus.free_vertex_orbit(c2)
    triv = c2.class_of_subgroup((0,))
    assert k.chi_cellwise().coeffs == {triv: 1}


def test_square_reflection_chi():
    c2 = eq.cyclic(2)
    k = corpus.square_with_diagonal_reflection()
    full = c2.class_of_subgroup(range(2))
    triv = c2.class_of_subgroup((0,))
    expected = {full: 2, triv: -1}
    assert k.chi_cellwise().coeffs == expected
    assert k.chi_strata().coeffs == expected


def test_chi_methods_agree_on_corpus():
    for name, k, euler in corpus.chi_corpus():
        cellwise = k.chi_cellwise()
        assert cellwise == k.chi_strata(), name
        assert cellwise.point_count() == euler, name


def test_regularity_violation_rejected():
    c2 = eq.cyclic(2)
    # a single segment whose endpoints are swapped: the edge is mapped to
    # itself but its faces move
    with pytest.raises(RegularityError):
        GComplex.from_generator_images(
            c2, [2, 1], [[(), ()], [(0, 1)]], [[[1, 0], [0]]]
        )


def test_action_must_respect_boundary():
    c2 = eq.cyclic(2)
    with pytest.raises(ActionError):
        GComplex.from_generator_images(
            c2,
            [4, 2],
            [[(), (), (), ()], [(0, 1), (2, 3)]],
            [[[1, 0, 2, 3], [1, 0]]],  # vertex swap does not match edge swap
        )


def test_boundary_respect_messages_name_the_first_broken_cell():
    c2 = eq.cyclic(2)
    with pytest.raises(ActionError, match=r"^element g1 does not respect the boundary of cell \(1,0\)$"):
        GComplex.from_generator_images(
            c2, [4, 2], [[(), (), (), ()], [(0, 1), (2, 3)]], [[[1, 0, 2, 3], [1, 0]]]
        )
    # a segment and a loose vertex; the map swaps an end of the segment with it
    k = GComplex(eq.trivial(), [3, 1], [[(), (), ()], [(0, 1)]], [[[0, 1, 2], [0]]])
    with pytest.raises(ActionError, match=r"^map does not respect the boundary of cell \(1,0\)$"):
        GCellularMap(k, [[0, 2, 1], [0]])


def test_action_missing_a_dimension_rejected():
    # the non-identity element gives images in dimension 0 only
    with pytest.raises(ActionError, match="gives images for 1 dimensions, expected 2"):
        GComplex(eq.cyclic(2), [2, 1], [[(), ()], [(0, 1)]], [[[0, 1], [0]], [[1, 0]]])


def test_cellular_map_must_commute_with_action():
    k = corpus.square_with_diagonal_reflection()
    with pytest.raises(ActionError, match="commute"):
        GCellularMap(k, [[1, 2, 3, 0], [1, 2, 3, 0]])  # rotation vs reflection


def test_joint_regularity_violation_reported():
    triv = eq.trivial()
    k = GComplex.from_generator_images(triv, [2, 1], [[(), ()], [(0, 1)]], [])
    f = GCellularMap(k, [[1, 0], [0]])
    with pytest.raises(RegularityError, match="moves its face"):
        check_joint_regularity(k, f)
    with pytest.raises(RegularityError):
        brute_zeta(k, f)


def test_joint_regularity_witness_names_the_first_failing_power():
    # f swaps two disjoint edges; f^2 fixes each edge but swaps its endpoints
    triv = eq.trivial()
    k = GComplex.from_generator_images(triv, [4, 2], [[()] * 4, [(0, 1), (2, 3)]], [])
    f = GCellularMap(k, [[2, 3, 1, 0], [1, 0]])
    with pytest.raises(RegularityError) as info:
        check_joint_regularity(k, f)
    assert str(info.value) == "g∘f^2 with g=e fixes cell (1,0) but moves its face (0,0)"


def test_identity_on_fixed_vertex():
    triv = eq.trivial()
    k = corpus.point_complex(triv)
    f = GCellularMap(k, [[0]])
    z = brute_zeta(k, f)
    assert z == ZGRingElement.basis(triv, canonical_triple(triv, (0,), 1, 0))
    assert z.forget_to_classical().render() == "(1-t)"


def test_quarter_turn_on_square_trivial_group():
    k = corpus.square_trivial()
    f = GCellularMap(k, [[1, 2, 3, 0], [1, 2, 3, 0]])
    z = brute_zeta(k, f)
    assert z.is_zero()
    assert z.forget_to_classical() == eq.ClassicalZeta.one()


def test_quarter_turn_on_square_with_half_turn_group():
    c2_complex = corpus.square_with_half_turn()
    f = GCellularMap(c2_complex, [[1, 2, 3, 0], [1, 2, 3, 0]])
    z = brute_zeta(c2_complex, f)
    assert z.is_zero()
    # the vertex piece alone is the twisted two-level class
    group = c2_complex.group
    vertex_class = eq.classify(f.dim_gperm(0))
    assert vertex_class == ZGRingElement.basis(
        group, canonical_triple(group, (0,), 2, 1)
    )


def test_solver_matches_brute_zeta_on_corpus():
    for name, k, f in corpus.zeta_pairs():
        table = pair_lefschetz_table(k, f)
        assert zeta_from_lefschetz(table) == brute_zeta(k, f), name


def test_forgetting_recovers_euler_characteristic():
    for name, k, euler in corpus.chi_corpus():
        direct = sum(
            (-1) ** d * n for d, n in enumerate(k.cells)
        )
        assert direct == euler, name
        assert k.chi_cellwise().point_count() == direct, name


def test_cell_bound_enforced():
    triv = eq.trivial()
    with pytest.raises(eq.EqzetaError, match="cells"):
        GComplex.from_generator_images(
            triv, [10_001], [[()] * 10_001], []
        )


def oracle_boundary_respected(k):
    """Boundary respect for every element, as checked before the check was
    restricted to the generators; kept as its oracle."""
    for g in range(k.group.order):
        for d in range(1, len(k.cells)):
            perm_d, perm_f = k.action[g][d], k.action[g][d - 1]
            for c, faces in enumerate(k.boundary[d]):
                if tuple(sorted(perm_f[f] for f in faces)) != k.boundary[d][perm_d[c]]:
                    return False
    return True


_CORPUS = [k for _, k, _ in corpus.chi_corpus() if len(k.cells) > 1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(_CORPUS))), st.data())
def test_boundary_check_on_generators_matches_all_elements(i, data):
    k = _CORPUS[i]
    boundary = [list(per_dim) for per_dim in k.boundary]
    if data.draw(st.booleans()):  # replace one face of one cell
        d = data.draw(st.integers(1, len(k.cells) - 1))
        c = data.draw(st.integers(0, k.cells[d] - 1))
        faces = list(boundary[d][c])
        faces[data.draw(st.integers(0, len(faces) - 1))] = data.draw(
            st.integers(0, k.cells[d - 1] - 1)
        )
        boundary[d][c] = faces
    try:
        GComplex(k.group, k.cells, boundary, k.action)
        respected = True
    except RegularityError:  # checked after boundary respect
        respected = True
    except ActionError as exc:
        assert "boundary" in str(exc)
        respected = False
    perturbed = GComplex(k.group, k.cells, boundary, k.action, validate=False)
    assert respected == oracle_boundary_respected(perturbed)


def _complex_outcome(build):
    try:
        k = build()
    except EqzetaError as exc:
        return type(exc).__name__, str(exc)
    return "ok", (k.cells, k.boundary, k.action)


def _old_complex_route(group, cells, boundary, images):
    """``from_generator_images`` as it was: the tables, then the full check."""
    tables = [extend_action(group, c, [per_gen[d] for per_gen in images])[0]
              for d, c in enumerate(cells)]
    return GComplex(group, cells, boundary, [[t[g] for t in tables] for g in range(group.order)])


@settings(max_examples=80, deadline=None)
@given(perm_group_cases(4).filter(lambda case: case[0] >= 3), st.randoms(use_true_random=False),
       st.data())
def test_complex_generator_images_check_matches_the_old_route(case, rng, data):
    """Vertices X and one edge on each vertex, with the same action in both
    dimensions; one image changed may break a relation or the boundary."""
    group = capped_perm_group(*case)
    regular = realize(group, canonical_triple(group, [group.identity], 1, group.identity))
    x = random_gperm(group, rng, max_points=8).disjoint_union(regular)
    n = x.n
    cells, boundary = [n, n], [[()] * n, [(i,) for i in range(n)]]
    images = [[list(x.act[s]), list(x.act[s])] for s in group.generators]
    if images and data.draw(st.booleans()):
        i, d = data.draw(st.integers(0, len(images) - 1)), data.draw(st.integers(0, 1))
        images[i][d] = data.draw(st.permutations(range(n)))
    new = _complex_outcome(lambda: GComplex.from_generator_images(group, cells, boundary, images))
    old = _complex_outcome(lambda: _old_complex_route(group, cells, boundary, images))
    assert new == old
