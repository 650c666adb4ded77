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
from eqzeta.gperm import GPermutation, lefschetz_table, realize
from eqzeta.zeta import zeta_from_lefschetz
from eqzeta.zg import ZGRingElement, canonical_triple

import corpus
from conftest import capped_perm_group, joint_regularity_scan, perm_group_cases, random_gperm


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


def _outcome(check, k, f):
    try:
        check(k, f)
    except EqzetaError as exc:
        return type(exc).__name__, str(exc)
    return "ok", None


def _edge_complex(x, seeds):
    """The complex on the points of the G-permutation x with one edge per
    vertex pair in the orbits of ``seeds`` under G and sigma, and the map
    that sigma induces.  An orbit with an edge whose ends some element of
    G swaps is dropped, so the complex is regular."""
    group, gens = x.group, [x.sigma] + [x.act[s] for s in x.group.generators]
    edges = []
    for u, v in seeds:
        orbit = [tuple(sorted((u, v)))]
        if u == v or orbit[0] in edges:
            continue
        for a, b in orbit:
            for row in gens:
                e = tuple(sorted((row[a], row[b])))
                if e not in orbit:
                    orbit.append(e)
        if not any(row[a] == b and row[b] == a for row in x.act for a, b in orbit):
            edges += orbit
    index = {e: i for i, e in enumerate(edges)}

    def on_edges(row):
        return [index[tuple(sorted((row[a], row[b])))] for a, b in edges]

    images = [[list(x.act[s]), on_edges(x.act[s])] for s in group.generators]
    k = GComplex.from_generator_images(group, [x.n, len(edges)], [[()] * x.n, edges], images)
    return k, GCellularMap(k, [x.sigma, on_edges(x.sigma)])


_REGULARITY_GROUPS = [eq.trivial(), eq.cyclic(2), eq.cyclic(3), eq.cyclic(4), eq.symmetric(3)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_REGULARITY_GROUPS), st.randoms(use_true_random=False), st.data())
def test_first_return_levels_match_the_period_scan(group, rng, data):
    """Random one-dimensional complexes on realized vertices.  Besides
    random pairs, a seed may join x to g∘sigma^j(x) with j half a sigma
    cycle, which fails at level j when sigma^j swaps the two ends."""
    x = random_gperm(group, rng, max_points=12)
    seeds = []
    for _ in range(data.draw(st.integers(1, 3))):
        u = data.draw(st.integers(0, x.n - 1))
        if data.draw(st.booleans()):
            v = data.draw(st.integers(0, x.n - 1))
        else:
            cycle = [u]
            while x.sigma[cycle[-1]] != u:
                cycle.append(x.sigma[cycle[-1]])
            g = data.draw(st.integers(0, group.order - 1))
            v = x.act[g][cycle[len(cycle) // 2]]
        seeds.append((u, v))
    k, f = _edge_complex(x, seeds)
    assert _outcome(check_joint_regularity, k, f) == _outcome(joint_regularity_scan, k, f)


@pytest.mark.parametrize("n", [3, 4, 5, 29])
def test_rotated_edges_with_a_flip_fail_first_at_their_count(n):
    """n edges rotated by f, the last step swapping the ends: f^n is the
    first power that fixes an edge, and it moves the edge's ends."""
    triv = eq.trivial()
    x = GPermutation(triv, 2 * n, [range(2 * n)], [(i + 1) % (2 * n) for i in range(2 * n)])
    k, f = _edge_complex(x, [(0, n)])
    expected = ("RegularityError", f"g∘f^{n} with g=e fixes cell (1,0) but moves its face (0,0)")
    assert _outcome(check_joint_regularity, k, f) == expected
    assert _outcome(joint_regularity_scan, k, f) == expected


@pytest.mark.parametrize("n", [4, 5, 29])
def test_the_least_failing_level_gives_the_witness(n):
    """An n-flip listed before a 3-flip: the first failing power is 3, and
    the witness is the first edge of the 3-flip, not of the n-flip."""
    triv = eq.trivial()
    sigma = [(i + 1) % (2 * n) for i in range(2 * n)] + [2 * n + (i + 1) % 6 for i in range(6)]
    x = GPermutation(triv, 2 * n + 6, [range(2 * n + 6)], sigma)
    k, f = _edge_complex(x, [(0, n), (2 * n, 2 * n + 3)])
    expected = ("RegularityError",
                f"g∘f^3 with g=e fixes cell (1,{n}) but moves its face (0,{2 * n})")
    assert _outcome(check_joint_regularity, k, f) == expected
    assert _outcome(joint_regularity_scan, k, f) == expected


def test_a_failing_level_that_cancels_in_the_alternating_sum_is_checked():
    """Three edges rotated by f with f^3 swapping their ends: the edges'
    triple (e, 3, e) cancels against the vertex 3-cycle's, so only the
    per-dimension classifications hold the failing level 3."""
    x = GPermutation(eq.trivial(), 9, [range(9)], [1, 2, 3, 4, 5, 0, 7, 8, 6])
    k, f = _edge_complex(x, [(0, 3)])
    expected = ("RegularityError", "g∘f^3 with g=e fixes cell (1,0) but moves its face (0,0)")
    assert _outcome(check_joint_regularity, k, f) == expected
    assert _outcome(joint_regularity_scan, k, f) == expected


def test_pair_table_is_the_sum_of_the_dimension_tables():
    for name, k, f in corpus.zeta_pairs():
        for m_max in (0, 2 * f.z_period()):
            old = None
            for d in range(len(k.cells)):
                term = lefschetz_table(f.dim_gperm(d), m_max or f.z_period())
                old = term if old is None else old + term if d % 2 == 0 else old - term
            assert pair_lefschetz_table(k, f, m_max) == old, name


def test_pair_table_messages():
    k = corpus.square_with_half_turn()
    f = GCellularMap(k, [[1, 2, 3, 0], [1, 2, 3, 0]])
    with pytest.raises(EqzetaError, match=r"^m_max=3 is below the sigma period 4; "):
        pair_lefschetz_table(k, f, 3)
    empty = GComplex(eq.trivial(), [], [], [[]])
    with pytest.raises(EqzetaError, match="^complex has no cells$"):
        pair_lefschetz_table(empty, GCellularMap(empty, []))
