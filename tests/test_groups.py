import itertools
import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqzeta as eq
from eqzeta.errors import GroupError

from conftest import capped_perm_group, perm_group_cases


def brute_force_subgroups(group):
    """Oracle: every subset closed under multiplication that contains the
    identity (finite, so closure under inverses is automatic)."""
    elems = list(range(group.order))
    found = []
    for r in range(1, group.order + 1):
        if group.order % r:
            continue
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if group.identity not in s:
                continue
            if all(group.mul(a, b) in s for a in s for b in s):
                found.append(tuple(sorted(s)))
    return found


def test_build_cyclic_one_is_trivial():
    g = eq.cyclic(1)
    assert g.order == 1
    assert g.identity == 0


def test_build_symmetric_three():
    g = eq.symmetric(3)
    assert g.order == 6


def test_generator_closure_matches_symmetric_table():
    g = eq.from_permutations(3, [[1, 0, 2], [1, 2, 0]])
    s3 = eq.symmetric(3)
    assert g.order == 6
    # isomorphic: brute-force search over bijections fixing the identity
    n = 6
    others = [x for x in range(n) if x != g.identity]
    targets = [x for x in range(n) if x != s3.identity]
    found = False
    for images in itertools.permutations(targets):
        phi = {g.identity: s3.identity}
        phi.update(dict(zip(others, images)))
        if all(
            phi[g.mul(a, b)] == s3.mul(phi[a], phi[b])
            for a in range(n)
            for b in range(n)
        ):
            found = True
            break
    assert found


def test_build_group_from_spec_dicts():
    assert eq.build_group({"type": "cyclic", "n": 4}).order == 4
    assert eq.build_group({"type": "dihedral", "n": 4}).order == 8
    assert (
        eq.build_group(
            {"type": "product", "factors": [{"type": "cyclic", "n": 2}, {"type": "cyclic", "n": 3}]}
        ).order
        == 6
    )
    g = eq.build_group({"type": "table", "mul": [[0, 1], [1, 0]]})
    assert g.order == 2


def test_non_associative_table_rejected():
    # a quasigroup table that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError):
        eq.FiniteGroup(table)


def test_non_bijective_generator_rejected():
    with pytest.raises(GroupError):
        eq.from_permutations(3, [[0, 0, 2]])


def test_order_bound_enforced():
    with pytest.raises(GroupError):
        eq.symmetric(8)  # 40320 > 5040
    with pytest.raises(GroupError):
        eq.cyclic(17, order_bound=16)


def test_a_group_without_generators_builds_nothing_of_its_point_count():
    tracemalloc.start()
    try:
        group = eq.build_group({"type": "perm-gens", "points": 10**6, "generators": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 1
    assert peak < 2**20


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda: eq.cyclic(10**12), "1000000000000"),
        (lambda: eq.dihedral(10**12), "2000000000000"),
        (lambda: eq.symmetric(13), "6227020800"),
        (lambda: eq.symmetric(10**12), "1000000000000!"),
    ],
    ids=["cyclic", "dihedral", "symmetric", "symmetric_huge"],
)
def test_builders_check_the_order_bound_before_building(build, order):
    with pytest.raises(GroupError, match=f"^group order {order} exceeds the bound 5040$"):
        build()


_C2 = {"type": "cyclic", "n": 2}


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "cyclic", "n": [1]}, "n: expected an integer, got [1]"),
        ({"type": "cyclic", "n": None}, "n: expected an integer, got None"),
        ({"type": "cyclic", "n": 3.7}, "n: expected an integer, got 3.7"),
        ({"type": "cyclic", "n": "3"}, "n: expected an integer, got '3'"),
        ({"type": "dihedral", "n": float("inf")}, "n: expected an integer, got inf"),
        ({"type": "symmetric", "n": True}, "n: expected an integer, got True"),
        ({"type": "product", "factors": 5}, "factors: expected an array"),
        ({"type": "product", "factors": [1, 2]}, "factors[0]: expected an object"),
        ({"type": "product", "factors": [_C2, {"type": "cyclic", "n": "2"}]},
         "factors[1].n: expected an integer, got '2'"),
        ({"type": "product", "factors": [_C2, {"type": "product", "factors": [_C2, 2]}]},
         "factors[1].factors[1]: expected an object"),
        ({"type": "perm-gens", "points": 2, "generators": "ab"}, "generators: expected an array"),
        ({"type": "perm-gens", "points": 3, "generators": [[0, 1, "x"]]},
         "generators[0][2]: expected an integer, got 'x'"),
        ({"type": "perm-gens", "points": -1, "generators": []}, "points: must be nonnegative"),
        ({"type": "table", "mul": 5}, "mul: expected an array"),
        ({"type": "table", "mul": [["a"]]}, "mul[0][0]: expected an integer, got 'a'"),
        ({"type": "table", "mul": [[0]], "labels": 5}, "labels: expected an array"),
        ({"type": "table", "mul": [[0]], "generators": 5}, "generators: expected an array"),
        ({"type": "table", "mul": [[0, 1], [1, 0]], "generators": [None]},
         "generators[0]: expected an integer, got None"),
    ],
)
def test_malformed_group_descriptions_raise_group_error(spec, message):
    with pytest.raises(GroupError) as info:
        eq.build_group(spec)
    assert str(info.value) == message


def oracle_associativity_witness(table):
    """The first (a, b, c) in lexicographic order with (ab)c != a(bc)."""
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


def _build_error(table, generators=None):
    try:
        eq.FiniteGroup(table, generators=generators)
    except GroupError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3)
        )
    ),
    st.data(),
)
def test_light_associativity_test_matches_the_full_check(case, data):
    group = capped_perm_group(*case)
    table = [[group.mul(a, b) for b in range(group.order)] for a in range(group.order)]
    others = [g for g in range(group.order) if g != group.identity]
    if others:  # change one entry off the identity row and column
        a, b = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
        table[a][b] = data.draw(st.integers(0, group.order - 1))
    witness = oracle_associativity_witness(table)
    error = _build_error(table)
    if error is None or "associative" in error:
        # every non-identity element is a generator: the full check's witness
        expected = None if witness is None else (
            "multiplication table is not associative at ({},{},{})".format(*witness)
        )
        assert error == expected
    if _build_error(table, list(group.generators)) is None:
        assert witness is None


def test_subgroup_class_counts(suite_groups):
    expected = {
        "trivial": 1,
        "C2": 2,
        "C3": 2,
        "C4": 3,
        "C2xC2": 5,
        "S3": 4,
        "D4": 8,
    }
    for name, group in suite_groups:
        assert len(group.subgroup_classes) == expected[name], name


def test_class_reps_are_lex_minimal(suite_groups):
    for _, group in suite_groups:
        for rep in group.subgroup_classes.classes:
            conjugates = {
                group.conjugate_subgroup(a, rep.elements) for a in range(group.order)
            }
            assert rep.elements == min(conjugates)


def test_class_sizes_sum_to_total_subgroup_count(suite_groups):
    for name, group in suite_groups:
        if group.order > 8:
            continue
        oracle = brute_force_subgroups(group)
        table = group.subgroup_classes
        assert sum(table.class_sizes) == len(oracle), name
        assert set(group.all_subgroups) == set(oracle), name


def test_subconjugacy_is_partial_order(suite_groups):
    for _, group in suite_groups:
        sub = group.subgroup_classes.subconjugacy
        n = len(sub)
        for i in range(n):
            assert sub[i][i]
            for j in range(n):
                if i != j and sub[i][j]:
                    assert not sub[j][i]
                for k in range(n):
                    if sub[i][j] and sub[j][k]:
                        assert sub[i][k]


def test_normalizer_trivial_cases(suite_groups):
    for _, group in suite_groups:
        everything = tuple(range(group.order))
        assert group.normalizer(everything) == everything
        assert group.normalizer((group.identity,)) == everything


def test_normalizer_of_order_two_in_s3_is_itself():
    s3 = eq.symmetric(3)
    h = next(
        rep.elements for rep in s3.subgroup_classes.classes if rep.order == 2
    )
    assert s3.normalizer(h) == h


def test_normalizer_contains_subgroup_and_divides_order(suite_groups):
    for _, group in suite_groups:
        for rep in group.subgroup_classes.classes:
            norm = group.normalizer(rep.elements)
            assert set(rep.elements) <= set(norm)
            assert group.order % len(norm) == 0


def test_marks_trivial_group():
    g = eq.trivial()
    assert g.table_of_marks.matrix == ((1,),)


def test_marks_cyclic_two():
    g = eq.cyclic(2)
    assert g.table_of_marks.matrix == ((2, 0), (1, 1))


def test_marks_s3_regular_entry():
    s3 = eq.symmetric(3)
    assert s3.table_of_marks.matrix[0][0] == 6


def test_marks_triangular_and_transitive(suite_groups):
    for _, group in suite_groups:
        marks = group.table_of_marks.matrix
        sub = group.subgroup_classes.subconjugacy
        classes = group.subgroup_classes.classes
        n = len(marks)
        for k in range(n):
            assert marks[k][k] >= 1
            # first column is the index [G:K]
            assert marks[k][0] == group.order // classes[k].order
            for h in range(n):
                if not sub[h][k]:
                    assert marks[k][h] == 0


def test_coset_order(suite_groups):
    for _, group in suite_groups:
        for rep in group.subgroup_classes.classes:
            for a in group.normalizer(rep.elements):
                w = group.coset_order(rep.elements, a)
                assert group.power(a, w) in set(rep.elements)
                for j in range(1, w):
                    assert group.power(a, j) not in set(rep.elements)


# -- the lattice algorithms the library used before cyclic extension, kept as
# oracles for the fast routes ----------------------------------------------------


def oracle_closure(group, seed):
    """Subgroup generated by seed: multiply everything by the newest elements
    on both sides until nothing new appears."""
    elems = {group.identity}
    frontier = []
    for g in seed:
        if g not in elems:
            elems.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for a in list(elems):
            for b in frontier:
                for c in (group.mul(a, b), group.mul(b, a)):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(elems))


def oracle_all_subgroups(group):
    """Closure over every single-element extension of every subgroup found."""
    triv = (group.identity,)
    seen = {triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for h in frontier:
            for g in range(group.order):
                if g in h:
                    continue
                k = oracle_closure(group, h + (g,))
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier = nxt
    return tuple(sorted(seen, key=lambda t: (len(t), t)))


def oracle_classes(group):
    """(representatives, class sizes): least member of each conjugate orbit."""
    sizes = {}
    done = set()
    for h in oracle_all_subgroups(group):
        if h in done:
            continue
        orbit = {group.conjugate_subgroup(a, h) for a in range(group.order)}
        done |= orbit
        sizes[min(orbit)] = len(orbit)
    reps = sorted(sizes, key=lambda t: (len(t), t))
    return reps, [sizes[r] for r in reps]


def oracle_subconjugacy(group, reps):
    """All pairs: does some conjugate of reps[i] lie in reps[j]?"""
    return tuple(
        tuple(
            any(set(group.conjugate_subgroup(a, hi)) <= set(kj) for a in range(group.order))
            for kj in reps
        )
        for hi in reps
    )


def oracle_marks(group, reps):
    """Count the left cosets aK with a^-1 H a inside K."""
    matrix = []
    for k in reps:
        coset_reps = {frozenset(group.mul(a, x) for x in k): a for a in range(group.order)}
        matrix.append(tuple(
            sum(
                all(group.conj(group.inv(a), x) in k for x in h)
                for a in coset_reps.values()
            )
            for h in reps
        ))
    return tuple(matrix)


def _assert_lattice_matches_oracles(group):
    assert group.all_subgroups == oracle_all_subgroups(group)
    reps, sizes = oracle_classes(group)
    table = group.subgroup_classes
    assert [r.elements for r in table.classes] == reps
    assert list(table.class_sizes) == sizes
    assert table.subconjugacy == oracle_subconjugacy(group, reps)
    assert group.table_of_marks.matrix == oracle_marks(group, reps)
    assert list(table.normalizers) == [oracle_normalizer(group, rep) for rep in reps]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3)
        )
    )
)
def test_lattice_matches_oracles(case):
    _assert_lattice_matches_oracles(capped_perm_group(*case))


def test_lattice_matches_oracles_on_s4xc2():
    _assert_lattice_matches_oracles(eq.product(eq.symmetric(4), eq.cyclic(2)))


def _check_marks_against_indices(group):
    marks = group.table_of_marks.matrix
    for k, rep in enumerate(group.subgroup_classes.classes):
        assert marks[k][0] == group.order // rep.order
        assert marks[k][k] == len(group.normalizer(rep.elements)) // rep.order


def test_symmetric_five_literature_counts():
    s5 = eq.symmetric(5)
    assert len(s5.all_subgroups) == 156
    assert len(s5.subgroup_classes) == 19
    assert sum(s5.subgroup_classes.class_sizes) == 156
    _check_marks_against_indices(s5)


def test_elementary_abelian_32_literature_counts():
    # subspaces of F_2^5 by dimension: Gaussian binomials 1, 31, 155, 155, 31, 1
    group = eq.cyclic(2)
    for _ in range(4):
        group = eq.product(group, eq.cyclic(2))
    assert len(group.all_subgroups) == 374
    assert len(group.subgroup_classes) == 374
    by_order = Counter(len(h) for h in group.all_subgroups)
    assert by_order == {1: 1, 2: 31, 4: 155, 8: 155, 16: 31, 32: 1}
    _check_marks_against_indices(group)


def test_class_of_subgroup_maps_every_conjugate(suite_groups):
    s4xc2 = eq.product(eq.symmetric(4), eq.cyclic(2))
    for name, group in suite_groups + [("S4xC2", s4xc2)]:
        table = group.subgroup_classes
        for class_id, rep in enumerate(table.classes):
            conjugates = {
                group.conjugate_subgroup(a, rep.elements) for a in range(group.order)
            }
            assert len(conjugates) == table.class_sizes[class_id], name
            for k in conjugates:
                assert group.class_of_subgroup(reversed(k)) == class_id, name
        assert sum(table.class_sizes) == len(group.all_subgroups), name
        if group.order > 1:
            with pytest.raises(GroupError):
                group.class_of_subgroup(range(1, group.order))
        for g in range(group.order):
            if group.element_order(g) > 2:
                with pytest.raises(GroupError):
                    group.class_of_subgroup((group.identity, g))


# -- the canonical-pair and normalizer algorithms the library used before the
# lattice pass recorded conjugators and normalizers, kept as oracles -----------


def oracle_normalizer(group, elems):
    """Scan G for the a with a H a^-1 = H."""
    t = tuple(sorted(elems))
    if not group.is_subgroup(t):
        raise GroupError(f"{t} is not a subgroup")
    s = set(t)
    return tuple(a for a in range(group.order) if {group.conj(a, h) for h in t} == s)


def oracle_canonical_pair(group, h_elems, a):
    """Least (c^-1 H c, least element of c^-1 a c H) over every c in G."""
    h = tuple(sorted(h_elems))
    if not group.is_subgroup(h):
        raise GroupError(f"{h} is not a subgroup")
    if a not in oracle_normalizer(group, h):
        raise GroupError(f"element {a} does not normalize the subgroup {h}")
    best = None
    for c in range(group.order):
        ic = group.inv(c)
        h_c = tuple(sorted(group.conj(ic, x) for x in h))
        cand = (h_c, group.coset_min(h_c, group.conj(ic, a)))
        if best is None or cand < best:
            best = cand
    return group.class_of_subgroup(best[0]), best[1]


def _outcome(f, *args):
    try:
        return f(*args)
    except GroupError as exc:
        return f"GroupError: {exc}"


def _assert_pairs_match_oracles(group, extra_tuples=()):
    from eqzeta.zg import canonical_pair

    for h in list(group.all_subgroups) + list(extra_tuples):
        repeated = len(set(h)) < len(h)
        assert _outcome(group.normalizer, h) == _outcome(oracle_normalizer, group, h)
        for a in range(-1, group.order + 1):
            new = _outcome(canonical_pair, group, h, a)
            old = _outcome(oracle_canonical_pair, group, h, a)
            if not repeated:
                assert new == old, (h, a)
            else:
                # never a subgroup as given: both reject it
                assert new == f"GroupError: {tuple(sorted(h))} is not a subgroup", (h, a)
                assert old.startswith("GroupError: "), (h, a)


def _assert_conjugators_are_stored_correctly(group):
    classes = group.subgroup_classes.classes
    for h in group.all_subgroups:
        k, c = group.class_conjugator(h)
        assert group.conjugate_subgroup(c, classes[k].elements) == h


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3)
        )
    ),
    st.data(),
)
def test_pairs_and_normalizers_match_oracles(case, data):
    group = capped_perm_group(*case)
    element = st.integers(0, group.order - 1)
    extra = data.draw(st.lists(st.lists(element, max_size=6), max_size=6))
    # subgroups with one element listed twice
    extra += [h + (data.draw(st.sampled_from(h)),) for h in group.all_subgroups]
    _assert_pairs_match_oracles(group, [tuple(t) for t in extra])
    _assert_conjugators_are_stored_correctly(group)


def test_pairs_and_normalizers_match_oracles_on_s4xc2():
    group = eq.product(eq.symmetric(4), eq.cyclic(2))
    _assert_pairs_match_oracles(group, [(0, 1), (0, 0, 1), ()])
    _assert_conjugators_are_stored_correctly(group)


def test_conjugators_are_stored_correctly(suite_groups):
    for _, group in suite_groups:
        _assert_conjugators_are_stored_correctly(group)


def test_pair_table_keys_are_the_coset_representatives(suite_groups):
    for _, group in suite_groups:
        for k, rep in enumerate(group.subgroup_classes.classes):
            h = rep.elements
            reps = sorted({group.coset_min(h, a) for a in oracle_normalizer(group, h)})
            assert list(group.pair_table[k]) == reps


# -- the cyclic-extension lattice the library used before zuppo extension of
# class representatives, kept as an oracle -------------------------------------


def oracle_cyclic_extension(group):
    """Every subgroup, sorted by (order, elements): each subgroup found is
    joined with one generator of each cyclic subgroup not already contained,
    closed over the generators it was found with plus that one."""
    cyclic_gens = {group.closure((g,)): g for g in range(group.order)}.values()
    trivial = (group.identity,)
    gens_of = {trivial: ()}
    queue = [trivial]
    for h in queue:
        h_set = set(h)
        for g in cyclic_gens:
            if g in h_set:
                continue
            gens = gens_of[h] + (g,)
            k = group.closure(gens)
            if k not in gens_of:
                gens_of[k] = gens
                queue.append(k)
    return tuple(sorted(gens_of, key=lambda t: (len(t), t)))


def _assert_discovery_matches_oracles(group):
    subgroups = oracle_cyclic_extension(group)
    assert group.all_subgroups == subgroups
    orbit_of = {}
    for h in subgroups:
        if h not in orbit_of:
            orbit = {group.conjugate_subgroup(a, h) for a in range(group.order)}
            orbit_of.update(dict.fromkeys(orbit, orbit))
    reps = sorted({min(orbit) for orbit in orbit_of.values()}, key=lambda t: (len(t), t))
    table = group.subgroup_classes
    assert [r.elements for r in table.classes] == reps
    assert list(table.class_sizes) == [len(orbit_of[r]) for r in reps]
    assert table.subconjugacy == oracle_subconjugacy(group, reps)
    assert group.table_of_marks.matrix == oracle_marks(group, reps)
    assert list(table.normalizers) == [oracle_normalizer(group, rep) for rep in reps]
    for h in subgroups:
        k, c = group.class_conjugator(h)
        # the greatest c with c K c^-1 = H, as the conjugation pass stores it
        assert c == max(
            a for a in range(group.order) if group.conjugate_subgroup(a, reps[k]) == h
        ), h
        assert group.normalizer(h) == oracle_normalizer(group, h), h


@settings(max_examples=60, deadline=None)
@given(perm_group_cases(6).filter(lambda case: case[0] >= 4))  # so A5, S4 are drawn
def test_discovery_matches_oracles_on_random_groups(case):
    _assert_discovery_matches_oracles(capped_perm_group(*case, cap=60))


@pytest.mark.parametrize("gens", [
    [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]],  # A5, perfect
    [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]],  # S5, with A5 inside
], ids=["A5", "S5"])
def test_discovery_matches_oracles_on_groups_with_perfect_subgroups(gens):
    _assert_discovery_matches_oracles(eq.from_permutations(5, gens))


def test_symmetric_six_literature_counts():
    s6 = eq.symmetric(6)
    assert len(s6.all_subgroups) == 1455
    assert len(s6.subgroup_classes) == 56
    assert sum(s6.subgroup_classes.class_sizes) == 1455
    _check_marks_against_indices(s6)


def test_each_join_extends_a_class_representative():
    # the generators are conjugated along with each new representative, so
    # every join closes a representative's generators plus one zuppo's
    group = eq.product(eq.symmetric(4), eq.cyclic(2))
    seeds = []
    closure = group.closure
    group.closure = lambda seed: seeds.append(tuple(seed)) or closure(seed)
    group.all_subgroups
    del group.closure
    reps = {rep.elements for rep in group.subgroup_classes.classes}
    assert all(group.closure(seed[:-1]) in reps for seed in seeds)


# -- what each derived table costs is paid only when it is read ----------------


def test_classes_conjugators_normalizers_and_pairs_leave_the_marks_unread():
    group = eq.product(eq.symmetric(4), eq.cyclic(2))
    table = group.subgroup_classes
    for rep in table.classes:
        group.class_conjugator(rep.elements)
        group.normalizer(rep.elements)
    group.pair_table
    assert "table_of_marks" not in group.__dict__
    assert "_marks" not in table.__dict__ and "subconjugacy" not in table.__dict__
    assert group.table_of_marks.matrix[0][0] == group.order


def test_elementary_abelian_64_literature_counts():
    # subspaces of F_2^6 by dimension: Gaussian binomials 1, 63, 651, 1395, 651, 63, 1;
    # the classes alone, as `subgroups` reads them
    group = eq.cyclic(2)
    for _ in range(5):
        group = eq.product(group, eq.cyclic(2))
    table = group.subgroup_classes
    assert len(table) == 2825
    assert Counter(rep.order for rep in table.classes) == {
        1: 1, 2: 63, 4: 651, 8: 1395, 16: 651, 32: 63, 64: 1
    }
    assert set(table.class_sizes) == {1}
    assert "table_of_marks" not in group.__dict__


def test_marks_and_subconjugacy_match_oracles_on_d4xd4():
    group = eq.product(eq.dihedral(4), eq.dihedral(4))
    reps = [rep.elements for rep in group.subgroup_classes.classes]
    assert len(reps) == 214
    assert group.table_of_marks.matrix == oracle_marks(group, reps)
    assert group.subgroup_classes.subconjugacy == oracle_subconjugacy(group, reps)


def test_permutation_groups_compose_only_the_moved_points(monkeypatch, capsys, tmp_path):
    # S5 on five of 20000 points: elements are composed on the moved points
    # only, so the work and the answer are those of S5 on 5 points
    from eqzeta import groups
    from eqzeta.cli import run_command

    small = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
    where = [3, 700, 19999, 12, 5000]  # point i of the small action sits at where[i]
    large = []
    for g in small:
        image = list(range(20000))
        for i, x in enumerate(where):
            image[x] = where[g[i]]
        large.append(image)
    composed = Counter()
    compose = groups._compose

    def counting(p, q):
        composed["entries"] += len(q)
        if composed["entries"] > 200000:  # S5 on 5 points composes 120 * 122 * 5
            raise AssertionError("composition follows the point count")
        return compose(p, q)

    with monkeypatch.context() as patched:
        patched.setattr(groups, "_compose", counting)
        built = [eq.from_permutations(n, gens) for n, gens in ((5, small), (20000, large))]
    assert composed["entries"] <= 2 * 120 * 122 * 5
    a, b = built
    assert a.order == b.order == 120 and a.generators == b.generators
    assert all(a.mul(x, y) == b.mul(x, y) for x in range(120) for y in range(120))
    outputs = []
    for n, gens in ((5, small), (20000, large)):
        path = tmp_path / f"s5_on_{n}.json"
        path.write_text(json.dumps({"kind": "group", "type": "perm-gens", "points": n,
                                    "generators": gens}))
        assert run_command(["subgroups", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""
