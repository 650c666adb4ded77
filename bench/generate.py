"""Seeded input generator for the eqzeta benchmark.

Run as a child process by ``run.py``:

    python3 bench/generate.py WORKLOAD SEED WORKDIR [--tiny]

It writes the documents of one workload into WORKDIR together with
``manifest.json``, which lists the operations of one pass, what each step
must print, and the fewest operations a run makes (``min_ops``: 100 where
operations are cheap, so that the tail is p90, and 40 where they are slow,
so that it is p75).  Expected outputs are computed here, outside the timed region,
from elements known before the program sees any document (the realized or
written element) or by brute-force routes through public functions.  The
program under test only ever receives the generated documents.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

from eqzeta.groups import build_group, dihedral
from eqzeta.gperm import GPermutation, classify, coset_representatives, realize, realize_element
from eqzeta.zg import ClassicalZeta, ZGRingElement, canonical_triple, triple_index, triple_z_period


def text_of(z: ZGRingElement) -> str:
    """What ``classify``, ``zeta-solve``, ``mul`` and friends print for z."""
    return z.render() + "\n" + z.forget_to_classical().render() + "\n"


def ok(text: str) -> dict:
    return {"stdout": text}


ERROR = {"error": True}


class Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def doc(self, stem: str, obj: dict) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:03d}_{stem}.json"
        path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
        return str(path)

    def path(self, stem: str) -> str:
        self.count += 1
        return str(self.workdir / f"{self.count:03d}_{stem}.json")


# -- group specs -------------------------------------------------------------


def c2_spec(rng: random.Random) -> dict:
    """One of the three spellings of the group of order 2."""
    return rng.choice(
        [
            {"type": "cyclic", "n": 2},
            {"type": "symmetric", "n": 2},
            {"type": "dihedral", "n": 1},
        ]
    )


def s3_spec(rng: random.Random) -> dict:
    return rng.choice([{"type": "symmetric", "n": 3}, {"type": "dihedral", "n": 3}])


def shuffled_table_spec(n: int, mul_fn, generators, rng: random.Random, name: str) -> dict:
    """A ``table`` document of a group of order n with its elements relabelled
    at random."""
    perm = list(range(n))
    rng.shuffle(perm)
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mul[perm[a]][perm[b]] = perm[mul_fn(a, b)]
    return {
        "type": "table",
        "name": name,
        "mul": mul,
        "generators": [perm[g] for g in generators],
    }


def d30_table_spec(rng: random.Random) -> dict:
    d30 = dihedral(30)
    return shuffled_table_spec(60, d30.mul, d30.generators, rng, "D30")


def _compose(p, q):
    return tuple(p[x] for x in q)


def _perm_closure_size(gens, n_points: int) -> int:
    identity = tuple(range(n_points))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _is_even(p) -> bool:
    seen = [False] * len(p)
    parity = 0
    for x in range(len(p)):
        length = 0
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            parity ^= (length - 1) & 1
    return parity == 0


def a5_spec(rng: random.Random) -> dict:
    """A5 as ``perm-gens``: a random generating pair of even permutations."""
    while True:
        gens = []
        while len(gens) < 2:
            p = list(range(5))
            rng.shuffle(p)
            if _is_even(p) and p != list(range(5)):
                gens.append(tuple(p))
        if _perm_closure_size(gens, 5) == 60:
            return {"type": "perm-gens", "points": 5, "generators": [list(g) for g in gens]}


def q8_table_spec(rng: random.Random) -> dict:
    """The quaternion group as a ``table`` document, elements in random order."""
    # unit products: (sign, unit) for units 1, i, j, k
    unit = [
        [(1, 0), (1, 1), (1, 2), (1, 3)],
        [(1, 1), (-1, 0), (1, 3), (-1, 2)],
        [(1, 2), (-1, 3), (-1, 0), (1, 1)],
        [(1, 3), (1, 2), (-1, 1), (-1, 0)],
    ]
    elems = [(s, u) for s in (1, -1) for u in range(4)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(a: int, b: int) -> int:
        (s1, u1), (s2, u2) = elems[a], elems[b]
        s, u = unit[u1][u2]
        return index[(s1 * s2 * s, u)]

    return shuffled_table_spec(8, mul, (index[(1, 1)], index[(1, 2)]), rng, "Q8")


# -- random elements -----------------------------------------------------------


def random_pair(group, rng: random.Random):
    """A random subgroup H and a random element a normalizing it."""
    h = rng.choice(group.all_subgroups)
    return h, rng.choice(group.normalizer(h))


def split_parts(z: ZGRingElement):
    pos = ZGRingElement(z.group, {t: c for t, c in z.coeffs.items() if c > 0})
    neg = ZGRingElement(z.group, {t: -c for t, c in z.coeffs.items() if c < 0})
    return pos, neg


def brute_product(z1: ZGRingElement, z2: ZGRingElement) -> ZGRingElement:
    """z1 * z2 by realizing the positive and negative parts, multiplying the
    permutations and classifying, extended bilinearly."""
    group = z1.group
    out = ZGRingElement.zero(group)
    for a, sa in zip(split_parts(z1), (1, -1)):
        for b, sb in zip(split_parts(z2), (1, -1)):
            if a.is_zero() or b.is_zero():
                continue
            p = realize_element(group, a).product(realize_element(group, b))
            out = out + (sa * sb) * classify(p)
    return out


def cycle_type(p: GPermutation) -> ClassicalZeta:
    """prod (1-t^m)^{s_m} with s_m the number of sigma cycles of length m."""
    exps: dict = {}
    for length in p.sigma_cycle_lengths():
        exps[length] = exps.get(length, 0) + 1
    return ClassicalZeta.from_exponents(exps)


def gperm_images(p: GPermutation) -> list:
    return [list(p.act[g]) for g in p.group.generators]


def relabelled(p: GPermutation, rng: random.Random) -> GPermutation:
    tau = list(range(p.n))
    rng.shuffle(tau)
    return p.relabel(tau)


def concatenated_model(group, z: ZGRingElement) -> GPermutation:
    """Disjoint union of the realized basis models of a nonnegative element,
    built in one pass."""
    acts = [[] for _ in range(group.order)]
    sigma = []
    for t in sorted(z.coeffs):
        model = realize(group, t)
        for _ in range(z.coeffs[t]):
            offset = len(sigma)
            for g in range(group.order):
                acts[g].extend(x + offset for x in model.act[g])
            sigma.extend(x + offset for x in model.sigma)
    return GPermutation(group, len(sigma), acts, sigma, validate=False)


def element_with_period(group, rng: random.Random, points: int, period: int, part_cap: int):
    """A nonnegative element with z-period exactly ``period`` and at least
    ``points`` points; no single basis model exceeds ``part_cap`` points."""
    pairs = [
        (h, a)
        for h in group.all_subgroups
        for a in coset_representatives(group, h)
    ]
    coeffs: dict = {}
    n = 0
    reached = 1
    while n < points or reached != period:
        h, a = rng.choice(pairs)
        w = group.coset_order(h, a)
        if period % w:
            continue
        index = group.order // len(h)
        if reached != period:
            m = period // w  # one model that attains the full period
        else:
            divisors = [d for d in range(1, period // w + 1) if (period // w) % d == 0]
            m = rng.choice(divisors)
        if m * index > part_cap:
            continue
        t = canonical_triple(group, h, m, a)
        coeffs[t] = coeffs.get(t, 0) + 1
        n += triple_index(group, t)
        reached = math.lcm(reached, triple_z_period(group, t))
    return ZGRingElement(group, coeffs)


# -- workloads -----------------------------------------------------------------


def lattice(w: Writer, rng: random.Random, tiny: bool) -> dict:
    """In-process ``subgroups`` and ``marks`` on groups of order 16-60.

    A pass runs each document ``copies`` times, alternating the command, and
    the next pass swaps the commands.  The copies put many samples where the
    percentiles fall: by cost, C2^4 holds the median and S4xC2 holds p75.
    """
    if tiny:
        docs = [
            ("S3", 1, {"type": "symmetric", "n": 3}),
            ("D4", 1, {"type": "dihedral", "n": 4}),
            ("C2xC2", 1, {"type": "product", "factors": [c2_spec(rng), c2_spec(rng)]}),
            ("Q8", 1, q8_table_spec(rng)),
            ("C6", 1, {"type": "cyclic", "n": 6}),
        ]
    else:
        s4c2 = [{"type": "symmetric", "n": 4}, c2_spec(rng)]
        rng.shuffle(s4c2)
        docs = [
            ("S4xC2", 3, {"type": "product", "factors": s4c2}),
            ("A5", 1, a5_spec(rng)),
            ("S3xS3", 1, {"type": "product", "factors": [s3_spec(rng), s3_spec(rng)]}),
            ("C2^4", 4, {"type": "product", "factors": [c2_spec(rng) for _ in range(4)]}),
            ("D12", 1, {"type": "dihedral", "n": 12}),
            ("D30", 1, d30_table_spec(rng)),
            ("S4", 1, {"type": "symmetric", "n": 4}),
            ("C48", 1, {"type": "cyclic", "n": 48}),
            ("C4xC4", 1, {"type": "product", "factors": [{"type": "cyclic", "n": 4}] * 2}),
        ]
    passes = [[], []]
    for i, (key, copies, spec) in enumerate(docs):
        path = w.doc(f"group_{key}", dict(spec, kind="group"))
        for p in (0, 1):
            for j in range(copies):
                cmd = ("subgroups", "marks")[(i + j + p) % 2]
                passes[p].append(
                    {"name": f"{cmd}:{key}", "steps": [{"argv": [cmd, path], "expect": {cmd: key}}]}
                )
    return {
        "passes": passes,
        "min_ops": 0 if tiny else 40,
        "sizes": {"groups": {k: copies for k, copies, _ in docs}},
    }


# The ring and lefschetz workloads have a fixed shape, drawn once from
# SHAPE_SEED: which groups, how many terms, which subgroup classes and m, how
# many points.  The run's seed varies only the presentation (conjugates,
# alphas, coefficients, point labels), so runs with different seeds do the
# same amount of work on different documents.
SHAPE_SEED = "eqzeta-bench-shape-1"

# one fixed spelling per group, so that subgroup class ids mean the same
# thing in every run
RING_SPECS = {
    "S4": {"type": "symmetric", "n": 4},
    "D4": {"type": "dihedral", "n": 4},
    "C2xS3": {"type": "product", "factors": [{"type": "cyclic", "n": 2},
                                               {"type": "symmetric", "n": 3}]},
}


def expr_shape(group, shape: random.Random, n_terms: int, m_top: int):
    """n_terms distinct (subgroup class, m) pairs."""
    choices = [(c, m) for c in range(len(group.subgroup_classes)) for m in range(1, m_top + 1)]
    return shape.sample(choices, n_terms)


def present_expr(group, rng: random.Random, terms, coeffs):
    """Raw expr terms for a shape: a random conjugate of each class, a random
    alpha normalizing it and a random coefficient; signs are mixed."""
    signs = [rng.choice((-1, 1)) for _ in terms]
    if len(set(signs)) == 1:
        signs[rng.randrange(len(signs))] *= -1
    raw = []
    z = ZGRingElement.zero(group)
    for (cls, m), sign in zip(terms, signs):
        rep = group.subgroup_classes.classes[cls].elements
        h = group.conjugate_subgroup(rng.randrange(group.order), rep)
        a = rng.choice(group.normalizer(h))
        c = sign * rng.choice(coeffs)
        raw.append({"coeff": c, "H": list(h), "m": m, "alpha": a})
        z = z + ZGRingElement(group, {canonical_triple(group, h, m, a): c})
    return raw, z


def ring(w: Writer, rng: random.Random, tiny: bool) -> dict:
    """In-process ``mul`` and ``st`` on pairs of random expr documents."""
    shape = random.Random(SHAPE_SEED)
    pairs = 6 if tiny else 36
    keys = ("D4",) if tiny else tuple(RING_SPECS)
    n_terms = (2, 3) if tiny else (3, 8)
    groups = {key: build_group(RING_SPECS[key]) for key in keys}
    ops = []
    for i in range(pairs):
        key = keys[i % len(keys)]
        spec, group = RING_SPECS[key], groups[key]
        shapes = [expr_shape(group, shape, shape.randint(*n_terms), 4) for _ in range(2)]
        raw1, z1 = present_expr(group, rng, shapes[0], (1, 2))
        raw2, z2 = present_expr(group, rng, shapes[1], (1, 2))
        f1 = w.doc(f"expr_{key}", {"kind": "expr", "group": spec, "terms": raw1})
        f2 = w.doc(f"expr_{key}", {"kind": "expr", "group": spec, "terms": raw2})
        prod = brute_product(z1, z2)
        if (i // len(keys)) % 2 == 0:
            cmd, expected = "mul", prod
        else:
            cmd, expected = "st", z1 + z2 - prod
        ops.append(
            {
                "name": f"{cmd}:{key}:{i}",
                "steps": [{"argv": [cmd, f1, f2], "expect": ok(text_of(expected))}],
            }
        )
    return {
        "passes": [ops],
        "min_ops": 0 if tiny else 100,
        "sizes": {"groups": list(keys), "pairs": pairs, "terms": list(n_terms), "m": [1, 4],
                  "coeffs": [-2, -1, 1, 2]},
    }


# (group, points, sigma period, copies per pass), in order of cost.  The
# median and p75 fall on the two inputs that run twice per pass; the cheapest
# runs three times, so that four passes make the workload's 40 operations.
LEFSCHETZ_INPUTS = (
    ("D4", 1000, 12, 3),
    ("C2xS3", 1000, 12, 1),
    ("D4", 1000, 40, 2),
    ("S4", 1000, 12, 1),
    ("C2xS3", 1500, 60, 2),
    ("D4", 6000, 12, 1),
)
LEFSCHETZ_TINY = (("D4", 40, 4, 1), ("C2xS3", 30, 6, 1))


def lefschetz_round_trip(w: Writer, key: str, spec: dict, p: GPermutation, z) -> dict:
    gp = w.doc(f"gperm_{key}", {
        "kind": "gperm",
        "group": spec,
        "points": p.n,
        "action": gperm_images(p),
        "sigma": list(p.sigma),
    })
    table = w.path(f"lefschetz_{key}")
    expected = ok(text_of(z))
    return {
        "name": f"lefschetz:{key}:{p.n}",
        "steps": [
            {"argv": ["lefschetz", "--format", "structured", gp], "expect": {"save": table}},
            {"argv": ["zeta-solve", table], "expect": expected},
            {"argv": ["classify", gp], "expect": expected},
        ],
    }


def lefschetz(w: Writer, rng: random.Random, tiny: bool) -> dict:
    """In-process round trip lefschetz -> zeta-solve plus classify on
    relabelled realizations of fixed elements."""
    shape = random.Random(SHAPE_SEED)
    ops = []
    inputs = LEFSCHETZ_TINY if tiny else LEFSCHETZ_INPUTS
    for key, points, period, copies in inputs:
        spec = RING_SPECS[key]
        group = build_group(spec)
        z = element_with_period(group, shape, points, period, max(points // 20, period))
        p = relabelled(concatenated_model(group, z), rng)
        ops += [lefschetz_round_trip(w, key, spec, p, z)] * copies
    return {
        "passes": [ops],
        "min_ops": 0 if tiny else 40,
        "sizes": {"inputs": [list(x) for x in inputs]},
    }


# -- cli_small -----------------------------------------------------------------


SMALL_GROUPS = ("C2", "C3", "C4", "C6", "C8", "S3", "D4", "C2xC2", "C2xC4", "C2^3", "Q8")


def small_spec(key: str, rng: random.Random) -> dict:
    if key == "C2":
        return c2_spec(rng)
    if key[0] == "C" and key[1:].isdigit():
        return {"type": "cyclic", "n": int(key[1:])}
    if key == "S3":
        return s3_spec(rng)
    if key == "D4":
        return {"type": "dihedral", "n": 4}
    if key == "C2xC2":
        return {"type": "product", "factors": [c2_spec(rng), c2_spec(rng)]}
    if key == "C2xC4":
        factors = [c2_spec(rng), {"type": "cyclic", "n": 4}]
        rng.shuffle(factors)
        return {"type": "product", "factors": factors}
    if key == "C2^3":
        return {"type": "product", "factors": [c2_spec(rng) for _ in range(3)]}
    return q8_table_spec(rng)


def small_element(group, rng: random.Random, max_points: int) -> ZGRingElement:
    """A random nonzero nonnegative element with at most ``max_points`` points."""
    while True:
        coeffs: dict = {}
        n = 0
        for _ in range(rng.randint(1, 3)):
            h, a = random_pair(group, rng)
            m = rng.randint(1, 3)
            t = canonical_triple(group, h, m, a)
            if n + triple_index(group, t) > max_points:
                continue
            coeffs[t] = coeffs.get(t, 0) + 1
            n += triple_index(group, t)
        if coeffs:
            return ZGRingElement(group, coeffs)


def cycle_complex(rng: random.Random):
    """A k-gon rotated freely by C_n, plus G-fixed and free isolated vertices.

    Returns the document fields, the group, and the expected chi and zeta
    texts.  The polygon's vertices and edges carry the same (Z x G)-set, so
    they cancel in both invariants; the isolated vertices decide them.
    """
    n = rng.choice((2, 3, 4))
    k = n * rng.choice((2, 3) if n == 2 else (1, 2))
    step = k // n
    spin = rng.randrange(k)
    fixed = rng.randint(0, 3)
    free = rng.randint(0, 1)
    # vertices: polygon 0..k-1, fixed k..k+fixed-1, one free orbit after that
    nv = k + fixed + free * n
    rot_v = [(i + step) % k for i in range(k)]
    rot_v += [k + j for j in range(fixed)]
    base = k + fixed
    rot_v += [base + (j + 1) % n for j in range(free * n)]
    edges = [sorted((i, (i + 1) % k)) for i in range(k)]
    edge_index = {tuple(e): i for i, e in enumerate(edges)}

    def edge_image(perm):
        return [edge_index[tuple(sorted((perm[a], perm[b])))] for a, b in edges]

    fixed_cycle = list(range(fixed))
    rng.shuffle(fixed_cycle)
    sig_v = [(i + spin) % k for i in range(k)]
    sig_v += [k + fixed_cycle[j] for j in range(fixed)]
    sig_v += [base + j for j in range(free * n)]
    fields = {
        "cells": [nv, k],
        "boundary": [[[] for _ in range(nv)], edges],
        "action": [[rot_v, edge_image(rot_v)]],
        "sigma": [sig_v, edge_image(sig_v)],
    }
    spec = {"type": "cyclic", "n": n}
    group = build_group(spec)
    whole = tuple(range(group.order))
    # chi: fixed vertices give [G/G], the free orbit gives [G/e]
    chi_terms = []
    if fixed:
        chi_terms.append(f"{fixed}*[G/G]")
    if free:
        chi_terms.append(f"{free}*[G/e]")
    chi_text = (" + ".join(chi_terms) or "0") + "\n"
    # zeta: sigma permutes the fixed vertices; it is trivial on the free orbit
    coeffs: dict = {}
    seen = [False] * fixed
    for j in range(fixed):
        if seen[j]:
            continue
        length = 0
        x = j
        while not seen[x]:
            seen[x] = True
            x = fixed_cycle[x]
            length += 1
        t = canonical_triple(group, whole, length, group.identity)
        coeffs[t] = coeffs.get(t, 0) + 1
    if free:
        t = canonical_triple(group, (group.identity,), 1, group.identity)
        coeffs[t] = coeffs.get(t, 0) + 1
    return spec, fields, chi_text, text_of(ZGRingElement(group, coeffs))


def cli_small(w: Writer, rng: random.Random, tiny: bool) -> dict:
    """Every subcommand as a ``python -m eqzeta`` subprocess on small inputs."""
    ops = []
    rounds = 1 if tiny else 3
    keys = list(SMALL_GROUPS)
    rng.shuffle(keys)
    for r in range(rounds):
        key = keys[2 * r + 1]
        path = w.doc(f"group_{key}", dict(small_spec(key, rng), kind="group"))
        for cmd in ("subgroups", "marks"):
            ops.append({"name": f"{cmd}:{key}:{r}",
                        "steps": [{"argv": [cmd, path], "expect": {cmd: key}}]})

        # lefschetz -> zeta-solve, and classify, on a realized element
        key = keys[2 * r + 2]
        spec = small_spec(key, rng)
        group = build_group(spec)
        z = small_element(group, rng, 12)
        p = relabelled(realize_element(group, z), rng)
        # one subprocess per operation: the table is saved by one operation
        # and solved by the next
        steps = lefschetz_round_trip(w, key, spec, p, z)["steps"]
        for cmd, step in zip(("lefschetz", "zeta-solve", "classify"), steps):
            ops.append({"name": f"{cmd}:{key}:{r}", "steps": [step]})

        # ring operations and forget on two expr documents
        key = keys[2 * r + 3]
        spec = small_spec(key, rng)
        group = build_group(spec)
        raw1, z1 = present_expr(group, rng, expr_shape(group, rng, rng.randint(2, 3), 2), (1,))
        raw2, z2 = present_expr(group, rng, expr_shape(group, rng, rng.randint(2, 3), 2), (1,))
        f1 = w.doc(f"expr_{key}", {"kind": "expr", "group": spec, "terms": raw1})
        f2 = w.doc(f"expr_{key}", {"kind": "expr", "group": spec, "terms": raw2})
        prod = brute_product(z1, z2)
        pos, neg = split_parts(z1)
        classical = cycle_type(realize_element(group, pos)) * cycle_type(
            realize_element(group, neg)
        ).inverse()
        for cmd, text in (
            ("mul", text_of(prod)),
            ("add", text_of(z1 + z2)),
            ("st", text_of(z1 + z2 - prod)),
        ):
            ops.append({"name": f"{cmd}:{key}:{r}",
                        "steps": [{"argv": [cmd, f1, f2], "expect": ok(text)}]})
        ops.append({"name": f"forget:{key}:{r}",
                    "steps": [{"argv": ["forget", f1], "expect": ok(classical.render() + "\n")}]})

        # acampo on a strata document
        strata = []
        z = ZGRingElement.zero(group)
        for _ in range(rng.randint(1, 3)):
            h, a = random_pair(group, rng)
            n = group.coset_order(h, a)
            m = n * rng.randint(1, 3)
            chi = rng.choice((-2, -1, 1, 2))
            strata.append({"chi": chi, "m": m, "n": n, "H": list(h), "alpha": a})
            z = z + ZGRingElement(group, {canonical_triple(group, h, m // n, a): chi})
        path = w.doc(f"strata_{key}", {"kind": "strata", "group": spec, "strata": strata})
        ops.append({"name": f"acampo:{key}:{r}",
                    "steps": [{"argv": ["acampo", path], "expect": ok(text_of(z))}]})

        # chi and zeta on a polygon complex
        cspec, fields, chi_text, zeta_text = cycle_complex(rng)
        path = w.doc("complex", dict(fields, kind="complex", group=cspec))
        ops.append({"name": f"chi:{r}", "steps": [{"argv": ["chi", path], "expect": ok(chi_text)}]})
        ops.append({"name": f"zeta:{r}", "steps": [{"argv": ["zeta", path], "expect": ok(zeta_text)}]})

    # invalid documents: each must exit 1 with one error line
    c2 = c2_spec(rng)
    bad_gperm = w.doc("bad_commutation", {
        "kind": "gperm", "group": c2, "points": 3, "action": [[1, 0, 2]], "sigma": [1, 2, 0],
    })
    n = rng.choice((2, 3))
    bad_strata = w.doc("bad_divisibility", {  # the generator 1 of C_n has coset order n over e = 0
        "kind": "strata", "group": {"type": "cyclic", "n": n},
        "strata": [{"chi": 1, "m": n * rng.randint(1, 3) + 1, "n": n, "H": [0], "alpha": 1}],
    })
    bad_kind = w.doc("bad_kind", {"kind": rng.choice(("groop", "zeta", "table")), "group": c2})
    for name, cmd, path in (
        ("invalid:commutation", "classify", bad_gperm),
        ("invalid:divisibility", "acampo", bad_strata),
        ("invalid:kind", "forget", bad_kind),
    ):
        ops.append({"name": name, "steps": [{"argv": [cmd, path], "expect": ERROR}]})
    return {
        "passes": [ops],
        "min_ops": 0 if tiny else 100,
        "sizes": {"group_orders": "<= 8", "points": "<= 12", "ops_per_pass": len(ops)},
    }


WORKLOADS = {"cli_small": cli_small, "lattice": lattice, "ring": ring, "lefschetz": lefschetz}


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    tiny = "--tiny" in argv[3:]
    rng = random.Random(f"{workload}:{seed}")
    manifest = WORKLOADS[workload](Writer(workdir), rng, tiny)
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
