"""Span recorder for the traced benchmark run.

The program is not edited: ``install`` replaces eqzeta's public functions,
methods and cached properties with timing wrappers from outside, in every
eqzeta module that binds them (``from .gperm import classify`` binds
``classify`` in ``cli`` as well, and the call is looked up there).  Spans are
kept in memory as (name, start, end, parent, op) and written out when the
benchmark ends.  Self time is a span's duration minus the durations of its
direct children; the code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from functools import cached_property
from time import perf_counter

# Counter bookkeeping runs inside a span of this name so that it is subtracted
# from its parent's self time; it is not a layer and is not reported.
COUNTERS = "trace.counters"


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op]
        self.counts: dict[str, float] = {}
        self.op = None
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, after=None):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()
        if after is not None:
            self.call(COUNTERS, after, (self, result, args), {})
        return result

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy (inclusive seconds) and self seconds.

    Spans at or under a COUNTERS span are the benchmark's own bookkeeping and
    are left out; their time is still subtracted from the parent's self time.
    """
    child_time = [0.0] * len(spans)
    bookkeeping = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
        # a parent is recorded before its children
        bookkeeping[i] = name == COUNTERS or (parent >= 0 and bookkeeping[parent])
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if bookkeeping[i]:
            continue
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return stats


def module_self_times(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, entry in stats.items():
        module = name.split(".")[0]
        out[module] = out.get(module, 0.0) + entry["self_s"]
    return out


# -- counters taken after a call, outside the callee's own time -----------------


def _after_run_command(rec, code, args):
    if code == 1:
        rec.add("cli.rejected", 1)


def _after_parse(rec, doc, args):
    rec.add("documents.parse.bytes", os.path.getsize(args[0]))


def _after_all_subgroups(rec, subgroups, args):
    rec.add("groups.all_subgroups.found", len(subgroups))


def _after_subgroup_classes(rec, table, args):
    rec.add("groups.subgroup_classes.found", len(table))


def _after_mul(rec, result, args):
    rec.add("zg.mul.basis_pairs", len(args[0].coeffs) * len(args[1].coeffs))


def _after_product(rec, result, args):
    rec.add("gperm.product.points", result.n)


def _after_lefschetz_table(rec, table, args):
    rec.add("gperm.lefschetz_table.entries", len(table.entries))
    rec.add("gperm.lefschetz_table.nonzero", sum(1 for v in table.entries.values() if v))


# -- installation ------------------------------------------------------------------


def _wrap(rec: Recorder, name: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, after)

    return wrapper


def install(rec: Recorder):
    """Wrap eqzeta's public entry points; returns a function that undoes it."""
    from eqzeta import burnside, complexes, documents, gperm, groups, zeta, zg
    from eqzeta import cli

    modules = [m for n, m in sorted(sys.modules.items()) if n == "eqzeta" or n.startswith("eqzeta.")]
    undo = []

    def function(module, attr, name, after=None):
        original = getattr(module, attr)
        wrapper = _wrap(rec, name, original, after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))

    def method(cls, attr, name, after=None):
        original = cls.__dict__[attr]
        if isinstance(original, cached_property):
            new = cached_property(_wrap(rec, name, original.func, after))
            new.__set_name__(cls, attr)
        elif isinstance(original, classmethod):
            new = classmethod(_wrap(rec, name, original.__func__, after))
        else:
            new = _wrap(rec, name, original, after)
        setattr(cls, attr, new)
        undo.append((cls, attr, original))

    coset_representatives, canonical_pair = gperm.coset_representatives, zg.canonical_pair

    def after_solve(rec, result, args):
        # the (pair, m) levels the triangular solver walks, counted with the
        # public functions as they were before wrapping
        table = args[0]
        group = table.group
        m_max = table.m_max or max((k[1] for k, v in table.entries.items() if v), default=0)
        pairs = {
            canonical_pair(group, rep.elements, a)
            for rep in group.subgroup_classes.classes
            for a in coset_representatives(group, rep.elements)
        }
        rec.add("zeta.solve.levels", len(pairs) * m_max)
        rec.add("zeta.solve.terms", len(result.coeffs))

    function(cli, "run_command", "cli.run_command", _after_run_command)
    function(documents, "parse_document_file", "documents.parse", _after_parse)
    for attr in ("structured_zg", "structured_classical", "structured_burnside",
                 "structured_lefschetz"):
        function(documents, attr, "documents.render")
    function(documents, "build_group", "groups.build")
    method(groups.FiniteGroup, "all_subgroups", "groups.all_subgroups", _after_all_subgroups)
    method(groups.FiniteGroup, "subgroup_classes", "groups.subgroup_classes",
           _after_subgroup_classes)
    method(groups.FiniteGroup, "table_of_marks", "groups.table_of_marks")
    method(groups.FiniteGroup, "normalizer", "groups.normalizer")
    method(groups.FiniteGroup, "class_of_subgroup", "groups.class_of_subgroup")
    method(zg.ZGRingElement, "__mul__", "zg.mul", _after_mul)
    method(zg.ZGRingElement, "forget_to_classical", "zg.forget")
    function(zg, "canonical_pair", "zg.canonical_pair")
    function(gperm, "realize", "gperm.realize")
    function(gperm, "classify", "gperm.classify")
    function(gperm, "lefschetz_table", "gperm.lefschetz_table", _after_lefschetz_table)
    method(gperm.GPermutation, "product", "gperm.product", _after_product)
    method(gperm.GPermutation, "from_generator_images", "gperm.validate")
    function(zeta, "zeta_from_lefschetz", "zeta.zeta_from_lefschetz", after_solve)
    function(zeta, "sebastiani_thom", "zeta.sebastiani_thom")
    function(zeta, "acampo", "zeta.acampo")
    method(burnside.GSet, "burnside_class", "burnside.burnside_class")
    method(complexes.GComplex, "chi_cellwise", "complexes.chi")
    method(complexes.GComplex, "chi_strata", "complexes.chi")
    function(complexes, "brute_zeta", "complexes.brute_zeta")

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
