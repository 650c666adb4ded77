"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/tests -q

Each workload runs at its tiny size and must check out with no failed
operation; the span arithmetic and the output oracles are checked on
hand-built inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_at_tiny_size_has_no_failures(workload):
    result = result_of(bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                             "--trace", "0", "--tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "lefschetz", "--seed", "7", "--seconds", "0.5",
                             "--trace", "1", "--tiny"))
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["gperm.lefschetz_table.calls"]["value"] >= 1
    assert 0 < metrics["gperm.lefschetz_table.nonzero_ratio"]["value"] <= 1
    assert 0 < metrics["zeta.solve.useful_ratio"]["value"] <= 1
    assert metrics["zg.mul.calls"]["value"] == 0  # products are idle here
    assert metrics["cli.interp_s"]["value"] > 0


def test_same_seed_gives_same_inputs(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        subprocess.run(
            [sys.executable, str(BENCH / "generate.py"), "ring", "11", str(tmp_path / name), "--tiny"],
            env=run.child_env(), check=True, timeout=120,
        )
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files:
        a = (tmp_path / "a" / f).read_text().replace(str(tmp_path / "a"), "")
        b = (tmp_path / "b" / f).read_text().replace(str(tmp_path / "b"), "")
        assert a == b, f


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "ring", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_subtracts_direct_children_only():
    # op 0: a [0, 10] with children b [1, 4], c [5, 9] and the counters span
    # [9.5, 9.75]; b has child d [2, 3]
    tree = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["b", 20.0, 22.0, -1, 1],
        [spans.COUNTERS, 9.5, 9.75, 0, 0],
        ["d", 9.5, 9.625, 5, 0],  # bookkeeping under the counters span
    ]
    stats = spans.layer_stats(tree)
    assert stats["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 10.0 - 3.0 - 4.0 - 0.25}
    assert stats["b"] == {"calls": 2, "busy_s": 5.0, "self_s": 2.0 + 2.0}
    assert stats["d"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert stats["c"]["self_s"] == 4.0
    assert spans.COUNTERS not in stats
    modules = spans.module_self_times({"x.f": {"self_s": 1.0}, "x.g": {"self_s": 2.0},
                                       "y.h": {"self_s": 0.5}})
    assert modules == {"x": 3.0, "y": 0.5}


def test_recorder_nests_and_restores_the_program():
    import eqzeta.gperm
    import eqzeta.cli

    original = eqzeta.gperm.classify
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        assert eqzeta.cli.classify is not original and eqzeta.gperm.classify is not original
        rec.op = 0
        run.Runner(ROOT, subprocess_mode=False).step(
            ["classify", str(ROOT / "tests" / "fixtures" / "gperm_c2_swap.json")]
        )
    finally:
        uninstall()
    assert eqzeta.cli.classify is original and eqzeta.gperm.classify is original
    names = [s[0] for s in rec.spans]
    assert names[0] == "cli.run_command" and "gperm.classify" in names
    by_index = {i: s for i, s in enumerate(rec.spans)}
    for name, start, end, parent, op in rec.spans:
        assert op == 0 and start <= end
        if parent >= 0:
            assert by_index[parent][1] <= start and end <= by_index[parent][2]


S3_SUBGROUPS = """\
e: order=1, count=1, elements=[0]
H1: order=2, count=3, elements=[0, 1]
H2: order=3, count=1, elements=[0, 3, 4]
G: order=6, count=1, elements=[0, 1, 2, 3, 4, 5]
"""
S3_MARKS = """\
columns: e H1 H2 G
e: 6 0 0 0
H1: 3 1 0 0
H2: 2 0 2 0
G: 1 1 1 1
"""


def test_oracles_accept_s3_and_reject_damaged_output():
    rows = checks.check_subgroups("S3", S3_SUBGROUPS)
    checks.check_marks("S3", S3_MARKS, rows)
    damaged = [
        ("subgroups", S3_SUBGROUPS.replace("count=3", "count=2")),
        ("subgroups", "\n".join(S3_SUBGROUPS.splitlines()[1:])),
        ("marks", S3_MARKS.replace("H1: 3 1 0 0", "H1: 3 1 1 0")),
        ("marks", S3_MARKS.replace("H2: 2 0 2 0", "H2: 2 0 1 0")),
    ]
    for kind, text in damaged:
        with pytest.raises(checks.Mismatch):
            if kind == "subgroups":
                checks.check_subgroups("S3", text)
            else:
                checks.check_marks("S3", text, rows)
    checks.check_error(1, "", "error: bad\n")
    for case in ((0, "", "error: bad\n"), (1, "", "error: a\nerror: b\n"), (1, "x", "error: a\n")):
        with pytest.raises(checks.Mismatch):
            checks.check_error(*case)
