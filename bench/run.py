"""Run one workload of the eqzeta benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: eqzeta is imported from ./src, as the
test suite does.  The workload's documents are generated from the seed in a
child process, then one client runs them in a closed loop (each operation
starts when the previous one has finished), in whole passes over the
workload's operations until at least S seconds have gone by.  Every output is
checked after the timed region.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
same operations run untraced for S/2 seconds and then traced, and the
metrics are the per-layer metrics (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_spans"

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import spans  # noqa: E402

WORKLOADS = ("cli_small", "lattice", "ring", "lefschetz")
SUBPROCESS_WORKLOADS = ("cli_small",)
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 60
GENERATE_TIMEOUT_S = 120
# The tail is the highest of these with ten samples beyond it.  A workload's
# min_ops fixes which one it is, whatever the speed of the machine.
TAIL_LADDER = (90.0, 75.0, 50.0)

# Speed calibration.  The shared hosts this runs on change speed by 10-20 %
# over tens of seconds, more than the bounds allow.  After every operation a
# reference task is timed, and each operation's time is scaled by the
# task's reference time over the mean of its last two times.  Times are thus reported in seconds of a machine on which
# the task takes its reference time; the unscaled values are printed next to
# them.  For in-process operations the task is a fixed pure-Python loop
# (CALIBRATION_REF_S).  For subprocess operations it is starting a bare
# interpreter (PROCESS_START_REF_S), because the loop does not follow the
# cost of starting processes; `import eqzeta` is not part of it.  setup_s is
# scaled by the loop timed inside each fresh interpreter, next to its import.
CALIBRATION_REF_S = 0.003
PROCESS_START_REF_S = 0.07

# (name, unit); failed_frac is printed but not in the JSON metrics, because it
# is 0 on correct code and a bound relative to a median of 0 is undefined;
# the JSON carries it as "failed" / "attempted".
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# (name, unit); time and count stats are per operation of the traced pass
PER_LAYER = (
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run_command.calls", "calls/op"),
    ("cli.run_command.busy_s", "s/op"),
    ("cli.run_command.self_s", "s/op"),
    ("cli.rejected", "count/op"),
    ("documents.parse.calls", "calls/op"),
    ("documents.parse.busy_s", "s/op"),
    ("documents.parse.self_s", "s/op"),
    ("documents.parse.bytes", "B/op"),
    ("documents.render.busy_s", "s/op"),
    ("groups.build.calls", "calls/op"),
    ("groups.build.busy_s", "s/op"),
    ("groups.build.self_s", "s/op"),
    ("groups.all_subgroups.busy_s", "s/op"),
    ("groups.all_subgroups.found", "count/op"),
    ("groups.subgroup_classes.busy_s", "s/op"),
    ("groups.subgroup_classes.found", "count/op"),
    ("groups.table_of_marks.busy_s", "s/op"),
    ("groups.normalizer.calls", "calls/op"),
    ("groups.normalizer.busy_s", "s/op"),
    ("groups.class_of_subgroup.calls", "calls/op"),
    ("groups.class_of_subgroup.busy_s", "s/op"),
    ("zg.mul.calls", "calls/op"),
    ("zg.mul.busy_s", "s/op"),
    ("zg.mul.self_s", "s/op"),
    ("zg.mul.basis_pairs", "count/op"),
    ("zg.canonical_pair.calls", "calls/op"),
    ("zg.canonical_pair.busy_s", "s/op"),
    ("zg.forget.busy_s", "s/op"),
    ("gperm.realize.calls", "calls/op"),
    ("gperm.realize.busy_s", "s/op"),
    ("gperm.product.calls", "calls/op"),
    ("gperm.product.busy_s", "s/op"),
    ("gperm.product.points", "count/op"),
    ("gperm.classify.calls", "calls/op"),
    ("gperm.classify.busy_s", "s/op"),
    ("gperm.classify.self_s", "s/op"),
    ("gperm.validate.busy_s", "s/op"),
    ("gperm.lefschetz_table.calls", "calls/op"),
    ("gperm.lefschetz_table.busy_s", "s/op"),
    ("gperm.lefschetz_table.self_s", "s/op"),
    ("gperm.lefschetz_table.entries", "count/op"),
    ("gperm.lefschetz_table.nonzero_ratio", "ratio"),
    ("zeta.zeta_from_lefschetz.calls", "calls/op"),
    ("zeta.zeta_from_lefschetz.busy_s", "s/op"),
    ("zeta.zeta_from_lefschetz.self_s", "s/op"),
    ("zeta.solve.useful_ratio", "ratio"),
    ("zeta.sebastiani_thom.busy_s", "s/op"),
    ("zeta.acampo.busy_s", "s/op"),
    ("burnside.burnside_class.busy_s", "s/op"),
    ("complexes.chi.busy_s", "s/op"),
    ("complexes.brute_zeta.busy_s", "s/op"),
    ("trace.overhead_frac", "ratio"),
)


class OpTimeout(Exception):
    pass


def calibration_sample() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], workdir: Path, timeout: float = OP_TIMEOUT_S):
    """Run a child to completion: (exit code, stdout, stderr, peak RSS in KiB).

    The child is reaped with wait4 so that its own peak RSS is known; it is
    killed if it outlives the timeout, which then reads as exit code -9.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss,
    )


def process_start_sample(workdir: Path, code: str = "pass") -> float:
    """Wall seconds of a fresh ``python -c CODE``."""
    start = perf_counter()
    run_child([sys.executable, "-c", code], workdir)
    return perf_counter() - start


SETUP_PROBE = "import time\n" + inspect.getsource(calibration_sample) + """
calibration_sample(), calibration_sample()  # bring the core up to speed
before = calibration_sample()
start = time.perf_counter()
import eqzeta
seconds = time.perf_counter() - start
print(seconds, (before + calibration_sample()) / 2)
"""


def fresh_import_seconds(workdir: Path) -> tuple[float, float]:
    """Median seconds from the start of ``import eqzeta`` until it returns,
    each in a fresh interpreter: raw, and scaled by the loop timed around the
    import in that interpreter."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        rc, out, err, _ = run_child([sys.executable, "-c", SETUP_PROBE], workdir)
        if rc != 0:
            raise RuntimeError(f"import eqzeta failed in a fresh interpreter: {err}")
        seconds, loop = (float(x) for x in out.split())
        raw.append(seconds)
        scaled.append(seconds * CALIBRATION_REF_S / loop)
    return statistics.median(raw), statistics.median(scaled)


def process_start_seconds(workdir: Path) -> tuple[float, float]:
    """Median wall seconds of ``python -c pass``, and of ``import eqzeta`` on
    top of that, over fresh processes started from here."""
    walls = {"pass": [], "import eqzeta": []}
    for _ in range(SETUP_SAMPLES):
        for code, samples in walls.items():
            samples.append(process_start_sample(workdir, code))
    interp = statistics.median(walls["pass"])
    return interp, statistics.median(walls["import eqzeta"]) - interp


class Runner:
    """Executes operations, times them, and keeps what the checks need."""

    def __init__(self, workdir: Path, subprocess_mode: bool):
        self.workdir = workdir
        self.subprocess_mode = subprocess_mode
        self.first: dict[tuple[str, int], tuple] = {}  # first result per step
        self.peak_child_kib = 0
        self.calibration: list[float] = []
        self.recorder: spans.Recorder | None = None  # gets the id of each operation
        self.ops_started = 0

    def step(self, argv: list[str]):
        if self.subprocess_mode:
            rc, out, err, rss = run_child([sys.executable, "-m", "eqzeta", *argv], self.workdir)
            self.peak_child_kib = max(self.peak_child_kib, rss)
            return rc, out, err
        import eqzeta.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = eqzeta.cli.run_command(argv)
        return rc, out.getvalue(), err.getvalue()

    def op(self, op: dict) -> tuple[float, str | None]:
        """Run one operation: (latency, failure reason or None)."""
        results = []
        failure = None
        use_alarm = not self.subprocess_mode
        gc.collect()  # every operation starts from the same collector state
        if self.recorder is not None:
            self.recorder.op = self.ops_started
        self.ops_started += 1
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        start = perf_counter()
        try:
            for step in op["steps"]:
                result = self.step(step["argv"])
                results.append(result)
                save = step["expect"].get("save")
                if save is not None:
                    Path(save).write_text(result[1], encoding="utf-8")
        except OpTimeout:
            failure = "timeout"
        except Exception as exc:  # a traceback out of the program is a failed op
            failure = f"exception {type(exc).__name__}: {exc}"
        finally:
            latency = perf_counter() - start
            if use_alarm:
                signal.setitimer(signal.ITIMER_REAL, 0)
        self.calibration.append(
            process_start_sample(self.workdir) if self.subprocess_mode else calibration_sample()
        )
        if failure is None:
            for i, result in enumerate(results):
                if result[0] == -9:
                    failure = "timeout"
                    break
                first = self.first.setdefault((op["name"], i), result)
                if result != first:
                    failure = f"step {i} output differs from the first call"
                    break
        return latency, failure

    def validate(self, ops_by_name: dict[str, dict]) -> dict[str, str]:
        """Check each distinct first output against its oracle; returns the
        failure reason per op name."""
        bad: dict[str, str] = {}
        subgroup_rows: dict[str, list] = {}
        marks_steps = []
        for (name, i), (rc, out, err) in sorted(self.first.items()):
            step = ops_by_name[name]["steps"][i]
            expect = step["expect"]
            try:
                if "error" in expect:
                    checks.check_error(rc, out, err)
                    continue
                checks.require(rc == 0, f"exit code {rc}: {err.strip()}")
                checks.require(err == "", f"unexpected stderr {err!r}")
                if "stdout" in expect:
                    checks.require(out == expect["stdout"], f"got {out!r}, expected {expect['stdout']!r}")
                elif "subgroups" in expect:
                    subgroup_rows[step["argv"][-1]] = checks.check_subgroups(expect["subgroups"], out)
                elif "marks" in expect:
                    marks_steps.append((name, step, out))
                else:
                    checks.require(bool(out), "no output to pass on")
            except checks.Mismatch as exc:
                bad[name] = str(exc)
        for name, step, out in marks_steps:
            try:
                checks.check_marks(step["expect"]["marks"], out, subgroup_rows.get(step["argv"][-1]))
            except checks.Mismatch as exc:
                bad[name] = str(exc)
        return bad


def _on_alarm(signum, frame):
    raise OpTimeout()


def closed_loop(runner: Runner, passes: list[list[dict]], seconds: float = 0.0,
                n_passes: int = 0, min_ops: int = 0):
    """Whole passes, each operation started when the previous one finished,
    until the operations have been busy for ``seconds`` and ``min_ops`` have
    run, or for exactly ``n_passes`` passes.
    Returns (name, latency, failure, scaled latency) records, the raw busy
    seconds and the number of passes."""
    records = []
    busy = 0.0
    done = 0
    while True:
        for op in passes[done % len(passes)]:
            latency, failure = runner.op(op)
            loops = runner.calibration[-2:]
            ref = PROCESS_START_REF_S if runner.subprocess_mode else CALIBRATION_REF_S
            scaled = latency * ref / statistics.fmean(loops)
            records.append((op["name"], latency, failure, scaled))
            busy += latency
        done += 1
        if n_passes:
            if done >= n_passes:
                break
        elif len(records) >= min_ops and busy >= seconds:
            break
    return records, busy, done


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile of
    TAIL_LADDER that has at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(math.ceil(n * pct / 100), 1)
        if n - rank >= 10:
            break
    return ordered[rank - 1], pct, n - rank


def count_failures(records, bad: dict[str, str]) -> tuple[int, dict[str, str]]:
    reasons = {}
    failed = 0
    for name, _, failure, _ in records:
        reason = failure or bad.get(name)
        if reason:
            failed += 1
            reasons.setdefault(name, reason)
    return failed, reasons


def operation_medians(records, field: int) -> dict[str, float]:
    """Median of a record field per operation (same documents, same command)
    over the run's passes."""
    by_name: dict[str, list[float]] = {}
    for record in records:
        by_name.setdefault(record[0], []).append(record[field])
    return {name: statistics.median(v) for name, v in by_name.items()}


def latency_stats(records, field: int) -> tuple[float, tuple[float, float, int]]:
    """(p50, tail) over all samples, each sample's latency replaced by the
    median of its operation."""
    medians = operation_medians(records, field)
    latencies = [medians[record[0]] for record in records]
    return statistics.median(latencies), tail(latencies)


def untraced(args, manifest, ops_by_name, workdir: Path) -> dict:
    setup_raw, setup = fresh_import_seconds(workdir)
    subprocess_mode = args.workload in SUBPROCESS_WORKLOADS
    if not subprocess_mode:
        sys.path.insert(0, str(SRC))
        import eqzeta  # noqa: F401  (the set-up the timed loop relies on)
    runner = Runner(workdir, subprocess_mode)
    records, busy, passes = closed_loop(runner, manifest["passes"], args.seconds,
                                        min_ops=manifest["min_ops"])
    if subprocess_mode:
        peak_kib = runner.peak_child_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, reasons = count_failures(records, runner.validate(ops_by_name))
    scaled_busy = sum(record[3] for record in records)
    p50_raw, (tail_raw, _, _) = latency_stats(records, 1)
    p50, (tail_value, tail_pct, beyond) = latency_stats(records, 3)
    raw = {
        "ops_per_s": len(records) / busy,
        "op_p50_s": p50_raw,
        "op_tail_s": tail_raw,
        "setup_s": setup_raw,
        "peak_rss_mib": peak_kib / 1024,
    }
    values = dict(raw, ops_per_s=len(records) / scaled_busy, op_p50_s=p50,
                  op_tail_s=tail_value, setup_s=setup)
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(records)} ops in {passes} passes, busy {busy:.2f} s "
          f"({scaled_busy:.2f} s scaled)")
    for name, unit in END_TO_END:
        note = f"  (raw {raw[name]:.6g})" if raw[name] != values[name] else ""
        if name == "op_tail_s":
            note += f"  (p{tail_pct:g} of {len(records)} samples, {beyond} beyond)"
        elif name == "setup_s":
            note += f"  (median of {SETUP_SAMPLES} fresh processes)"
        print(f"{name} {values[name]:.6g} {unit}{note}")
        if name == "op_tail_s":
            print(f"failed_frac {failed / len(records):.6g} ratio  ({failed} of {len(records)})")
    medians = operation_medians(records, 3)
    print("median scaled latency per operation: " + ", ".join(
        f"{name} {m:.4g} s" for name, m in sorted(medians.items(), key=lambda kv: kv[1])
    ))
    for name, reason in sorted(reasons.items()):
        print(f"FAILED {name}: {reason}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def per_layer_values(rec: spans.Recorder, n_ops: int, k: float) -> dict[str, float]:
    """Per-operation layer metrics; times scaled by the speed factor k."""
    stats = spans.layer_stats(rec.spans)
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in stats and stat in stats[layer]:
            values[name] = stats[layer][stat] / n_ops * (k if stat.endswith("_s") else 1)
        elif name in rec.counts:
            values[name] = rec.counts[name] / n_ops
        else:
            values[name] = 0.0
    entries = rec.counts.get("gperm.lefschetz_table.entries", 0)
    values["gperm.lefschetz_table.nonzero_ratio"] = (
        rec.counts.get("gperm.lefschetz_table.nonzero", 0) / entries if entries else 0.0
    )
    levels = rec.counts.get("zeta.solve.levels", 0)
    values["zeta.solve.useful_ratio"] = (
        rec.counts.get("zeta.solve.terms", 0) / levels if levels else 0.0
    )
    return values


def traced(args, manifest, ops_by_name, workdir: Path) -> dict:
    """Untraced for S/2 seconds, then the same passes traced, in-process."""
    sys.path.insert(0, str(SRC))
    import eqzeta  # noqa: F401

    interp, import_s = process_start_seconds(workdir)
    runner = Runner(workdir, subprocess_mode=False)
    plain, plain_busy, passes = closed_loop(runner, manifest["passes"], args.seconds / 2)
    rec = spans.Recorder()
    runner.recorder = rec
    uninstall = spans.install(rec)
    try:
        traced_records, traced_busy, _ = closed_loop(runner, manifest["passes"], n_passes=passes)
    finally:
        uninstall()
    k = sum(record[3] for record in traced_records) / traced_busy  # mean speed scale
    failed, reasons = count_failures(plain + traced_records, runner.validate(ops_by_name))
    n_ops = len(traced_records)
    values = per_layer_values(rec, n_ops, k)
    values["cli.interp_s"] = interp
    values["cli.import_s"] = import_s
    values["trace.overhead_frac"] = (traced_busy - plain_busy) / plain_busy
    SPANS.mkdir(exist_ok=True)
    spans_path = SPANS / f"{args.workload}.json"
    rec.write(str(spans_path))

    print(f"workload {args.workload}, seed {args.seed}: {n_ops} ops in {passes} passes, "
          f"busy {plain_busy:.2f} s untraced, {traced_busy:.2f} s traced, "
          f"overhead {values['trace.overhead_frac']:+.1%}; {len(rec.spans)} spans in {spans_path}")
    modules = spans.module_self_times(spans.layer_stats(rec.spans))
    if args.workload in SUBPROCESS_WORKLOADS:
        # untraced, each step of an operation is a fresh interpreter
        steps = sum(len(op["steps"]) for p in manifest["passes"] for op in p)
        ops = sum(len(p) for p in manifest["passes"])
        modules["process start (cli.interp_s + cli.import_s)"] = (
            (interp + import_s) * steps / ops * n_ops / k
        )
    total = sum(modules.values())
    print("self time per op by layer, reference-machine seconds:")
    for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {module:48s} {seconds * k / n_ops:10.6f} s  {seconds / total:6.1%}")
    for name, reason in sorted(reasons.items()):
        print(f"FAILED {name}: {reason}")
    return {
        "correct": failed == 0,
        "attempted": len(plain) + n_ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "eqzeta" / "__init__.py").is_file():
        print(f"error: no eqzeta sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        gen = [sys.executable, str(HERE / "generate.py"), args.workload, str(args.seed), str(workdir)]
        rc, _, err, _ = run_child(gen + (["--tiny"] if args.tiny else []), workdir,
                                  GENERATE_TIMEOUT_S)
        if rc != 0:
            print(f"error: input generation failed:\n{err}", file=sys.stderr)
            return 2
        manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
        ops_by_name = {op["name"]: op for p in manifest["passes"] for op in p}
        run = traced if args.trace else untraced
        result = run(args, manifest, ops_by_name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"sizes: {json.dumps(manifest['sizes'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
