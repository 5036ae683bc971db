"""Benchmark of the `girard-lab` CLI: fresh-process time to verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's invocation list from the seed (workloads.py) and runs
the reference checks once in a child (checks.py).  Then it runs rounds of
the whole list, each invocation in a fresh interpreter started one at a
time (child.py), and stops before the round that would end after S
seconds (but runs at least MIN_ROUNDS rounds).  Between invocations a
fresh interpreter times child.calibrate, the yardstick for the machine's
speed at the moment.  Each invocation is one operation.  It fails when
its exit code, PASS line or report fields are wrong, when its report
differs from the first round's apart from elapsed_ms, or when its item's
reference checks fail.

--trace 0 reports the end-to-end metrics:
  verdict_s    sum over the list of each invocation's median main() time
  setup_s      median time to import girardlab.cli, over all children
  peak_rss_mb  largest peak resident set of any child (MiB)
Both times are at nominal machine speed: each child's time is multiplied by
CALIBRATION_NOMINAL_S over the mean of the yardstick timings on its two
sides (README.md says why).
--trace 1 also runs TRACED_PASSES traced passes of the list and reports
the per-layer metrics of tracer.py, plus trace.overhead_s, the traced
minus the untraced verdict time; `correct` is false when the counts of
the passes differ.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A copy with per-item times goes to perfbench/out/result-<...>.json and
the traced spans to perfbench/out/trace-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads
from child import MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120
# child.calibrate's time at the nominal speed: about its median (19.6 ms over
# 2710 timings) on the 2-core machine the figures in README.md come from.
CALIBRATION_NOMINAL_S = 0.020


@dataclass
class Call:
    """One invocation: what was wrong with it, and what it measured."""

    item: int
    problems: list
    measured: dict | None = None


def spawn(mode: str, *args: str) -> tuple[int, str, dict | None, str]:
    """Run child.py in a fresh interpreter and wait for it to end.

    Returns the exit code, stdout, the measurement line (or None) and stderr.
    """
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "child.py"), str(SRC), mode, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    marked = [line for line in proc.stderr.splitlines() if line.startswith(MARK)]
    measured = json.loads(marked[-1][len(MARK):]) if marked else None
    return proc.returncode, proc.stdout, measured, proc.stderr


def _tail(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def calibration() -> float:
    """child.calibrate's time in a fresh interpreter: the machine's speed
    at the moment, taken between invocations."""
    code, _, measured, stderr = spawn("calibrate")
    if measured is None:
        raise SystemExit(f"perfbench: calibration failed: {_tail(stderr)}")
    return measured["calibration_s"]


def invoke(idx: int, item: workloads.Item, workdir: Path, mode: str, first: dict) -> Call:
    """Run item idx once and check its outputs; `first` holds round 1's reports."""
    report = workdir / f"report{idx}.json"
    report.unlink(missing_ok=True)
    try:
        code, stdout, measured, stderr = spawn(mode, *item.argv, "--out", str(report))
    except subprocess.TimeoutExpired:
        return Call(idx, [f"no exit within {CHILD_TIMEOUT_S} s"])
    text = report.read_text(encoding="utf-8") if report.exists() else None
    problems = checks.report_problems(item, code, stdout, text)
    if text is not None and first.setdefault(idx, checks.report_key(text)) != checks.report_key(text):
        problems.append("report differs from round 1's apart from elapsed_ms")
    if measured is None:
        problems.append(f"no measurement: {_tail(stderr)}")
    return Call(idx, problems, measured)


def run_pass(items: list[workloads.Item], workdir: Path, mode: str, first: dict) -> list[Call]:
    """One call of each item in order.  The yardstick is timed before the
    first call and after each one, so every call has a timing on both sides."""
    calls = []
    before = calibration()
    for idx, item in enumerate(items):
        call = invoke(idx, item, workdir, mode, first)
        after = calibration()
        if call.measured is not None:
            call.measured.update(calibration_before_s=before, calibration_after_s=after)
        calls.append(call)
        before = after
    return calls


def reference_checks(items: list[workloads.Item]) -> list[list[str]]:
    """checks.reference_problems for each item, run once in a child."""
    try:
        _, _, measured, stderr = spawn("check", json.dumps([item.checks for item in items]))
    except subprocess.TimeoutExpired:
        measured, stderr = None, f"no exit within {CHILD_TIMEOUT_S} s"
    if measured is None:
        return [[f"reference checks did not run: {_tail(stderr)}"]] * len(items)
    return measured["problems"]


def failed_calls(calls: list[Call], refs: list[list[str]]) -> list[Call]:
    """The failed operations: calls with a problem of their own, and every
    call of an item whose reference checks found a problem."""
    return [c for c in calls if c.problems or refs[c.item]]


def speed_scale(measured: dict) -> float:
    """Factor taking a time measured in one child to the nominal machine
    speed, at which child.calibrate takes CALIBRATION_NOMINAL_S."""
    calibration = (measured["calibration_before_s"] + measured["calibration_after_s"]) / 2
    return CALIBRATION_NOMINAL_S / calibration


def verdict_times(calls: list[Call], item: int, nominal: bool = True) -> list[float]:
    """main() times of one item over the rounds, at nominal speed or as measured."""
    return [c.measured["main_s"] * (speed_scale(c.measured) if nominal else 1.0)
            for c in calls if c.item == item and c.measured]


def verdict_s(calls: list[Call], n_items: int, nominal: bool = True) -> float:
    """Sum over the items of their median main() time."""
    return sum(statistics.median(t) for i in range(n_items)
               if (t := verdict_times(calls, i, nominal)))


def end_to_end(calls: list[Call], n_items: int) -> dict:
    timed = [c.measured for c in calls if c.measured]
    return {
        "verdict_s": verdict_s(calls, n_items),
        "setup_s": statistics.median(
            m["setup_s"] * CALIBRATION_NOMINAL_S / m["calibration_before_s"] for m in timed),
        "peak_rss_mb": max(m["rss_kb"] for m in timed) / 1024,
    }


def layer_totals(calls: list[Call]) -> dict:
    """Per-layer metrics over one traced pass: times at nominal speed, summed;
    counts summed, except poly.max_terms, the largest."""
    totals = dict.fromkeys(tracer.METRICS, 0)
    for call in calls:
        if not call.measured:
            continue
        scale = speed_scale(call.measured)
        for name, value in call.measured["layers"].items():
            if name == "poly.max_terms":
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value * scale if tracer.METRICS[name] == "ms" else value
    return totals


def per_layer(passes: list[list[Call]], untraced_verdict_s: float) -> tuple[dict, list[str]]:
    """Mean times and first-pass counts of the traced passes, and the names
    of the counts that differ between passes."""
    totals = [layer_totals(calls) for calls in passes]
    values, unequal = {}, []
    for name, unit in tracer.METRICS.items():
        if unit == "ms":
            values[name] = statistics.fmean(t[name] for t in totals)
        else:
            values[name] = totals[0][name]
            unequal += [name] if any(t[name] != totals[0][name] for t in totals) else []
    traced_s = statistics.fmean(  # a pass holds one call per item
        sum(c.measured["main_s"] * speed_scale(c.measured) for c in calls if c.measured)
        for calls in passes)
    values["trace.overhead_s"] = traced_s - untraced_verdict_s
    return values, unequal


def write_spans(path: Path, passes: list[list[Call]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, calls in enumerate(passes, start=1):
            for call in calls:
                for span in (call.measured or {}).get("spans", []):
                    fh.write(json.dumps({"pass": number, "item": call.item, **span}) + "\n")


def run(args: argparse.Namespace, workdir: Path) -> dict:
    items = workloads.build(args.workload, args.seed, workdir)
    code, _, _, stderr = spawn("import")  # compiles bytecode and warms the file cache
    if code != 0:
        raise SystemExit(f"perfbench: cannot import girardlab from {SRC}: {_tail(stderr)}")
    refs = reference_checks(items)

    first: dict = {}
    calls: list[Call] = []
    started = time.monotonic()
    rounds = 0
    while True:
        calls += run_pass(items, workdir, "run", first)
        rounds += 1
        elapsed = time.monotonic() - started
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    untraced = end_to_end(calls, len(items))
    metrics = {name: (value, "MB" if name == "peak_rss_mb" else "s")
               for name, value in untraced.items()}
    correct = True
    passes: list[list[Call]] = []
    if args.trace:
        passes = [run_pass(items, workdir, "trace", first) for _ in range(TRACED_PASSES)]
        values, unequal = per_layer(passes, untraced["verdict_s"])
        for name in unequal:
            print(f"traced passes disagree on {name}", file=sys.stderr)
        correct = not unequal
        units = {**tracer.METRICS, "trace.overhead_s": "s"}
        metrics = {name: (value, units[name]) for name, value in values.items()}
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", passes)

    everything = calls + [c for p in passes for c in p]
    failed = failed_calls(everything, refs)
    print("median main() s over the rounds: at nominal speed, as measured")
    for i, item in enumerate(items):
        if times := verdict_times(calls, i):
            wall = statistics.median(verdict_times(calls, i, nominal=False))
            print(f"{statistics.median(times):8.4f} {wall:8.4f}  {item.label}")
    for call in failed[:10]:
        print(f"FAILED {items[call.item].label}: {'; '.join(call.problems + refs[call.item])}")
    print(f"rounds: {rounds}, invocations: {len(everything)}, failed: {len(failed)}")
    result = {
        "correct": correct,
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "wall_verdict_s": verdict_s(calls, len(items), nominal=False),
        "items": [{"argv": list(item.argv),
                   "main_s": verdict_times(calls, i, nominal=False),
                   "calibration_s": [(c.measured["calibration_before_s"],
                                      c.measured["calibration_after_s"])
                                     for c in calls if c.item == i and c.measured]}
                  for i, item in enumerate(items)],
        "result": result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "girardlab" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'girardlab' / 'cli.py'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)  # children and the graph paths in their argv are relative to the root
    workdir = (OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}").relative_to(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
