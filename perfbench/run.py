#!/usr/bin/env python3
"""The ramsat benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ramsey --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

ramsat is imported from src/ of the checkout this file sits in, and driven
through its command line, `ramsat.cli.main(argv)`, called in-process: one
process, one thread, a closed loop with one client that issues the next
command when the previous one has returned.

A run sets ramsat up (a fresh import plus the first pass's inputs) in a
block of SETUP_BLOCK_SIZE set-ups, then makes one untimed warm-up pass over
the workload's command list.  It then times passes, each with new seeded
inputs, until the passes add up to --seconds and at least MIN_TIMED_PASSES
are done.  Before each timed pass it times one more set-up block, so the
blocks are spread over the whole run.  Every pass and block is divided by
the host-speed index measured during it (hostspeed.py); wall_s is the
lower median pass and setup_s the median block's mean set-up.  Only after the
timing does the reference checker (reference.py, which shares no code with
ramsat) judge every command's exit code, stdout and files.

With --trace 1 the run instead times one untraced pass and then the same
pass traced (layertrace.py) and reports the per-layer metrics and the
tracing overhead.  Each run writes its context, one diagnostic line per
command and its metrics to results/ next to this file, and spans too when
traced.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 correct, 1 a reference check
failed, 2 ramsat could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed, Span
from layertrace import LAYER_METRICS, Tracer
from reference import Outcome
from workloads import WORKLOADS, Plan, plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

SETUP_BLOCK_SIZE = 8
MIN_TIMED_PASSES = 2

END_TO_END = {
    "wall_s": "s",
    "decided_ratio": "ratio",
    "passed_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


class BenchError(Exception):
    """The benchmark cannot run here, for example because src/ramsat is missing."""


@dataclass
class PassRecord:
    variant: int
    directory: Path
    plan: Plan
    wall: float  # without the host-speed sampler's own time
    host_index: float  # host slowness during the pass, 1.0 without a sampler
    outcomes: list[Outcome]
    seconds: list[float]
    traced: bool = False


def import_ramsat():
    """Import ramsat afresh from the checkout's src/ and return ramsat.cli."""
    package = SRC / "ramsat"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no ramsat package at {package}")
    for name in [n for n in sys.modules if n == "ramsat" or n.startswith("ramsat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ramsat.cli")
    if Path(cli.__file__).resolve().parent != package:
        raise BenchError(f"imported ramsat from {cli.__file__}, not from {package}")
    return cli


def write_inputs(pass_plan: Plan, directory: Path) -> None:
    directory.mkdir(exist_ok=True)
    for name, text in pass_plan.files.items():
        (directory / name).write_text(text, encoding="utf-8")


def setup_block(workload: str, seed: int, directory: Path, speed: HostSpeed):
    """Set ramsat up SETUP_BLOCK_SIZE times: a fresh import, and the first
    pass's inputs written to `directory`.  Returns ramsat.cli, the first
    pass's plan and the mean time of one set-up at the reference host speed."""
    block = speed.mark()
    total = 0.0
    for _ in range(SETUP_BLOCK_SIZE):
        gc.collect()  # drop the previous import, so it adds nothing to peak_rss_mb
        one = speed.mark()
        cli = import_ramsat()
        first = plan(workload, seed, 0)
        write_inputs(first, directory)
        total += speed.span(one).seconds
    return cli, first, total / SETUP_BLOCK_SIZE / speed.span(block).index


def invoke(call, argv) -> tuple[Outcome, float]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code, error = None, traceback.format_exc()
    elapsed = perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), error), elapsed


def run_pass(main, variant, pass_plan, directory, speed=None, tracer=None) -> PassRecord:
    """Issue the pass's commands one after another inside `directory`."""
    call = main if tracer is None else tracer.span("cli.main", main)
    outcomes, seconds = [], []
    gc.collect()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        mark = speed.mark() if speed is not None else None
        start = perf_counter()
        for index, command in enumerate(pass_plan.commands):
            if tracer is not None:
                tracer.command = index
            outcome, elapsed = invoke(call, command.argv)
            outcomes.append(outcome)
            seconds.append(elapsed)
        span = speed.span(mark) if speed is not None else Span(perf_counter() - start, 1.0)
    finally:
        os.chdir(cwd)
    return PassRecord(
        variant, directory, pass_plan, span.seconds, span.index, outcomes, seconds,
        tracer is not None,
    )


def judge(passes: list[PassRecord]) -> tuple[list[str], dict[str, int]]:
    """Check every command against the reference; diagnostic lines and tallies."""
    lines, tally = [], {"issued": 0, "decided": 0, "passed": 0}
    for number, record in enumerate(passes):
        for index, (command, outcome, elapsed) in enumerate(
            zip(record.plan.commands, record.outcomes, record.seconds)
        ):
            problems = command.expect.check(outcome, record.directory)
            tally["issued"] += 1
            tally["decided"] += outcome.code in (0, 1)
            tally["passed"] += not problems
            verdict = (outcome.stdout.splitlines() or ["(no output)"])[0]
            line = (
                f"# pass {number} variant {record.variant}"
                f"{' traced' if record.traced else ''} cmd {index} "
                f"exit {outcome.code} {elapsed:.4f}s {verdict} | {' '.join(command.argv)}"
            )
            if problems:
                line += f" | FAIL: {'; '.join(problems)}"
                if outcome.stderr:
                    line += f" | stderr: {outcome.stderr.strip()}"
            lines.append(line)
    return lines, tally


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def ramsat_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ramsat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "ramsat_commit": ramsat_commit(),
        "ramsat_source_sha256": source_digest(),
        "load": "closed loop, 1 client, 1 thread, in-process ramsat.cli.main",
    }


def run_workload(args) -> int:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    # No sampler in a traced run: its samples would land inside the spans.
    tracer, speed, setup_times = None, None if args.trace else HostSpeed(), []
    try:
        if speed is None:
            cli = import_ramsat()
            first = plan(args.workload, args.seed, 0)
            write_inputs(first, work / "pass0")
        else:
            speed.start()
            cli, first, setup_s = setup_block(args.workload, args.seed, work / "pass0", speed)
            setup_times.append(setup_s)
        context = run_context(args)
        print(f"# context {json.dumps(context, sort_keys=True)}", flush=True)
        passes = [run_pass(cli.main, 0, first, work / "pass0", speed)]
        if args.trace:
            again = plan(args.workload, args.seed, 1)
            write_inputs(again, work / "pass1")
            passes.append(run_pass(cli.main, 1, again, work / "pass1"))
            write_inputs(again, work / "pass1-traced")
            tracer = Tracer()
            tracer.install()
            try:
                passes.append(run_pass(cli.main, 1, again, work / "pass1-traced", tracer=tracer))
            finally:
                tracer.restore()
        else:
            measured, variant = 0.0, 1
            while variant <= MIN_TIMED_PASSES or measured < args.seconds:
                # More set-up blocks, spread over the run; the passes keep
                # using the warmed-up ramsat of the first block.
                setup_times.append(
                    setup_block(args.workload, args.seed, work / "setup", speed)[2]
                )
                pass_plan = plan(args.workload, args.seed, variant)
                directory = work / f"pass{variant}"
                write_inputs(pass_plan, directory)
                passes.append(run_pass(cli.main, variant, pass_plan, directory, speed))
                measured += passes[-1].wall
                variant += 1
            speed.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines, tally = judge(passes)
    finally:
        if speed is not None:
            speed.stop()
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        values = {
            # the lower median: with an even count, one slow outlier (host
            # or seeded input) among the two middle passes does not count
            "wall_s": statistics.median_low(p.wall / p.host_index for p in passes[1:]),
            "decided_ratio": tally["decided"] / tally["issued"],
            "passed_ratio": tally["passed"] / tally["issued"],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END
    else:
        values = tracer.metrics()
        values["trace.overhead_s"] = passes[2].wall - passes[1].wall
        values["trace.spans"] = len(tracer.spans)
        units = {**LAYER_METRICS, **TRACE_METRICS}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = tally["issued"] - tally["passed"]
    summary = {
        "correct": failed == 0,
        "attempted": tally["issued"],
        "failed": failed,
        "metrics": metrics,
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "context": context,
        "setup_s": setup_times,
        "passes": [
            {"variant": p.variant, "wall_s": p.wall, "host_index": p.host_index, "traced": p.traced}
            for p in passes
        ],
        "commands": lines,
        "summary": summary,
    }
    if tracer is not None:
        record["layer_self_s"] = tracer.layer_self_times()
        record["trace_sites"] = tracer.sites
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for name, start, end, parent, command in tracer.spans:
                handle.write(json.dumps([name, start, end, parent, command]) + "\n")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for line in lines:
        print(line)
    if failed:
        print(f"reference check failed on {failed} of {tally['issued']} commands", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    table, status = [], 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if child.returncode not in (0, 1) or not lines:
            print(f"workload {workload} exited {child.returncode}", file=sys.stderr)
            return child.returncode or 2
        status = max(status, child.returncode)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            table.append(f"{workload:<10} {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print("\n".join(table))
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
