#!/usr/bin/env python3
"""Benchmark of `corpusprep run` on seeded, generated workloads.

    python3 bench/run.py --workload web-w2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. With `--trace 0` the benchmark repeats whole rounds of
the workload's operations, each a `corpusprep run` in a fresh process,
until `--seconds` of operation time has passed, checks every operation's
outputs, and prints the end-to-end metrics (medians over rounds). With
`--trace 1` it runs one round in this process with timing wrappers on
each layer's public functions and prints the per-layer metrics; the spans
go to `bench/results/`. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, Workload, edited_configs, generate, write_config

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = HERE / "_work"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
MB = 1e6


@dataclasses.dataclass
class Op:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_subprocess(root: Path, config: str, work: str) -> Op:
    """One `corpusprep run` in a fresh process; CPU and peak RSS include its
    reaped pool workers (wait4 reports the child and its waited-for children)."""
    cmd = [sys.executable, "-m", "corpusprep.cli", "run", "--config", config, "--work-dir", work]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(root / "ops.log", "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / MB, proc.returncode)


class InProcess:
    """Runs operations through `corpusprep.cli.main` in this process, so the
    tracer's wrappers see every call. Also sums each executed phase's time
    from its done-marker."""

    def __init__(self) -> None:
        import corpusprep.cli

        self.main = corpusprep.cli.main
        self.phase_s = dict.fromkeys(checks.PHASES, 0.0)
        self.phases_executed = 0

    def __call__(self, root: Path, config: str, work: str) -> Op:
        cwd = os.getcwd()
        before = resource.getrusage(resource.RUSAGE_SELF)
        os.chdir(root)
        try:
            started = time.perf_counter()
            code = self.main(["run", "--config", config, "--work-dir", work])
            wall = time.perf_counter() - started
        finally:
            os.chdir(cwd)
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        if code == 0:
            executed = checks.read_json(root / work / "report.json")["phases_executed"]
            for phase, ran in executed.items():
                if ran:
                    self.phases_executed += 1
                    marker = checks.read_json(root / work / f"{phase}.done.json")
                    self.phase_s[phase] = self.phase_s.get(phase, 0.0) + marker["wall_clock_s"]
        return Op(wall, cpu, after.ru_maxrss * 1024 / MB, code)


@dataclasses.dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    artifact_mb: float
    attempted: int
    failed: int
    digest: str


class Bench:
    """A workload's inputs, set up once, and the rounds run on them."""

    def __init__(self, name: str, w: Workload, seed: int, run_dir: Path, setup_repeats: int):
        self.name, self.w, self.seed = name, w, seed
        self.root = run_dir / "inputs"
        times = []
        for _ in range(setup_repeats):
            started = time.perf_counter()
            shutil.rmtree(self.root, ignore_errors=True)
            self.plan, self.config = generate(w, seed, self.root)
            self.configs = ["config.json"]
            if w.edit_loop:
                for i, cfg in enumerate(edited_configs(self.config), start=1):
                    write_config(self.root / f"config{i}.json", cfg)
                    self.configs.append(f"config{i}.json")
            (self.root / "work").mkdir()
            times.append(time.perf_counter() - started)
        self.setup_s = statistics.median(times)
        self.references: list[dict[str, str]] | None = None
        self.problems: list[str] = []

    def _references(self) -> list[dict[str, str]]:
        """Declared outputs of a cold run of each edited config, in a fresh
        directory. Made once, outside the timed section."""
        if self.references is None:
            self.references = []
            for i, cfg in enumerate(self.configs[1:], start=1):
                work = f"reference{i}"
                op = run_subprocess(self.root, cfg, work)
                problems = [f"reference run {i} exited {op.exit_code}"] if op.exit_code else (
                    checks.check_stages(checks.read_json(self.root / cfg), self.root / work))
                self.problems += problems
                self.references.append({} if problems else checks.output_digests(self.root / work))
                shutil.rmtree(self.root / work)
        return self.references

    def round(self, execute) -> Round:
        work = self.root / "work"
        shutil.rmtree(work, ignore_errors=True)
        ops: list[Op] = []
        failed = 0

        def step(config: str, check) -> None:
            nonlocal failed
            op = execute(self.root, config, "work")
            ops.append(op)
            try:
                problems = [f"exit code {op.exit_code}"] if op.exit_code else check()
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                failed += 1
                self.problems += [f"{self.name} op {len(ops)}: {p}" for p in problems]

        step(self.configs[0], lambda: checks.check_run(self.w.shape, self.plan, self.config, work))
        if self.w.edit_loop:
            refs = self._references()
            for i, ref in enumerate(refs, start=1):
                step(self.configs[i], lambda ref=ref, i=i: checks.compare_outputs(
                    checks.output_digests(work), ref, f"rerun after edit {i}"))
            before = checks.raw_digests(work)
            step(self.configs[-1], lambda: checks.check_unchanged_rerun(work, before))
        size = sum(f.stat().st_size for f in work.rglob("*") if f.is_file())
        return Round(
            wall_s=sum(op.wall_s for op in ops),
            cpu_s=sum(op.cpu_s for op in ops),
            peak_rss_mb=max(op.peak_rss_mb for op in ops),
            artifact_mb=size / MB,
            attempted=len(ops),
            failed=failed,
            digest=checks.artifact_digest(work) if not failed else "",
        )


def _result(bench: Bench, rounds: list[Round], metrics: dict) -> dict:
    digests = {r.digest for r in rounds}
    if len(digests) > 1:
        bench.problems.append(f"artifact digest differs between rounds: {sorted(digests)}")
    print(f"{bench.name}: {len(rounds)} round(s), artifact digest {' '.join(sorted(digests))}")
    for p in bench.problems:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def timed(bench: Bench, seconds: float) -> dict:
    rounds: list[Round] = []
    while not rounds or sum(r.wall_s for r in rounds) < seconds:
        rounds.append(bench.round(run_subprocess))
    med = {k: statistics.median(getattr(r, k) for r in rounds)
           for k in ("wall_s", "cpu_s", "peak_rss_mb", "artifact_mb")}
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in med.items()}
    metrics["setup_s"] = {"value": bench.setup_s, "unit": "s"}
    for r in rounds:
        print(f"round: wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s, "
              f"rss {r.peak_rss_mb:.1f} MB, artifacts {r.artifact_mb:.3f} MB")
    result = _result(bench, rounds, metrics)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"run-{bench.name}-seed{bench.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"rounds": [dataclasses.asdict(r) for r in rounds], "result": result}, fh, indent=1)
    return result


def traced(bench: Bench) -> dict:
    """One untraced and one traced round, both in this process; the
    difference between the two is the tracing overhead."""
    from tracer import Tracer

    plain = bench.round(InProcess())
    execute = InProcess()
    tracer = Tracer()
    tracer.install()
    try:
        rnd = bench.round(execute)
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    for phase, secs in execute.phase_s.items():
        layer[f"pipeline.phase.{phase}.s"] = (secs, "s")
    layer["pipeline.phases_executed"] = (execute.phases_executed, "count")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    absent = [t.name for t in tracer.absent]
    overhead = rnd.wall_s / plain.wall_s - 1
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"trace-{bench.name}-seed{bench.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": bench.name,
            "seed": bench.seed,
            "untraced_round_wall_s": plain.wall_s,
            "traced_round_wall_s": rnd.wall_s,
            "overhead": overhead,
            "absent": absent,
            "metrics": metrics,
            "counts": dict(tracer.counts),
            "spans": {"fields": ["name", "start", "end", "parent", "busy"], "rows": tracer.spans},
        }, fh)
    print(f"in-process round: untraced {plain.wall_s:.3f} s, traced {rnd.wall_s:.3f} s, "
          f"overhead {overhead:+.1%}; {len(tracer.spans)} spans -> {out}")
    if absent:
        print(f"absent (function no longer exists): {', '.join(absent)}")
    return _result(bench, [plain, rnd], metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corpusprep" / "cli.py").is_file():
        print(f"error: no corpusprep sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpusprep

    if Path(corpusprep.__file__).resolve().parent != SRC / "corpusprep":
        print(f"error: corpusprep imported from {corpusprep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    run_dir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        bench = Bench(args.workload, w, args.seed, run_dir, 1 if args.trace else SETUP_REPEATS)
        result = traced(bench) if args.trace else timed(bench, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
