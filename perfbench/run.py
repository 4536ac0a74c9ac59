"""Benchmark of the wicketlab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload construct-detect --seed 0 --seconds 55 --trace 0

With `--trace 0` each pass runs the workload's commands one after another,
each as its own `python3 -m wicketlab.cli` process, until `--seconds` have
passed. wall_s and cpu_s sum each command's mean, setup_s is the mean
start of the interpreter with `import wicketlab.cli`, and all three are
scaled by how fast a fixed reference work ran during the run (see
PACE_S). peak_rss_mb is the largest of each command's median max-RSS. With
`--trace 1` the commands run in this process through `wicketlab.cli.main`,
alternating an untraced and a traced pass, and the per-layer metrics come
from the spans of the traced passes. `--workload all` runs every workload in turn.
`--record` runs one pass at the default seed and stores its stdout as the
reference later runs compare against byte for byte.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 2 when the program's source
is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import mean, median, median_low, quantiles

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference"
# One interpreter start (setup_s) and one run of the reference work are
# timed whenever SETUP_SPACING_S has passed.
SETUP_SPACING_S = 1.0
# The reported timings are in seconds at the CPU speed at which the
# reference work (workloads.reference_work in its own process) takes
# PACE_S of wall and of CPU time. On the machine where the benchmark was
# defined it took 0.08 s when the host was quiet.
PACE_S = 0.1
# Passes run until --seconds have passed, but never fewer than this.
MIN_PASSES = 3
# A command that uses more CPU than this is killed and counted as failed.
CPU_LIMIT_S = 150

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def child_env() -> dict:
    """The parent environment with src first on PYTHONPATH.

    WICKETLAB_JOBS is dropped because it changes what `census` runs.
    """
    env = dict(os.environ)
    env.pop("WICKETLAB_JOBS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def spawn(argv, env) -> tuple:
    """Run one process to completion: (exit code, stdout, wall s, rusage).

    rusage comes from wait4 on this child alone, and covers the worker
    processes it started and waited for.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, preexec_fn=_limit_cpu,
    )
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM or Ctrl-C): leave no process running.
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(errors="replace"), wall, usage


def load_reference(name: str) -> dict:
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        raise SystemExit(f"error: no recorded reference {path}")
    return json.loads(path.read_text())


def check(command, code: int, stdout: str, seed: int, reference,
          first_outputs: dict) -> bool:
    """Whether one command succeeded; reports the reason when not.

    Output must pass the command's own checks, match the recorded
    reference when the seed is the default or the command is unseeded,
    and repeat exactly what the first pass of this run printed.
    """
    try:
        if code != 0:
            raise workloads.CheckError(f"{command.label}: exit code {code}")
        use_ref = reference if (seed == workloads.DEFAULT_SEED
                                or not command.seeded) else None
        command.validate(stdout, use_ref)
        command.validate_artifact(use_ref)
        previous = first_outputs.setdefault(command.label, stdout)
        if previous != stdout:
            raise workloads.CheckError(
                f"{command.label}: output changed between passes")
    except workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return False
    return True


def untraced_run(name: str, seed: int, seconds: float, commands) -> dict:
    env = child_env()
    reference = load_reference(name)
    python = sys.executable
    import_argv = [python, "-c", "import wicketlab.cli"]
    # The reference work imports nothing from src, so no change to the
    # program can move it.
    pace_env = dict(env, PYTHONPATH=str(Path(__file__).resolve().parent))
    pace_argv = [python, "-c", "import workloads; workloads.reference_work()"]
    setup, pace = [], []

    def time_setup_and_pace() -> None:
        code, _out, wall, _usage = spawn(import_argv, env)
        if code != 0:
            raise SystemExit("error: cannot import wicketlab.cli")
        setup.append(wall)
        code, _out, wall, usage = spawn(pace_argv, pace_env)
        if code != 0:
            raise SystemExit("error: the reference work failed")
        pace.append((wall, usage.ru_utime + usage.ru_stime))

    # The first start compiles the bytecode; it is not timed.
    time_setup_and_pace()
    setup.clear()
    pace.clear()

    # per_command[i] holds (wall, cpu, rss) of command i, one per pass.
    per_command = [[] for _ in commands]
    attempted = failed = 0
    first_outputs: dict = {}
    start = time.perf_counter()
    last_tick = -math.inf
    # Passes run in order; the run stops at the first command that would
    # start after --seconds, once every command has MIN_PASSES samples.
    for index in itertools.count():
        command = commands[index % len(commands)]
        runs = per_command[index % len(commands)]
        if (time.perf_counter() - start >= seconds
                and len(runs) >= MIN_PASSES):
            break
        # Set-up and the reference work are sampled between commands,
        # spread over the whole run like the commands themselves.
        if time.perf_counter() - last_tick >= SETUP_SPACING_S:
            time_setup_and_pace()
            last_tick = time.perf_counter()
        code, out, wall, usage = spawn(
            [python, "-m", "wicketlab.cli", *command.args], env)
        attempted += 1
        if not check(command, code, out, seed, reference, first_outputs):
            failed += 1
        runs.append((wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024))

    columns = [list(zip(*runs)) for runs in per_command]
    raw = {
        "wall_s": sum(mean(c[0]) for c in columns),
        "cpu_s": sum(mean(c[1]) for c in columns),
        "setup_s": mean(setup),
    }
    # On a shared machine the CPU runs up to 1.5 times slower for stretches
    # of a run, and how much of a run is slow changes from run to run. The
    # reference work is slowed alike, so each timing is scaled by how long
    # the reference took in this run against PACE_S. Means, not medians:
    # over the same runs they spread least once scaled.
    wall_scale = PACE_S / mean(p[0] for p in pace)
    cpu_scale = PACE_S / mean(p[1] for p in pace)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": raw["wall_s"] * wall_scale,
            "cpu_s": raw["cpu_s"] * cpu_scale,
            "peak_rss_mb": max(median(c[2]) for c in columns),
            "setup_s": raw["setup_s"] * wall_scale,
        },
        "raw": raw,
        "setup": setup,
        "pace": pace,
        "commands": {
            command.label: dict(zip(("wall_s", "cpu_s", "peak_rss_mb"), c))
            for command, c in zip(commands, columns)
        },
    }


def _run_inprocess(main, command, tracer=None, index=0) -> tuple:
    """Run one command through the CLI's main: (exit code, stdout).

    An exception escaping main is reported and counts as exit code 1,
    as the same command run as a process would exit non-zero.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(list(command.args))
            else:
                code = tracer.call_main(main, list(command.args), index)
    except Exception:
        err.write(traceback.format_exc())
        code = 1
    sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def traced_run(name: str, seed: int, seconds: float, commands) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wicketlab.cli as cli

    reference = load_reference(name)
    attempted = failed = 0
    first_outputs: dict = {}
    untraced_walls, traced_walls, layer_samples = [], [], []
    tracer = None
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        # Alternate which pass of a pair goes first, so that warming up the
        # process does not favour one side of trace.overhead_ratio.
        order = (False, True) if len(traced_walls) % 2 == 0 else (True, False)
        for traced in order:
            # Every pass starts from the same collector state, so the one
            # that follows a large heap does not run fewer collections.
            gc.collect()
            if traced:
                tracer = tracing.Tracer()
                tracer.install()
            wall = 0.0
            try:
                for index, command in enumerate(commands):
                    t0 = time.perf_counter()
                    code, out = _run_inprocess(cli.main, command,
                                               tracer if traced else None,
                                               index)
                    wall += time.perf_counter() - t0
                    attempted += 1
                    if not check(command, code, out, seed, reference,
                                 first_outputs):
                        failed += 1
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_walls.append(wall)
                layer_samples.append(
                    tracing.layer_metrics(tracer.spans, tracer.counts))
            else:
                untraced_walls.append(wall)

    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{name}.jsonl")
    samples = {key: [s[key] for s in layer_samples] for key in layer_samples[0]}
    samples["trace.overhead_ratio"] = [
        t / u for t, u in zip(traced_walls, untraced_walls)]
    metrics = {key: median_low(values) for key, values in samples.items()}
    metrics["trace.overhead_ratio"] = (median(traced_walls)
                                       / median(untraced_walls))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def summarize(run: dict, units: dict) -> dict:
    metrics = {}
    for key, unit in units.items():
        metrics[key] = {"value": run["metrics"][key], "unit": unit}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def print_table(name: str, run: dict, units: dict) -> None:
    print(f"workload {name}")
    for key, unit in units.items():
        unscaled = (f" ({run['raw'][key]:.6g} {unit} unscaled)"
                    if key in run.get("raw", {}) else "")
        print(f"  {key:36s} {run['metrics'][key]:12.6g} {unit}{unscaled}")
    if "pace" in run:
        wall = [p[0] for p in run["pace"]]
        print(f"  {'reference work':36s} wall s: min {min(wall):.4g} mean "
              f"{mean(wall):.4g}; cpu s mean "
              f"{mean(p[1] for p in run['pace']):.4g}; n={len(wall)}")
    for label, group in run.get("commands", {}).items():
        wall = group["wall_s"]
        q = quantiles(wall, n=4) if len(wall) > 1 else wall * 3
        print(f"  {label:36s} wall s: min {min(wall):.4g} q1 {q[0]:.4g} "
              f"median {median(wall):.4g} q3 {q[2]:.4g} mean {mean(wall):.4g}; "
              f"cpu s mean {mean(group['cpu_s']):.4g}; rss MiB median "
              f"{median(group['peak_rss_mb']):.4g}; n={len(wall)}")
    rate = run["failed"] / run["attempted"]
    print(f"  {'error_rate':36s} {rate:12.6g} ratio "
          f"({run['failed']} of {run['attempted']} commands failed)")


def record(name: str) -> None:
    """Store one pass's stdout at the default seed as the reference."""
    workdir = WORK / f"record-{name}"
    commands = workloads.make_commands(name, workloads.DEFAULT_SEED, workdir)
    env = child_env()
    entries = {}
    for command in commands:
        code, out, _wall, _usage = spawn(
            [sys.executable, "-m", "wicketlab.cli", *command.args], env)
        if code != 0:
            raise SystemExit(f"error: {command.label} exited {code}")
        command.validate(out, None)
        command.validate_artifact(None)
        entries[command.label] = command.record(out)
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{name}.json"
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"recorded {path.relative_to(ROOT)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        commands = workloads.make_commands(name, seed, workdir)
        if trace:
            run = traced_run(name, seed, seconds, commands)
            units = per_layer_units()
        else:
            run = untraced_run(name, seed, seconds, commands)
            units = E2E_UNITS
            WORK.mkdir(exist_ok=True)
            (WORK / f"samples-{name}-{seed}.json").write_text(json.dumps(
                {"setup_s": run["setup"], "pace": run["pace"],
                 "commands": run["commands"]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_table(name, run, units)
    return summarize(run, units)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the default-seed outputs as reference")
    args = parser.parse_args(argv)

    if not (SRC / "wicketlab" / "cli.py").is_file():
        print(f"error: no wicketlab source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if args.record:
        for name in names:
            record(name)
        return 0

    print(f"python {platform.python_version()} cpus "
          f"{len(os.sched_getaffinity(0))} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
               for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
