"""drrkit benchmark: drives the in-tree CLI through seeded workloads.

    python3 perfbench/run.py --workload ct_project --seed 1 --seconds 20 --trace 0

Run it from the repository root (any checkout holding ``src/drrkit``). The
CLI runs as ``python -m drrkit.cli`` with ``PYTHONPATH=<checkout>/src``, so each
checkout measures its own source; nothing needs installing.

``--trace 0`` is the measured run: a closed loop with one client, each CLI
call a fresh process started when the previous one has returned. Passes over
the workload repeat until the next would end after ``--seconds`` (at least
two, so every pass's outputs can be compared with the first's). It reports
the end-to-end metrics.

``--trace 1`` makes one untraced subprocess pass (per-subcommand wall time),
then in-process passes through ``drrkit.cli.main``: untraced, traced (every
layer's public functions wrapped, layertrace.py), untraced again, and one
measuring peak memory; then start-up and import probes. It reports the
per-layer metrics.

Every call's outputs are checked (workloads.py). The last stdout line is the
result JSON; the line before it records the machine. All files go under
``.perfbench/`` in the checkout, and the inputs and outputs are deleted at
the end. What the CLI printed is kept in ``.perfbench/<workload>.log`` and
the traced run's spans in ``.perfbench/<workload>-spans.json``.
See perfbench/README.md for the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX = 15
MIN_PASSES = 2
COMMANDS = ("project", "measure", "evaluate", "stats")
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import drrkit.cli; "
                  "print(time.perf_counter() - t)")


@dataclass
class Pass:
    wall_s: float
    seconds: list[float] = field(default_factory=list)       # per call
    commands: list[str] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)


def child_env(work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv: list[str], env: dict, log) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "drrkit.cli", *args]


def run_pass(workload, inputs: Path, out: Path, execute, reference: Pass | None) -> Pass:
    """One timed pass over the workload's calls, then the output checks."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    done = []
    start = time.perf_counter()
    for call in workload.calls(inputs, out):
        done.append((call, *execute(call.args)))
    result = Pass(wall_s=time.perf_counter() - start)
    for n, (call, code, seconds, rss) in enumerate(done):
        problems = [] if code == 0 else [f"exit code {code}"]
        dig = None
        if code == 0:
            try:
                problems += call.check()
                dig = digest(call.output)
            except Exception as exc:   # a malformed or missing output is a failed check
                problems.append(f"{type(exc).__name__}: {exc}")
        if reference is not None and dig is not None and dig != reference.digests[n]:
            problems.append("output differs from the first pass")
        result.seconds.append(seconds)
        result.commands.append(call.cmd)
        result.rss_mb.append(rss)
        result.problems.append(problems)
        result.digests.append(dig)
    return result


def setup_inputs(workload, inputs: Path, seed: int, repeats: int) -> list[float]:
    """Generate the inputs at least ``repeats`` times and for SETUP_MIN_S;
    returns each generation's seconds. The last set is flushed to disk
    (untimed) so its write-back does not overlap the measured passes."""
    times: list[float] = []
    while len(times) < repeats or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(inputs, seed)
        times.append(time.perf_counter() - start)
    for path in inputs.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    return times


def machine() -> dict:
    l3 = "unknown"
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        l3 = next((line.split(":", 1)[1].strip() for line in lscpu.splitlines()
                   if line.startswith("L3")), l3)
    except (OSError, subprocess.SubprocessError):
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)), "ram_gb": round(ram / 2 ** 30, 1),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"), "l3": l3}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def warm_up(env, log) -> list[str]:
    """One untimed ``--version`` call: set-up's writes can push the
    interpreter's and libraries' pages out of the page cache, and that
    reload would otherwise land on the first timed call."""
    code = run_child(cli_argv(["--version"]), env, log)[0]
    return [f"--version exit code {code}"] if code else []


def measured_run(workload, inputs, out, seconds, env, log):
    execute = lambda args: run_child(cli_argv(args), env, log)   # noqa: E731
    passes: list[Pass] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + passes[-1].wall_s <= seconds):
        passes.append(run_pass(workload, inputs, out, execute,
                               passes[0] if passes else None))
    calls = [s for p in passes for s in p.seconds]
    metrics = {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "call_p50_ms": metric(statistics.median(calls) * 1e3, "ms"),
        "peak_rss_mb": metric(max(r for p in passes for r in p.rss_mb), "MB"),
    }
    return passes, metrics


def traced_run(workload, inputs, out, env, log, spans_path: Path, probes: int):
    sub = run_pass(workload, inputs, out,
                   lambda args: run_child(cli_argv(args), env, log), None)

    sys.path.insert(0, str(SRC))
    from drrkit import cli
    if Path(cli.__file__).resolve().parent != SRC / "drrkit":
        raise RuntimeError(f"imported drrkit from {cli.__file__}, not {SRC}")

    def in_process(args):
        start = time.perf_counter()
        code = cli.main(args)
        return code, time.perf_counter() - start, 0.0

    # Untraced passes on both sides of the traced one, so warm-up in the
    # process does not count as tracing overhead.
    before = run_pass(workload, inputs, out, in_process, sub)
    with Tracer() as tracer:
        traced = run_pass(workload, inputs, out, in_process, sub)
    spans_path.write_text(json.dumps(tracer.span_records()) + "\n")
    after = run_pass(workload, inputs, out, in_process, sub)
    with Tracer(memory=True) as memory:
        peaks = run_pass(workload, inputs, out, in_process, sub)

    startup = [run_child(cli_argv(["--version"]), env, log) for _ in range(probes)]
    imports = [subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
               for _ in range(probes)]
    import_s = [float(r.stdout) for r in imports if r.returncode == 0]

    metrics = {name: metric(v, unit)
               for name, (v, unit) in tracer.layer_metrics(memory.peak_bytes).items()}
    metrics["cli.startup_ms"] = metric(statistics.median(s[1] for s in startup) * 1e3, "ms")
    metrics["cli.import_ms"] = metric(
        statistics.median(import_s) * 1e3 if import_s else 0.0, "ms")
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}_s"] = metric(
            sum(s for c, s in zip(sub.commands, sub.seconds) if c == cmd), "s")
    plain_s = (before.wall_s + after.wall_s) / 2.0
    metrics["trace_overhead_pct"] = metric(100.0 * (traced.wall_s - plain_s) / plain_s, "%")
    probe_problems = ([[f"--version exit code {s[0]}"] if s[0] else [] for s in startup]
                      + [[f"import probe exit code {r.returncode}"] if r.returncode else []
                         for r in imports])
    return [sub, before, traced, after, peaks], probe_problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking that the benchmark works")
    args = parser.parse_args(argv)

    if not (SRC / "drrkit" / "cli.py").is_file():
        print(f"error: {SRC / 'drrkit'} not found; run from a drrkit checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.smoke)
    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, out = work / "inputs", work / "out"
    env = child_env(work)
    header = {"machine": machine(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke}
    try:
        with open(WORK_ROOT / f"{args.workload}.log", "wb") as log:
            setups = setup_inputs(workload, inputs, args.seed,
                                  1 if args.trace else SETUP_REPEATS)
            warm = warm_up(env, log)
            if args.trace:
                passes, extra, metrics = traced_run(
                    workload, inputs, out, env, log,
                    WORK_ROOT / f"{args.workload}-spans.json", 2 if args.smoke else 5)
            else:
                passes, metrics = measured_run(workload, inputs, out, args.seconds, env, log)
                extra = []
                metrics["setup_s"] = metric(statistics.median(setups), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [warm] + [p for ps in passes for p in ps.problems] + extra
    for n, p in enumerate(problems):
        if p:
            print(f"check failed ({n}): {'; '.join(p)}", file=sys.stderr)
    failed = sum(1 for p in problems if p)
    header["passes"] = len(passes)
    header["pass_wall_s"] = [round(p.wall_s, 4) for p in passes]
    header["calls_per_pass"] = len(passes[0].seconds)
    print(json.dumps(header, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(problems),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
