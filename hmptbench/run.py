#!/usr/bin/env python3
"""The hmpt benchmark: one command per workload run.

    python3 hmptbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the program and the measuring
binary hmptbench from source into .bench_build (or $CARGO_TARGET_DIR),
generates the workload's inputs from the seed into .bench_work, runs
hmptbench, checks the outputs (the correctness gate) and prints every
metric by name with its unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics, a self-time-per-layer table of the Chrome trace
the traced run writes, and checks that trace with tools/check_trace.py.
Exits 0 when the gate holds, 1 when it fails, 2 when it cannot run.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
WORK = ".bench_work"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("hmptbench: " + message)
    sys.exit(2)


def run_quiet(command, **kwargs):
    """Run a command with its output on stderr; raise on failure."""
    subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   **kwargs)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_quiet(["cmake", "--build", build_dir, "--target", "hmptbench",
               "-j", "4"])
    return (os.path.join(build_dir, "hmptbench"),
            os.path.join(build_dir, "hmpt", "hmptd"))


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def filesystem_of(path):
    """The type of the filesystem holding `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def fsync_ms(directory, count=20):
    """Median latency of a 4 KiB write + fsync, in ms."""
    path = os.path.join(directory, "fsync.probe")
    times = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for _ in range(count):
            os.write(fd, b"x" * 4096)
            start = time.perf_counter()
            os.fsync(fd)
            times.append((time.perf_counter() - start) * 1e3)
    finally:
        os.close(fd)
        os.remove(path)
    return statistics.median(times)


def host(build_dir, work):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version[0] if version else compiler,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "filesystem": filesystem_of(work),
        "fsync_ms": round(fsync_ms(work), 4),
    }


def run_measure(command, timeout):
    """Run hmptbench in its own process group (it starts hmptd); on a
    timeout kill the whole group."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail("hmptbench timed out after %d s" % timeout)
    if process.returncode != 0:
        fail("hmptbench failed with exit code %d" % process.returncode)
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile("tools/check_trace.py")):
        fail("run from the root of an hmpt checkout (CMakeLists.txt, src/ "
             "and tools/check_trace.py not found)")
    spec = benchlib.load_json("BENCHMARK.json")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary, hmptd = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    shutil.rmtree(WORK, ignore_errors=True)
    inputs = os.path.join(WORK, "inputs")
    work = os.path.join(WORK, "run")
    os.makedirs(work)
    benchlib.write_inputs(args.workload, args.seed, inputs)
    machine = host(build_dir, WORK)
    trace_path = os.path.join(WORK, "trace.json")

    command = [binary, "--workload", args.workload, "--inputs", inputs,
               "--work", work, "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--hmptd", hmptd]
    if args.trace:
        command += ["--trace-out", trace_path]
    raw = run_measure(command, timeout=args.seconds + 150)

    metrics, notes = benchlib.reduce(raw)
    failures = benchlib.gate(raw["identity"], raw["checks"])
    if args.trace:
        checked = subprocess.run([sys.executable, "tools/check_trace.py",
                                  trace_path], capture_output=True, text=True)
        if checked.returncode != 0:
            failures.append("check_trace.py rejected %s: %s"
                            % (trace_path, checked.stderr.strip()))
        table = benchlib.self_times(benchlib.load_json(trace_path))
        metrics["campaign.unattributed_share"] = (
            benchlib.unattributed_share(table))
    shutil.rmtree(work, ignore_errors=True)

    for name in units:
        value = metrics.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append("metric %s missing or not finite" % name)
        elif not args.trace and value <= 0:
            failures.append("metric %s is %r, must be > 0" % (name, value))
    for name in list(units) + [args.workload]:
        if not benchlib.valid_name(name):
            failures.append("invalid name %r" % name)

    print("hmptbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host " + json.dumps(machine, sort_keys=True))
    for note in notes:
        print("  " + note)
    if args.trace:
        print("self time per layer (%s):" % trace_path)
        for line in benchlib.format_table(table):
            print("  " + line)
    for name, value in sorted(metrics.items()):
        if name not in units:
            print("  (extra) %s = %.6g" % (name, value))
    for name in units:
        if name in metrics:
            print("%-32s %16.6f %s" % (name, metrics[name], units[name]))
    identities = len(raw["identity"])
    print("gate: %d byte identities, %d checks, %d failures"
          % (identities, len(raw["checks"]), len(failures)))
    for failure in failures:
        print("  GATE FAILED: " + failure)

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(raw["attempted"])),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
