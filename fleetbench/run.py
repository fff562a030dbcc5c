#!/usr/bin/env python3
"""Fleet benchmark: builds fleet_bench from the repository's sources and runs it.

One workload (the form the benchmark contract uses):

    python3 fleetbench/run.py --workload sim_heavy --seed 1 --seconds 20 --trace 0

prints the program's report and, as its last line, one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

Every workload, end to end and traced, with a table of metrics:

    python3 fleetbench/run.py [--seed 1] [--seconds 20]

Re-pin the exact model counters for seeds 1..N (see README.md):

    python3 fleetbench/run.py --pin 10

Build files, logs, the supervisor's state directory and span dumps all go
under .bench_build/ at the repository root. The exit status is non-zero when
the build fails, an output check fails or the program does not finish.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "fleetbench"
BINARY = BUILD / "fleet_bench"
PINS = HERE / "pinned_counts.json"
WORKLOADS = ["sim_heavy", "settle_heavy", "supervised_byzantine"]
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "fleet" / "engine.hpp").is_file():
        sys.exit("fleetbench: no library sources at %s" % (ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = WORK / "fleetbench-build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit("fleetbench: build failed, log in %s" % log_path)


def run_program(workload, seed, seconds, trace):
    """Runs fleet_bench once; returns (exit code, stdout lines)."""
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    state_dir = WORK / "fleetbench-state" / workload
    shutil.rmtree(state_dir, ignore_errors=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--state-dir", str(state_dir)]
    if trace:
        command += ["--trace-out", str(WORK / "fleetbench-trace" / (tag + ".json"))]
    # The library logs one line per failed negotiation; keep them in a file
    # so that the sink is the same on every run.
    with open(WORK / ("fleetbench-%s.log" % tag), "w") as log:
        try:
            proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write("fleetbench: %s did not finish in %d s\n" % (tag, RUN_TIMEOUT_S))
            return 1, []
    return proc.returncode, proc.stdout.splitlines()


def compare_pins(workload, seed, counters):
    """Reports whether the exact model counts match the pinned ones."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return "simulated statistics: no pinned counts for %s seed %d" % (workload, seed)
    # A --trace 0 run reports a subset of the pinned counts; a failure
    # reason that appears or disappears is a change either way.
    keys = [k for k in sorted(set(pinned) | set(counters))
            if (k in pinned and k in counters) or k.startswith("core.settle.failed_by.")]
    changed = ["%s: pinned %s, now %s" % (k, pinned.get(k), counters.get(k))
               for k in keys if pinned.get(k) != counters.get(k)]
    if changed:
        return "simulated statistics changed:\n  " + "\n  ".join(changed)
    return "simulated statistics unchanged (%d pinned counts)" % len(keys)


def split_output(lines):
    """Returns (report lines, counters, result object or None)."""
    report, counters, result = [], {}, None
    for line in lines:
        if line.startswith("COUNTERS "):
            counters = json.loads(line[len("COUNTERS "):])
        else:
            report.append(line)
    if report:
        try:
            result = json.loads(report[-1])
            report = report[:-1]
        except ValueError:
            result = None
    return report, counters, result


def single(args):
    code, lines = run_program(args.workload, args.seed, args.seconds, args.trace)
    report, counters, result = split_output(lines)
    for line in report:
        print(line)
    if result is None:
        sys.stderr.write("fleetbench: the program printed no result (exit %d)\n" % code)
        return code or 1
    print(compare_pins(args.workload, args.seed, counters))
    print(json.dumps(result))
    return code


def everything(args):
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_program(workload, args.seed, args.seconds, trace)
            report, counters, result = split_output(lines)
            kind = "per-layer (traced)" if trace else "end to end"
            print("== %s, %s, seed %d ==" % (workload, kind, args.seed))
            for line in report:
                if line.startswith("CHECK FAILED") or line.startswith("settlement"):
                    print("  " + line)
            if result is None:
                print("  no result (exit %d)" % code)
                status = 1
                continue
            print("  " + compare_pins(workload, args.seed, counters).replace("\n", "\n  "))
            print("  correct %s, attempted %d, failed %d" % (
                result["correct"], result["attempted"], result["failed"]))
            for name, metric in result["metrics"].items():
                value = metric["value"]
                shown = "%d" % value if value == int(value) else "%.6g" % value
                print("  %-42s %16s %s" % (name, shown, metric["unit"]))
            if code or not result["correct"]:
                status = 1
    return status


def pin(count):
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    for workload in WORKLOADS:
        for seed in range(1, count + 1):
            code, lines = run_program(workload, seed, 0, 1)
            _, counters, result = split_output(lines)
            if code or result is None or not result["correct"] or not counters:
                sys.exit("fleetbench: %s seed %d failed, nothing pinned" % (workload, seed))
            pins.setdefault(workload, {})[str(seed)] = counters
            print("pinned %s seed %d: %d counts" % (workload, seed, len(counters)))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", type=int, metavar="N",
                        help="re-pin the model counts for seeds 1..N")
    args = parser.parse_args()
    build()
    if args.pin:
        return pin(args.pin)
    if args.workload:
        return single(args)
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
