#!/usr/bin/env python3
"""Sweep benchmark: build, measure, check, report.

Run from the repository root:

    python3 sweepbench/run.py --workload grid --seed 1 --seconds 25 --trace 0
    python3 sweepbench/run.py --self-test

Builds the repository's libraries and CLI unchanged, together with the
benchmark (sweepbench/CMakeLists.txt), into .bench_build/, then runs
each measured phase of the workload in its own process: set-up five
times, untraced sweeps until --seconds have passed, a traced sweep when
--trace 1 (grid and deep), and the straight-simulation oracle. The
last stdout line is one JSON object with "correct", "attempted",
"failed" and the end-to-end (--trace 0) or per-layer (--trace 1)
metrics. See sweepbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORKLOADS = ("grid", "deep", "fleet")
SETUP_REPS = 5
# Every phase of one run must end within this many seconds.
RUN_BUDGET_S = 170

END_TO_END = [
    ("sweep_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "count"),
]

# (name, unit, key in a phase's "layer" object, or None when run.py
# derives it itself).
PER_LAYER = [
    ("workloads.assemble_s", "s", "workloads.assemble_s"),
    ("sim.golden_s", "s", "sim.golden_s"),
    ("sim.golden_cycles", "count", "sim.golden_cycles"),
    ("sim.golden_mcycles_per_s", "Mcycles/s", "sim.golden_mcycles_per_s"),
    ("core.golden_store.sims", "count", "core.golden_store.sims"),
    ("core.golden_store.wait_s", "s", "core.golden_store.wait_s"),
    ("core.study.plan_s", "s", "core.study.plan_s"),
    ("core.study.cohorts", "count", None),
    ("core.study.runs_per_cohort", "count", None),
    ("core.study.finalize_s", "s", "core.study.finalize_s"),
    ("core.campaign.cohort_busy_s", "s", "core.campaign.cohort_busy_s"),
    ("core.campaign.cohort_p50_ms", "ms", "core.campaign.cohort_p50_ms"),
    ("core.campaign.cohort_p99_ms", "ms", "core.campaign.cohort_p99_ms"),
    ("core.campaign.utilization", "ratio", "core.campaign.utilization"),
    ("core.campaign.tail_s", "s", "core.campaign.tail_s"),
    ("core.campaign.forks", "count", "campaign.forks"),
    ("core.campaign.never_forked", "count", "campaign.never_forked"),
    ("core.campaign.dead_exits", "count", "campaign.exit.dead_fault"),
    ("core.campaign.converged_exits", "count", "campaign.exit.converged"),
    ("core.campaign.converged_per_forked_masked", "ratio",
     "core.campaign.converged_per_forked_masked"),
    ("core.campaign.cycles_simulated", "count",
     "campaign.cycles_simulated"),
    ("core.campaign.cursor_cycles", "count", "campaign.cursor_cycles"),
    ("core.campaign.overlay_cycles", "count", "campaign.overlay_cycles"),
    ("core.campaign.cycles_saved", "count", "campaign.cycles_saved"),
    ("core.campaign.private_mcycles_per_s", "Mcycles/s",
     "core.campaign.private_mcycles_per_s"),
    ("core.campaign.decode_hits", "count", "campaign.decode_hits"),
    ("core.campaign.snapshot_bytes", "bytes", "snapshot.bytes_copied"),
    ("util.journal.bytes", "bytes", "util.journal.bytes"),
    ("util.journal.records", "count", "util.journal.records"),
    ("util.journal.replay_s", "s", "util.journal.replay_s"),
    ("dist.coord_cpu_s", "s", "dist.coord_cpu_s"),
    ("dist.worker_cpu_s", "s", "dist.worker_cpu_s"),
    ("dist.workers", "count", "dist.workers"),
    ("dist.respawns", "count", "dist.respawns"),
    ("dist.leases_reclaimed", "count", "dist.leases_reclaimed"),
    ("oracle.checked", "count", "oracle.checked"),
    ("oracle.converged_checked", "count", "oracle.converged_checked"),
    ("oracle.mismatches", "count", "oracle.mismatches"),
    ("trace.wall_s", "s", None),
    ("trace.overhead_s", "s", None),
]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print("sweepbench: " + msg, file=sys.stderr, flush=True)


def refuse_knob_environment():
    # Campaign and Study read MBUSIM_* variables over their configs.
    knobs = sorted(k for k in os.environ if k.startswith("MBUSIM_"))
    if knobs:
        raise BenchError("refusing to run with %s set; unset every "
                         "MBUSIM_* variable" % ", ".join(knobs))


def build(targets):
    for leaf in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, leaf)):
            raise BenchError("%s not found: run from a checkout of the "
                             "mbusim repository" % leaf)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _quiet(["cmake", "-S", os.path.join(ROOT, "sweepbench"), "-B",
                BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
               "configure")
    _quiet(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
           "build")


def _quiet(cmd, what):
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        raise BenchError("%s failed (exit %d)" % (what, done.returncode))


def build_info():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    build_type = build_type.group(1) if build_type else ""
    if build_type in ("", "Debug"):
        raise BenchError("refusing an unoptimized (%r) build"
                         % build_type)
    compiler = "?"
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            found = dict(re.findall(
                r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "(.*)"\)', f.read()))
        compiler = "%s %s" % (found.get("ID"), found.get("VERSION"))
    return build_type, compiler


def commit():
    """The git commit when there is one, and always a digest of the
    sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "sweepbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    return "%s sources=%s" % (rev, digest.hexdigest()[:16])


class Runner:
    """Runs phases of one workload at one seed, each in its own
    process group, within the run's time budget."""

    def __init__(self, args, out):
        self.args = args
        self.out = out
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def phase(self, name, *extra):
        cmd = [os.path.join(BUILD, "sweepbench"), name,
               "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--out", self.out]
        cmd += list(extra)
        out_path = os.path.join(self.out, "phase.out")
        with open(out_path, "w") as out:
            proc = subprocess.Popen(cmd, stdout=out, start_new_session=True)
        try:
            status, usage = _wait(proc.pid, self.deadline)
        except BaseException:
            _kill_group(proc.pid)
            raise
        finally:
            proc.returncode = -1   # reaped here; keep Popen from waiting
        if status != 0:
            raise BenchError("phase %s exited %d" % (name, status))
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            raise BenchError("phase %s printed no result" % name)
        result = json.loads(lines[-1])
        # Peak RSS of the phase process and of every descendant it
        # waited for (fleet's worker processes).
        result["maxrss_mib"] = usage.ru_maxrss / 1024.0
        return result


def _wait(pid, deadline):
    """Reap @pid by its deadline; (exit code, its rusage)."""
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done == pid:
            return os.waitstatus_to_exitcode(status), usage
        if time.monotonic() > deadline:
            raise BenchError("a phase ran past the %d s budget"
                             % RUN_BUDGET_S)
        time.sleep(0.02)


def _kill_group(pid):
    """SIGKILL a phase's process group, reap the phase and wait until
    every other member (worker processes) is gone."""
    try:
        os.killpg(pid, signal.SIGKILL)
        os.wait4(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass
    for _ in range(500):
        try:
            os.killpg(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def measure(args):
    out = os.path.join(ROOT, ".bench_build", "runs",
                       "%s-seed%d" % (args.workload, args.seed))
    os.makedirs(out, exist_ok=True)
    for stale in glob.glob(os.path.join(out, "*")):
        if os.path.isfile(stale):
            os.remove(stale)
    runner = Runner(args, out)
    failures = []

    setups = [runner.phase("setup") for _ in range(SETUP_REPS)]
    # Sweeps for --seconds: another one starts only while it is
    # expected to end in time, so a run never overshoots by a sweep.
    sweeps = []
    start = time.monotonic()
    while not sweeps or (time.monotonic() - start) * (len(sweeps) + 1) \
            / len(sweeps) <= args.seconds:
        sweeps.append(runner.phase("sweep", "--rep", str(len(sweeps)),
                                   "--worker-exe",
                                   os.path.join(BUILD, "mbusim_tools",
                                                "mbusim")))
        log("sweep %d: %.3f s wall, %.3f s cpu, %.1f MiB"
            % (len(sweeps), sweeps[-1]["wall_s"], sweeps[-1]["cpu_s"],
               sweeps[-1]["maxrss_mib"]))
    traced = None
    if args.trace and args.workload != "fleet":
        traced = runner.phase("traced")
    oracle = runner.phase("oracle")

    # --- Output checks across processes.
    for p in setups + sweeps + [oracle] + ([traced] if traced else []):
        failures += ["%s: %s" % (p["phase"], f) for f in p["failures"]]
    if len({s["cohorts"] for s in setups}) != 1:
        failures.append("set-ups planned different cohorts")
    digests = {s["digest"] for s in sweeps}
    digests |= {s["replay_digest"] for s in sweeps if "replay_digest" in s}
    if traced:
        digests.add(traced["digest"])
    if len(digests) != 1:
        failures.append("records digests differ: %s" % sorted(digests))
    if len({s["sim_cycles"] for s in sweeps}) != 1:
        failures.append("sweeps simulated different cycle counts")
    for f in failures:
        log("check failed: " + f)
    for f in oracle["failed_runs"]:
        log("failed run: " + f)

    sweep_wall = statistics.median(s["wall_s"] for s in sweeps)
    e2e = {
        "sweep_s": sweep_wall,
        "cpu_s": statistics.median(s["cpu_s"] for s in sweeps),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["maxrss_mib"] for s in sweeps),
        "sim_cycles": sweeps[0]["sim_cycles"],
    }
    layer = dict(sweeps[0]["layer"])
    if traced:
        layer.update(traced["layer"])
    layer.update(oracle["layer"])
    cohorts = setups[0]["cohorts"]
    derived = {
        "core.study.cohorts": cohorts,
        "core.study.runs_per_cohort":
            sweeps[0]["runs"] / cohorts if cohorts else 0,
        "trace.wall_s": traced["wall_s"] if traced else 0,
        "trace.overhead_s":
            traced["wall_s"] - sweep_wall if traced else 0,
    }
    per_layer = {name: derived[name] if key is None else layer.get(key, 0)
                 for name, _, key in PER_LAYER}

    metrics = {}
    for name, unit in END_TO_END:
        print("metric %s %r %s" % (name, e2e[name], unit))
        if not args.trace:
            metrics[name] = {"value": e2e[name], "unit": unit}
    for name, unit, _ in PER_LAYER:
        print("metric %s %r %s" % (name, per_layer[name], unit))
        if args.trace:
            metrics[name] = {"value": per_layer[name], "unit": unit}
    print("sweepbench: %d sweeps, %d oracle checks (%s), %d failed runs"
          % (len(sweeps), layer["oracle.checked"],
             ", ".join("%s %d" % kv for kv in oracle["by_path"].items()),
             len(oracle["failed_runs"])))
    return {
        "correct": not failures,
        "attempted": int(sweeps[0]["runs"]),
        "failed": len(oracle["failed_runs"]),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the oracle self-test")
    args = parser.parse_args()
    # A terminated run still kills its phase's process group (the
    # except clause in Runner.phase) before it exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    if not args.self_test and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        refuse_knob_environment()
        if args.self_test:
            build(["sweepbench_selftest"])
            return subprocess.run([os.path.join(BUILD,
                                                "sweepbench_selftest")],
                                  cwd=BUILD).returncode
        build(["sweepbench", "mbusim"])
        build_type, compiler = build_info()
        print("sweepbench: workload=%s seed=%d seconds=%d trace=%d"
              % (args.workload, args.seed, args.seconds, args.trace))
        print("sweepbench: build=%s compiler=%s nproc=%d threads=%d "
              "commit=%s" % (build_type, compiler, os.cpu_count(),
                             os.cpu_count(), commit()), flush=True)
        result = measure(args)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
