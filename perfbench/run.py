#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload tpch_power --seed 1 --seconds 4 --trace 0

Builds perfbench/loadgen.cc and the engine sources it links (../src) with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs the load generator, checks
its answers, and prints every metric by name and unit. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a separate traced run with --trace 1.

    python3 perfbench/run.py --selftest         # the benchmark's own tests
    python3 perfbench/run.py --derive-goldens   # rewrite goldens.txt

See perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

WORKLOADS = ("tpch_power", "short_stmt", "ingest_read")
# The load generator process is killed after this long (the build before it is not
# counted: the first run in a checkout compiles the engine).
RUN_TIMEOUT_S = 160


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the load generator; build output goes to stderr
    so standard output keeps the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: engine sources not found next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "hawq_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "hawq_perfbench")


def git_commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_loadgen(exe, args, deadline_s):
    """Runs the load generator; returns (exit code, records). A run that is
    cut or crashes still leaves the records it flushed."""
    out = os.path.join(build_dir(), "last_%s_trace%d.jsonl" % (args.workload, args.trace))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--goldens", os.path.join(HERE, "goldens.txt"),
           "--workdir", build_dir()]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = -9
    records = []
    if os.path.exists(out):
        with open(out) as f:
            for line in f:
                try:
                    records.append(json.loads(line))
                except ValueError:
                    pass  # a line torn by a crash
    return code, records


def metric_units(s, trace):
    return {m["name"]: m["unit"] for m in s["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--derive-goldens", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        exe = build()
        code = subprocess.run([sys.executable, "-m", "unittest", "-q",
                               "test_benchlib"], cwd=HERE).returncode
        return code or subprocess.run([exe, "--selftest"]).returncode
    if args.derive_goldens:
        exe = build()
        return subprocess.run([exe, "--derive-goldens", "--out",
                               os.path.join(HERE, "goldens.txt")]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    s = spec()
    if args.seconds is None:
        args.seconds = s["run_seconds"]
    exe = build()
    code, records = run_loadgen(exe, args, RUN_TIMEOUT_S)

    ix, _ = benchlib.index(records)
    end = ix["end"][0] if ix["end"] else None
    checks = ix["check"]
    bad_checks = [c for c in checks if not c["ok"]]
    if end is None:
        # Aborted run: every statement not known to have succeeded failed.
        prog = ix["progress"][-1] if ix["progress"] else {"attempted": 0, "ok": 0}
        attempted = int(prog["attempted"]) + 1
        failed = attempted - int(prog["ok"])
        refused = 0
    else:
        attempted, failed = int(end["attempted"]), int(end["failed"])
        refused = int(end["refused"])
    correct = code == 0 and end is not None and end["ok"] and failed == 0 \
        and not bad_checks

    metrics, info = {}, {}
    if end is not None and end["ok"]:
        try:
            if args.trace:
                metrics, info = benchlib.layer_metrics(records)
                if info["breakdown_worst_gap"] > 1e-6:
                    correct = False
                    bad_checks.append({"name": "breakdown_adds_up", "detail":
                                       "worst gap %.3g" % info["breakdown_worst_gap"]})
            else:
                metrics, info = benchlib.e2e_metrics(args.workload, records)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            # Records the load generator should have written are missing.
            correct = False
            bad_checks.append({"name": "loadgen_records", "detail": repr(e)})

    meta = dict(ix["meta"][0]) if ix["meta"] else {}
    meta.pop("t", None)
    meta["reported_attempt"], steal = benchlib.chosen_attempt(records)
    meta["attempts"] = len(ix["attempt"])
    main = benchlib.phase(ix, "traced" if args.trace else "timed")
    if steal is None and main is not None:
        steal = main["cpu_steal_share"]
    if steal is not None:
        meta["cpu_steal_share"] = round(steal, 3)
    meta.update(git_commit=git_commit(), seconds=args.seconds, trace=args.trace,
                attempted=attempted, failed=failed, refused=refused,
                loadgen_exit=code, **info)
    print("run: " + json.dumps(meta, sort_keys=True))
    for c in bad_checks:
        print("CHECK FAILED: %s: %s" % (c["name"], c.get("detail", "")))
    if failed:
        print("!!! %d of %d statements FAILED (%d refused) !!!"
              % (failed, attempted, refused))
        print("!!! %d of %d statements FAILED !!!" % (failed, attempted),
              file=sys.stderr)
    units = metric_units(s, args.trace)
    for name in units:
        if name in metrics:
            print("%-34s %16.6g %s" % (name, metrics[name], units[name]))
    result = benchlib.make_result(correct, attempted, failed, metrics, units)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
