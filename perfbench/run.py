#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload am_batch|te_typing \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the measuring program
(perfbench/perf.exe) and the server binary (bin/dggt_cli.exe) from
source into .bench_build/, then runs the workload:

  am_batch   the ASTMatcher query set through Engine.respond in-process,
             one closed-loop caller, whole passes in a seeded order
  te_typing  two closed-loop session clients typing the TextEditing
             queries word by word into a spawned `dggt serve`

`--seconds` is the minimum measured time; the closed-loop workloads
measure whole passes over their query set, so every run does the same
work. With --trace 0 the end-to-end metrics are printed, with --trace 1
the per-layer ones (spans are written to .perfbench_out/). Every
workload reports every metric BENCHMARK.json names: a per-layer metric
of a layer the workload does not exercise (the HTTP server under
am_batch) reads 0. Every operation's answer is
checked; the last stdout line is the JSON result and the exit code is
non-zero when any operation failed.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PERF = os.path.join(BUILD_DIR, "default", "perfbench", "perf.exe")
DGGT = os.path.join(BUILD_DIR, "default", "bin", "dggt_cli.exe")

# a run must end within 180 s; the first one in a checkout also builds
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the program's sources, for the result envelope."""
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(deadline):
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s in %s: run from the root of a full checkout" % (need, ROOT))
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "./perfbench/perf.exe", "./bin/dggt_cli.exe"]
    try:
        # the build's chatter goes to stderr: stdout carries only results
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=max(1, deadline - time.time()))
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def complete(result, trace):
    """Fill in the BENCHMARK.json metrics the workload does not exercise.

    End-to-end metrics are never filled: a missing one is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = result["metrics"]
    if trace:
        for m in bench["per_layer"]:
            if m["name"] not in metrics:
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
                print("metric %-34s %16d %s (layer not exercised)" % (m["name"], 0, m["unit"]))
    else:
        missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in metrics]
        if missing:
            fail("workload did not report %s" % ", ".join(missing), 1)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["am_batch", "te_typing"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()

    start = time.time()
    build(start + BUILD_LIMIT_S)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [PERF, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--dggt", DGGT, "--out", OUT_DIR,
           "--commit", commit(), "--source-digest", source_digest()]
    out_path = os.path.join(OUT_DIR, "stdout-%s-trace%d.txt" % (a.workload, a.trace))
    with open(out_path, "w+") as out:
        # its own process group, so a timeout takes the server child down too
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, start_new_session=True)
        code = wait(proc, a.workload)
        out.seek(0)
        lines = out.read().splitlines()
    # everything but the result line passes through; the result line
    # comes last, completed
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        fail("%s printed no result (exit %d)" % (a.workload, code), code or 1)
    result = complete(json.loads(lines[-1]), a.trace == 1)
    print(json.dumps(result), flush=True)
    sys.exit(code)


def wait(proc, workload):
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        for sig, grace in ((signal.SIGTERM, 5), (signal.SIGKILL, 5)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=grace)
                break
            except subprocess.TimeoutExpired:
                continue
        fail("%s did not finish within %d s" % (workload, RUN_LIMIT_S), 124)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        raise


if __name__ == "__main__":
    main()
