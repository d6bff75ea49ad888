#!/usr/bin/env python3
"""Run one workload of the cold-rs benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the `cold` binary and the
benchmark (release profile, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), prints a provenance line, then runs the end-to-end runner
(`--trace 0`) or the traced per-layer runner (`--trace 1`). The runner's last
line of standard output is the JSON result. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

WORKLOADS = ("train", "serve_predict", "serve_reload")
# Sources whose digest identifies the code measured (the checkout the
# benchmark runs in need not be a git repository).
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", ".cargo", "crates", "shims", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = []
        if os.path.isfile(root):
            paths = [root]
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".work", "target")))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    dirty = None
    if rev is not None:
        dirty = bool(command_output(["git", "status", "--porcelain", "--untracked-files=no"]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256_16": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "profile": "release (workspace [profile.release], .cargo/config.toml rustflags)",
        "command": ["python3"] + sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def build(env, binary):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "cold-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml", "--bin", binary],
    ):
        # Cargo's output goes to stderr so standard output carries only
        # the benchmark's own lines.
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    for needed in ("Cargo.toml", "crates/cli/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a cold-rs source checkout")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    binary = "perfbench-trace" if args.trace else "perfbench"
    build(env, binary)
    print("provenance: " + json.dumps(provenance(args)), flush=True)

    cmd = [
        os.path.join(target, "release", binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cold", os.path.join(target, "release", "cold"),
        "--work", os.path.join("perfbench", ".work"),
    ]
    # Own process group, so a runner that overruns is stopped together
    # with the server it started.
    proc = subprocess.Popen(cmd, process_group=0)
    try:
        code = proc.wait(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the runner did not finish in time and was stopped")
    try:
        # Nothing the runner started may outlive it.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
