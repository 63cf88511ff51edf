#!/usr/bin/env python3
"""Builds the engine benchmark from this source tree and runs one workload.

    python3 perfbench/run.py --workload query_alone --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a source tree. It configures and builds a Release
binary in .bench_build/ (incremental after the first run), keeps its
durable directories and span files under .bench_work/, and then replaces
itself with the binary, whose last line of standard output is the result
JSON. Build output goes to standard error.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("query_alone", "query_with_writer", "load_restart")


def fail(msg):
    sys.stderr.write("perfbench: " + msg + "\n")
    sys.exit(2)


def source_identity(root):
    """The git commit when `root` is a checkout, else a digest of its engine sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src"],
                                   capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cached_engine_root(build_dir):
    """The engine tree `build_dir` was configured for, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("PERFBENCH_ENGINE_ROOT:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(engine_root, build_dir):
    """Builds perfbench against the engine in `engine_root`; returns the binary."""
    if not os.path.isfile(os.path.join(engine_root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(engine_root, "src")):
        fail("no Graphitti source tree at " + engine_root)
    # A build directory holds one engine tree's objects: start it afresh
    # when it was configured for another tree. Configure every time (it is
    # incremental), so the tree named here is the one built.
    engine_root = os.path.abspath(engine_root)
    if cached_engine_root(build_dir) not in (None, engine_root):
        shutil.rmtree(build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
              "-DPERFBENCH_ENGINE_ROOT=" + engine_root],
             ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:] + proc.stderr[-20000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the answer checks catch corrupted answers")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    binary = build(ROOT, os.path.join(ROOT, ".bench_build"))
    os.makedirs(WORK_DIR, exist_ok=True)
    argv = [binary, "--workdir", WORK_DIR, "--commit", source_identity(ROOT)]
    if args.self_test:
        argv.append("--self-test")
    else:
        argv += ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    main()
