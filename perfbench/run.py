#!/usr/bin/env python3
"""Builds the TAMP benchmark from this checkout's sources and runs it.

    python3 perfbench/run.py --workload train|surge --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, then rebuilt incrementally); build output goes to stderr
so that the benchmark's result stays the last line of stdout. The exit code
is the benchmark's: 0 when every correctness check passed, 1 when one
failed, 2 on bad arguments or a tree it cannot build.
"""

import argparse
import hashlib
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# The sources the benchmark binary is built from.
SOURCES = ("src", "bench/bench_common.cc", "bench/bench_common.h", "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(command):
    """Runs a command to completion with its stdout sent to stderr."""
    proc = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(target):
    if not (ROOT / "src" / "core" / "pipeline.h").is_file():
        fail(f"no TAMP sources under {ROOT / 'src'}; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        if run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    if run(["cmake", "--build", str(BUILD), "--target", target, "-j4"]) != 0:
        fail(f"building {target} failed")
    return BUILD / target


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the path and bytes of every source file, in path order."""
    digest = hashlib.sha256()
    files = []
    for entry in SOURCES:
        path = ROOT / entry
        if path.is_dir():
            files.extend(p for p in path.rglob("*") if p.is_file())
        elif path.is_file():
            files.append(path)
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(run([str(build("perfbench_test"))]))
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    command = [str(binary), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--out-dir", str(BUILD), "--git-rev", git_rev(),
               "--source-digest", source_digest()]
    sys.stdout.flush()
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        sys.exit(proc.wait())
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    main()
