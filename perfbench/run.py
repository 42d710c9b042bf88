#!/usr/bin/env python3
"""Build the bbpim benchmark from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and with it the bbpim
library from src/) into .bench_build/perfbench; later calls only check the
build is current. The benchmark binary's standard output passes through
unchanged, so the last line is its result object; build logs go to
standard error. With --trace 1 the spans are written to
.bench_build/perfbench/spans-<workload>-<seed>.jsonl. Exits non-zero,
without a result, when the checkout holds no bbpim sources.
"""

import fcntl
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 175


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binary up to date. Returns success."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench", "-j4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                return False
    return True


def option(argv, name):
    for i, arg in enumerate(argv[:-1]):
        if arg == name:
            return argv[i + 1]
    return None


def main(argv):
    if not (ROOT / "src" / "db" / "db.hpp").is_file():
        log(f"no bbpim sources under {ROOT / 'src'}: run from a checkout")
        return 2
    if not build():
        return 2
    args = list(argv)
    workload, seed = option(args, "--workload"), option(args, "--seed")
    if option(args, "--trace") == "1" and workload and seed:
        spans = BUILD_DIR / f"spans-{workload}-{seed}.jsonl"
        args += ["--spans-out", str(spans)]
    try:
        return subprocess.run([str(BINARY), *args], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
