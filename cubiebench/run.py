#!/usr/bin/env python3
"""Build Cubie-Bench from source and run one workload.

Run from the root of a checkout:

    python3 cubiebench/run.py --workload suite|warm|serve --seed N \
        --seconds S --trace 0|1
    python3 cubiebench/run.py --selftest

The cubie library and the benchmark binary are built with CMake (Release)
under $CARGO_TARGET_DIR, or .bench_build when it is unset; build output goes
to stderr. The binary's standard output is passed through unchanged, so the
last line is the result object. The per-run work directory (cache files,
server socket) is removed however the run ends.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build; exits with code 2 when either fails."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("cubiebench: build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main(argv):
    os.chdir(ROOT)
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("cubiebench: cubie sources (src/) not found next to cubiebench/",
              file=sys.stderr)
        return 2
    # Relative to the checkout root (the working directory), which keeps the
    # server's socket path short whatever the checkout's location.
    work_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(work_dir, "cubiebench")
    try:
        build(build_dir)
    except (OSError, SystemExit) as e:
        print(e, file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "cubiebench")

    if argv[:1] == ["--selftest"]:
        return subprocess.run([sys.executable,
                               os.path.join(HERE, "selftest.py"),
                               binary]).returncode

    cmd = [binary] + argv + ["--git-sha", git_sha(), "--work-dir", work_dir]
    child = subprocess.Popen(cmd)

    def forward(sig, _frame):
        child.send_signal(sig)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    try:
        rc = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(os.path.join(work_dir, "run-%d" % child.pid),
                      ignore_errors=True)
    return rc if rc >= 0 else 128 - rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
