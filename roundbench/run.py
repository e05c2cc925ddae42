#!/usr/bin/env python3
"""Launcher of the round-stream benchmark.

Run from the root of a source checkout:

    python3 roundbench/run.py --workload lj-churn --seed 1 --seconds 25 --trace 0

It builds the program and the harness from source with sbt (once; later
runs reuse the build while no source is newer), then runs one benchmark
JVM with a pinned heap. The JVM prints a summary and, as its last line,
the JSON result. Build output and traces go under .bench_build/.
"""
import os
import signal
import subprocess
import sys

BENCH_DIR = "roundbench"
OUT_DIR = os.path.join(".bench_build", "roundbench")
CLASSPATH_FILE = os.path.join(OUT_DIR, "classpath.txt")
# What the build reads: the program's sources and the harness's.
BUILD_INPUTS = [os.path.join("src", "main"), os.path.join(BENCH_DIR, "src", "main"),
                os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project", "build.properties")]
# The heap is pinned so results compare across runs. The parallel collector
# runs no concurrent GC threads beside the Spark threads, and a 2 GiB young
# generation holds a round's short-lived garbage (KnightKing's per-round
# reload is the largest).
JVM_OPTS = ["-Xms3g", "-Xmx3g", "-Xmn2g", "-XX:+UseParallelGC"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"roundbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_bounded(cmd, timeout, what, **kwargs):
    """Run `cmd` in its own process group and wait for it. On timeout, or if
    this script is terminated, kill the whole group and wait for it too."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, start_new_session=True, text=True, **kwargs)

    def kill_group():
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def on_term(signum, _):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    signal.signal(signal.SIGINT, on_term)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        fail(f"{what} exceeded {timeout} s")
    return proc.returncode, out


def newest_mtime(roots):
    newest = 0.0
    for root in roots:
        if os.path.isfile(root):
            newest = max(newest, os.path.getmtime(root))
        for dirpath, _, filenames in os.walk(root):
            for f in filenames:
                newest = max(newest, os.path.getmtime(os.path.join(dirpath, f)))
    return newest


def build():
    """Compile with sbt unless the recorded classpath is newer than every build input."""
    if os.path.exists(CLASSPATH_FILE) and os.path.getmtime(CLASSPATH_FILE) > newest_mtime(BUILD_INPUTS):
        with open(CLASSPATH_FILE) as f:
            return f.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "-Dsbt.offline=true" not in env.get("SBT_OPTS", ""):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
    code, out = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
                            BUILD_TIMEOUT_S, "build", cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE)
    lines = [l for l in out.splitlines() if os.path.join("target", "scala-2.13", "classes") in l]
    if code != 0 or not lines:
        sys.stderr.write(out)
        fail(f"build failed (sbt exit {code})")
    classpath = lines[-1].strip()
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as f:
        f.write(classpath + "\n")
    return classpath


def main():
    if not os.path.isdir(os.path.join("src", "main", "scala", "repro")):
        fail("run from the root of a source checkout: src/main/scala/repro is missing")
    if not os.path.isfile(os.path.join(BENCH_DIR, "build.sbt")):
        fail(f"{BENCH_DIR}/build.sbt is missing")
    classpath = build()
    tmp = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java"] + JVM_OPTS + [f"-Djava.io.tmpdir={tmp}", "-cp", classpath, "roundbench.RoundBench"] + sys.argv[1:]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.abspath(os.path.join(OUT_DIR, "spark-local")))
    code, _ = run_bounded(cmd, RUN_TIMEOUT_S, "run", env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
