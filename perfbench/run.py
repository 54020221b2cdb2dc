#!/usr/bin/env python3
"""Build and run the roundtriprank benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bibnet-online --seed 1 --seconds 10 --trace 0

The script builds the Go benchmark in perfbench/ (a module of its own that
replaces `roundtriprank` with the checkout it sits in) into .bench_build/,
with the Go build cache and temporary files also kept under .bench_build/,
then runs it with the given arguments and exits with its exit code. The last
line of standard output is the run's JSON result. See perfbench/spec.json for
the workloads and BENCHMARK.json for the metrics and their bounds.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        # The go command keeps telemetry counters under the user config
        # directory; point it inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def source_digest():
    """SHA-256 over the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "spec.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit when the checkout is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def main():
    env = go_env()
    for d in (BUILD, env["TMPDIR"]):
        os.makedirs(d, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["RTBENCH_COMMIT"] = commit()
    env["RTBENCH_SOURCE_DIGEST"] = source_digest()
    try:
        run = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out after %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
