#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 24 --trace 0

Everything the build writes (Go build cache, binary, span files) goes
under .bench_build/ in the current directory. The arguments are passed
to the benchmark binary unchanged; its exit code is returned.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOENV="off",
        GOTELEMETRY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "gomodcache", "gopath", "tmp"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    # Build output goes to stderr: the last line of stdout is the result.
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
