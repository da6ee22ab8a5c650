#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ring --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from source into .bench_build/
at the repository root, with the Go build cache and temporary files kept
there too, then run with the given arguments from the repository root.
Build output goes to standard error; a failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
