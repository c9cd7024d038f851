#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload warm-get --seed 1 --seconds 10 --trace 0

Every build artefact, Go cache and scratch file stays under the build
directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
Arguments are passed through to the benchmark; its exit code is ours.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
binary = os.path.join(build, "perfbench-bin")

env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(build, "gocache"),
    GOPATH=os.path.join(build, "gopath"),
    GOTMPDIR=os.path.join(build, "gotmp"),
    GOFLAGS="-mod=mod",
    GOPROXY="off",
    GOTOOLCHAIN="local",
    GOENV="off",
)
os.makedirs(env["GOTMPDIR"], exist_ok=True)

built = subprocess.run(
    ["go", "build", "-buildvcs=false", "-o", binary, "."],
    cwd=here, env=env, stdout=sys.stderr,
)
if built.returncode != 0:
    print("perfbench: build failed", file=sys.stderr)
    sys.exit(1)

ran = subprocess.run(
    [binary, "--dir", os.path.join(build, "perfbench")] + sys.argv[1:],
    cwd=root, env=env,
)
sys.exit(ran.returncode)
