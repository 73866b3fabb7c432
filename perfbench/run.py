#!/usr/bin/env python3
"""Build and run clustercolor's benchmark from the checkout this file sits in.

    python3 perfbench/run.py --workload gnp-sparse --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

The Go program in this directory is built with every Go cache and temporary
directory inside the checkout (under .bench_build/, or $CARGO_TARGET_DIR when
set), then run once per workload, each in its own process, so peak RSS and GC
state belong to one workload. Its standard output passes through unchanged;
the last line of a single-workload run is the JSON result. The script exits
non-zero without printing a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gnp-sparse", "planted-dense", "clustered-lowdeg"]


def build(out_dir):
    """Compile the benchmark into out_dir and return the binary's path."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("GOPATH", "gopath")):
        env[key] = os.path.join(out_dir, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOPROXY"] = "off"
    env["GOFLAGS"] = ""
    binary = os.path.join(out_dir, "perfbench")
    subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, check=True,
                   stdout=sys.stderr)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="one of %s, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error("unknown workload %r" % args.workload)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.abspath(os.path.join(ROOT, target, "perfbench"))
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    for name in names:
        cmd = [binary, "-workload", name, "-seed", str(args.seed), "-seconds", str(args.seconds),
               "-trace", str(args.trace)]
        # The child inherits stdout; wait() returns only once it has exited.
        code = subprocess.call(cmd, cwd=ROOT)
        if code != 0:
            print("perfbench: workload %s exited with %d" % (name, code), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
