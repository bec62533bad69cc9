"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload train-lenet --seed 1 --seconds 45

Run from the root of a checkout.  Workloads:

* ``train-lenet``   — LeNet training, ``seq`` vs ``par`` arms, checkpoints;
* ``train-cifar10`` — CIFAR-10 "full" training, ``seq`` vs ``par`` arms.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that yields the per-layer
metrics and writes its spans to ``perfbench/out/``; on either workload
it ends with an open-loop serving session of the LeNet TEST net, and it
prints every per-layer metric (a layer the workload's net lacks reads
0 ms).  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``); the first line
stamps the host, the git revision and the BLAS pinning.  The exit code
is nonzero, and no result is printed, when the program's sources are
missing or BLAS could not be pinned before numpy loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("train-lenet", "train-cifar10")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from repro.bench.pinning import pin_blas_threads

    pin = pin_blas_threads(1)  # must precede the first numpy import
    if not pin["pinned_before_numpy"]:
        print("perfbench: numpy loaded before the BLAS pin; refusing to "
              "report", file=sys.stderr)
        return 2

    from repro.bench.schema import git_rev, host_fingerprint

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "host": host_fingerprint(), "git_rev": git_rev(),
                      "blas": pin}))
    os.makedirs(OUT_DIR, exist_ok=True)
    import training

    result = training.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), OUT_DIR)
    for problem in result.problems:
        print(f"failed: {problem}")
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
