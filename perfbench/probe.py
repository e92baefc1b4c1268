"""Fresh-process probes that run.py starts.

    probe.py setup --workload NAME --seed N [--tiny]
        Times `import qmaxent`, then builds the workload's first input
        (untimed) and times the first op. Prints
        {"import_s", "warm_s", "error"}.
    probe.py loop --workload NAME --seed N [--tiny]
        Runs the warm-up op and then the workload's traced op list,
        untraced. Prints {"ops", "wall_s", "attempted", "errors"}.
        run.py starts it with single-threaded BLAS for
        baseline.blas1_ops_per_s.

qmaxent must be importable (run.py puts src on PYTHONPATH). The import
is timed before numpy or any benchmark module is loaded.
"""

import sys
import time

t0 = time.perf_counter()
import qmaxent  # noqa: E402,F401

import_s = time.perf_counter() - t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402

import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workdir = run.HERE / "_work" / f"probe-{os.getpid()}"
    try:
        if args.mode == "setup":
            workload = run.build(args.workload, args.seed, args.tiny, workdir, limit=1)
            call = workload.call_main if workload.per_op_process else workload.call
            warm = run.warm_up(workload, call)
            print(json.dumps({"import_s": import_s, "warm_s": warm.latencies[0],
                              "error": warm.errors[0] if warm.errors else None}))
        else:
            workload = run.build(args.workload, args.seed, args.tiny, workdir)
            warm = run.warm_up(workload, workload.call)
            loop = run.run_ops(workload, workload.call, count=workload.trace_ops)
            print(json.dumps({"ops": loop.ops, "wall_s": loop.wall_s,
                              "attempted": warm.ops + loop.ops,
                              "errors": warm.errors + loop.errors}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
