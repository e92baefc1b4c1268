"""qmaxent benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller issues each op after the previous one returns. Workloads:
quantum_dense, classical_large and cli_oneshot (see workloads.py for
what each runs and why). Every op is checked against
an answer planted by the benchmark's own numpy code (problems.py).

--trace 0 runs the timed loop for S seconds and prints the end-to-end
metrics. --trace 1 runs a fixed number of ops untraced and then traced,
under spans recorded around qmaxent's public functions (tracing.py),
and prints the per-layer metrics; the spans go to
perfbench/_out/spans-NAME-SEED.jsonl.gz.

The program is taken from src/ next to this directory; the run stops
with exit code 2 if it is missing. The next-to-last line of standard
output is the environment block, the last line the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150


class Pass:
    """Outcome of a sequence of ops: latencies, failures, time, CPU and memory."""

    def __init__(self):
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def run_op(self, workload, call, item, op_id: int, tracer=None):
        """Time one op, check it, and return its outcome (None if it raised)."""
        t0 = time.perf_counter()
        try:
            outcome = tracer.run_op(op_id, call, item) if tracer else call(item)
        except Exception as exc:  # an op that raises counts as failed
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        self.latencies.append(time.perf_counter() - t0)
        if error is None:
            error = workload.check(item, outcome)
        if error:
            self.errors.append(error)
        return outcome


def run_ops(workload, call, *, seconds=None, count=None, child_usage=False) -> Pass:
    """Run `count` ops, or whole cycles of the schedule for about `seconds`.

    A timed run stops at a cycle boundary when one more cycle, as long as
    the last one, would overrun `seconds`, so every workload's mix is
    measured in whole cycles. With child_usage, CPU time and peak RSS
    come from the rusage of the child process each op returns; otherwise
    from this process.
    """
    result = Pass()
    schedule, cycle = workload.schedule, workload.cycle
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = cycle_start = time.perf_counter()
    k = 0
    while count is None or k < count:
        if count is None and k % cycle == 0 and k:
            now = time.perf_counter()
            if (now - start) + (now - cycle_start) > seconds:
                break
            cycle_start = now
        outcome = result.run_op(workload, call, schedule[k % len(schedule)], k)
        if child_usage and outcome is not None:
            usage = outcome[1]
            result.cpu_s += usage.ru_utime + usage.ru_stime
            result.rss_mb = max(result.rss_mb, usage.ru_maxrss / 1024.0)
        k += 1
    result.wall_s = time.perf_counter() - start
    if not child_usage:
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        result.rss_mb = after.ru_maxrss / 1024.0
    return result


def traced_and_plain(workload, call, count: int, tracer) -> tuple[Pass, Pass]:
    """Each op once with and once without tracing, alternating which goes first.

    Alternating the order spreads any benefit of running second (warm
    caches) evenly over both passes, so their ratio measures the tracing.
    """
    traced, plain = Pass(), Pass()
    schedule = workload.schedule
    for k in range(count):
        item = schedule[k % len(schedule)]
        for use_tracer in ((False, True) if k % 2 == 0 else (True, False)):
            if use_tracer:
                with tracer:
                    traced.run_op(workload, call, item, k, tracer)
            else:
                plain.run_op(workload, call, item, k)
    return traced, plain


def child_env(**extra) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **extra)


def probe(*args, env=None) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args],
        cwd=ROOT, env=env or child_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(name: str, seed: int, tiny: bool, probes: int) -> list[dict]:
    """import qmaxent plus the untimed warm-up op, each in a fresh process."""
    args = ["setup", "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    results = [probe(*args) for _ in range(probes)]
    for r in results:
        if r["error"]:
            raise RuntimeError(f"warm-up op failed in a fresh process: {r['error']}")
    return results


def build(name: str, seed: int, tiny: bool, workdir: Path, limit: int | None = None):
    import workloads

    return workloads.WORKLOADS[name](seed, tiny=tiny, limit=limit, workdir=workdir)


def warm_up(workload, call) -> Pass:
    """The first op, untimed: it pays one-time costs such as BLAS thread start."""
    return run_ops(workload, call, count=1)


def untraced_run(name: str, seed: int, seconds: float, tiny: bool, workdir: Path,
                 probes: int = SETUP_PROBES) -> tuple[dict, dict, int, int]:
    setups = setup_probes(name, seed, tiny, probes)
    workload = build(name, seed, tiny, workdir)
    warm = warm_up(workload, workload.call)
    loop = run_ops(workload, workload.call, seconds=seconds, child_usage=workload.per_op_process)
    report_errors(warm.errors + loop.errors)
    latencies_ms = [t * 1e3 for t in loop.latencies]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    p50, p90 = deciles[4], deciles[8]
    attempted = warm.ops + loop.ops
    failed = len(warm.errors) + len(loop.errors)
    metrics = {
        "ops_per_s": loop.ops / loop.wall_s,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "cpu_ms_per_op": loop.cpu_s * 1e3 / loop.ops,
        "peak_rss_mb": loop.rss_mb,
        "setup_s": statistics.median(s["import_s"] + s["warm_s"] for s in setups),
        "ops_ok_frac": 1.0 - failed / attempted,
    }
    info = {
        "samples": loop.ops,
        "samples_beyond_p90": sum(1 for t in latencies_ms if t > p90),
        "pool": len(workload.schedule),
        "setup_probes_s": [s["import_s"] + s["warm_s"] for s in setups],
        "cpu_source": "children" if workload.per_op_process else "process",
    }
    return metrics, info, attempted, failed


def traced_run(name: str, seed: int, tiny: bool, workdir: Path,
               probes: int = SETUP_PROBES) -> tuple[dict, dict, int, int, object]:
    import tracing

    setups = setup_probes(name, seed, tiny, probes)
    interpreter_s = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROBE_TIMEOUT_S)
        interpreter_s.append(time.perf_counter() - t0)

    # run the single-threaded child first, so that it and this process
    # never hold a copy of the inputs at the same time
    blas1 = probe(
        "loop", "--workload", name, "--seed", str(seed), *(["--tiny"] if tiny else []),
        env=child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )
    workload = build(name, seed, tiny, workdir)
    count = workload.trace_ops
    passes = [warm_up(workload, workload.call)]
    # the cli layer is traced through qmaxent.cli.main in this process; the
    # child-process pass gives the per-op cost of starting a process
    call = workload.call
    if workload.per_op_process:
        call = workload.call_main
        child_pass = run_ops(workload, workload.call, count=count, child_usage=True)
        passes += [child_pass, warm_up(workload, call)]
    tracer = tracing.Tracer()
    traced, plain = traced_and_plain(workload, call, count, tracer)
    passes += [plain, traced]
    report_errors([e for p in passes for e in p.errors] + blas1["errors"])

    metrics = tracing.layer_metrics(tracer.spans, count)
    plain_ms = 1e3 * sum(plain.latencies) / count
    metrics.update({
        "cli.interpreter_ms": 1e3 * statistics.median(interpreter_s),
        "cli.import_ms": 1e3 * statistics.median(s["import_s"] for s in setups),
        "cli.process_overhead_ms_per_op": (
            1e3 * sum(child_pass.latencies) / count - plain_ms if workload.per_op_process else 0.0
        ),
        "baseline.blas1_ops_per_s": blas1["ops"] / blas1["wall_s"],
        "trace.overhead_frac": sum(traced.latencies) / sum(plain.latencies) - 1.0,
    })
    info = {
        "traced_ops": count,
        "spans": len(tracer.spans),
        "untraced_ms_per_op": plain_ms,
        "blas1_errors": len(blas1["errors"]),
    }
    attempted = sum(p.ops for p in passes) + blas1["attempted"]
    failed = sum(len(p.errors) for p in passes) + len(blas1["errors"])
    return metrics, info, attempted, failed, tracer


def report_errors(errors: list[str]) -> None:
    for error in errors[:10]:
        print(f"failed op: {error}", file=sys.stderr)
    if len(errors) > 10:
        print(f"... and {len(errors) - 10} more failed ops", file=sys.stderr)


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "qmaxent" / "__init__.py").is_file():
        print(f"error: no qmaxent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import environment

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, info, attempted, failed, tracer = traced_run(
                args.workload, args.seed, False, workdir)
            out = HERE / "_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        else:
            metrics, info, attempted, failed = untraced_run(
                args.workload, args.seed, args.seconds, False, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = result_line(metrics, attempted, failed, bool(args.trace))
    print(json.dumps({"environment": environment.describe(ROOT), "workload": args.workload,
                      "seed": args.seed, "run": info}))
    print(json.dumps(result))
    return 0


def result_line(metrics: dict, attempted: int, failed: int, trace: bool) -> dict:
    """The result object, with each metric's unit as BENCHMARK.json declares it.

    Raises if the metrics are not exactly the declared set.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
