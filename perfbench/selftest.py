"""Fast self-test of the benchmark, at tiny sizes and a few ops per workload.

    python3 perfbench/selftest.py

Checks that:
  * every metric BENCHMARK.json names is emitted, with its unit, on every
    workload, traced and untraced, and that no op fails;
  * a deliberately wrong reference makes ops fail, so ops_ok_frac drops
    below 1 (ops_failed_frac rises above 0);
  * the deterministic counts linalg.eig_calls_per_op,
    quantum.iterations_per_op and classical.dual_evals_per_op repeat
    exactly across two traced runs on one seed;
  * run.py, copied without the program's sources, exits non-zero and
    prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

DETERMINISTIC = ("linalg.eig_calls_per_op", "quantum.iterations_per_op", "classical.dual_evals_per_op")
SEED = 7


def check_metrics(work) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in sorted(spec_names(spec)):
        metrics, _, attempted, failed = run.untraced_run(name, SEED, 0.3, True, work / name, probes=1)
        line = run.result_line(metrics, attempted, failed, trace=False)
        assert_units(line, spec["end_to_end"], name)
        assert line["failed"] == 0 and line["correct"], f"{name}: {line}"
        counts = []
        for repeat in range(2):
            metrics, _, attempted, failed, _ = run.traced_run(
                name, SEED, True, work / f"{name}-traced-{repeat}", probes=1)
            line = run.result_line(metrics, attempted, failed, trace=True)
            assert_units(line, spec["per_layer"], name)
            assert line["failed"] == 0, f"{name} traced: {line}"
            counts.append({k: metrics[k] for k in DETERMINISTIC})
        assert counts[0] == counts[1], f"{name}: counts differ between traced runs: {counts}"
        print(f"ok  {name}: metrics and units, deterministic counts {counts[0]}")


def spec_names(spec) -> set[str]:
    return {w["name"] for w in spec["workloads"]}


def assert_units(line: dict, declared: list[dict], name: str) -> None:
    emitted = {k: v["unit"] for k, v in line["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    assert emitted == expected, f"{name}: emitted {emitted}, declared {expected}"
    for key, value in line["metrics"].items():
        assert isinstance(value["value"], (int, float)), f"{name}: {key} = {value}"


def check_wrong_reference(work) -> None:
    import workloads

    for cls in (workloads.QuantumDense, workloads.ClassicalLarge):
        workload = cls(SEED, tiny=True)
        workload.schedule[1]["beta"] = workload.schedule[1]["beta"] + 1e-3
        result = run.run_ops(workload, workload.call, count=len(workload.schedule))
        assert len(result.errors) == 1, f"{cls.name}: {result.errors}"
    workload = workloads.CliOneshot(SEED, tiny=True, workdir=work / "wrong")
    workload.schedule[0]["expect"] = 2
    workload.schedule[1]["beta"] = workload.schedule[1]["beta"] + 1e-3
    result = run.run_ops(workload, workload.call_main, count=len(workload.schedule))
    assert len(result.errors) == 2, f"cli_oneshot: {result.errors}"
    print("ok  a wrong reference fails its op")


def check_without_sources(work) -> None:
    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quantum_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok  without the program's sources the run fails and prints no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.HERE / "_work" / f"selftest-{os.getpid()}"
    try:
        check_wrong_reference(work)
        check_without_sources(work)
        check_metrics(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
