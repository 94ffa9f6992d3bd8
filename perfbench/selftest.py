#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Checks that each workload emits every end-to-end metric (untraced) and
every per-layer metric (traced) of BENCHMARK.json with its unit, that
no operation fails, that two runs at one seed agree bit for bit on the
accuracy figures, nonconverged_frac and fusion.lm_iterations.total with
tracing on or off, that the layer shares follow the documented mapping,
that a missing trace target is reported rather than fatal, and that the
benchmark refuses to run without the radarnet sources.  Exits 1 on the
first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"

TINY = {
    "pipeline": ["--ops", "2", "--frames", "120"],
    "calibration": ["--ops", "6", "--frames", "120"],
    "oneshot": ["--ops", "40"],
}


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def bench(workload: str, trace: int, cwd: Path = ROOT, out: Path = OUT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", str(trace), "--out-dir", str(out)] + TINY[workload]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


def checked_run(workload: str, trace: int, spec: dict) -> tuple[dict, dict]:
    done = bench(workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-800:]}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={line['correct']} failed={line['failed']}\n{done.stdout}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != units:
        fail(f"{workload} trace={trace}: metrics/units differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(units.items()))}")
    for name, m in line["metrics"].items():
        if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0):
            fail(f"{workload}: {name} = {m['value']}")
    result = json.loads((OUT / f"{workload}-trace{trace}.json").read_text())
    if result["figures"]["failed_frac"] != 0:
        fail(f"{workload}: failed_frac = {result['figures']['failed_frac']}")
    return line, result


def accuracy(result: dict) -> dict:
    keys = ("nonconverged_frac", "pos_rmse_bayes_m", "vel_rmse_bayes_mps", "calib_rmse_m")
    return {k: result["figures"][k] for k in keys if k in result["figures"]}


def check_workload(workload: str, spec: dict) -> None:
    runs = [checked_run(workload, trace, spec) for trace in (0, 0, 1, 1)]
    figures = [accuracy(result) for _, result in runs]
    if not figures[0] or any(f != figures[0] for f in figures):
        fail(f"{workload}: accuracy differs across runs at one seed: {figures}")
    layer = [line["metrics"] for line, _ in runs[2:]]
    totals = [m["fusion.lm_iterations.total"]["value"] for m in layer]
    if totals[0] != totals[1]:
        fail(f"{workload}: fusion.lm_iterations.total differs across runs: {totals}")
    untraced = runs[0][1]["figures"].get("lm_iterations_total")
    if untraced is not None and untraced != totals[0]:
        fail(f"{workload}: lm iterations {untraced} untraced vs {totals[0]} traced")

    m = {name: v["value"] for name, v in layer[0].items()}
    shares = {k.split(".")[0]: v for k, v in m.items() if k.endswith(".share")}
    top = max(shares, key=shares.get)
    expected = {"pipeline": "fusion", "calibration": "tracking", "oneshot": "fusion"}[workload]
    if top != expected:
        fail(f"{workload}: largest self-time share is {top}, expected {expected}: {shares}")
    if workload == "calibration" and m["fusion.solve.calls"] != 0:
        fail("calibration called fusion.solve")
    if workload == "oneshot" and (m["tracking.run_tracker.calls"] or m["geometry.measure.calls"]):
        fail("oneshot called into tracking")
    if m["trace.missing_targets"] != 0:
        fail(f"{workload}: missing trace targets {runs[2][1]['missing_trace_targets']}")
    print(f"ok {workload}: {len(runs)} runs, accuracy {figures[0]}, "
          f"lm iterations {totals[0]}, largest share {top} {shares[top]:.2f}")


def check_missing_target() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import Tracer

    tracer = Tracer(targets=(("radarnet.experiment", "no_such_function", "x.y"),
                             ("radarnet.no_such_module", "solve", "x.z"),
                             ("radarnet.fusion", "solve", "fusion.solve")))
    import radarnet.fusion as fusion

    original = fusion.solve
    with tracer.installed():
        if fusion.solve is original:
            fail("tracer did not wrap fusion.solve")
    if fusion.solve is not original:
        fail("tracer did not restore fusion.solve")
    if tracer.missing != ["radarnet.experiment.no_such_function", "radarnet.no_such_module.solve"]:
        fail(f"missing targets reported as {tracer.missing}")
    print("ok missing trace targets are reported, not fatal")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.*"):
        shutil.copy(path, bare / "perfbench")
    done = bench("oneshot", 0, cwd=bare, out=bare / "out")
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail(f"benchmark without sources exited {done.returncode} and printed {done.stdout!r}")
    print(f"ok without sources: exit {done.returncode}, nothing on stdout")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in TINY:
        check_workload(workload, spec)
    check_missing_target()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
