#!/usr/bin/env python3
"""radarnet benchmark: one workload, closed loop with one client.

    python3 perfbench/run.py --workload {pipeline,calibration,oneshot} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a radarnet source tree; the package is imported
from ``src/``.  Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the run
cycles over the workload's inputs for ``--seconds`` and the metrics are
the end-to-end ones.  With ``--trace 1`` it runs each input once
untraced and once traced, and the metrics are the per-layer ones.  The
full result, with the environment, is written to ``perfbench/out/``.
See README.md.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# Reported on every run and, in the traced run, among the per-layer
# metrics; each applies only to the workloads that produce it.
ACCURACY_UNITS = {
    "failed_frac": "ratio",
    "nonconverged_frac": "ratio",
    "pos_rmse_bayes_m": "m",
    "vel_rmse_bayes_mps": "m/s",
    "calib_rmse_m": "m",
}
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a probe failed)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "calibration", "oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="inputs per pass (default: the workload's)")
    parser.add_argument("--frames", type=int, help="frames per scenario (pipeline, calibration)")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import radarnet (CLI included) from this tree's src/ and no other place."""
    if not (SRC / "radarnet" / "__init__.py").is_file():
        raise BenchError(f"no radarnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import radarnet.cli  # noqa: F401

    import radarnet

    if Path(radarnet.__file__).resolve().parent != SRC / "radarnet":
        raise BenchError(f"radarnet imported from {radarnet.__file__}, not {SRC}")


def build_workload(args):
    from workloads import WORKLOADS

    args.out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[args.workload](args.seed, args.ops, args.frames, args.out_dir)


def setup_probe(args) -> int:
    start = time.perf_counter()
    import_program()
    build_workload(args)
    elapsed = time.perf_counter() - start
    from speed import reference_time

    print(json.dumps({"setup_s": elapsed, "reference_s": reference_time()}))
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up time of fresh processes (import radarnet, build the inputs), wall and scaled."""
    from speed import NOMINAL_S

    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--out-dir", str(args.out_dir), "--setup-probe"]
    if args.ops:
        command += ["--ops", str(args.ops)]
    if args.frames:
        command += ["--frames", str(args.frames)]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        wall.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * NOMINAL_S / probe["reference_s"])
    return wall, scaled


def environment() -> dict:
    import numpy as np

    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


class Outcome:
    """One operation: input index, call window, wall and scaled seconds, outputs."""

    __slots__ = ("index", "start", "end", "elapsed", "scaled", "record", "errors")

    def __init__(self, index, start, end, elapsed, record, errors):
        self.index, self.start, self.end = index, start, end
        self.elapsed, self.record, self.errors = elapsed, record, errors
        self.scaled = None


class Runner:
    """Runs operations, sampling the speed reference between them."""

    def __init__(self, workload):
        from speed import SpeedProbe

        self.workload = workload
        self.probe = SpeedProbe()

    def attempt(self, i, tracer=None) -> Outcome:
        """Operation i (input i mod pass size); an exception counts as a failed check."""
        j = i % self.workload.size
        self.probe.maybe_sample()
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            elapsed, record = self.workload.execute(j)
        except Exception as exc:  # noqa: BLE001 - counted and reported, the run goes on
            return Outcome(j, start, time.perf_counter(), None, None, [f"{type(exc).__name__}: {exc}"])
        return Outcome(j, start, time.perf_counter(), elapsed, record, record["errors"])

    def timed(self, seconds) -> list[Outcome]:
        """Passes over the inputs until `seconds` have passed; at least one full pass."""
        outcomes = []
        start = time.perf_counter()
        while len(outcomes) < self.workload.size or time.perf_counter() - start < seconds:
            outcomes.append(self.attempt(len(outcomes)))
        return self.finish(outcomes)

    def traced(self, tracer) -> tuple[list[Outcome], list[Outcome]]:
        """Each input of the traced set run untraced and then traced, back to back."""
        untraced, traced = [], []
        for i in range(self.workload.traced_size):
            untraced.append(self.attempt(i))
            with tracer.installed():
                traced.append(self.attempt(i, tracer))
        self.finish(untraced + traced)
        return untraced, traced

    def finish(self, outcomes):
        self.probe.sample()
        for o in outcomes:
            if o.elapsed is not None:
                o.scaled = o.elapsed * self.probe.scale(o.start, o.end)
        return outcomes


def determinism_errors(first: list[Outcome], repeats: list[Outcome], label: str) -> list[str]:
    """Repeated inputs must reproduce the first pass's outputs bit for bit."""
    errors = []
    for outcome in repeats:
        base = first[outcome.index]
        if outcome.record is None or base.record is None:
            continue
        if outcome.record["fingerprint"] != base.record["fingerprint"]:
            errors.append(f"{label}: input {outcome.index} gave different outputs on a rerun")
    return errors


def latency_figures(outcomes: list[Outcome]) -> dict:
    """Per input, the median of its runs; p50, tail and throughput over inputs.

    Figures without a suffix are at reference speed (see speed.py);
    ``*_wall*`` figures are the same statistics of the raw wall times.
    """
    from spans import tail

    scaled, wall = {}, {}
    for o in outcomes:
        if not o.errors:
            scaled.setdefault(o.index, []).append(o.scaled)
            wall.setdefault(o.index, []).append(o.elapsed)
    if not scaled:
        raise BenchError("no operation succeeded")
    figures = {"latency_inputs": len(scaled),
               "latency_samples": sum(len(v) for v in scaled.values())}
    for suffix, samples in (("", scaled), ("_wall", wall)):
        per_input = [statistics.median(v) for v in samples.values()]
        value, percentile, beyond = tail(per_input)
        figures[f"latency_p50{suffix}_s"] = statistics.median(per_input)
        figures[f"latency_tail{suffix}_s"] = value
        figures[f"ops_per{suffix}_s"] = len(per_input) / sum(per_input)
    figures["latency_tail_percentile"] = percentile
    figures["latency_tail_inputs_beyond"] = beyond
    return figures


def iteration_cap() -> int:
    import radarnet.fusion as fusion
    from spans import DEFAULT_ITERATION_CAP

    return int(getattr(fusion, "_MAX_ITERATIONS", DEFAULT_ITERATION_CAP))


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.setup_probe:
            return setup_probe(args)
        if not (SRC / "radarnet" / "__init__.py").is_file():
            raise BenchError(f"no radarnet package under {SRC}")
        setup_wall, setup_scaled = measure_setup(args)
        import_program()
        workload = build_workload(args)
        env = environment()
        result = run(args, workload)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result["figures"]["setup_s"] = statistics.median(setup_scaled)
    result["figures"]["setup_wall_s"] = statistics.median(setup_wall)
    env["loadavg_end"] = list(os.getloadavg())
    result["environment"] = env
    report(args, result)
    return 0


def run(args, workload) -> dict:
    runner = Runner(workload)
    warmup = runner.attempt(0)
    problems = [f"warm-up: {e}" for e in warmup.errors]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        outcomes, traced = runner.traced(tracer)
        problems += determinism_errors(outcomes, traced, "tracing on/off")
        figures = latency_figures(outcomes)
        # Wall times are the base of the layer shares; the overhead is
        # taken at reference speed, so a change of machine speed between
        # the two halves of a pair does not count as overhead.
        wall = [sum(o.elapsed for o in side if o.elapsed is not None) for side in (outcomes, traced)]
        scaled = [sum(o.scaled for o in side if o.scaled is not None) for side in (outcomes, traced)]
        trace_times = (wall[0], wall[1], scaled[1] / scaled[0] - 1.0)
        outcomes += traced
    else:
        outcomes = runner.timed(args.seconds)
        problems += determinism_errors(outcomes, outcomes[workload.size:], "repeated pass")
        figures = latency_figures(outcomes)

    first_pass = [o.record for o in outcomes[: workload.traced_size if args.trace else workload.size]
                  if not o.errors]
    failed = sum(bool(o.errors) for o in outcomes)
    figures["reference_median_s"] = runner.probe.median()
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures["failed_frac"] = failed / len(outcomes)
    figures.update(workload.summary(first_pass) if first_pass else {})
    checks = workload.run_checks(first_pass) if first_pass else []
    problems += [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_per_pass": workload.size,
        "attempted": len(outcomes),
        "failed": failed,
        "correct": failed == 0 and not problems,
        "figures": figures,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "problems": problems,
        "failures": [f"input {o.index}: {'; '.join(o.errors)}" for o in outcomes if o.errors][:20],
        "operations": [[o.index, o.elapsed, o.scaled] for o in outcomes],
    }
    if tracer is not None:
        result["layer"] = per_layer(tracer, trace_times, figures)
        result["missing_trace_targets"] = tracer.missing
        tracer.write(args.out_dir / f"spans-{args.workload}.csv.gz")
    return result


def per_layer(tracer, trace_times, figures) -> dict:
    from spans import layer_metrics

    metrics = layer_metrics(tracer, *trace_times, iteration_cap())
    metrics["experiment.output_bytes"] = (figures.get("output_bytes", 0), "B")
    for name, unit in ACCURACY_UNITS.items():
        metrics[name] = (figures.get(name, 0.0), unit)
    return metrics


def report(args, result) -> None:
    figures = result["figures"]
    print(f"# radarnet benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs/pass={result['inputs_per_pass']}")
    print(f"# env: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"setup_s             {figures['setup_s']:.6f} s   (wall {figures['setup_wall_s']:.6f} s; "
          f"median of {SETUP_PROBES} fresh processes)")
    print(f"latency_p50_s       {figures['latency_p50_s']:.6f} s   (wall {figures['latency_p50_wall_s']:.6f} s; "
          f"{figures['latency_inputs']} inputs, {figures['latency_samples']} runs)")
    print(f"latency_tail_s      {figures['latency_tail_s']:.6f} s   (wall {figures['latency_tail_wall_s']:.6f} s; "
          f"p{figures['latency_tail_percentile']:.2f}, {figures['latency_tail_inputs_beyond']} inputs beyond)")
    print(f"ops_per_s           {figures['ops_per_s']:.6f} 1/s (wall {figures['ops_per_wall_s']:.6f} 1/s)")
    print(f"peak_rss_mb         {figures['peak_rss_mb']:.3f} MB")
    for name, unit in ACCURACY_UNITS.items():
        if name in figures:
            print(f"{name:<19} {figures[name]:.6g} {unit}")
    for name, value in figures.items():
        if name not in ACCURACY_UNITS and not name.startswith(("latency", "setup", "ops_per", "peak")):
            print(f"{name:<19} {value:.6g}")
    for check in result["checks"]:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'} - {check['detail']}")
    if result.get("missing_trace_targets"):
        print(f"missing trace targets: {', '.join(result['missing_trace_targets'])}")
    for line in result["problems"] + result["failures"]:
        print(f"ERROR: {line}")

    if args.trace:
        metrics = result["layer"]
        for name, (value, unit) in metrics.items():
            print(f"{name:<40} {value:.6g} {unit}")
    else:
        metrics = {name: (figures[name], unit) for name, unit in END_TO_END}
    values = {name: value for name, (value, _) in metrics.items()}
    (args.out_dir / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**result, "metrics": values}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
