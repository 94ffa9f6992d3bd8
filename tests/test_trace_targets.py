"""Every function the benchmark's span tracer wraps still exists.

perfbench/spans.py rebinds named module globals to record spans; a name
that moves or disappears is reported as a missing target and its layer
silently reads zero.  This reads the tracer's target list from the
file and resolves each (module, attribute) pair.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr, span", trace_targets())
def test_trace_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{module}.{attr} (span {span}) no longer exists"
    )


def spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def hooked_calls():
    """Per hooked span: a call of its target through the traced module
    global, on a short built-in run, and a check of what the hook counted
    from the real return value."""
    from dataclasses import replace

    import numpy as np

    from radarnet.experiment import PIPELINE_EKF, PIPELINE_PRIOR
    from radarnet.fusion import FusionObservation, ObservationEntry
    from radarnet.scene import Detection, builtin_scenario, generate_trajectory, simulate

    config = replace(builtin_scenario("B", "random", seed=7), num_frames=60)
    sim = simulate(config)
    obs = FusionObservation(tuple(
        ObservationEntry(node, Detection(*det))
        for node, det in zip(config.nodes, sim.detections[sim.seen.all(axis=1)][0].tolist())
    ))
    z = sim.truth[:, 0] + 1j * sim.truth[:, 1]

    def solve(target):
        est = target(obs, config.noise, "bayes", PIPELINE_PRIOR)
        return lambda tracer: (tracer.iterations, tracer.counts["fusion.converged"]) == (
            [est.iterations], int(est.converged))

    def grid(target):
        from radarnet.fusion import solve as untraced_solve

        est = untraced_solve(obs, config.noise, "bayes", PIPELINE_PRIOR)
        target(obs, config.noise, PIPELINE_PRIOR, est)
        return lambda tracer: tracer.counts["fusion.grid_points"] == 15**4

    def tracker(target):
        target(sim, 0, PIPELINE_EKF, config.noise, config.frame_duration)
        return lambda tracer: tracer.counts["tracking.node_frames"] == len(sim)

    def detections(target):
        target(generate_trajectory(config.trajectory, config.num_frames, config.frame_duration,
                                   config.rng_seed), config)
        return lambda tracer: (tracer.counts["scene.node_frames"], tracer.counts["scene.detections"]) == (
            sim.seen.size, int(np.count_nonzero(sim.seen)))

    def pair(target):
        result = target(z, z * 1j + 2.0)
        return lambda tracer: tracer.pair_k == [result.num_frames]

    return {
        "fusion.solve": solve,
        "fusion.posterior_covariance_grid": grid,
        "tracking.run_tracker": tracker,
        "scene.synthesize_measurements": detections,
        "calibration.calibrate_pair": pair,
    }


@pytest.mark.parametrize("span", sorted(spans_module().HOOKS))
def test_trace_hook_reads_its_targets_return_value(span):
    spans = spans_module()
    module, attr = next((m, a) for m, a, name in spans.TARGETS if name == span)
    tracer = spans.Tracer()
    with tracer.installed():
        check = hooked_calls()[span](getattr(importlib.import_module(module), attr))
    assert not tracer.missing
    assert [record[0] for record in tracer.records].count(span) == 1
    assert check(tracer), f"hook of {span} counted {dict(tracer.counts)}"
