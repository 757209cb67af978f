"""The benchmark's layer tracer and its output checks bind package functions
by name; a renamed or removed binding, or a changed call shape, must fail here
rather than in the benchmark's run."""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from paulicloner import cli, cloner, optimize, simcore
from paulicloner.optimize import OptimizerConfig, frontier_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trace_layers():
    return _load("trace_layers")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_install_patches_every_binding_and_uninstall_restores_it(trace_layers):
    def bindings():
        return [
            getattr(importlib.import_module(f"paulicloner.{mod}"), name)
            for _, mod, name in trace_layers.FUNCTIONS
        ]

    originals = bindings()
    patches = trace_layers.install(trace_layers.Tracer())
    try:
        patched = bindings()
    finally:
        trace_layers.uninstall(patches)
    assert all(p is not o for p, o in zip(patched, originals))
    assert all(b is o for b, o in zip(bindings(), originals))


def test_traced_sweep_and_loss_closures_run_through_the_hooks(trace_layers):
    tracer = trace_layers.Tracer()
    cfg = OptimizerConfig(steps=3, restarts=2)
    # a cold build, so that the sweep calls build_cloner through its hook
    cloner.cloner_permutation.cache_clear()
    patches = trace_layers.install(tracer)
    try:
        frontier_sweep("b92", f_values=[0.8])
        sweep_metrics = trace_layers.layer_metrics(tracer)
        # the sweep is exact, so the Adam hook runs on a direct call
        forms, targets = optimize.B92_FORMS.mean(axis=1), np.full(cfg.restarts, 0.8)
        loss_and_grad = functools.partial(optimize.ansatz_loss_and_grad, "b92", forms, targets)
        optimize.adam_optimize(loss_and_grad, np.zeros((cfg.restarts, 18)), cfg)
        # both traced loss factories, the program's on identity forms
        identity = np.eye(16)[None]
        losses = {
            "b92": optimize.make_b92_loss(0.8),
            "program-prep": optimize.make_program_loss((identity, identity), 0.8),
        }
        for kind, (objective, gradient) in losses.items():
            objective(np.zeros(optimize.ANSATZ_PARAM_COUNTS[kind]))
            gradient(np.zeros(optimize.ANSATZ_PARAM_COUNTS[kind]))
    finally:
        trace_layers.uninstall(patches)
    assert sweep_metrics["optimize.adam.calls"][0] == 0
    metrics = trace_layers.layer_metrics(tracer)
    assert metrics["optimize.adam.calls"][0] == 1
    assert metrics[trace_layers.ADAM_STEPS][0] == cfg.steps * cfg.restarts
    assert metrics["optimize.grid_frontier_b92.calls"][0] == 2
    assert metrics["optimize.objective.calls"][0] == 2
    assert metrics["optimize.gradient.calls"][0] == 2
    assert metrics["cloner.build_cloner.calls"][0] == 2
    assert metrics["cloner.build_cloner.distinct"][0] == 2


def test_constructors_run_the_validators_patched_on_their_class(trace_layers):
    # the shared constructor looks __post_init__ up at each call, so a
    # validator patched after the class was made still runs, and is traced
    tracer = trace_layers.Tracer()
    patches = trace_layers.install(tracer)
    try:
        simcore.StateVector(1, [1.0, 0.0])
        simcore.DensityMatrix(1, np.eye(2) / 2)
        cloner.SoftwareState([1.0, 0.0, 0.0, 0.0])
    finally:
        trace_layers.uninstall(patches)
    metrics = trace_layers.layer_metrics(tracer)
    assert metrics["simcore.state_validation.calls"][0] == 2
    assert metrics["cloner.program_validation.calls"][0] == 1


@pytest.mark.parametrize("name", ["validate", "sweep-twenty", "sweep-b92"])
def test_each_workload_passes_its_own_output_check(workloads, capsys, name):
    # the workload's argv, cut down: the checks replay every row whatever its size
    workload = workloads.WORKLOADS[name]
    small = ["--trials", "5"] if name == "validate" else ["--steps", "2", "--restarts", "1"]
    code = cli.main(workload.cli_args(0) + small)
    assert workload.check(code, capsys.readouterr().out).problems == []
