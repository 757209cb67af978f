"""Per-layer tracing of paulicloner, installed from outside the package.

A wrapper records one span (layer, start, end, parent span) per call.  It is
patched onto every module attribute that holds the traced function, so a
caller that imported the name (``from .simcore import inject_state``)
resolves the wrapper just like a caller that goes through the module.
Methods are patched on their class.  Spans stay in flat arrays until the
run ends; self time is the span minus the spans nested directly inside it.

Run as a script, this module executes one paulicloner CLI invocation under
tracing and prints a JSON record of its output and per-layer metrics:

    PYTHONPATH=src python3 perfbench/trace_layers.py validate --trials 200
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
from array import array

import numpy as np

MODULES = ("simcore", "mub", "noise", "cloner", "analytic", "optimize", "cli")

# (layer, module, function): every binding of the function is patched.
FUNCTIONS = (
    ("simcore.apply_ops", "simcore", "apply_ops"),
    ("simcore.inject_state", "simcore", "inject_state"),
    ("simcore.reduced_density_matrix", "simcore", "reduced_density_matrix"),
    ("cloner.build_cloner", "cloner", "build_cloner"),
    ("cloner.clone_output_reduced", "cloner", "clone_output_reduced"),
    ("cloner.clone_fidelities", "cloner", "clone_fidelities"),
    ("cloner.bob_pauli_transfer_matrix", "cloner", "bob_pauli_transfer_matrix"),
    ("cloner.b92_per_state_fidelities", "cloner", "b92_per_state_fidelities"),
    ("mub.pauli_action", "mub", "pauli_action"),
    ("noise.noisy_fidelity_1q", "noise", "noisy_fidelity_1q"),
    ("analytic.closed_forms", "analytic", "ng_fidelities"),
    ("analytic.closed_forms", "analytic", "qid_fidelities"),
    ("analytic.closed_forms", "analytic", "ng_nq_bob_fidelity"),
    ("optimize.quadratic_forms", "optimize", "fidelity_quadratic_forms"),
    ("optimize.prep_shift_grads", "optimize", "program_prep_state_and_shift_grads"),
    ("optimize.b92_qml_fidelities", "optimize", "b92_qml_fidelities"),
    ("optimize.adam", "optimize", "adam_optimize"),
    ("optimize.grid_frontier_b92", "optimize", "grid_frontier_b92"),
)

# (layer, module, class, method): patched on the class.
METHODS = (
    ("simcore.state_validation", "simcore", "StateVector", "__post_init__"),
    ("simcore.state_validation", "simcore", "DensityMatrix", "__post_init__"),
    ("cloner.program_validation", "cloner", "SoftwareState", "__post_init__"),
    ("mub.pauli_matrix", "mub", "PauliString", "matrix"),
)

# (module, factory): the (objective, gradient) closures it returns are traced.
LOSS_FACTORIES = (("optimize", "make_program_loss"), ("optimize", "make_b92_loss"))
CLOSURE_LAYERS = ("optimize.objective", "optimize.gradient")

CLI_LAYER = "cli"

LAYERS = tuple(
    dict.fromkeys(
        [layer for layer, *_ in FUNCTIONS]
        + [layer for layer, *_ in METHODS]
        + list(CLOSURE_LAYERS)
    )
)

GATE_AMPLITUDES = "simcore.apply_ops.gate_amplitudes"
ADAM_STEPS = "optimize.adam.steps"


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.cloners_built: set = set()  # distinct (kind, n) passed to build_cloner

    def enter(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        idx = len(self.start)
        self.layer_id.append(lid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: str, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = self.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(idx)

        return traced

    def durations(self, layer: str) -> np.ndarray:
        """Span durations of one layer, in call order."""
        lid = self._layer_ids.get(layer)
        if lid is None:
            return np.zeros(0)
        sel = np.frombuffer(self.layer_id, dtype=np.int32) == lid
        return (np.frombuffer(self.end) - np.frombuffer(self.start))[sel]

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """layer -> (calls, summed span seconds, summed self seconds)."""
        if not self.start:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child_time
        lid = np.frombuffer(self.layer_id, dtype=np.int32)
        k = len(self.layers)
        calls = np.bincount(lid, minlength=k)
        total = np.bincount(lid, weights=dur, minlength=k)
        self_s = np.bincount(lid, weights=own, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.layers)
        }


def _modules():
    pkg = importlib.import_module("paulicloner")
    return [pkg] + [importlib.import_module(f"paulicloner.{m}") for m in MODULES]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch the wrappers in; returns (owner, attribute, original) to undo."""
    modules = _modules()
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    patches: list[tuple[object, str, object]] = []

    def patch_everywhere(original, replacement) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def gate_amplitudes(amplitudes, num_qubits, ops):
        tracer.count(GATE_AMPLITUDES, len(ops) * 2**num_qubits)

    def cloner_built(kind, num_clone_qubits, program):
        tracer.cloners_built.add((kind, num_clone_qubits))

    def adam_steps(objective, spec, cfg, grad=None):
        tracer.count(ADAM_STEPS, cfg.steps * cfg.restarts)

    hooks = {
        "apply_ops": gate_amplitudes,
        "build_cloner": cloner_built,
        "adam_optimize": adam_steps,
    }
    for layer, mod, name in FUNCTIONS:
        original = getattr(by_name[mod], name)
        patch_everywhere(original, tracer.wrap(layer, original, hooks.get(name)))
    for layer, mod, cls_name, name in METHODS:
        cls = getattr(by_name[mod], cls_name)
        original = cls.__dict__[name]
        patches.append((cls, name, original))
        setattr(cls, name, tracer.wrap(layer, original))
    for mod, name in LOSS_FACTORIES:
        original = getattr(by_name[mod], name)

        def factory(*args, _original=original, **kwargs):
            objective, gradient = _original(*args, **kwargs)
            return (
                tracer.wrap(CLOSURE_LAYERS[0], objective),
                tracer.wrap(CLOSURE_LAYERS[1], gradient),
            )

        patch_everywhere(original, functools.wraps(original)(factory))
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit); layers never called read 0."""
    totals = tracer.layer_totals()
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls, total_s, self_s = totals.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.total_s"] = (total_s, "s")
        out[f"{layer}.self_s"] = (self_s, "s")
    out[GATE_AMPLITUDES] = (tracer.counts.get(GATE_AMPLITUDES, 0), "count")
    built = totals.get("cloner.build_cloner", (0, 0.0, 0.0))[0]
    distinct = len(tracer.cloners_built)
    out["cloner.build_cloner.distinct"] = (distinct, "count")
    out["cloner.build_cloner.useful_ratio"] = (distinct / built if built else 0.0, "ratio")
    steps = tracer.counts.get(ADAM_STEPS, 0)
    adam = tracer.durations("optimize.adam")
    out[ADAM_STEPS] = (steps, "count")
    out["optimize.adam_step_s"] = (float(adam.sum()) / steps if steps else 0.0, "s")
    out["optimize.frontier_point_s"] = (
        statistics.median(adam.tolist()) if adam.size else 0.0,
        "s",
    )
    cli = totals.get(CLI_LAYER, (0, 0.0, 0.0))
    out["cli.main_s"] = (cli[1], "s")
    out["cli.self_s"] = (cli[2], "s")
    return out


def traced_cli_run(argv: list[str]) -> dict:
    """One in-process CLI run under tracing: exit code, stdout and metrics."""
    from paulicloner import cli

    tracer = Tracer()
    patches = install(tracer)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = tracer.wrap(CLI_LAYER, cli.main)(argv)
    finally:
        uninstall(patches)
    metrics = layer_metrics(tracer)
    return {
        "exit_code": code,
        "stdout": out.getvalue(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    print(json.dumps(traced_cli_run(sys.argv[1:])))
