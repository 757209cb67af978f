"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402
from paulicloner import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bindings():
    owners = trace_layers._modules()
    for _, mod, cls, _ in trace_layers.METHODS:
        owners.append(getattr(next(m for m in owners if m.__name__.endswith(mod)), cls))
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_then_uninstall_restores_every_attribute():
    before = _bindings()
    patches = trace_layers.install(trace_layers.Tracer())
    patched = _bindings()
    trace_layers.uninstall(patches)
    after = _bindings()
    changed = {key for key in before if patched[key] is not before[key]}
    # every function, method and loss factory, plus re-exports and imported names
    assert len(changed) >= len(trace_layers.FUNCTIONS) + len(trace_layers.METHODS) + 2
    assert len(changed) == len(patches)
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)


def _synthetic(spans):
    """Tracer holding (layer, start, end, parent index) spans as recorded."""
    t = trace_layers.Tracer()
    for layer, start, end, parent in spans:
        idx = t.enter(layer)
        t.exit(idx)
        t.start[idx], t.end[idx], t.parent[idx] = start, end, parent
    return t


def test_self_time_on_nested_span_tree():
    t = _synthetic(
        [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 2.0, 3.0, 1),
            ("b", 5.0, 7.0, 0),
            ("d", 8.0, 9.5, 0),
            ("e", 11.0, 12.0, -1),
        ]
    )
    totals = t.layer_totals()
    assert totals["a"] == (1, 10.0, 3.5)
    assert totals["b"] == (2, 5.0, 4.0)
    assert totals["c"] == (1, 1.0, 1.0)
    assert totals["d"] == (1, 1.5, 1.5)
    assert totals["e"] == (1, 1.0, 1.0)
    assert sum(v[2] for v in totals.values()) == pytest.approx(11.0)


def test_wrapped_calls_record_their_parent():
    t = trace_layers.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    assert list(t.parent) == [-1, 0, 0]
    assert t.layer_totals()["inner"][0] == 2
    assert list(t.layer_id) == [0, 1, 1]


def test_speed_probe_rescales_by_the_probes_around_each_child():
    probe = run.SpeedProbe()
    ref = run.PROBE_REFERENCE_S
    probe.samples = [(0.5, ref), (5.0, 2 * ref), (6.0, 2 * ref), (20.0, 4 * ref)]
    child = type("C", (), {"t0": 4.5, "t1": 6.5, "wall_s": 3.0})()
    assert probe.slowness(4.0, 7.0) == pytest.approx(2.0)
    assert probe.rescaled(child) == pytest.approx(1.5)
    # no probe near the child: the whole run's mean
    child.t0, child.t1 = 10.0, 11.0
    assert probe.rescaled(child) == pytest.approx(3.0 / 2.25)
    with run.SpeedProbe() as live:
        pass
    assert len(live.samples) >= 1 and live.slowness() > 0


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


QUICK = ["--steps", "2", "--restarts", "1", "--seed", "3"]


@pytest.mark.parametrize("name", ["sweep-twenty", "sweep-b92"])
def test_corrupted_csv_value_fails_the_output_check(name):
    wl = workloads.WORKLOADS[name]
    text = _cli_stdout(list(wl.argv) + QUICK)
    assert workloads.check_sweep(wl, text).problems == []
    header = [ln for ln in text.splitlines() if not ln.startswith("#")][0].split(",")
    col = header.index("F_AE_avg")
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ",qml," in ln or ",ng," in ln)
    for bad in ("0.3", "nan", "1.5", ""):
        cells = lines[row].split(",")
        cells[col] = bad
        corrupted = "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1 :])
        assert workloads.check_sweep(wl, corrupted).problems, bad
    assert workloads.check_sweep(wl, "\n".join(lines[:-1])).problems


def test_failed_validation_line_fails_the_output_check():
    text = _cli_stdout(["validate", "--trials", "1"])
    assert workloads.check_validate(text).problems == []
    assert workloads.check_validate(text.replace("[PASS]", "[FAIL]", 1)).problems
    assert workloads.check_validate(text.rsplit("\n", 2)[0]).problems


def _quick(name):
    wl = workloads.WORKLOADS[name]
    extra = ("--trials", "2") if name == "validate" else tuple(QUICK[:4])
    argv = ("validate",) if name == "validate" else wl.argv
    return workloads.Workload(wl.name, wl.why, argv + extra, wl.targets)


def test_benchmark_json_declares_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_emitted_metrics_are_declared(monkeypatch, name, trace):
    monkeypatch.setitem(run.WORKLOADS, name, _quick(name))
    result = run.run_workload(name, seed=1, seconds=0, trace=bool(trace))
    assert result["correct"] and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for key, metric in result["metrics"].items():
        assert NAME.fullmatch(key)
        assert metric["unit"] == units[key]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "validate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
