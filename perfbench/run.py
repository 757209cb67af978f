"""paulicloner benchmark: end-to-end CLI runs and a traced per-layer run.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times fresh ``paulicloner`` CLI processes, one after
the other (a closed loop with one client), for ``--seconds`` and reports the
end-to-end metrics.  The machine is shared and its speed swings by up to a
factor of two within seconds, so times are rescaled to a fixed reference
speed, measured while each child runs (see ``SpeedProbe``).  With
``--trace 1`` it runs the workload once more under the layer tracer
(perfbench/trace_layers.py) in its own process and reports the per-layer
metrics.  Every output is checked; the last line of standard
output is the JSON result.  The benchmark only reads the clock, /proc and
its own children's resource usage: it changes no machine setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
from workloads import ON_TARGET, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

ENTRY = "import sys; from paulicloner.cli import main; sys.exit(main())"
SETUP = "import paulicloner.cli"
SETUPS_PER_RUN = 2

# The probe runs this often while the children run; each probe takes about
# 5 ms of CPU time, so it occupies the other core 2-3 % of the time.
PROBE_PERIOD_S = 0.2
PROBE_ITERATIONS = 60
# CPU time of one probe at the reference speed.  Times are rescaled by
# PROBE_REFERENCE_S / (mean probe time while they ran); the constant only
# sets the scale, and is about the probe's median on the machine of the
# README's baseline.
PROBE_REFERENCE_S = 0.005
# A child is rescaled by the probes that ended while it ran or within this
# margin of it, so that a 0.3 s set-up process still sees several; slow
# spells last seconds.
PROBE_MARGIN_S = 1.0

_rng = np.random.default_rng(0)
_PROBE_A = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_PROBE_B = _rng.standard_normal((2, 2)) + 0j
_PROBE_V = _rng.standard_normal(16) + 0j


def probe_work() -> float:
    """A fixed mix of interpreter work and small numpy products, like the
    program's own; no BLAS call in it is large enough to use threads."""
    acc = 0.0
    for _ in range(PROBE_ITERATIONS):
        k = np.kron(_PROBE_B, np.kron(_PROBE_B, np.kron(_PROBE_B, _PROBE_B)))
        w = k @ (_PROBE_A @ _PROBE_V)
        acc += float(np.vdot(w, _PROBE_V).real) + sum(j * j for j in range(20))
    return acc


class SpeedProbe:
    """Measures the machine's speed while the children run.

    Slow spells on the shared host slow both cores alike: the CPU time of a
    fixed probe, run in a thread of this process while a child runs on the
    other core, rises and falls with the child's wall time (correlation 0.99
    over 24 ``sweep-twenty`` processes on a shared 2-core VM, against 0.36
    for a probe run between them).  ``slowness`` is the mean probe time over an interval divided by
    the reference; a child's wall time divided by it is the time the child
    would take at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _probe(self) -> None:
        c0 = time.thread_time()
        probe_work()
        self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self._probe()

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowness(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean probe time within [t0, t1] over the reference; the whole
        run's mean when no probe ended inside the interval."""
        inside = [d for t, d in self.samples if t0 is not None and t0 <= t <= t1]
        return statistics.fmean(inside or [d for _, d in self.samples]) / PROBE_REFERENCE_S

    def rescaled(self, child: "Child") -> float:
        """The child's wall time at the reference speed."""
        margin = PROBE_MARGIN_S
        return child.wall_s / self.slowness(child.t0 - margin, child.t1 + margin)


class Child:
    """A finished child process: exit code, wall time, peak RSS and output."""

    def __init__(self, argv: list[str], env: dict) -> None:
        with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
            self.t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.t1 = time.perf_counter()
            self.wall_s = self.t1 - self.t0
            proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            out.seek(0)
            err.seek(0)
            self.stdout = out.read().decode()
            self.stderr = err.read().decode()


def child_env() -> dict:
    # Children cache bytecode, as an installed package does, whatever the
    # caller's PYTHONDONTWRITEBYTECODE says.
    drop = ("PAULICLONER_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli(workload, seed: int, env: dict) -> Child:
    return Child([sys.executable, "-c", ENTRY, *workload.cli_args(seed)], env)


def loop_cli(workload, seed, seconds, env, start, setups_per_run=0):
    """Untraced CLI runs, at least one, until ``seconds`` have passed since
    ``start``; a run is not begun when half of it would spill past the end.
    Set-up samples are spread between the runs so that they see the same
    machine as the runs do."""
    runs: list[Child] = []
    setups: list[Child] = []
    while not runs or (
        time.perf_counter() - start + statistics.median(r.wall_s for r in runs) / 2 < seconds
    ):
        setups += [Child([sys.executable, "-c", SETUP], env) for _ in range(setups_per_run)]
        runs.append(cli(workload, seed, env))
    return runs, setups


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else ref[5:]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "paulicloner").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def environment_record(load_before: str) -> dict:
    import numpy as np
    import paulicloner

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "paulicloner": paulicloner.__file__,
        "PAULICLONER_THREADS": "unset in children",
        "PYTHONDONTWRITEBYTECODE": "unset in children",
    }


def run_untraced(workload, seed: int, seconds: float, env: dict):
    Child([sys.executable, "-c", SETUP], env)  # compiles the .pyc files once
    with SpeedProbe() as probe:
        runs, setups = loop_cli(
            workload, seed, seconds, env, time.perf_counter(), SETUPS_PER_RUN
        )
    outcomes = [workload.check(r.exit_code, r.stdout) for r in runs]
    walls = [probe.rescaled(r) for r in runs]
    setup_s = [probe.rescaled(s) for s in setups]
    rss = [r.peak_rss_mb for r in runs]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    samples = {"wall_s": walls, "setup_s": setup_s, "peak_rss_mb": rss}
    raw = {"wall_s": [r.wall_s for r in runs], "setup_s": [s.wall_s for s in setups]}
    return metrics, samples, raw, probe, runs + setups, outcomes


def run_traced(workload, seed: int, seconds: float, env: dict):
    start = time.perf_counter()
    with SpeedProbe() as probe:
        traced = Child(
            [sys.executable, str(BENCH_DIR / "trace_layers.py"), *workload.cli_args(seed)],
            env,
        )
        runs, _ = loop_cli(workload, seed, seconds, env, start)
    try:
        record = json.loads(traced.stdout)
    except json.JSONDecodeError:
        record = {"exit_code": traced.exit_code, "stdout": "", "metrics": {}}
    traced_outcome = workload.check(
        record["exit_code"] if traced.exit_code == 0 else traced.exit_code, record["stdout"]
    )
    outcomes = [traced_outcome] + [workload.check(r.exit_code, r.stdout) for r in runs]
    metrics = {k: (v["value"], v["unit"]) for k, v in record["metrics"].items()}
    untraced = [probe.rescaled(r) for r in runs]
    metrics["trace_overhead_s"] = (probe.rescaled(traced) - statistics.median(untraced), "s")
    misses = traced_outcome.target_misses
    metrics["optimize.rows_attempted"] = (len(misses), "count")
    metrics["optimize.rows_on_target"] = (
        sum(m <= ON_TARGET for m in misses) / len(misses) if misses else 0.0,
        "ratio",
    )
    metrics["optimize.target_miss_max"] = (max(misses, default=0.0), "fidelity")
    samples = {"trace_overhead_s": untraced}  # the untraced side
    raw = {"trace_overhead_s": [traced.wall_s - statistics.median(r.wall_s for r in runs)]}
    return metrics, samples, raw, probe, [traced] + runs, outcomes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    load_before = loadavg()
    env = child_env()
    run = run_traced if trace else run_untraced
    metrics, samples, raw, probe, children, outcomes = run(workload, seed, seconds, env)
    failed = sum(1 for o in outcomes if o.problems)
    print(f"perfbench {name} seed={seed} trace={int(trace)}")
    for key, (value, unit) in metrics.items():
        line = f"  {key:<40} {value:<12.6g} {unit}"
        if key in samples:
            line += f"  median of n={len(samples[key])}, quartile spread {quartile_spread(samples[key]):.4g}"
        if key in raw:
            line += f"; not rescaled {statistics.median(raw[key]):.6g}"
        print(line)
    probes = [d for _, d in probe.samples]
    print(
        f"  speed probe: {len(probes)} probes, median {statistics.median(probes) * 1e3:.4g} ms,"
        f" slowness over the run {probe.slowness():.4g} (1 = reference speed)"
    )
    print(f"  error_rate {failed / len(outcomes):.4g} ({failed} failed of {len(outcomes)})")
    for o in outcomes:
        for p in o.problems:
            print(f"  FAILED CHECK: {p}")
    for c in children:
        if c.exit_code:
            print(f"  child exit {c.exit_code}: {c.stderr.strip()[-500:]}")
    print("env " + json.dumps(environment_record(load_before), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception so that the running child is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "paulicloner" / "cli.py").is_file():
        print(f"error: no paulicloner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ok &= result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
