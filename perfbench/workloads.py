"""The benchmark's workloads: CLI arguments and the checks on their output.

Every workload is one ``paulicloner`` CLI invocation whose amount of work is
fixed (trials, targets, steps and restarts do not depend on the seed); the
seed only changes the random programs and Adam restarts.

Sweep outputs are checked twice over: the CSV must be well formed, and every
Adam row is re-evaluated from its printed parameters through the simulation
oracle (``cloner.clone_fidelities`` or ``cloner.b92_fidelities``).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

# Parameters and fidelities are printed with 12 significant digits, so each
# parameter is off by at most |p| * 5e-13 <= 2e-12 (|p| < 4 here) and each
# printed fidelity by 5e-13.  A fidelity of a unit vector moves by at most 1
# per radian of any rotation angle, so the 60 rounded parameters shift it by
# at most 1.2e-10.  The tolerance keeps a factor of eight above that sum.
ORACLE_TOL = 1e-9
# A row is on target when its Bob average is this close to f_target; the
# same threshold makes the optimizer log a miss.
ON_TARGET = 0.02

ADAM_SERIES = ("ng", "qid", "qml")


@dataclass
class Outcome:
    """Problems found in one invocation's output, and its Adam rows' misses."""

    problems: list[str] = field(default_factory=list)
    target_misses: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    targets: tuple[float, ...] = ()

    def cli_args(self, seed: int) -> list[str]:
        return list(self.argv) + ["--seed", str(seed)]

    def check(self, exit_code: int, stdout: str) -> Outcome:
        if exit_code != 0:
            return Outcome([f"exit code {exit_code}"])
        if self.name == "validate":
            return check_validate(stdout)
        return check_sweep(self, stdout)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "validate",
            "simulation path without the optimizer; most time in clone_fidelities",
            ("validate", "--trials", "200"),
        ),
        Workload(
            "sweep-twenty",
            "noisy two-qubit forms built once, then Adam on the 60-parameter prep ansatz",
            ("sweep", "--task", "twenty", "--noise", "YI=0.45", "--f", "0.45:0.5:0.05"),
            (0.45, 0.5),
        ),
        Workload(
            "sweep-b92",
            "control: own b92 kernel and grid frontier, bypasses simcore and cloner",
            ("sweep", "--task", "b92", "--f", "0.75:0.8:0.05"),
            (0.75, 0.8),
        ),
    )
}

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_validate(stdout: str) -> Outcome:
    out = Outcome()
    lines = stdout.splitlines()
    results = [m.groups() for m in map(_CHECK_LINE.match, lines) if m]
    if not results:
        out.problems.append("no check lines")
    out.problems += [f"check {name} failed" for status, name in results if status != "PASS"]
    summary = _SUMMARY.match(lines[-1]) if lines else None
    if summary is None or summary.groups() != (str(len(results)),) * 2:
        out.problems.append("summary line does not match the check lines")
    return out


def parse_sweep_csv(stdout: str) -> list[dict]:
    body = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(body, strict=True))


def _finite_fidelity(text: str) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return math.isfinite(v) and 0.0 <= v <= 1.0


def check_sweep(workload: Workload, stdout: str) -> Outcome:
    out = Outcome()
    try:
        rows = parse_sweep_csv(stdout)
    except csv.Error as exc:
        return Outcome([f"CSV does not parse: {exc}"])
    if workload.name == "sweep-twenty":
        expected = [(f, s) for f in workload.targets for s in ("ng", "qid")] + [("", "uqcm")]
    else:
        expected = [(f, s) for f in workload.targets for s in ("grid-ng", "grid-qid", "qml")]
    got = []
    for row in rows:
        try:
            got.append((float(row["f_target"]) if row["f_target"] else "", row["series"]))
        except (KeyError, TypeError, ValueError):
            out.problems.append(f"malformed row {row}")
    if sorted(got, key=repr) != sorted(expected, key=repr):
        out.problems.append(f"rows {got} differ from the expected {expected}")
    for row in rows:
        cells = {k: v for k, v in row.items() if k and k.startswith("F_") and v}
        bad = [k for k, v in cells.items() if not _finite_fidelity(v)]
        if bad or len(cells) < 2:
            out.problems.append(f"{row.get('series')} row: bad fidelities {bad or cells}")
            continue
        if row["series"] in ADAM_SERIES:
            problems = _oracle_problems(workload, row)
            out.problems += problems
            if not problems:
                out.target_misses.append(abs(float(row["F_AB_avg"]) - float(row["f_target"])))
    return out


def _oracle_problems(workload: Workload, row: dict) -> list[str]:
    """Re-evaluate an Adam row from its printed parameters by simulation."""
    import numpy as np
    from paulicloner import cloner, noise, optimize

    try:
        params = np.array([float(p) for p in (row.get("params") or "").split()])
    except ValueError:
        return [f"{row['series']} f={row['f_target']}: unreadable params"]
    kind = "program-prep" if workload.name == "sweep-twenty" else "b92"
    if params.size != optimize.ANSATZ_PARAM_COUNTS[kind]:
        return [f"{row['series']} f={row['f_target']}: {params.size} params"]
    if kind == "program-prep":
        program = optimize.evaluate_ansatz(optimize.AnsatzSpec(kind, params))
        channel = noise.parse_channel_spec(workload.argv[workload.argv.index("--noise") + 1], 2)
        rep = cloner.clone_fidelities(cloner.ClonerKind(row["series"]), 2, program, channel)
        want = {"F_AB_avg": rep.f_ab_avg, "F_AE_avg": rep.f_ae_avg}
        want.update({f"F_AB_{k}": v for k, v in rep.f_ab.items()})
        want.update({f"F_AE_{k}": v for k, v in rep.f_ae.items()})
    else:
        f_ab, f_ae = cloner.b92_fidelities(optimize.b92_ansatz_circuit(params))
        want = {"F_AB_avg": f_ab, "F_AE_avg": f_ae}
    return [
        f"{row['series']} f={row['f_target']}: {k} printed {row.get(k)}, oracle {v!r}"
        for k, v in want.items()
        if not (row.get(k) and abs(float(row[k]) - v) <= ORACLE_TOL)
    ]
