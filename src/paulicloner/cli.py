"""Command-line front end: evaluate fidelities, validate the closed forms
against simulation, run frontier sweeps, and print the MUB tables.

Exit codes: 0 on success, 1 when validation or an optimizer run fails,
2 on usage errors.  CSV files embed the full run configuration as
'#'-prefixed comment lines, and all numeric output uses 12 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, mub, optimize, simcore
from .cloner import (
    ClonerKind,
    SoftwareState,
    NgAngles,
    bob_pauli_transfer_matrices,
    clone_fidelities,
    fidelity_columns,
    ng_angles_to_program,
)
from .mub import mubs_for
from .noise import PauliChannel, noisy_fidelity_1q, parse_channel_spec


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _print_json(payload: dict) -> None:
    print(json.dumps(_round_floats(payload), indent=2))


# ---------------------------------------------------------------------------
# program sources


def resolve_preset(name: str, kind: ClonerKind, n: int) -> SoftwareState:
    """Named program states; 'imbalanced(eta)' carries its parameter inline."""
    name = name.strip().lower()
    if name.startswith("imbalanced(") and name.endswith(")"):
        if kind != ClonerKind.NG or n != 1:
            raise ValueError("preset imbalanced(eta) exists for the 1-qubit NG cloner")
        eta = float(name[len("imbalanced(") : -1])
        return analytic.table1_angles("imbalanced", eta=eta).to_program()
    if name == "qid-uqcm-sym":
        if kind != ClonerKind.QID:
            raise ValueError("preset qid-uqcm-sym is a QID program")
        name = "uqcm-sym"
    if name == "uqcm-sym":
        if kind == ClonerKind.QID:
            if n == 1:
                return analytic.qid_closed_form("uqcm").to_program()
            return analytic.qid_uqcm_program_2q()
        return analytic.uqcm_program_ng(n)
    if name == "pccm-sym":
        if n != 1:
            raise ValueError("preset pccm-sym exists for 1-qubit registers")
        if kind == ClonerKind.QID:
            return analytic.qid_closed_form("pccm").to_program()
        return analytic.table1_angles("pccm").to_program()
    if name == "cnot-cloner":
        if n != 1:
            raise ValueError("preset cnot-cloner exists for 1-qubit registers")
        if kind == ClonerKind.QID:
            return analytic.qid_closed_form("cnot").to_program()
        return SoftwareState(np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2))
    raise ValueError(f"unknown preset {name!r}")


def _program_from_args(args, kind: ClonerKind) -> SoftwareState:
    given = [s for s in (args.preset, args.amplitudes, args.angles) if s]
    if len(given) != 1:
        raise ValueError("give exactly one of --preset, --amplitudes, --angles")
    if args.preset:
        return resolve_preset(args.preset, kind, args.n)
    if args.amplitudes:
        # commas or spaces: a sweep row's params column replays as it is
        values = [complex(v) for v in args.amplitudes.replace(",", " ").split()]
        amps = np.asarray(values)
        norm = np.linalg.norm(amps)
        if not 0 < norm < math.inf:
            raise ValueError("amplitudes must be finite and not all zero")
        return SoftwareState(amps / norm)
    rho, phi, theta = (float(v) for v in args.angles.split(","))
    if args.n != 1:
        raise ValueError("--angles parameterizes 1-qubit programs")
    return ng_angles_to_program(NgAngles(rho, phi, theta))


def _channel_from_args(args, n: int) -> PauliChannel | None:
    if not getattr(args, "noise", None):
        return None
    return parse_channel_spec(args.noise, n)


# ---------------------------------------------------------------------------
# fidelities


def cmd_fidelities(args) -> int:
    kind = ClonerKind(args.kind)
    program = _program_from_args(args, kind)
    if program.num_clone_qubits != args.n:
        raise ValueError(
            f"program describes {program.num_clone_qubits}-qubit registers, --n {args.n}"
        )
    channel = _channel_from_args(args, args.n)
    all_bases = mubs_for(args.n)
    bases = list(all_bases.bases)
    if args.bases:
        bases = [all_bases[lbl.strip()] for lbl in args.bases.split(",")]
    report = clone_fidelities(kind, args.n, program, channel=channel, bases=bases)
    payload = {
        "kind": kind.value,
        "n": args.n,
        "program": [[z.real, z.imag] for z in program.amplitudes],
        "channel": {str(p): w for p, w in channel.probs.items()} if channel else None,
        "f_ab": report.f_ab,
        "f_ae": report.f_ae,
        "f_ab_avg": report.f_ab_avg,
        "f_ae_avg": report.f_ae_avg,
        "per_state_ab": {k: list(v) for k, v in report.per_state_ab.items()},
        "per_state_ae": {k: list(v) for k, v in report.per_state_ae.items()},
    }
    _print_json(payload)
    if args.out:
        lines = _config_comment(vars(args))
        lines.append("basis,state,F_AB,F_AE")
        for lbl in report.basis_labels:
            for i, (fab, fae) in enumerate(
                zip(report.per_state_ab[lbl], report.per_state_ae[lbl])
            ):
                lines.append(f"{lbl},{i},{_fmt(fab)},{_fmt(fae)}")
        _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# validate


@dataclass
class Check:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # false for a NaN deviation, which compares false with everything
        return self.deviation <= self.tolerance


def _random_programs(rng, count: int, n: int, complex_share: float = 0.0) -> np.ndarray:
    """Unit program columns (4^n, count) in three array calls: Gaussian
    amplitudes, complex Gaussian in a column with probability ``complex_share``."""
    re, im = rng.standard_normal((2, 4**n, count))
    v = re + 1j * im * (rng.random(count) < complex_share)
    return v / np.linalg.norm(v, axis=0)


def _max_abs(a, b) -> float:
    """Largest |a - b| over matching entries; a NaN entry makes it NaN."""
    return float(np.max(np.abs(np.subtract(a, b))))


def _prep_circuit_deviation() -> float:
    """How far each MUB preparation circuit, run on |k>, is from basis state k
    up to a global phase."""
    devs = []
    for idx, basis in enumerate(mubs_for(2).bases):
        circuit = mub.mub_prep_circuit(idx)
        for k, ref in enumerate(basis.states):
            got = simcore.apply_circuit(simcore.basis_state(2, k), circuit).amplitudes
            phase = np.vdot(ref.amplitudes, got)
            devs += [abs(abs(phase) - 1.0), _max_abs(got, phase * ref.amplitudes)]
    return float(np.max(devs))


def _classes_form_groups(n: int) -> bool:
    """The 2^n + 1 commuting classes partition the non-identity Paulis, and
    each class plus the identity is a group of commuting strings."""
    classes = mub.commuting_classes(n)
    seen: set[int] = set()
    ok = len(classes) == 2**n + 1
    for cls in classes:
        idx = {mub.pauli_to_index(p) for p in cls}
        ok &= len(idx) == 2**n - 1 and not (idx & seen)
        seen |= idx
        group = idx | {0}
        ok &= all((u ^ v) in group for u in group for v in group)
        ok &= all(mub._symplectic_commutes(u, v, n) for u in idx for v in idx)
    return ok and len(seen) == 4**n - 1


def _pairs_partition() -> bool:
    """Every index j > 0 is fixed by exactly one two-qubit basis, and each basis
    fixes three: so every j > 0 enters exactly one Bob fidelity, and every
    unordered pair (i, j), as i ^ j != 0, exactly one Eve fidelity."""
    masks = np.array([b.invariant_mask for b in mubs_for(2).bases])[:, 1:]
    return bool(np.all(masks.sum(axis=0) == 1) and np.all(masks.sum(axis=1) == 3))


def _engine_columns(kind: ClonerKind, n: int, columns: np.ndarray, channel=None) -> np.ndarray:
    """Engine fidelities, axes (receiver, MUB state, program), of program
    columns (4^n, P) from one ``fidelity_columns`` call."""
    rows = np.array([st.amplitudes for b in mubs_for(n).bases for st in b.states])
    return np.array(fidelity_columns(kind, n, columns, rows, channel))


def _closed_form_columns(kind: ClonerKind, n: int, columns: np.ndarray) -> np.ndarray:
    """Closed-form fidelities, axes (receiver, MUB state, program), from one call."""
    if kind == ClonerKind.QID:
        return np.array(analytic.qid_fidelity_columns(columns))
    bases = mubs_for(n).bases
    return np.repeat(analytic.ng_closed_form(columns, bases), len(bases[0].states), axis=1)


def _closed_form_check(rng, count: int, kind: ClonerKind, n: int) -> float:
    """Random programs' per-state fidelities: closed form against engine."""
    columns = _random_programs(rng, count, n, 0.3 if n == 1 else 0.0)
    want = _closed_form_columns(kind, n, columns)
    return _max_abs(_engine_columns(kind, n, columns), want)


_CERTAIN_ERRORS = tuple(PauliChannel.from_xyz(*row) for row in np.eye(3))  # X, Y, Z


def _noisy_transform_check(rng, count: int) -> float:
    """Noise transform of clean fidelities against the engine under each drawn
    channel.  A fidelity is linear in the channel, p_I F_I + p_X F_X + p_Y F_Y +
    p_Z F_Z with F_P the value under a certain error P and F_I the clean one, so
    four engine calls per kind, each on all of its programs, serve every draw."""
    is_ng = rng.random(count) < 0.5
    columns = _random_programs(rng, count, 1)
    probs = (rng.dirichlet(np.ones(4), count) * rng.uniform(0.2, 1.0, (count, 1)))[:, :3]
    weights = np.column_stack([1.0 - probs.sum(axis=1), probs])
    bases = mubs_for(1).bases
    # per-basis means, axes (error I X Y Z, receiver, basis, draw)
    f = np.empty((4, 2, len(bases), count))
    for kind, sel in ((ClonerKind.NG, is_ng), (ClonerKind.QID, ~is_ng)):
        for e, channel in enumerate((None, *_CERTAIN_ERRORS)):
            v = _engine_columns(kind, 1, columns[:, sel], channel)
            f[e][..., sel] = v.reshape(2, len(bases), -1, v.shape[-1]).mean(axis=2)
    want = np.einsum("erbd,de->rbd", f, weights)
    got = np.empty_like(want)
    for k, b in enumerate(bases):
        try:
            got[:, k] = noisy_fidelity_1q(f[0, :, k], b.label, *probs.T)
        except ValueError:  # an engine value outside [0, 1], NaN too, fails the check
            got[:, k] = math.nan
    return _max_abs(got, want)


def _transfer_check(rng, count: int) -> float:
    """Off-diagonal size of Bob's Pauli transfer matrix for random programs."""
    sizes = rng.integers(1, 3, size=count)
    devs = []
    for n in (1, 2):
        if np.any(sizes == n):
            columns = _random_programs(rng, np.count_nonzero(sizes == n), n)
            mats = bob_pauli_transfer_matrices(ClonerKind.NG, n, columns)
            devs.append(_max_abs(mats, mats * np.eye(4**n)))
    return float(np.max(devs))


def _bob_fidelity_check(rng, count: int) -> float:
    """The generalized Bob fidelity against the engine's, on every two-qubit state."""
    columns = _random_programs(rng, count, 2)
    got = _closed_form_columns(ClonerKind.NG, 2, columns)[0]
    return _max_abs(_engine_columns(ClonerKind.NG, 2, columns)[0], got)


def _random_circuits(rng, count: int) -> list[tuple[simcore.Circuit, np.ndarray]]:
    """Random n-qubit circuits, n uniform in {2, 3, 4}, and unit complex-Gaussian
    inputs, drawn in six array calls.  Each of 12 slots holds a gate uniform over
    GATE_NAMES, or nothing when it needs more than n qubits; its qubits are
    distinct, uniform and in random order (argsort of uniform keys, qubits >= n
    keyed 1 higher), its angle uniform in [-pi, pi), a CRY's control in {0, 1}."""
    sizes = rng.integers(2, 5, size=count)
    names = rng.choice(simcore.GATE_NAMES, size=(count, 12))
    orders = np.argsort(rng.random((count, 12, 4)) + (np.arange(4) >= sizes[:, None, None]))
    angles = rng.uniform(-math.pi, math.pi, size=names.shape)
    controls = rng.integers(2, size=names.shape) | (names != "CRY")
    re, im = rng.standard_normal((2, count, 16))
    v = np.where(np.arange(16) < 2 ** sizes[:, None], re + 1j * im, 0)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    draws = []
    for i, n in enumerate(sizes.tolist()):
        ops = []
        slots = (a[i].tolist() for a in (names, orders, angles, controls))
        for name, order, angle, control in zip(*slots):
            arity = simcore.GATE_ARITY[name]
            if arity <= n:
                angle = angle if name in simcore.ROTATION_GATES else None
                ops.append(simcore.GateOp(name, tuple(order[:arity]), angle, control))
        draws.append((simcore.Circuit(n, tuple(ops)), v[i, : 2**n]))
    return draws


def _unitarity_check(rng, count: int) -> float:
    """Random circuits, run on bare amplitudes, keep norms; their inverses undo them."""
    devs = []
    for circuit, v in _random_circuits(rng, count):
        out = simcore.apply_ops(v, circuit.num_qubits, circuit.ops)
        back = simcore.apply_ops(out, circuit.num_qubits, circuit.inverse().ops)
        devs += [abs(float(np.linalg.norm(out)) - 1.0), _max_abs(back, v)]
    return float(np.max(devs))


MAX_TRIALS = 100_000  # memory grows by about 8 KiB a trial


def run_validation(trials: int = 200, seed: int = 0) -> list[Check]:
    """All closed-form-versus-simulation oracles and structure checks.

    One stream feeds the randomized checks in the order listed (closed-form programs
    per family, noise draws, transfer and Bob programs, circuits); each draws all
    its randomness first, in array calls.  Each check stacks its programs as
    columns (4^n, P), as bare vectors, and compares one closed-form call per family
    with one engine call per family and register size; the noise oracle makes four
    per kind, one clean and one per certain Pauli error, at any number of draws.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be from 1 to {MAX_TRIALS}, got {trials}")
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    for n in (1, 2):
        dev = mub.unbiasedness_deviation(mubs_for(n).bases, n)
        checks.append(Check(f"mub-unbiasedness-{n}q", dev, 1e-12))
    checks.append(Check("mub-prep-circuits", _prep_circuit_deviation(), 1e-12))
    expected_1q = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
    expected_2q = np.array(
        [
            [1, 0, 1, 1, 1],
            [1, 1, 1, 1, 0],
            [1, 1, 0, 1, 1],
            [0, 1, 1, 1, 1],
            [1, 1, 1, 0, 1],
        ]
    )
    try:  # raises when a row's errors disagree on a basis
        tables = mub.action_table(1), mub.action_table(2)
        table_dev = _max_abs(tables[0], expected_1q) + _max_abs(tables[1], expected_2q)
    except RuntimeError:
        table_dev = math.nan
    checks.append(Check("action-table", table_dev, 0.0))
    group_law = all(_classes_form_groups(n) for n in (1, 2, 3))
    checks.append(Check("commuting-classes-group-law", 0.0 if group_law else 1.0, 0.0))

    for n in (1, 2):
        for kind in (ClonerKind.NG, ClonerKind.QID):
            dev = _closed_form_check(rng, trials, kind, n)
            checks.append(Check(f"analytic-vs-sim-{kind.value}-{n}q", dev, 1e-10))
    dev = _noisy_transform_check(rng, max(trials, 200))
    checks.append(Check("noisy-transform-oracle", dev, 1e-10))
    dev = _transfer_check(rng, 100)
    checks.append(Check("pauli-transfer-diagonal", dev, 1e-10))
    checks.append(Check("eve-pair-partition", 0.0 if _pairs_partition() else 1.0, 0.0))
    dev = _bob_fidelity_check(rng, min(trials, 100))
    checks.append(Check("generalized-bob-fidelity", dev, 1e-12))
    dev = _unitarity_check(rng, min(trials, 200))
    checks.append(Check("circuit-unitarity", dev, 1e-10))
    return checks


def cmd_validate(args) -> int:
    checks = run_validation(trials=args.trials, seed=args.seed)
    width = max(len(c.name) for c in checks)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"[{status}] {c.name:<{width}}  max deviation {_fmt(c.deviation)}"
            f"  (tolerance {_fmt(c.tolerance)})"
        )
        failed += 0 if c.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# sweep / optimize


MAX_F_TARGETS = 1000


def _parse_f_range(spec: str) -> list[float]:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"malformed f range {spec!r}, expected start:stop:step") from None
    # NaN fails these comparisons, and finite bounds keep the loop below finite
    if not (0.0 <= start <= stop <= 1.0 and 0.0 < step < math.inf):
        raise ValueError(
            f"bad --f range {spec!r}: need 0 <= start <= stop <= 1 and a finite step > 0"
        )
    # counted before enumerating; a float quotient, since it may overflow an int
    if (stop - start) / step + 1 > MAX_F_TARGETS:
        raise ValueError(f"--f range {spec!r} asks for more than {MAX_F_TARGETS} targets")
    values = []
    f = start
    while f <= stop + 1e-9:
        values.append(round(f, 10))
        f += step
    return values


def _config_comment(config: dict) -> list[str]:
    cleaned = {
        k: v
        for k, v in sorted(config.items())
        if k != "func" and not k.startswith("_") and v is not None
    }
    return [f"# {json.dumps(cleaned, default=str)}"]


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _sweep_csv_lines(result: optimize.SweepResult, config: dict) -> list[str]:
    basis_labels = list(dict.fromkeys(lbl for row in result.rows for lbl in row.f_ab))
    header = ["f_target", "series", "label", "F_AB_avg", "F_AE_avg"]
    header += [f"F_AB_{lbl}" for lbl in basis_labels]
    header += [f"F_AE_{lbl}" for lbl in basis_labels]
    header += ["params", "target_miss"]
    lines = _config_comment(config)
    lines.append(",".join(header))
    for row in result.rows:
        cells = [
            _fmt(row.f_target) if not math.isnan(row.f_target) else "",
            row.series,
            row.label,
            _fmt(row.f_ab_avg),
            _fmt(row.f_ae_avg),
        ]
        for lbl in basis_labels:
            cells.append(_fmt(row.f_ab[lbl]) if lbl in row.f_ab else "")
        for lbl in basis_labels:
            cells.append(_fmt(row.f_ae[lbl]) if lbl in row.f_ae else "")
        if row.parameters is None:
            cells.append("")
        else:
            cells.append('"' + " ".join(_fmt(p) for p in row.parameters) + '"')
        cells.append("" if row.target_miss is None else _fmt(row.target_miss))
        lines.append(",".join(cells))
    return lines


def _run_sweep(args, f_values) -> optimize.SweepResult:
    """The frontier run behind sweep and optimize, from the shared run options."""
    channel = _channel_from_args(args, optimize.task_num_clone_qubits(args.task))
    overrides = {
        "steps": args.steps,
        "restarts": args.restarts,
        "learning_rate": args.lr,
        "seed": args.seed,
    }
    cfg = replace(
        optimize.default_task_config(args.task),
        **{k: v for k, v in overrides.items() if v is not None},
    )
    return optimize.frontier_sweep(args.task, f_values=f_values, cfg=cfg, channel=channel)


def cmd_sweep(args) -> int:
    result = _run_sweep(args, _parse_f_range(args.f) if args.f else None)
    lines = _sweep_csv_lines(result, vars(args))
    if args.out:
        _write_lines(args.out, lines)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    else:
        print("\n".join(lines))
    return 0


def cmd_optimize(args) -> int:
    result = _run_sweep(args, [args.f_target])
    payload = [
        {
            "f_target": None if math.isnan(row.f_target) else row.f_target,
            "series": row.series,
            "label": row.label,
            "f_ab": row.f_ab,
            "f_ae": row.f_ae,
            "f_ab_avg": row.f_ab_avg,
            "f_ae_avg": row.f_ae_avg,
            "params": None
            if row.parameters is None
            else [float(p) for p in row.parameters],
            "target_miss": row.target_miss,
        }
        for row in result.rows
    ]
    _print_json({"task": args.task, "rows": payload})
    return 0


# ---------------------------------------------------------------------------
# mubs / table


def cmd_mubs(args) -> int:
    mset = mubs_for(args.n)
    for basis in mset.bases:
        print(f"basis {basis.label}:")
        for i, st in enumerate(basis.states):
            comps = ", ".join(
                f"{z.real:+.6f}{z.imag:+.6f}j" for z in st.amplitudes
            )
            print(f"  state {i}: [{comps}]")
    if args.check:
        dev = mub.unbiasedness_deviation(mset.bases, args.n)
        print(f"max unbiasedness deviation: {_fmt(dev)}")
    return 0


def cmd_table(args) -> int:
    if args.n in (1, 2):
        table = mub.action_table(args.n)
        rows = (
            mub.SINGLE_QUBIT_ERROR_ROWS if args.n == 1 else mub.TWO_QUBIT_ERROR_ROWS
        )
        cols = (
            mub.SINGLE_QUBIT_TABLE_BASES
            if args.n == 1
            else tuple(b.label for b in mubs_for(2).bases)
        )
        label_width = max(len(", ".join(str(p) for p in row)) for row in rows)
        print(" " * label_width + "  " + " ".join(f"{c:>4}" for c in cols))
        for row, bits in zip(rows, table):
            name = ", ".join(str(p) for p in row)
            print(f"{name:<{label_width}}  " + " ".join(f"{b:>4}" for b in bits))
    else:
        classes = mub.commuting_classes(args.n)
        print(f"{len(classes)} commuting classes of {len(classes[0])} Pauli strings:")
        for i, cls in enumerate(classes):
            print(f"  class {i}: " + " ".join(str(p) for p in cls))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulicloner",
        description="Programmable 1-to-2 cloning machines for N-qubit Pauli channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelities", help="evaluate clone fidelities by simulation")
    p.add_argument("--kind", choices=["ng", "qid"], required=True)
    p.add_argument("--n", type=int, choices=[1, 2], required=True)
    p.add_argument(
        "--preset",
        help="named program: uqcm-sym | pccm-sym | imbalanced(eta) | "
        "cnot-cloner | qid-uqcm-sym",
    )
    p.add_argument("--amplitudes", help="comma-separated program amplitudes")
    p.add_argument("--angles", help="rho,phi,theta for 1-qubit programs")
    p.add_argument("--noise", help="channel spec, e.g. 'X=0.25' or 'YI=0.45'")
    p.add_argument("--bases", help="comma-separated basis labels (default: all)")
    p.add_argument("--out", help="also write a per-state CSV here")
    p.set_defaults(func=cmd_fidelities)

    p = sub.add_parser("validate", help="run all oracle and structure checks")
    p.add_argument("--trials", type=int, default=200, help=f"at most {MAX_TRIALS}")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    # the options every frontier run takes, shared by sweep and optimize;
    # seed, steps, restarts and lr drive the Adam series only
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--task", choices=list(optimize.TASKS), required=True)
    run.add_argument("--noise", help="channel spec, e.g. 'X=0.25' or 'YI=0.45'")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--steps", type=int, default=None)
    run.add_argument("--restarts", type=int, default=None)
    run.add_argument("--lr", type=float, default=None)

    p = sub.add_parser(
        "sweep", parents=[run], help="frontier sweep over Bob-fidelity targets"
    )
    p.add_argument("--f", help="target range start:stop:step (default per task)")
    p.add_argument("--out", help="CSV output path (default: print)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", parents=[run], help="optimize one Bob-fidelity target")
    p.add_argument("--f-target", type=float, required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("mubs", help="print the mutually unbiased bases")
    p.add_argument("--n", type=int, choices=[1, 2], required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_mubs)

    p = sub.add_parser("table", help="error/basis table or commuting classes")
    p.add_argument("--n", type=int, choices=[1, 2, 3], required=True)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
