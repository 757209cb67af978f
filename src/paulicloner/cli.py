"""Command-line front end: evaluate fidelities, validate the closed forms
against simulation, run frontier sweeps, and print the MUB tables.

Exit codes: 0 on success, 1 when validation or an optimizer run fails,
2 on usage errors, 141 (128 + SIGPIPE, as a shell reports a process that a
closed pipe ended) when standard output is closed before the output is
written, as by ``| head``.  CSV files embed the full run configuration as
'#'-prefixed comment lines, and all numeric output uses 12 significant
digits.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys

# One OpenBLAS thread, set before numpy loads: with registers of at most two
# qubits a command's BLAS calls are small, and a second thread only costs time
# (it spins while numpy loads).  A thread count the user set stays, and a
# process that loaded numpy before the CLI keeps what it has.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    import json  # loaded only by the commands that print or embed JSON

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
    try:
        rho, phi, theta = (float(v) for v in args.angles.split(","))
    except ValueError:
        raise ValueError("--angles takes three numbers: rho,phi,theta") from None
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
    bases = None  # the register's full MUB set
    if args.bases is not None:
        bases = [mubs_for(args.n)[lbl.strip()] for lbl in args.bases.split(",")]
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
    if args.out:  # first, so that a path that cannot be written stops before any output
        lines = _config_comment(vars(args))
        lines.append("basis,state,F_AB,F_AE")
        for lbl in report.basis_labels:
            for i, (fab, fae) in enumerate(
                zip(report.per_state_ab[lbl], report.per_state_ae[lbl])
            ):
                lines.append(f"{lbl},{i},{_fmt(fab)},{_fmt(fae)}")
        _write_lines(args.out, lines)
    _print_json(payload)
    return 0


# ---------------------------------------------------------------------------
# validate


class Check:
    """One validation check: its largest deviation against its tolerance."""

    __slots__ = ("name", "deviation", "tolerance")

    def __init__(self, name: str, deviation: float, tolerance: float) -> None:
        self.name = name
        self.deviation = deviation
        self.tolerance = tolerance

    @property
    def passed(self) -> bool:
        # false for a NaN deviation, which compares false with everything
        return self.deviation <= self.tolerance


def _gaussians(rng: random.Random, shape) -> np.ndarray:
    """Standard complex Gaussians (real and imaginary parts N(0, 1)), built in
    place from uniforms u, v as sqrt(-2 log(1 - u)) exp(2 pi i v)."""
    u, v = simcore._uniforms(rng, (2, *shape))
    np.sqrt(np.multiply(np.log1p(np.negative(u, out=u), out=u), -2, out=u), out=u)
    z = np.empty(shape, complex)
    np.cos(np.multiply(v, 2 * math.pi, out=v), out=z.real)
    np.sin(v, out=z.imag)
    return np.multiply(z, u, out=z)


def _dirichlet(rng: random.Random, count: int) -> np.ndarray:
    """(count, 4) Dirichlet(1, 1, 1, 1) rows: -log(1 - u) of uniforms over their sum."""
    e = -np.log1p(-simcore._uniforms(rng, (count, 4)))
    return e / e.sum(axis=1, keepdims=True)


def _random_programs(rng, count: int, n: int, complex_share: float = 0.0) -> np.ndarray:
    """Unit program columns (4^n, count): complex Gaussian amplitudes, real in a
    column with probability 1 - ``complex_share``."""
    v = _gaussians(rng, (4**n, count))
    v.imag *= simcore._uniforms(rng, count) < complex_share
    return v / np.linalg.norm(v, axis=0)


def _max_abs(a, b) -> float:
    """Largest |a - b| over matching entries; a NaN entry makes it NaN."""
    return float(np.max(np.abs(np.subtract(a, b))))


def _prep_circuit_deviation() -> float:
    """How far each MUB preparation circuit, run on |k>, is from basis state k
    up to a global phase: each basis's circuit runs once, gate by gate, on the
    stack of all four |k>."""
    devs = []
    for idx, basis in enumerate(mubs_for(2).bases):
        got = np.eye(4, dtype=complex)
        for op in mub.mub_prep_circuit(idx).ops:  # one gate broadcast over the stack
            got = simcore.apply_gates(got, op.matrix()[None], [op.qubits])
        ref = np.array([st.amplitudes for st in basis.states])
        phases = np.sum(ref.conj() * got, axis=1)
        devs += [np.abs(np.abs(phases) - 1.0), np.abs(got - phases[:, None] * ref).ravel()]
    return float(np.max(np.concatenate(devs)))


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


def _engine_columns(kind: ClonerKind, n: int, columns: np.ndarray, channel=None):
    """Engine fidelities per receiver, each (MUB state, program), of program
    columns (4^n, P) from one ``fidelity_columns`` call."""
    rows = np.array([st.amplitudes for b in mubs_for(n).bases for st in b.states])
    return fidelity_columns(kind, n, columns, rows, channel)


def _closed_form_check(rng, count: int, kind: ClonerKind, n: int) -> float:
    """Random real and complex programs' per-state fidelities, closed form
    against engine: one array per receiver, each NG basis value broadcast
    over its states, the differences taken in place."""
    columns = _random_programs(rng, count, n, 0.3)
    bases = mubs_for(n).bases
    # ordered for the lower peak: NG's closed form keeps one value a basis
    # while the engine runs; the QID closed form peaks below the engine
    if kind == ClonerKind.QID:
        got = _engine_columns(kind, n, columns)
        want = analytic.qid_fidelity_columns(columns)
    else:
        want = [f[:, None] for f in analytic.ng_closed_form(columns, bases)]
        got = [f.reshape(len(bases), -1, count) for f in _engine_columns(kind, n, columns)]
    devs = [np.max(np.abs(np.subtract(g, w, out=g), out=g)) for g, w in zip(got, want)]
    return float(np.max(devs))  # a NaN anywhere stays


_CERTAIN_ERRORS = tuple(PauliChannel.from_xyz(*row) for row in np.eye(3))  # X, Y, Z


def _noisy_transform_check(rng, count: int) -> float:
    """Noise transform of clean fidelities against the engine under each drawn
    channel.  A fidelity is linear in the channel, p_I F_I + p_X F_X + p_Y F_Y +
    p_Z F_Z with F_P the value under a certain error P and F_I the clean one, so
    four engine calls per kind, each on all of its programs, serve every draw."""
    is_ng = simcore._uniforms(rng, count) < 0.5
    columns = _random_programs(rng, count, 1)
    probs = _dirichlet(rng, count)[:, :3] * (0.2 + 0.8 * simcore._uniforms(rng, (count, 1)))
    weights = np.column_stack([1.0 - probs.sum(axis=1), probs])
    bases = mubs_for(1).bases
    # per-basis means, axes (error I X Y Z, receiver, basis, draw)
    f = np.empty((4, 2, len(bases), count))
    for kind, sel in ((ClonerKind.NG, is_ng), (ClonerKind.QID, ~is_ng)):
        for e, channel in enumerate((None, *_CERTAIN_ERRORS)):
            for r, v in enumerate(_engine_columns(kind, 1, columns[:, sel], channel)):
                f[e, r][..., sel] = v.reshape(len(bases), -1, v.shape[-1]).mean(axis=1)
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
    sizes = 1 + (2 * simcore._uniforms(rng, count)).astype(int)
    devs = []
    for n in (1, 2):
        if np.any(sizes == n):
            columns = _random_programs(rng, np.count_nonzero(sizes == n), n)
            mats = bob_pauli_transfer_matrices(ClonerKind.NG, n, columns)
            devs.append(_max_abs(mats, mats * np.eye(4**n)))
    return float(np.max(devs))


def _random_circuits(rng, count: int) -> tuple[np.ndarray, ...]:
    """Random n-qubit circuits, n uniform in {2, 3, 4}, and unit complex-Gaussian
    inputs, drawn in six array calls.  Each of 12 slots holds a gate uniform over
    GATE_NAMES, or nothing when it needs more than n qubits; its qubits are
    distinct, uniform and in random order (argsort of uniform keys, qubits >= n
    keyed 1 higher), its angle uniform in [-pi, pi), a CRY's control in {0, 1}.
    Returns sizes, the slots' gate indices, angles, controls and qubit orders (a
    gate's qubits first), and the inputs (C, 16), zero past 2^n."""
    sizes = 2 + (3 * simcore._uniforms(rng, count)).astype(int)
    gates = (len(simcore.GATE_NAMES) * simcore._uniforms(rng, (count, 12))).astype(int)
    keys = simcore._uniforms(rng, (count, 12, 4))
    orders = np.argsort(keys + (np.arange(4) >= sizes[:, None, None]))
    angles = -math.pi + 2 * math.pi * simcore._uniforms(rng, gates.shape)
    controls = (2 * simcore._uniforms(rng, gates.shape)).astype(int)
    controls |= gates != simcore.GATE_NAMES.index("CRY")
    v = np.where(np.arange(16) < 2 ** sizes[:, None], _gaussians(rng, (count, 16)), 0)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return sizes, gates, angles, controls, orders, v


def _run_slot(psi, gates, controls, qubits, arities, angles, repeats) -> None:
    """One slot of a stack of circuits, in place: each circuit's gate (arity 0 for
    none), ``repeats`` times, with one gate_matrices and apply_gates call per arity."""
    for arity in set(arities.tolist()) - {0}:
        here = np.flatnonzero(arities == arity)
        m = simcore.gate_matrices(gates[here], angles[here], controls[here])
        q, times = qubits[here, :arity], repeats[here]
        psi[here] = simcore.apply_gates(psi[here], m, q)
        for time in range(1, times.max()):
            now = times > time
            psi[here[now]] = simcore.apply_gates(psi[here[now]], m[now], q[now])


def _unitarity_check(rng, count: int) -> float:
    """Random circuits, run on bare amplitudes, keep norms; their inverses undo them.
    All circuits run as one 4-qubit stack, slot by slot: an n-qubit register sits
    on the low qubits 4 - n .. 3, whose states are the inputs' first 2^n entries.
    The inverse pass repeats each slot's inverse gates as gate_inverses says."""
    sizes, gates, angles, controls, orders, inputs = _random_circuits(rng, count)
    repeats, inverse_angles = simcore.gate_inverses(gates, angles)
    arities = np.array([simcore.GATE_ARITY[g] for g in simcore.GATE_NAMES])[gates]
    arities[arities > sizes[:, None]] = 0  # the slot holds no gate
    qubits = orders + (4 - sizes)[:, None, None]
    columns = (gates, controls, qubits, arities, angles, inverse_angles, repeats)
    g, c, q, k, a, b, r = (x.swapaxes(0, 1) for x in columns)  # slot-major
    out = inputs.copy()
    for slot in range(12):
        _run_slot(out, g[slot], c[slot], q[slot], k[slot], a[slot], np.ones_like(r[slot]))
    back = out.copy()
    for slot in range(11, -1, -1):
        _run_slot(back, g[slot], c[slot], q[slot], k[slot], b[slot], r[slot])
    # norm() of a 1-D complex vector is two BLAS dots, which axis=1 does not use
    norms = [abs(float(np.linalg.norm(x)) - 1.0) for x in out]
    return float(np.max(np.concatenate([norms, np.abs(back - inputs).ravel()])))


# run_validation's tracemalloc peak, in a process that has already compiled the
# cloners, is 1.3 MiB at 1000 trials and 4.7 MiB at 5000 (0.95 KiB a trial), and
# `validate --trials 5000` peaks at 37.0 MiB RSS; the cap also bounds run time
MAX_TRIALS = 100_000


def run_validation(trials: int = 200, seed: int = 0) -> list[Check]:
    """All closed-form-versus-simulation oracles and structure checks.

    One stdlib stream, ``random.Random(seed)``, feeds the randomized checks in the
    order listed (closed-form programs per family, noise draws, transfer programs,
    circuits); each draws all its randomness first, in ``simcore._uniforms`` calls.
    Each check stacks its programs as columns (4^n, P), as bare vectors, and
    compares one closed-form call per family with one engine call per family and
    register size; the noise oracle makes four per kind, one clean and one per
    certain Pauli error, at any number of draws.  The gate-level checks run
    stacks too: every random circuit in one 4-qubit stack, and each MUB
    preparation circuit once on the stack of its four basis states.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be from 1 to {MAX_TRIALS}, got {trials}")
    rng = random.Random(seed)
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
            checks.append(Check(f"analytic-vs-sim-{kind.value}-{n}q", dev, 1e-12))
    dev = _noisy_transform_check(rng, max(trials, 200))
    checks.append(Check("noisy-transform-oracle", dev, 1e-10))
    dev = _transfer_check(rng, 100)
    checks.append(Check("pauli-transfer-diagonal", dev, 1e-10))
    checks.append(Check("eve-pair-partition", 0.0 if _pairs_partition() else 1.0, 0.0))
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
# sweep


MAX_F_TARGETS = 1000


def _parse_f_range(spec: str) -> list[float]:
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ValueError(f"malformed f range {spec!r}, expected start:stop:step") from None
    # NaN fails these comparisons
    if not (0.0 <= start <= stop <= 1.0 and 0.0 < step < math.inf):
        raise ValueError(
            f"bad --f range {spec!r}: need 0 <= start <= stop <= 1 and a finite step > 0"
        )
    # the steps past start, counted before any list is built: a float, which may
    # be huge (or inf for a subnormal step)
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_F_TARGETS:
        raise ValueError(f"--f range {spec!r} asks for more than {MAX_F_TARGETS} targets")
    return [round(start + i * step, 10) for i in range(math.floor(steps) + 1)]


def _config_comment(config: dict) -> list[str]:
    import json

    cleaned = {
        k: v
        for k, v in sorted(config.items())
        if k != "func" and not k.startswith("_") and v is not None
    }
    return [f"# {json.dumps(cleaned, default=str)}"]


def _write_lines(path: str, lines: list[str]) -> None:
    """Write the lines to ``path``; a path that cannot be written is a usage error."""
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


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


def cmd_sweep(args) -> int:
    f_values = _parse_f_range(args.f) if args.f else None
    channel = _channel_from_args(args, optimize.task_num_clone_qubits(args.task))
    default = optimize.default_task_config(args.task)
    cfg = optimize.OptimizerConfig(
        default.steps if args.steps is None else args.steps,
        default.restarts if args.restarts is None else args.restarts,
        default.seed if args.seed is None else args.seed,
    )
    result = optimize.frontier_sweep(args.task, f_values=f_values, cfg=cfg, channel=channel)
    lines = _sweep_csv_lines(result, vars(args))
    if args.out:
        _write_lines(args.out, lines)
        print(f"wrote {len(result.rows)} rows to {args.out}")
    else:
        print("\n".join(lines))
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

    p = sub.add_parser("sweep", help="frontier sweep over Bob-fidelity targets")
    p.add_argument("--task", choices=list(optimize.TASKS), required=True)
    p.add_argument("--noise", help="channel spec, e.g. 'X=0.25' or 'YI=0.45'")
    p.add_argument("--f", help="target range start:stop:step (default per task)")
    # seed, steps and restarts drive the Adam series only
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--out", help="CSV output path (default: print)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mubs", help="print the mutually unbiased bases")
    p.add_argument("--n", type=int, choices=[1, 2], required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_mubs)

    p = sub.add_parser("table", help="error/basis table or commuting classes")
    p.add_argument("--n", type=int, choices=[1, 2, 3], required=True)
    p.set_defaults(func=cmd_table)

    return parser


EXIT_CLOSED_PIPE = 141


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # as the signal module's docs advise: later writes, the flush at exit
        # too, go to devnull, and no traceback is printed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
