"""Program-state optimization: Adam with adjoint gradients, grid search
over single-qubit programs, and the frontier sweeps of the standard
eavesdropping tasks.

Every clone fidelity is a quadratic form psi^dag M psi in the injected
program amplitudes, because the output state is linear in the program and
the fidelity quadratic in the output.  The sweep machinery builds the
Hermitian matrices M once per (cloner, channel, basis set) from the compiled
cloner's output tensor (one column per program basis vector) and then
evaluates programs and their gradients from M alone, which keeps the
two-qubit optimization runs fast.  Gate-by-gate simulation remains the
reference path; the forms are checked against it in the tests.

The two layered rotation ansaetze (program-prep and b92) get exact
gradients from one adjoint sweep: a forward pass that keeps the state
entering each rotation block, then one backward pass of the loss's adjoint
vector through the inverse circuit (``layered_pass``).  The bare-angle
program ansatz uses the parameter-shift rule, and the parameter-shift
derivatives of the program-prep ansatz remain as the reference the adjoint
gradient is tested against.  A central finite-difference fallback is
available wherever no gradient is supplied.

Every sweep row is read from what Adam optimized: program rows from the
quadratic forms, b92 rows (per input too) from the adjoint forward pass.
Gate-by-gate simulation (``b92_per_state_fidelities`` and the cloner
circuits) is the oracle the tests compare against, not a production path.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import QualityWeights, uqcm_program_ng
from .cloner import (
    ClonerKind,
    FidelityReport,
    NgAngles,
    SoftwareState,
    clone_fidelities,
    cloner_outputs,
    mix_branches,
    ng_angles_to_program,
    resolve_bases,
    state_rows,
)
from .mub import mubs_for
from .noise import PauliChannel, noisy_fidelity_1q
from .simcore import Circuit, GateOp, rotation_blocks

logger = logging.getLogger("paulicloner")

ANSATZ_PARAM_COUNTS = {"b92": 18, "program-prep": 60, "ng-angles": 3}


@dataclass(frozen=True)
class AnsatzSpec:
    """A trainable circuit family plus its current parameter vector."""

    kind: str
    parameters: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ANSATZ_PARAM_COUNTS:
            raise ValueError(f"unknown ansatz kind {self.kind!r}")
        params = np.asarray(self.parameters, dtype=float).reshape(-1)
        if params.size != ANSATZ_PARAM_COUNTS[self.kind]:
            raise ValueError(
                f"{self.kind} takes {ANSATZ_PARAM_COUNTS[self.kind]} parameters, "
                f"got {params.size}"
            )
        params.flags.writeable = False
        object.__setattr__(self, "parameters", params)

    @property
    def num_params(self) -> int:
        return ANSATZ_PARAM_COUNTS[self.kind]

    @classmethod
    def zeros(cls, kind: str) -> "AnsatzSpec":
        return cls(kind, np.zeros(ANSATZ_PARAM_COUNTS[kind]))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.1
    steps: int = 100
    restarts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be at least 1")


def loss(f_ab: float, f_ae: float, f_target: float) -> float:
    """10 (F_AB - f)^2 - F_AE: pins Bob's fidelity, maximizes Eve's."""
    return 10.0 * (f_ab - f_target) ** 2 - f_ae


def quality(weights: QualityWeights, report: FidelityReport, party: str) -> float:
    """Weighted sum of per-basis fidelities for one receiver."""
    values = {"bob": report.f_ab, "eve": report.f_ae}[party.lower()]
    total = 0.0
    for basis in values:
        if basis not in weights.weights:
            raise ValueError(f"no weight given for basis {basis}")
        total += weights.weights[basis] * values[basis]
    return total


def b92_ansatz_circuit(parameters: np.ndarray) -> Circuit:
    """Three blocks of per-qubit RX, RY, RZ followed by CNOT 0 -> 1."""
    p = np.asarray(parameters, dtype=float).reshape(3, 2, 3)
    ops: list[GateOp] = []
    for block in range(3):
        for q in (0, 1):
            for g, name in enumerate(("RX", "RY", "RZ")):
                ops.append(GateOp(name, (q,), p[block, q, g]))
        ops.append(GateOp("CNOT", (0, 1)))
    return Circuit(2, tuple(ops))


def program_prep_circuit(parameters: np.ndarray) -> Circuit:
    """Five layers of per-qubit RX, RY, RZ plus a CNOT ring on 4 qubits."""
    p = np.asarray(parameters, dtype=float).reshape(5, 4, 3)
    ops: list[GateOp] = []
    for layer in range(5):
        for q in range(4):
            for g, name in enumerate(("RX", "RY", "RZ")):
                ops.append(GateOp(name, (q,), p[layer, q, g]))
        for q in range(4):
            ops.append(GateOp("CNOT", (q, (q + 1) % 4)))
    return Circuit(4, tuple(ops))


def _cnot_index_perm(num_qubits: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(2**num_qubits)
    cbit = (idx >> (num_qubits - 1 - control)) & 1
    return np.where(cbit == 1, idx ^ (1 << (num_qubits - 1 - target)), idx)


def _compose_perms(perms) -> np.ndarray:
    """One gather index equivalent to applying ``psi = psi[p]`` for each p in turn."""
    out = perms[0]
    for p in perms[1:]:
        out = out[p]
    return out


_PREP_RING_PERM = _compose_perms(
    [_cnot_index_perm(4, q, (q + 1) % 4) for q in range(4)]
)
_B92_CNOT_PERM = _cnot_index_perm(2, 0, 1)
_PREP_INPUTS = np.eye(1, 16, dtype=complex)
_B92_INPUTS = np.array([[1.0, 0.0], [1.0, 1.0] / np.sqrt(2)], dtype=complex)
_B92_LABELS = ("0", "+")  # the inputs' labels in b92_per_state_fidelities
_B92_STATES = np.kron(_B92_INPUTS, [[1.0, 0.0]])  # row k: input k (x) |0>


def layered_pass(
    parameters: np.ndarray, inputs: np.ndarray, entangler: np.ndarray, adjoint=None
):
    """Run a layered rotation ansatz forward, and backward when ``adjoint`` is given.

    Each of the L layers applies RZ RY RX to every qubit, in qubit order,
    then the index permutation ``entangler`` (``psi = psi[entangler]``).
    ``parameters`` has shape (L, n, 3) and ``inputs`` is a (K, 2^n) batch.

    Without ``adjoint`` this returns the final states.  Otherwise
    ``adjoint(final)`` must return ``(value, lam)`` with ``lam`` the
    derivative of the real loss ``value`` in the conjugate final states; the
    result is ``(value, gradient)``, the gradient flat in parameter order.
    Each gradient entry is ``2 Re <lam_after| dU |pre>`` for the block's
    derivative ``dU``, with ``lam`` run back through the inverse layers.
    """
    num_layers, n, _ = parameters.shape
    k = len(inputs)
    # block (layer, q) acts on axis 2 of the states reshaped to shapes[q]
    shapes = [(k, 2**q, 2, 2 ** (n - 1 - q)) for q in range(n)]
    u, du = rotation_blocks(parameters)
    psi = inputs
    pre = np.empty((num_layers, n) + inputs.shape, dtype=complex)
    for layer in range(num_layers):
        for q in range(n):
            pre[layer, q] = psi
            t = psi.reshape(shapes[q])
            psi = np.einsum("ab,kibj->kiaj", u[layer, q], t).reshape(k, -1)
        psi = psi[:, entangler]
    if adjoint is None:
        return psi
    value, lam = adjoint(psi)
    # mu = conj(lam) runs back through the transposed blocks, which spares
    # a conjugation per block
    mu = lam.conj()
    inverse = np.argsort(entangler)
    overlaps = np.empty((num_layers, n, 2, 2), dtype=complex)
    for layer in reversed(range(num_layers)):
        mu = mu[:, inverse]
        for q in reversed(range(n)):
            t = mu.reshape(shapes[q])
            pre_q = pre[layer, q].reshape(shapes[q])
            overlaps[layer, q] = np.einsum("kiaj,kibj->ab", t, pre_q)
            mu = np.einsum("ba,kibj->kiaj", u[layer, q], t).reshape(k, -1)
    grad = 2.0 * np.einsum("lqgab,lqab->lqg", du, overlaps).real
    return value, grad.reshape(-1)


def program_prep_state(parameters: np.ndarray) -> np.ndarray:
    """State prepared by the layered ansatz on |0000>, without circuit objects.

    Matches simulating program_prep_circuit; the circuit builder remains the
    reference and the equivalence is covered by tests.
    """
    p = np.asarray(parameters, dtype=float).reshape(5, 4, 3)
    return layered_pass(p, _PREP_INPUTS, _PREP_RING_PERM)[0]


def ng_angles_state(parameters: np.ndarray) -> np.ndarray:
    rho, phi, theta = parameters
    return ng_angles_to_program(NgAngles(rho, phi, theta)).amplitudes.copy()


_PROGRAM_STATE_FNS = {"program-prep": program_prep_state, "ng-angles": ng_angles_state}
# amplitudes are trig in theta/2 for rotation-gate circuits, in theta for the
# bare-angle program parameterization
_PROGRAM_STATE_FREQ = {"program-prep": 0.5, "ng-angles": 1.0}


def evaluate_ansatz(spec: AnsatzSpec):
    """The b92 ansatz yields a Circuit; the program ansaetze a SoftwareState."""
    if spec.kind == "b92":
        return b92_ansatz_circuit(spec.parameters)
    return SoftwareState(_PROGRAM_STATE_FNS[spec.kind](spec.parameters))


def shift_gradient_states(
    state_fn, parameters: np.ndarray, frequency: float = 0.5
) -> list[np.ndarray]:
    """d psi / d theta_k via the parameter-shift rule, one vector per parameter.

    ``frequency`` is the trigonometric frequency of the amplitudes in each
    parameter: 1/2 for rotation gates exp(-i theta G / 2), 1 for bare-angle
    parameterizations.  The rule evaluates at theta +- pi/(2 frequency) and
    is exact for such states.
    """
    shift = math.pi / (2.0 * frequency)
    grads = []
    for k in range(parameters.size):
        shifted = parameters.copy()
        shifted[k] += shift
        plus = state_fn(shifted)
        shifted[k] -= 2 * shift
        minus = state_fn(shifted)
        grads.append(0.5 * frequency * (plus - minus))
    return grads


def program_prep_state_and_shift_grads(parameters: np.ndarray):
    """State of the program-prep ansatz and its 60 parameter-shift derivatives
    d psi / d theta_k: the reference the adjoint gradient is tested against."""
    p = np.asarray(parameters, dtype=float).reshape(-1)
    return program_prep_state(p), shift_gradient_states(program_prep_state, p, 0.5)


def central_difference(fn, parameters: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.empty(parameters.size)
    for k in range(parameters.size):
        shifted = parameters.copy()
        shifted[k] += h
        fp = fn(shifted)
        shifted[k] -= 2 * h
        fm = fn(shifted)
        grad[k] = (fp - fm) / (2 * h)
    return grad


def adam_optimize(objective, spec: AnsatzSpec, cfg: OptimizerConfig, grad=None):
    """Minimize ``objective`` over the ansatz parameters with Adam.

    Restart 0 starts from ``spec.parameters``; further restarts draw uniform
    random angles from per-restart streams derived from ``cfg.seed``.  The
    best parameters seen anywhere (across steps and restarts) are returned
    together with the loss trace of the winning restart.  Falls back to
    central finite differences when no gradient is supplied.
    """
    if grad is None:
        grad = lambda p: central_difference(objective, p)
    best_loss, best_params, best_trace = math.inf, None, None
    for restart in range(cfg.restarts):
        if restart == 0:
            params = spec.parameters.copy()
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,))
            )
            params = rng.uniform(-math.pi, math.pi, spec.num_params)
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        trace = [float(objective(params))]
        if not math.isfinite(trace[0]):
            raise RuntimeError("objective is not finite at the initial point")
        restart_best = (trace[0], params.copy())
        for t in range(1, cfg.steps + 1):
            g = grad(params)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1**t)
            v_hat = v / (1 - ADAM_BETA2**t)
            params = params - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            val = float(objective(params))
            if not math.isfinite(val):
                raise RuntimeError(f"objective diverged at step {t} of restart {restart}")
            trace.append(val)
            if val < restart_best[0]:
                restart_best = (val, params.copy())
        if restart_best[0] < best_loss:
            best_loss, best_params = restart_best
            best_trace = trace
    return best_params, best_trace


# ---------------------------------------------------------------------------
# quadratic forms: F = psi^dag M psi in the program amplitudes


def fidelity_quadratic_forms(
    kind: ClonerKind,
    num_clone_qubits: int,
    bases,
    channel: PauliChannel | None = None,
) -> dict:
    """Hermitian matrices M[label][state] with F = psi^dag M psi, per receiver.

    Returns {"ab": {label: array(num_states, d^2, d^2)}, "ae": {...}}.
    """
    n = num_clone_qubits
    bases = resolve_bases(n, bases)
    states = state_rows(n, [st for b in bases for st in b.states])
    out, weights = cloner_outputs(kind, n, np.eye(4**n), states, channel)
    # u[k, s, j, env]: overlap of the receiver's register with reference
    # state s for program basis vector j, the other registers as environment
    ref = states.conj()
    u_ab = np.einsum("sa,aecjks->ksjec", ref, out)
    u_ae = np.einsum("se,aecjks->ksjac", ref, out)
    shape = (len(weights), len(states), 4**n, -1)
    u_ab, u_ae = u_ab.reshape(shape), u_ae.reshape(shape)
    mats_ab = mix_branches((u_ab @ np.swapaxes(u_ab, 2, 3).conj()).conj(), weights)
    mats_ae = mix_branches((u_ae @ np.swapaxes(u_ae, 2, 3).conj()).conj(), weights)
    cuts = np.cumsum([len(b.states) for b in bases])[:-1]
    return {
        "ab": {b.label: m for b, m in zip(bases, np.split(mats_ab, cuts))},
        "ae": {b.label: m for b, m in zip(bases, np.split(mats_ae, cuts))},
    }


def forms_mean_matrices(forms: dict) -> tuple[np.ndarray, np.ndarray]:
    """Average the per-state matrices into one matrix per receiver."""
    ab = np.mean([m for mats in forms["ab"].values() for m in mats], axis=0)
    ae = np.mean([m for mats in forms["ae"].values() for m in mats], axis=0)
    return ab, ae


def quadratic_fidelity(m: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(psi.conj() @ m @ psi))


def report_from_forms(forms: dict, psi: np.ndarray) -> FidelityReport:
    per_ab = {
        lbl: tuple(quadratic_fidelity(m, psi) for m in mats)
        for lbl, mats in forms["ab"].items()
    }
    per_ae = {
        lbl: tuple(quadratic_fidelity(m, psi) for m in mats)
        for lbl, mats in forms["ae"].items()
    }
    return FidelityReport.from_per_state(per_ab, per_ae)


def program_prep_loss_and_grad(
    forms_stack: np.ndarray, f_target: float, params: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss of the program-prep ansatz and its gradient from one adjoint sweep.

    ``forms_stack`` holds the mean forms (M_ab, M_ae); the adjoint vector is
    lam = (20 (F_AB - f) M_ab - M_ae) psi.
    """

    def adjoint(final: np.ndarray):
        m_psi = np.einsum("rab,kb->rka", forms_stack, final)
        f_ab, f_ae = np.einsum("ka,rka->r", final.conj(), m_psi).real
        lam = 20.0 * (f_ab - f_target) * m_psi[0] - m_psi[1]
        return loss(f_ab, f_ae, f_target), lam

    p = np.asarray(params, dtype=float).reshape(5, 4, 3)
    return layered_pass(p, _PREP_INPUTS, _PREP_RING_PERM, adjoint)


def make_program_loss(forms: dict, f_target: float, ansatz_kind: str):
    """Loss and exact gradient for a program-producing ansatz on fixed forms.

    The layered program-prep ansatz gets its gradient from one adjoint
    sweep; the bare-angle ansatz from the parameter-shift rule.
    """
    m_ab, m_ae = forms_mean_matrices(forms)
    state_fn = _PROGRAM_STATE_FNS[ansatz_kind]

    def objective(params: np.ndarray) -> float:
        psi = state_fn(params)
        return loss(quadratic_fidelity(m_ab, psi), quadratic_fidelity(m_ae, psi), f_target)

    if ansatz_kind == "program-prep":
        forms_stack = np.stack([m_ab, m_ae])

        def adjoint_gradient(params: np.ndarray) -> np.ndarray:
            return program_prep_loss_and_grad(forms_stack, f_target, params)[1]

        return objective, adjoint_gradient

    def gradient(params: np.ndarray) -> np.ndarray:
        psi = state_fn(params)
        dpsi = shift_gradient_states(state_fn, params, _PROGRAM_STATE_FREQ[ansatz_kind])
        f_ab = quadratic_fidelity(m_ab, psi)
        lhs_ab = psi.conj() @ m_ab
        lhs_ae = psi.conj() @ m_ae
        g = np.empty(params.size)
        for k, dp in enumerate(dpsi):
            d_ab = 2.0 * np.real(lhs_ab @ dp)
            d_ae = 2.0 * np.real(lhs_ae @ dp)
            g[k] = 20.0 * (f_ab - f_target) * d_ab - d_ae
        return g

    return objective, gradient


def _b92_pass(parameters: np.ndarray, adjoint=None):
    """The b92 ansatz on both inputs |0>|0> and |+>|0>: three layers, CNOT 0 -> 1."""
    p = np.asarray(parameters, dtype=float).reshape(3, 2, 3)
    return layered_pass(p, _B92_STATES, _B92_CNOT_PERM, adjoint)


def _b92_fidelities(final: np.ndarray):
    """Each input's F_AB and F_AE (arrays over the inputs) and Bob/Eve overlaps.

    Bob clones input k well when the first qubit of final state k stays in
    it, Eve when the second qubit does: F = psi^dag (P_k x I) psi and
    psi^dag (I x P_k) psi with P_k the projector on input k.
    """
    m = final.reshape(2, 2, 2)
    bob = np.einsum("ka,kaj->kj", _B92_INPUTS.conj(), m)
    eve = np.einsum("kb,kib->ki", _B92_INPUTS.conj(), m)
    f_ab = np.einsum("kj,kj->k", bob.conj(), bob).real
    f_ae = np.einsum("ki,ki->k", eve.conj(), eve).real
    return f_ab, f_ae, bob, eve


def b92_qml_fidelities(parameters: np.ndarray) -> tuple[float, float]:
    """Average (F_AB, F_AE) of the ansatz over |0> and |+>, fast path."""
    f_ab, f_ae, _, _ = _b92_fidelities(_b92_pass(parameters))
    return float(np.mean(f_ab)), float(np.mean(f_ae))


def b92_loss_and_grad(f_target: float, params: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss of the 18-parameter b92 ansatz and its gradient from one adjoint sweep."""

    def adjoint(final: np.ndarray):
        per_ab, per_ae, bob, eve = _b92_fidelities(final)
        f_ab, f_ae = float(np.mean(per_ab)), float(np.mean(per_ae))
        # d F / d conj(psi_k), halved for the mean over the two inputs
        d_ab = 0.5 * np.einsum("ka,kj->kaj", _B92_INPUTS, bob).reshape(2, 4)
        d_ae = 0.5 * np.einsum("kb,ki->kib", _B92_INPUTS, eve).reshape(2, 4)
        return loss(f_ab, f_ae, f_target), 20.0 * (f_ab - f_target) * d_ab - d_ae

    return _b92_pass(params, adjoint)


def make_b92_loss(f_target: float):
    """Loss and adjoint gradient for the 18-parameter b92 ansatz."""

    def objective(params: np.ndarray) -> float:
        f_ab, f_ae = b92_qml_fidelities(params)
        return loss(f_ab, f_ae, f_target)

    def gradient(params: np.ndarray) -> np.ndarray:
        return b92_loss_and_grad(f_target, params)[1]

    return objective, gradient


# ---------------------------------------------------------------------------
# grid search over single-qubit programs


def _angle_grid(resolution: int):
    rhos = np.linspace(0.0, math.pi / 2, resolution)
    full = np.linspace(0.0, 2 * math.pi, 2 * resolution, endpoint=False)
    return rhos, full


def grid_search_software(
    family: ClonerKind, resolution: int, objective, num_clone_qubits: int = 1
) -> SoftwareState:
    """Best single-qubit program over a uniform angular grid of the 3-sphere.

    The sphere is covered by rho in [0, pi/2] against full circles in theta
    and phi, which reaches every real sign pattern.  The grid itself does not
    depend on the cloner family; ``objective`` decides what is evaluated.
    Ties keep the earliest grid point in (rho, phi, theta) iteration order.
    """
    if num_clone_qubits != 1:
        raise ValueError("grid search covers single-qubit programs only")
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    rhos, full = _angle_grid(resolution)
    best_val, best_state = -math.inf, None
    for rho in rhos:
        for phi in full:
            for theta in full:
                state = ng_angles_to_program(NgAngles(rho, phi, theta))
                val = float(objective(state))
                if val > best_val:
                    best_val, best_state = val, state
    return best_state


def _b92_cloud_slice(family: ClonerKind, rho: float, full: np.ndarray):
    p, t = np.meshgrid(full, full, indexing="ij")
    a = np.cos(t) * math.cos(rho)
    b = np.cos(p) * math.sin(rho)
    c = np.sin(t) * math.cos(rho)
    d = np.sin(p) * math.sin(rho)
    if family == ClonerKind.NG:
        f_ab = ((a**2 + c**2) + (a**2 + b**2)) / 2
        f_ae = (0.5 + a * c + b * d + 0.5 + a * b + c * d) / 2
    else:
        f_ab = ((a**2 + d**2) + (a * d + b * c + 0.5)) / 2
        f_ae = ((a**2 + b**2) + (a * b + c * d + 0.5)) / 2
    return f_ab.ravel(), f_ae.ravel()


def grid_frontier_b92(
    family: ClonerKind, f_values, resolution: int = 128
) -> list[tuple[float, float]]:
    """Grid-search frontier values at the requested Bob fidelities.

    The (F_AB, F_AE) cloud over the angle grid is Pareto-filtered and the
    frontier polyline evaluated at each target; reading a hard threshold off
    the raw cloud instead would be noisier where the grid slices the
    frontier ridge coarsely.  Grid error shrinks with the squared spacing.
    """
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    f_values = list(f_values)
    rhos, full = _angle_grid(resolution)
    pareto: list[tuple[float, float]] = []
    for rho in rhos:  # one slice at a time keeps the working set small
        f_ab, f_ae = _b92_cloud_slice(family, float(rho), full)
        order = np.argsort(f_ab)[::-1]
        f_ab, f_ae = f_ab[order], f_ae[order]
        cummax = np.maximum.accumulate(f_ae)
        keep = np.ones(f_ab.size, dtype=bool)
        keep[1:] = f_ae[1:] >= cummax[:-1]
        pareto = pareto_filter(pareto + list(zip(f_ab[keep], f_ae[keep])))
    xs = np.array([p[0] for p in pareto])
    ys = np.array([p[1] for p in pareto])
    out = []
    for f in f_values:
        if f > xs[-1] + 1e-9:
            raise ValueError(f"target {f} beyond the reachable Bob fidelity")
        out.append((float(f), float(np.interp(f, xs, ys))))
    return out


# ---------------------------------------------------------------------------
# reference curves


def pccm_reference_eve(f_ab_avg: float, channel: PauliChannel | None) -> float:
    """Noisy Eve average of the phase-covariant cloner (Z/X bases) whose noisy
    Bob average equals ``f_ab_avg``."""
    p = _xyz_probs(channel)
    q_z, q_x = p["X"] + p["Y"], p["Y"] + p["Z"]
    t = (2 * f_ab_avg - q_z - q_x) / (2 - 2 * q_z - 2 * q_x)
    if not -1e-12 <= t - 0.5 <= 0.5 + 1e-12:
        raise ValueError(f"no Bob-favoring phase-covariant cloner reaches {f_ab_avg}")
    t = min(max(t, 0.5), 1.0)
    eve = 0.5 + math.sqrt(t * (1.0 - t))
    return (
        noisy_fidelity_1q(eve, "Z", p["X"], p["Y"], p["Z"])
        + noisy_fidelity_1q(eve, "X", p["X"], p["Y"], p["Z"])
    ) / 2


UQCM_CURVE_POINTS = 4001


def uqcm_reference_curve(channel: PauliChannel | None):
    """(noisy Bob avg, noisy Eve avg) along the asymmetric universal family,
    at UQCM_CURVE_POINTS angles theta in [0, pi/2]."""
    p = _xyz_probs(channel)
    theta = np.linspace(0.0, math.pi / 2, UQCM_CURVE_POINTS)
    # the program of table1_angles("uqcm", theta=theta), as amplitude arrays
    rho = np.arctan(math.sqrt(2) * np.sin(theta))
    a = np.cos(theta) * np.cos(rho)
    b = math.cos(math.pi / 4) * np.sin(rho)
    c = np.sin(theta) * np.cos(rho)
    d = math.sin(math.pi / 4) * np.sin(rho)
    return tuple(
        sum(noisy_fidelity_1q(f, bl, p["X"], p["Y"], p["Z"]) for bl in "ZXY") / 3
        for f in (a**2 + c**2, 0.5 + a * c + b * d)
    )


def _xyz_probs(channel: PauliChannel | None) -> dict:
    if channel is None:
        return {"X": 0.0, "Y": 0.0, "Z": 0.0}
    if channel.num_qubits != 1:
        raise ValueError("expected a single-qubit channel")
    out = {"X": 0.0, "Y": 0.0, "Z": 0.0}
    for p, w in channel.probs.items():
        if not p.is_identity:
            out[p.letters] += w
    return out


# ---------------------------------------------------------------------------
# frontier sweeps


@dataclass(frozen=True)
class SweepRow:
    f_target: float
    series: str
    label: str
    f_ab: dict
    f_ae: dict
    f_ab_avg: float
    f_ae_avg: float
    parameters: np.ndarray | None
    # |F_AB_avg - f_target| of an optimized row; None for reference and grid rows
    target_miss: float | None = None


@dataclass(frozen=True)
class SweepResult:
    task: str
    rows: tuple[SweepRow, ...]

    def series(self, name: str, label: str | None = None) -> list[SweepRow]:
        return [
            r
            for r in self.rows
            if r.series == name and (label is None or r.label == label)
        ]


# per task: register size N of its cloners, trained ansatz, default settings
_TASK_SPECS = {
    "bb84": (1, "ng-angles", OptimizerConfig(steps=120, restarts=4)),
    "sixstate": (1, "ng-angles", OptimizerConfig(steps=120, restarts=4)),
    "twenty": (2, "program-prep", OptimizerConfig(steps=100, restarts=3)),
    "b92": (1, "b92", OptimizerConfig(steps=100, restarts=5)),
    "pairs": (2, "program-prep", OptimizerConfig(steps=200, restarts=5)),
}
TASKS = tuple(_TASK_SPECS)


def task_num_clone_qubits(task: str) -> int:
    """Register size N of the task's cloners, and so of its channel."""
    return _TASK_SPECS[task][0]


def default_task_config(task: str) -> OptimizerConfig:
    return _TASK_SPECS[task][2]


def default_f_values(task: str) -> list[float]:
    if task == "pairs":
        return [0.75, 0.85]
    lo = 0.25 if task_num_clone_qubits(task) == 2 else 0.5
    return [round(float(f), 10) for f in np.arange(lo + 0.05, 1.0, 0.05)]


def _adam_units(task: str) -> list[tuple]:
    """(cloner kind, basis labels, series, row label) of each Adam series of
    the task, in seed order; the b92 ansatz is its own cloner (kind None)."""
    if task == "b92":
        return [(None, (), "qml", "")]
    if task == "bb84":
        return [(ClonerKind.NG, ("Z", "X"), "ng", "")]
    if task == "sixstate":
        return [(ClonerKind.NG, ("Z", "X", "Y"), "ng", "")]
    kinds = (ClonerKind.NG, ClonerKind.QID)
    labels = mubs_for(2).labels
    if task == "twenty":
        return [(kind, labels, kind.value, "") for kind in kinds]
    return [
        (kind, pair, kind.value, "".join(pair))
        for pair in itertools.combinations(labels, 2)
        for kind in kinds
    ]


def _row_config(cfg: OptimizerConfig, row_index: int) -> OptimizerConfig:
    child = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1000 + row_index,))
    return replace(cfg, seed=int(child.generate_state(1)[0]))


def _adam_row(ansatz, forms, f_target, cfg, series, label) -> SweepRow:
    """Adam at one Bob-fidelity target.

    The row's fidelities are read from what Adam optimized: the quadratic
    forms for a program ansatz, the adjoint forward pass for b92.
    """
    if ansatz == "b92":
        objective, gradient = make_b92_loss(f_target)
    else:
        objective, gradient = make_program_loss(forms, f_target, ansatz)
    params, _ = adam_optimize(objective, AnsatzSpec.zeros(ansatz), cfg, grad=gradient)
    if ansatz == "b92":
        per_ab, per_ae, _, _ = _b92_fidelities(_b92_pass(params))
        report = FidelityReport.from_per_state(
            {lbl: (f,) for lbl, f in zip(_B92_LABELS, per_ab)},
            {lbl: (f,) for lbl, f in zip(_B92_LABELS, per_ae)},
        )
    else:
        report = report_from_forms(forms, _PROGRAM_STATE_FNS[ansatz](params))
    miss = abs(report.f_ab_avg - f_target)
    if miss > 0.02:
        logger.warning(
            "%s %s f=%.3f: converged Bob average %.4f misses the target",
            series,
            label,
            f_target,
            report.f_ab_avg,
        )
    return _report_row(f_target, series, label, report, params, miss)


def _report_row(f_target, series, label, report, params=None, miss=None) -> SweepRow:
    return SweepRow(
        f_target,
        series,
        label,
        report.f_ab,
        report.f_ae,
        report.f_ab_avg,
        report.f_ae_avg,
        params,
        miss,
    )


def _reference_rows(task, f_values, channel, grid_resolution) -> list[SweepRow]:
    """The task's reference rows: the phase-covariant curve (bb84), the
    universal curve (sixstate) or point (twenty), the grid frontiers (b92).

    They are computed before any Adam run, so bad inputs fail fast.
    """
    if task == "bb84":
        rows = []
        for f in f_values:
            try:
                eve = pccm_reference_eve(f, channel)
            except ValueError:
                continue
            rows.append(SweepRow(f, "pccm", "", {}, {}, f, eve, None))
        return rows
    if task == "sixstate":
        xs, ys = uqcm_reference_curve(channel)
        order = np.argsort(xs)
        xs, ys = xs[order], ys[order]
        return [
            SweepRow(f, "uqcm", "", {}, {}, f, float(np.interp(f, xs, ys)), None)
            for f in f_values
            if xs[0] - 1e-9 <= f <= xs[-1] + 1e-9
        ]
    if task == "twenty":
        report = clone_fidelities(ClonerKind.NG, 2, uqcm_program_ng(2), channel=channel)
        return [_report_row(math.nan, "uqcm", "", report)]
    if task == "b92":
        families = ((ClonerKind.NG, "grid-ng"), (ClonerKind.QID, "grid-qid"))
        return [
            SweepRow(f, series, "", {}, {}, f, best, None)
            for family, series in families
            for f, best in grid_frontier_b92(family, f_values, grid_resolution)
        ]
    return []


def frontier_sweep(
    task: str,
    f_values=None,
    cfg: OptimizerConfig | None = None,
    channel: PauliChannel | None = None,
    grid_resolution: int = 64,
) -> SweepResult:
    """Optimize the task's cloner family over a grid of Bob-fidelity targets.

    Emits one optimized row per target per Adam series, plus the task's
    reference rows.  Rows are deterministic for a fixed config: the row at
    target i of the u-th series (``_adam_units`` order) owns the seed
    derived from (cfg.seed, u * len(f_values) + i).
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; choose one of {TASKS}")
    f_values = list(default_f_values(task) if f_values is None else f_values)
    if not f_values:
        raise ValueError("f_values must not be empty")
    if any(not 0.0 <= f <= 1.0 for f in f_values):
        raise ValueError("f targets must lie in [0, 1]")
    if task == "pairs" and channel is not None:
        raise ValueError("the reduced-pairs task is noiseless")
    f_values = sorted(f_values)
    cfg = default_task_config(task) if cfg is None else cfg
    n, ansatz, _ = _TASK_SPECS[task]

    rows = _reference_rows(task, f_values, channel, grid_resolution)
    for u, (kind, labels, series, label) in enumerate(_adam_units(task)):
        forms = None
        if kind is not None:
            bases = [mubs_for(n)[lbl] for lbl in labels]
            forms = fidelity_quadratic_forms(kind, n, bases, channel)
        for i, f in enumerate(f_values):
            row_cfg = _row_config(cfg, u * len(f_values) + i)
            rows.append(_adam_row(ansatz, forms, f, row_cfg, series, label))
    rows.sort(key=lambda r: (math.isnan(r.f_target), r.f_target, r.series, r.label))
    return SweepResult(task, tuple(rows))


def pareto_filter(points) -> list[tuple[float, float]]:
    """Keep (x, y) points not dominated by any other point."""
    pts = sorted(points, key=lambda p: (-p[0], -p[1]))
    out, best_y = [], -math.inf
    for x, y in pts:
        if y > best_y:
            out.append((x, y))
            best_y = y
    return out[::-1]
