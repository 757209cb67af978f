"""Program-state optimization: the exact frontier of two quadratic forms,
Adam with adjoint gradients, and the frontier sweeps of the standard
eavesdropping tasks.

Every clone fidelity is a quadratic form psi^dag M psi in the injected
program amplitudes, because the output state is linear in the program and
the fidelity quadratic in the output.  The sweep machinery builds the
Hermitian matrices M once per (cloner, channel, basis set) with the
cloner's fidelity engine (``cloner.fidelity_matrices`` on one column per
program basis vector) and then evaluates programs and their gradients from
M alone, which keeps the two-qubit optimization runs fast.  Gate-by-gate
simulation remains the reference path; the forms are checked against it in
the tests.

The best F_AE at a given F_AB over all programs is an eigenproblem
(``exact_frontier_point``), which solves the bb84, sixstate and pairs rows
and the b92 reference rows (``grid-ng``, ``grid-qid``) on their Bob targets.
Adam trains the 60-parameter program-prep ansatz of the twenty task and the
b92 ansatz, a cloner of its own.  Every restart of every row of a sweep is
one trajectory of a single batch that Adam steps in lockstep.

The two layered rotation ansaetze (program-prep and b92) are each written
once, in ``ANSATZ_LAYOUTS``; their gate lists, entangler permutations,
parameter counts and batched passes derive from it.  They get each step's
losses and exact gradients, for the whole batch, from one adjoint sweep
(``layered_pass``).  Each layer is one matrix per trajectory, the Kronecker
product of its rotation blocks with the entangler folded into its rows: the
forward pass and the backward pass of the loss's adjoint vectors make one
product per layer, and the angle gradients are read from the rotation
generators.  The parameter-shift derivatives of the program-prep ansatz
remain as the reference the adjoint gradient is tested against.

Every sweep row is read from what produced it: program rows from the
quadratic forms, b92 rows (per input too) from the adjoint forward pass.
Gate-by-gate simulation (``b92_per_state_fidelities`` and the cloner
circuits) is the oracle the tests compare against, not a production path.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from .analytic import uqcm_program_ng
from .cloner import (
    B92_INPUTS,
    ClonerKind,
    FidelityReport,
    SoftwareState,
    clone_fidelities,
    fidelity_matrices,
    resolve_bases,
    state_rows,
)
from .mub import mubs_for
from .noise import PauliChannel
from .simcore import Circuit, Frozen, GateOp, _uniforms, apply_ops, rotation_block


def _warn(msg: str, *args) -> None:
    """A row warning on the "paulicloner" logger, which loads on the first one."""
    import logging

    logging.getLogger("paulicloner").warning(msg, *args)


_B92_INPUTS = np.array(list(B92_INPUTS.values()), dtype=complex)

# Each trained ansatz as (layers, qubits, CNOT pairs, input states): a layer
# applies RX, RY, RZ to every qubit in qubit order, then CNOT on each
# (control, target) pair in turn; the ansatz runs on each input row.
ANSATZ_LAYOUTS = {
    # Alice's |0> or |+> on qubit 0, which becomes Bob's; Eve's qubit 1 in |0>
    "b92": (3, 2, ((0, 1),), np.kron(_B92_INPUTS, [[1.0, 0.0]])),
    # a two-qubit cloner program, prepared from |0000>
    "program-prep": (5, 4, ((0, 1), (1, 2), (2, 3), (3, 0)), np.eye(1, 16, dtype=complex)),
}
ANSATZ_PARAM_COUNTS = {k: lay[0] * lay[1] * 3 for k, lay in ANSATZ_LAYOUTS.items()}


class AnsatzSpec(Frozen):
    """A trainable circuit family plus its current parameter vector."""

    __slots__ = ("kind", "parameters")

    def __init__(self, kind: str, parameters) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parameters", parameters)
        self.__post_init__()

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

    @classmethod
    def zeros(cls, kind: str) -> "AnsatzSpec":
        return cls(kind, np.zeros(ANSATZ_PARAM_COUNTS[kind]))


ADAM_LEARNING_RATE = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class OptimizerConfig(Frozen):
    """Adam steps, restarts per row and the seed of the restarts' draws."""

    __slots__ = ("steps", "restarts", "seed")

    def __init__(self, steps: int = 100, restarts: int = 5, seed: int = 0) -> None:
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "restarts", restarts)
        object.__setattr__(self, "seed", seed)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be at least 1")


def loss(f_ab: float, f_ae: float, f_target: float) -> float:
    """10 (F_AB - f)^2 - F_AE: pins Bob's fidelity, maximizes Eve's."""
    return 10.0 * (f_ab - f_target) ** 2 - f_ae


def loss_and_adjoint(f_ab, f_ae, d_ab, d_ae, f_targets):
    """Losses of a batch, and their adjoint vectors 20 (F_AB - f) dF_AB - dF_AE
    from the derivatives dF of the fidelities in the conjugate final states."""
    lam = 20.0 * (f_ab - f_targets)[:, None, None] * d_ab - d_ae
    return loss(f_ab, f_ae, f_targets), lam


def ansatz_circuit(kind: str, parameters: np.ndarray) -> Circuit:
    """The ansatz as gates: the reference its layered pass is tested against."""
    num_layers, n, cnots, _ = ANSATZ_LAYOUTS[kind]
    p = np.asarray(parameters, dtype=float).reshape(num_layers, n, 3)
    ops: list[GateOp] = []
    for layer in range(num_layers):
        for q in range(n):
            ops += [GateOp(g, (q,), a) for g, a in zip(("RX", "RY", "RZ"), p[layer, q])]
        ops += [GateOp("CNOT", pair) for pair in cnots]
    return Circuit(n, tuple(ops))


def b92_ansatz_circuit(parameters: np.ndarray) -> Circuit:
    """Three blocks of per-qubit RX, RY, RZ followed by CNOT 0 -> 1."""
    return ansatz_circuit("b92", parameters)


def _entangler(n: int, cnots) -> np.ndarray:
    """A CNOT layer as the index gather psi[..., perm]: the layer run on the
    vector of basis indices."""
    perm = apply_ops(np.arange(2**n, dtype=complex), n, [GateOp("CNOT", c) for c in cnots])
    return perm.real.astype(int)


ENTANGLERS = {
    kind: _entangler(n, cnots) for kind, (_, n, cnots, _) in ANSATZ_LAYOUTS.items()
}


def _layer_matrices(u: np.ndarray, entangler: np.ndarray) -> np.ndarray:
    """Each layer as one matrix: the Kronecker product of its n rotation
    blocks ``u`` (B, L, n, 2, 2), qubit 0 most significant, with its rows
    gathered by ``entangler``; shape (B, L, 2^n, 2^n)."""
    b, num_layers, n = u.shape[:3]
    # batch axes last, so that each product runs over all B * L blocks in
    # its inner loop
    blocks = np.moveaxis(u, (0, 1), (-2, -1))
    w = blocks[0]
    for q in range(1, n):
        w = np.multiply(w[:, None, :, None], blocks[q][None, :, None, :], order="C")
        w = w.reshape(2 ** (q + 1), 2 ** (q + 1), b, num_layers)
    w = w[entangler]  # rebinding frees the ungathered copy before the next one
    # contiguous, so that each layer's product goes to BLAS
    return np.ascontiguousarray(np.moveaxis(w, (0, 1), (-2, -1)))


@functools.lru_cache(maxsize=None)
def _qubit_halves(n: int) -> np.ndarray:
    """(n, 2, 2^(n-1)) indices: row [q, a] lists the basis states with qubit q
    at a, in the same order of the other qubits for a = 0 and 1."""
    index = np.arange(2**n).reshape((2,) * n)
    halves = np.stack([np.moveaxis(index, q, 0).reshape(2, -1) for q in range(n)])
    halves.flags.writeable = False  # shared by every call
    return halves


def layered_pass(
    parameters: np.ndarray, inputs: np.ndarray, entangler: np.ndarray, adjoint=None
):
    """Run a batch of layered rotation ansaetze forward, and backward when
    ``adjoint`` is given.

    Each of the L layers applies RZ RY RX to every qubit, then the index
    permutation ``entangler`` (``psi = psi[..., entangler]``).  ``parameters``
    has shape (B, L, n, 3), one set per trajectory; each starts from the
    (K, 2^n) ``inputs``.  A layer is one (2^n, 2^n) matrix per trajectory,
    the Kronecker product of its blocks with the entangler folded into its
    rows, so each pass makes one batched product per layer.

    Without ``adjoint`` this returns the final (B, K, 2^n) states.
    Otherwise ``adjoint(final)`` must return ``(values, lam)``: the B real
    losses and ``lam`` their derivatives in the conjugate final states.  The
    result is ``(values, gradients)``, a flat gradient row per trajectory.

    ``lam`` runs back through the layers, one product each, and the
    gradients are read from the generators: each angle's derivative of a
    block U = RZ(c) RY(b) RX(a) is -i/2 H U, with H = Z for c, RZ Y RZ^dag
    for b and U X U^dag = cos b (cos c X + sin c Y) - sin b Z for a.  So the
    gradient is Im sum(H * R), with R_ab = sum conj(lam_a) psi_b the 2x2
    cross-matrix, on the block's qubit, between the adjoint vector and the
    rotated state before the entangler: one contraction for every block.
    """
    b, num_layers, n, _ = parameters.shape
    w = _layer_matrices(rotation_block(parameters), entangler)
    wt = w.swapaxes(-1, -2)
    psi = np.broadcast_to(inputs, (b,) + inputs.shape)
    if adjoint is None:
        for layer in range(num_layers):
            psi = psi @ wt[:, layer]
        return psi
    # the state and mu = conj(lam) after each layer
    post = np.empty((2, num_layers, b) + inputs.shape, dtype=complex)
    for layer in range(num_layers):
        psi = post[0, layer] = psi @ wt[:, layer]
    values, lam = adjoint(psi)
    mu = lam.conj()
    for layer in reversed(range(num_layers)):
        post[1, layer] = mu
        mu = mu @ w[:, layer]
    # both back through the entangler, split by each qubit's value
    phi, mu = post[..., np.argsort(entangler)[_qubit_halves(n)]]
    (r00, r01), (r10, r11) = np.einsum("lzkqat,lzkqbt->abzlq", mu, phi)
    # g_P = Im sum(P * R) for P = X, Y, Z
    g_x, g_y, g_z = (r01 + r10).imag, (r10 - r01).real, (r00 - r11).imag
    angles = np.moveaxis(parameters[..., 1:], -1, 0)
    (cos_b, cos_c), (sin_b, sin_c) = np.cos(angles), np.sin(angles)
    d_a = cos_b * (cos_c * g_x + sin_c * g_y) - sin_b * g_z
    d_b = cos_c * g_y - sin_c * g_x
    return values, np.stack([d_a, d_b, g_z], axis=-1).reshape(b, -1)


def ansatz_pass(kind: str, parameters: np.ndarray, adjoint=None):
    """``layered_pass`` of the ansatz on its inputs, for a batch of parameter
    sets (flat or shaped), each a row."""
    num_layers, n, _, inputs = ANSATZ_LAYOUTS[kind]
    p = np.asarray(parameters, dtype=float).reshape(-1, num_layers, n, 3)
    return layered_pass(p, inputs, ENTANGLERS[kind], adjoint)


def program_prep_state(parameters: np.ndarray) -> np.ndarray:
    """State prepared by the program-prep ansatz on |0000>, without circuit
    objects; ``ansatz_circuit`` is the reference it is tested against."""
    return ansatz_pass("program-prep", parameters)[0, 0]


def evaluate_ansatz(spec: AnsatzSpec):
    """The b92 ansatz yields a Circuit; the program-prep ansatz a SoftwareState."""
    if spec.kind == "b92":
        return b92_ansatz_circuit(spec.parameters)
    return SoftwareState(program_prep_state(spec.parameters))


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


def restart_starts(cfg: OptimizerConfig, size: int) -> np.ndarray:
    """The (cfg.restarts, size) starts of one Adam row: zeros for restart 0,
    and for r > 0 angles uniform in [-pi, pi) from the stdlib stream
    ``random.Random(f"{cfg.seed}/{r}")``."""
    starts = np.zeros((cfg.restarts, size))
    for r in range(1, cfg.restarts):
        starts[r] = -math.pi + 2 * math.pi * _uniforms(random.Random(f"{cfg.seed}/{r}"), size)
    return starts


def adam_optimize(loss_and_grad, starts: np.ndarray, cfg: OptimizerConfig):
    """Minimize a batch of trajectories with Adam, all in lockstep.

    ``starts`` holds one start point per row, shape (B, P), and
    ``loss_and_grad`` maps (B, P) parameters to their B losses and (B, P)
    gradients, so each step makes one call for the whole batch.  The Adam
    updates are elementwise, which keeps every trajectory exactly what it
    would be alone.  Returns the best parameters each trajectory saw (the
    earliest step on a tie) and the (cfg.steps + 1, B) loss trace; a
    non-finite loss in any trajectory raises RuntimeError.
    """
    params = np.array(starts, dtype=float)
    m = v = np.zeros_like(params)
    best, best_values = params.copy(), np.full(len(params), math.inf)
    trace = np.empty((cfg.steps + 1, len(params)))
    for t in range(cfg.steps + 1):
        if t:
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1**t)
            v_hat = v / (1 - ADAM_BETA2**t)
            params = params - ADAM_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        values, g = loss_and_grad(params)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise RuntimeError(f"loss is not finite at step {t} of trajectory {bad[0]}")
        better = values < best_values
        best[better] = params[better]
        best_values = np.where(better, values, best_values)
        trace[t] = values
    return best, trace


# ---------------------------------------------------------------------------
# quadratic forms: F = psi^dag M psi in the program amplitudes


def fidelity_quadratic_forms(
    kind: ClonerKind,
    num_clone_qubits: int,
    bases,
    channel: PauliChannel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian matrices (M_ab, M_ae) with F = psi^dag M[s] psi, per receiver.

    Each is ``fidelity_matrices``' stack (S, 4^N, 4^N) on the identity's
    columns, its S states those of ``bases`` in order, basis by basis.
    """
    n = num_clone_qubits
    states = state_rows(n, [st for b in resolve_bases(n, bases) for st in b.states])
    return fidelity_matrices(kind, n, np.eye(4**n), states, channel)


def quadratic_fidelity(m: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(psi.conj() @ m @ psi))


def _forms_report(labels, forms, psi: np.ndarray) -> FidelityReport:
    """The report of program ``psi`` on the forms of the bases ``labels``,
    read state by state."""
    values = (np.array([quadratic_fidelity(m, psi) for m in mats]) for mats in forms)
    return FidelityReport.from_columns(labels, *values)


def program_prep_loss_and_grad(forms_stacks, f_targets, params: np.ndarray):
    """Losses of a batch of program-prep ansaetze and their gradients, from
    one adjoint sweep.

    Trajectory z has the mean forms ``forms_stacks[z]`` = (M_ab, M_ae), the
    Bob target ``f_targets[z]`` (both arrays) and the 60 angles
    ``params[z]``; dF = M psi for each form.
    """
    def adjoint(final: np.ndarray):
        m_psi = final[:, None] @ forms_stacks.swapaxes(-1, -2)
        f_ab, f_ae = np.einsum("zka,zrka->rz", final.conj(), m_psi).real
        return loss_and_adjoint(f_ab, f_ae, m_psi[:, 0], m_psi[:, 1], f_targets)

    return ansatz_pass("program-prep", params, adjoint)


def make_program_loss(forms: tuple, f_target: float):
    """Loss of the program-prep ansatz on the mean of fixed forms (M_ab, M_ae),
    and its adjoint gradient: one parameter set, a batch of one."""
    m_ab, m_ae = (m.mean(axis=0) for m in forms)
    forms_stack, targets = np.stack([m_ab, m_ae])[None], np.array([f_target])

    def objective(params: np.ndarray) -> float:
        psi = program_prep_state(params)
        return loss(quadratic_fidelity(m_ab, psi), quadratic_fidelity(m_ae, psi), f_target)

    def gradient(params: np.ndarray) -> np.ndarray:
        return program_prep_loss_and_grad(forms_stack, targets, params)[1][0]

    return objective, gradient


def _b92_fidelities(final: np.ndarray):
    """Each input's F_AB and F_AE, shape (B, 2), and the Bob/Eve overlaps.

    Bob clones input k well when the first qubit of final state k stays in
    it, Eve when the second qubit does: F = psi^dag (P_k x I) psi and
    psi^dag (I x P_k) psi with P_k the projector on input k.
    """
    m = final.reshape(-1, 2, 2, 2)
    bob = np.einsum("ka,zkaj->zkj", _B92_INPUTS.conj(), m)
    eve = np.einsum("kb,zkib->zki", _B92_INPUTS.conj(), m)
    f_ab = np.einsum("zkj,zkj->zk", bob.conj(), bob).real
    f_ae = np.einsum("zki,zki->zk", eve.conj(), eve).real
    return f_ab, f_ae, bob, eve


def b92_qml_fidelities(parameters: np.ndarray) -> tuple[float, float]:
    """Average (F_AB, F_AE) of the ansatz over |0> and |+>, fast path."""
    f_ab, f_ae, _, _ = _b92_fidelities(ansatz_pass("b92", parameters))
    return float(np.mean(f_ab)), float(np.mean(f_ae))


def b92_loss_and_grad(f_targets, params: np.ndarray):
    """Losses of a batch of 18-parameter b92 ansaetze, one Bob target each
    (an array), and their gradients from one adjoint sweep."""
    def adjoint(final: np.ndarray):
        per_ab, per_ae, bob, eve = _b92_fidelities(final)
        f_ab, f_ae = np.mean(per_ab, axis=1), np.mean(per_ae, axis=1)
        # d F / d conj(psi_k), halved for the mean over the two inputs
        d_ab = 0.5 * np.einsum("ka,zkj->zkaj", _B92_INPUTS, bob).reshape(-1, 2, 4)
        d_ae = 0.5 * np.einsum("kb,zki->zkib", _B92_INPUTS, eve).reshape(-1, 2, 4)
        return loss_and_adjoint(f_ab, f_ae, d_ab, d_ae, f_targets)

    return ansatz_pass("b92", params, adjoint)


def make_b92_loss(f_target: float):
    """Loss and adjoint gradient for the 18-parameter b92 ansatz: one
    parameter set, a batch of one."""

    def objective(params: np.ndarray) -> float:
        f_ab, f_ae = b92_qml_fidelities(params)
        return loss(f_ab, f_ae, f_target)

    def gradient(params: np.ndarray) -> np.ndarray:
        return b92_loss_and_grad(np.array([f_target]), params)[1][0]

    return objective, gradient


# ---------------------------------------------------------------------------
# the exact frontier of two quadratic forms


def _edge_program(m_ab: np.ndarray, m_ae: np.ndarray, sign: int) -> np.ndarray:
    """Best F_AE program on the top (sign 1) or bottom (sign -1) eigenspace of M_ab."""
    w, v = np.linalg.eigh(sign * m_ab)
    space = v[:, w >= w[-1] - 1e-10]
    return space @ np.linalg.eigh(space.conj().T @ m_ae @ space)[1][:, -1]


def _span_program(m_ab, m_ae, f, v_lo, v_hi) -> np.ndarray:
    """Best F_AE program with F_AB = f on the great circle through v_lo and v_hi.

    With u = 2t, psi(t) = cos t q1 + sin t q2 has F = c0 + c1 cos u + c2 sin u
    for either form, so F_AB = f has two roots u and the better one is kept.
    """
    overlap = np.vdot(v_lo, v_hi)
    if overlap != 0:
        # rephased so that <v_lo|v_hi> >= 0: the circle then passes through v_hi
        v_hi = v_hi * (abs(overlap) / overlap)
    rest = v_hi - abs(overlap) * v_lo
    # a second pass: for nearly parallel ends the first leaves rest off
    # orthogonal by about eps / |rest|, and psi off unit norm
    rest = rest - np.vdot(v_lo, rest) * v_lo
    if np.linalg.norm(rest) <= 1e-10:
        return v_lo
    q = np.stack([v_lo, rest / np.linalg.norm(rest)], axis=1)

    def coefficients(m):
        a = (q.conj().T @ m @ q).real
        return (a[0, 0] + a[1, 1]) / 2, (a[0, 0] - a[1, 1]) / 2, a[0, 1]

    (a0, a1, a2), (b0, b1, b2) = coefficients(m_ab), coefficients(m_ae)
    phase = math.atan2(a2, a1)
    width = math.acos(min(max((f - a0) / max(math.hypot(a1, a2), 1e-300), -1.0), 1.0))
    eve = lambda u: b1 * math.cos(u) + b2 * math.sin(u)
    u = max(phase - width, phase + width, key=eve)
    return math.cos(u / 2) * q[:, 0] + math.sin(u / 2) * q[:, 1]


def exact_frontier_point(m_ab: np.ndarray, m_ae: np.ndarray, f: float) -> np.ndarray:
    """The program of largest F_AE = psi^dag M_ae psi with F_AB = psi^dag M_ab psi = f.

    The reachable (F_AB, F_AE) pairs form a convex set (Toeplitz-Hausdorff),
    whose upper boundary is traced by the top eigenvector of M_ae + lam M_ab;
    its F_AB grows with lam.  Bisection on lam = tan(theta), theta in
    (-pi/2, pi/2), brackets f between two eigenvectors, and the 2x2 problem
    on their span lands on f, also on a flat segment of the frontier (a
    degenerate top eigenvalue) where the two differ.  A target outside
    [lambda_min(M_ab), lambda_max(M_ab)] gives the program at that end, with
    the best F_AE there.  Real forms give a real program.  The global phase
    makes the largest-magnitude amplitude (the first, on a tie) real and
    positive.
    """
    real = not (np.any(np.imag(m_ab)) or np.any(np.imag(m_ae)))
    if real:
        m_ab, m_ae = np.real(m_ab), np.real(m_ae)
    v_lo, v_hi = _edge_program(m_ab, m_ae, -1), _edge_program(m_ab, m_ae, 1)
    if f <= quadratic_fidelity(m_ab, v_lo):
        psi = v_lo
    elif f >= quadratic_fidelity(m_ab, v_hi):
        psi = v_hi
    else:
        lo, hi = -math.pi / 2, math.pi / 2
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            v = np.linalg.eigh(math.cos(mid) * m_ae + math.sin(mid) * m_ab)[1][:, -1]
            if quadratic_fidelity(m_ab, v) < f:
                lo, v_lo = mid, v
            else:
                hi, v_hi = mid, v
        psi = _span_program(m_ab, m_ae, f, v_lo, v_hi)
    assert not real or np.isrealobj(psi)
    # the eigensolver leaves the global phase free; fixing it keeps the
    # printed program the same across targets and LAPACK builds
    top = psi[np.argmax(np.abs(psi))]
    return psi * (abs(top) / top)


def grid_frontier_b92(family: ClonerKind, f_values) -> list[tuple[float, float]]:
    """(f, best F_AE at F_AB = f) for the b92 inputs |0> and |+>, exactly.

    The 4x4 forms average each receiver's fidelity over ``B92_INPUTS``, and
    ``exact_frontier_point`` solves each target.  The name is that of the
    angle-grid search this replaced; the ``grid-ng`` and ``grid-qid`` rows
    and the benchmark's layer tracer still use it.
    """
    forms = fidelity_matrices(family, 1, np.eye(4), _B92_INPUTS)
    m_ab, m_ae = (m.mean(axis=0) for m in forms)
    out = []
    for f in f_values:
        psi = exact_frontier_point(m_ab, m_ae, f)
        if abs(quadratic_fidelity(m_ab, psi) - f) > 1e-9:
            raise ValueError(f"target {f} beyond the reachable Bob fidelity")
        out.append((float(f), quadratic_fidelity(m_ae, psi)))
    return out


# ---------------------------------------------------------------------------
# reference families


# Each reference family as data: a description, its bases, the lowest noiseless
# Bob fidelity t of a basis, and Eve's noiseless fidelity in every basis as a
# closed form of t.  uqcm is table1_angles("uqcm", theta) read through
# ng_closed_form, t = 1 / (1 + 2 sin^2 theta) for theta in [0, pi/2].
REFERENCE_FAMILIES = {
    "pccm": ("Bob-favoring phase-covariant", "ZX", 0.5, lambda t: 0.5 + math.sqrt(t * (1 - t))),
    "uqcm": ("asymmetric universal", "ZXY", 1 / 3,
             lambda t: (2 - t + math.sqrt((1 - t) * (3 * t - 1))) / 2),
}


def reference_eve(family: str, f_ab_avg: float, channel: PauliChannel | None) -> float:
    """Noisy Eve average of the cloner of a reference family (``pccm`` or
    ``uqcm``) whose noisy Bob average over the family's bases is ``f_ab_avg``.

    Bob and Eve have one fidelity in every basis of the family, and the channel
    moves both averages by the affine map F (1 - 2q) + q, with q the mean rate
    of the errors that harm a basis.
    """
    description, labels, lowest, eve_of = REFERENCE_FAMILIES[family]
    p = _xyz_probs(channel)
    q = sum(sum(p.values()) - p[b] for b in labels) / len(labels)
    slope = 1 - 2 * q
    if abs(slope) <= 1e-12 and abs(f_ab_avg - 0.5) <= 1e-12:
        return 0.5  # q = 1/2 puts every cloner of the family at Bob = Eve = 1/2
    t = (f_ab_avg - q) / slope if abs(slope) > 1e-12 else math.nan
    if not -1e-12 <= t - lowest <= 1 - lowest + 1e-12:  # a NaN t fails too
        raise ValueError(f"no {description} cloner reaches {f_ab_avg}")
    return eve_of(min(max(t, lowest), 1.0)) * slope + q


def _xyz_probs(channel: PauliChannel | None) -> dict:
    if channel is not None and channel.num_qubits != 1:
        raise ValueError("expected a single-qubit channel")
    out = {"X": 0.0, "Y": 0.0, "Z": 0.0}
    for p, w in channel.probs.items() if channel is not None else ():
        if not p.is_identity:
            out[p.letters] += w
    return out


# ---------------------------------------------------------------------------
# frontier sweeps


class SweepRow(Frozen):
    """One row of a sweep.  ``parameters`` holds the program amplitudes (exact
    rows) or ansatz angles (Adam rows), and ``target_miss`` |F_AB_avg -
    f_target| of an optimized row; both are None for reference rows."""

    __slots__ = (
        "f_target", "series", "label", "f_ab", "f_ae", "f_ab_avg", "f_ae_avg",
        "parameters", "target_miss",
    )

    def __init__(
        self,
        f_target: float,
        series: str,
        label: str,
        f_ab: dict,
        f_ae: dict,
        f_ab_avg: float,
        f_ae_avg: float,
        parameters: np.ndarray | None,
        target_miss: float | None = None,
    ) -> None:
        object.__setattr__(self, "f_target", f_target)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "f_ab", f_ab)
        object.__setattr__(self, "f_ae", f_ae)
        object.__setattr__(self, "f_ab_avg", f_ab_avg)
        object.__setattr__(self, "f_ae_avg", f_ae_avg)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "target_miss", target_miss)


class SweepResult(Frozen):
    """A task's sweep rows, in the order they print."""

    __slots__ = ("task", "rows")

    def __init__(self, task: str, rows: tuple[SweepRow, ...]) -> None:
        object.__setattr__(self, "task", task)
        object.__setattr__(self, "rows", rows)

    def series(self, name: str, label: str | None = None) -> list[SweepRow]:
        return [
            r
            for r in self.rows
            if r.series == name and (label is None or r.label == label)
        ]


# per task: register size N of its cloners, solver ("exact" or the trained
# ansatz), default Adam settings (validated for every task, used by Adam only)
_TASK_SPECS = {
    "bb84": (1, "exact", OptimizerConfig(steps=120, restarts=4)),
    "sixstate": (1, "exact", OptimizerConfig(steps=120, restarts=4)),
    "twenty": (2, "program-prep", OptimizerConfig(steps=100, restarts=3)),
    "b92": (1, "b92", OptimizerConfig(steps=100, restarts=5)),
    "pairs": (2, "exact", OptimizerConfig(steps=200, restarts=5)),
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


def _units(task: str) -> list[tuple]:
    """(cloner kind, basis labels, series, row label) of each optimized series
    of the task, in seed order; the b92 ansatz is its own cloner (kind None)."""
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
    seed = random.Random(f"{cfg.seed}/{1000 + row_index}").getrandbits(32)
    return OptimizerConfig(cfg.steps, cfg.restarts, seed)


def _exact_rows(forms, labels, f_values, series, label) -> list[SweepRow]:
    """The exact frontier at each Bob-fidelity target on the forms of the bases
    ``labels``; ``params`` holds the program amplitudes, as ``fidelities
    --amplitudes`` takes them."""
    m_ab, m_ae = (m.mean(axis=0) for m in forms)
    reachable = np.linalg.eigvalsh(m_ab)[[0, -1]]
    rows = []
    for f in f_values:
        psi = exact_frontier_point(m_ab, m_ae, f)
        # eigensolver dust and -0 print as 0: every amplitude of at most
        # 1e-15 times the largest
        psi = np.where(np.abs(psi) <= 1e-15 * np.abs(psi).max(), 0.0, psi)
        report = _forms_report(labels, forms, psi)
        miss = abs(report.f_ab_avg - f)
        if miss > 1e-9:
            msg = "%s %s f=%.3f: outside the reachable Bob interval [%.4f, %.4f]"
            _warn(msg, series, label, f, *reachable)
        rows.append(_report_row(f, series, label, report, psi, miss))
    return rows


def _adam_rows(ansatz, units, unit_forms, f_values, cfg) -> list[SweepRow]:
    """Adam at every (series, target) row, each restart one trajectory of a
    single lockstep batch; a row's winner is its first restart of least loss.

    The row's fidelities are read from what Adam optimized: the quadratic
    forms for a program ansatz, the adjoint forward pass for b92.
    """
    jobs = [(u, f) for u in range(len(units)) for f in f_values]
    size = ANSATZ_PARAM_COUNTS[ansatz]
    starts = np.concatenate(
        [restart_starts(_row_config(cfg, k), size) for k in range(len(jobs))]
    )
    targets = np.repeat([f for _, f in jobs], cfg.restarts)
    if ansatz == "b92":
        loss_and_grad = functools.partial(b92_loss_and_grad, targets)
    else:
        means = [np.stack([m.mean(axis=0) for m in forms]) for forms in unit_forms]
        stacks = np.repeat([means[u] for u, _ in jobs], cfg.restarts, axis=0)
        loss_and_grad = functools.partial(program_prep_loss_and_grad, stacks, targets)
    params, trace = adam_optimize(loss_and_grad, starts, cfg)
    winners = trace.min(axis=0).reshape(len(jobs), cfg.restarts).argmin(axis=1)
    best = params.reshape(len(jobs), cfg.restarts, size)[np.arange(len(jobs)), winners]
    rows = []
    for (u, f_target), p in zip(jobs, best):
        _, labels, series, label = units[u]
        if ansatz == "b92":
            per_ab, per_ae, _, _ = _b92_fidelities(ansatz_pass("b92", p))
            report = FidelityReport.from_columns(list(B92_INPUTS), per_ab[0], per_ae[0])
        else:
            report = _forms_report(labels, unit_forms[u], program_prep_state(p))
        miss = abs(report.f_ab_avg - f_target)
        if miss > 0.02:
            msg = "%s %s f=%.3f: converged Bob average %.4f misses the target"
            _warn(msg, series, label, f_target, report.f_ab_avg)
        rows.append(_report_row(f_target, series, label, report, p, miss))
    return rows


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


def _reference_rows(task, f_values, channel) -> list[SweepRow]:
    """The task's reference rows: the phase-covariant curve (bb84), the
    universal curve (sixstate) or point (twenty), the exact frontiers (b92).

    They are computed before any Adam run, so bad inputs fail fast.
    """
    if task in ("bb84", "sixstate"):
        family = "pccm" if task == "bb84" else "uqcm"
        rows = []
        for f in f_values:
            try:
                eve = reference_eve(family, f, channel)
            except ValueError:
                continue
            rows.append(SweepRow(f, family, "", {}, {}, f, eve, None))
        return rows
    if task == "twenty":
        report = clone_fidelities(ClonerKind.NG, 2, uqcm_program_ng(2), channel=channel)
        return [_report_row(math.nan, "uqcm", "", report)]
    if task == "b92":
        families = ((ClonerKind.NG, "grid-ng"), (ClonerKind.QID, "grid-qid"))
        return [
            SweepRow(f, series, "", {}, {}, f, best, None)
            for family, series in families
            for f, best in grid_frontier_b92(family, f_values)
        ]
    return []


def frontier_sweep(
    task: str,
    f_values=None,
    cfg: OptimizerConfig | None = None,
    channel: PauliChannel | None = None,
) -> SweepResult:
    """Optimize the task's cloner family over a grid of Bob-fidelity targets.

    Emits one optimized row per target per series, plus the task's reference
    rows.  bb84, sixstate and pairs rows are exact; ``cfg`` drives the Adam
    series only, whose rows all run in one Adam batch.  They are
    deterministic for a fixed config: the row at target i of the u-th
    series (``_units`` order) is seeded by 32 bits of the stdlib stream
    ``random.Random(f"{cfg.seed}/{1000 + k}")``, k = u * len(f_values) + i,
    and draws its restart starts from that seed (``restart_starts``).
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
    if task == "b92" and channel is not None:
        raise ValueError("the b92 task is noiseless")
    f_values = sorted(f_values)
    cfg = default_task_config(task) if cfg is None else cfg
    n, solver, _ = _TASK_SPECS[task]

    rows = _reference_rows(task, f_values, channel)
    units = _units(task)
    unit_forms = [
        None
        if kind is None
        else fidelity_quadratic_forms(kind, n, [mubs_for(n)[x] for x in labels], channel)
        for kind, labels, _, _ in units
    ]
    if solver == "exact":
        for forms, (_, labels, series, label) in zip(unit_forms, units):
            rows += _exact_rows(forms, labels, f_values, series, label)
    else:
        rows += _adam_rows(solver, units, unit_forms, f_values, cfg)
    rows.sort(key=lambda r: (math.isnan(r.f_target), r.f_target, r.series, r.label))
    return SweepResult(task, tuple(rows))

