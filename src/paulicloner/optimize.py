"""Program-state optimization: the exact frontier of two quadratic forms
and of the b92 isometries, the compile of exact states into ansatz angles,
Adam, and the frontier sweeps of the standard eavesdropping tasks.

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
(``exact_frontier_point``), which solves the bb84, sixstate, twenty and
pairs rows and the b92 reference rows on their Bob targets.  The b92
``qml`` rows optimize a cloner of their own, an isometry from Alice's qubit
to Bob's and Eve's, which ``b92_isometry`` solves exactly.  Twenty rows
print their programs, and ``qml`` rows their isometries, compiled into
ansatz angles (``compile_programs``).  No sweep runs Adam.
``frontier_sweep`` builds every optimized row in one loop: each series
yields its target states (``_exact_programs`` or ``b92_isometry``), a task
whose rows print angles compiles all of them in one batch, and each row
reads its report from its state.

The two layered rotation ansaetze (program-prep and b92) are each written
once, in ``ANSATZ_LAYOUTS``; their gate lists, entangler permutations,
parameter counts and batched passes derive from it.  Each layer is one
matrix per trajectory, the Kronecker product of its rotation blocks with the
entangler folded into its rows, so the forward pass (``layered_pass``) makes
one product per layer.  The one derivative of an ansatz is the Jacobian of
its outputs, read from the rotation generators after one forward pass
(``layered_jacobian``): the compile steps on it, and Adam's gradients are
2 Re(lam^dag J) on the quadratic forms of the outputs
(``ansatz_loss_and_grad``).  The parameter-shift derivatives are the
reference the Jacobian is tested against.

Every sweep row is read from the quadratic forms of what produced it:
program rows (twenty rows at their compiled state) from the cloner's forms,
b92 rows from ``B92_FORMS`` on the forward pass.
Gate-by-gate simulation (``b92_per_state_fidelities`` and the cloner
circuits) is the oracle the tests compare against, not a production path.
"""

from __future__ import annotations

import functools
import itertools
import math

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
from .mub import PauliString, mubs_for
from .noise import PauliChannel, noisy_fidelity_1q
from .simcore import Circuit, Frozen, GateOp, apply_ops, rotation_block


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
    """Adam steps and restarts per row."""

    __slots__ = ("steps", "restarts")
    _defaults = {"steps": 100, "restarts": 5}

    def __post_init__(self) -> None:
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be at least 1")


def loss(f_ab: float, f_ae: float, f_target: float) -> float:
    """10 (F_AB - f)^2 - F_AE: pins Bob's fidelity, maximizes Eve's."""
    return 10.0 * (f_ab - f_target) ** 2 - f_ae


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


def layered_pass(parameters: np.ndarray, inputs: np.ndarray, entangler: np.ndarray):
    """The final states (B, K, 2^n) of a batch of layered rotation ansaetze.

    Each of the L layers applies RZ RY RX to every qubit, then the index
    permutation ``entangler`` (``psi = psi[..., entangler]``).  ``parameters``
    has shape (B, L, n, 3), one set per trajectory; each starts from the
    (K, 2^n) ``inputs``.  A layer is one (2^n, 2^n) matrix per trajectory,
    the Kronecker product of its blocks with the entangler folded into its
    rows, so the pass makes one batched product per layer.
    """
    wt = _layer_matrices(rotation_block(parameters), entangler).swapaxes(-1, -2)
    psi = np.broadcast_to(inputs, (len(parameters),) + inputs.shape)
    for layer in range(parameters.shape[1]):
        psi = psi @ wt[:, layer]
    return psi


def layered_jacobian(parameters: np.ndarray, inputs: np.ndarray, entangler: np.ndarray):
    """The final states (B, K, 2^n) of ``layered_pass`` and their Jacobians
    d psi / d theta (B, K 2^n, P), from one forward pass.

    An angle of layer l moves the state by S_l E (-i/2 H) phi_l, with S_l the
    product of the later layers, E the entangler, phi_l the rotated state
    before it and H the angle's generator: for a block
    U = RZ(c) RY(b) RX(a), H = Z for c, RZ Y RZ^dag for b and
    U X U^dag = cos b (cos c X + sin c Y) - sin b Z for a.  So each entry is
    -i/2 sum(H * R), with R_ab = sum (S_l E)_{i,a} phi_b the 2x2
    cross-matrix, on the block's qubit, between row i of S_l E and phi_l:
    one contraction for every block.
    """
    num_layers, n = parameters.shape[1:3]
    w = _layer_matrices(rotation_block(parameters), entangler)
    post = np.empty(w.shape[:2] + inputs.shape, dtype=complex)
    suffix = np.empty_like(w)
    psi, s = np.broadcast_to(inputs, post[:, 0].shape), np.eye(2**n)
    for layer in range(num_layers):
        psi = post[:, layer] = np.einsum("zab,zkb->zka", w[:, layer], psi)
        suffix[:, -1 - layer] = s
        s = s @ w[:, -1 - layer]
    # both back through the entangler, split by each qubit's value
    idx = np.argsort(entangler)[_qubit_halves(n)]
    (r00, r01), (r10, r11) = np.einsum("zliqat,zlkqbt->abkizlq", suffix[..., idx], post[..., idx])
    g_x, g_y, g_z = r01 + r10, 1j * (r10 - r01), r00 - r11  # sum(P * R) for P = X, Y, Z
    angles = np.moveaxis(parameters[..., 1:], -1, 0)
    (cos_b, cos_c), (sin_b, sin_c) = np.cos(angles), np.sin(angles)
    d_a = cos_b * (cos_c * g_x + sin_c * g_y) - sin_b * g_z
    d_b = cos_c * g_y - sin_c * g_x
    jacobian = -0.5j * np.moveaxis(np.stack([d_a, d_b, g_z], axis=-1), 2, 0)
    return psi, jacobian.reshape(len(parameters), psi[0].size, -1)


def _on_inputs(kind: str, parameters: np.ndarray):
    """The arguments of a layered pass of the ``kind`` ansatz on its inputs,
    for a batch of parameter sets (flat or shaped), each a row."""
    num_layers, n, _, inputs = ANSATZ_LAYOUTS[kind]
    p = np.asarray(parameters, dtype=float).reshape(-1, num_layers, n, 3)
    return p, inputs, ENTANGLERS[kind]


def ansatz_pass(kind: str, parameters: np.ndarray) -> np.ndarray:
    """``layered_pass`` of the ansatz on its inputs."""
    return layered_pass(*_on_inputs(kind, parameters))


def ansatz_jacobian(kind: str, parameters: np.ndarray):
    """``layered_jacobian`` of the ansatz on its inputs."""
    return layered_jacobian(*_on_inputs(kind, parameters))


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
    d psi / d theta_k: the reference for the Jacobian."""
    p = np.asarray(parameters, dtype=float).reshape(-1)
    return program_prep_state(p), shift_gradient_states(program_prep_state, p, 0.5)


# the compile's step cap, and the distance from its target at which a row warns
FIT_ITERATIONS = 100
FIT_BOUND = 1e-12


def compile_programs(kind: str, targets: np.ndarray) -> np.ndarray:
    """Angles (B, P) of the ``kind`` ansatz whose outputs on its K inputs are
    the (B, K, 2^n) ``targets`` up to one global phase per row:
    Levenberg-Marquardt on psi(theta) - e^{i phi} a from zero, in lockstep; a
    fit's damping falls tenfold on a step that lowers its residual, else rises
    tenfold.  A row whose residual is at most FIT_BOUND / 100 takes no
    further step, so that it fits as it would alone; the batch stops when
    every row has, or after FIT_ITERATIONS."""
    a = np.asarray(targets, dtype=complex)
    b = len(a)
    x = np.hstack([np.zeros((b, ANSATZ_PARAM_COUNTS[kind])), np.angle(a[:, 0, :1])])
    damping = np.full(b, 0.1)
    for _ in range(FIT_ITERATIONS):
        psi, jacobian = ansatz_jacobian(kind, x[:, :-1])
        psi, r = psi.reshape(b, -1), (psi - np.exp(1j * x[:, -1:, None]) * a).reshape(b, -1)
        error = np.linalg.norm(r, axis=1)
        done = error <= FIT_BOUND / 100
        if done.all():
            break
        # the phase as the last column, real and imaginary parts as rows
        j = np.concatenate([jacobian, 1j * (r - psi)[..., None]], axis=-1)
        j, r = np.hstack([j.real, j.imag]), np.hstack([r.real, r.imag])
        # the step -J^T (J J^T + damping)^-1 r, by the eigensolver the exact rows load
        w, v = np.linalg.eigh(j @ j.swapaxes(1, 2))
        y = v @ (v.swapaxes(1, 2) @ r[..., None] / (w + damping[:, None])[..., None])
        trial = x - (j.swapaxes(1, 2) @ y)[..., 0]
        trial_r = ansatz_pass(kind, trial[:, :-1]) - np.exp(1j * trial[:, -1:, None]) * a
        better = (np.linalg.norm(trial_r.reshape(b, -1), axis=1) < error) & ~done
        x[better] = trial[better]
        damping = np.where(better, damping / 10, damping * 10)
    return x[:, :-1]


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


def _b92_forms() -> np.ndarray:
    """(M_ab, M_ae) of each b92 input, shape (receiver, input, 8, 8), with
    F = psi^dag M psi on the two outputs stacked (8,): block k holds P_k x I
    for Bob (qubit 0) and I x P_k for Eve, with P_k the projector on input k."""
    forms = np.zeros((2, 2, 8, 8))
    for k, v in enumerate(B92_INPUTS.values()):
        p, block = np.outer(v, v), slice(4 * k, 4 * k + 4)
        forms[:, k, block, block] = np.kron(p, np.eye(2)), np.kron(np.eye(2), p)
    forms.flags.writeable = False  # shared by every row
    return forms


B92_FORMS = _b92_forms()


def ansatz_loss_and_grad(kind: str, forms: np.ndarray, f_targets, params: np.ndarray):
    """Losses 10 (F_AB - f)^2 - F_AE of a batch of ``kind`` ansaetze and
    their gradients.

    ``forms`` holds (M_ab, M_ae) on the flattened outputs psi of each
    trajectory: one pair (2, D, D), or one per trajectory (B, 2, D, D).
    ``f_targets`` holds the B Bob targets.  With F = psi^dag M psi and
    J = d psi / d theta (``ansatz_jacobian``), the gradient is
    2 Re(lam^dag J), with lam = 20 (F_AB - f) M_ab psi - M_ae psi.
    """
    states, jacobian = ansatz_jacobian(kind, params)
    psi = states.reshape(len(states), -1)
    m_psi = (forms @ psi[:, None, :, None])[..., 0]
    f_ab, f_ae = np.einsum("zd,zrd->rz", psi.conj(), m_psi).real
    lam = 20.0 * (f_ab - f_targets)[:, None] * m_psi[:, 0] - m_psi[:, 1]
    return loss(f_ab, f_ae, f_targets), 2.0 * np.einsum("zd,zdp->zp", lam.conj(), jacobian).real


def make_program_loss(forms: tuple, f_target: float):
    """Loss of the program-prep ansatz on the mean of fixed forms (M_ab, M_ae),
    and its gradient: one parameter set, a batch of one.  The objective runs
    the forward pass alone."""
    m_ab, m_ae = (m.mean(axis=0) for m in forms)
    pair, targets = np.stack([m_ab, m_ae]), np.array([f_target])

    def objective(params: np.ndarray) -> float:
        psi = program_prep_state(params)
        return loss(quadratic_fidelity(m_ab, psi), quadratic_fidelity(m_ae, psi), f_target)

    def gradient(params: np.ndarray) -> np.ndarray:
        return ansatz_loss_and_grad("program-prep", pair, targets, params)[1][0]

    return objective, gradient


def b92_qml_fidelities(parameters: np.ndarray) -> tuple[float, float]:
    """Average (F_AB, F_AE) of the ansatz over |0> and |+>, on the forward pass."""
    psi = ansatz_pass("b92", parameters).reshape(-1)
    f_ab, f_ae = (quadratic_fidelity(m, psi) for m in B92_FORMS.mean(axis=1))
    return f_ab, f_ae


def make_b92_loss(f_target: float):
    """Loss and gradient for the 18-parameter b92 ansatz: one parameter set, a
    batch of one.  The objective runs the forward pass alone."""
    pair, targets = B92_FORMS.mean(axis=1), np.array([f_target])

    def objective(params: np.ndarray) -> float:
        return loss(*b92_qml_fidelities(params), f_target)

    def gradient(params: np.ndarray) -> np.ndarray:
        return ansatz_loss_and_grad("b92", pair, targets, params)[1][0]

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


def b92_isometry(f: float):
    """The real 4x2 isometry W (Bob's qubit first) of largest F_AE at F_AB = f
    over the b92 inputs, and multipliers (lam, d) at which the dual
    2 lambda_max(C_ae + lam C_ab - d (Z + X) x I_4) - lam f, with
    F = vec(W)^T C vec(W), equals its F_AE (both NaN at f = 0 and 1).  The
    dual bounds F_AE over every isometry, so it certifies the row.

    Y on Bob's qubit maps F_AB to 1 - F_AB, so f < 1/2 mirrors 1 - f.  With
    b = 2 sqrt2 (f - 1/2) <= 1, Bob keeps cos t|0> + sin t|1> and Eve the
    input: F_AE = 1.  Above, the optimum is Hadamard-symmetric: W|0> = p + m
    and W|+> = p - m, with p = cos(pi/8) (cos x h+h+ + sin x h-h-) and
    m = sin(pi/8) (cos y h+h- + sin y h-h+) in the eigenvectors h+- of H, an
    isometry for every x, y.  With u = x + y, v = x - y and k = 1/sqrt2,
    F_AB = 1/2 + B / (2 sqrt2) and F_AE = 1/2 + J / (2 sqrt2), where
    B = cos u cos v - k sin u (1 + sin v) and J = k cos v (cos u - 1) -
    sin u sin v.  B = b gives u at each v in closed form, and bisection on
    v finds where J is stationary on that curve.
    """
    if f < 0.5:
        w, (lam, d) = b92_isometry(1 - f)
        return np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(2)) @ w, (-lam, d - lam / 4)
    b, k = 2 * math.sqrt(2) * (f - 0.5), 1 / math.sqrt(2)
    if b <= 1:
        t = math.pi / 8 + math.acos(b) / 2
        return np.kron([[math.cos(t)], [math.sin(t)]], np.eye(2)), (0.0, 0.25)

    def on_curve(v):
        """u at v, and J_u, J_v and B_u there; B_v = J_u."""
        r = math.hypot(math.cos(v), k * (1 + math.sin(v)))
        u = -math.atan2(k * (1 + math.sin(v)), math.cos(v)) - math.acos(min(b / r, 1.0))
        (cu, su), (cv, sv) = (math.cos(u), math.sin(u)), (math.cos(v), math.sin(v))
        return u, -k * su * cv - cu * sv, k * sv * (1 - cu) - su * cv, -su * cv - k * cu * (1 + sv)

    # the curve spans sin v >= 1 - sqrt(4 - 2 b^2), and J rises, then falls
    # along it, as the sign of J_v B_u - J_u B_v says
    lo = math.asin(1 - math.sqrt(max(4 - 2 * b * b, 0.0)))
    hi = math.pi - lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        _, j_u, j_v, b_u = on_curve(mid)
        lo, hi = (mid, hi) if j_v * b_u > j_u * j_u else (lo, mid)
    v = 0.5 * (lo + hi)
    u, j_u, _, b_u = on_curve(v)
    lam = -j_u / b_u if f < 1 else math.nan
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    hp, hm = np.array([c, s]), np.array([-s, c])
    x, y = (u + v) / 2, (u - v) / 2
    p = c * (math.cos(x) * np.kron(hp, hp) + math.sin(x) * np.kron(hm, hm))
    m = s * (math.cos(y) * np.kron(hp, hm) + math.sin(y) * np.kron(hm, hp))
    # the dual's stationarity along (H x H) W|0> = p - m, with C_ae + lam C_ab
    # on W|0> the diagonal of Eve's and Bob's projectors
    d = (p - m) @ ((p + m) * [1 + lam, lam, 1, 0]) / (2 * math.sqrt(2))
    return np.stack([p + m, math.sqrt(2) * (p - m) - (p + m)], axis=1), (lam, d)


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
    of the errors that harm a basis (``noisy_fidelity_1q`` at F = 0).
    """
    description, labels, lowest, eve_of = REFERENCE_FAMILIES[family]
    if channel is not None and channel.num_qubits != 1:
        raise ValueError("expected a single-qubit channel")
    probs = channel.probs if channel is not None else {}
    p_xyz = [probs.get(PauliString(x), 0.0) for x in "XYZ"]
    q = sum(noisy_fidelity_1q(0.0, b, *p_xyz) for b in labels) / len(labels)
    slope = 1 - 2 * q
    if abs(slope) <= 1e-12 and abs(f_ab_avg - 0.5) <= 1e-12:
        return 0.5  # q = 1/2 puts every cloner of the family at Bob = Eve = 1/2
    t = (f_ab_avg - q) / slope if abs(slope) > 1e-12 else math.nan
    if not -1e-12 <= t - lowest <= 1 - lowest + 1e-12:  # a NaN t fails too
        raise ValueError(f"no {description} cloner reaches {f_ab_avg}")
    return eve_of(min(max(t, lowest), 1.0)) * slope + q


# ---------------------------------------------------------------------------
# frontier sweeps


class SweepRow(Frozen):
    """One row of a sweep.  ``parameters`` holds the program amplitudes, or the
    compiled ansatz angles of twenty and b92 rows, and ``target_miss``
    |F_AB_avg - f_target| of an optimized row; both are None for reference
    rows."""

    __slots__ = (
        "f_target", "series", "label", "f_ab", "f_ae", "f_ab_avg", "f_ae_avg",
        "parameters", "target_miss",
    )
    _defaults = {"target_miss": None}

class SweepResult(Frozen):
    """A task's sweep rows, in the order they print."""

    __slots__ = ("task", "rows")

    def series(self, name: str, label: str | None = None) -> list[SweepRow]:
        return [
            r
            for r in self.rows
            if r.series == name and (label is None or r.label == label)
        ]


# per task: register size N of its cloners, and solver ("exact", or the
# ansatz its rows print)
_TASK_SPECS = {
    "bb84": (1, "exact"),
    "sixstate": (1, "exact"),
    "twenty": (2, "program-prep"),
    "b92": (1, "b92"),
    "pairs": (2, "exact"),
}
TASKS = tuple(_TASK_SPECS)


def task_num_clone_qubits(task: str) -> int:
    """Register size N of the task's cloners, and so of its channel."""
    return _TASK_SPECS[task][0]


def default_f_values(task: str) -> list[float]:
    if task == "pairs":
        return [0.75, 0.85]
    lo = 0.25 if task_num_clone_qubits(task) == 2 else 0.5
    return [round(float(f), 10) for f in np.arange(lo + 0.05, 1.0, 0.05)]


def _units(task: str) -> list[tuple]:
    """(cloner kind, basis labels, series, row label) of each exact series."""
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


def _optimized_series(task: str, f_values, channel):
    """Each optimized series of the task as (series, label, report_of,
    targets): the target states (F, K, D) of its rows, exact programs or the
    b92 isometries on their inputs, and the reader of a row's report from its
    flattened state."""
    if task == "b92":
        report_of = functools.partial(_forms_report, list(B92_INPUTS), B92_FORMS)
        yield "qml", "", report_of, np.array([_B92_INPUTS @ b92_isometry(f)[0].T for f in f_values])
        return
    n = task_num_clone_qubits(task)
    for kind, labels, series, label in _units(task):
        forms = fidelity_quadratic_forms(kind, n, [mubs_for(n)[x] for x in labels], channel)
        report_of = functools.partial(_forms_report, labels, forms)
        yield series, label, report_of, _exact_programs(forms, f_values, series, label)


def _exact_programs(forms, f_values, series, label) -> np.ndarray:
    """The exact frontier programs (F, 1, 4^N) at the Bob-fidelity targets on
    ``forms``, as ``fidelities --amplitudes`` takes them; a target outside
    the reachable Bob interval warns."""
    m_ab, m_ae = (m.mean(axis=0) for m in forms)
    reachable = np.linalg.eigvalsh(m_ab)[[0, -1]]
    programs = []
    for f in f_values:
        psi = exact_frontier_point(m_ab, m_ae, f)
        # eigensolver dust and -0 print as 0: every amplitude of at most
        # 1e-15 times the largest
        psi = np.where(np.abs(psi) <= 1e-15 * np.abs(psi).max(), 0.0, psi)
        if abs(quadratic_fidelity(m_ab, psi) - f) > 1e-9:
            msg = "%s %s f=%.3f: outside the reachable Bob interval [%.4f, %.4f]"
            _warn(msg, series, label, f, *reachable)
        programs.append(psi)
    return np.array(programs)[:, None]


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

    They are computed before the optimized rows, so bad inputs fail fast.
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
    task: str, f_values=None, channel: PauliChannel | None = None
) -> SweepResult:
    """Optimize the task's cloner family over a grid of Bob-fidelity targets.

    Emits one optimized row per target per series, plus the task's reference
    rows.  Every optimized row is exact, and all are built in one loop: a
    row prints its target state, or, on a task whose rows print angles, the
    compiled angles of its target (one ``compile_programs`` batch for the
    task, run forward once).  Each row reads its report from its state,
    warns when that lies more than ``FIT_BOUND`` from its target, and
    carries its miss.  No row depends on a seed or on the other targets.
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
    solver = _TASK_SPECS[task][1]

    rows = _reference_rows(task, f_values, channel)
    units = list(_optimized_series(task, f_values, channel))
    targets = [t for *_, t in units]
    if solver == "exact":
        params, states = [t[:, 0] for t in targets], targets
    else:
        # one batch for every target; fit dust (|angle| <= 1e-14) prints as 0
        thetas = compile_programs(solver, np.concatenate(targets))
        thetas[np.abs(thetas) <= 1e-14] = 0.0
        params = np.split(thetas, len(units))
        states = np.split(ansatz_pass(solver, thetas), len(units))
    for (series, label, report_of, target), row_params, row_states in zip(units, params, states):
        for f, a, psi, p in zip(f_values, target, row_states, row_params):
            overlap = np.vdot(a, psi)
            error = np.linalg.norm(psi - overlap / abs(overlap) * a)
            if not error <= FIT_BOUND:  # a NaN error fails too
                _warn("%s %s f=%.3f: compiled program off by %.2g", series, label, f, error)
            report = report_of(psi.reshape(-1))
            rows.append(_report_row(f, series, label, report, p, abs(report.f_ab_avg - f)))
    rows.sort(key=lambda r: (math.isnan(r.f_target), r.f_target, r.series, r.label))
    return SweepResult(task, tuple(rows))

