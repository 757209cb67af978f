"""References for the tests: a gate-by-gate cloner and central differences.

Every input state and Kraus branch is simulated on its own: the program and
the (error-applied) input are injected into the 3N-qubit register, the
hardware circuit runs gate by gate, and the receivers' reduced states are
mixed with the branch weights.  ``reference_unitary`` is the hardware's dense
matrix, built column by column, one simulator run per basis column.
``reference_ng_closed_form`` is the NG closed form by direct XOR gathers.
``einsum_cloner_outputs`` and ``einsum_transfer_matrices`` are the engine's
contractions written as plain einsums through that dense matrix, the
reference for the engine's gathers and matmuls.
``central_difference`` is the derivative reference for the adjoint
gradients, and ``pareto_filter`` the non-dominated subset of frontier points.
"""

import math
from functools import lru_cache

import numpy as np

from paulicloner.cloner import SoftwareState, build_cloner
from paulicloner.mub import index_to_pauli, pauli_matrices, pauli_to_index
from paulicloner.simcore import (
    apply_circuit,
    apply_ops,
    basis_state,
    inject_state,
    reduced_density_matrix,
)


@lru_cache(maxsize=None)
def reference_unitary(kind, n):
    """The cloner hardware's read-only 2^(3N) x 2^(3N) unitary, one column per run."""
    circuit = build_cloner(kind, n, SoftwareState.computational(n))
    columns = np.eye(2**circuit.num_qubits, dtype=complex)
    u = np.stack([apply_ops(c, circuit.num_qubits, circuit.ops) for c in columns], axis=1)
    u.flags.writeable = False
    return u


def reference_reduced(kind, n, program, input_amps, channel=None):
    """Bob's and Eve's reduced states (as arrays) for one input vector."""
    alice, eve, software = range(n), range(n, 2 * n), range(n, 3 * n)
    circuit = build_cloner(kind, n, program)
    branches = (
        [(np.eye(2**n), 1.0)]
        if channel is None
        else [(p.matrix(), w) for p, w in channel.branches()]
    )
    rho_b = np.zeros((2**n, 2**n), dtype=complex)
    rho_e = np.zeros_like(rho_b)
    for err, weight in branches:
        state = basis_state(3 * n, 0)
        state = inject_state(state, software, program.amplitudes)
        state = inject_state(state, alice, err @ input_amps)
        out = apply_circuit(state, circuit)
        rho_b += weight * reduced_density_matrix(out, alice).matrix
        rho_e += weight * reduced_density_matrix(out, eve).matrix
    return rho_b, rho_e


def reference_fidelities(kind, n, program, input_amps, channel=None):
    """(F_AB, F_AE) = <psi| rho |psi> for one input vector."""
    v = np.asarray(input_amps, dtype=complex)
    rho_b, rho_e = reference_reduced(kind, n, program, v, channel)
    return float(np.real(v.conj() @ rho_b @ v)), float(np.real(v.conj() @ rho_e @ v))


def reference_transfer_matrix(kind, n, program):
    """R[i, j] = Tr[P_i L(P_j)] / 2^N, with L(P_j) assembled from Bob's
    reduced states for the eigenvectors of P_j."""
    paulis = [index_to_pauli(j, n).matrix() for j in range(4**n)]
    r = np.empty((len(paulis), len(paulis)), dtype=complex)
    for j, pj in enumerate(paulis):
        vals, vecs = np.linalg.eigh(pj)
        image = sum(
            val * reference_reduced(kind, n, program, vecs[:, m])[0]
            for m, val in enumerate(vals)
        )
        for i, pi in enumerate(paulis):
            r[i, j] = np.trace(pi @ image) / 2**n
    return r


def reference_ng_closed_form(columns, bases):
    """Bob's and Eve's NG fidelities, each (basis, program), of program columns
    (4^N, P) by direct XOR gathers: F_AB = sum_s |a_s|^2 and
    F_AE = (1 + sum_{s > 0} sum_i Re(conj(a_{i^s}) a_i)) / 2^N over the
    stabilizer indices s of each basis.  Builds two (P, 4^N, 4^N) arrays."""
    stabilizes = np.array([b.invariant_mask for b in bases], dtype=float)
    a = np.asarray(columns).T  # (P, 4^N)
    xor = np.arange(a.shape[1]) ^ np.arange(a.shape[1])[:, None]  # [s, i] = i^s
    overlap = (a[:, xor].conj() * a[:, None]).real.sum(axis=2)  # (P, s)
    masked_sum = lambda values, masks: sum(m[:, None] * v for v, m in zip(values.T, masks.T))
    f_ae = (1 + masked_sum(overlap[:, 1:], stabilizes[:, 1:])) / math.isqrt(a.shape[1])
    return masked_sum(np.abs(a) ** 2, stabilizes), f_ae


def einsum_cloner_outputs(kind, n, programs, states, channel=None):
    """``cloner.cloner_outputs`` through the dense unitary, V = U (I (x) psi)
    and V's products with the inputs, as einsums: axes (Bob, Eve, ancilla,
    program, branch, state)."""
    d = 2**n
    if channel is None:
        errors, weights = np.eye(d)[None], np.ones(1)
    else:
        branches = channel.branches()
        errors = pauli_matrices(n)[[pauli_to_index(p) for p, _ in branches]]
        weights = np.array([w for _, w in branches])
    u = reference_unitary(kind, n).reshape(-1, d, d * d)
    v = np.einsum("rij,jp->rpi", u, programs)
    inputs = np.einsum("kab,sb->aks", errors, states)
    out = np.einsum("rpi,iks->rpks", v, inputs)
    return out.reshape(d, d, d, *out.shape[1:]), weights


def einsum_transfer_matrices(kind, n, programs):
    """``cloner.bob_pauli_transfer_matrices`` as einsums: axes (program, i, j)."""
    dim = 2**n
    out, _ = einsum_cloner_outputs(kind, n, programs, np.eye(dim))
    s = out[..., 0, :].reshape(dim, -1, programs.shape[1], dim)
    cross = np.einsum("aepk,bepl->pklab", s, s.conj())
    paulis = pauli_matrices(n)
    images = np.einsum("jkl,pklab->pjab", paulis, cross)
    return np.einsum("iab,pjba->pij", paulis, images) / dim


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


def pareto_filter(points) -> list[tuple[float, float]]:
    """Keep (x, y) points not dominated by any other point."""
    pts = sorted(points, key=lambda p: (-p[0], -p[1]))
    out, best_y = [], -math.inf
    for x, y in pts:
        if y > best_y:
            out.append((x, y))
            best_y = y
    return out[::-1]
