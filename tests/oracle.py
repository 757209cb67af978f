"""References for the tests: a gate-by-gate cloner and central differences.

Every input state and Kraus branch is simulated on its own: the program and
the (error-applied) input are injected into the 3N-qubit register, the
hardware circuit runs gate by gate, and the receivers' reduced states are
mixed with the branch weights.  ``central_difference`` is the derivative
reference for the adjoint gradients.
"""

import numpy as np

from paulicloner.cloner import ClonerLayout, build_cloner
from paulicloner.mub import index_to_pauli
from paulicloner.simcore import (
    apply_circuit,
    basis_state,
    inject_state,
    reduced_density_matrix,
)


def reference_reduced(kind, n, program, input_amps, channel=None):
    """Bob's and Eve's reduced states (as arrays) for one input vector."""
    lay = ClonerLayout(n)
    circuit = build_cloner(kind, n, program)
    branches = (
        [(np.eye(2**n), 1.0)]
        if channel is None
        else [(p.matrix(), w) for p, w in channel.branches()]
    )
    rho_b = np.zeros((2**n, 2**n), dtype=complex)
    rho_e = np.zeros_like(rho_b)
    for err, weight in branches:
        state = basis_state(lay.num_qubits, 0)
        state = inject_state(state, lay.software, program.amplitudes)
        state = inject_state(state, lay.alice, err @ input_amps)
        out = apply_circuit(state, circuit)
        rho_b += weight * reduced_density_matrix(out, lay.alice).matrix
        rho_e += weight * reduced_density_matrix(out, lay.eve).matrix
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
