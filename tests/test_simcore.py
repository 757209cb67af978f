import math
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from paulicloner.simcore import (
    GATE_ARITY,
    GATE_NAMES,
    ROTATION_GATES,
    Circuit,
    DensityMatrix,
    PAULIS,
    GateOp,
    StateVector,
    apply_circuit,
    apply_gates,
    apply_ops,
    basis_state,
    gate_inverses,
    gate_matrices,
    fidelity_pure,
    inject_state,
    reduced_density_matrix,
    rotation_block,
)

S2 = 1 / math.sqrt(2)


def random_circuit(rng, n, depth=12):
    gates = ["H", "X", "Z", "S", "RX", "RY", "RZ", "CNOT", "CCNOT", "CRY"]
    ops = []
    while len(ops) < depth:
        name = gates[rng.integers(len(gates))]
        arity = {"CNOT": 2, "CRY": 2, "CCNOT": 3}.get(name, 1)
        if arity > n:
            continue
        qubits = tuple(rng.choice(n, size=arity, replace=False).tolist())
        angle = float(rng.uniform(-math.pi, math.pi))
        needs_angle = name in ("RX", "RY", "RZ", "CRY")
        cv = int(rng.integers(2)) if name == "CRY" else 1
        ops.append(GateOp(name, qubits, angle if needs_angle else None, cv))
    return Circuit(n, tuple(ops))


def random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))


def projector(state):
    """|a><a| of a pure state a."""
    a = state.amplitudes
    return DensityMatrix(state.num_qubits, np.outer(a, a.conj()))


def inverse_circuit(circuit):
    """The gates in reverse order, each repeated and its angle negated as
    gate_inverses says."""
    ops = circuit.ops[::-1]
    repeats, angles = gate_inverses(
        [GATE_NAMES.index(op.name) for op in ops], [op.angle or 0.0 for op in ops]
    )
    inverse = [
        replace(op, angle=float(angle) if op.name in ROTATION_GATES else op.angle)
        for op, r, angle in zip(ops, repeats, angles)
        for _ in range(r)
    ]
    return Circuit(circuit.num_qubits, inverse)


class TestBasisState:
    def test_single_qubit_zero(self):
        np.testing.assert_array_equal(basis_state(1, 0).amplitudes, [1, 0])

    def test_two_qubit_index_three(self):
        np.testing.assert_array_equal(basis_state(2, 3).amplitudes, [0, 0, 0, 1])

    def test_four_qubit_index_five(self):
        amps = basis_state(4, 5).amplitudes
        assert amps[5] == 1 and np.count_nonzero(amps) == 1 and amps.size == 16

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(2, 4)
        with pytest.raises(ValueError):
            basis_state(2, -1)


class TestApplyCircuit:
    def test_hadamard(self):
        out = apply_circuit(basis_state(1, 0), Circuit(1, (GateOp("H", (0,)),)))
        np.testing.assert_allclose(out.amplitudes, [S2, S2], atol=1e-15)

    def test_cnot_flips_target(self):
        # |10>: control qubit 0 set, so target flips to give |11>
        out = apply_circuit(basis_state(2, 2), Circuit(2, (GateOp("CNOT", (0, 1)),)))
        np.testing.assert_allclose(out.amplitudes, basis_state(2, 3).amplitudes)

    def test_three_qubit_hardware_matches_matrix_product(self):
        # oracle: assemble the same circuit as one explicit 8x8 matrix product
        ops = (
            GateOp("H", (1,)),
            GateOp("CNOT", (0, 1)),
            GateOp("CNOT", (2, 0)),
            GateOp("CNOT", (1, 2)),
        )
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        i2 = np.eye(2)
        m_h1 = np.kron(np.kron(i2, h), i2)
        m_c01 = np.kron(cnot, i2)

        def cnot_matrix(control, target):
            m = np.zeros((8, 8))
            for idx in range(8):
                q = [(idx >> 2) & 1, (idx >> 1) & 1, idx & 1]
                q[target] ^= q[control]
                m[(q[0] << 2) | (q[1] << 1) | q[2], idx] = 1
            return m

        full = cnot_matrix(1, 2) @ cnot_matrix(2, 0) @ m_c01 @ m_h1
        rng = np.random.default_rng(0)
        state = random_state(rng, 3)
        got = apply_circuit(state, Circuit(3, ops))
        np.testing.assert_allclose(got.amplitudes, full @ state.amplitudes, atol=1e-12)

    def test_hardware_on_zero_program_leaves_input_alone(self):
        # program |00> on qubits 1, 2: qubit 0 passes through untouched
        ops = (
            GateOp("H", (1,)),
            GateOp("CNOT", (0, 1)),
            GateOp("CNOT", (2, 0)),
            GateOp("CNOT", (1, 2)),
        )
        rng = np.random.default_rng(1)
        alice = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alice /= np.linalg.norm(alice)
        state = inject_state(basis_state(3, 0), (0,), alice)
        out = apply_circuit(state, Circuit(3, ops))
        rho0 = reduced_density_matrix(out, (0,))
        np.testing.assert_allclose(
            rho0.matrix, np.outer(alice, alice.conj()), atol=1e-12
        )

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(basis_state(2, 0), Circuit(3, (GateOp("H", (0,)),)))


def dense_gate(gate, qubits, n):
    """The 2^n x 2^n operator of a gate on ``qubits``: G (x) I acting on qubits
    0..k-1, conjugated by the permutation matrix that puts the gate's i-th
    qubit, then the other qubits in ascending order, on qubit i."""
    full = np.kron(gate, np.eye(2 ** (n - len(qubits))))
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    perm = np.zeros((2**n, 2**n))
    for x in range(2**n):
        y = sum(((x >> (n - 1 - q)) & 1) << (n - 1 - i) for i, q in enumerate(order))
        perm[y, x] = 1
    return perm.T @ full @ perm


class TestGateKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_gate_and_qubit_tuple_against_dense_operators(self, n):
        rng = np.random.default_rng(50 + n)
        for arity in range(1, min(n, 3) + 1):
            ops = [
                GateOp(name, qubits, rng.uniform(-math.pi, math.pi), control_value)
                if name in ROTATION_GATES
                else GateOp(name, qubits)
                for name in GATE_NAMES
                if GATE_ARITY[name] == arity
                for control_value in ((0, 1) if name == "CRY" else (1,))
                for qubits in permutations(range(n), arity)
            ]
            states = rng.standard_normal((len(ops), 2**n)) + 1j * rng.standard_normal(
                (len(ops), 2**n)
            )
            matrices = np.array([op.matrix() for op in ops])
            gates = [GATE_NAMES.index(op.name) for op in ops]
            angles = [op.angle or 0.0 for op in ops]
            controls = [op.control_value for op in ops]
            np.testing.assert_array_equal(gate_matrices(gates, angles, controls), matrices)
            # one mixed stack of every gate of this arity on every qubit tuple
            stack = apply_gates(states, matrices, [op.qubits for op in ops])
            for op, psi, got in zip(ops, states, stack):
                want = dense_gate(op.matrix(), op.qubits, n) @ psi
                alone = apply_gates(psi[None], op.matrix()[None], [op.qubits])[0]
                np.testing.assert_allclose(alone, want, rtol=0, atol=1e-15)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
                np.testing.assert_array_equal(got, alone)
                np.testing.assert_array_equal(apply_ops(psi, n, [op]), alone)


class TestRotations:
    def test_gate_matrices_are_the_closed_forms(self):
        for angle in np.random.default_rng(40).uniform(-10, 10, 50):
            c, s = math.cos(angle / 2), math.sin(angle / 2)
            e = np.exp(-0.5j * angle)
            closed = {
                "RX": [[c, -1j * s], [-1j * s, c]],
                "RY": [[c, -s], [s, c]],
                "RZ": [[e, 0], [0, e.conjugate()]],
            }
            for name, want in closed.items():
                got = GateOp(name, (0,), angle).matrix()
                np.testing.assert_array_equal(got, np.array(want, dtype=complex))
            ry = np.array(closed["RY"], dtype=complex)
            for control_value, block in ((1, slice(2, 4)), (0, slice(0, 2))):
                want = np.eye(4, dtype=complex)
                want[block, block] = ry
                got = GateOp("CRY", (0, 1), angle, control_value).matrix()
                np.testing.assert_array_equal(got, want)
        fixed = {
            "H": [[S2, S2], [S2, -S2]],
            "X": [[0, 1], [1, 0]],
            "Z": [[1, 0], [0, -1]],
            "S": [[1, 0], [0, 1j]],
            "CNOT": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            "CCNOT": [
                [1, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, 0, 0, 1, 0],
            ],
        }
        for name, want in fixed.items():
            qubits = tuple(range(len(want).bit_length() - 1))
            got = GateOp(name, qubits).matrix()
            np.testing.assert_array_equal(got, np.array(want, dtype=complex))
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 0  # matrix() hands out read-only arrays

    def test_batched_rotations_match_scalar_ones(self):
        angles = np.random.default_rng(41).uniform(-4, 4, (5, 4, 3))
        batch = rotation_block(angles)
        for idx in np.ndindex(5, 4):
            np.testing.assert_array_equal(batch[idx], rotation_block(angles[idx]))

    def test_blocks_and_derivatives(self):
        angles = np.random.default_rng(42).uniform(-4, 4, (6, 3))
        x, y, z = (PAULIS[p] for p in "XYZ")
        for block, (a, b, c) in zip(rotation_block(angles), angles):
            gates = (("RZ", c), ("RY", b), ("RX", a))
            rz, ry, rx = (GateOp(n, (0,), t).matrix() for n, t in gates)
            np.testing.assert_allclose(block, rz @ ry @ rx, atol=1e-15)
            # each angle's derivative is -i/2 H U for its generator H
            generators = (block @ x @ block.conj().T, rz @ y @ rz.conj().T, z)
            for g, h in enumerate(generators):
                # d/dt exp(-i t P / 2) = (U(t + pi) - U(t - pi)) / 4 exactly
                shift = np.zeros(3)
                shift[g] = math.pi
                plus = rotation_block(np.array([a, b, c]) + shift)
                minus = rotation_block(np.array([a, b, c]) - shift)
                want = (plus - minus) / 4
                np.testing.assert_allclose(-0.5j * h @ block, want, atol=1e-15)


class TestPartialTrace:
    """reduced_density_matrix traces a pure state down to the kept qubits."""

    def test_bell_state_is_maximally_mixed(self):
        bell = StateVector(2, np.array([S2, 0, 0, S2]))
        rho = reduced_density_matrix(bell, {0})
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(2)
        state = random_state(rng, 2)
        np.testing.assert_allclose(
            reduced_density_matrix(state, {0, 1}).matrix,
            projector(state).matrix,
            atol=1e-14,
        )

    def test_product_state(self):
        state = StateVector(2, np.array([S2, S2, 0, 0]))  # |0> (x) |+>
        rho = reduced_density_matrix(state, {1})
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-14)

    def test_empty_keep_rejected(self):
        bell = StateVector(2, np.array([S2, 0, 0, S2]))
        with pytest.raises(ValueError):
            reduced_density_matrix(bell, set())

    def test_trace_preserved_and_product_factor_recovered(self):
        rng = np.random.default_rng(3)
        a, b = random_state(rng, 2), random_state(rng, 1)
        joint = StateVector(3, np.kron(a.amplitudes, b.amplitudes))
        rho_a = reduced_density_matrix(joint, {0, 1})
        np.testing.assert_allclose(rho_a.matrix, projector(a).matrix, atol=1e-12)
        assert abs(np.trace(rho_a.matrix) - 1) < 1e-12


class TestFidelityPure:
    def test_pure_match(self):
        zero = basis_state(1, 0)
        assert fidelity_pure(projector(zero), zero) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        rng = np.random.default_rng(4)
        assert fidelity_pure(rho, random_state(rng, 1)) == pytest.approx(0.5)
        rho2 = DensityMatrix(2, np.eye(4) / 4)
        assert fidelity_pure(rho2, random_state(rng, 2)) == pytest.approx(0.25)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure(DensityMatrix(1, np.eye(2) / 2), basis_state(2, 0))

    def test_linear_in_rho_and_phase_invariant(self):
        rng = np.random.default_rng(5)
        a, b = random_state(rng, 2), random_state(rng, 2)
        psi = random_state(rng, 2)
        lam = 0.3
        mixed = DensityMatrix(
            2, lam * projector(a).matrix + (1 - lam) * projector(b).matrix
        )
        expect = lam * fidelity_pure(projector(a), psi) + (1 - lam) * fidelity_pure(
            projector(b), psi
        )
        assert fidelity_pure(mixed, psi) == pytest.approx(expect, abs=1e-12)
        phased = StateVector(2, np.exp(0.7j) * psi.amplitudes)
        assert fidelity_pure(mixed, phased) == pytest.approx(
            fidelity_pure(mixed, psi), abs=1e-12
        )


class TestInjectState:
    def test_basis_program(self):
        out = inject_state(basis_state(2, 0), (0, 1), [1, 0, 0, 0])
        np.testing.assert_array_equal(out.amplitudes, basis_state(2, 0).amplitudes)

    def test_basis_vector_on_inner_register(self):
        amps = np.zeros(16)
        amps[5] = 1.0  # register pattern 0101
        out = inject_state(basis_state(6, 0), (2, 3, 4, 5), amps)
        # qubits (2,3,4,5) = (0,1,0,1) with qubits 0, 1 still zero
        expect_index = 0b000101
        assert out.amplitudes[expect_index] == 1

    def test_matches_rotation_preparation(self):
        # oracle: the three-rotation software block applied to |00>
        from paulicloner.cloner import NgAngles, ng_software_prep_circuit

        angles = NgAngles(math.pi / 4, math.pi / 4, math.pi / 4)
        prep = apply_circuit(basis_state(2, 0), ng_software_prep_circuit(angles))
        injected = inject_state(basis_state(2, 0), (0, 1), prep.amplitudes)
        np.testing.assert_allclose(injected.amplitudes, prep.amplitudes, atol=1e-14)
        cr = math.cos(math.pi / 4)
        expect = np.array(
            [cr * cr, cr * math.sin(math.pi / 4), math.sin(math.pi / 4) * cr, 0]
        )
        expect[3] = math.sin(math.pi / 4) * math.sin(math.pi / 4)
        np.testing.assert_allclose(prep.amplitudes, expect, atol=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            inject_state(basis_state(2, 0), (0, 1), [1, 1, 0, 0])

    def test_rejects_occupied_register(self):
        occupied = basis_state(2, 1)
        with pytest.raises(ValueError):
            inject_state(occupied, (1,), [1, 0])


class TestInvariants:
    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            circuit = random_circuit(rng, n)
            out = apply_circuit(random_state(rng, n), circuit)
            assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-10

    def test_circuit_inverse_returns_input(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            circuit = random_circuit(rng, n)
            state = random_state(rng, n)
            back = apply_circuit(apply_circuit(state, circuit), inverse_circuit(circuit))
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)


class TestValidation:
    def test_state_vector_must_be_normalized(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, np.nan]))

    def test_density_matrix_checks(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(1, np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(1, np.diag([1.5, -0.5]))  # negative eigenvalue
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[np.nan, 0], [0, np.nan]]))
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_gate_op_validation(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (0, 0))
        with pytest.raises(ValueError):
            GateOp("RY", (0,))
        with pytest.raises(ValueError):
            GateOp("FOO", (0,))

    def test_amplitudes_are_read_only(self):
        state = basis_state(2, 1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    def test_state_vector_copies_the_callers_array(self):
        # a later write by the caller must not reach the validated state
        amps = np.array([1, 0, 0, 0], dtype=complex)
        state = StateVector(2, amps)
        amps[:] = [0, 0, 0, 5]
        assert state.amplitudes.tolist() == [1, 0, 0, 0]
        assert np.linalg.norm(state.amplitudes) == 1.0

    def test_density_matrix_leaves_the_callers_array_writable(self):
        # the matrix is copied: the caller's array stays writable and its own
        m = np.diag([1.0, 0.0]).astype(complex)
        rho = DensityMatrix(1, m)
        m[:] = np.diag([0.0, 1.0])
        assert m.flags.writeable
        assert rho.matrix.tolist() == [[1, 0], [0, 0]]
        assert not rho.matrix.flags.writeable
