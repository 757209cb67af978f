import math

import numpy as np
import pytest

from paulicloner.mub import (
    MubBasis,
    MubSet,
    PauliString,
    TWO_QUBIT_ERROR_ROWS,
    action_table,
    commuting_classes,
    index_to_pauli,
    invariant_paulis,
    mub_prep_circuit,
    mubs_for,
    pauli_action,
    pauli_matrices,
    pauli_to_index,
    single_qubit_mubs,
    two_qubit_mubs,
    unbiasedness_deviation,
)
from paulicloner.simcore import StateVector, apply_circuit, basis_state

S2 = 1 / math.sqrt(2)

# the published 0/1 grid: rows are the error triplets, columns M0 .. M4
EXPECTED_TABLE_2Q = np.array(
    [
        [1, 0, 1, 1, 1],
        [1, 1, 1, 1, 0],
        [1, 1, 0, 1, 1],
        [0, 1, 1, 1, 1],
        [1, 1, 1, 0, 1],
    ]
)


class TestSingleQubitMubs:
    def test_basis_order_and_states(self):
        mubs = single_qubit_mubs()
        assert mubs.labels == ("Z", "X", "Y")
        np.testing.assert_allclose(mubs["X"].states[0].amplitudes, [S2, S2])
        np.testing.assert_allclose(mubs["Y"].states[1].amplitudes, [S2, -1j * S2])

    def test_unknown_label_names_the_bases(self):
        with pytest.raises(ValueError, match="choose from Z, X, Y"):
            single_qubit_mubs()["Q"]

    def test_cross_basis_overlap(self):
        mubs = single_qubit_mubs()
        for a in mubs["Z"].states:
            for b in mubs["X"].states:
                assert abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 == pytest.approx(
                    0.5, abs=1e-12
                )


class TestTwoQubitMubs:
    def test_printed_first_columns(self):
        mubs = two_qubit_mubs()
        np.testing.assert_allclose(
            mubs["M1"].states[0].amplitudes, np.array([1, 1, 1, 1]) / 2
        )
        np.testing.assert_allclose(
            mubs["M2"].states[0].amplitudes, np.array([1, -1, 1j, 1j]) / 2
        )

    def test_all_cross_basis_overlaps(self):
        mubs = two_qubit_mubs()
        for i, a in enumerate(mubs.bases):
            for b in mubs.bases[i + 1 :]:
                for sa in a.states:
                    for sb in b.states:
                        ov = abs(np.vdot(sa.amplitudes, sb.amplitudes)) ** 2
                        assert ov == pytest.approx(0.25, abs=1e-12)


class TestPrepCircuits:
    def test_basis_zero_is_identity(self):
        assert mub_prep_circuit(0).ops == ()

    def test_basis_one_is_double_hadamard(self):
        ops = mub_prep_circuit(1).ops
        assert [op.name for op in ops] == ["H", "H"]

    def test_basis_three_adds_phase_gates(self):
        assert [op.name for op in mub_prep_circuit(3).ops] == ["H", "H", "S", "S"]

    def test_circuits_prepare_the_printed_states(self):
        mubs = two_qubit_mubs()
        for idx, basis in enumerate(mubs.bases):
            circuit = mub_prep_circuit(idx)
            for k, ref in enumerate(basis.states):
                got = apply_circuit(basis_state(2, k), circuit).amplitudes
                phase = np.vdot(ref.amplitudes, got)
                assert abs(abs(phase) - 1) < 1e-12
                np.testing.assert_allclose(got, phase * ref.amplitudes, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            mub_prep_circuit(5)


class TestPauliAction:
    def test_xi_permutes_computational_pairs(self):
        # X on qubit 0 flips the most significant index bit
        act = pauli_action(PauliString("XI"), two_qubit_mubs()["M0"])
        assert act.kind == "permutation"
        assert act.permutation == (2, 3, 0, 1)

    def test_ix_permutes_neighbours(self):
        act = pauli_action(PauliString("IX"), two_qubit_mubs()["M0"])
        assert act.permutation == (1, 0, 3, 2)

    def test_zz_invariant_on_computational(self):
        act = pauli_action(PauliString("ZZ"), two_qubit_mubs()["M0"])
        assert act.is_invariant
        np.testing.assert_allclose(act.phases, [1, -1, -1, 1])

    def test_xx_invariant_on_m1(self):
        assert pauli_action(PauliString("XX"), two_qubit_mubs()["M1"]).is_invariant

    def test_error_rows_are_fixed_point_free_involutions(self):
        mubs = two_qubit_mubs()
        for row, bits in zip(TWO_QUBIT_ERROR_ROWS, EXPECTED_TABLE_2Q):
            for p in row:
                for basis, bit in zip(mubs.bases, bits):
                    act = pauli_action(p, basis)
                    if bit:
                        perm = act.permutation
                        assert all(perm[perm[k]] == k for k in range(4))
                        assert all(perm[k] != k for k in range(4))

    def test_phases_are_consistent(self):
        # P |b_k> must equal phases[k] |b_perm[k]> exactly
        mubs = two_qubit_mubs()
        for p in (PauliString("XZ"), PauliString("YI"), PauliString("XY")):
            for basis in mubs.bases:
                act = pauli_action(p, basis)
                u = p.matrix()
                for k, st in enumerate(basis.states):
                    lhs = u @ st.amplitudes
                    rhs = act.phases[k] * basis.states[act.permutation[k]].amplitudes
                    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pauli_action(PauliString("X"), two_qubit_mubs()["M0"])


class TestActionTable:
    def test_single_qubit_zero_diagonal(self):
        np.testing.assert_array_equal(
            action_table(1), np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        )

    def test_two_qubit_matches_published_grid(self):
        np.testing.assert_array_equal(action_table(2), EXPECTED_TABLE_2Q)

    def test_row_two_and_column_m0(self):
        table = action_table(2)
        np.testing.assert_array_equal(table[1], [1, 1, 1, 1, 0])
        np.testing.assert_array_equal(table[:, 0], [1, 1, 1, 0, 1])

    def test_consistency_with_per_error_classification(self):
        # re-derive the grid one error at a time
        mubs = two_qubit_mubs()
        for r, row in enumerate(TWO_QUBIT_ERROR_ROWS):
            for p in row:
                for c, basis in enumerate(mubs.bases):
                    bit = 0 if pauli_action(p, basis).is_invariant else 1
                    assert bit == EXPECTED_TABLE_2Q[r, c]

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            action_table(3)

    def test_reads_each_basis_mask(self, monkeypatch):
        # the table is read from invariant_mask; a row that disagrees raises
        cached = MubBasis.invariant_mask

        def ix_fixes_m0(basis):
            mask = cached.__get__(basis).copy()
            if basis.num_qubits == 2 and basis.label == "M0":
                mask[pauli_to_index(PauliString("IX"))] = True
            return mask

        monkeypatch.setattr(MubBasis, "invariant_mask", property(ix_fixes_m0))
        np.testing.assert_array_equal(
            action_table(1), np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        )
        with pytest.raises(RuntimeError, match="^errors XX, IX, XI disagree on basis M0$"):
            action_table(2)


class TestCommutingClasses:
    def test_single_qubit(self):
        assert commuting_classes(1) == [
            (PauliString("X"),),
            (PauliString("Y"),),
            (PauliString("Z"),),
        ]

    def test_two_qubit_matches_table_rows(self):
        assert commuting_classes(2) == [tuple(r) for r in TWO_QUBIT_ERROR_ROWS]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_partition_and_group_law(self, n):
        classes = commuting_classes(n)
        assert len(classes) == 2**n + 1
        seen = set()
        for cls in classes:
            assert len(cls) == 2**n - 1
            idx = {pauli_to_index(p) for p in cls}
            assert not (idx & seen)
            seen |= idx
            group = idx | {0}
            for u in group:
                for v in group:
                    assert (u ^ v) in group  # closure, and u^u = 0 covers squares
        assert seen == set(range(1, 4**n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_members_commute_as_matrices(self, n):
        # independent oracle: matrix commutators, not the symplectic form
        for cls in commuting_classes(n):
            mats = [p.matrix() for p in cls]
            for i, a in enumerate(mats):
                for b in mats[i + 1 :]:
                    np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            commuting_classes(4)


class TestStabilizerStructure:
    def test_each_basis_has_exactly_three_stabilizers(self):
        mubs = two_qubit_mubs()
        for basis in mubs.bases:
            count = sum(
                pauli_action(index_to_pauli(j, 2), basis).is_invariant
                for j in range(1, 16)
            )
            assert count == 3

    def test_index_encoding_round_trip(self):
        for j in range(64):
            assert pauli_to_index(index_to_pauli(j, 3)) == j

    def test_encoding_convention(self):
        # high bits carry Z, low bits X, qubit 0 most significant
        assert pauli_to_index(PauliString("ZI")) == 0b1000
        assert pauli_to_index(PauliString("IX")) == 0b0001
        assert pauli_to_index(PauliString("YI")) == 0b1010


class TestPauliString:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauliString("")
        with pytest.raises(ValueError):
            PauliString("XQ")

    def test_matrix(self):
        xz = PauliString("XZ").matrix()
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1, -1])
        np.testing.assert_array_equal(xz, np.kron(x, z))


def tilted_basis(angle: float) -> MubBasis:
    """Real single-qubit basis rotated by ``angle`` away from Z."""
    c, s = math.cos(angle), math.sin(angle)
    return MubBasis("T", (StateVector(1, [c, s]), StateVector(1, [-s, c])))


class TestBatchedPauliStructure:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_stack_is_read_only_and_ordered(self, n):
        mats = pauli_matrices(n)
        assert not mats.flags.writeable
        for j in range(4**n):
            np.testing.assert_array_equal(mats[j], index_to_pauli(j, n).matrix())

    @pytest.mark.parametrize("n", [1, 2])
    def test_invariance_mask_matches_pauli_action(self, n):
        for basis in mubs_for(n).bases:
            expect = [
                pauli_action(index_to_pauli(j, n), basis).is_invariant
                for j in range(4**n)
            ]
            assert invariant_paulis(basis).tolist() == expect

    def test_non_ray_map_raises(self):
        with pytest.raises(ValueError, match="onto a basis ray"):
            invariant_paulis(tilted_basis(0.3))


class TestUnbiasedness:
    @pytest.mark.parametrize("n", [1, 2])
    def test_mub_sets_are_unbiased(self, n):
        assert unbiasedness_deviation(mubs_for(n).bases, n) < 1e-12

    def test_biased_pair_deviation_and_rejection(self):
        z = single_qubit_mubs()["Z"]
        tilted = tilted_basis(0.3)
        expect = abs(math.cos(0.3) ** 2 - 0.5)
        dev = unbiasedness_deviation([z, tilted], 1)
        assert dev == pytest.approx(expect, abs=1e-15)
        with pytest.raises(ValueError, match="not unbiased"):
            MubSet(1, (z, tilted))
