import math
import tracemalloc

import numpy as np
import pytest
from fresh_process import run_python
from oracle import (
    einsum_cloner_outputs,
    einsum_transfer_matrices,
    reference_fidelities,
    reference_reduced,
    reference_transfer_matrix,
    reference_unitary,
)

from paulicloner import cli, cloner, simcore
from paulicloner.analytic import (
    qid_closed_form,
    qid_uqcm_program_2q,
    table1_angles,
    uqcm_program_ng,
)
from paulicloner.cloner import (
    ClonerKind,
    NgAngles,
    SoftwareState,
    b92_fidelities,
    b92_per_state_fidelities,
    bob_pauli_transfer_matrices,
    bob_pauli_transfer_matrix,
    build_cloner,
    build_ng,
    build_qid_1q,
    build_qid_2q,
    clone_fidelities,
    clone_output_reduced,
    cloner_unitary,
    fidelity_columns,
    fidelity_matrices,
    ng_angles_to_program,
    ng_software_prep_circuit,
    resolve_bases,
    state_rows,
)
from paulicloner.mub import PauliString, index_to_pauli, mubs_for
from paulicloner.noise import PauliChannel, parse_channel_spec
from paulicloner.simcore import Circuit, GateOp, StateVector, apply_circuit, basis_state


def random_program(rng, n, complex_amps=False):
    v = rng.standard_normal(4**n)
    if complex_amps:
        v = v + 1j * rng.standard_normal(4**n)
    return SoftwareState(v / np.linalg.norm(v))


def random_input(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))


class TestNgAngles:
    def test_zero_angles_give_e0(self):
        np.testing.assert_allclose(
            ng_angles_to_program(NgAngles(0.0, 0.3, 0.0)).amplitudes, [1, 0, 0, 0]
        )

    def test_right_angles_give_e3(self):
        prog = ng_angles_to_program(NgAngles(math.pi / 2, math.pi / 2, 0.7))
        np.testing.assert_allclose(prog.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_matches_rotation_block_simulation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            angles = NgAngles(*rng.uniform(-math.pi, math.pi, 3))
            direct = ng_angles_to_program(angles).amplitudes
            simulated = apply_circuit(
                basis_state(2, 0), ng_software_prep_circuit(angles)
            ).amplitudes
            np.testing.assert_allclose(direct, simulated, atol=1e-12)


class TestSoftwareState:
    @pytest.mark.parametrize(
        "amps", [[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, np.nan], [np.nan] * 4]
    )
    def test_rejects_unnormalized_and_nan(self, amps):
        with pytest.raises(ValueError, match="not normalized"):
            SoftwareState(np.array(amps))

    def test_copies_the_callers_array(self):
        # a later write by the caller must not reach the validated state
        amps = np.array([1, 0, 0, 0], dtype=complex)
        program = SoftwareState(amps)
        amps[:] = [0, 0, 0, 5]
        assert program.amplitudes.tolist() == [1, 0, 0, 0]
        assert np.linalg.norm(program.amplitudes) == 1.0
        assert amps.flags.writeable and not program.amplitudes.flags.writeable


class TestBuildNg:
    def test_single_qubit_gate_list(self):
        ops = build_ng(1).ops
        assert [(op.name, op.qubits) for op in ops] == [
            ("H", (1,)),
            ("CNOT", (0, 1)),
            ("CNOT", (2, 0)),
            ("CNOT", (1, 2)),
        ]

    def test_two_qubit_gate_list(self):
        ops = build_ng(2).ops
        assert [(op.name, op.qubits) for op in ops] == [
            ("H", (2,)),
            ("H", (3,)),
            ("CNOT", (0, 2)),
            ("CNOT", (1, 3)),
            ("CNOT", (4, 0)),
            ("CNOT", (5, 1)),
            ("CNOT", (2, 4)),
            ("CNOT", (3, 5)),
        ]

    def test_e0_program_bob_perfect(self):
        report = clone_fidelities(ClonerKind.NG, 1, SoftwareState.computational(1))
        for lbl in "ZXY":
            assert report.f_ab[lbl] == pytest.approx(1.0, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(0.5, abs=1e-12)

    def test_two_qubit_e0_bob_perfect_everywhere(self):
        report = clone_fidelities(ClonerKind.NG, 2, SoftwareState.computational(2))
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == pytest.approx(1.0, abs=1e-12)
            # Eve is left with a maximally mixed register
            assert report.f_ae[lbl] == pytest.approx(0.25, abs=1e-12)

    def test_two_qubit_e1_protects_m1(self):
        # amplitude on index 1 drives an X error on Alice's second qubit,
        # which M1 alone survives
        report = clone_fidelities(ClonerKind.NG, 2, SoftwareState.computational(2, 1))
        assert report.f_ab["M1"] == pytest.approx(1.0, abs=1e-12)
        for lbl in ("M0", "M2", "M3", "M4"):
            assert report.f_ab[lbl] == pytest.approx(0.0, abs=1e-12)

    def test_program_length_mismatch(self):
        with pytest.raises(ValueError):
            build_cloner(ClonerKind.NG, 2, SoftwareState.computational(1))


class TestBuildQid:
    def test_single_qubit_gate_list(self):
        ops = build_qid_1q().ops
        assert [(op.name, op.qubits) for op in ops] == [
            ("CNOT", (0, 1)),
            ("CNOT", (0, 2)),
            ("CNOT", (1, 0)),
            ("CNOT", (2, 0)),
        ]

    def test_two_qubit_gate_list(self):
        ops = build_qid_2q().ops
        assert [(op.name, op.qubits) for op in ops] == [
            ("CNOT", (1, 3)),
            ("CCNOT", (0, 2, 3)),
            ("CNOT", (0, 2)),
            ("CNOT", (1, 5)),
            ("CCNOT", (0, 4, 5)),
            ("CNOT", (0, 4)),
            ("X", (0,)),
            ("X", (1,)),
            ("CNOT", (3, 1)),
            ("CCNOT", (0, 2, 1)),
            ("CNOT", (2, 0)),
            ("X", (0,)),
            ("X", (1,)),
            ("CNOT", (5, 1)),
            ("CCNOT", (0, 4, 1)),
            ("CNOT", (4, 0)),
        ]

    def test_e0_is_the_cnot_cloner(self):
        report = clone_fidelities(ClonerKind.QID, 1, SoftwareState.computational(1))
        assert report.f_ab["Z"] == pytest.approx(1.0, abs=1e-12)
        assert report.f_ae["Z"] == pytest.approx(1.0, abs=1e-12)
        for lbl in "XY":
            assert report.f_ab[lbl] == pytest.approx(0.5, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(0.5, abs=1e-12)

    def test_pccm_point(self):
        prog = qid_closed_form("pccm", phi=math.pi / 4).to_program()
        report = clone_fidelities(ClonerKind.QID, 1, prog)
        expect = (1 + math.cos(math.pi / 4)) / 2
        for lbl in "XY":
            assert report.f_ab[lbl] == pytest.approx(expect, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(expect, abs=1e-12)

    def test_symmetric_universal_point(self):
        prog = qid_closed_form("uqcm").to_program()
        report = clone_fidelities(ClonerKind.QID, 1, prog)
        for lbl in "ZXY":
            assert report.f_ab[lbl] == pytest.approx(5 / 6, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(5 / 6, abs=1e-12)

    def test_two_qubit_e0(self):
        report = clone_fidelities(ClonerKind.QID, 2, SoftwareState.computational(2))
        assert report.f_ab["M0"] == pytest.approx(1.0, abs=1e-12)
        assert report.f_ae["M0"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(report.per_state_ab["M1"], [0.25] * 4, atol=1e-12)

    def test_two_qubit_universal_program(self):
        report = clone_fidelities(ClonerKind.QID, 2, qid_uqcm_program_2q())
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == pytest.approx(0.7, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(0.7, abs=1e-12)

    def test_unsupported_register_size(self):
        with pytest.raises(ValueError):
            build_cloner(ClonerKind.QID, 3, uqcm_program_ng(3))


class TestCloneFidelities:
    def test_symmetric_universal_ng(self):
        prog = table1_angles("uqcm").to_program()
        report = clone_fidelities(ClonerKind.NG, 1, prog)
        for lbl in "ZXY":
            assert report.f_ab[lbl] == pytest.approx(5 / 6, abs=1e-10)
            assert report.f_ae[lbl] == pytest.approx(5 / 6, abs=1e-10)

    def test_two_qubit_universal_ng(self):
        report = clone_fidelities(ClonerKind.NG, 2, uqcm_program_ng(2))
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == pytest.approx(0.7, abs=1e-10)
            assert report.f_ae[lbl] == pytest.approx(0.7, abs=1e-10)

    def test_noisy_e0(self):
        ch = PauliChannel(1, {PauliString("X"): 0.25})
        report = clone_fidelities(
            ClonerKind.NG, 1, SoftwareState.computational(1), channel=ch
        )
        assert report.f_ab["Z"] == pytest.approx(0.75, abs=1e-12)
        assert report.f_ab["X"] == pytest.approx(1.0, abs=1e-12)

    def test_basis_subset(self):
        mubs = mubs_for(1)
        report = clone_fidelities(
            ClonerKind.NG,
            1,
            SoftwareState.computational(1),
            bases=[mubs["Z"], mubs["X"]],
        )
        assert report.basis_labels == ("Z", "X")

    @pytest.mark.parametrize("labels", ["", "ZZX", "XYX"])
    def test_empty_or_repeated_basis_list_raises(self, labels):
        # a report keys its values by label, so a repeated basis would fold away
        mubs = mubs_for(1)
        bases = [mubs[lbl] for lbl in labels]
        with pytest.raises(ValueError, match="non-empty list of distinct bases"):
            resolve_bases(1, bases)
        with pytest.raises(ValueError, match="non-empty list of distinct bases"):
            clone_fidelities(ClonerKind.NG, 1, SoftwareState.computational(1), bases=bases)

    def test_report_averages_are_means(self):
        rng = np.random.default_rng(3)
        report = clone_fidelities(ClonerKind.QID, 2, random_program(rng, 2))
        assert report.f_ab_avg == pytest.approx(
            np.mean(list(report.f_ab.values())), abs=1e-15
        )
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == pytest.approx(
                np.mean(report.per_state_ab[lbl]), abs=1e-15
            )


class TestPerBasisUniformity:
    @pytest.mark.parametrize(
        "kind,n",
        [(ClonerKind.NG, 1), (ClonerKind.NG, 2), (ClonerKind.QID, 1)],
    )
    def test_states_within_a_basis_share_fidelity(self, kind, n):
        rng = np.random.default_rng(4)
        for _ in range(20):
            report = clone_fidelities(kind, n, random_program(rng, n, complex_amps=True))
            for lbl in report.basis_labels:
                assert np.ptp(report.per_state_ab[lbl]) < 1e-10
                assert np.ptp(report.per_state_ae[lbl]) < 1e-10

    def test_qid_2q_m1_splits_into_two_pairs(self):
        rng = np.random.default_rng(5)
        split_seen = False
        for _ in range(20):
            report = clone_fidelities(ClonerKind.QID, 2, random_program(rng, 2))
            for lbl in ("M0", "M2", "M3", "M4"):
                assert np.ptp(report.per_state_ab[lbl]) < 1e-10
            ab = report.per_state_ab["M1"]
            assert abs(ab[0] - ab[2]) < 1e-10 and abs(ab[1] - ab[3]) < 1e-10
            if abs(ab[0] - ab[1]) > 1e-6:
                split_seen = True
        assert split_seen


class TestB92:
    def test_identity_circuit(self):
        f_ab, f_ae = b92_fidelities(Circuit(2, ()))
        assert f_ab == pytest.approx(1.0, abs=1e-12)
        assert f_ae == pytest.approx(0.75, abs=1e-12)

    def test_swap_circuit_reverses_roles(self):
        swap = Circuit(
            2, (GateOp("CNOT", (0, 1)), GateOp("CNOT", (1, 0)), GateOp("CNOT", (0, 1)))
        )
        f_ab, f_ae = b92_fidelities(swap)
        assert f_ae == pytest.approx(1.0, abs=1e-12)
        assert f_ab == pytest.approx(0.75, abs=1e-12)

    def test_per_state_labels(self):
        per = b92_per_state_fidelities(Circuit(2, ()))
        assert set(per) == {"0", "+"}
        assert per["0"] == (pytest.approx(1.0), pytest.approx(1.0))
        assert per["+"][1] == pytest.approx(0.5, abs=1e-12)

    def test_wrong_register_size(self):
        with pytest.raises(ValueError):
            b92_fidelities(Circuit(3, ()))


class TestPauliClonerProperty:
    @pytest.mark.parametrize("n", [1, 2])
    def test_bob_channel_is_pauli_diagonal(self, n):
        rng = np.random.default_rng(6)
        for _ in range(10):
            r = bob_pauli_transfer_matrix(
                ClonerKind.NG, n, random_program(rng, n, complex_amps=True)
            )
            off = r - np.diag(np.diag(r))
            assert np.max(np.abs(off)) < 1e-10
            assert np.max(np.abs(np.diag(r).imag)) < 1e-10

    def test_arbitrary_inputs_match_basis_average(self):
        # universal program clones every input state at the same fidelity
        rng = np.random.default_rng(7)
        prog = uqcm_program_ng(2)
        states = [random_input(rng, 2) for _ in range(10)]
        f_ab, f_ae = fidelity_columns(
            ClonerKind.NG, 2, prog.amplitudes[:, None], state_rows(2, states)
        )
        for f_ab, f_ae in zip(f_ab[:, 0], f_ae[:, 0]):
            assert f_ab == pytest.approx(0.7, abs=1e-10)
            assert f_ae == pytest.approx(0.7, abs=1e-10)


class TestEveResidual:
    def test_e0_two_qubit_eve_fidelity_is_quarter(self):
        # Eve's register ends maximally mixed, so her fidelity is 1/4 per
        # basis state, not 1/2
        report = clone_fidelities(ClonerKind.NG, 2, SoftwareState.computational(2))
        for lbl in report.basis_labels:
            assert report.f_ae[lbl] == pytest.approx(0.25, abs=1e-12)


ENGINE_CASES = [
    (ClonerKind.NG, 1),
    (ClonerKind.NG, 2),
    (ClonerKind.NG, 3),
    (ClonerKind.QID, 1),
    (ClonerKind.QID, 2),
]


def engine_channels(rng, n):
    """No channel, a random mixture with identity, and one without identity."""
    picks = rng.choice(np.arange(1, 4**n), 3, replace=False)
    errors = [index_to_pauli(int(j), n) for j in picks]
    w = rng.dirichlet(np.ones(4))
    mixed = PauliChannel(n, dict(zip(errors, w[:3])))
    no_identity = PauliChannel(n, {errors[0]: 0.625, errors[1]: 0.375})
    assert all(not p.is_identity for p, _ in no_identity.branches())
    return [None, mixed, no_identity]


class TestCompiledEngine:
    """The compiled cloner against the gate-by-gate per-state reference."""

    @pytest.mark.parametrize("complex_amps", [False, True])
    @pytest.mark.parametrize("kind,n", ENGINE_CASES)
    def test_matches_gate_by_gate_reference(self, kind, n, complex_amps):
        rng = np.random.default_rng(11 + 2 * n + int(complex_amps))
        prog = random_program(rng, n, complex_amps)
        states = [random_input(rng, n) for _ in range(3)]
        for channel in engine_channels(rng, n):
            got = fidelity_columns(
                kind, n, prog.amplitudes[:, None], state_rows(n, states), channel
            )
            for st, f_ab, f_ae in zip(states, got[0][:, 0], got[1][:, 0]):
                ref_b, ref_e = reference_reduced(kind, n, prog, st.amplitudes, channel)
                rho_b, rho_e = clone_output_reduced(kind, n, prog, st, channel)
                np.testing.assert_allclose(rho_b.matrix, ref_b, rtol=0, atol=1e-12)
                np.testing.assert_allclose(rho_e.matrix, ref_e, rtol=0, atol=1e-12)
                ref = reference_fidelities(kind, n, prog, st.amplitudes, channel)
                np.testing.assert_allclose((f_ab, f_ae), ref, rtol=0, atol=1e-12)
            if n == 3:
                continue  # no explicit MUB set for three qubits
            report = clone_fidelities(kind, n, prog, channel=channel)
            for basis in mubs_for(n).bases:
                ref = [
                    reference_fidelities(kind, n, prog, st.amplitudes, channel)
                    for st in basis.states
                ]
                np.testing.assert_allclose(
                    report.per_state_ab[basis.label], [r[0] for r in ref], atol=1e-12
                )
                np.testing.assert_allclose(
                    report.per_state_ae[basis.label], [r[1] for r in ref], atol=1e-12
                )

    @pytest.mark.parametrize("kind,n", ENGINE_CASES)
    def test_transfer_matrix_matches_reference(self, kind, n):
        prog = random_program(np.random.default_rng(20 + n), n, complex_amps=True)
        np.testing.assert_allclose(
            bob_pauli_transfer_matrix(kind, n, prog),
            reference_transfer_matrix(kind, n, prog),
            rtol=0,
            atol=1e-12,
        )

    @pytest.mark.parametrize("kind,n", ENGINE_CASES)
    def test_transfer_matrices_of_columns_match_reference(self, kind, n):
        rng = np.random.default_rng(25 + n)
        programs = [random_program(rng, n, complex_amps=True) for _ in range(4)]
        mats = bob_pauli_transfer_matrices(
            kind, n, np.stack([p.amplitudes for p in programs], axis=1)
        )
        assert mats.shape == (4, 4**n, 4**n)
        for m, prog in zip(mats, programs):
            want = reference_transfer_matrix(kind, n, prog)
            np.testing.assert_allclose(m, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,n", [(ClonerKind.NG, 1), (ClonerKind.QID, 2)])
    def test_columns_are_fresh_arrays_at_every_batch_size(self, kind, n):
        # one column takes the diagonal route, 4^N columns the forms route
        rng = np.random.default_rng(30 + n)
        rows = np.array([random_input(rng, n).amplitudes for _ in range(3)])
        for count in (1, 4**n):
            columns = np.stack(
                [random_program(rng, n).amplitudes for _ in range(count)], axis=1
            )
            for f in fidelity_columns(kind, n, columns, rows):
                assert f.shape == (3, count) and f.dtype == np.float64
                assert f.flags.writeable and f.flags.c_contiguous and f.flags.owndata

    @pytest.mark.parametrize("kind,n", ENGINE_CASES)
    def test_compiled_unitary_is_unitary_and_read_only(self, kind, n):
        u = cloner_unitary(kind, n)
        assert u.shape == (8**n, 8**n)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8**n), atol=1e-12)
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0
        assert cloner_unitary(kind, n) is u

    @pytest.mark.parametrize("kind,n", ENGINE_CASES)
    def test_one_pass_compile_equals_column_by_column(self, kind, n):
        assert np.array_equal(cloner_unitary(kind, n), reference_unitary(kind, n))

    @pytest.mark.parametrize("kind,n", [(ClonerKind.NG, 2), (ClonerKind.QID, 1)])
    def test_columns_are_the_diagonals_and_the_single_programs(self, kind, n):
        rng = np.random.default_rng(40 + n)
        # past 4^N columns the batch takes the forms route, one column the direct one
        programs = [random_program(rng, n, complex_amps=True) for _ in range(4**n + 1)]
        columns = np.stack([p.amplitudes for p in programs], axis=1)
        states = [random_input(rng, n) for _ in range(4)]
        rows = np.array([st.amplitudes for st in states])
        for channel in engine_channels(rng, n):
            cols = fidelity_columns(kind, n, columns, rows, channel)
            mats = fidelity_matrices(kind, n, columns, rows, channel)
            for f, m in zip(cols, mats):
                diagonal = np.diagonal(m, axis1=1, axis2=2).real
                np.testing.assert_allclose(f, diagonal, rtol=0, atol=1e-14)
            for p, prog in enumerate(programs):
                single = fidelity_columns(
                    kind, n, prog.amplitudes[:, None], state_rows(n, states), channel
                )
                single = np.concatenate(single, axis=1)
                batch = np.stack([cols[0][:, p], cols[1][:, p]], axis=1)
                np.testing.assert_allclose(single, batch, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", [ClonerKind.NG, ClonerKind.QID])
    def test_forms_route_products_stay_small(self, kind):
        # 5000 complex two-qubit columns: each M c product holds at most 2^15
        # entries, so the peak is about the (S, P) values of both receivers
        count = 5000
        rng = np.random.default_rng(50)
        columns = rng.standard_normal((16, count)) + 1j * rng.standard_normal((16, count))
        columns /= np.linalg.norm(columns, axis=0)
        rows = state_rows(2, [st for b in mubs_for(2).bases for st in b.states])
        fidelity_columns(kind, 2, columns[:, :16], rows)  # compiles the cloner
        tracemalloc.start()
        try:
            values = fidelity_columns(kind, 2, columns, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / count <= 600
        # the chunks cover the batch: blocks of 1000 columns make one product a state
        blocks = [columns[:, j : j + 1000] for j in range(0, count, 1000)]
        parts = [fidelity_columns(kind, 2, block, rows) for block in blocks]
        for r, got in enumerate(values):
            want = np.concatenate([part[r] for part in parts], axis=1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", [ClonerKind.NG, ClonerKind.QID])
    @pytest.mark.parametrize("mixed", ["with-identity", "no-identity"])
    @pytest.mark.parametrize("num_programs", [1, 5])
    def test_channel_is_the_weighted_mix_of_certain_errors(self, kind, mixed, num_programs):
        # validate's noise oracle mixes the four per-error calls by the weights
        rng = np.random.default_rng(60 + num_programs)
        programs = [random_program(rng, 1, complex_amps=True) for _ in range(num_programs)]
        columns = np.stack([p.amplitudes for p in programs], axis=1)
        rows = state_rows(1, [random_input(rng, 1) for _ in range(4)])
        if mixed == "with-identity":
            p_xyz = rng.dirichlet(np.ones(4))[:3]
        else:
            p_xyz = np.array([0.5, 0.3, 0.2])
        weights = [1.0 - p_xyz.sum(), *p_xyz]
        assert (weights[0] > 0) == (mixed == "with-identity")
        certain = [None] + [PauliChannel.from_xyz(*row) for row in np.eye(3)]
        parts = [fidelity_columns(kind, 1, columns, rows, c) for c in certain]
        got = fidelity_columns(kind, 1, columns, rows, PauliChannel.from_xyz(*p_xyz))
        for r in range(2):
            mix = sum(w * part[r] for w, part in zip(weights, parts))
            np.testing.assert_allclose(got[r], mix, rtol=0, atol=1e-14)

    def test_non_unitary_compile_raises_and_caches_nothing(self, monkeypatch, capsys):
        cloner_unitary.cache_clear()
        real_apply_ops = simcore.apply_ops
        # a compile whose columns are off by a relative 1e-10
        monkeypatch.setattr(
            simcore, "apply_ops", lambda *args: (1 + 1e-10) * real_apply_ops(*args)
        )
        with pytest.raises(RuntimeError, match="ng cloner for N=1 is not unitary"):
            cloner_unitary(ClonerKind.NG, 1)
        assert cloner_unitary.cache_info().currsize == 0
        argv = ["fidelities", "--kind", "ng", "--n", "1", "--preset", "uqcm-sym"]
        assert cli.main(argv) == 1
        out = capsys.readouterr()
        assert out.out == "" and "not unitary" in out.err
        assert cloner_unitary.cache_info().currsize == 0
        monkeypatch.undo()
        u = cloner_unitary(ClonerKind.NG, 1)
        assert cloner_unitary.cache_info().currsize == 1
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    def test_nothing_compiled_at_import(self):
        code = (
            "import paulicloner, paulicloner.cli\n"
            "from paulicloner.cloner import cloner_unitary\n"
            "print(cloner_unitary.cache_info().currsize)"
        )
        assert run_python("-c", code).strip() == "0"

    def test_entry_checks(self):
        rng = np.random.default_rng(30)
        rows3, rows4 = (state_rows(n, [random_input(rng, n)]) for n in (3, 4))
        with pytest.raises(ValueError):
            fidelity_columns(ClonerKind.QID, 3, uqcm_program_ng(3).amplitudes[:, None], rows3)
        with pytest.raises(ValueError, match="compiled for 1 to 3"):
            fidelity_columns(ClonerKind.NG, 4, uqcm_program_ng(4).amplitudes[:, None], rows4)
        with pytest.raises(ValueError):
            clone_fidelities(
                ClonerKind.NG,
                2,
                uqcm_program_ng(2),
                channel=PauliChannel(1, {PauliString("X"): 0.1}),
            )
        with pytest.raises(TypeError):
            clone_fidelities(ClonerKind.NG, 1, uqcm_program_ng(1), bases=["Z"])
        with pytest.raises(ValueError):
            clone_fidelities(ClonerKind.NG, 2, uqcm_program_ng(1))
        with pytest.raises(ValueError):
            bob_pauli_transfer_matrix(ClonerKind.QID, 1, uqcm_program_ng(2))
        with pytest.raises(ValueError):
            clone_output_reduced(
                ClonerKind.NG, 2, uqcm_program_ng(2), random_input(rng, 1)
            )


# (kind, N, channel spec): both kinds at N = 1 and 2, clean and under two errors
CONTRACTION_CASES = [
    (kind, n, spec)
    for kind in ClonerKind
    for n, noisy in ((1, "X=0.25,Z=0.1"), (2, "YI=0.45,XX=0.05"))
    for spec in (None, noisy)
] + [(ClonerKind.NG, 3, None)]


class TestMatmulContractions:
    """The engine's matmul contractions against their einsum forms."""

    @staticmethod
    def columns(rng, n, count):
        """The identity's columns, then ``count`` random complex unit columns."""
        v = rng.standard_normal((4**n, count)) + 1j * rng.standard_normal((4**n, count))
        return np.hstack([np.eye(4**n), v / np.linalg.norm(v, axis=0)])

    @pytest.mark.parametrize("kind,n,spec", CONTRACTION_CASES)
    def test_fidelity_matrices_match_the_einsums(self, monkeypatch, kind, n, spec):
        rng = np.random.default_rng(70 + n)
        programs = self.columns(rng, n, 5)
        if n < 3:
            rows = state_rows(n, [st for b in mubs_for(n).bases for st in b.states])
        else:
            rows = np.array([random_input(rng, n).amplitudes for _ in range(6)])
        channel = parse_channel_spec(spec, n) if spec else None
        got = fidelity_matrices(kind, n, programs, rows, channel)
        monkeypatch.setattr(cloner, "cloner_outputs", einsum_cloner_outputs)
        want = fidelity_matrices(kind, n, programs, rows, channel)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (len(rows), len(programs[0]), len(programs[0]))
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind,n", ENGINE_CASES)
    def test_transfer_matrices_match_the_einsums(self, kind, n):
        programs = self.columns(np.random.default_rng(80 + n), n, 5)
        got = bob_pauli_transfer_matrices(kind, n, programs)
        assert got.shape == (programs.shape[1], 4**n, 4**n)
        np.testing.assert_allclose(
            got, einsum_transfer_matrices(kind, n, programs), rtol=0, atol=1e-15
        )
