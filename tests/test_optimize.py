import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import central_difference, pareto_filter, reference_fidelities

from paulicloner.analytic import table1_angles
from paulicloner import optimize
from paulicloner.cloner import (
    B92_INPUTS,
    ClonerKind,
    SoftwareState,
    b92_per_state_fidelities,
    clone_fidelities,
)
from paulicloner.mub import PauliString, mubs_for
from paulicloner.noise import PauliChannel, parse_channel_spec
from paulicloner.optimize import (
    ADAM_LEARNING_RATE,
    B92_FORMS,
    TASKS,
    AnsatzSpec,
    OptimizerConfig,
    ANSATZ_LAYOUTS,
    ENTANGLERS,
    adam_optimize,
    ansatz_circuit,
    ansatz_jacobian,
    ansatz_loss_and_grad,
    ansatz_pass,
    b92_ansatz_circuit,
    b92_isometry,
    b92_qml_fidelities,
    evaluate_ansatz,
    exact_frontier_point,
    fidelity_quadratic_forms,
    frontier_sweep,
    grid_frontier_b92,
    layered_jacobian,
    layered_pass,
    loss,
    make_b92_loss,
    make_program_loss,
    program_prep_state,
    program_prep_state_and_shift_grads,
    quadratic_fidelity,
    shift_gradient_states,
)
from paulicloner.simcore import Circuit, GateOp, apply_circuit, apply_ops, basis_state


class TestLossAndQuality:
    def test_loss_values(self):
        assert loss(0.7, 1.0, 0.7) == pytest.approx(-1.0)
        assert loss(0.9, 0.5, 0.8) == pytest.approx(-0.4)

    def test_loss_minimizer_structure(self):
        # at fixed F_AB = f the loss decreases with growing F_AE
        assert loss(0.8, 0.9, 0.8) < loss(0.8, 0.5, 0.8)


class TestAnsatz:
    def test_zero_b92_acts_like_three_cnots(self):
        circuit = evaluate_ansatz(AnsatzSpec.zeros("b92"))
        plain = Circuit(2, tuple(GateOp("CNOT", (0, 1)) for _ in range(3)))
        for k in range(4):
            got = apply_circuit(basis_state(2, k), circuit).amplitudes
            ref = apply_circuit(basis_state(2, k), plain).amplitudes
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_zero_program_prep_keeps_vacuum(self):
        state = evaluate_ansatz(AnsatzSpec.zeros("program-prep"))
        np.testing.assert_allclose(state.amplitudes, basis_state(4, 0).amplitudes)

    def test_random_parameters_stay_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = evaluate_ansatz(
                AnsatzSpec("program-prep", rng.uniform(-math.pi, math.pi, 60))
            )
            assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12

    def test_parameter_count_validation(self):
        with pytest.raises(ValueError):
            AnsatzSpec("b92", np.zeros(17))
        with pytest.raises(ValueError):
            AnsatzSpec("mystery", np.zeros(3))

    def test_fast_state_matches_circuit(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = rng.uniform(-math.pi, math.pi, 60)
            init = np.zeros(16, dtype=complex)
            init[0] = 1.0
            ref = apply_ops(init, 4, ansatz_circuit("program-prep", p).ops)
            np.testing.assert_allclose(program_prep_state(p), ref, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(ANSATZ_LAYOUTS))
    def test_entangler_is_the_cnot_layer(self, kind):
        _, n, cnots, _ = ANSATZ_LAYOUTS[kind]
        assert sorted(ENTANGLERS[kind]) == list(range(2**n))
        rng = np.random.default_rng(3)
        for _ in range(5):
            psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            layer = apply_ops(psi, n, [GateOp("CNOT", pair) for pair in cnots])
            np.testing.assert_array_equal(psi[ENTANGLERS[kind]], layer)

    def test_b92_inputs_are_the_oracles(self):
        # Alice's |0> and |+> on Bob's qubit, in the oracle's order; Eve's in |0>
        want = [np.kron(v, [1.0, 0.0]) for v in B92_INPUTS.values()]
        np.testing.assert_array_equal(ANSATZ_LAYOUTS["b92"][3], want)
        assert list(B92_INPUTS) == ["0", "+"]

    def test_b92_fast_fidelities_match_circuit(self):
        from paulicloner.cloner import b92_per_state_fidelities

        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.uniform(-math.pi, math.pi, 18)
            fab, fae = b92_qml_fidelities(p)
            per = b92_per_state_fidelities(b92_ansatz_circuit(p))
            assert fab == pytest.approx(np.mean([v[0] for v in per.values()]), abs=1e-12)
            assert fae == pytest.approx(np.mean([v[1] for v in per.values()]), abs=1e-12)

    def test_b92_forms_give_each_inputs_fidelities(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.uniform(-math.pi, math.pi, 18)
            psi = ansatz_pass("b92", p).reshape(-1)
            report = optimize._forms_report(list(B92_INPUTS), B92_FORMS, psi)
            per = b92_per_state_fidelities(b92_ansatz_circuit(p))
            assert list(report.f_ab) == list(report.f_ae) == list(per)
            for lbl, (f_ab, f_ae) in per.items():
                assert abs(report.f_ab[lbl] - f_ab) < 1e-12
                assert abs(report.f_ae[lbl] - f_ae) < 1e-12


class TestAdam:
    def test_toy_quadratic(self):
        def loss_and_grad(p):
            g = np.zeros_like(p)
            g[:, 0] = 2.0 * (p[:, 0] - 1.0)
            return (p[:, 0] - 1.0) ** 2, g

        params, trace = adam_optimize(
            loss_and_grad, np.zeros((1, 3)), OptimizerConfig(steps=100, restarts=1)
        )
        assert abs(params[0, 0] - 1.0) < 1e-3
        assert trace[-1, 0] < trace[0, 0]

    def test_nonfinite_objective_aborts(self):
        def bad(params):
            return np.full(len(params), np.nan), np.zeros_like(params)

        with pytest.raises(RuntimeError):
            adam_optimize(bad, np.zeros((1, 3)), OptimizerConfig(restarts=1))

    def test_nan_in_one_trajectory_aborts_the_batch(self):
        # trajectory 2 turns non-finite at step 3; the others are fine
        calls = []

        def loss_and_grad(params):
            calls.append(len(calls))
            values = np.sum(params**2, axis=1)
            if len(calls) == 4:
                values[2] = np.nan
            return values, 2.0 * params

        with pytest.raises(RuntimeError, match="step 3 of trajectory 2"):
            adam_optimize(loss_and_grad, np.ones((4, 3)), OptimizerConfig(steps=10))
        assert len(calls) == 4

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(-1, 1, 3)

        def loss_and_grad(p):
            return np.sum((p - target) ** 2, axis=1), 2.0 * (p - target)

        cfg = OptimizerConfig(steps=30, restarts=3)
        starts = np.random.default_rng(11).uniform(-math.pi, math.pi, (cfg.restarts, 3))
        p1, t1 = adam_optimize(loss_and_grad, starts, cfg)
        p2, t2 = adam_optimize(loss_and_grad, starts, cfg)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(t1, t2)

    def test_keeps_the_earliest_best_step(self):
        # the loss falls to 0 at step 2, rises and returns to 0 at step 4
        values = iter([[3.0], [1.0], [0.0], [2.0], [0.0], [5.0]])

        def loss_and_grad(params):
            return np.array(next(values)), np.ones_like(params)

        params, trace = adam_optimize(loss_and_grad, np.zeros((1, 1)), OptimizerConfig(steps=5))
        np.testing.assert_array_equal(trace[:, 0], [3, 1, 0, 2, 0, 5])
        # Adam moves a constant gradient by its learning rate per step: step 2
        # sits two steps down
        assert params[0, 0] == pytest.approx(-2 * ADAM_LEARNING_RATE, abs=1e-6)

    def test_batch_is_bit_identical_to_each_trajectory_alone(self):
        # six trajectories over three sets of forms and six targets
        cfg = OptimizerConfig(steps=25)
        names = ["ng-twenty", "qid-twenty", "pairs"] * 2
        stacks = np.stack([np.stack([m.mean(axis=0) for m in _prep_forms(n)]) for n in names])
        targets = np.linspace(0.45, 0.8, 6)
        starts = np.random.default_rng(8).uniform(-math.pi, math.pi, (6, 60))
        prep_loss = functools.partial(ansatz_loss_and_grad, "program-prep")
        params, trace = adam_optimize(functools.partial(prep_loss, stacks, targets), starts, cfg)
        for z in range(len(starts)):
            one = slice(z, z + 1)
            alone = functools.partial(prep_loss, stacks[one], targets[one])
            p, t = adam_optimize(alone, starts[z : z + 1], cfg)
            np.testing.assert_array_equal(p[0], params[z])
            np.testing.assert_array_equal(t[:, 0], trace[:, z])

    def test_b92_batch_is_bit_identical_to_each_trajectory_alone(self):
        cfg = OptimizerConfig(steps=25)
        starts = np.random.default_rng(10).uniform(-math.pi, math.pi, (4, 18))
        targets = np.array([0.6, 0.7, 0.8, 0.9])
        forms = B92_FORMS.mean(axis=1)
        batch = functools.partial(ansatz_loss_and_grad, "b92", forms, targets)
        params, trace = adam_optimize(batch, starts, cfg)
        for z in range(len(starts)):
            alone = functools.partial(ansatz_loss_and_grad, "b92", forms, targets[z : z + 1])
            p, t = adam_optimize(alone, starts[z : z + 1], cfg)
            np.testing.assert_array_equal(p[0], params[z])
            np.testing.assert_array_equal(t[:, 0], trace[:, z])


class TestGradients:
    def test_program_prep_shift_matches_central_difference(self):
        rng = np.random.default_rng(4)
        ch = PauliChannel(2, {PauliString("YI"): 0.45})
        forms = fidelity_quadratic_forms(ClonerKind.NG, 2, mubs_for(2).bases, ch)
        objective, gradient = make_program_loss(forms, 0.5)
        for _ in range(5):
            p = rng.uniform(-math.pi, math.pi, 60)
            g = gradient(p)
            fd = central_difference(objective, p)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)

    def test_b92_shift_matches_central_difference(self):
        rng = np.random.default_rng(6)
        objective, gradient = make_b92_loss(0.8)
        for _ in range(5):
            p = rng.uniform(-math.pi, math.pi, 18)
            np.testing.assert_allclose(
                gradient(p), central_difference(objective, p), rtol=1e-6, atol=1e-7
            )


def _shift_rule_prep_gradient(forms, f_target, p):
    """Parameter-shift reference: the state derivatives chained through the forms."""
    m_ab, m_ae = (m.mean(axis=0) for m in forms)
    psi, dpsi = program_prep_state_and_shift_grads(p)
    f_ab = quadratic_fidelity(m_ab, psi)
    return np.array(
        [
            20.0 * (f_ab - f_target) * 2.0 * np.real(psi.conj() @ m_ab @ dp)
            - 2.0 * np.real(psi.conj() @ m_ae @ dp)
            for dp in dpsi
        ]
    )


def _shift_rule_b92_gradient(f_target, p):
    """Parameter-shift reference on the b92 fidelities, one parameter at a time."""
    f_ab, _ = b92_qml_fidelities(p)
    # fidelities are trigonometric in the full angle, hence frequency 1
    derivs = shift_gradient_states(lambda q: np.array(b92_qml_fidelities(q)), p, 1.0)
    d_ab, d_ae = np.array(derivs).T
    return 20.0 * (f_ab - f_target) * d_ab - d_ae


def _prep_forms(name):
    bases = mubs_for(2).bases
    if name == "ng-twenty":
        ch = PauliChannel(2, {PauliString("YI"): 0.45})
        return fidelity_quadratic_forms(ClonerKind.NG, 2, bases, ch)
    if name == "qid-twenty":
        ch = PauliChannel(2, {PauliString("XZ"): 0.2, PauliString("YY"): 0.1})
        return fidelity_quadratic_forms(ClonerKind.QID, 2, bases, ch)
    return fidelity_quadratic_forms(ClonerKind.NG, 2, bases[:2], None)  # pairs


class TestAnsatzGradients:
    def test_ansatz_jacobian_matches_shift_reference(self):
        rng = np.random.default_rng(31)
        ps = np.vstack([rng.uniform(-math.pi, math.pi, (3, 60)), np.zeros(60)])
        states, jacobians = ansatz_jacobian("program-prep", ps)
        assert states.shape == (4, 1, 16) and jacobians.shape == (4, 16, 60)
        for p, psi, jac in zip(ps, states, jacobians):
            ref_psi, ref = program_prep_state_and_shift_grads(p)
            np.testing.assert_allclose(psi[0], ref_psi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(jac, np.array(ref).T, rtol=0, atol=1e-12)

    def test_b92_jacobian_matches_shift_reference(self):
        # both inputs' outputs, stacked as the rows of the Jacobian
        rng = np.random.default_rng(33)
        ps = np.vstack([rng.uniform(-math.pi, math.pi, (3, 18)), np.zeros(18)])
        states, jacobians = ansatz_jacobian("b92", ps)
        assert states.shape == (4, 2, 4) and jacobians.shape == (4, 8, 18)
        for p, psi, jac in zip(ps, states, jacobians):
            ref = shift_gradient_states(lambda q: ansatz_pass("b92", q)[0].reshape(-1), p, 0.5)
            np.testing.assert_allclose(psi, ansatz_pass("b92", p)[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(jac, np.array(ref).T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["ng-twenty", "qid-twenty", "pairs"])
    def test_program_prep_matches_shift_reference(self, name):
        rng = np.random.default_rng(30)
        forms = _prep_forms(name)
        m_ab, m_ae = (m.mean(axis=0) for m in forms)
        objective, gradient = make_program_loss(forms, 0.55)
        ps = rng.uniform(-math.pi, math.pi, (4, 60))
        stacks = np.repeat(np.stack([m_ab, m_ae])[None], 4, axis=0)
        values, grads = ansatz_loss_and_grad("program-prep", stacks, np.full(4, 0.55), ps)
        for p, value, g in zip(ps, values, grads):
            assert abs(value - objective(p)) < 1e-14
            np.testing.assert_allclose(
                g, _shift_rule_prep_gradient(forms, 0.55, p), rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(gradient(p), g)

    @pytest.mark.parametrize("f_target", [0.6, 0.8])
    def test_b92_matches_shift_reference(self, f_target):
        rng = np.random.default_rng(31)
        objective, gradient = make_b92_loss(f_target)
        ps = rng.uniform(-math.pi, math.pi, (4, 18))
        forms = B92_FORMS.mean(axis=1)
        values, grads = ansatz_loss_and_grad("b92", forms, np.full(4, f_target), ps)
        for p, value, g in zip(ps, values, grads):
            assert abs(value - loss(*b92_qml_fidelities(p), f_target)) < 1e-14
            assert abs(value - objective(p)) < 1e-14
            np.testing.assert_allclose(
                g, _shift_rule_b92_gradient(f_target, p), rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(gradient(p), g)


_RING = ((0, 1), (1, 2), (2, 0))
_RING_ENTANGLER = optimize._entangler(3, _RING)


def _ring_pass(params, inputs):
    """Two layers on three qubits with a CNOT-ring entangler: a layout
    neither shipped ansatz uses."""
    return layered_pass(params, inputs, _RING_ENTANGLER)


class TestLayeredPass:
    @staticmethod
    def _case():
        rng = np.random.default_rng(33)
        inputs = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        inputs /= np.linalg.norm(inputs, axis=1, keepdims=True)
        m = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
        forms = m + m.conj().transpose(0, 2, 1)
        return inputs, forms, rng.uniform(-math.pi, math.pi, (4, 2, 3, 3))

    def test_final_states_match_gate_by_gate(self):
        inputs, _, params = self._case()
        final = _ring_pass(params, inputs)
        for z in range(len(params)):
            ops = []
            for layer in range(2):
                for q in range(3):
                    rotations = zip(("RX", "RY", "RZ"), params[z, layer, q])
                    ops += [GateOp(g, (q,), a) for g, a in rotations]
                ops += [GateOp("CNOT", pair) for pair in _RING]
            for k in range(3):
                ref = apply_ops(inputs[k], 3, ops)
                np.testing.assert_allclose(final[z, k], ref, rtol=0, atol=1e-14)

    def test_gradients_match_differences_and_the_shift_rule(self):
        inputs, forms, params = self._case()

        def loss_of(p):
            # sum_k psi_k^dag M_k psi_k
            final = _ring_pass(p.reshape(1, 2, 3, 3), inputs)[0]
            return np.einsum("ka,kab,kb->", final.conj(), forms, final).real

        states, jacobians = layered_jacobian(params, inputs, _RING_ENTANGLER)
        np.testing.assert_allclose(states, _ring_pass(params, inputs), rtol=0, atol=1e-14)
        # the loss's gradient is 2 Re (M psi)^dag J
        m_psi = np.einsum("kab,zkb->zka", forms, states).reshape(len(params), -1)
        grads = 2 * np.einsum("zd,zdp->zp", m_psi.conj(), jacobians).real
        for p, g in zip(params.reshape(4, -1), grads):
            np.testing.assert_allclose(g, central_difference(loss_of, p), rtol=0, atol=1e-6)
            # the loss is trigonometric in the full angle, hence frequency 1
            shift = shift_gradient_states(loss_of, p, 1.0)
            np.testing.assert_allclose(g, shift, rtol=0, atol=1e-12)


class TestQuadraticForms:
    def test_forms_reproduce_simulation(self):
        rng = np.random.default_rng(7)
        ch = PauliChannel(2, {PauliString("XZ"): 0.3})
        for kind in (ClonerKind.NG, ClonerKind.QID):
            forms = fidelity_quadratic_forms(kind, 2, mubs_for(2).bases, ch)
            for _ in range(5):
                v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                v /= np.linalg.norm(v)
                ref = clone_fidelities(kind, 2, SoftwareState(v), channel=ch)
                for mats, per_state in zip(forms, (ref.per_state_ab, ref.per_state_ae)):
                    got = [quadratic_fidelity(m, v) for m in mats]
                    want = [f for lbl in ref.basis_labels for f in per_state[lbl]]
                    np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_forms_match_gate_by_gate_reference(self, n):
        rng = np.random.default_rng(17 + n)
        errors = [PauliString("Y" * n), PauliString("X" + "Z" * (n - 1))]
        channels = [
            PauliChannel(n, {errors[0]: 0.2, errors[1]: 0.1}),
            PauliChannel(n, {errors[0]: 0.75, errors[1]: 0.25}),  # no identity
        ]
        for kind in (ClonerKind.NG, ClonerKind.QID):
            for ch in channels:
                forms = fidelity_quadratic_forms(kind, n, mubs_for(n).bases, ch)
                v = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
                prog = SoftwareState(v / np.linalg.norm(v))
                psi = prog.amplitudes
                states = [st for basis in mubs_for(n).bases for st in basis.states]
                assert len(forms[0]) == len(forms[1]) == len(states)
                for m_ab, m_ae, st in zip(*forms, states):
                    ref = reference_fidelities(kind, n, prog, st.amplitudes, ch)
                    got = (quadratic_fidelity(m_ab, psi), quadratic_fidelity(m_ae, psi))
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def _mean_forms(kind, labels, channel=None):
    bases = [mubs_for(1)[lbl] for lbl in labels]
    return tuple(m.mean(axis=0) for m in fidelity_quadratic_forms(kind, 1, bases, channel))


class TestExactFrontier:
    def test_bb84_forms_give_the_phase_covariant_point(self):
        # the symmetric phase-covariant cloner: F_AE = F_AB = 1/2 + sqrt(2)/4
        m_ab, m_ae = _mean_forms(ClonerKind.NG, "ZX")
        f = 0.5 + math.sqrt(2) / 4
        psi = exact_frontier_point(m_ab, m_ae, f)
        assert abs(quadratic_fidelity(m_ab, psi) - f) < 1e-12
        assert abs(quadratic_fidelity(m_ae, psi) - f) < 1e-12

    def test_sixstate_forms_give_the_universal_point(self):
        m_ab, m_ae = _mean_forms(ClonerKind.NG, "ZXY")
        psi = exact_frontier_point(m_ab, m_ae, 5 / 6)
        assert abs(quadratic_fidelity(m_ab, psi) - 5 / 6) < 1e-12
        assert abs(quadratic_fidelity(m_ae, psi) - 5 / 6) < 1e-12

    def test_b92_frontiers_of_both_families_agree(self):
        fs = [0.6, 0.7, 0.8, 0.85]
        ng = grid_frontier_b92(ClonerKind.NG, fs)
        qid = grid_frontier_b92(ClonerKind.QID, fs)
        for (f1, e1), (f2, e2) in zip(ng, qid):
            assert f1 == f2
            assert abs(e1 - e2) < 1e-12
        assert abs(ng[2][1] - 0.9) < 1e-12  # F_AE = 0.9 at F_AB = 0.8

    def test_real_forms_give_a_real_program_on_target(self):
        m_ab, m_ae = _mean_forms(ClonerKind.QID, "ZX", PauliChannel.from_xyz(0.1, 0.05, 0.2))
        lo, hi = np.linalg.eigvalsh(m_ab)[[0, -1]]
        for f in np.linspace(lo, hi, 11):
            psi = exact_frontier_point(m_ab, m_ae, f)
            assert np.isrealobj(psi)
            assert abs(np.linalg.norm(psi) - 1) < 1e-12
            assert abs(quadratic_fidelity(m_ab, psi) - f) < 1e-9

    def test_unreachable_targets_give_the_ends(self):
        # the best F_AE on each degenerate extreme eigenspace of M_ab
        m_ab, m_ae = np.diag([0.2, 0.2, 0.9, 0.9]), np.diag([0.3, 0.8, 0.1, 0.0])
        top = exact_frontier_point(m_ab, m_ae, 0.95)
        np.testing.assert_allclose(np.abs(top), [0, 0, 1, 0], atol=1e-12)
        bottom = exact_frontier_point(m_ab, m_ae, 0.1)
        np.testing.assert_allclose(np.abs(bottom), [0, 1, 0, 0], atol=1e-12)

    def test_flat_segment_is_solved_in_the_span_of_its_ends(self):
        # M_ae + M_ab has the degenerate top eigenvalue 1 on e0 (F_AB 0.2) and
        # e1 (F_AB 0.6): every target between lies on F_AE = 1 - F_AB
        m_ab, m_ae = np.diag([0.2, 0.6, 0.0, 0.9]), np.diag([0.8, 0.4, 0.0, 0.0])
        for f in (0.25, 0.4, 0.55):
            psi = exact_frontier_point(m_ab, m_ae, f)
            assert abs(quadratic_fidelity(m_ab, psi) - f) < 1e-12
            assert abs(quadratic_fidelity(m_ae, psi) - (1 - f)) < 1e-12

    def test_span_problem_keeps_the_better_root(self):
        # on cos t e0 + sin t e1, F_AB = 0.4 - 0.2 cos 2t and F_AE = 0.5 + 0.3 sin 2t:
        # F_AB = 0.4 at t = +-pi/4, where F_AE is 0.8 or 0.2
        m_ab = np.diag([0.2, 0.6, 0.0, 0.0])
        m_ae = np.zeros((4, 4))
        m_ae[:2, :2] = [[0.5, 0.3], [0.3, 0.5]]
        e = np.eye(4)
        psi = optimize._span_program(m_ab, m_ae, 0.4, e[0], e[1])
        assert abs(quadratic_fidelity(m_ab, psi) - 0.4) < 1e-12
        assert abs(quadratic_fidelity(m_ae, psi) - 0.8) < 1e-12

    def test_complex_forms(self):
        rng = np.random.default_rng(40)
        a, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in "ab")
        m_ab, m_ae = a @ a.conj().T / 8, b @ b.conj().T / 8
        lo, hi = np.linalg.eigvalsh(m_ab)[[0, -1]]
        lams = np.linspace(-20, 20, 4001)
        tops = np.array([np.linalg.eigvalsh(m_ae + lam * m_ab)[-1] for lam in lams])
        for f in np.linspace(lo, hi, 7)[1:-1]:
            psi = exact_frontier_point(m_ab, m_ae, f)
            assert abs(quadratic_fidelity(m_ab, psi) - f) < 1e-9
            # weak duality bounds F_AE from above; the grid of lam nearly attains it
            gap = np.min(tops - lams * f) - quadratic_fidelity(m_ae, psi)
            assert -1e-12 <= gap < 1e-3


# a random single-qubit Pauli channel: weights of X, Y, Z and the identity
channels = st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 0.01)


class TestFrontierProperties:
    @settings(max_examples=25, deadline=None)
    @given(channels, st.sampled_from(list(ClonerKind)), st.sampled_from(["ZX", "ZXY"]))
    def test_mean_forms_are_hermitian_psd(self, weights, kind, labels):
        p = np.array(weights) / sum(weights)
        for m in _mean_forms(kind, labels, PauliChannel.from_xyz(*p[:3])):
            np.testing.assert_allclose(m, m.conj().T, rtol=0, atol=1e-14)
            assert np.linalg.eigvalsh(m)[0] >= -1e-12

    @settings(max_examples=25, deadline=None)
    @given(channels, st.sampled_from(list(ClonerKind)), st.sampled_from(["ZX", "ZXY"]))
    # nearly parallel bracketing eigenvectors: one Gram-Schmidt pass left the
    # program's norm off by 2.6e-8 and F_AE above lambda_max(M_ae)
    @example(weights=(0.0, 0.5, 0.5, 5.960464477539063e-08), kind=ClonerKind.NG, labels="ZX")
    def test_frontier_is_non_increasing_and_concave(self, weights, kind, labels):
        p = np.array(weights) / sum(weights)
        m_ab, m_ae = _mean_forms(kind, labels, PauliChannel.from_xyz(*p[:3]))
        # from the largest F_AB at which Eve's best is reached, to Bob's best
        w, v = np.linalg.eigh(m_ae)
        top = v[:, w >= w[-1] - 1e-10]
        f_start = np.linalg.eigvalsh(top.conj().T @ m_ab @ top)[-1]
        fs = np.linspace(f_start, np.linalg.eigvalsh(m_ab)[-1], 12)
        eve = []
        for f in fs:
            psi = exact_frontier_point(m_ab, m_ae, f)
            assert abs(quadratic_fidelity(m_ab, psi) - f) < 1e-9
            eve.append(quadratic_fidelity(m_ae, psi))
        assert abs(eve[0] - w[-1]) < 1e-9
        assert np.all(np.diff(eve) <= 1e-9)
        assert np.all(np.diff(eve, 2) <= 1e-9)


PAIR_LABELS = (
    "M0M1", "M0M2", "M0M3", "M0M4", "M1M2", "M1M3", "M1M4", "M2M3", "M2M4", "M3M4"
)
# per task: its optimized series (series, label), its reference series
SWEEP_SERIES = {
    "bb84": ([("ng", "")], ["pccm"]),
    "sixstate": ([("ng", "")], ["uqcm"]),
    "twenty": ([("ng", ""), ("qid", "")], []),
    "b92": ([("qml", "")], ["grid-ng", "grid-qid"]),
    "pairs": ([(s, lbl) for lbl in PAIR_LABELS for s in ("ng", "qid")], []),
}


_S8, _C8 = math.sin(math.pi / 8) ** 2, math.cos(math.pi / 8) ** 2
B92_TARGETS = [
    0, 0.05, 0.1, _S8, 0.5, 0.75, _C8, 0.855, 0.86, 0.88, 0.9, 0.95, 0.98, 0.995, 0.999, 1
]
# the best F_AE above the flat region, from a tight dual solved independently
B92_DIGITS = {
    0.88: 0.9999976919, 0.9: 0.9999744856, 0.95: 0.9991809510, 0.98: 0.9953154747,
    0.995: 0.9809672774,
}


def _isometry_fidelities(w):
    """Average (F_AB, F_AE) of a real 4x2 isometry over the b92 inputs, Bob's
    qubit first: the overlap of each receiver's qubit with the input."""
    inputs = np.array(list(B92_INPUTS.values()))
    out = (inputs @ w.T).reshape(2, 2, 2)  # input, Bob, Eve
    bob = np.einsum("ka,kab->kb", inputs, out)
    eve = np.einsum("kb,kab->ka", inputs, out)
    return float(np.mean(np.sum(bob**2, axis=1))), float(np.mean(np.sum(eve**2, axis=1)))


def _b92_dual_forms():
    """C_ab, C_ae with F = vec(W)^T C vec(W), and (Z + X) on the input index."""
    eye = np.eye(2)
    proj = [np.outer(k, k) for k in B92_INPUTS.values()]
    c_ab = sum(np.kron(p, np.kron(p, eye)) for p in proj) / 2
    c_ae = sum(np.kron(p, np.kron(eye, p)) for p in proj) / 2
    return c_ab, c_ae, np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(4))


class TestSweep:
    @pytest.mark.parametrize("task", TASKS)
    def test_rows_and_row_seeds_per_task(self, task, monkeypatch):
        # every row is exact: no task runs Adam
        fs = [0.7, 0.8]
        calls = []
        monkeypatch.setattr(optimize, "adam_optimize", lambda *args: calls.append(args))
        result = frontier_sweep(task, f_values=fs)
        units, references = SWEEP_SERIES[task]
        expected = sorted(
            [(f, s, lbl) for f in fs for s, lbl in units]
            + [(f, s, "") for f in fs for s in references]
        )
        if task == "twenty":
            expected.append((None, "uqcm", ""))  # the universal point
        got = [
            (None if math.isnan(r.f_target) else r.f_target, r.series, r.label)
            for r in result.rows
        ]
        assert got == expected
        assert calls == []
        if task == "twenty":
            # the exact programs, compiled: 60 angles whose state gives the row
            for r in result.series("ng") + result.series("qid"):
                assert r.parameters.shape == (60,)
                program = SoftwareState(program_prep_state(r.parameters))
                rep = clone_fidelities(ClonerKind(r.series), 2, program)
                for got, want in [(r.f_ab, rep.f_ab), (r.f_ae, rep.f_ae)]:
                    assert list(got) == list(want)
                    np.testing.assert_allclose(list(got.values()), list(want.values()), atol=1e-12)
                assert abs(r.f_ab_avg - rep.f_ab_avg) < 1e-12
                assert abs(r.f_ae_avg - rep.f_ae_avg) < 1e-12
        if task == "b92":
            # the exact isometries, compiled: 18 angles whose circuit gives the row
            for r in result.series("qml"):
                assert r.parameters.shape == (18,)
                per = b92_per_state_fidelities(b92_ansatz_circuit(r.parameters))
                assert list(r.f_ab) == list(r.f_ae) == list(per)
                for lbl, (f_ab, f_ae) in per.items():
                    assert abs(r.f_ab[lbl] - f_ab) < 1e-12
                    assert abs(r.f_ae[lbl] - f_ae) < 1e-12

    @pytest.mark.parametrize("noise", ["YI=0.45", None, "XZ=0.2,IY=0.1"])
    def test_twenty_rows_sit_on_the_exact_frontier(self, noise):
        channel = None if noise is None else parse_channel_spec(noise, 2)
        result = frontier_sweep("twenty", channel=channel)
        fs = optimize.default_f_values("twenty")
        for kind in ClonerKind:
            forms = fidelity_quadratic_forms(kind, 2, mubs_for(2).bases, channel)
            m_ab, m_ae = (m.mean(axis=0) for m in forms)
            lo, hi = np.linalg.eigvalsh(m_ab)[[0, -1]]
            rows = result.series(kind.value)
            assert [r.f_target for r in rows] == fs
            for row in rows:
                assert row.parameters.shape == (60,)
                want = quadratic_fidelity(m_ae, exact_frontier_point(m_ab, m_ae, row.f_target))
                assert abs(row.f_ae_avg - want) < 1e-12
                assert row.target_miss == abs(row.f_ab_avg - row.f_target)
                if lo <= row.f_target <= hi:
                    assert row.target_miss <= 1e-9

    @pytest.mark.parametrize("kind", ["program-prep", "b92"])
    def test_every_compiled_row_equals_its_single_target_run(self, kind):
        # a row that has converged takes no step while the rest of its batch
        # fits: 10 of 28 twenty programs and 12 of 21 b92 isometries once
        # compiled to other angles in a batch than alone
        if kind == "b92":
            fs = np.linspace(0, 1, 21)
            targets = np.array([optimize._B92_INPUTS @ b92_isometry(f)[0].T for f in fs])
        else:
            channel = parse_channel_spec("YI=0.45", 2)
            fs, targets = optimize.default_f_values("twenty"), []
            for cloner in ClonerKind:
                forms = fidelity_quadratic_forms(cloner, 2, mubs_for(2).bases, channel)
                m_ab, m_ae = (m.mean(axis=0) for m in forms)
                targets += [exact_frontier_point(m_ab, m_ae, f)[None] for f in fs]
            targets = np.array(targets)
        batch = optimize.compile_programs(kind, targets)
        for theta, target in zip(batch, targets):
            np.testing.assert_array_equal(theta, optimize.compile_programs(kind, target[None])[0])

    def test_a_b92_row_reads_alike_in_any_sweep(self):
        # `--f 1:1:1` once printed -3.19e-14 where `--f 0.5:1:0.5` printed 0
        (alone,) = frontier_sweep("b92", f_values=[1.0]).series("qml")
        (_, paired) = frontier_sweep("b92", f_values=[0.5, 1.0]).series("qml")
        np.testing.assert_array_equal(alone.parameters, paired.parameters)
        for field in ("f_ab", "f_ae", "target_miss"):
            assert getattr(alone, field) == getattr(paired, field)

    @pytest.mark.parametrize("task", ["twenty", "b92"])
    def test_a_compile_off_its_program_warns_and_carries_its_miss(self, task, monkeypatch, caplog):
        real = optimize.compile_programs
        monkeypatch.setattr(optimize, "compile_programs", lambda kind, a: real(kind, a) + 1e-3)
        if task == "twenty":
            channel = parse_channel_spec("YI=0.45", 2)
            rows = frontier_sweep("twenty", f_values=[0.45, 0.5], channel=channel).series("ng")
        else:
            rows = frontier_sweep("b92", f_values=[0.75, 0.9]).series("qml")
        for row in rows:
            assert f"{row.series}  f={row.f_target:.3f}: compiled program off by" in caplog.text
            if task == "twenty":
                program = SoftwareState(program_prep_state(row.parameters))
                f_ab = clone_fidelities(ClonerKind.NG, 2, program, channel).f_ab_avg
            else:
                per = b92_per_state_fidelities(b92_ansatz_circuit(row.parameters))
                f_ab = np.mean([v[0] for v in per.values()])
            assert abs(row.f_ab_avg - f_ab) < 1e-12
            assert row.target_miss == abs(row.f_ab_avg - row.f_target) > 1e-9

    def test_b92_rows_match_the_simulation_oracle(self):
        result = frontier_sweep("b92", f_values=[0.7, 0.8])
        rows = result.series("qml")
        assert len(rows) == 2
        for row in rows:
            per = b92_per_state_fidelities(b92_ansatz_circuit(row.parameters))
            assert list(row.f_ab) == list(row.f_ae) == list(per)
            for lbl, (f_ab, f_ae) in per.items():
                assert abs(row.f_ab[lbl] - f_ab) < 1e-12
                assert abs(row.f_ae[lbl] - f_ae) < 1e-12
            assert abs(row.f_ab_avg - np.mean([v[0] for v in per.values()])) < 1e-12
            assert abs(row.f_ae_avg - np.mean([v[1] for v in per.values()])) < 1e-12
            assert row.target_miss == abs(row.f_ab_avg - row.f_target)

    def test_b92_rows_sit_on_the_exact_isometries(self):
        result = frontier_sweep("b92", f_values=B92_TARGETS)
        rows = result.series("qml")
        assert [r.f_target for r in rows] == sorted(B92_TARGETS)
        for row in rows:
            w, _ = b92_isometry(row.f_target)
            np.testing.assert_allclose(w.T @ w, np.eye(2), rtol=0, atol=1e-12)
            assert row.target_miss <= 1e-9
            assert abs(row.f_ae_avg - _isometry_fidelities(w)[1]) < 1e-12

    def test_exact_b92_frontier_values(self):
        f_ae = {f: _isometry_fidelities(b92_isometry(f)[0])[1] for f in B92_TARGETS}
        for f, value in f_ae.items():
            if _S8 <= f <= _C8:
                assert abs(value - 1) < 1e-12  # the flat region
            # Y on Bob's qubit maps F_AB to 1 - F_AB and keeps F_AE
            assert abs(value - _isometry_fidelities(b92_isometry(1 - f)[0])[1]) < 1e-12
        for f, value in B92_DIGITS.items():
            assert abs(f_ae[f] - value) < 1e-9
        # f = 1: Bob keeps the input, and Eve's best fixed state has cos^2(pi/8)
        assert abs(f_ae[1] - _C8) < 1e-12 and abs(f_ae[0] - _C8) < 1e-12

    def test_b92_dual_certifies_every_row(self):
        # weak duality: for every isometry V, F_AE(V) + lam (F_AB(V) - f) is at
        # most the dual value, which the solver's multipliers make tight
        c_ab, c_ae, s = _b92_dual_forms()
        rng = np.random.default_rng(36)
        draws = [np.linalg.qr(rng.standard_normal((4, 2)))[0] for _ in range(200)]
        draws = [(v, *_isometry_fidelities(v)) for v in draws]
        for f in B92_TARGETS:
            if f in (0, 1):
                continue  # the bound is reached only as lam grows without limit
            w, (lam, d) = b92_isometry(f)
            dual = 2 * np.linalg.eigvalsh(c_ae + lam * c_ab - d * s)[-1] - lam * f
            assert abs(dual - _isometry_fidelities(w)[1]) < 1e-9
            for v, f_ab, f_ae in draws:
                assert f_ae + lam * (f_ab - f) <= dual + 1e-12

    def test_exact_rows_share_one_sign(self):
        # the eigensolver leaves the sign free: f=0.55 and 0.65 once printed
        # all-negative programs beside an all-positive one at f=0.6
        ch = PauliChannel(1, {PauliString("X"): 0.25})
        rows = frontier_sweep("bb84", f_values=[0.55, 0.6, 0.65], channel=ch).series("ng")
        bases = [mubs_for(1)[lbl] for lbl in "ZX"]
        forms = fidelity_quadratic_forms(ClonerKind.NG, 1, bases, ch)
        assert len({tuple(np.sign(r.parameters)) for r in rows}) == 1
        for row, eve in zip(rows, [0.872761847016, 0.865845965512, 0.853559906333]):
            psi = row.parameters
            assert psi[np.argmax(np.abs(psi))] > 0
            assert abs(row.f_ab_avg - row.f_target) < 1e-12
            assert abs(row.f_ae_avg - eve) < 1e-12
            flipped = optimize._forms_report("ZX", forms, -psi)
            assert (flipped.f_ab, flipped.f_ae) == (row.f_ab, row.f_ae)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            frontier_sweep("mystery")

    def test_empty_targets(self):
        with pytest.raises(ValueError):
            frontier_sweep("bb84", f_values=[])

    def test_bb84_sweep_rows_and_determinism(self):
        ch = PauliChannel(1, {PauliString("X"): 0.25})
        fs = [0.7, 0.75]
        r1 = frontier_sweep("bb84", f_values=fs, channel=ch)
        r2 = frontier_sweep("bb84", f_values=fs, channel=ch)
        ng1, ng2 = r1.series("ng"), r2.series("ng")
        assert len(ng1) == 2
        for a, b in zip(ng1, ng2):
            np.testing.assert_array_equal(a.parameters, b.parameters)
            assert a.f_ab == b.f_ab and a.f_ae == b.f_ae
        assert [r.f_target for r in r1.series("pccm")] == fs

    def test_rows_sorted_by_target(self):
        ch = PauliChannel(1, {PauliString("X"): 0.25})
        result = frontier_sweep("bb84", f_values=[0.8, 0.7], channel=ch)
        targets = [r.f_target for r in result.rows if not math.isnan(r.f_target)]
        assert targets == sorted(targets)

    def test_pareto_filter_monotone(self):
        pts = [(0.6, 0.9), (0.7, 0.95), (0.8, 0.8), (0.9, 0.7), (0.85, 0.6)]
        front = pareto_filter(pts)
        xs = [p[0] for p in front]
        ys = [p[1] for p in front]
        assert xs == sorted(xs)
        assert all(ys[i] >= ys[i + 1] for i in range(len(ys) - 1))
        assert (0.6, 0.9) not in front  # dominated by (0.7, 0.95)

    @pytest.mark.parametrize("xyz", [(0.0, 0.5, 0.0), (1.0, 0.0, 0.0), (0.25, 0.25, 0.25)])
    def test_pccm_reference_where_the_family_sits_at_one_half(self, xyz):
        # p_X + 2 p_Y + p_Z = 1: by simulation every phase-covariant cloner
        # has noisy Bob and Eve averages 1/2, so f = 1/2 is the only target
        ch = PauliChannel.from_xyz(*xyz)
        bases = [mubs_for(1)[lbl] for lbl in "ZX"]
        for theta in (0.0, 0.3, math.pi / 8, 0.7):
            program = table1_angles("pccm", theta=theta).to_program()
            rep = clone_fidelities(ClonerKind.NG, 1, program, ch, bases)
            assert rep.f_ab_avg == pytest.approx(0.5, abs=1e-12)
            assert rep.f_ae_avg == pytest.approx(0.5, abs=1e-12)
        assert optimize.reference_eve("pccm", 0.5, ch) == 0.5
        for f in (0.45, 0.5 + 1e-9, 0.6):
            with pytest.raises(ValueError, match="no Bob-favoring"):
                optimize.reference_eve("pccm", f, ch)

    # none; biased; 1 - 2q < 0 for both families; q = 1/2 for both; q = 1/2
    # for pccm only
    REFERENCE_CHANNELS = [
        None, (0.25, 0.0, 0.1), (0.5, 0.3, 0.2), (0.25, 0.25, 0.25), (0.0, 0.5, 0.0)
    ]

    @pytest.mark.parametrize("family, top", [("pccm", math.pi / 4), ("uqcm", math.pi / 2)])
    @pytest.mark.parametrize("xyz", REFERENCE_CHANNELS)
    def test_reference_eve_matches_the_engine_along_the_family(self, family, top, xyz):
        # the engine's noisy averages of table1_angles(family, theta) on the
        # family's bases: reference_eve maps the Bob average onto the Eve one.
        # At the family's ends Eve's slope in Bob is infinite, so an input
        # rounded by 1e-16 moves her by about 1e-8
        ch = None if xyz is None else PauliChannel.from_xyz(*xyz)
        bases = [mubs_for(1)[lbl] for lbl in optimize.REFERENCE_FAMILIES[family][1]]
        thetas = np.concatenate([[0.0, 5e-4], np.linspace(0.0, top, 41)[1:-1], [top - 5e-4, top]])
        for theta in thetas:
            program = table1_angles(family, theta=theta).to_program()
            rep = clone_fidelities(ClonerKind.NG, 1, program, ch, bases)
            bound = 1e-12 if 1e-3 < theta < top - 1e-3 else 1e-7
            got = optimize.reference_eve(family, rep.f_ab_avg, ch)
            assert abs(got - rep.f_ae_avg) <= bound

    def test_universal_reference_outside_the_family(self):
        # noiseless, the family's Bob fidelity runs from 1/3 to 1
        assert optimize.reference_eve("uqcm", 1 / 3, None) == pytest.approx(5 / 6, abs=1e-15)
        for f in (0.3, 1 / 3 - 1e-9):
            with pytest.raises(ValueError, match="no asymmetric universal cloner"):
                optimize.reference_eve("uqcm", f, None)

    def test_reference_eve_refuses_a_two_qubit_channel(self):
        with pytest.raises(ValueError, match="expected a single-qubit channel"):
            optimize.reference_eve("pccm", 0.8, parse_channel_spec("XI=0.1", 2))

    def test_sixstate_beats_universal_reference(self):
        # biased noise (p_X=0.25, p_Z=0.1): the optimized cloner must beat
        # the asymmetric universal family at matched Bob averages
        from paulicloner.noise import parse_channel_spec

        ch = parse_channel_spec("X=0.25,Z=0.1", 1)
        result = frontier_sweep(
            "sixstate",
            f_values=[0.6, 0.65, 0.7],
            channel=ch,
        )
        uqcm = {r.f_target: r.f_ae_avg for r in result.series("uqcm")}
        pts = pareto_filter(
            [(r.f_ab_avg, r.f_ae_avg) for r in result.series("ng")]
        )
        xs, ys = [p[0] for p in pts], [p[1] for p in pts]
        compared = 0
        for f, y_ref in uqcm.items():
            if min(xs) <= f <= max(xs):
                assert float(np.interp(f, xs, ys)) > y_ref
                compared += 1
        assert compared >= 2

    def test_achieved_frontier_is_monotone_after_pareto(self):
        ch = PauliChannel(1, {PauliString("X"): 0.25})
        result = frontier_sweep(
            "bb84",
            f_values=[0.6, 0.65, 0.7, 0.75],
            channel=ch,
        )
        front = pareto_filter(
            [(r.f_ab_avg, r.f_ae_avg) for r in result.series("ng")]
        )
        assert len(front) >= 3
        ys = [p[1] for p in front]
        assert all(ys[i] >= ys[i + 1] for i in range(len(ys) - 1))
