import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import central_difference, reference_fidelities

from paulicloner.analytic import QualityWeights, table1_angles
from paulicloner import optimize
from paulicloner.cloner import (
    ClonerKind,
    SoftwareState,
    b92_per_state_fidelities,
    clone_fidelities,
)
from paulicloner.mub import PauliString, mubs_for
from paulicloner.noise import PauliChannel, channel_with_single_error, noisy_fidelity_1q
from paulicloner.optimize import (
    TASKS,
    AnsatzSpec,
    OptimizerConfig,
    adam_optimize,
    b92_ansatz_circuit,
    b92_loss_and_grad,
    b92_qml_fidelities,
    evaluate_ansatz,
    exact_frontier_point,
    fidelity_quadratic_forms,
    forms_mean_matrices,
    frontier_sweep,
    grid_frontier_b92,
    layered_pass,
    loss,
    make_b92_loss,
    make_program_loss,
    pareto_filter,
    program_prep_circuit,
    program_prep_loss_and_grad,
    program_prep_state,
    program_prep_state_and_shift_grads,
    quadratic_fidelity,
    quality,
    report_from_forms,
    shift_gradient_states,
)
from paulicloner.simcore import Circuit, GateOp, apply_circuit, basis_state


class TestLossAndQuality:
    def test_loss_values(self):
        assert loss(0.7, 1.0, 0.7) == pytest.approx(-1.0)
        assert loss(0.9, 0.5, 0.8) == pytest.approx(-0.4)

    def test_loss_minimizer_structure(self):
        # at fixed F_AB = f the loss decreases with growing F_AE
        assert loss(0.8, 0.9, 0.8) < loss(0.8, 0.5, 0.8)

    def test_quality_universal_report(self):
        report = clone_fidelities(
            ClonerKind.NG, 1, table1_angles("uqcm").to_program()
        )
        w = QualityWeights.from_xyz(1.0, 1.0, 1.0)
        assert quality(w, report, "bob") == pytest.approx(2.5, abs=1e-10)

    def test_quality_missing_weight(self):
        report = clone_fidelities(ClonerKind.NG, 1, SoftwareState.computational(1))
        with pytest.raises(ValueError):
            quality(QualityWeights({"X": 1.0}), report, "bob")


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
        from paulicloner.simcore import apply_ops

        for _ in range(10):
            p = rng.uniform(-math.pi, math.pi, 60)
            init = np.zeros(16, dtype=complex)
            init[0] = 1.0
            ref = apply_ops(init, 4, program_prep_circuit(p).ops)
            np.testing.assert_allclose(program_prep_state(p), ref, atol=1e-12)

    def test_b92_fast_fidelities_match_circuit(self):
        from paulicloner.cloner import b92_per_state_fidelities

        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.uniform(-math.pi, math.pi, 18)
            fab, fae = b92_qml_fidelities(p)
            per = b92_per_state_fidelities(b92_ansatz_circuit(p))
            assert fab == pytest.approx(np.mean([v[0] for v in per.values()]), abs=1e-12)
            assert fae == pytest.approx(np.mean([v[1] for v in per.values()]), abs=1e-12)


class TestAdam:
    def test_toy_quadratic(self):
        objective = lambda p: float((p[0] - 1.0) ** 2)
        gradient = lambda p: np.array([2.0 * (p[0] - 1.0), 0.0, 0.0])
        params, trace = adam_optimize(
            objective, np.zeros(3), OptimizerConfig(steps=100, restarts=1), gradient
        )
        assert abs(params[0] - 1.0) < 1e-3
        assert trace[-1] < trace[0]

    def test_nonfinite_objective_aborts(self):
        def bad(params):
            return float("nan")

        with pytest.raises(RuntimeError):
            adam_optimize(bad, np.zeros(3), OptimizerConfig(restarts=1), np.zeros_like)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        target = rng.uniform(-1, 1, 3)
        objective = lambda p: float(np.sum((p - target) ** 2))
        gradient = lambda p: 2.0 * (p - target)
        cfg = OptimizerConfig(steps=30, restarts=3, seed=11)
        p1, t1 = adam_optimize(objective, np.zeros(3), cfg, gradient)
        p2, t2 = adam_optimize(objective, np.zeros(3), cfg, gradient)
        np.testing.assert_array_equal(p1, p2)
        assert t1 == t2


class TestGradients:
    def test_program_prep_shift_matches_central_difference(self):
        rng = np.random.default_rng(4)
        ch = channel_with_single_error(2, PauliString("YI"), 0.45)
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
    m_ab, m_ae = forms_mean_matrices(forms)
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
        ch = channel_with_single_error(2, PauliString("YI"), 0.45)
        return fidelity_quadratic_forms(ClonerKind.NG, 2, bases, ch)
    if name == "qid-twenty":
        ch = PauliChannel(2, {PauliString("XZ"): 0.2, PauliString("YY"): 0.1})
        return fidelity_quadratic_forms(ClonerKind.QID, 2, bases, ch)
    return fidelity_quadratic_forms(ClonerKind.NG, 2, bases[:2], None)  # pairs


class TestAdjointGradients:
    @pytest.mark.parametrize("name", ["ng-twenty", "qid-twenty", "pairs"])
    def test_program_prep_matches_shift_reference(self, name):
        rng = np.random.default_rng(30)
        forms = _prep_forms(name)
        m_ab, m_ae = forms_mean_matrices(forms)
        objective, gradient = make_program_loss(forms, 0.55)
        for _ in range(4):
            p = rng.uniform(-math.pi, math.pi, 60)
            value, g = program_prep_loss_and_grad(np.stack([m_ab, m_ae]), 0.55, p)
            assert abs(value - objective(p)) < 1e-14
            np.testing.assert_allclose(
                g, _shift_rule_prep_gradient(forms, 0.55, p), rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(gradient(p), g)

    @pytest.mark.parametrize("f_target", [0.6, 0.8])
    def test_b92_matches_shift_reference(self, f_target):
        rng = np.random.default_rng(31)
        objective, gradient = make_b92_loss(f_target)
        for _ in range(4):
            p = rng.uniform(-math.pi, math.pi, 18)
            value, g = b92_loss_and_grad(f_target, p)
            assert abs(value - loss(*b92_qml_fidelities(p), f_target)) < 1e-14
            assert abs(value - objective(p)) < 1e-14
            np.testing.assert_allclose(
                g, _shift_rule_b92_gradient(f_target, p), rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(gradient(p), g)

    def test_forward_state_is_program_prep_state(self):
        from paulicloner.optimize import _PREP_INPUTS, _PREP_RING_PERM

        seen = []

        def capture(final):
            seen.append(final.copy())
            return 0.0, np.zeros_like(final)

        p = np.random.default_rng(32).uniform(-math.pi, math.pi, 60)
        _, g = layered_pass(p.reshape(5, 4, 3), _PREP_INPUTS, _PREP_RING_PERM, capture)
        np.testing.assert_array_equal(seen[0][0], program_prep_state(p))
        np.testing.assert_array_equal(g, np.zeros(60))


class TestQuadraticForms:
    def test_forms_reproduce_simulation(self):
        rng = np.random.default_rng(7)
        ch = channel_with_single_error(2, PauliString("XZ"), 0.3)
        for kind in (ClonerKind.NG, ClonerKind.QID):
            forms = fidelity_quadratic_forms(kind, 2, mubs_for(2).bases, ch)
            for _ in range(5):
                v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                v /= np.linalg.norm(v)
                got = report_from_forms(forms, v)
                ref = clone_fidelities(kind, 2, SoftwareState(v), channel=ch)
                for lbl in ref.basis_labels:
                    np.testing.assert_allclose(
                        got.per_state_ab[lbl], ref.per_state_ab[lbl], atol=1e-12
                    )
                    np.testing.assert_allclose(
                        got.per_state_ae[lbl], ref.per_state_ae[lbl], atol=1e-12
                    )

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
                for basis in mubs_for(n).bases:
                    m_ab, m_ae = forms["ab"][basis.label], forms["ae"][basis.label]
                    for s, st in enumerate(basis.states):
                        ref = reference_fidelities(kind, n, prog, st.amplitudes, ch)
                        got = (
                            quadratic_fidelity(m_ab[s], psi),
                            quadratic_fidelity(m_ae[s], psi),
                        )
                        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def _mean_forms(kind, labels, channel=None):
    bases = [mubs_for(1)[lbl] for lbl in labels]
    return forms_mean_matrices(fidelity_quadratic_forms(kind, 1, bases, channel))


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
# per task: its optimized series (series, label) in seed order, whether they
# are Adam series, its reference series
SWEEP_SERIES = {
    "bb84": ([("ng", "")], False, ["pccm"]),
    "sixstate": ([("ng", "")], False, ["uqcm"]),
    "twenty": ([("ng", ""), ("qid", "")], True, []),
    "b92": ([("qml", "")], True, ["grid-ng", "grid-qid"]),
    "pairs": ([(s, lbl) for lbl in PAIR_LABELS for s in ("ng", "qid")], True, []),
}


class TestSweep:
    @pytest.mark.parametrize("task", TASKS)
    def test_rows_and_row_seeds_per_task(self, task, monkeypatch):
        fs = [0.7, 0.8]
        cfg = OptimizerConfig(steps=2, restarts=1, seed=21)
        seeds = {}
        real_adam = optimize.adam_optimize

        def recording_adam(objective, start, row_cfg, grad):
            params, trace = real_adam(objective, start, row_cfg, grad)
            seeds[id(params)] = row_cfg.seed
            return params, trace

        monkeypatch.setattr(optimize, "adam_optimize", recording_adam)
        result = frontier_sweep(task, f_values=fs, cfg=cfg)
        units, adam, references = SWEEP_SERIES[task]
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
        assert len(seeds) == (len(units) * len(fs) if adam else 0)
        # the row at target i of the u-th Adam series owns seed u * len(fs) + i
        for r in result.rows:
            if adam and r.parameters is not None:
                k = units.index((r.series, r.label)) * len(fs) + fs.index(r.f_target)
                child = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1000 + k,))
                assert seeds[id(r.parameters)] == int(child.generate_state(1)[0])

    def test_b92_rows_match_the_simulation_oracle(self):
        cfg = OptimizerConfig(steps=30, restarts=2, seed=4)
        result = frontier_sweep("b92", f_values=[0.7, 0.8], cfg=cfg)
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

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            frontier_sweep("mystery")

    def test_empty_targets(self):
        with pytest.raises(ValueError):
            frontier_sweep("bb84", f_values=[])

    def test_bb84_sweep_rows_and_determinism(self):
        ch = channel_with_single_error(1, PauliString("X"), 0.25)
        cfg = OptimizerConfig(steps=40, restarts=2, seed=5)
        fs = [0.7, 0.75]
        r1 = frontier_sweep("bb84", f_values=fs, cfg=cfg, channel=ch)
        r2 = frontier_sweep("bb84", f_values=fs, cfg=cfg, channel=ch)
        ng1, ng2 = r1.series("ng"), r2.series("ng")
        assert len(ng1) == 2
        for a, b in zip(ng1, ng2):
            np.testing.assert_array_equal(a.parameters, b.parameters)
            assert a.f_ab == b.f_ab and a.f_ae == b.f_ae
        assert [r.f_target for r in r1.series("pccm")] == fs

    def test_rows_sorted_by_target(self):
        ch = channel_with_single_error(1, PauliString("X"), 0.25)
        cfg = OptimizerConfig(steps=20, restarts=1, seed=5)
        result = frontier_sweep("bb84", f_values=[0.8, 0.7], cfg=cfg, channel=ch)
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

    def test_universal_curve_matches_the_scalar_path(self):
        # each point: the table1_angles program, its closed forms, and the
        # scalar noise transform averaged over the three bases
        ch = PauliChannel.from_xyz(0.25, 0.0, 0.1)
        xs, ys = optimize.uqcm_reference_curve(ch)
        assert xs.shape == ys.shape == (optimize.UQCM_CURVE_POINTS,)
        thetas = np.linspace(0.0, math.pi / 2, optimize.UQCM_CURVE_POINTS)
        for i in (0, 1, 1234, 2000, optimize.UQCM_CURVE_POINTS - 1):
            program = table1_angles("uqcm", theta=thetas[i]).to_program()
            a, b, c, d = program.amplitudes.real
            for got, f in ((xs[i], a**2 + c**2), (ys[i], 0.5 + a * c + b * d)):
                want = np.mean([noisy_fidelity_1q(f, bl, 0.25, 0.0, 0.1) for bl in "ZXY"])
                assert got == pytest.approx(want, abs=1e-15)

    def test_sixstate_beats_universal_reference(self):
        # biased noise (p_X=0.25, p_Z=0.1): the optimized cloner must beat
        # the asymmetric universal family at matched Bob averages
        from paulicloner.noise import parse_channel_spec

        ch = parse_channel_spec("X=0.25,Z=0.1", 1)
        result = frontier_sweep(
            "sixstate",
            f_values=[0.6, 0.65, 0.7],
            cfg=OptimizerConfig(steps=120, restarts=4, seed=12),
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
        ch = channel_with_single_error(1, PauliString("X"), 0.25)
        result = frontier_sweep(
            "bb84",
            f_values=[0.6, 0.65, 0.7, 0.75],
            cfg=OptimizerConfig(steps=60, restarts=2, seed=13),
            channel=ch,
        )
        front = pareto_filter(
            [(r.f_ab_avg, r.f_ae_avg) for r in result.series("ng")]
        )
        assert len(front) >= 3
        ys = [p[1] for p in front]
        assert all(ys[i] >= ys[i + 1] for i in range(len(ys) - 1))
