import math

import numpy as np
import pytest

from paulicloner.analytic import (
    ImbalanceEta,
    QualityWeights,
    ng1q_fidelities,
    ng2q_fidelities,
    ng_eve_pairs,
    ng_nq_bob_fidelity,
    ng_stabilizer_indices,
    qid1q_fidelities,
    qid2q_fidelities,
    qid_closed_form,
    qid_uqcm_program_2q,
    table1_angles,
    uqcm_fidelity,
    uqcm_program_ng,
)
from paulicloner.cloner import (
    ClonerKind,
    NgAngles,
    SoftwareState,
    clone_fidelities,
    ng_angles_to_program,
)
from paulicloner.mub import MubBasis, mubs_for
from paulicloner.simcore import StateVector


def random_program(rng, n, complex_amps=False):
    v = rng.standard_normal(4**n)
    if complex_amps:
        v = v + 1j * rng.standard_normal(4**n)
    return SoftwareState(v / np.linalg.norm(v))


class TestNg1q:
    def test_e0(self):
        report = ng1q_fidelities(SoftwareState.computational(1))
        assert all(report.f_ab[b] == 1.0 for b in "ZXY")
        assert all(report.f_ae[b] == 0.5 for b in "ZXY")

    def test_symmetric_universal(self):
        report = ng1q_fidelities(table1_angles("uqcm").to_program())
        for b in "ZXY":
            assert report.f_ab[b] == pytest.approx(5 / 6, abs=1e-12)
            assert report.f_ae[b] == pytest.approx(5 / 6, abs=1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = random_program(rng, 1, complex_amps=rng.random() < 0.5)
            got = ng1q_fidelities(s)
            ref = clone_fidelities(ClonerKind.NG, 1, s)
            for b in "ZXY":
                assert got.f_ab[b] == pytest.approx(ref.f_ab[b], abs=1e-10)
                assert got.f_ae[b] == pytest.approx(ref.f_ae[b], abs=1e-10)


class TestQid1q:
    def test_e0(self):
        report = qid1q_fidelities(SoftwareState.computational(1))
        assert report.f_ab["Z"] == report.f_ae["Z"] == 1.0
        assert report.f_ab["X"] == report.f_ae["Y"] == 0.5

    def test_pccm_values(self):
        prog = ng_angles_to_program(NgAngles(math.pi / 4, math.pi / 4, 0.0))
        report = qid1q_fidelities(prog)
        expect = (1 + math.sqrt(2) / 2) / 2
        for b in "XY":
            assert report.f_ab[b] == pytest.approx(expect, abs=1e-12)
            assert report.f_ae[b] == pytest.approx(expect, abs=1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = random_program(rng, 1, complex_amps=rng.random() < 0.5)
            got = qid1q_fidelities(s)
            ref = clone_fidelities(ClonerKind.QID, 1, s)
            for b in "ZXY":
                assert got.f_ab[b] == pytest.approx(ref.f_ab[b], abs=1e-10)
                assert got.f_ae[b] == pytest.approx(ref.f_ae[b], abs=1e-10)


class TestNg2q:
    def test_e0(self):
        report = ng2q_fidelities(SoftwareState.computational(2))
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == 1.0
            assert report.f_ae[lbl] == pytest.approx(0.25)

    def test_universal_amplitudes(self):
        prog = uqcm_program_ng(2)
        assert prog.amplitudes[0] == pytest.approx(math.sqrt(5 / 8))
        assert prog.amplitudes[1] == pytest.approx(math.sqrt(1 / 40))
        report = ng2q_fidelities(prog)
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == pytest.approx(0.7, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(0.7, abs=1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            s = random_program(rng, 2)
            got = ng2q_fidelities(s)
            ref = clone_fidelities(ClonerKind.NG, 2, s)
            for lbl in ref.basis_labels:
                assert got.f_ab[lbl] == pytest.approx(ref.f_ab[lbl], abs=1e-10)
                assert got.f_ae[lbl] == pytest.approx(ref.f_ae[lbl], abs=1e-10)

    def test_rejects_complex_programs(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            ng2q_fidelities(random_program(rng, 2, complex_amps=True))

    def test_bob_index_sets(self):
        idx = ng_stabilizer_indices(2)
        assert idx == {
            "M0": (4, 8, 12),
            "M1": (1, 2, 3),
            "M2": (7, 9, 14),
            "M3": (5, 10, 15),
            "M4": (6, 11, 13),
        }

    def test_pair_partition(self):
        # every unordered pair lands in exactly one Eve expression
        seen = {}
        for lbl, pairs in ng_eve_pairs(2).items():
            assert len(pairs) == 24
            for pr in pairs:
                assert pr not in seen, (pr, lbl, seen.get(pr))
                seen[pr] = lbl
        assert len(seen) == 16 * 15 // 2


class TestQid2q:
    def test_e0(self):
        report = qid2q_fidelities(SoftwareState.computational(2))
        assert report.f_ab["M0"] == 1.0
        assert report.f_ae["M0"] == 1.0
        np.testing.assert_allclose(report.per_state_ab["M1"], [0.25] * 4)

    def test_universal_program_is_uniform(self):
        report = qid2q_fidelities(qid_uqcm_program_2q())
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == pytest.approx(0.7, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(0.7, abs=1e-12)

    def test_bit_reversed_one_positions_are_not_universal(self):
        # the index set {4, 5, 8, 10, 12, 15} is the bit-reversal of the
        # working one and fails to equalize Eve's fidelities
        amps = np.zeros(16)
        amps[0] = 2.0
        for j in (4, 5, 8, 10, 12, 15):
            amps[j] = 1.0
        report = qid2q_fidelities(SoftwareState(amps / math.sqrt(10)))
        assert max(report.f_ae.values()) - min(report.f_ae.values()) > 0.1

    def test_m1_split_matches_simulation_per_state(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            s = random_program(rng, 2)
            got = qid2q_fidelities(s)
            ref = clone_fidelities(ClonerKind.QID, 2, s)
            for lbl in ref.basis_labels:
                np.testing.assert_allclose(
                    got.per_state_ab[lbl], ref.per_state_ab[lbl], atol=1e-10
                )
                np.testing.assert_allclose(
                    got.per_state_ae[lbl], ref.per_state_ae[lbl], atol=1e-10
                )

    def test_m3_m4_always_coincide(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            report = qid2q_fidelities(random_program(rng, 2))
            assert report.f_ab["M3"] == report.f_ab["M4"]
            assert report.f_ae["M3"] == report.f_ae["M4"]


class TestGeneralizedBobFidelity:
    def test_matches_two_qubit_rows(self):
        rng = np.random.default_rng(6)
        mubs = mubs_for(2)
        for _ in range(20):
            s = random_program(rng, 2)
            report = ng2q_fidelities(s)
            for basis in mubs.bases:
                assert ng_nq_bob_fidelity(s, basis) == pytest.approx(
                    report.f_ab[basis.label], abs=1e-12
                )

    def test_single_qubit_z(self):
        rng = np.random.default_rng(7)
        s = random_program(rng, 1)
        a = s.amplitudes.real
        assert ng_nq_bob_fidelity(s, mubs_for(1)["Z"]) == pytest.approx(
            a[0] ** 2 + a[2] ** 2, abs=1e-12
        )

    def test_basis_without_pauli_rays_raises(self):
        c, s = math.cos(0.3), math.sin(0.3)
        tilted = MubBasis("T", (StateVector(1, [c, s]), StateVector(1, [-s, c])))
        with pytest.raises(ValueError, match="onto a basis ray"):
            ng_nq_bob_fidelity(uqcm_program_ng(1), tilted)


class TestUqcmProgram:
    def test_single_qubit_amplitudes(self):
        prog = uqcm_program_ng(1)
        assert prog.amplitudes[0] == pytest.approx(math.sqrt(3 / 4))
        assert prog.amplitudes[1] == pytest.approx(math.sqrt(1 / 12))
        report = ng1q_fidelities(prog)
        assert report.f_ab_avg == pytest.approx(5 / 6, abs=1e-12)

    def test_fidelity_formula(self):
        assert uqcm_fidelity(1) == pytest.approx(5 / 6)
        assert uqcm_fidelity(2) == pytest.approx(0.7)
        assert uqcm_fidelity(3) == pytest.approx(11 / 18)


class TestTable1Angles:
    def test_symmetric_universal_point(self):
        angles = table1_angles("uqcm")
        assert angles.theta == pytest.approx(math.atan(1 / 3))
        assert angles.phi == pytest.approx(math.pi / 4)
        assert angles.rho == pytest.approx(
            math.atan(math.sqrt(2) * math.sin(math.atan(1 / 3)))
        )

    def test_universal_family_is_universal_for_both(self):
        for theta in (0.1, 0.3, 0.5, 0.8):
            report = ng1q_fidelities(table1_angles("uqcm", theta=theta).to_program())
            assert np.ptp(list(report.f_ab.values())) < 1e-12
            assert np.ptp(list(report.f_ae.values())) < 1e-12

    def test_imbalanced_eta_one_reduces_to_pccm(self):
        assert table1_angles("imbalanced", eta=1.0) == table1_angles("pccm")

    def test_pccm_covers_z_and_x(self):
        report = ng1q_fidelities(table1_angles("pccm").to_program())
        expect = (1 + math.cos(math.pi / 4)) / 2
        assert report.f_ab["Z"] == pytest.approx(expect, abs=1e-12)
        assert report.f_ab["X"] == pytest.approx(expect, abs=1e-12)
        assert report.f_ae["Z"] == pytest.approx(expect, abs=1e-12)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            table1_angles("imbalanced", eta=-2.0)
        with pytest.raises(ValueError):
            table1_angles("imbalanced")
        with pytest.raises(ValueError):
            ImbalanceEta(0.0)
        with pytest.raises(ValueError, match="eta must be positive"):
            ImbalanceEta(math.nan)
        with pytest.raises(ValueError, match="eta must be positive"):
            table1_angles("imbalanced", eta=math.nan)

    def test_eta_from_channel(self):
        eta = ImbalanceEta.from_channel(0.25, 0.0, 0.0)
        assert eta.eta == pytest.approx(2.0)


class TestQidClosedForm:
    def test_cnot_cloner(self):
        report = qid1q_fidelities(qid_closed_form("cnot").to_program())
        assert report.f_ab["Z"] == report.f_ae["Z"] == 1.0

    def test_z_asymmetric(self):
        phi = 0.4
        report = qid1q_fidelities(qid_closed_form("z-asym", phi=phi).to_program())
        assert report.f_ab["Z"] == pytest.approx(math.sin(phi) ** 2, abs=1e-12)
        assert report.f_ae["Z"] == pytest.approx(math.cos(phi) ** 2, abs=1e-12)

    def test_pccm_asymmetry(self):
        # phi = 0 must favor Eve, consistent with the imbalanced-cloner
        # limit; the fidelity pair is ((1+sin)/2, (1+cos)/2)
        phi = 0.3
        report = qid1q_fidelities(qid_closed_form("pccm", phi=phi).to_program())
        assert report.f_ab["X"] == pytest.approx((1 + math.sin(phi)) / 2, abs=1e-12)
        assert report.f_ae["X"] == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-12)
        assert report.f_ab["X"] == pytest.approx(report.f_ab["Y"], abs=1e-12)

    def test_asymmetric_universal_branches(self):
        for rho in (0.7, 0.9, 1.1):
            for branch in (+1, -1):
                angles = qid_closed_form("uqcm-asym", rho=rho, branch=branch)
                report = qid1q_fidelities(angles.to_program())
                assert np.ptp(list(report.f_ab.values())) < 1e-10
                assert np.ptp(list(report.f_ae.values())) < 1e-10
        bob_heavy = qid1q_fidelities(
            qid_closed_form("uqcm-asym", rho=0.75, branch=+1).to_program()
        )
        eve_heavy = qid1q_fidelities(
            qid_closed_form("uqcm-asym", rho=0.75, branch=-1).to_program()
        )
        assert bob_heavy.f_ab_avg > bob_heavy.f_ae_avg
        assert eve_heavy.f_ae_avg > eve_heavy.f_ab_avg

    def test_asymmetric_universal_domain(self):
        with pytest.raises(ValueError):
            qid_closed_form("uqcm-asym", rho=0.3)

    def test_imbalanced_equal_rates_reduce_to_pccm(self):
        angles = qid_closed_form("xy-imbalanced-sym", p_x=0.2, p_y=0.2)
        assert angles.theta == pytest.approx(0.0)
        assert angles.rho == pytest.approx(math.pi / 4)

    def test_imbalanced_asymmetry_extremes(self):
        # phi = 0 hands everything to Eve, phi = pi/2 to Bob
        p_x, p_y = 0.25, 0.0
        rep0 = qid1q_fidelities(
            qid_closed_form("xy-imbalanced", p_x=p_x, p_y=p_y, phi=0.0).to_program()
        )
        assert rep0.f_ab["X"] == pytest.approx(0.5, abs=1e-12)
        rep1 = qid1q_fidelities(
            qid_closed_form(
                "xy-imbalanced", p_x=p_x, p_y=p_y, phi=math.pi / 2
            ).to_program()
        )
        assert rep1.f_ae["X"] == pytest.approx(0.5, abs=1e-12)


class TestRealOptimality:
    def test_phases_do_not_improve_weighted_objectives(self):
        # spot check: Adam over moduli plus relative phases never beats the
        # best real program by more than 1e-6
        from oracle import central_difference

        from paulicloner.optimize import OptimizerConfig, adam_optimize

        rng = np.random.default_rng(8)
        for trial in range(3):
            w_ab = rng.uniform(0.2, 1.0, 3)
            w_ae = rng.uniform(0.2, 1.0, 3)

            def score(report):
                return float(
                    sum(w * report.f_ab[b] for w, b in zip(w_ab, "ZXY"))
                    + sum(w * report.f_ae[b] for w, b in zip(w_ae, "ZXY"))
                )

            def real_objective(params):
                return -score(ng1q_fidelities(ng_angles_to_program(NgAngles(*params))))

            def complex_objective(params):
                base = ng_angles_to_program(NgAngles(*params[:3])).amplitudes
                phases = np.exp(1j * np.concatenate([[0.0], params[3:]]))
                return -score(ng1q_fidelities(SoftwareState(base * phases)))

            cfg = OptimizerConfig(steps=150, restarts=4, seed=trial)
            _, trace_real = adam_optimize(
                real_objective,
                np.zeros(3),
                cfg,
                lambda p: central_difference(real_objective, p),
            )
            best_real = min(trace_real)
            best_complex = np.inf
            for restart in range(4):
                sub = np.random.default_rng(100 * trial + restart)
                p0 = sub.uniform(-math.pi, math.pi, 6)
                p = p0.copy()
                m = v = np.zeros(6)
                for t in range(1, 151):
                    g = np.empty(6)
                    for k in range(6):
                        step = p.copy()
                        step[k] += 1e-5
                        fp = complex_objective(step)
                        step[k] -= 2e-5
                        fm = complex_objective(step)
                        g[k] = (fp - fm) / 2e-5
                    m = 0.9 * m + 0.1 * g
                    v = 0.999 * v + 0.001 * g * g
                    p = p - 0.1 * (m / (1 - 0.9**t)) / (
                        np.sqrt(v / (1 - 0.999**t)) + 1e-8
                    )
                    best_complex = min(best_complex, complex_objective(p))
            assert best_complex >= best_real - 1e-6


class TestQualityWeights:
    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            QualityWeights({"X": 0.0, "Y": 0.0, "Z": 0.0})

    def test_from_xyz(self):
        w = QualityWeights.from_xyz(1.0, 1.0, 0.0)
        assert w.weights == {"X": 1.0, "Y": 1.0, "Z": 0.0}
