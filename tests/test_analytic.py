import itertools
import math

import numpy as np
import pytest

from paulicloner.analytic import (
    ImbalanceEta,
    ng_closed_form,
    ng_fidelities,
    ng_nq_bob_fidelity,
    qid_closed_form,
    qid_fidelities,
    qid_fidelity_columns,
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
    fidelity_columns,
    ng_angles_to_program,
)
from paulicloner import analytic, mub
from paulicloner.mub import MubBasis, mubs_for
from paulicloner.simcore import StateVector


def random_program(rng, n, complex_amps=False):
    v = rng.standard_normal(4**n)
    if complex_amps:
        v = v + 1j * rng.standard_normal(4**n)
    return SoftwareState(v / np.linalg.norm(v))


class TestNg1q:
    def test_e0(self):
        report = ng_fidelities(SoftwareState.computational(1))
        assert all(report.f_ab[b] == 1.0 for b in "ZXY")
        assert all(report.f_ae[b] == 0.5 for b in "ZXY")

    def test_symmetric_universal(self):
        report = ng_fidelities(table1_angles("uqcm").to_program())
        for b in "ZXY":
            assert report.f_ab[b] == pytest.approx(5 / 6, abs=1e-12)
            assert report.f_ae[b] == pytest.approx(5 / 6, abs=1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = random_program(rng, 1, complex_amps=rng.random() < 0.5)
            got = ng_fidelities(s)
            ref = clone_fidelities(ClonerKind.NG, 1, s)
            for b in "ZXY":
                assert got.f_ab[b] == pytest.approx(ref.f_ab[b], abs=1e-10)
                assert got.f_ae[b] == pytest.approx(ref.f_ae[b], abs=1e-10)


class TestQid1q:
    def test_e0(self):
        report = qid_fidelities(SoftwareState.computational(1))
        assert report.f_ab["Z"] == report.f_ae["Z"] == 1.0
        assert report.f_ab["X"] == report.f_ae["Y"] == 0.5

    def test_pccm_values(self):
        prog = ng_angles_to_program(NgAngles(math.pi / 4, math.pi / 4, 0.0))
        report = qid_fidelities(prog)
        expect = (1 + math.sqrt(2) / 2) / 2
        for b in "XY":
            assert report.f_ab[b] == pytest.approx(expect, abs=1e-12)
            assert report.f_ae[b] == pytest.approx(expect, abs=1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = random_program(rng, 1, complex_amps=rng.random() < 0.5)
            got = qid_fidelities(s)
            ref = clone_fidelities(ClonerKind.QID, 1, s)
            for b in "ZXY":
                assert got.f_ab[b] == pytest.approx(ref.f_ab[b], abs=1e-10)
                assert got.f_ae[b] == pytest.approx(ref.f_ae[b], abs=1e-10)


class TestNg2q:
    def test_e0(self):
        report = ng_fidelities(SoftwareState.computational(2))
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == 1.0
            assert report.f_ae[lbl] == pytest.approx(0.25)

    def test_universal_amplitudes(self):
        prog = uqcm_program_ng(2)
        assert prog.amplitudes[0] == pytest.approx(math.sqrt(5 / 8))
        assert prog.amplitudes[1] == pytest.approx(math.sqrt(1 / 40))
        report = ng_fidelities(prog)
        for lbl in report.basis_labels:
            assert report.f_ab[lbl] == pytest.approx(0.7, abs=1e-12)
            assert report.f_ae[lbl] == pytest.approx(0.7, abs=1e-12)

    def test_matches_simulation(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            s = random_program(rng, 2)
            got = ng_fidelities(s)
            ref = clone_fidelities(ClonerKind.NG, 2, s)
            for lbl in ref.basis_labels:
                assert got.f_ab[lbl] == pytest.approx(ref.f_ab[lbl], abs=1e-10)
                assert got.f_ae[lbl] == pytest.approx(ref.f_ae[lbl], abs=1e-10)

    def test_matches_simulation_on_complex_programs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_program(rng, 2, complex_amps=True)
            got = ng_fidelities(s)
            ref = clone_fidelities(ClonerKind.NG, 2, s)
            for lbl in ref.basis_labels:
                assert got.f_ab[lbl] == pytest.approx(ref.f_ab[lbl], abs=1e-10)
                assert got.f_ae[lbl] == pytest.approx(ref.f_ae[lbl], abs=1e-10)

    def test_bob_index_sets(self):
        idx = {
            b.label: tuple(np.flatnonzero(b.invariant_mask)[1:].tolist())
            for b in mubs_for(2).bases
        }
        assert idx == {
            "M0": (4, 8, 12),
            "M1": (1, 2, 3),
            "M2": (7, 9, 14),
            "M3": (5, 10, 15),
            "M4": (6, 11, 13),
        }

    def test_pair_partition(self):
        # every unordered pair (i, j) lands in exactly one Eve expression: that
        # of the basis whose invariant mask holds i ^ j
        seen = {}
        for b in mubs_for(2).bases:
            pairs = itertools.combinations(range(16), 2)
            pairs = [(i, j) for i, j in pairs if b.invariant_mask[i ^ j]]
            assert len(pairs) == 24
            for pr in pairs:
                assert pr not in seen, (pr, b.label, seen.get(pr))
                seen[pr] = b.label
        assert len(seen) == 16 * 15 // 2


class TestNgClosedForm:
    """The one stabilizer rule against the engine, per state, on complex programs."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_state_of_every_basis(self, n):
        rng = np.random.default_rng(10 + n)
        programs = [random_program(rng, n, complex_amps=True) for _ in range(100)]
        bases = mubs_for(n).bases
        f_ab, f_ae = ng_closed_form(np.stack([s.amplitudes for s in programs], 1), bases)
        for k, s in enumerate(programs):
            ref = clone_fidelities(ClonerKind.NG, n, s)
            report = ng_fidelities(s)
            for i, basis in enumerate(bases):
                for got, closed, want in (
                    (f_ab[i, k], report.per_state_ab, ref.per_state_ab),
                    (f_ae[i, k], report.per_state_ae, ref.per_state_ae),
                ):
                    assert len(want[basis.label]) == 2**n
                    np.testing.assert_allclose(want[basis.label], got, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(
                        want[basis.label], closed[basis.label], rtol=0, atol=1e-12
                    )

    def test_register_size_mismatch(self):
        with pytest.raises(ValueError, match="register sizes differ"):
            ng_closed_form(np.ones((16, 1)), mubs_for(1).bases)


class TestColumnForms:
    """One closed-form call on program columns gives every program's report."""

    @pytest.mark.parametrize(
        "kind, n, complex_amps",
        [
            (ClonerKind.NG, 1, False),
            (ClonerKind.NG, 1, True),
            (ClonerKind.NG, 2, False),
            (ClonerKind.NG, 2, True),
            (ClonerKind.QID, 1, False),
            (ClonerKind.QID, 1, True),
            (ClonerKind.QID, 2, False),
        ],
    )
    def test_columns_equal_the_per_program_reports_bit_for_bit(self, kind, n, complex_amps):
        rng = np.random.default_rng(60 + 4 * n + 2 * complex_amps + (kind == ClonerKind.QID))
        programs = [random_program(rng, n, complex_amps) for _ in range(200)]
        columns = np.stack([s.amplitudes for s in programs], axis=1)
        bases = mubs_for(n).bases
        if kind == ClonerKind.NG:
            per_basis = ng_closed_form(columns, bases)
            f_ab, f_ae = (np.repeat(f, len(bases[0].states), axis=0) for f in per_basis)
            report = ng_fidelities
        else:
            f_ab, f_ae = qid_fidelity_columns(columns)
            report = qid_fidelities
        for k, s in enumerate(programs):
            r = report(s)
            assert f_ab[:, k].tolist() == [f for b in bases for f in r.per_state_ab[b.label]]
            assert f_ae[:, k].tolist() == [f for b in bases for f in r.per_state_ae[b.label]]
            if kind == ClonerKind.NG:
                assert [ng_nq_bob_fidelity(s, b) for b in bases] == per_basis[0][:, k].tolist()
        # in the engine's state order
        rows = np.array([st.amplitudes for b in bases for st in b.states])
        engine = fidelity_columns(kind, n, columns, rows)
        np.testing.assert_allclose((f_ab, f_ae), engine, rtol=0, atol=1e-12)

    def test_qid_entry_checks(self):
        rng = np.random.default_rng(70)
        columns = np.stack([random_program(rng, 2).amplitudes for _ in range(3)], axis=1)
        columns[5, 1] += 1e-9j
        with pytest.raises(ValueError, match="real programs only"):
            qid_fidelity_columns(columns)
        with pytest.raises(ValueError, match="1- and 2-qubit"):
            qid_fidelity_columns(np.ones((64, 1)))


class TestQid2q:
    def test_rejects_complex_programs(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="real programs only"):
            qid_fidelities(random_program(rng, 2, complex_amps=True))

    def test_e0(self):
        report = qid_fidelities(SoftwareState.computational(2))
        assert report.f_ab["M0"] == 1.0
        assert report.f_ae["M0"] == 1.0
        np.testing.assert_allclose(report.per_state_ab["M1"], [0.25] * 4)

    def test_universal_program_is_uniform(self):
        report = qid_fidelities(qid_uqcm_program_2q())
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
        report = qid_fidelities(SoftwareState(amps / math.sqrt(10)))
        assert max(report.f_ae.values()) - min(report.f_ae.values()) > 0.1

    def test_m1_split_matches_simulation_per_state(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            s = random_program(rng, 2)
            got = qid_fidelities(s)
            ref = clone_fidelities(ClonerKind.QID, 2, s)
            for lbl in ref.basis_labels:
                np.testing.assert_allclose(
                    got.per_state_ab[lbl], ref.per_state_ab[lbl], atol=1e-10
                )
                np.testing.assert_allclose(
                    got.per_state_ae[lbl], ref.per_state_ae[lbl], atol=1e-10
                )

    def test_equals_the_numpy_scalar_evaluation_bit_for_bit(self):
        # reference: the same sums one program at a time on numpy scalars, each
        # square a product (a scalar x ** 2 goes through libm pow, which rounds
        # differently for about 1 in 1000 inputs)
        def reference(s):
            a = s.amplitudes.real

            def pair_sum(table):
                return float(0.25 + 0.5 * sum(sg * a[i] * a[j] for i, j, sg in table))

            m0 = [
                float(a[0] * a[0] + a[5] * a[5] + a[10] * a[10] + a[15] * a[15]),
                float(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]),
            ]
            tables = (
                analytic._QID2Q_AB_M1_02, analytic._QID2Q_AB_M1_13,
                analytic._QID2Q_AE_M1_02, analytic._QID2Q_AE_M1_13,
                analytic._QID2Q_AB_M2, analytic._QID2Q_AE_M2,
                analytic._QID2Q_AB_M34, analytic._QID2Q_AE_M34,
            )
            return m0 + [pair_sum(t) for t in tables]

        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_program(rng, 2)
            r = qid_fidelities(s)
            ab, ae = r.per_state_ab, r.per_state_ae
            got = [ab["M0"][0], ae["M0"][0], *ab["M1"][:2], *ae["M1"][:2]]
            got += [ab["M2"][0], ae["M2"][0], ab["M3"][0], ae["M3"][0]]
            assert got == reference(s)
            assert all(type(f) is float for v in (*ab.values(), *ae.values()) for f in v)

    def test_m3_m4_always_coincide(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            report = qid_fidelities(random_program(rng, 2))
            assert report.f_ab["M3"] == report.f_ab["M4"]
            assert report.f_ae["M3"] == report.f_ae["M4"]


class TestGeneralizedBobFidelity:
    def test_matches_two_qubit_rows(self):
        rng = np.random.default_rng(6)
        mubs = mubs_for(2)
        for _ in range(20):
            s = random_program(rng, 2)
            report = ng_fidelities(s)
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

    def test_invariance_mask_computed_once_per_basis(self, monkeypatch):
        original, calls = mub.invariant_paulis, []
        monkeypatch.setattr(mub, "invariant_paulis", lambda b: calls.append(b) or original(b))
        # fresh objects, so no mask is cached from another test
        bases = [MubBasis(b.label, b.states) for b in mubs_for(2).bases]
        rng = np.random.default_rng(8)
        for _ in range(3):
            s = random_program(rng, 2)
            for basis in bases:
                want = np.sum(np.abs(s.amplitudes[original(basis)]) ** 2)
                assert ng_nq_bob_fidelity(s, basis) == pytest.approx(want, abs=1e-15)
        assert len(calls) == 5
        c, s = math.cos(0.3), math.sin(0.3)
        tilted = MubBasis("T", (StateVector(1, [c, s]), StateVector(1, [-s, c])))
        for _ in range(2):
            with pytest.raises(ValueError, match="onto a basis ray"):
                ng_nq_bob_fidelity(uqcm_program_ng(1), tilted)

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
        report = ng_fidelities(prog)
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
            report = ng_fidelities(table1_angles("uqcm", theta=theta).to_program())
            assert np.ptp(list(report.f_ab.values())) < 1e-12
            assert np.ptp(list(report.f_ae.values())) < 1e-12

    def test_imbalanced_eta_one_reduces_to_pccm(self):
        assert table1_angles("imbalanced", eta=1.0) == table1_angles("pccm")

    def test_pccm_covers_z_and_x(self):
        report = ng_fidelities(table1_angles("pccm").to_program())
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

    def test_eta_from_channel_rejects_a_zero_x_weight(self):
        with pytest.raises(ValueError, match="1 - 2 p_x - 2 p_y = 0"):
            ImbalanceEta.from_channel(0.25, 0.25, 0.0)


class TestQidClosedForm:
    def test_cnot_cloner(self):
        report = qid_fidelities(qid_closed_form("cnot").to_program())
        assert report.f_ab["Z"] == report.f_ae["Z"] == 1.0

    def test_z_asymmetric(self):
        phi = 0.4
        report = qid_fidelities(qid_closed_form("z-asym", phi=phi).to_program())
        assert report.f_ab["Z"] == pytest.approx(math.sin(phi) ** 2, abs=1e-12)
        assert report.f_ae["Z"] == pytest.approx(math.cos(phi) ** 2, abs=1e-12)

    def test_pccm_asymmetry(self):
        # phi = 0 must favor Eve, consistent with the imbalanced-cloner
        # limit; the fidelity pair is ((1+sin)/2, (1+cos)/2)
        phi = 0.3
        report = qid_fidelities(qid_closed_form("pccm", phi=phi).to_program())
        assert report.f_ab["X"] == pytest.approx((1 + math.sin(phi)) / 2, abs=1e-12)
        assert report.f_ae["X"] == pytest.approx((1 + math.cos(phi)) / 2, abs=1e-12)
        assert report.f_ab["X"] == pytest.approx(report.f_ab["Y"], abs=1e-12)

    def test_asymmetric_universal_branches(self):
        for rho in (0.7, 0.9, 1.1):
            for branch in (+1, -1):
                angles = qid_closed_form("uqcm-asym", rho=rho, branch=branch)
                report = qid_fidelities(angles.to_program())
                assert np.ptp(list(report.f_ab.values())) < 1e-10
                assert np.ptp(list(report.f_ae.values())) < 1e-10
        bob_heavy = qid_fidelities(
            qid_closed_form("uqcm-asym", rho=0.75, branch=+1).to_program()
        )
        eve_heavy = qid_fidelities(
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
        rep0 = qid_fidelities(
            qid_closed_form("xy-imbalanced", p_x=p_x, p_y=p_y, phi=0.0).to_program()
        )
        assert rep0.f_ab["X"] == pytest.approx(0.5, abs=1e-12)
        rep1 = qid_fidelities(
            qid_closed_form(
                "xy-imbalanced", p_x=p_x, p_y=p_y, phi=math.pi / 2
            ).to_program()
        )
        assert rep1.f_ae["X"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", ["xy-imbalanced", "xy-imbalanced-sym"])
    def test_imbalanced_rejects_certain_xy_errors(self, kind):
        with pytest.raises(ValueError, match="1 - p_x - p_y = 0"):
            qid_closed_form(kind, p_x=0.6, p_y=0.4, phi=0.3)


class TestRealOptimality:
    def test_phases_do_not_improve_weighted_objectives(self):
        # spot check: Adam over moduli plus relative phases never beats the
        # best real program by more than 1e-6
        from oracle import central_difference

        from paulicloner.optimize import OptimizerConfig, adam_optimize, restart_starts

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
                return -score(ng_fidelities(ng_angles_to_program(NgAngles(*params))))

            def complex_objective(params):
                base = ng_angles_to_program(NgAngles(*params[:3])).amplitudes
                phases = np.exp(1j * np.concatenate([[0.0], params[3:]]))
                return -score(ng_fidelities(SoftwareState(base * phases)))

            def real_loss_and_grad(params):
                values = np.array([real_objective(p) for p in params])
                grads = np.array([central_difference(real_objective, p) for p in params])
                return values, grads

            cfg = OptimizerConfig(steps=150, restarts=4, seed=trial)
            _, trace_real = adam_optimize(real_loss_and_grad, restart_starts(cfg, 3), cfg)
            best_real = trace_real.min()
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
