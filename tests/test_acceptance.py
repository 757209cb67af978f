"""Acceptance suite: one test per top-level criterion, each at its stated
tolerance, printing one pass line when it holds.  Run with -s to see the
lines; every expected value here is either arithmetic, a published constant
verified against its source, or frozen from an independent oracle computed
in-line (matrix products, Kraus mixing, finite differences, closed-form
frontier values).
"""

import math
import time

import numpy as np
import pytest
from oracle import central_difference

from paulicloner import optimize as opt
from paulicloner.analytic import (
    ng_fidelities,
    qid_closed_form,
    qid_fidelities,
    table1_angles,
    uqcm_fidelity,
    uqcm_program_ng,
)
from paulicloner.cloner import (
    ClonerKind,
    SoftwareState,
    bob_pauli_transfer_matrix,
    clone_fidelities,
    fidelity_columns,
    state_rows,
)
from paulicloner.mub import (
    PauliString,
    TWO_QUBIT_ERROR_ROWS,
    mubs_for,
    pauli_action,
)
from paulicloner.noise import PauliChannel, channel_with_single_error, noisy_fidelity_1q
from paulicloner.simcore import StateVector


def _random_real_program(rng, n):
    v = rng.standard_normal(4**n)
    return SoftwareState(v / np.linalg.norm(v))


def _random_state(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(n, v / np.linalg.norm(v))


def test_c01_symmetric_universal_single_qubit():
    start = time.monotonic()
    program = table1_angles("uqcm").to_program()
    simulated = clone_fidelities(ClonerKind.NG, 1, program)
    closed = ng_fidelities(program)
    for lbl in "ZXY":
        assert simulated.f_ab[lbl] == pytest.approx(5 / 6, abs=1e-10)
        assert simulated.f_ae[lbl] == pytest.approx(5 / 6, abs=1e-10)
        assert closed.f_ab[lbl] == pytest.approx(5 / 6, abs=1e-10)
        assert closed.f_ae[lbl] == pytest.approx(5 / 6, abs=1e-10)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"[PASS] C01 symmetric 1-qubit universal cloner: all six = 5/6 ({elapsed:.2f}s)")


def test_c02_n_qubit_universal_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(20)
    report1 = clone_fidelities(ClonerKind.NG, 1, uqcm_program_ng(1))
    for lbl in "ZXY":
        assert report1.f_ab[lbl] == pytest.approx(uqcm_fidelity(1), abs=1e-9)
        assert report1.f_ae[lbl] == pytest.approx(uqcm_fidelity(1), abs=1e-9)
    report2 = clone_fidelities(ClonerKind.NG, 2, uqcm_program_ng(2))
    assert len(report2.basis_labels) == 5
    for lbl in report2.basis_labels:
        assert report2.f_ab[lbl] == pytest.approx(0.7, abs=1e-9)
        assert report2.f_ae[lbl] == pytest.approx(0.7, abs=1e-9)
    states = [_random_state(rng, 3) for _ in range(100)]
    column = uqcm_program_ng(3).amplitudes[:, None]
    values = fidelity_columns(ClonerKind.NG, 3, column, state_rows(3, states))
    for f_ab, f_ae in zip(values[0][:, 0], values[1][:, 0]):
        assert f_ab == pytest.approx(11 / 18, abs=1e-9)
        assert f_ae == pytest.approx(11 / 18, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        "[PASS] C02 universal fidelity (d+3)/(2(d+1)): "
        f"5/6, 0.7, 11/18 over 100 random 3-qubit inputs ({elapsed:.1f}s)"
    )


def test_c03_symmetric_phase_covariant():
    expect = (1 + math.cos(math.pi / 4)) / 2
    qid_prog = qid_closed_form("pccm", phi=math.pi / 4).to_program()
    for report in (
        qid_fidelities(qid_prog),
        clone_fidelities(ClonerKind.QID, 1, qid_prog),
    ):
        for lbl in "XY":
            assert report.f_ab[lbl] == pytest.approx(expect, abs=1e-10)
            assert report.f_ae[lbl] == pytest.approx(expect, abs=1e-10)
    ng_prog = table1_angles("pccm").to_program()
    for report in (
        ng_fidelities(ng_prog),
        clone_fidelities(ClonerKind.NG, 1, ng_prog),
    ):
        for lbl in "XZ":  # the NG machine covers the Z/X plane
            assert report.f_ab[lbl] == pytest.approx(expect, abs=1e-10)
            assert report.f_ae[lbl] == pytest.approx(expect, abs=1e-10)
    print(f"[PASS] C03 symmetric phase-covariant point: F = (1+cos(pi/4))/2 = {expect:.6f}")


def test_c04_closed_forms_match_simulation():
    rng = np.random.default_rng(21)
    families = [
        (ClonerKind.NG, 1, ng_fidelities),
        (ClonerKind.QID, 1, qid_fidelities),
        (ClonerKind.NG, 2, ng_fidelities),
        (ClonerKind.QID, 2, qid_fidelities),
    ]
    worst = 0.0
    for kind, n, formula in families:
        for _ in range(500):
            s = _random_real_program(rng, n)
            got = formula(s)
            ref = clone_fidelities(kind, n, s)
            for lbl in ref.basis_labels:
                dev = max(
                    np.max(np.abs(np.subtract(got.per_state_ab[lbl], ref.per_state_ab[lbl]))),
                    np.max(np.abs(np.subtract(got.per_state_ae[lbl], ref.per_state_ae[lbl]))),
                )
                worst = max(worst, float(dev))
                assert dev < 1e-10
    print(f"[PASS] C04 closed forms vs simulation, 500 programs x 4 families (max dev {worst:.1e})")


def test_c05_noisy_transform_matches_kraus_mixing():
    rng = np.random.default_rng(22)
    worst = 0.0
    for trial in range(200):
        kind = ClonerKind.NG if trial % 2 == 0 else ClonerKind.QID
        s = _random_real_program(rng, 1)
        p = rng.dirichlet(np.ones(4)) * rng.uniform(0.2, 1.0)
        p_x, p_y, p_z = float(p[0]), float(p[1]), float(p[2])
        clean = clone_fidelities(kind, 1, s)
        noisy = clone_fidelities(kind, 1, s, channel=PauliChannel.from_xyz(p_x, p_y, p_z))
        for lbl in "ZXY":
            dev_b = abs(
                noisy.f_ab[lbl] - noisy_fidelity_1q(clean.f_ab[lbl], lbl, p_x, p_y, p_z)
            )
            dev_e = abs(
                noisy.f_ae[lbl] - noisy_fidelity_1q(clean.f_ae[lbl], lbl, p_x, p_y, p_z)
            )
            worst = max(worst, dev_b, dev_e)
            assert dev_b < 1e-10 and dev_e < 1e-10
    print(f"[PASS] C05 noisy-fidelity transforms vs Kraus simulation, 200 pairs (max dev {worst:.1e})")


def test_c06_error_table_and_klein_groups():
    expected = np.array(
        [
            [1, 0, 1, 1, 1],
            [1, 1, 1, 1, 0],
            [1, 1, 0, 1, 1],
            [0, 1, 1, 1, 1],
            [1, 1, 1, 0, 1],
        ]
    )
    mubs = mubs_for(2)
    for r, row in enumerate(TWO_QUBIT_ERROR_ROWS):
        for p in row:
            for c, basis in enumerate(mubs.bases):
                bit = 0 if pauli_action(p, basis).is_invariant else 1
                assert bit == expected[r, c], (str(p), basis.label)
    # each row plus the identity is a Klein four-group under multiplication
    ident = np.eye(4)
    for row in TWO_QUBIT_ERROR_ROWS:
        mats = [ident] + [p.matrix() for p in row]
        for a in mats:
            np.testing.assert_allclose(a @ a, ident, atol=1e-12)
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                np.testing.assert_allclose(a @ b, b @ a, atol=1e-12)
                prod = a @ b
                # the product lies on one of the four group rays
                assert any(
                    min(
                        np.max(np.abs(prod - phase * m))
                        for phase in (1, -1, 1j, -1j)
                    )
                    < 1e-12
                    for m in mats
                )
    print("[PASS] C06 published error/basis table bit-exact; rows form Klein four-groups")


def test_c07_unbiasedness():
    for n, target in ((1, 0.5), (2, 0.25)):
        mubs = mubs_for(n)
        for i, a in enumerate(mubs.bases):
            for b in mubs.bases[i + 1 :]:
                for sa in a.states:
                    for sb in b.states:
                        ov = abs(np.vdot(sa.amplitudes, sb.amplitudes)) ** 2
                        assert abs(ov - target) < 1e-12
    print("[PASS] C07 cross-basis overlaps 1/2 (1 qubit) and 1/4 (2 qubits) within 1e-12")


def test_c08_bb84_frontier_beats_phase_covariant():
    start = time.monotonic()
    channel = channel_with_single_error(1, PauliString("X"), 0.25)
    f_values = [round(f, 3) for f in np.arange(0.55, 0.80, 0.025)]
    result = opt.frontier_sweep(
        "bb84",
        f_values=f_values,
        cfg=opt.OptimizerConfig(steps=120, restarts=4, seed=3),
        channel=channel,
    )
    wins = 0
    for row in result.series("ng"):
        try:
            reference = opt.pccm_reference_eve(row.f_ab_avg, channel)
        except ValueError:
            continue
        if row.f_ae_avg > reference:
            wins += 1
    elapsed = time.monotonic() - start
    assert wins >= 5, f"only {wins} interior points dominate the phase-covariant curve"
    assert elapsed < 120.0
    print(
        f"[PASS] C08 bb84 with p_X=0.25: optimized frontier beats the "
        f"phase-covariant curve at {wins}/{len(f_values)} points ({elapsed:.1f}s)"
    )


def test_c09_two_qubit_noisy_frontier():
    start = time.monotonic()
    channel = channel_with_single_error(2, PauliString("YI"), 0.45)
    f_values = [0.35, 0.40, 0.45, 0.50, 0.55, 0.60]
    result = opt.frontier_sweep(
        "twenty",
        f_values=f_values,
        cfg=opt.OptimizerConfig(steps=100, restarts=3, seed=4),
        channel=channel,
    )
    ng_rows = result.series("ng")
    qid_rows = result.series("qid")
    # Eve's optimized NG average must reach the QID's at every target; the
    # achieved Bob coordinates stay within a few 1e-3 of each other, so the
    # per-target comparison is a matched one
    for a, b in zip(ng_rows, qid_rows):
        assert a.f_target == b.f_target
        assert abs(a.f_ab_avg - b.f_ab_avg) < 0.02
        assert a.f_ae_avg >= b.f_ae_avg - 1e-3, (a.f_target, a.f_ae_avg, b.f_ae_avg)
    # and the NG frontier must dominate the universal-cloner point
    uqcm = result.series("uqcm")[0]
    front = opt.pareto_filter([(r.f_ab_avg, r.f_ae_avg) for r in ng_rows])
    xs, ys = [p[0] for p in front], [p[1] for p in front]
    assert min(xs) <= uqcm.f_ab_avg <= max(xs)
    ng_at_uqcm = float(np.interp(uqcm.f_ab_avg, xs, ys))
    assert ng_at_uqcm > uqcm.f_ae_avg
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"[PASS] C09 Y(x)I at 45%: NG >= QID at all {len(f_values)} matched targets; "
        f"NG {ng_at_uqcm:.4f} > universal point {uqcm.f_ae_avg:.4f} ({elapsed:.0f}s)"
    )


def test_c10_reduced_pairs():
    start = time.monotonic()
    result = opt.frontier_sweep(
        "pairs", f_values=[0.85], cfg=opt.OptimizerConfig(steps=200, restarts=3, seed=5)
    )
    ng = {r.label: r.f_ae_avg for r in result.series("ng")}
    qid = {r.label: r.f_ae_avg for r in result.series("qid")}
    assert len(ng) == len(qid) == 10
    ng_spread = max(ng.values()) - min(ng.values())
    qid_spread = max(qid.values()) - min(qid.values())
    assert ng_spread < 2e-3, f"NG spread {ng_spread}"
    assert qid_spread > 1e-2, f"QID spread {qid_spread}"
    elapsed = time.monotonic() - start
    print(
        f"[PASS] C10 reduced pairs: NG uniform (spread {ng_spread:.1e}); "
        f"QID pair-dependent (spread {qid_spread:.1e}) ({elapsed:.0f}s)"
    )


def test_c11_b92_learning_beats_grid_search():
    start = time.monotonic()
    f_values = [0.6, 0.7, 0.75, 0.8, 0.85]
    result = opt.frontier_sweep(
        "b92", f_values=f_values, cfg=opt.OptimizerConfig(steps=100, restarts=5, seed=6)
    )
    wins = 0
    for row in result.series("qml"):
        grid_at_x = opt.grid_frontier_b92(ClonerKind.NG, [row.f_ab_avg])[0][1]
        if row.f_ae_avg - grid_at_x > 0.01:
            wins += 1
    assert wins >= 3, f"only {wins} targets show a > 0.01 advantage"
    grid_ng = {r.f_target: r.f_ae_avg for r in result.series("grid-ng")}
    grid_qid = {r.f_target: r.f_ae_avg for r in result.series("grid-qid")}
    agreement = max(abs(grid_ng[f] - grid_qid[f]) for f in f_values)
    assert agreement < 2e-3
    elapsed = time.monotonic() - start
    print(
        f"[PASS] C11 b92: trained ansatz beats the grid frontier at {wins}/5 targets; "
        f"NG/QID grids agree within {agreement:.1e} ({elapsed:.0f}s)"
    )


def test_c12_bob_channel_is_pauli():
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(100):
        n = 1 if trial % 2 == 0 else 2
        v = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
        program = SoftwareState(v / np.linalg.norm(v))
        r = bob_pauli_transfer_matrix(ClonerKind.NG, n, program)
        off = float(np.max(np.abs(r - np.diag(np.diag(r)))))
        worst = max(worst, off)
        assert off < 1e-10
    print(f"[PASS] C12 Bob transfer matrix diagonal for 100 random programs (max offdiag {worst:.1e})")


def test_c13_parameter_shift_gradients():
    # The adjoint gradients of the program-prep and b92 losses against
    # central differences; the id keeps the name of the parameter-shift
    # gradients these replaced.
    rng = np.random.default_rng(24)
    channel = channel_with_single_error(2, PauliString("YI"), 0.45)
    forms = opt.fidelity_quadratic_forms(ClonerKind.NG, 2, mubs_for(2).bases, channel)
    objective_p, gradient_p = opt.make_program_loss(forms, 0.5)
    objective_b, gradient_b = opt.make_b92_loss(0.8)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(-math.pi, math.pi, 60)
        g, fd = gradient_p(p), central_difference(objective_p, p)
        rel = float(np.linalg.norm(g - fd) / np.linalg.norm(fd))
        worst = max(worst, rel)
        assert rel < 1e-6
    for _ in range(50):
        p = rng.uniform(-math.pi, math.pi, 18)
        g, fd = gradient_b(p), central_difference(objective_b, p)
        rel = float(np.linalg.norm(g - fd) / np.linalg.norm(fd))
        worst = max(worst, rel)
        assert rel < 1e-6
    print(f"[PASS] C13 adjoint gradients vs central differences, 50+50 points (max rel {worst:.1e})")
