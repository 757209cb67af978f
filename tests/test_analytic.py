import itertools
import math
import tracemalloc
from types import SimpleNamespace

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
    fidelity_matrices,
    ng_angles_to_program,
    state_rows,
)
from paulicloner import analytic, mub
from paulicloner.mub import MubBasis, mubs_for
from paulicloner.optimize import fidelity_quadratic_forms
from paulicloner.simcore import StateVector

from oracle import reference_ng_closed_form


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


def stabilizer_bases(n):
    """The MUB bases for N = 1, 2.  For N = 3, which has no MUB set here,
    stand-ins that hold what the NG rule reads: each commuting class plus the
    identity as an invariant mask."""
    if n < 3:
        return mubs_for(n).bases
    bases = []
    for cls in mub.commuting_classes(n):
        mask = np.zeros(4**n, dtype=bool)
        mask[[0] + [mub.pauli_to_index(p) for p in cls]] = True
        bases.append(SimpleNamespace(num_qubits=n, invariant_mask=mask))
    return bases


def complex_columns(rng, n, count):
    v = rng.standard_normal((4**n, count)) + 1j * rng.standard_normal((4**n, count))
    return v / np.linalg.norm(v, axis=0)


class TestNgWalshHadamard:
    """The transform form of the NG rule against the XOR-gather reference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_xor_gather_reference(self, n):
        # fixed before any run: one float64 eps per entry of the 4^N-term sums
        tol = 4**n * np.finfo(float).eps
        rng = np.random.default_rng(80 + n)
        columns = complex_columns(rng, n, 300)
        bases = stabilizer_bases(n)
        got = ng_closed_form(columns, bases)
        want = reference_ng_closed_form(columns, bases)
        for g, w in zip(got, want):
            assert g.shape == (len(bases), 300)
            np.testing.assert_allclose(g, w, rtol=0, atol=tol)

    def test_leaves_the_columns_alone_in_any_memory_order(self):
        rng = np.random.default_rng(84)
        columns = complex_columns(rng, 2, 50)
        kept = columns.copy()
        bases = mubs_for(2).bases
        c_order = ng_closed_form(columns, bases)
        f_order = ng_closed_form(np.asfortranarray(columns), bases)
        assert np.array_equal(columns, kept)
        for c, f in zip(c_order, f_order):
            assert np.array_equal(c, f)


def random_states(rng, n, count):
    """Random complex input states as rows (count, 2^N)."""
    v = rng.standard_normal((count, 2**n)) + 1j * rng.standard_normal((count, 2**n))
    return v / np.linalg.norm(v, axis=1)[:, None]


def value_index(n):
    """Basis index of each register value v, the register's first qubit the low digit."""
    return [int(f"{v:0{n}b}"[::-1], 2) for v in range(2**n)]


def displacements(kind, n):
    """The displacement operators D_g of a cloner as (4^N, 2^N, 2^N): for NG the
    Pauli strings by (z|x) index; for QID X^-m Z^n at g = m d + n, with
    X^m |v> = |v + m mod d> and Z^n |v> = w^(n v) |v> on register values v."""
    if kind == ClonerKind.NG:
        return mub.pauli_matrices(n)
    d, idx = 2**n, value_index(n)
    ops = np.zeros((d * d, d, d), dtype=complex)
    for m, k, v in itertools.product(range(d), repeat=3):
        ops[m * d + k, idx[(v - m) % d], idx[v]] = np.exp(2j * np.pi * k * v / d)
    return ops


def displacement_chi(states, kind, n):
    """chi[s, g] = |<psi_s|D_g|psi_s>|^2 for input states as rows (S, 2^N)."""
    ops = displacements(kind, n)
    return np.abs(np.einsum("sa,gab,sb->sg", states.conj(), ops, states)) ** 2


class TestCovarianceRule:
    """The paper's core claim: each receiver's fidelity is
    sum_g |<psi|D_g|psi>|^2 w_g, with weights |c_g|^2 of its own coefficients,
    at any input state; Eve's coefficients are the symplectic Fourier transform
    of Bob's."""

    @pytest.mark.parametrize(
        "kind, n",
        [(ClonerKind.QID, 1), (ClonerKind.QID, 2)] + [(ClonerKind.NG, n) for n in (1, 2, 3)],
    )
    def test_matches_the_engine_at_random_states(self, kind, n):
        rng = np.random.default_rng(100 + 10 * n + (kind == ClonerKind.QID))
        states = random_states(rng, n, 40)
        programs = complex_columns(rng, n, 50)
        helper = analytic._ng_weights if kind == ClonerKind.NG else analytic._qid_weights
        weights = helper(programs)
        chi = displacement_chi(states, kind, n)
        for w, f in zip(weights, fidelity_columns(kind, n, programs, states)):
            np.testing.assert_allclose(chi @ w, f, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    def test_bell_vectors_diagonalize_every_qid_form(self, n):
        d, idx = 2**n, value_index(n)
        w = np.exp(2j * np.pi / d)
        bell = np.zeros((d * d, d * d), dtype=complex)  # column m d + n: B_mn
        for m, k, j in itertools.product(range(d), repeat=3):
            bell[d * idx[j] + idx[(j + m) % d], m * d + k] = w ** (k * j) / math.sqrt(d)
        # E_pq = d^-1 sum_mn w^(p n - q m) B_mn, so that e_pq = <E_pq|a>
        g = np.arange(d * d)
        fourier = w ** (np.outer(g % d, g // d) - np.outer(g // d, g % d)) / d
        images = bell @ fourier
        mub_states = [st.amplitudes for b in mubs_for(n).bases for st in b.states]
        states = np.vstack([mub_states, random_states(np.random.default_rng(120 + n), n, 20)])
        chi = displacement_chi(states, ClonerKind.QID, n)
        forms = fidelity_matrices(ClonerKind.QID, n, np.eye(d * d), states)
        for m, basis in zip(forms, (bell, images)):
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(d * d), rtol=0, atol=1e-14)
            diagonal = basis.conj().T @ m @ basis
            on = np.diagonal(diagonal, axis1=1, axis2=2)
            np.testing.assert_allclose(on, chi, rtol=0, atol=1e-14)
            assert np.max(np.abs(diagonal * (1 - np.eye(d * d)))) <= 1e-14


class TestColumnMemory:
    """Peak traced memory per program column stays flat as the batch grows."""

    @staticmethod
    def peak_per_column(fn, columns) -> float:
        tracemalloc.start()
        try:
            fn(columns)
            return tracemalloc.get_traced_memory()[1] / columns.shape[1]
        finally:
            tracemalloc.stop()

    def test_ng_closed_form_and_engine_columns_within_1_kib(self):
        columns = complex_columns(np.random.default_rng(90), 2, 2000)
        bases = mubs_for(2).bases
        rows = state_rows(2, [st for b in bases for st in b.states])
        engine = lambda c: fidelity_columns(ClonerKind.NG, 2, c, rows)
        engine(columns[:, :16])  # builds the cloner outside the traced call
        assert self.peak_per_column(lambda c: ng_closed_form(c, bases), columns) <= 1024
        assert self.peak_per_column(engine, columns) <= 1024

    def test_qid_fidelity_columns_within_384_b(self):
        # the (2, 20, P) values are 320 B a program; the chunked scratch is fixed
        columns = complex_columns(np.random.default_rng(91), 2, 5000)
        qid_fidelity_columns(columns[:, :16])  # builds chi outside the traced call
        assert self.peak_per_column(qid_fidelity_columns, columns) <= 384


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
            (ClonerKind.QID, 2, True),
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
        with pytest.raises(ValueError, match="1- and 2-qubit"):
            qid_fidelity_columns(np.ones((64, 1)))


class TestQid2q:
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
        # reference: the rule one program at a time on Python scalars, in the
        # production order: twiddle products (exact: +-1, +-i), each square a
        # product (a scalar x ** 2 goes through libm pow, which rounds
        # differently for about 1 in 1000 inputs), chi @ w added in order of g
        d, v = 4, value_index(2)
        clock = [1, -1j, -1, 1j]  # w^-k for w = i
        states = [st.amplitudes for b in mubs_for(2).bases for st in b.states]
        # <psi|D|psi> = (a + i b) / 4 on the MUB states: rounding makes chi exact
        chi = displacement_chi(np.array(states), ClonerKind.QID, 2)
        chi = (np.round(chi * 16) / 16).tolist()

        def square(z):
            return z.real * z.real + z.imag * z.imag

        def reference(s):
            a = s.amplitudes.tolist()
            r = range(d)
            pair = [[a[d * v[k] + v[(k + m) % d]] for k in r] for m in r]  # [m][k]
            bob = [[sum(clock[n * k % 4] * pair[m][k] for k in r) for n in r] for m in r]
            half = [[sum(clock[p * n % 4] * bob[m][n] for n in r) for p in r] for m in r]
            eve = [[sum(clock[-q * m % 4] * half[m][p] for m in r) for q in r] for p in r]
            w_ab = [square(c) / d for row in bob for c in row]
            w_ae = [square(e) / d**3 for row in eve for e in row]
            return [[sum(c * w for c, w in zip(row, ws)) for row in chi] for ws in (w_ab, w_ae)]

        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_program(rng, 2, complex_amps=rng.random() < 0.5)
            r = qid_fidelities(s)
            ab, ae = r.per_state_ab, r.per_state_ae
            got = [[f for b in mubs_for(2).bases for f in per[b.label]] for per in (ab, ae)]
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
    """Phases never help a weighted objective: the NG and QID forms are real,
    so its best is the top eigenvalue of a real form, reached by a real program."""

    @pytest.mark.parametrize("kind", [ClonerKind.NG, ClonerKind.QID])
    @pytest.mark.parametrize("n", [1, 2])
    def test_forms_are_real(self, kind, n):
        for forms in fidelity_quadratic_forms(kind, n, mubs_for(n)):
            assert not np.any(forms.imag)

    def test_phases_do_not_improve_weighted_objectives(self):
        rng = np.random.default_rng(8)
        weights = [(rng.uniform(0.2, 1.0, 3), rng.uniform(0.2, 1.0, 3)) for _ in range(3)]
        bases = mubs_for(1).bases  # Z, X, Y
        # each receiver's form per basis: the mean over the basis's two states
        per_basis = [m.reshape(3, 2, 4, 4).mean(axis=1).real
                     for m in fidelity_quadratic_forms(ClonerKind.NG, 1, bases)]
        draw = np.random.default_rng(9)
        programs = np.stack([random_program(draw, 1, True).amplitudes for _ in range(1000)], axis=1)
        f_ab, f_ae = ng_closed_form(programs, bases)
        for w_ab, w_ae in weights:
            form = np.einsum("b,bij->ij", w_ab, per_basis[0])
            form += np.einsum("b,bij->ij", w_ae, per_basis[1])
            values, vectors = np.linalg.eigh(form)
            report = ng_fidelities(SoftwareState(vectors[:, -1]))
            score = sum(w_ab[k] * report.f_ab[b.label] + w_ae[k] * report.f_ae[b.label]
                        for k, b in enumerate(bases))
            assert score == pytest.approx(values[-1], abs=1e-12)
            assert np.max(w_ab @ f_ab + w_ae @ f_ae) <= values[-1] + 1e-12
