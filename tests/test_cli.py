import argparse
import csv
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from fresh_process import python_env, run_python

from paulicloner import analytic, cli, mub, optimize, simcore
from paulicloner.cloner import ClonerKind, SoftwareState, clone_fidelities
from paulicloner.mub import PauliString, mubs_for
from paulicloner.noise import parse_channel_spec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFidelitiesCommand:
    def test_uqcm_preset_single_qubit(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelities", "--kind", "ng", "--n", "1", "--preset", "uqcm-sym"
        )
        assert code == 0
        payload = json.loads(out)
        for lbl in "ZXY":
            assert payload["f_ab"][lbl] == pytest.approx(5 / 6, abs=1e-10)
            assert payload["f_ae"][lbl] == pytest.approx(5 / 6, abs=1e-10)

    def test_uqcm_preset_two_qubit(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelities", "--kind", "ng", "--n", "2", "--preset", "uqcm-sym"
        )
        assert code == 0
        payload = json.loads(out)
        values = list(payload["f_ab"].values()) + list(payload["f_ae"].values())
        assert len(values) == 10
        np.testing.assert_allclose(values, 0.7, atol=1e-10)

    def test_amplitudes_with_noise(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fidelities",
            "--kind",
            "ng",
            "--n",
            "1",
            "--amplitudes",
            "1,0,0,0",
            "--noise",
            "X=0.25",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["f_ab"]["Z"] == pytest.approx(0.75)
        assert payload["f_ab"]["X"] == pytest.approx(1.0)

    def test_qid_uqcm_preset(self, capsys):
        code, out, _ = run_cli(
            capsys, "fidelities", "--kind", "qid", "--n", "2", "--preset", "qid-uqcm-sym"
        )
        payload = json.loads(out)
        np.testing.assert_allclose(list(payload["f_ab"].values()), 0.7, atol=1e-10)

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_qid_uqcm_preset_is_the_qid_uqcm_sym_program(self, capsys, n):
        outs = [
            run_cli(capsys, "fidelities", "--kind", "qid", "--n", n, "--preset", p)
            for p in ("qid-uqcm-sym", "uqcm-sym")
        ]
        assert outs[0] == outs[1] and outs[0][0] == 0
        code, _, err = run_cli(
            capsys, "fidelities", "--kind", "ng", "--n", n, "--preset", "qid-uqcm-sym"
        )
        assert code == 2
        assert err == "error: preset qid-uqcm-sym is a QID program\n"

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "fid.csv"
        code, _, _ = run_cli(
            capsys,
            "fidelities",
            "--kind",
            "ng",
            "--n",
            "1",
            "--preset",
            "pccm-sym",
            "--out",
            str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "basis,state,F_AB,F_AE"
        assert len(lines) == 2 + 6  # three bases, two states each

    def test_conflicting_program_sources(self, capsys):
        code, _, err = run_cli(
            capsys,
            "fidelities",
            "--kind",
            "ng",
            "--n",
            "1",
            "--preset",
            "uqcm-sym",
            "--amplitudes",
            "1,0,0,0",
        )
        assert code == 2
        assert "exactly one" in err

    @pytest.mark.parametrize(
        "source, message",
        [
            (("--amplitudes", "1,0,0,nan"), "must be finite"),
            (("--angles", "nan,0,0"), "not normalized"),
            (("--preset", "imbalanced(nan)"), "eta must be positive"),
            (("--preset", "uqcm-sym", "--noise", "X=nan"), "nan for X outside [0, 1]"),
        ],
    )
    def test_nan_input_is_a_usage_error(self, capsys, source, message):
        argv = ["fidelities", "--kind", "ng", "--n", "1", *source]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_unknown_basis_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fidelities",
            "--kind",
            "ng",
            "--n",
            "1",
            "--preset",
            "uqcm-sym",
            "--bases",
            "Z,Q",
        )
        assert code == 2
        assert out == ""
        assert "'Q'" in err and "Z, X, Y" in err

    @pytest.mark.parametrize(
        "labels, message",
        [("Z,Z,X", "distinct bases, got ['Z', 'Z', 'X']"), ("", "no basis ''")],
    )
    def test_repeated_or_empty_basis_list_is_a_usage_error(self, capsys, labels, message):
        argv = ["fidelities", "--kind", "ng", "--n", "1", "--preset", "pccm-sym"]
        code, out, err = run_cli(capsys, *argv, "--bases", labels)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("angles", ["1,2", "1,2,3,4", "1,x,3"])
    def test_angles_need_three_numbers(self, capsys, angles):
        argv = ["fidelities", "--kind", "ng", "--n", "1", "--angles", angles]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --angles takes three numbers: rho,phi,theta\n"

    def test_unknown_preset(self, capsys):
        code, _, _ = run_cli(
            capsys, "fidelities", "--kind", "ng", "--n", "1", "--preset", "bogus"
        )
        assert code == 2

    def test_imbalanced_preset_parses_eta(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fidelities",
            "--kind",
            "ng",
            "--n",
            "1",
            "--preset",
            "imbalanced(1.0)",
        )
        assert code == 0
        ref = analytic.table1_angles("pccm").to_program()
        payload = json.loads(out)
        got = [complex(re, im) for re, im in payload["program"]]
        np.testing.assert_allclose(got, ref.amplitudes, atol=1e-10)


class TestValidateCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--trials", "10", "--seed", "7")
        assert code == 0
        assert "[FAIL]" not in out
        assert "checks passed" in out

    def test_deterministic_report(self, capsys):
        _, out1, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        _, out2, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert out1 == out2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_is_a_usage_error(self, capsys, trials):
        code, out, err = run_cli(capsys, "validate", "--trials", trials)
        assert code == 2
        assert "checks passed" not in out
        assert "trials" in err

    def test_too_many_trials_is_a_usage_error_before_any_draw(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before the trials guard")

        monkeypatch.setattr(simcore, "_uniforms", no_draws)
        trials = str(cli.MAX_TRIALS + 1)
        code, out, err = run_cli(capsys, "validate", "--trials", trials)
        assert code == 2 and out == ""
        assert f"trials must be from 1 to {cli.MAX_TRIALS}" in err

    def test_trials_cap_is_inclusive(self, capsys, monkeypatch):
        # a lowered cap keeps the run small: the cap itself runs, one more does not
        monkeypatch.setattr(cli, "MAX_TRIALS", 5)
        assert run_cli(capsys, "validate", "--trials", "5", "--seed", "3")[0] == 0
        assert run_cli(capsys, "validate", "--trials", "6", "--seed", "3")[0] == 2

    def test_help_states_the_trials_cap(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["validate", "--help"])
        assert f"at most {cli.MAX_TRIALS}" in capsys.readouterr().out

    @staticmethod
    def plant_in_chi(monkeypatch, value):
        """Set one nonzero entry of the two-qubit QID chi table, |<psi|D|psi>|^2
        of the identity at an M2 state, to ``value``."""
        original = analytic._qid_chi

        def planted(n):
            chi = original(n).copy()
            if n == 2:
                chi[8, 0] = value(chi[8, 0])
            return chi

        monkeypatch.setattr(analytic, "_qid_chi", planted)

    def test_corrupted_table_fails_with_named_check(self, capsys, monkeypatch):
        # flip the sign of one chi entry: the qid-2q oracle must trip
        self.plant_in_chi(monkeypatch, lambda x: -x)
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["analytic-vs-sim-qid-2q"]

    def test_nan_in_table_fails_with_named_check(self, capsys, monkeypatch):
        # a NaN deviation must not be dropped by the worst-case maximum
        self.plant_in_chi(monkeypatch, lambda x: math.nan)
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert "[FAIL] analytic-vs-sim-qid-2q" in out


VALIDATE_CHECKS = [
    "mub-unbiasedness-1q",
    "mub-unbiasedness-2q",
    "mub-prep-circuits",
    "action-table",
    "commuting-classes-group-law",
    "analytic-vs-sim-ng-1q",
    "analytic-vs-sim-qid-1q",
    "analytic-vs-sim-ng-2q",
    "analytic-vs-sim-qid-2q",
    "noisy-transform-oracle",
    "pauli-transfer-diagonal",
    "eve-pair-partition",
    "circuit-unitarity",
]


def _plant_m1_stabilizer_defect(monkeypatch):
    """Take the last stabilizer out of the two-qubit M1 basis's invariant mask."""
    cached = mub.MubBasis.invariant_mask

    def m1_one_stabilizer_short(basis):
        mask = cached.__get__(basis).copy()
        if basis.num_qubits == 2 and basis.label == "M1":
            mask[np.flatnonzero(mask)[-1]] = False
        return mask

    monkeypatch.setattr(mub.MubBasis, "invariant_mask", property(m1_one_stabilizer_short))


def failed_checks(out: str) -> list[str]:
    return [line.split()[1] for line in out.splitlines() if line.startswith("[FAIL]")]


def plant_rx_off_by_1e9(monkeypatch):
    """Scale every RX matrix from simcore.gate_matrices by 1 + 1e-9."""
    original = simcore.gate_matrices
    rx = simcore.GATE_NAMES.index("RX")

    def scaled_rx(gates, angles, control_values):
        scale = np.where(np.asarray(gates) == rx, 1 + 1e-9, 1.0)
        return original(gates, angles, control_values) * scale[:, None, None]

    monkeypatch.setattr(simcore, "gate_matrices", scaled_rx)


class TestRandomCircuits:
    """The bulk draws behind circuit-unitarity cover what the check claims."""

    def test_draws_cover_every_size_gate_and_control(self):
        sizes, gates, angles, controls, orders, inputs = cli._random_circuits(
            random.Random(0), 200
        )
        assert sizes.shape == (200,) and gates.shape == angles.shape == (200, 12)
        n = np.broadcast_to(sizes[:, None], gates.shape)
        arity = np.array([simcore.GATE_ARITY[g] for g in simcore.GATE_NAMES])[gates]
        held = arity <= n  # slots that hold a gate
        names = np.array(simcore.GATE_NAMES)[gates]
        assert set(sizes.tolist()) == {2, 3, 4}
        assert set(names[held].tolist()) == set(simcore.GATE_NAMES)
        assert set(controls[held & (names == "CRY")].tolist()) == {0, 1}
        assert np.all(controls[names != "CRY"] == 1)
        assert np.all((-math.pi <= angles) & (angles < math.pi))
        # qubits come in either order, and the top qubit of a register is reached
        cnot_2q = orders[held & (names == "CNOT") & (n == 2)][:, :2]
        assert set(map(tuple, cnot_2q.tolist())) == {(0, 1), (1, 0)}
        assert set(orders[held & (arity == 1) & (n == 4)][:, 0].tolist()) == {0, 1, 2, 3}
        for i, j in zip(*np.nonzero(held)):
            qubits = orders[i, j, : arity[i, j]].tolist()
            assert len(set(qubits)) == len(qubits)
            assert all(0 <= q < sizes[i] for q in qubits)
        for size, v in zip(sizes, inputs):
            assert abs(np.linalg.norm(v[: 2**size]) - 1.0) < 1e-12
            assert not np.any(v[2**size :])

    def test_equal_seeds_give_equal_circuits(self):
        a = cli._random_circuits(random.Random(0), 200)
        b = cli._random_circuits(random.Random(0), 200)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


def count_kernel_calls(monkeypatch) -> dict:
    """Calls of simcore.apply_gates and simcore.gate_matrices from here on."""
    calls = {"apply_gates": 0, "gate_matrices": 0}
    for name in calls:
        original = getattr(simcore, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(simcore, name, counted)
    return calls


def two_qubit_registers(original):
    """_random_circuits with every register of two qubits: the other qubits
    sorted last in each order, the inputs cut to their first 4 entries."""

    def draw(rng, count):
        sizes, gates, angles, controls, orders, v = original(rng, count)
        orders = np.take_along_axis(orders, np.argsort(orders >= 2, axis=-1, kind="stable"), -1)
        v[:, 4:] = 0
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return np.full_like(sizes, 2), gates, angles, controls, orders, v

    return draw


class TestOneCircuitStack:
    """circuit-unitarity runs every register size in one 4-qubit stack, and
    mub-prep-circuits each basis's circuit once on its four basis states; the
    kernel-call counts are exact, so they bound the work without a clock."""

    @pytest.mark.parametrize("seed", range(4))
    def test_unitarity_check_kernel_calls(self, monkeypatch, seed):
        calls = count_kernel_calls(monkeypatch)
        assert cli._unitarity_check(random.Random(seed), 200) <= 1e-10
        # a stack a register size made 264 and 192
        assert calls["apply_gates"] <= 96 and calls["gate_matrices"] <= 72

    def test_prep_circuit_kernel_calls(self, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        assert cli._prep_circuit_deviation() <= 1e-12
        # a run a basis state made 72 and 72
        assert calls["apply_gates"] <= 18 and calls["gate_matrices"] <= 18

    def test_rx_defect_shows_on_two_qubit_registers(self, capsys, monkeypatch):
        # the most-padded registers, on qubits 2 and 3 of the stack, pass clean;
        # the RX of test_gate_matrix_off_by_1e9 fails circuit-unitarity alone
        monkeypatch.setattr(cli, "_random_circuits", two_qubit_registers(cli._random_circuits))
        sizes, _, _, _, orders, v = cli._random_circuits(random.Random(3), 20)
        assert np.all(sizes == 2) and np.all(orders[..., :2] < 2) and not np.any(v[:, 4:])
        assert cli._unitarity_check(random.Random(3), 20) <= 1e-10
        plant_rx_off_by_1e9(monkeypatch)
        code, out, _ = run_cli(capsys, "validate", "--trials", "20", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["circuit-unitarity"]


class TestRandomPrograms:
    """The bulk program draws behind the randomized checks."""

    @pytest.mark.parametrize("n,complex_share", [(1, 0.0), (1, 0.3), (2, 0.0), (2, 1.0)])
    def test_unit_columns(self, n, complex_share):
        columns = cli._random_programs(random.Random(0), 50, n, complex_share)
        assert columns.shape == (4**n, 50)
        np.testing.assert_allclose(np.linalg.norm(columns, axis=0), 1.0, rtol=0, atol=1e-12)
        if complex_share == 0.0:
            assert not np.any(columns.imag)

    def test_closed_form_draw_has_real_and_complex_columns(self):
        columns = cli._random_programs(random.Random(0), 200, 1, 0.3)
        is_complex = np.any(columns.imag != 0, axis=0)
        assert 0 < np.count_nonzero(is_complex) < 200

    def test_equal_seeds_give_equal_columns(self):
        a = cli._random_programs(random.Random(4), 30, 2, 0.3)
        b = cli._random_programs(random.Random(4), 30, 2, 0.3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_check_passes_in_order(self, seed):
        checks = cli.run_validation(200, seed)
        assert [c.name for c in checks] == VALIDATE_CHECKS
        assert all(c.passed for c in checks)


class TestClosedFormCheckMemory:
    """The closed-form check holds one array per receiver and compares in place."""

    @pytest.mark.parametrize("kind", [ClonerKind.NG, ClonerKind.QID])
    def test_two_qubit_check_within_1_kib_per_program(self, kind):
        count = 5000
        cli._closed_form_check(random.Random(0), 20, kind, 2)  # builds the cloner
        tracemalloc.start()
        try:
            dev = cli._closed_form_check(random.Random(1), count, kind, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dev <= 1e-12
        assert peak / count <= 1024


SEEDED_COMMANDS = [
    ["validate", "--trials", "20", "--seed", "1"],
    ["sweep", "--task", "b92", "--f", "0.75:0.8:0.05", "--steps", "2", "--restarts", "2"],
    ["sweep", "--task", "twenty", "--f", "0.45:0.5:0.05", "--steps", "2", "--restarts", "2"],
]


class TestSeededDraws:
    """Every seeded number comes from the stdlib's Mersenne Twister through
    simcore._uniforms; the statistics use 10^5 draws and tolerances of about
    five standard errors."""

    @pytest.mark.parametrize("argv", SEEDED_COMMANDS, ids=["validate", "b92", "twenty"])
    def test_seeded_commands_load_neither_numpy_random_nor_openssl(self, argv):
        code = (
            "import contextlib, io, sys\n"
            "from paulicloner.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))"
        )
        assert run_python("-c", code).strip() == "[]"

    def test_uniforms(self):
        u = simcore._uniforms(random.Random(0), (10, 10**4))
        assert u.shape == (10, 10**4)
        assert 0.0 <= u.min() and u.max() < 1.0
        assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))  # 53-bit doubles
        assert abs(u.mean() - 0.5) < 0.005 and abs(u.var() - 1 / 12) < 0.0012
        # the chunked reads make one stream, whatever the shape
        np.testing.assert_array_equal(simcore._uniforms(random.Random(0), 10**5), u.ravel())

    def test_complex_gaussians(self):
        z = cli._gaussians(random.Random(1), (10**5,))
        for part in (z.real, z.imag):
            assert abs(part.mean()) < 0.02 and abs(part.var() - 1.0) < 0.025
        assert abs(np.mean(z.real * z.imag)) < 0.02
        assert abs(np.mean(z**2)) < 0.045  # isotropic: E z^2 = 0

    def test_integers_cover_their_range(self):
        sizes, gates, _, controls, _, _ = cli._random_circuits(random.Random(2), 8334)
        assert gates.size > 10**5
        k = len(simcore.GATE_NAMES)
        shares = np.bincount(gates.ravel(), minlength=k) / gates.size
        np.testing.assert_allclose(shares, 1 / k, atol=0.005)
        np.testing.assert_allclose(np.bincount(sizes - 2) / sizes.size, 1 / 3, atol=0.025)
        cry = gates == simcore.GATE_NAMES.index("CRY")
        np.testing.assert_allclose(np.bincount(controls[cry]) / cry.sum(), 0.5, atol=0.025)

    def test_dirichlet_rows(self):
        rows = cli._dirichlet(random.Random(3), 10**5)
        assert rows.shape == (10**5, 4) and rows.min() >= 0.0
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        # Dirichlet(1, 1, 1, 1): each entry Beta(1, 3), mean 1/4, variance 3/80
        np.testing.assert_allclose(rows.mean(axis=0), 0.25, atol=0.003)
        np.testing.assert_allclose(rows.var(axis=0), 3 / 80, atol=0.0009)

    def test_streams_are_the_same_in_every_process(self):
        # pinned values: the stdlib stream and the word reads are the same on every platform
        pinned = [0.38524530801093704, 0.8902439183457648, 0.040484381006232306]
        assert simcore._uniforms(random.Random(0), 3).tolist() == pinned
        # and a seeded command prints the same whatever the per-process str hash
        code = f"from paulicloner.cli import main\nmain({SEEDED_COMMANDS[1] + ['--seed', '5']!r})"
        first, second = (run_python("-c", code, PYTHONHASHSEED=h) for h in ("1", "2"))
        assert first == second


class TestValidateBatches:
    """Each batched check still fails on a defect planted in what it checks."""

    def test_benchmark_batch_size_passes_every_check_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--trials", "200", "--seed", "0")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == VALIDATE_CHECKS
        assert all(line.startswith("[PASS] ") for line in lines[:-1])
        assert lines[-1] == "13/13 checks passed"

    def test_complex_program_term_of_ng_1q(self, capsys, monkeypatch):
        original = analytic.ng_closed_form
        complex_seen = []

        def dropped_conjugate(columns, bases):
            # Eve's Z term as Re(a c) instead of Re(a c*): equal on real programs
            f_ab, f_ae = original(columns, bases)
            if len(columns) != 4:
                return f_ab, f_ae
            complex_seen.extend(np.max(np.abs(columns.imag), axis=0) >= 1e-12)
            a, b, c, d = columns
            f_ae = np.array(f_ae)
            z = [basis.label for basis in bases].index("Z")
            f_ae[z] = 0.5 + (np.real(a * c) + np.real(b * np.conj(d)))
            return f_ab, f_ae

        monkeypatch.setattr(analytic, "ng_closed_form", dropped_conjugate)
        code, out, _ = run_cli(capsys, "validate", "--trials", "10", "--seed", "3")
        assert any(complex_seen) and not all(complex_seen)
        assert code == 1
        assert failed_checks(out) == ["analytic-vs-sim-ng-1q"]

    def test_complex_program_terms_of_qid(self, capsys, monkeypatch):
        # a^T M a for a^dag M a, the conjugate dropped from the program: the QID
        # forms M are real, so this is F(Re a) - F(Im a), equal to F(a) on real
        # programs, and only the complex draws of both register sizes show it
        original = analytic.qid_fidelity_columns
        complex_seen = []

        def dropped_conjugate(columns):
            complex_seen.extend(np.any(columns.imag != 0, axis=0))
            real, imag = (original(np.ascontiguousarray(p)) for p in (columns.real, columns.imag))
            return tuple(r - i for r, i in zip(real, imag))

        monkeypatch.setattr(analytic, "qid_fidelity_columns", dropped_conjugate)
        code, out, _ = run_cli(capsys, "validate", "--trials", "10", "--seed", "3")
        assert any(complex_seen) and not all(complex_seen)
        assert code == 1
        assert failed_checks(out) == ["analytic-vs-sim-qid-1q", "analytic-vs-sim-qid-2q"]

    def test_ng_2q_stabilizer_set(self, capsys, monkeypatch):
        # the rule reads each basis's invariant mask; the patched property
        # overrides the masks cached on the basis objects
        _plant_m1_stabilizer_defect(monkeypatch)
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert "analytic-vs-sim-ng-2q" in failed_checks(out)

    def test_pair_partition_reads_the_masks(self, capsys, monkeypatch):
        # M1 one stabilizer short leaves an index and its pairs to no basis;
        # a clean run first fills whatever the check might cache
        assert run_cli(capsys, "validate", "--trials", "5", "--seed", "3")[0] == 0
        _plant_m1_stabilizer_defect(monkeypatch)
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert "eve-pair-partition" in failed_checks(out)

    def test_noise_transform(self, capsys, monkeypatch):
        original = cli.noisy_fidelity_1q
        monkeypatch.setattr(
            cli, "noisy_fidelity_1q", lambda f, *args: original(f, *args) + 1e-9
        )
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["noisy-transform-oracle"]

    def test_engine_nan_fails_the_noise_transform(self, capsys, monkeypatch):
        # a NaN reaches noisy_fidelity_1q, which rejects it: the check fails, no exit 2
        original = cli.fidelity_columns

        def nan_in_last_column(kind, n, *args):
            cols = original(kind, n, *args)  # fresh arrays at every batch size
            if n == 1:
                for f in cols:
                    f[:, -1] = math.nan
            return cols

        monkeypatch.setattr(cli, "fidelity_columns", nan_in_last_column)
        code, out, err = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1 and err == ""
        assert "noisy-transform-oracle" in failed_checks(out)

    def test_y_error_of_one_kind_fails_the_noise_transform(self, capsys, monkeypatch):
        # the oracle mixes per-error engine values; a defect in one of them shows
        original = cli.fidelity_columns

        def qid_y_error_off_by_1e9(kind, n, programs, states, channel=None):
            cols = original(kind, n, programs, states, channel)
            certain_y = channel is not None and channel.probs.get(PauliString("Y")) == 1.0
            if kind == ClonerKind.QID and certain_y:
                return tuple(f + 1e-9 for f in cols)
            return cols

        monkeypatch.setattr(cli, "fidelity_columns", qid_y_error_off_by_1e9)
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["noisy-transform-oracle"]

    def test_generalized_bob_fidelity(self, capsys, monkeypatch):
        # the NG rule's Bob half, 1e-11 off: caught at both register sizes
        original = analytic.ng_closed_form

        def bob_off_by_1e11(columns, bases):
            f_ab, f_ae = original(columns, bases)
            return f_ab + 1e-11, f_ae

        monkeypatch.setattr(analytic, "ng_closed_form", bob_off_by_1e11)
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["analytic-vs-sim-ng-1q", "analytic-vs-sim-ng-2q"]

    def test_gate_matrix_off_by_1e9(self, capsys, monkeypatch):
        # RX runs only in the random circuits, not in the cloners
        plant_rx_off_by_1e9(monkeypatch)
        code, out, _ = run_cli(capsys, "validate", "--trials", "20", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["circuit-unitarity"]

    def test_cry_with_control_zero_off_by_1e9(self, capsys, monkeypatch):
        original = simcore.gate_matrices
        cry = simcore.GATE_NAMES.index("CRY")

        def scaled_cry0(gates, angles, control_values):
            off = (np.asarray(gates) == cry) & (np.asarray(control_values) == 0)
            scale = np.where(off, 1 + 1e-9, 1.0)
            return original(gates, angles, control_values) * scale[:, None, None]

        monkeypatch.setattr(simcore, "gate_matrices", scaled_cry0)
        code, out, _ = run_cli(capsys, "validate", "--trials", "20", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["circuit-unitarity"]

    def test_s_inverse_as_a_single_s(self, capsys, monkeypatch):
        original = simcore.gate_inverses

        def one_s(gates, angles):
            repeats, inverse_angles = original(gates, angles)
            return np.ones_like(repeats), inverse_angles

        monkeypatch.setattr(simcore, "gate_inverses", one_s)
        code, out, _ = run_cli(capsys, "validate", "--trials", "20", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["circuit-unitarity"]

    def test_disagreeing_table_row_fails_action_table(self, capsys, monkeypatch):
        # IX now fixes M0 while XX and XI still permute it: the first row disagrees
        cached = mub.MubBasis.invariant_mask

        def ix_fixes_m0(basis):
            mask = cached.__get__(basis).copy()
            if basis.num_qubits == 2 and basis.label == "M0":
                mask[mub.pauli_to_index(mub.PauliString("IX"))] = True
            return mask

        monkeypatch.setattr(mub.MubBasis, "invariant_mask", property(ix_fixes_m0))
        code, out, err = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == VALIDATE_CHECKS
        assert "action-table" in failed_checks(out)
        assert "[FAIL] action-table                 max deviation nan" in out

    @pytest.mark.parametrize("position", [0, 4])
    def test_nan_anywhere_in_a_batch(self, capsys, monkeypatch, position):
        # np.max keeps a NaN wherever it sits; Python's max may drop it
        original = analytic.ng_closed_form

        def nan_at_position(columns, bases):
            # Bob's fidelities of one ng-1q program, the first or the last, are NaN
            f_ab, f_ae = original(columns, bases)
            if len(columns) == 4:
                f_ab = np.array(f_ab)
                f_ab[:, position] = math.nan
            return f_ab, f_ae

        monkeypatch.setattr(analytic, "ng_closed_form", nan_at_position)
        code, out, _ = run_cli(capsys, "validate", "--trials", "5", "--seed", "3")
        assert code == 1
        assert failed_checks(out) == ["analytic-vs-sim-ng-1q"]
        assert "max deviation nan" in out


class TestSweepCommand:
    def test_b92_sweep_csv_is_deterministic(self, capsys, tmp_path):
        path1 = tmp_path / "a.csv"
        argv = [
            "sweep",
            "--task",
            "b92",
            "--f",
            "0.8:0.8:0.1",
            "--steps",
            "5",
            "--restarts",
            "2",
            "--seed",
            "9",
        ]
        code, _, _ = run_cli(capsys, *argv, "--out", str(path1))
        assert code == 0
        first = path1.read_bytes()
        run_cli(capsys, *argv, "--out", str(path1))
        assert first == path1.read_bytes()
        lines = path1.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert "b92" in lines[0]
        header = lines[1].split(",")
        assert header[:5] == ["f_target", "series", "label", "F_AB_avg", "F_AE_avg"]
        assert header[-2:] == ["params", "target_miss"]
        series = {line.split(",")[1] for line in lines[2:]}
        assert series == {"qml", "grid-ng", "grid-qid"}
        for row in csv.DictReader(lines[1:]):
            if row["series"] == "qml":
                miss = abs(float(row["F_AB_avg"]) - float(row["f_target"]))
                assert float(row["target_miss"]) == pytest.approx(miss, abs=1e-11)
            else:
                assert row["target_miss"] == ""

    @pytest.mark.parametrize(
        "task, noise, f, count",
        [
            ("bb84", "X=0.25", "0.55:0.95:0.05", 9),
            ("sixstate", "X=0.25,Z=0.1", "0.6:0.8:0.05", 5),
        ],
    )
    def test_exact_rows_replay_from_their_amplitudes(
        self, capsys, caplog, task, noise, f, count
    ):
        code, out, _ = run_cli(capsys, "sweep", "--task", task, "--noise", noise, "--f", f)
        assert code == 0
        rows = [r for r in csv.DictReader(out.splitlines()[1:]) if r["series"] == "ng"]
        assert len(rows) == count
        channel = parse_channel_spec(noise, 1)
        labels, reachable = {"bb84": ("ZX", 0.875), "sixstate": ("ZXY", 23 / 30)}[task]
        bases = [mubs_for(1)[lbl] for lbl in labels]
        for row in rows:
            amps = np.array([float(a) for a in row["params"].split()])
            assert amps.size == 4
            rep = clone_fidelities(ClonerKind.NG, 1, SoftwareState(amps), channel, bases)
            want = {"F_AB_avg": rep.f_ab_avg, "F_AE_avg": rep.f_ae_avg}
            want.update({f"F_AB_{k}": v for k, v in rep.f_ab.items()})
            want.update({f"F_AE_{k}": v for k, v in rep.f_ae.items()})
            for key, value in want.items():
                assert abs(float(row[key]) - value) < 1e-9
            target, f_ab = float(row["f_target"]), float(row["F_AB_avg"])
            if target <= reachable:
                assert abs(f_ab - target) < 1e-9
            else:  # the row at the end of the reachable interval, with its miss
                assert abs(f_ab - reachable) < 1e-11
                assert float(row["target_miss"]) == pytest.approx(target - reachable)
                assert f"f={target:.3f}: outside the reachable Bob interval [" in caplog.text
        # the fidelities command takes the params column as printed
        argv = ["fidelities", "--kind", "ng", "--n", "1", "--noise", noise]
        code, out, _ = run_cli(capsys, *argv, "--amplitudes", rows[0]["params"])
        assert code == 0
        payload = json.loads(out)
        for lbl in labels:
            assert abs(payload["f_ab"][lbl] - float(rows[0][f"F_AB_{lbl}"])) < 1e-9
            assert abs(payload["f_ae"][lbl] - float(rows[0][f"F_AE_{lbl}"])) < 1e-9

    def test_pairs_rows_are_exact_and_replay_from_their_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--task", "pairs")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert len(rows) == 2 * 10 * 2  # targets x basis pairs x families
        for row in rows:
            assert float(row["target_miss"]) <= 1e-9
            params = row["params"].split()
            assert len(params) == 16
            bases = ",".join(row["label"][i : i + 2] for i in (0, 2))
            argv = ["fidelities", "--kind", row["series"], "--n", "2", "--bases", bases]
            code, out, _ = run_cli(capsys, *argv, "--amplitudes", " ".join(params))
            assert code == 0
            payload = json.loads(out)
            assert abs(payload["f_ab_avg"] - float(row["F_AB_avg"])) < 1e-9
            assert abs(payload["f_ae_avg"] - float(row["F_AE_avg"])) < 1e-9
            for lbl in bases.split(","):
                assert abs(payload["f_ab"][lbl] - float(row[f"F_AB_{lbl}"])) < 1e-9
                assert abs(payload["f_ae"][lbl] - float(row[f"F_AE_{lbl}"])) < 1e-9

    @pytest.mark.parametrize("noise", ["Y=0.5", "X=1", "Z=1", "X=0.5,Z=0.5", "X=0.25,Y=0.25,Z=0.25"])
    def test_bb84_where_every_phase_covariant_cloner_sits_at_one_half(self, capsys, noise):
        # p_X + 2 p_Y + p_Z = 1: the pccm reference exists at f = 1/2 only
        argv = ["sweep", "--task", "bb84", "--noise", noise, "--f", "0.45:0.6:0.05"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        rows = [r for r in csv.DictReader(out.splitlines()[1:]) if r["series"] == "pccm"]
        assert [(r["f_target"], r["F_AB_avg"], r["F_AE_avg"]) for r in rows] == [
            ("0.5", "0.5", "0.5")
        ]
        for target, count in (("0.5", 1), ("0.6", 0)):
            argv = ["sweep", "--task", "bb84", "--noise", noise, "--f", f"{target}:{target}:1"]
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            rows = [r for r in csv.DictReader(out.splitlines()[1:]) if r["series"] == "pccm"]
            assert [(r["F_AB_avg"], r["F_AE_avg"]) for r in rows] == [("0.5", "0.5")] * count

    def test_b92_rejects_a_channel(self, capsys):
        argv = ["sweep", "--f", "0.8:0.8:0.1", "--task", "b92", "--noise", "X=0.3"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: the b92 task is noiseless\n")

    def test_too_many_targets_exit_2_at_once(self, capsys):
        # counted, not enumerated: 10^12 targets fail before any list is built
        code, out, err = run_cli(capsys, "sweep", "--task", "bb84", "--f", "0:1:1e-12")
        assert (code, out) == (2, "")
        assert "--f" in err and f"more than {cli.MAX_F_TARGETS} targets" in err
        assert len(cli._parse_f_range("0.001:1:0.001")) == cli.MAX_F_TARGETS == 1000
        with pytest.raises(ValueError, match="--f"):
            cli._parse_f_range("0:1:0.001")

    def test_f_range_stops_at_its_stop(self):
        # a step far below the 1e-9 slack on stop still gives one target
        assert cli._parse_f_range("0.5:0.5:1e-13") == [0.5]
        assert cli._parse_f_range("0.55:0.8:0.025")[-1] == 0.8
        assert len(cli._parse_f_range("0:1:0.005")) == 201

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--task", "b92", "--f", "0.9:0.5:0.1"
        )
        assert code == 2
        code, _, _ = run_cli(capsys, "sweep", "--task", "b92", "--f", "nonsense")
        assert code == 2
        # rejected before enumeration: 0:inf:0.1 would never finish
        for spec in ("0:inf:0.1", "0:nan:0.1", "nan:0.5:0.1", "0.5:0.6:inf", "-0.1:0.5:0.1"):
            code, out, err = run_cli(capsys, "sweep", "--task", "b92", f"--f={spec}")
            assert (code, out) == (2, "")
            assert "--f" in err

    def test_optimizer_failure_exits_1(self, capsys, monkeypatch):
        def exploding(*args, **kwargs):
            raise RuntimeError("objective diverged")

        monkeypatch.setattr(optimize, "compile_programs", exploding)
        code, _, err = run_cli(capsys, "sweep", "--task", "b92", "--f", "0.8:0.8:1")
        assert code == 1
        assert "diverged" in err

    def test_twenty_rows_do_not_depend_on_the_seed(self, capsys):
        argv = ["sweep", "--task", "twenty", "--noise", "YI=0.45", "--f", "0.45:0.5:0.05"]
        outs = []
        for seed in ("0", "7"):
            code, out, _ = run_cli(capsys, *argv, "--seed", seed)
            assert code == 0
            outs.append(out.splitlines())
        # every line but the config comment, which records the seed
        assert outs[0][0] != outs[1][0]
        assert outs[0][1:] == outs[1][1:]

    def test_b92_rows_do_not_depend_on_the_seed(self, capsys):
        runs = [run_cli(capsys, "sweep", "--task", "b92", "--seed", seed) for seed in "07"]
        assert [code for code, _, _ in runs] == [0, 0]
        (first, *rows), (other, *rows_7) = (out.splitlines() for _, out, _ in runs)
        assert first != other and rows == rows_7

    def test_unknown_task_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "sweep", "--task", "everything")
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", ["--steps", "--restarts"])
    def test_steps_and_restarts_below_1_exit_2(self, capsys, option):
        # they drive no row, but a value no optimizer could run is still refused
        code, out, err = run_cli(capsys, "sweep", "--task", "bb84", option, "0")
        assert (code, out, err) == (2, "", "error: steps and restarts must be at least 1\n")


    def test_single_target(self, capsys):
        argv = ["sweep", "--task", "bb84", "--noise", "X=0.25", "--f", "0.7:0.7:1"]
        code, out, _ = run_cli(capsys, *argv, "--steps", "30", "--restarts", "1", "--seed", "2")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()[1:]))
        ng_rows = [r for r in rows if r["series"] == "ng"]
        assert len(ng_rows) == 1
        assert len(ng_rows[0]["params"].split()) == 4
        miss = abs(float(ng_rows[0]["F_AB_avg"]) - 0.7)
        assert miss < 1e-9
        assert float(ng_rows[0]["target_miss"]) == pytest.approx(miss, abs=1e-11)
        others = [r for r in rows if r["series"] != "ng"]
        assert others and all(r["target_miss"] == "" for r in others)

    @pytest.mark.parametrize(
        "task, noise, num_rows", [("bb84", "X=0.25", 2), ("b92", None, 3)]
    )
    def test_single_target_rows_equal_the_frontier_sweep_rows(
        self, capsys, task, noise, num_rows
    ):
        argv = ["sweep", "--task", task, "--f", "0.75:0.75:1", "--seed", "4"]
        argv += ["--steps", "5", "--restarts", "2"]
        code, out, _ = run_cli(capsys, *argv, *(["--noise", noise] if noise else []))
        assert code == 0
        channel = parse_channel_spec(noise, 1) if noise else None
        result = optimize.frontier_sweep(task, [0.75], channel=channel)
        assert len(result.rows) == num_rows
        assert out.splitlines()[1:] == cli._sweep_csv_lines(result, {})[1:]

    def test_pairs_programs_print_no_eigensolver_dust(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--task", "pairs")
        assert code == 0
        cells = [c for r in csv.DictReader(out.splitlines()[1:]) for c in r["params"].split()]
        assert len(cells) == 40 * 16
        assert "-0" not in cells
        assert all(float(c) == 0 or abs(float(c)) >= 1e-15 for c in cells)

    def test_b92_angles_print_no_fit_dust(self, capsys):
        # the fit leaves a few angles below 1e-15; every other nonzero one is above 1e-3
        code, out, _ = run_cli(capsys, "sweep", "--task", "b92", "--f", "0:1:0.01")
        assert code == 0
        rows = [r for r in csv.DictReader(out.splitlines()[1:]) if r["series"] == "qml"]
        cells = [c for r in rows for c in r["params"].split()]
        assert len(cells) == 101 * 18
        assert "-0" not in cells
        assert not any(0 < abs(float(c)) <= 1e-14 for c in cells)


class TestCliSurface:
    def test_subcommands_and_their_options(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: sorted(s for a in sub._actions for s in a.option_strings)
            for name, sub in commands.choices.items()
        }
        help_ = ["-h", "--help"]
        assert surface == {
            "fidelities": sorted(
                help_
                + ["--kind", "--n", "--preset", "--amplitudes", "--angles"]
                + ["--noise", "--bases", "--out"]
            ),
            "validate": sorted(help_ + ["--trials", "--seed"]),
            "sweep": sorted(
                help_ + ["--task", "--noise", "--f", "--seed", "--steps", "--restarts", "--out"]
            ),
            "mubs": sorted(help_ + ["--n", "--check"]),
            "table": sorted(help_ + ["--n"]),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--task", "bb84", "--f-target", "0.7"],
            ["sweep", "--task", "bb84", "--f", "0.7:0.7:1", "--lr", "0.1"],
        ],
    )
    def test_removed_command_and_option_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelities", "--kind", "ng", "--n", "1", "--preset", "uqcm-sym"],
            ["sweep", "--task", "pairs", "--f", "0.7:0.7:1"],
        ],
        ids=["fidelities", "sweep"],
    )
    @pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_out_is_one_error_line_and_exit_2(self, capsys, tmp_path, argv, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "missing").exists()


class TestTableAndMubs:
    def test_table_two_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "2")
        assert code == 0
        assert "XX, IX, XI" in out
        row = next(l for l in out.splitlines() if l.startswith("ZZ"))
        assert row.split()[-5:] == ["0", "1", "1", "1", "1"]

    def test_table_three_qubits_lists_classes(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "3")
        assert code == 0
        assert "9 commuting classes of 7" in out

    def test_table_rejects_bad_size(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "table", "--n", "4")
        assert exc.value.code == 2

    def test_mubs_check(self, capsys):
        code, out, _ = run_cli(capsys, "mubs", "--n", "2", "--check")
        assert code == 0
        dev = float(out.splitlines()[-1].split()[-1])
        assert dev < 1e-12


def test_python_dash_m_runs_the_cli(capsys):
    stdout = run_python("-m", "paulicloner", "table", "--n", "1")
    code, out, _ = run_cli(capsys, "table", "--n", "1")
    assert code == 0
    assert stdout == out


@pytest.mark.parametrize(
    "argv",
    [
        ["fidelities", "--kind", "ng", "--n", "2", "--amplitudes", "1" + " 0" * 15],
        ["mubs", "--n", "2"],
    ],
    ids=["json", "lines"],
)
def test_closed_stdout_pipe_exits_141_without_a_traceback(argv):
    # the reader is gone before the first write, so every write finds the pipe closed
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "paulicloner", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=python_env(),
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_CLOSED_PIPE == 141
