import numpy as np
import pytest

from paulicloner.cloner import ClonerKind, SoftwareState, clone_fidelities
from paulicloner.mub import PauliString
from paulicloner.noise import (
    PauliChannel,
    apply_channel,
    channel_with_single_error,
    noisy_fidelity_1q,
    parse_channel_spec,
)
from paulicloner.simcore import DensityMatrix, basis_state


def zero_projector():
    return basis_state(1, 0).to_density_matrix()


class TestApplyChannel:
    def test_identity_channel(self):
        rho = zero_projector()
        out = apply_channel(rho, PauliChannel.identity_channel(1))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_full_bit_flip(self):
        out = apply_channel(zero_projector(), PauliChannel(1, {PauliString("X"): 1.0}))
        np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_partial_bit_flip(self):
        out = apply_channel(zero_projector(), PauliChannel(1, {PauliString("X"): 0.25}))
        np.testing.assert_allclose(out.matrix, np.diag([0.75, 0.25]), atol=1e-15)

    def test_preserves_density_matrix_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            rho = DensityMatrix(2, m / np.trace(m).real)
            p = rng.dirichlet(np.ones(16)) * rng.uniform(0.1, 1.0)
            probs = {
                PauliString(f"{a}{b}"): p[i * 4 + j]
                for i, a in enumerate("IXYZ")
                for j, b in enumerate("IXYZ")
                if (a, b) != ("I", "I")
            }
            out = apply_channel(rho, PauliChannel(2, probs))
            # constructor re-validates Hermiticity, trace, positivity
            assert abs(np.trace(out.matrix).real - 1) < 1e-12

    def test_unitality(self):
        rho = DensityMatrix(1, np.eye(2) / 2)
        ch = PauliChannel.from_xyz(0.2, 0.1, 0.15)
        out = apply_channel(rho, ch)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(zero_projector(), PauliChannel.identity_channel(2))


class TestNoisyFidelity:
    def test_x_basis_immune_to_x_errors(self):
        for f in (0.3, 0.7, 1.0):
            assert noisy_fidelity_1q(f, "X", 0.3, 0.0, 0.0) == pytest.approx(f)

    def test_z_basis_under_bit_flip(self):
        assert noisy_fidelity_1q(1.0, "Z", 0.25, 0.0, 0.0) == pytest.approx(0.75)

    def test_half_is_fixed_point(self):
        for basis in "XYZ":
            assert noisy_fidelity_1q(0.5, basis, 0.2, 0.15, 0.1) == pytest.approx(0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            noisy_fidelity_1q(1.2, "Z", 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            noisy_fidelity_1q(0.5, "Z", 0.6, 0.6, 0.0)
        with pytest.raises(ValueError):
            noisy_fidelity_1q(0.5, "W", 0.1, 0.0, 0.0)

    def test_array_of_fidelities(self):
        fids = np.array([0.0, 0.3, 0.75, 1.0])
        got = noisy_fidelity_1q(fids, "X", 0.1, 0.2, 0.05)
        want = [noisy_fidelity_1q(float(f), "X", 0.1, 0.2, 0.05) for f in fids]
        np.testing.assert_array_equal(got, want)
        for bad in (np.array([0.5, np.nan]), np.array([0.5, 1.2])):
            with pytest.raises(ValueError):
                noisy_fidelity_1q(bad, "X", 0.1, 0.2, 0.05)

    def test_arrays_of_probabilities(self):
        # one call over many channels equals a scalar call per channel, bit for bit
        rng = np.random.default_rng(7)
        probs = rng.dirichlet(np.ones(4), size=50)[:, :3] * rng.uniform(0.2, 1.0, (50, 1))
        fids = rng.uniform(0.0, 1.0, (50, 2))
        for basis in "XYZ":
            got = noisy_fidelity_1q(fids, basis, *probs.T[:, :, None])
            want = [[noisy_fidelity_1q(f, basis, *p) for f in row] for row, p in zip(fids, probs)]
            np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="outside"):
            noisy_fidelity_1q(0.5, "Z", np.array([0.1, -0.1]), 0.0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            noisy_fidelity_1q(0.5, "Z", 0.0, np.array([0.1, np.nan]), 0.0)
        with pytest.raises(ValueError, match="sum"):
            noisy_fidelity_1q(0.5, "Z", np.array([0.1, 0.6]), np.array([0.1, 0.6]), 0.0)

    @pytest.mark.parametrize(
        "args",
        [(np.nan, 0.1, 0.0, 0.0), (0.5, np.nan, 0.0, 0.0), (0.5, 0.1, 0.0, np.nan)],
    )
    def test_rejects_nan(self, args):
        fidelity, p_x, p_y, p_z = args
        with pytest.raises(ValueError):
            noisy_fidelity_1q(fidelity, "Z", p_x, p_y, p_z)


class TestChannelConstruction:
    def test_single_error_channel(self):
        ch = channel_with_single_error(2, PauliString("YI"), 0.45)
        assert ch.probs[PauliString("YI")] == pytest.approx(0.45)
        assert ch.probs[PauliString("II")] == pytest.approx(0.55)

    def test_zero_probability_is_identity(self):
        assert channel_with_single_error(1, PauliString("X"), 0.0).is_identity

    def test_identity_error_rejected(self):
        with pytest.raises(ValueError):
            channel_with_single_error(1, PauliString("I"), 0.1)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            channel_with_single_error(1, PauliString("X"), 1.5)
        with pytest.raises(ValueError):
            PauliChannel(1, {PauliString("X"): 0.7, PauliString("Y"): 0.7})

    @pytest.mark.parametrize(
        "probs",
        [
            {"X": np.nan},
            {"X": 0.1, "Y": np.nan},
            {"I": np.nan, "X": 0.1},
            {"I": 0.5, "X": np.nan},
        ],
    )
    def test_rejects_nan(self, probs):
        with pytest.raises(ValueError):
            PauliChannel(1, probs)

    def test_parse_spec(self):
        ch = parse_channel_spec("YI=0.45, XX=0.05", 2)
        assert ch.probs[PauliString("YI")] == pytest.approx(0.45)
        assert ch.probs[PauliString("XX")] == pytest.approx(0.05)
        assert ch.probs[PauliString("II")] == pytest.approx(0.5)
        assert parse_channel_spec("", 1).is_identity
        with pytest.raises(ValueError):
            parse_channel_spec("X0.25", 1)
        with pytest.raises(ValueError):
            parse_channel_spec("XY=0.25", 1)  # wrong register size


class TestKrausOracle:
    def test_closed_form_matches_branch_simulation(self):
        # the affine transforms must reproduce full Kraus mixing exactly
        rng = np.random.default_rng(1)
        for _ in range(50):
            kind = ClonerKind.NG if rng.random() < 0.5 else ClonerKind.QID
            v = rng.standard_normal(4)
            s = SoftwareState(v / np.linalg.norm(v))
            p = rng.dirichlet(np.ones(4)) * rng.uniform(0.2, 1.0)
            p_x, p_y, p_z = p[0], p[1], p[2]
            clean = clone_fidelities(kind, 1, s)
            noisy = clone_fidelities(kind, 1, s, channel=PauliChannel.from_xyz(p_x, p_y, p_z))
            for lbl in "ZXY":
                assert noisy.f_ab[lbl] == pytest.approx(
                    noisy_fidelity_1q(clean.f_ab[lbl], lbl, p_x, p_y, p_z), abs=1e-10
                )
                assert noisy.f_ae[lbl] == pytest.approx(
                    noisy_fidelity_1q(clean.f_ae[lbl], lbl, p_x, p_y, p_z), abs=1e-10
                )
