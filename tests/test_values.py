"""The package's value types: the inputs each refuses, their one constructor,
equality where callers use it, immutability, and the calls the benchmark's
output checks replay."""

import math

import numpy as np
import pytest

from paulicloner import analytic, cli, cloner, mub, noise, optimize, simcore

Z0, Z1 = simcore.basis_state(1, 0), simcore.basis_state(1, 1)
Z_BASIS = mub.MubBasis("Z", (Z0, Z1))

# (type, arguments, exception[, keyword arguments]): inputs each type refuses
REFUSED = [
    (simcore.GateOp, ("XX", (0,)), ValueError),
    (simcore.GateOp, ("CNOT", (0,)), ValueError),
    (simcore.GateOp, ("CNOT", (1, 1)), ValueError),
    (simcore.GateOp, ("RY", (0,)), ValueError),
    (simcore.GateOp, ("CRY", (0, 1), 0.1, 2), ValueError),
    (simcore.GateOp, ("H",), TypeError),
    (simcore.Circuit, (1, (simcore.GateOp("CNOT", (0, 1)),)), ValueError),
    (simcore.StateVector, (0, [1.0]), ValueError),
    (simcore.StateVector, (1, [1.0, 0.0, 0.0]), ValueError),
    (simcore.StateVector, (1, [1.0, 1.0]), ValueError),
    (simcore.StateVector, (1, [math.nan, 0.0]), ValueError),
    (simcore.DensityMatrix, (1, np.eye(4) / 4), ValueError),
    (simcore.DensityMatrix, (1, [[1, 1], [0, 0]]), ValueError),
    (simcore.DensityMatrix, (1, np.eye(2)), ValueError),
    (simcore.DensityMatrix, (1, [[1.5, 0], [0, -0.5]]), ValueError),
    (mub.PauliString, ("",), ValueError),
    (mub.PauliString, ("XQ",), ValueError),
    (mub.MubBasis, ("B", (Z0, Z0)), ValueError),
    (mub.MubSet, (1, (Z_BASIS, Z_BASIS)), ValueError),
    (mub.PauliAction, ("invariant", (0, 1)), TypeError),
    (noise.PauliChannel, (1, {"XX": 0.1}), ValueError),
    (noise.PauliChannel, (1, {"Q": 0.1}), ValueError),
    (noise.PauliChannel, (1, {"X": 1.5}), ValueError),
    (noise.PauliChannel, (1, {"X": 0.6, "Z": 0.6}), ValueError),
    (noise.PauliChannel, (1, {"I": 0.5, "X": 0.1}), ValueError),
    (cloner.SoftwareState, ([1.0, 0.0],), ValueError),
    (cloner.SoftwareState, ([1.0, 1.0, 0.0, 0.0],), ValueError),
    (cloner.NgAngles, (0.1, 0.2), TypeError),
    (cloner.FidelityReport, ({}, {}, {}), TypeError),
    (analytic.ImbalanceEta, (0.0,), ValueError),
    (analytic.ImbalanceEta, (math.nan,), ValueError),
    (optimize.AnsatzSpec, ("mystery", np.zeros(3)), ValueError),
    (optimize.AnsatzSpec, ("b92", np.zeros(17)), ValueError),
    (optimize.OptimizerConfig, (0,), ValueError),
    (optimize.OptimizerConfig, (10, 0), ValueError),
    (optimize.OptimizerConfig, (10, 1, 0), TypeError),
    (optimize.SweepRow, (0.5, "ng", "", {}, {}, 0.5, 0.5), TypeError),
    (optimize.SweepResult, ("bb84",), TypeError),
    (cli.Check, ("check", 0.0), TypeError),
    # the shared constructor: an unknown field, a field given twice, a missing one
    (simcore.GateOp, ("H", (0,)), TypeError, {"axis": 0}),
    (simcore.GateOp, ("H", (0,)), TypeError, {"qubits": (0,)}),
    (optimize.AnsatzSpec, (), TypeError, {"kind": "b92"}),
]


def _shown(value) -> str:
    """A short stable form of one argument: arrays by shape, values by type."""
    if isinstance(value, np.ndarray):
        return f"array{_shown(value.shape)}"
    if isinstance(value, simcore.Frozen):
        return type(value).__name__
    if isinstance(value, tuple):
        return f"({','.join(map(_shown, value))}{',' * (len(value) == 1)})"
    return repr(value).replace(" ", "")


def _case_id(cls, args, kwargs) -> str:
    """A case named by its type and arguments, so that ids survive added or
    removed rows."""
    shown = [*map(_shown, args), *(f"{k}={_shown(v)}" for k, v in kwargs.items())]
    return f"{cls.__name__}({','.join(shown)})"


REFUSED_CASES = [(*row, {})[:4] for row in REFUSED]
REFUSED_IDS = [_case_id(cls, args, kwargs) for cls, args, _, kwargs in REFUSED_CASES]
assert len(set(REFUSED_IDS)) == len(REFUSED)


@pytest.mark.parametrize("cls, args, error, kwargs", REFUSED_CASES, ids=REFUSED_IDS)
def test_refused_inputs(cls, args, error, kwargs):
    with pytest.raises(error):
        cls(*args, **kwargs)


def test_keyword_fields_and_defaults():
    op = simcore.GateOp(name="RY", qubits=(0,), angle=0.5)
    assert (op.name, op.qubits, op.angle, op.control_value) == ("RY", (0,), 0.5, 1)
    cfg = optimize.OptimizerConfig(steps=3)
    assert (cfg.steps, cfg.restarts) == (3, 5)


# every immutable type, built from valid input, and one of its fields
FROZEN = {
    "GateOp": (lambda: simcore.GateOp("RY", (0,), 0.5), "angle"),
    "Circuit": (lambda: simcore.Circuit(1, [simcore.GateOp("H", (0,))]), "ops"),
    "StateVector": (lambda: Z0, "amplitudes"),
    "DensityMatrix": (lambda: simcore.DensityMatrix(1, np.eye(2) / 2), "matrix"),
    "PauliString": (lambda: mub.PauliString("XZ"), "letters"),
    "MubBasis": (lambda: Z_BASIS, "states"),
    "MubSet": (lambda: mub.single_qubit_mubs(), "bases"),
    "PauliAction": (lambda: mub.pauli_action(mub.PauliString("Z"), Z_BASIS), "kind"),
    "PauliChannel": (lambda: noise.PauliChannel.from_xyz(0.1, 0.0, 0.0), "probs"),
    "SoftwareState": (lambda: cloner.SoftwareState.computational(1), "amplitudes"),
    "NgAngles": (lambda: cloner.NgAngles(0.1, 0.2, 0.3), "rho"),
    "FidelityReport": (lambda: cloner.FidelityReport({}, {}, {}, {}), "f_ab"),
    "ImbalanceEta": (lambda: analytic.ImbalanceEta(2.0), "eta"),
    "AnsatzSpec": (lambda: optimize.AnsatzSpec.zeros("b92"), "parameters"),
    "OptimizerConfig": (lambda: optimize.OptimizerConfig(), "steps"),
    "SweepRow": (lambda: optimize.SweepRow(0.5, "ng", "", {}, {}, 0.5, 0.5, None), "f_target"),
    "SweepResult": (lambda: optimize.SweepResult("bb84", ()), "rows"),
    "Check": (lambda: cli.Check("check", 0.0, 1e-12), "deviation"),
}


def _frozen_types(cls=simcore.Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frozen_types(sub)


def test_every_frozen_type_is_listed_and_uses_the_shared_constructor():
    types = list(_frozen_types())
    assert sorted(t.__name__ for t in types) == sorted(FROZEN)
    assert [t.__name__ for t in types if "__init__" in vars(t)] == []


@pytest.mark.parametrize("make, field", FROZEN.values(), ids=FROZEN)
def test_frozen_types_refuse_assignment_and_deletion(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_equal_pauli_strings_hash_alike_and_key_a_dict():
    a, b = mub.PauliString("XZ"), mub.PauliString("XZ")
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != mub.PauliString("ZX") and a != "XZ"
    assert {a: 0.25}[b] == 0.25
    # a channel given the same string twice adds the weights
    channel = noise.PauliChannel(2, {a: 0.125, "XZ": 0.25})
    assert channel.probs[b] == 0.375 and len(channel.probs) == 2


def test_ng_angles_compare_by_value():
    assert cloner.NgAngles(0.1, 0.2, 0.3) == cloner.NgAngles(0.1, 0.2, 0.3)
    assert cloner.NgAngles(0.1, 0.2, 0.3) != cloner.NgAngles(0.1, 0.2, 0.4)


def test_calls_the_benchmark_output_checks_replay():
    # the sweep-twenty check: AnsatzSpec(kind, params) positionally, then the
    # report fields of clone_fidelities
    params = np.linspace(-1.0, 1.0, optimize.ANSATZ_PARAM_COUNTS["program-prep"])
    spec = optimize.AnsatzSpec("program-prep", params)
    assert spec.kind == "program-prep" and not spec.parameters.flags.writeable
    program = optimize.evaluate_ansatz(spec)
    channel = noise.parse_channel_spec("YI=0.45", 2)
    rep = cloner.clone_fidelities(cloner.ClonerKind.QID, 2, program, channel)
    assert list(rep.f_ab) == list(rep.f_ae) == list(mub.mubs_for(2).labels)
    assert rep.f_ab_avg == pytest.approx(np.mean(list(rep.f_ab.values())), abs=1e-15)
    assert rep.f_ae_avg == pytest.approx(np.mean(list(rep.f_ae.values())), abs=1e-15)
