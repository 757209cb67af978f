"""Programmable 1-to-2 quantum cloning machines for N-qubit Pauli channels.

Niu-Griffiths and QID cloning circuits, mutually unbiased bases, Pauli
noise models, closed-form fidelity evaluators, and program-state
optimization, backed by a dense statevector simulator.

The names below resolve on first access (PEP 562): ``import paulicloner``
loads no submodule and no numpy, and ``paulicloner.clone_fidelities`` imports
``paulicloner.cloner`` then.  Nothing is cached here, so each access returns
what the submodule holds at that moment.
"""

import importlib

_EXPORTS = {
    "simcore": (
        "Circuit",
        "DensityMatrix",
        "GateOp",
        "StateVector",
        "apply_circuit",
        "basis_state",
        "fidelity_pure",
        "inject_state",
    ),
    "mub": (
        "MubBasis",
        "MubSet",
        "PauliAction",
        "PauliString",
        "action_table",
        "commuting_classes",
        "mub_prep_circuit",
        "mubs_for",
        "pauli_action",
        "single_qubit_mubs",
        "two_qubit_mubs",
    ),
    "noise": (
        "PauliChannel",
        "noisy_fidelity_1q",
        "parse_channel_spec",
    ),
    "cloner": (
        "ClonerKind",
        "FidelityReport",
        "NgAngles",
        "SoftwareState",
        "b92_fidelities",
        "bob_pauli_transfer_matrix",
        "build_ng",
        "build_qid_1q",
        "build_qid_2q",
        "clone_fidelities",
        "ng_angles_to_program",
        "ng_software_prep_circuit",
    ),
    "analytic": (
        "ImbalanceEta",
        "ng_fidelities",
        "ng_nq_bob_fidelity",
        "qid_closed_form",
        "qid_fidelities",
        "qid_uqcm_program_2q",
        "table1_angles",
        "uqcm_fidelity",
        "uqcm_program_ng",
    ),
    "optimize": (
        "AnsatzSpec",
        "OptimizerConfig",
        "SweepResult",
        "adam_optimize",
        "evaluate_ansatz",
        "exact_frontier_point",
        "frontier_sweep",
        "loss",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_MODULE_OF])
