"""Programmable 1-to-2 quantum cloning machines for N-qubit Pauli channels.

Niu-Griffiths and QID cloning circuits, mutually unbiased bases, Pauli
noise models, closed-form fidelity evaluators, and program-state
optimization, backed by a dense statevector simulator.
"""

from .simcore import (
    Circuit,
    DensityMatrix,
    GateOp,
    StateVector,
    apply_circuit,
    basis_state,
    fidelity_pure,
    inject_state,
    partial_trace,
)
from .mub import (
    MubBasis,
    MubSet,
    PauliAction,
    PauliString,
    action_table,
    commuting_classes,
    mub_prep_circuit,
    mubs_for,
    pauli_action,
    single_qubit_mubs,
    two_qubit_mubs,
)
from .noise import (
    PauliChannel,
    apply_channel,
    channel_with_single_error,
    noisy_fidelity_1q,
    parse_channel_spec,
)
from .cloner import (
    ClonerKind,
    FidelityReport,
    NgAngles,
    SoftwareState,
    b92_fidelities,
    bob_pauli_transfer_matrix,
    build_ng,
    build_qid_1q,
    build_qid_2q,
    clone_fidelities,
    ng_angles_to_program,
    ng_software_prep_circuit,
)
from .analytic import (
    ImbalanceEta,
    ng_fidelities,
    ng_nq_bob_fidelity,
    qid_closed_form,
    qid_fidelities,
    qid_uqcm_program_2q,
    table1_angles,
    uqcm_fidelity,
    uqcm_program_ng,
)
from .optimize import (
    AnsatzSpec,
    OptimizerConfig,
    SweepResult,
    adam_optimize,
    evaluate_ansatz,
    exact_frontier_point,
    frontier_sweep,
    loss,
)

__version__ = "0.1.0"
