"""Niu-Griffiths and QID cloning circuits and end-to-end fidelity evaluation.

Register layout for a cloner on N-qubit inputs (3N qubits total):

  qubits 0 .. N-1    Alice's input, which becomes Bob's clone
  qubits N .. 2N-1   Eve's clone
  qubits 2N .. 3N-1  ancilla

The program ("software") state lives on Eve's clone register plus the
ancilla, Eve's qubits being the most significant program bits.  Programs
enter as amplitude vectors rather than through a preparation circuit; the
three-rotation preparation for single-qubit registers is provided
separately for cross-checks.

The hardware is one fixed circuit per (kind, N), which holds no program;
``build_cloner`` only checks that a program fits it.  It is compiled once, on
first use, into its 2^(3N) matrix U by one gate-by-gate pass over all basis
columns; the compile fails unless U is unitary.  Each evaluation contracts
the programs into U and pushes every input and Kraus branch through one
small product.  ``fidelity_matrices``, the one fidelity engine, reads the
quadratic forms of program columns off that output without forming reduced
states (a unitary U and validated inputs make them density matrices), and
``fidelity_columns`` takes only their diagonals: the programs' fidelities.

Noise is modelled as a Pauli channel acting on Alice's register after state
preparation and before the cloning hardware; the Bob/Eve fidelity matrices
or reduced states of its Kraus branches are mixed with the branch weights.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

from . import simcore
from .mub import MubBasis, MubSet, mubs_for, pauli_matrices, pauli_to_index
from .noise import PauliChannel
from .simcore import (
    Circuit,
    DensityMatrix,
    Frozen,
    GateOp,
    StateVector,
    basis_state,
    fidelity_pure,
    inject_state,
    reduced_density_matrix,
)

PROGRAM_NORM_TOL = 1e-9


class ClonerKind(Enum):
    NG = "ng"
    QID = "qid"


class SoftwareState(Frozen):
    """The cloner program: a normalized vector of 4^N amplitudes."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes) -> None:
        object.__setattr__(self, "amplitudes", amplitudes)
        self.__post_init__()

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)  # a copy
        n = round(math.log(amps.size, 4))
        if 4**n != amps.size or n < 1:
            raise ValueError(f"program length {amps.size} is not a power of 4")
        if not abs(np.linalg.norm(amps) - 1.0) <= PROGRAM_NORM_TOL:
            raise ValueError("program state is not normalized")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_clone_qubits(self) -> int:
        return round(math.log(self.amplitudes.size, 4))

    @classmethod
    def computational(cls, num_clone_qubits: int, index: int = 0) -> "SoftwareState":
        amps = np.zeros(4**num_clone_qubits)
        amps[index] = 1.0
        return cls(amps)


class NgAngles(Frozen):
    """Three-angle parameterization of a real single-qubit program state."""

    __slots__ = ("rho", "phi", "theta")

    def __init__(self, rho: float, phi: float, theta: float) -> None:
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta)

    def __eq__(self, other) -> bool:
        if type(other) is not NgAngles:
            return NotImplemented
        return (self.rho, self.phi, self.theta) == (other.rho, other.phi, other.theta)

    def to_program(self) -> SoftwareState:
        return ng_angles_to_program(self)


def ng_angles_to_program(angles: NgAngles) -> SoftwareState:
    """(cos(theta)cos(rho), cos(phi)sin(rho), sin(theta)cos(rho), sin(phi)sin(rho))."""
    cr, sr = math.cos(angles.rho), math.sin(angles.rho)
    return SoftwareState(
        np.array(
            [
                math.cos(angles.theta) * cr,
                math.cos(angles.phi) * sr,
                math.sin(angles.theta) * cr,
                math.sin(angles.phi) * sr,
            ]
        )
    )


def ng_software_prep_circuit(angles: NgAngles) -> Circuit:
    """Three-rotation preparation of the program on a 2-qubit register.

    Qubit 0 is the one that joins Eve's clone register, qubit 1 the ancilla.
    Simulating this block on |00> reproduces ng_angles_to_program exactly.
    """
    return Circuit(
        2,
        (
            GateOp("RY", (1,), 2 * angles.rho),
            GateOp("CRY", (1, 0), 2 * angles.phi, control_value=1),
            GateOp("CRY", (1, 0), 2 * angles.theta, control_value=0),
        ),
    )


class ClonerLayout(Frozen):
    """Qubit indices of the registers of a cloner on N-qubit inputs."""

    __slots__ = ("num_clone_qubits",)

    def __init__(self, num_clone_qubits: int) -> None:
        object.__setattr__(self, "num_clone_qubits", num_clone_qubits)

    @property
    def num_qubits(self) -> int:
        return 3 * self.num_clone_qubits

    @property
    def alice(self) -> tuple[int, ...]:
        return tuple(range(self.num_clone_qubits))

    @property
    def eve(self) -> tuple[int, ...]:
        return tuple(range(self.num_clone_qubits, 2 * self.num_clone_qubits))

    @property
    def ancilla(self) -> tuple[int, ...]:
        return tuple(range(2 * self.num_clone_qubits, 3 * self.num_clone_qubits))

    @property
    def software(self) -> tuple[int, ...]:
        return self.eve + self.ancilla


def build_ng(num_clone_qubits: int) -> Circuit:
    """Niu-Griffiths hardware: H on Eve's register, then three bitwise CNOT layers.

    Layer order: Alice -> Eve, ancilla -> Alice, Eve -> ancilla, ascending
    qubit index inside each layer.  The circuit holds no program: the program
    is the initial state of the software register.
    """
    lay = ClonerLayout(num_clone_qubits)
    ops: list[GateOp] = [GateOp("H", (q,)) for q in lay.eve]
    ops += [GateOp("CNOT", (a, e)) for a, e in zip(lay.alice, lay.eve)]
    ops += [GateOp("CNOT", (c, a)) for c, a in zip(lay.ancilla, lay.alice)]
    ops += [GateOp("CNOT", (e, c)) for e, c in zip(lay.eve, lay.ancilla)]
    return Circuit(lay.num_qubits, tuple(ops))


def build_qid_1q() -> Circuit:
    """Single-qubit QID hardware: four CNOTs on (Alice, Eve, ancilla)."""
    pairs = ((0, 1), (0, 2), (1, 0), (2, 0))
    return Circuit(3, tuple(GateOp("CNOT", pair) for pair in pairs))


def build_qid_2q() -> Circuit:
    """Two-qubit QID hardware: SUM blocks onto both halves of the software
    register, then an X-conjugated inverse-shift block and a final SUM back
    onto Alice."""
    ops = (
        # SUM Alice -> Eve clone register (2, 3)
        GateOp("CNOT", (1, 3)),
        GateOp("CCNOT", (0, 2, 3)),
        GateOp("CNOT", (0, 2)),
        # SUM Alice -> ancilla register (4, 5)
        GateOp("CNOT", (1, 5)),
        GateOp("CCNOT", (0, 4, 5)),
        GateOp("CNOT", (0, 4)),
        # inverse shift of Alice controlled on (2, 3), conjugated by X
        GateOp("X", (0,)),
        GateOp("X", (1,)),
        GateOp("CNOT", (3, 1)),
        GateOp("CCNOT", (0, 2, 1)),
        GateOp("CNOT", (2, 0)),
        GateOp("X", (0,)),
        GateOp("X", (1,)),
        # SUM ancilla -> Alice
        GateOp("CNOT", (5, 1)),
        GateOp("CCNOT", (0, 4, 1)),
        GateOp("CNOT", (4, 0)),
    )
    return Circuit(6, ops)


def build_cloner(
    kind: ClonerKind, num_clone_qubits: int, program: SoftwareState
) -> Circuit:
    """The hardware circuit of the (kind, N) cloner that is to run ``program``,
    after checking that the program fits its software register."""
    if program.num_clone_qubits != num_clone_qubits:
        raise ValueError(
            f"program for {program.num_clone_qubits}-qubit registers, "
            f"cloner built for {num_clone_qubits}"
        )
    if kind == ClonerKind.NG:
        return build_ng(num_clone_qubits)
    if num_clone_qubits == 1:
        return build_qid_1q()
    if num_clone_qubits == 2:
        return build_qid_2q()
    raise ValueError("QID circuits are available for 1- and 2-qubit registers only")


class FidelityReport(Frozen):
    """Per-basis and per-state clone fidelities for both receivers."""

    __slots__ = ("f_ab", "f_ae", "per_state_ab", "per_state_ae")

    def __init__(self, f_ab: dict, f_ae: dict, per_state_ab: dict, per_state_ae: dict) -> None:
        object.__setattr__(self, "f_ab", f_ab)
        object.__setattr__(self, "f_ae", f_ae)
        object.__setattr__(self, "per_state_ab", per_state_ab)
        object.__setattr__(self, "per_state_ae", per_state_ae)

    @classmethod
    def from_columns(cls, labels, f_ab, f_ae) -> "FidelityReport":
        """The report of per-state fidelities (S,), split evenly over the
        basis ``labels`` in order."""
        cut = lambda f: zip(labels, np.split(np.asarray(f), len(labels)))
        per_ab, per_ae = ({lbl: tuple(v.tolist()) for lbl, v in cut(f)} for f in (f_ab, f_ae))
        f_ab = {lbl: float(sum(v) / len(v)) for lbl, v in per_ab.items()}
        f_ae = {lbl: float(sum(v) / len(v)) for lbl, v in per_ae.items()}
        return cls(f_ab, f_ae, per_ab, per_ae)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return tuple(self.f_ab)

    @property
    def f_ab_avg(self) -> float:
        return float(np.mean(list(self.f_ab.values())))

    @property
    def f_ae_avg(self) -> float:
        return float(np.mean(list(self.f_ae.values())))


# The compiled unitary of a 3N-qubit cloner holds 64^N complex entries
# (4 MiB at N = 3, 256 MiB at N = 4).
MAX_COMPILED_QUBITS = 3


@lru_cache(maxsize=None)
def cloner_unitary(kind: ClonerKind, num_clone_qubits: int) -> np.ndarray:
    """Read-only 2^(3N) x 2^(3N) unitary of the cloner hardware.

    Compiled on first use per (kind, N) by one gate-by-gate pass over the
    flattened identity, its column index riding as 3N untouched low qubits.
    Column index k * 4^N + j stands for Alice's input |k> and program |j>.
    """
    if not 1 <= num_clone_qubits <= MAX_COMPILED_QUBITS:
        raise ValueError(
            f"cloners are compiled for 1 to {MAX_COMPILED_QUBITS}-qubit registers"
        )
    circuit = build_cloner(
        kind, num_clone_qubits, SoftwareState.computational(num_clone_qubits)
    )
    eye = np.eye(2**circuit.num_qubits, dtype=complex)
    u = simcore.apply_ops(eye.ravel(), 2 * circuit.num_qubits, circuit.ops)
    u = u.reshape(eye.shape)
    # a unitary U makes every reduced state a density matrix, so no call checks them.
    # on 2 cores BLAS takes 12-16 ms at 64 x 64 (einsum 0.7), 11 ms at 512 (einsum 350)
    gram = np.einsum("ji,jk->ik", u.conj(), u) if len(u) <= 64 else u.conj().T @ u
    error = np.max(np.abs(gram - eye))
    if not error <= 1e-12:
        msg = f"compiled {kind.value} cloner for N={num_clone_qubits} is not unitary"
        raise RuntimeError(f"{msg}: max|U^dag U - I| = {error:.1e}")
    u.flags.writeable = False
    return u


def cloner_outputs(
    kind: ClonerKind,
    num_clone_qubits: int,
    programs: np.ndarray,
    states: np.ndarray,
    channel: PauliChannel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Output amplitudes for every program, Kraus branch and input state.

    ``programs`` holds programs as columns (4^N, P), ``states`` input states
    as rows (S, 2^N).  Kraus branch k acts on each input first.  Returns the
    outputs, with axes (Bob, Eve, ancilla, program, branch, state) and each
    register of size 2^N, and the branch weights.
    """
    d = 2**num_clone_qubits
    if programs.shape[0] != d * d:
        raise ValueError("program size does not match the cloner registers")
    if states.ndim != 2 or states.shape[1] != d:
        raise ValueError("input state size does not match the cloner registers")
    if channel is None:
        errors, weights = np.eye(d)[None], np.ones(1)
    elif channel.num_qubits != num_clone_qubits:
        raise ValueError("channel size does not match the cloner registers")
    else:
        branches = channel.branches()
        errors = pauli_matrices(num_clone_qubits)[
            [pauli_to_index(p) for p, _ in branches]
        ]
        weights = np.array([w for _, w in branches])
    u = cloner_unitary(kind, num_clone_qubits).reshape(-1, d, d * d)
    # V = U (I (x) psi) first, so the inputs meet a 2^(3N) x 2^N matrix.  Both
    # products are stacks of small matrices, one per row of U, each too small
    # for OpenBLAS to split over threads.
    v = u @ programs  # (row, i, program)
    inputs = np.einsum("kab,sb->aks", errors, states)
    out = np.swapaxes(v, 1, 2) @ inputs.reshape(d, -1)
    return out.reshape(d, d, d, programs.shape[1], *inputs.shape[1:]), weights


def resolve_bases(num_clone_qubits: int, bases=None) -> tuple[MubBasis, ...]:
    """A MubSet, a sequence of MubBasis, or None for the register's full set."""
    if bases is None:
        return mubs_for(num_clone_qubits).bases
    if isinstance(bases, MubSet):
        return bases.bases
    bases = tuple(bases)
    for basis in bases:
        if not isinstance(basis, MubBasis):
            raise TypeError(f"expected MubBasis, got {type(basis)!r}")
    labels = [b.label for b in bases]
    if not bases or len(set(labels)) < len(labels):
        raise ValueError(f"bases must be a non-empty list of distinct bases, got {labels}")
    return bases


def state_rows(num_clone_qubits: int, states) -> np.ndarray:
    """Amplitudes of StateVectors stacked as rows (S, 2^N)."""
    states = list(states)
    if any(st.num_qubits != num_clone_qubits for st in states):
        raise ValueError("input state size does not match the cloner registers")
    return np.array([st.amplitudes for st in states], dtype=complex).reshape(
        len(states), 2**num_clone_qubits
    )


def mix_branches(per_branch: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum over the leading branch axis, accumulated in branch order."""
    return sum(w * m for w, m in zip(weights, per_branch))


def fidelity_matrices(
    kind: ClonerKind,
    num_clone_qubits: int,
    programs: np.ndarray,
    states: np.ndarray,
    channel: PauliChannel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's fidelity matrices M, each (S, P, P), for programs as
    columns (4^N, P) and input states as rows (S, 2^N): the program
    sum_j c_j programs[:, j] has fidelity c^dag M[s] c with input s.  The
    identity gives the quadratic forms."""
    out, weights = cloner_outputs(kind, num_clone_qubits, programs, states, channel)
    # u[k, s, j, env]: overlap of the receiver's register with reference
    # state s for program column j, the other registers as environment
    ref = states.conj()
    u_ab = np.einsum("sa,aecjks->ksjec", ref, out)
    u_ae = np.einsum("se,aecjks->ksjac", ref, out)
    shape = (len(weights), len(states), programs.shape[1], -1)
    u_ab, u_ae = u_ab.reshape(shape), u_ae.reshape(shape)
    mats_ab = mix_branches((u_ab @ np.swapaxes(u_ab, 2, 3).conj()).conj(), weights)
    mats_ae = mix_branches((u_ae @ np.swapaxes(u_ae, 2, 3).conj()).conj(), weights)
    return mats_ab, mats_ae


def fidelity_columns(
    kind: ClonerKind, num_clone_qubits: int, programs, states, channel=None
) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's fidelities (S, P), the diagonals of ``fidelity_matrices``,
    as fresh arrays.  From 4^N program columns on, c^dag M c off the identity's
    forms costs less; it makes M c a few states and programs at a time, in
    products of at most 2^15 entries, never the whole (S, 4^N, P) stack."""
    d2 = 4**num_clone_qubits
    if programs.shape[1] < d2:
        mats = fidelity_matrices(kind, num_clone_qubits, programs, states, channel)
        # fresh writable arrays at every batch size, never views into the matrices
        return tuple(np.diagonal(m, axis1=1, axis2=2).real.copy() for m in mats)
    forms = fidelity_matrices(kind, num_clone_qubits, np.eye(d2), states, channel)
    values = tuple(np.empty((len(states), programs.shape[1])) for _ in forms)
    cols = min(programs.shape[1], 2**15 // d2)  # programs per product
    step = 2**15 // (d2 * cols)  # states per product: 2^15 entries at most
    for f, m in zip(values, forms):
        for j in range(0, programs.shape[1], cols):
            c, out = programs[:, j : j + cols], f[:, j : j + cols]
            for k in range(0, len(m), step):
                prod = m[k : k + step] @ c  # Re(c conj(M c)) = Re(conj(c) M c)
                out[k : k + step] = np.einsum("ip,sip->sp", c, np.conj(prod, out=prod)).real
                del prod  # one product at a time
    return values


def clone_output_reduced(
    kind: ClonerKind,
    num_clone_qubits: int,
    program: SoftwareState,
    input_state: StateVector,
    channel: PauliChannel | None = None,
) -> tuple[DensityMatrix, DensityMatrix]:
    """Bob's and Eve's reduced output states for one input state."""
    out, weights = cloner_outputs(
        kind,
        num_clone_qubits,
        program.amplitudes[:, None],
        state_rows(num_clone_qubits, [input_state]),
        channel,
    )
    # (branch, receiver, rest): the rest is traced out
    shape = (len(weights), 2**num_clone_qubits, -1)
    bob = out[:, :, :, 0, :, 0].transpose(3, 0, 1, 2).reshape(shape)
    eve = out[:, :, :, 0, :, 0].transpose(3, 1, 0, 2).reshape(shape)
    rho_b = mix_branches(bob @ np.swapaxes(bob, 1, 2).conj(), weights)
    rho_e = mix_branches(eve @ np.swapaxes(eve, 1, 2).conj(), weights)
    return DensityMatrix(num_clone_qubits, rho_b), DensityMatrix(num_clone_qubits, rho_e)


def clone_fidelities(
    kind: ClonerKind,
    num_clone_qubits: int,
    program: SoftwareState,
    channel: PauliChannel | None = None,
    bases=None,
) -> FidelityReport:
    """Per-basis clone fidelities over a set of mutually unbiased bases.

    ``bases`` may be a MubSet, a sequence of MubBasis, or None for the full
    set belonging to the register size.
    """
    bases = resolve_bases(num_clone_qubits, bases)
    states = state_rows(num_clone_qubits, [st for b in bases for st in b.states])
    column = program.amplitudes[:, None]
    f_ab, f_ae = fidelity_columns(kind, num_clone_qubits, column, states, channel)
    return FidelityReport.from_columns([b.label for b in bases], f_ab[:, 0], f_ae[:, 0])


B92_INPUTS = {"0": np.array([1.0, 0.0]), "+": np.array([1.0, 1.0]) / math.sqrt(2)}


def b92_per_state_fidelities(circuit: Circuit) -> dict:
    """Clone fidelities of a 2-qubit circuit for the inputs |0> and |+>.

    Qubit 0 carries Alice's state and becomes Bob's output; qubit 1 starts
    in |0> and becomes Eve's output.
    """
    if circuit.num_qubits != 2:
        raise ValueError("B92 cloning circuits act on exactly 2 qubits")
    out = {}
    for label, amps in B92_INPUTS.items():
        st = inject_state(basis_state(2, 0), (0,), amps)
        final = simcore.apply_circuit(st, circuit)
        ref = StateVector(1, amps)
        f_ab = fidelity_pure(reduced_density_matrix(final, (0,)), ref)
        f_ae = fidelity_pure(reduced_density_matrix(final, (1,)), ref)
        out[label] = (f_ab, f_ae)
    return out


def b92_fidelities(circuit: Circuit) -> tuple[float, float]:
    """Average (F_AB, F_AE) over the two B92 input states."""
    f_ab, f_ae = np.mean(list(b92_per_state_fidelities(circuit).values()), axis=0)
    return float(f_ab), float(f_ae)


def bob_pauli_transfer_matrix(
    kind: ClonerKind, num_clone_qubits: int, program: SoftwareState
) -> np.ndarray:
    """Pauli transfer matrix of the channel Alice -> Bob induced by the cloner.

    R[i, j] = Tr[P_i L(P_j)] / 2^N over the (z|x)-ordered Pauli strings.  A
    Pauli channel shows up as a diagonal matrix.
    """
    columns = program.amplitudes[:, None]
    return bob_pauli_transfer_matrices(kind, num_clone_qubits, columns)[0]


def bob_pauli_transfer_matrices(
    kind: ClonerKind, num_clone_qubits: int, programs: np.ndarray
) -> np.ndarray:
    """``bob_pauli_transfer_matrix`` of program columns (4^N, P), from one
    engine contraction: axes (program, i, j)."""
    dim = 2**num_clone_qubits
    out, _ = cloner_outputs(kind, num_clone_qubits, programs, np.eye(dim))
    # s[p, (k a), e]: Bob amplitude a and environment e for program p, basis input k
    s = out[..., 0, :].reshape(dim, -1, programs.shape[1], dim).transpose(2, 3, 0, 1)
    s = s.reshape(len(s), dim * dim, -1)
    # cross[p, (k l), (b a)] = <a| Tr_env |psi_k><psi_l| |b>
    cross = (s @ np.swapaxes(s, 1, 2).conj()).reshape(-1, *(dim,) * 4)
    cross = cross.transpose(0, 1, 3, 4, 2).reshape(len(s), dim * dim, -1)
    paulis = pauli_matrices(num_clone_qubits).reshape(dim**2, -1)  # [j, (k l)], [i, (a b)]
    images = paulis @ cross  # images[p, j, (b a)] = <a| L(P_j) |b>
    return np.swapaxes(images @ paulis.T, 1, 2) / dim  # Tr[P_i L(P_j)]
