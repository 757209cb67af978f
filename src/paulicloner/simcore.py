"""Dense statevector and density-matrix simulation for small qubit registers.

Bit-order convention used throughout the package: qubit 0 is the most
significant bit of the state index, so for an n-qubit register the
computational basis state |q0 q1 ... q_{n-1}> sits at index
q0 * 2^(n-1) + q1 * 2^(n-2) + ... + q_{n-1}.  Equivalently, reshaping an
amplitude vector to shape (2,)*n puts qubit q on axis q.  Operators written
as tensor products A (x) B place A on qubit 0.

Everything here is a pure function of its inputs; the wrapped numpy arrays
are marked read-only so values can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Single validation knob. The individual construction checks below use fixed
# multiples of it (norm checks at 1x, Hermiticity/trace at 100x, positivity
# and injection at 1000x).
VALIDATION_EPS = 1e-12

# the single-qubit Paulis, by letter
PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Every gate: its arity (controls included) and its fixed matrix, or None for a
# rotation by the op's angle.  Keep the order: it is GATE_NAMES, into which
# validate draws random gates by index.
GATES = {
    "H": (1, np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)),
    "X": (1, PAULIS["X"]),
    "Z": (1, PAULIS["Z"]),
    "S": (1, np.array([[1, 0], [0, 1j]], dtype=complex)),
    "RX": (1, None),
    "RY": (1, None),
    "RZ": (1, None),
    "CNOT": (2, np.eye(4, dtype=complex)[[0, 1, 3, 2]]),
    "CCNOT": (3, np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]),
    "CRY": (2, None),
}
GATE_ARITY = {name: arity for name, (arity, _) in GATES.items()}
GATE_NAMES = tuple(GATES)
ROTATION_GATES = tuple(name for name, (_, fixed) in GATES.items() if fixed is None)
# GateOp.matrix() hands every op the same array, so none may be written
for _fixed in [*PAULIS.values(), *(m for _, m in GATES.values() if m is not None)]:
    _fixed.flags.writeable = False


# -i P for P = X, Y, Z: exp(-i a P / 2) = cos(a/2) I + sin(a/2) (-i P)
_I2 = np.eye(2)
_MINUS_I_PAULIS = -1j * np.array([PAULIS[p] for p in "XYZ"])


def axis_rotations(angles) -> np.ndarray:
    """Rotations exp(-i a_k P_k / 2) about P = X, Y, Z for an (..., 3) array.

    Entry ``[..., k, :, :]`` rotates by ``angles[..., k]`` about axis k, so
    one call builds every factor of a batch of RZ(c) RY(b) RX(a) blocks.  A
    scalar angle broadcasts to all three axes.
    """
    half = 0.5 * np.asarray(angles, dtype=float)[..., None, None]
    return np.cos(half) * _I2 + np.sin(half) * _MINUS_I_PAULIS


# row g of the stacked products has factor g (RX, RY, RZ) replaced by its
# derivative
_DERIVATIVE_SLOTS = np.eye(3, dtype=bool)[..., None, None]


def _matmul_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast product of stacked 2x2 matrices, as two elementwise passes
    (einsum and matmul are slower on 2x2 stacks)."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _zyx_product(f: np.ndarray) -> np.ndarray:
    """f[..., 2, :, :] f[..., 1, :, :] f[..., 0, :, :] for stacked factors."""
    return _matmul_2x2(_matmul_2x2(f[..., 2, :, :], f[..., 1, :, :]), f[..., 0, :, :])


def rotation_block(angles) -> np.ndarray:
    """RZ(c) RY(b) RX(a) for (..., 3) angles, shape (..., 2, 2)."""
    return _zyx_product(axis_rotations(angles))


def rotation_blocks(angles) -> tuple[np.ndarray, np.ndarray]:
    """RZ(c) RY(b) RX(a) and its three angle derivatives for (..., 3) angles.

    Returns ``u`` of shape (..., 2, 2) and ``du`` of shape (..., 3, 2, 2),
    where ``du[..., g]`` is the derivative in angle g (a, b, c).
    """
    f = axis_rotations(angles)
    d = 0.5 * _matmul_2x2(_MINUS_I_PAULIS, f)  # d/da exp(-i a P/2) = -i P/2 exp(..)
    t = np.where(_DERIVATIVE_SLOTS, d[..., None, :, :, :], f[..., None, :, :, :])
    return _zyx_product(f), _zyx_product(t)


@dataclass(frozen=True)
class GateOp:
    """A single gate: name, acted-on qubits (controls first), optional angle.

    For CNOT the qubits are (control, target), for CCNOT (control, control,
    target).  CRY is a singly controlled RY whose control fires on
    ``control_value`` (0 or 1).
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    control_value: int = 1

    def __post_init__(self) -> None:
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        expected = GATE_ARITY[self.name]
        if len(self.qubits) != expected:
            raise ValueError(f"{self.name} takes {expected} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit indices in {self.qubits}")
        if self.name in ROTATION_GATES and self.angle is None:
            raise ValueError(f"{self.name} requires an angle")
        if self.control_value not in (0, 1):
            raise ValueError("control_value must be 0 or 1")

    def matrix(self) -> np.ndarray:
        fixed = GATES[self.name][1]
        if fixed is not None:
            return fixed
        # exp(-i a P / 2) about this gate's own axis alone, as axis_rotations builds it
        half = 0.5 * self.angle
        axis = _MINUS_I_PAULIS["XYZ".index(self.name[-1])]
        rotation = math.cos(half) * _I2 + math.sin(half) * axis
        if self.name != "CRY":
            return rotation
        # CRY: block-diagonal in the control qubit
        m = np.eye(4, dtype=complex)
        block = slice(2, 4) if self.control_value == 1 else slice(0, 2)
        m[block, block] = rotation
        return m

    def inverse(self) -> tuple["GateOp", ...]:
        """Inverse as a sequence of ops from the same gate set: S^-1 = S^3, any
        other fixed gate undoes itself, a rotation negates its angle."""
        if GATES[self.name][1] is None:
            return (GateOp(self.name, self.qubits, -self.angle, self.control_value),)
        return (self,) * (3 if self.name == "S" else 1)


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gates on a fixed-size register."""

    num_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if any(q < 0 or q >= self.num_qubits for q in op.qubits):
                raise ValueError(f"{op} outside register of {self.num_qubits} qubits")

    def inverse(self) -> "Circuit":
        inv: list[GateOp] = []
        for op in reversed(self.ops):
            inv.extend(op.inverse())
        return Circuit(self.num_qubits, tuple(inv))


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``num_qubits`` qubits; amplitude vector of length 2^n."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got {amps.shape}"
            )
        norm_sq = float(np.real(amps.conj() @ amps))
        if not abs(norm_sq - 1.0) <= VALIDATION_EPS:
            raise ValueError(
                f"state not normalized: |norm^2 - 1| = {abs(norm_sq - 1):.3e}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(
            self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj())
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit-trace, positive-semidefinite matrix."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.num_qubits
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {m.shape}")
        # each check is written so that a NaN entry fails it
        if not np.max(np.abs(m - m.conj().T)) <= 100 * VALIDATION_EPS:
            raise ValueError("matrix is not Hermitian")
        trace = np.trace(m).real
        if not abs(trace - 1.0) <= 100 * VALIDATION_EPS:
            raise ValueError(f"trace is {trace}, expected 1")
        if not np.min(np.linalg.eigvalsh(m)) >= -1000 * VALIDATION_EPS:
            raise ValueError("matrix has a negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> of an n-qubit register."""
    dim = 2**num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


@lru_cache(maxsize=None)
def _gate_axes(qubits: tuple[int, ...], num_qubits: int) -> tuple[tuple, tuple]:
    """Axis order that brings a gate's qubits to the front, and its inverse."""
    perm = qubits + tuple(q for q in range(num_qubits) if q not in qubits)
    return perm, tuple(perm.index(q) for q in range(num_qubits))


def apply_ops(amplitudes: np.ndarray, num_qubits: int, ops) -> np.ndarray:
    """Apply gates to a bare amplitude vector (no validation; hot path)."""
    psi = amplitudes
    for op in ops:
        perm, inverse = _gate_axes(tuple(op.qubits), num_qubits)
        t = psi.reshape((2,) * num_qubits).transpose(perm)
        t = (op.matrix() @ t.reshape(2 ** len(op.qubits), -1)).reshape(t.shape)
        psi = t.transpose(inverse).reshape(-1)
    return psi


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Evolve a pure state through a circuit (unitary, norm preserving)."""
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    out = apply_ops(state.amplitudes, state.num_qubits, circuit.ops)
    return StateVector(state.num_qubits, out)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all qubits not in ``keep``; kept qubits stay in ascending order."""
    keep = sorted(set(keep))
    n = rho.num_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    if not traced:
        return rho
    t = rho.matrix.reshape((2,) * (2 * n))
    # row axes are 0..n-1, column axes n..2n-1
    perm = keep + traced + [n + q for q in keep] + [n + q for q in traced]
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    t = np.transpose(t, perm).reshape(dk, dt, dk, dt)
    return DensityMatrix(len(keep), np.einsum("abcb->ac", t))


def reduced_density_matrix(state: StateVector, keep) -> DensityMatrix:
    """Partial trace of a pure state, computed without forming the full matrix."""
    keep = sorted(set(keep))
    n = state.num_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    traced = [q for q in range(n) if q not in keep]
    perm = keep + traced
    m = np.transpose(state.amplitudes.reshape((2,) * n), perm).reshape(
        2 ** len(keep), -1
    )
    return DensityMatrix(len(keep), m @ m.conj().T)


def fidelity_pure(rho: DensityMatrix, psi: StateVector) -> float:
    """<psi| rho |psi> for a mixed state against a pure reference."""
    if rho.num_qubits != psi.num_qubits:
        raise ValueError("dimension mismatch between rho and psi")
    val = psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes
    return float(val.real)


def inject_state(state: StateVector, register, amplitudes) -> StateVector:
    """Replace the |0...0> contents of ``register`` with the given amplitudes.

    The register qubits must currently be in |0...0> and unentangled with the
    rest; the remaining qubits are untouched.  ``register`` lists qubits in
    order of decreasing significance for the injected amplitude index.
    """
    register = list(register)
    n = state.num_qubits
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.shape != (2 ** len(register),):
        raise ValueError(f"expected {2 ** len(register)} amplitudes for register")
    if abs(np.linalg.norm(amps) - 1.0) > 1000 * VALIDATION_EPS:
        raise ValueError("injected amplitudes are not normalized")
    t = state.amplitudes.reshape((2,) * n)
    rest = [q for q in range(n) if q not in register]
    base = np.transpose(t, register + rest).reshape(2 ** len(register), -1)
    if np.linalg.norm(base[1:]) > 1000 * VALIDATION_EPS:
        raise ValueError("register is not in |0...0>")
    out = np.multiply.outer(amps, base[0]).reshape(
        (2,) * len(register) + (2,) * len(rest)
    )
    out = np.transpose(out, np.argsort(register + rest)).reshape(-1)
    return StateVector(n, out)
