"""Dense statevector simulation for small qubit registers, and the reduced
density matrices of its pure states.

Bit-order convention used throughout the package: qubit 0 is the most
significant bit of the state index, so for an n-qubit register the
computational basis state |q0 q1 ... q_{n-1}> sits at index
q0 * 2^(n-1) + q1 * 2^(n-2) + ... + q_{n-1}.  Equivalently, reshaping an
amplitude vector to shape (2,)*n puts qubit q on axis q.  Operators written
as tensor products A (x) B place A on qubit 0.

Every gate runs through one kernel, ``apply_gates``, and is defined once, by
``gate_matrices`` and ``gate_inverses``.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import permutations

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
for _fixed in [*PAULIS.values(), *(m for _, m in GATES.values() if m is not None)]:
    _fixed.flags.writeable = False


# -i P for P = X, Y, Z: exp(-i a P / 2) = cos(a/2) I + sin(a/2) (-i P)
_I2 = np.eye(2)
_MINUS_I_PAULIS = -1j * np.array([PAULIS[p] for p in "XYZ"])


@lru_cache(maxsize=None)
def _gate_tables(arity: int) -> tuple[np.ndarray, ...]:
    """By GATE_NAMES index: fixed matrix (else identity), is a rotation, its axis."""
    fixed = [m if a == arity and m is not None else np.eye(2**arity) for a, m in GATES.values()]
    rotating = [g in ROTATION_GATES for g in GATE_NAMES]
    axes = ["XYZ".find(g[-1]) for g in GATE_NAMES]  # read for rotations only
    return np.array(fixed, dtype=complex), np.array(rotating), np.array(axes)


def gate_matrices(gates, angles, control_values) -> np.ndarray:
    """Matrices (C, 2^k, 2^k) of C gates of arity k from arrays of GATE_NAMES indices,
    angles and control values; CRY holds RY where its control has its value."""
    gates = np.asarray(gates)
    arity = GATE_ARITY[GATE_NAMES[gates[0]]]
    out, rotating, axes = (table[gates] for table in _gate_tables(arity))
    turns = np.arange(len(gates))[rotating]
    if turns.size:
        half = 0.5 * np.asarray(angles, dtype=float)[turns, None, None]
        rotations = np.cos(half) * _I2 + np.sin(half) * _MINUS_I_PAULIS[axes[turns]]
        held = (arity - 1) * np.asarray(control_values)[turns]
        out.reshape(-1, 2 ** (arity - 1), 2, 2 ** (arity - 1), 2)[turns, held, :, held] = rotations
    return out


def gate_inverses(gates, angles) -> tuple[np.ndarray, np.ndarray]:
    """Inverses as (repeats, angles) of the same gates: S^-1 = S^3, any other fixed
    gate undoes itself, a rotation negates its angle."""
    return np.where(np.asarray(gates) == GATE_NAMES.index("S"), 3, 1), np.negative(angles)


def rotation_block(angles) -> np.ndarray:
    """RZ(c) RY(b) RX(a) for (..., 3) angles (a, b, c), shape (..., 2, 2).

    In closed form the block is [[alpha, -beta*], [beta, alpha*]] with
    alpha = exp(-i c/2) (cos(b/2) cos(a/2) + i sin(b/2) sin(a/2)) and
    beta = exp(i c/2) (sin(b/2) cos(a/2) - i cos(b/2) sin(a/2)).  It is
    put together from real products and sums alone, so a batch gives each
    block bit for bit as alone (vectorized complex products may round
    differently from scalar ones).
    """
    half = 0.5 * np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    (ca, cb, cc), (sa, sb, sc) = np.cos(half), np.sin(half)
    p, q, r, s = cb * ca, sb * sa, sb * ca, cb * sa
    a_re, a_im = cc * p + sc * q, cc * q - sc * p
    b_re, b_im = cc * r + sc * s, sc * r - cc * s
    parts = np.stack([a_re, a_im, -b_re, b_im, b_re, b_im, a_re, -a_im], axis=-1)
    return parts.view(complex).reshape(parts.shape[:-1] + (2, 2))


class Frozen:
    """Base of the package's immutable value types and their one constructor.

    The constructor binds positional and keyword arguments to the fields named
    in the class's ``__slots__``, in order; a field left out takes its value
    from the class's ``_defaults``.  It then calls ``__post_init__``, which may
    check the fields or store a normalized copy through ``object.__setattr__``.
    Any later assignment or deletion raises AttributeError.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = [f for f in cls.__slots__ if f != "__dict__"]
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            values[name] = value
        for name in fields:
            if name not in values and name not in cls._defaults:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            object.__setattr__(self, name, values.get(name, cls._defaults.get(name)))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GateOp(Frozen):
    """A single gate: name, acted-on qubits (controls first), optional angle.

    For CNOT the qubits are (control, target), for CCNOT (control, control,
    target).  CRY is a singly controlled RY whose control fires on
    ``control_value`` (0 or 1).
    """

    __slots__ = ("name", "qubits", "angle", "control_value")
    _defaults = {"angle": None, "control_value": 1}

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
        """This gate's read-only matrix, from gate_matrices."""
        m = gate_matrices([GATE_NAMES.index(self.name)], [self.angle or 0.0], [self.control_value])
        m.flags.writeable = False
        return m[0]


class Circuit(Frozen):
    """An ordered list of gates on a fixed-size register."""

    __slots__ = ("num_qubits", "ops")

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if any(q < 0 or q >= self.num_qubits for q in op.qubits):
                raise ValueError(
                    f"{op.name} on qubits {op.qubits} outside register of {self.num_qubits} qubits"
                )


class StateVector(Frozen):
    """Pure state of ``num_qubits`` qubits; amplitude vector of length 2^n."""

    __slots__ = ("num_qubits", "amplitudes")

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)  # a copy
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


class DensityMatrix(Frozen):
    """Mixed state: Hermitian, unit-trace, positive-semidefinite matrix."""

    __slots__ = ("num_qubits", "matrix")

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)  # a copy: the caller's stays writable
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


def _gather_index(top: int, qubits) -> np.ndarray:
    """The values of the top qubits, transposed for each member to its gate qubits
    (C, k) in order, then the other top qubits ascending: (C, 2^k, 2^(top - k))."""
    count, arity = np.shape(qubits)
    values = np.arange(2**top).reshape((2,) * top)
    orders = ([*q, *(a for a in range(top) if a not in q)] for q in np.asarray(qubits).tolist())
    return np.array([values.transpose(order) for order in orders]).reshape(count, 2**arity, -1)


@lru_cache(maxsize=None)
def _gather_table(top: int, arity: int) -> np.ndarray:
    """_gather_index of every k-tuple of distinct qubits below ``top``, by tuple."""
    table = np.zeros((top,) * arity + (2**arity, 2 ** (top - arity)), dtype=int)
    tuples = list(permutations(range(top), arity))
    table[tuple(np.transpose(tuples))] = _gather_index(top, tuples)
    return table


def apply_gates(states: np.ndarray, matrices: np.ndarray, qubits) -> np.ndarray:
    """The gate kernel: a new stack of states (C, 2^n), each member given its own
    gate, matrices (C, 2^k, 2^k) on qubits (C, k), by gather, G @ t and scatter.
    Qubits below the highest gate qubit ride along as rows of the gather."""
    qubits = np.asarray(qubits)
    count, dim = states.shape
    top, arity = int(qubits.max()) + 1, qubits.shape[1]
    # up to 4 top qubits: one cached table of 16-entry indices per arity
    index = _gather_table(top, arity)[tuple(qubits.T)] if top <= 4 else _gather_index(top, qubits)
    index = index + (np.arange(count) << top)[:, None, None]  # rows of the whole stack
    rows = states.reshape(count << top, -1)
    t = matrices @ rows[index].reshape(count, 2**arity, -1)
    out = np.empty(rows.shape, dtype=t.dtype)
    out[index] = t.reshape(index.shape + rows.shape[-1:])
    return out.reshape(count, dim)


def apply_ops(amplitudes: np.ndarray, num_qubits: int, ops) -> np.ndarray:
    """Apply ops in order to a bare amplitude vector, unvalidated: one apply_gates
    call each, with a stack of one."""
    psi = amplitudes.reshape(1, 2**num_qubits)
    for op in ops:
        psi = apply_gates(psi, op.matrix()[None], [op.qubits])
    return psi.reshape(-1)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Evolve a pure state through a circuit (unitary, norm preserving)."""
    if state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, circuit {circuit.num_qubits}"
        )
    out = apply_ops(state.amplitudes, state.num_qubits, circuit.ops)
    return StateVector(state.num_qubits, out)


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


def _uniforms(rng: random.Random, shape) -> np.ndarray:
    """Doubles in [0, 1) of ``shape``, the same on every platform: the top 53 bits of
    little-endian 64-bit words of ``rng.randbytes``, times 2^-53.  Words are read
    8192 at a time, so the draw's scratch memory does not grow with its size."""
    out = np.empty(shape)
    for chunk in np.split(out.reshape(-1), range(8192, out.size, 8192)):
        words = np.frombuffer(rng.randbytes(8 * chunk.size), "<u8")
        np.multiply(words >> 11, 2.0**-53, out=chunk)
    return out
