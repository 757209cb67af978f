"""Mutually unbiased bases for one and two qubits, and Pauli-group structure.

The five two-qubit bases are stored in a fixed state order; preparation
circuits map the computational basis states onto them index-for-index (up to
a global phase per state).  Pauli strings are written with letter i acting on
qubit i, so "XZ" means X on qubit 0 and Z on qubit 1.

The (z|x) integer encoding of a Pauli string packs the Z mask into the high
N bits and the X mask into the low N bits (qubit 0 most significant within
each mask).  The same encoding indexes the cloner program amplitudes, which
is what ties the commuting-class structure to the fidelity formulas.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .simcore import PAULIS, Circuit, Frozen, GateOp, StateVector

PAULI_LETTERS = "".join(PAULIS)  # "IXYZ"


class PauliString(Frozen):
    """An N-qubit Pauli operator as a string over {I, X, Y, Z}; equal strings are
    equal and hash alike, so they key a channel's probabilities."""

    __slots__ = ("letters",)

    def __post_init__(self) -> None:
        if len(self.letters) < 1 or any(c not in PAULI_LETTERS for c in self.letters):
            raise ValueError(f"invalid Pauli string {self.letters!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not PauliString:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def matrix(self) -> np.ndarray:
        m = np.array([[1.0 + 0j]])
        for c in self.letters:
            m = np.kron(m, PAULIS[c])
        return m

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls("I" * num_qubits)


def pauli_to_index(p: PauliString) -> int:
    """(z|x) encoding: high bits Z mask, low bits X mask (Y sets both)."""
    z = x = 0
    n = len(p)
    for i, c in enumerate(p.letters):
        bit = 1 << (n - 1 - i)
        if c in "ZY":
            z |= bit
        if c in "XY":
            x |= bit
    return (z << n) | x


def index_to_pauli(index: int, num_qubits: int) -> PauliString:
    if not 0 <= index < 4**num_qubits:
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    z, x = index >> num_qubits, index & ((1 << num_qubits) - 1)
    letters = []
    for i in range(num_qubits):
        bit = 1 << (num_qubits - 1 - i)
        letters.append("IXZY"[(bool(x & bit)) + 2 * (bool(z & bit))])
    return PauliString("".join(letters))


@lru_cache(maxsize=None)
def pauli_matrices(num_qubits: int) -> np.ndarray:
    """Read-only stack of all 4^N Pauli matrices, indexed by (z|x) encoding."""
    mats = np.array(
        [index_to_pauli(j, num_qubits).matrix() for j in range(4**num_qubits)]
    )
    mats.flags.writeable = False
    return mats


def _symplectic_commutes(u: int, v: int, num_qubits: int) -> bool:
    mask = (1 << num_qubits) - 1
    zu, xu = u >> num_qubits, u & mask
    zv, xv = v >> num_qubits, v & mask
    return (bin(zu & xv).count("1") + bin(xu & zv).count("1")) % 2 == 0


class MubBasis(Frozen):
    """One orthonormal basis: a label and 2^N states in a fixed order."""

    # the cached invariant_mask lives in the instance __dict__
    __slots__ = ("label", "states", "__dict__")

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        dim = len(self.states)
        g = np.array([s.amplitudes for s in self.states])
        if np.max(np.abs(g @ g.conj().T - np.eye(dim))) > 1e-12:
            raise ValueError(f"basis {self.label} is not orthonormal")

    @property
    def num_qubits(self) -> int:
        return self.states[0].num_qubits

    @cached_property
    def invariant_mask(self) -> np.ndarray:
        """Read-only ``invariant_paulis`` of this basis, computed once per object."""
        mask = invariant_paulis(self)
        mask.flags.writeable = False
        return mask


class MubSet(Frozen):
    """A collection of pairwise mutually unbiased bases."""

    __slots__ = ("num_qubits", "bases")

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(self.bases))
        dev = unbiasedness_deviation(self.bases, self.num_qubits)
        if dev > 1e-12:
            raise ValueError(f"bases are not unbiased (deviation {dev:.3e})")

    def __getitem__(self, label: str) -> MubBasis:
        for b in self.bases:
            if b.label == label:
                return b
        raise ValueError(f"no basis {label!r}; choose from {', '.join(self.labels)}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(b.label for b in self.bases)


def unbiasedness_deviation(bases, num_qubits: int) -> float:
    """Largest | |<a|b>|^2 - 2^-N | over states a, b of distinct bases."""
    g = np.array([[s.amplitudes for s in b.states] for b in bases])  # (basis, state, amp)
    overlaps = np.abs(np.einsum("bia,cja->bcij", g.conj(), g)) ** 2
    distinct = ~np.eye(len(g), dtype=bool)
    return float(np.max(np.abs(overlaps[distinct] - 2.0**-num_qubits), initial=0.0))


def _sv(vec) -> StateVector:
    v = np.asarray(vec, dtype=complex)
    n = int(round(np.log2(v.size)))
    return StateVector(n, v)


@lru_cache(maxsize=None)
def single_qubit_mubs() -> MubSet:
    """The Z, X and Y eigenbases, in that order."""
    s = 1 / np.sqrt(2)
    return MubSet(
        1,
        (
            MubBasis("Z", (_sv([1, 0]), _sv([0, 1]))),
            MubBasis("X", (_sv([s, s]), _sv([s, -s]))),
            MubBasis("Y", (_sv([s, 1j * s]), _sv([s, -1j * s]))),
        ),
    )


# The five two-qubit bases, states listed column by column.
_M_VECTORS = {
    "M0": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
    "M1": [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)],
    "M2": [(1, -1, 1j, 1j), (1, 1, 1j, -1j), (1, 1, -1j, 1j), (1, -1, -1j, -1j)],
    "M3": [(1, 1j, 1j, -1), (1, -1j, 1j, 1), (1, 1j, -1j, 1), (1, -1j, -1j, -1)],
    "M4": [(1, -1j, -1, -1j), (1, 1j, 1, -1j), (1, -1j, 1, 1j), (1, 1j, -1, 1j)],
}


@lru_cache(maxsize=None)
def two_qubit_mubs() -> MubSet:
    """The five two-qubit bases M0 .. M4."""
    bases = []
    for label, cols in _M_VECTORS.items():
        scale = 1.0 if label == "M0" else 0.5
        bases.append(MubBasis(label, tuple(_sv(scale * np.array(c)) for c in cols)))
    return MubSet(2, tuple(bases))


def mubs_for(num_qubits: int) -> MubSet:
    if num_qubits == 1:
        return single_qubit_mubs()
    if num_qubits == 2:
        return two_qubit_mubs()
    raise ValueError(f"no explicit MUB construction for {num_qubits} qubits")


def mub_prep_circuit(basis_index: int) -> Circuit:
    """Two-qubit circuit mapping |k> onto state k of basis M_{basis_index}."""
    if not 0 <= basis_index <= 4:
        raise ValueError(f"basis index {basis_index} out of range 0..4")
    hh = [GateOp("H", (0,)), GateOp("H", (1,))]
    ss = [GateOp("S", (0,)), GateOp("S", (1,))]
    zz = [GateOp("Z", (0,)), GateOp("Z", (1,))]
    ops = {
        0: [],
        1: hh,
        2: hh + ss + [GateOp("CNOT", (1, 0))],
        3: hh + ss,
        4: hh + ss + zz + [GateOp("CNOT", (0, 1))],
    }[basis_index]
    return Circuit(2, tuple(ops))


class PauliAction(Frozen):
    """How a Pauli string acts on one basis: fixes every state ray, or permutes.

    ``kind`` is "invariant" or "permutation".  ``permutation[k]`` is the index
    of the state that state k maps onto, and ``phases[k]`` the unit factor
    picked up: P|b_k> = phases[k] |b_perm[k]>.  For the invariant case the
    permutation is the identity.
    """

    __slots__ = ("kind", "permutation", "phases")

    @property
    def is_invariant(self) -> bool:
        return self.kind == "invariant"


def _pauli_actions(basis: MubBasis, indices) -> tuple[np.ndarray, np.ndarray]:
    """The actions of the Pauli strings with (z|x) ``indices`` on the basis, as
    arrays (string, state): P|b_k> = phases[p, k] |b_perm[p, k]>.  Raises
    ValueError when a string does not map a state onto a basis ray."""
    n = basis.num_qubits
    g = np.array([s.amplitudes for s in basis.states])  # rows are states
    ov = np.einsum("ja,pab,kb->pjk", g.conj(), pauli_matrices(n)[indices], g)
    mag = np.abs(ov)  # mag[p, j, k] = |<b_j| P_p |b_k>|
    bad = (np.abs(mag.max(axis=1) - 1.0) > 1e-10) | (np.sum(mag > 1e-10, axis=1) != 1)
    if np.any(bad):
        p, k = np.argwhere(bad)[0]
        raise ValueError(
            f"{index_to_pauli(int(indices[p]), n)} does not map state {k} of basis "
            f"{basis.label} onto a basis ray"
        )
    perm = mag.argmax(axis=1)
    return perm, np.take_along_axis(ov, perm[:, None], axis=1)[:, 0]


def pauli_action(p: PauliString, basis: MubBasis) -> PauliAction:
    """Classify the action of a Pauli string on the states of a basis."""
    if len(p) != basis.num_qubits:
        raise ValueError(f"Pauli on {len(p)} qubits vs basis on {basis.num_qubits} qubits")
    (perm,), (phases,) = _pauli_actions(basis, [pauli_to_index(p)])
    kind = "invariant" if np.array_equal(perm, np.arange(len(perm))) else "permutation"
    return PauliAction(kind, tuple(perm.tolist()), tuple(phases.tolist()))


def invariant_paulis(basis: MubBasis) -> np.ndarray:
    """Boolean mask over (z|x) indices: which Pauli strings fix every state ray.

    ``pauli_action`` over all 4^N strings at once; raises the same ValueError
    when a string does not map a state onto a basis ray.
    """
    perm, _ = _pauli_actions(basis, np.arange(4**basis.num_qubits))
    return np.all(perm == np.arange(perm.shape[1]), axis=1)


# Error triplets in table row order; each triplet together with the identity
# forms a Klein four-group and stabilizes exactly one of the five bases.
TWO_QUBIT_ERROR_ROWS = (
    (PauliString("XX"), PauliString("IX"), PauliString("XI")),
    (PauliString("XZ"), PauliString("YX"), PauliString("ZY")),
    (PauliString("ZX"), PauliString("XY"), PauliString("YZ")),
    (PauliString("ZZ"), PauliString("IZ"), PauliString("ZI")),
    (PauliString("YY"), PauliString("IY"), PauliString("YI")),
)

SINGLE_QUBIT_ERROR_ROWS = (
    (PauliString("X"),),
    (PauliString("Y"),),
    (PauliString("Z"),),
)

# Column order of the one-qubit action table (differs from the Z, X, Y
# construction order of single_qubit_mubs).
SINGLE_QUBIT_TABLE_BASES = ("X", "Y", "Z")


def action_table(num_qubits: int) -> np.ndarray:
    """0/1 grid over (error rows x bases): 0 = basis invariant, 1 = permuted.

    Rows follow SINGLE_QUBIT_ERROR_ROWS / TWO_QUBIT_ERROR_ROWS; columns are
    X, Y, Z for one qubit and M0 .. M4 for two.  Entries read each basis's
    ``invariant_mask``; a row whose errors disagree raises RuntimeError.
    """
    if num_qubits == 1:
        rows, bases = SINGLE_QUBIT_ERROR_ROWS, [
            single_qubit_mubs()[lbl] for lbl in SINGLE_QUBIT_TABLE_BASES
        ]
    elif num_qubits == 2:
        rows, bases = TWO_QUBIT_ERROR_ROWS, list(two_qubit_mubs().bases)
    else:
        raise ValueError("action table is defined for 1 or 2 qubits")
    table = np.zeros((len(rows), len(bases)), dtype=int)
    for r, triplet in enumerate(rows):
        for c, basis in enumerate(bases):
            bits = {int(not basis.invariant_mask[pauli_to_index(p)]) for p in triplet}
            if len(bits) != 1:
                errors = ", ".join(map(str, triplet))
                raise RuntimeError(f"errors {errors} disagree on basis {basis.label}")
            table[r, c] = bits.pop()
    return table


def commuting_classes(num_qubits: int) -> list[tuple[PauliString, ...]]:
    """Partition the 4^N - 1 nonidentity Pauli strings into 2^N + 1 classes.

    Within a class all elements commute, and the class plus the identity is
    closed under multiplication (a copy of Z_2^N).  For one and two qubits the
    published row order is kept; for three qubits a deterministic backtracking
    search over the symplectic encoding finds a partition.
    """
    if num_qubits == 1:
        return [tuple(row) for row in SINGLE_QUBIT_ERROR_ROWS]
    if num_qubits == 2:
        return [tuple(row) for row in TWO_QUBIT_ERROR_ROWS]
    if num_qubits == 3:
        classes = _spread_search(3)
        return [
            tuple(index_to_pauli(v, 3) for v in cls) for cls in classes
        ]
    raise ValueError("commuting classes supported for at most 3 qubits")


def _subgroup_span(gens: list[int]) -> set[int]:
    span = {0}
    for g in gens:
        span |= {s ^ g for s in span}
    span.discard(0)
    return span


def _spread_search(num_qubits: int) -> list[tuple[int, ...]]:
    """Exhaustive backtracking for a partition into maximal isotropic classes.

    Classes through the smallest unused element are tried in lexicographic
    generator order, which makes the result deterministic.
    """
    n = num_qubits

    def classes_through(seed: int, available: set[int]):
        def walk(gens: list[int], members: set[int]):
            if len(gens) == n:
                yield members
                return
            for v in sorted(available):
                if v > gens[-1] and v not in members and all(
                    _symplectic_commutes(v, g, n) for g in gens
                ):
                    grown = _subgroup_span(gens + [v])
                    if grown <= available:
                        yield from walk(gens + [v], grown)

        yield from walk([seed], {seed})

    def partition(available: set[int]):
        if not available:
            return []
        for cls in classes_through(min(available), available):
            rest = partition(available - cls)
            if rest is not None:
                return [tuple(sorted(cls))] + rest
        return None

    classes = partition(set(range(1, 4**n)))
    if classes is None:
        raise RuntimeError("no commuting-class partition found")
    return classes
