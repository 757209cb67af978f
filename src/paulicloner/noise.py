"""Pauli channels: probability maps over N-qubit Pauli strings.

The stored probability map always includes the identity string carrying the
residual mass, so the probabilities sum to one.  Mixed-state evolution is a
plain Kraus mixture; the closed-form single-qubit transforms below map
noiseless per-basis fidelities to their noisy counterparts without any
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mub import PauliString
from .simcore import DensityMatrix

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class PauliChannel:
    """probs maps each PauliString (including identity) to its probability."""

    num_qubits: int
    probs: dict

    def __post_init__(self) -> None:
        cleaned: dict[PauliString, float] = {}
        for p, w in self.probs.items():
            if not isinstance(p, PauliString):
                p = PauliString(p)
            if len(p) != self.num_qubits:
                raise ValueError(f"{p} does not act on {self.num_qubits} qubits")
            w = float(w)
            if not -_PROB_TOL <= w <= 1 + _PROB_TOL:
                raise ValueError(f"probability {w} for {p} outside [0, 1]")
            cleaned[p] = cleaned.get(p, 0.0) + w
        ident = PauliString.identity(self.num_qubits)
        total_err = sum(w for p, w in cleaned.items() if not p.is_identity)
        if ident not in cleaned:
            if not total_err <= 1 + _PROB_TOL:
                raise ValueError(f"error probabilities sum to {total_err} > 1")
            cleaned[ident] = 1.0 - total_err
        if not abs(sum(cleaned.values()) - 1.0) <= _PROB_TOL:
            raise ValueError("channel probabilities do not sum to 1")
        object.__setattr__(self, "probs", cleaned)

    @property
    def is_identity(self) -> bool:
        ident = PauliString.identity(self.num_qubits)
        return abs(self.probs.get(ident, 0.0) - 1.0) <= _PROB_TOL

    def branches(self) -> list[tuple[PauliString, float]]:
        """Kraus branches with nonzero weight, identity first."""
        ident = PauliString.identity(self.num_qubits)
        out = [(ident, self.probs[ident])] if self.probs.get(ident, 0.0) > 0 else []
        out += [
            (p, w)
            for p, w in self.probs.items()
            if not p.is_identity and w > 0.0
        ]
        return out

    @classmethod
    def identity_channel(cls, num_qubits: int) -> "PauliChannel":
        return cls(num_qubits, {PauliString.identity(num_qubits): 1.0})

    @classmethod
    def from_xyz(cls, p_x: float, p_y: float, p_z: float) -> "PauliChannel":
        return cls(1, {PauliString("X"): p_x, PauliString("Y"): p_y, PauliString("Z"): p_z})


def channel_with_single_error(
    num_qubits: int, pauli: PauliString, p: float
) -> PauliChannel:
    """Channel applying one specific error with probability p."""
    if not isinstance(pauli, PauliString):
        pauli = PauliString(pauli)
    if pauli.is_identity:
        raise ValueError("the error string must not be the identity")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return PauliChannel(num_qubits, {pauli: p})


def parse_channel_spec(spec: str, num_qubits: int) -> PauliChannel:
    """Parse 'YI=0.45,XX=0.05' style channel strings.

    Whitespace is ignored; the identity string receives the residual mass.
    """
    probs: dict[PauliString, float] = {}
    spec = spec.strip()
    if spec:
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            try:
                name, value = entry.split("=")
            except ValueError:
                raise ValueError(f"malformed channel entry {entry!r}") from None
            p = PauliString(name.strip().upper())
            probs[p] = probs.get(p, 0.0) + float(value)
    return PauliChannel(num_qubits, probs)


def apply_channel(rho: DensityMatrix, channel: PauliChannel) -> DensityMatrix:
    """Kraus mixture sum_i p_i P_i rho P_i."""
    if rho.num_qubits != channel.num_qubits:
        raise ValueError(
            f"state on {rho.num_qubits} qubits, channel on {channel.num_qubits}"
        )
    out = np.zeros_like(rho.matrix)
    for p, w in channel.branches():
        u = p.matrix()
        out += w * (u @ rho.matrix @ u.conj().T)
    return DensityMatrix(rho.num_qubits, out)


def noisy_fidelity_1q(
    fidelity: float | np.ndarray, basis: str, p_x: float, p_y: float, p_z: float
) -> float | np.ndarray:
    """Noisy per-basis fidelity from the noiseless one, single qubit.

    Each basis is immune to its own error type; the other two error rates
    shrink the fidelity affinely towards 1/2.  ``fidelity`` may be a float
    or an array of them; the result has the same shape.
    """
    if not np.all((fidelity >= 0.0) & (fidelity <= 1.0)):
        raise ValueError(f"fidelity {fidelity} outside [0, 1]")
    for p in (p_x, p_y, p_z):
        if not 0 <= p <= 1:
            raise ValueError(f"probability {p} outside [0, 1]")
    if not p_x + p_y + p_z <= 1 + _PROB_TOL:
        raise ValueError("error probabilities sum to more than 1")
    harmful = {
        "X": p_y + p_z,
        "Y": p_x + p_z,
        "Z": p_x + p_y,
    }
    try:
        q = harmful[basis.upper()]
    except KeyError:
        raise ValueError(f"unknown basis {basis!r}") from None
    return fidelity * (1 - 2 * q) + q
