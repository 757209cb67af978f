"""Pauli channels: probability maps over N-qubit Pauli strings.

The stored probability map always includes the identity string carrying the
residual mass, so the probabilities sum to one.  The cloner's fidelity engine
averages over the channel's Kraus branches; the closed-form single-qubit
transforms below map noiseless per-basis fidelities to their noisy
counterparts without any simulation.
"""

from __future__ import annotations

import numpy as np

from .mub import PauliString
from .simcore import Frozen

_PROB_TOL = 1e-12


class PauliChannel(Frozen):
    """probs maps each PauliString (including identity) to its probability."""

    __slots__ = ("num_qubits", "probs")

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
    def from_xyz(cls, p_x: float, p_y: float, p_z: float) -> "PauliChannel":
        return cls(1, {PauliString("X"): p_x, PauliString("Y"): p_y, PauliString("Z"): p_z})


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


def noisy_fidelity_1q(fidelity, basis: str, p_x, p_y, p_z) -> float | np.ndarray:
    """Noisy per-basis fidelity from the noiseless one, single qubit.

    Each basis is immune to its own error type; the other two error rates
    shrink the fidelity affinely towards 1/2.  ``fidelity`` and the three
    probabilities may be floats or arrays of them, which broadcast together
    into the shape of the result.
    """
    if not np.all((fidelity >= 0.0) & (fidelity <= 1.0)):
        raise ValueError(f"fidelity {fidelity} outside [0, 1]")
    for p in (p_x, p_y, p_z):
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError(f"probability {p} outside [0, 1]")
    if not np.all(p_x + p_y + p_z <= 1 + _PROB_TOL):
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
