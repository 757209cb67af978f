"""Closed-form clone fidelities and named program states.

Every fidelity of the NG and QID circuits is a quadratic form in the program
amplitudes.  For the NG family one stabilizer rule gives them all, at any
register size and for complex programs (``ng_closed_form``): Bob's fidelity
in a basis is the program weight on the indices j whose (z|x)-encoded Pauli
string fixes that basis, and Eve's collects the real parts of the cross
terms conj(a_i xor s) a_i over the same stabilizers s.  The QID coefficient
tables do not have such a uniform rule and are stored explicitly; the
single-qubit QID evaluator accepts complex programs, the two-qubit one real
programs only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cloner import FidelityReport, NgAngles, SoftwareState
from .mub import MubBasis, mubs_for


@dataclass(frozen=True)
class ImbalanceEta:
    """Noise-imbalance ratio between the Z- and X-affected error weights."""

    eta: float

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("eta must be positive")

    @classmethod
    def from_channel(cls, p_x: float, p_y: float, p_z: float) -> "ImbalanceEta":
        return cls((1 - 2 * p_z - 2 * p_y) / (1 - 2 * p_x - 2 * p_y))


def _uniform_report(f_ab: dict, f_ae: dict, states_per_basis: int) -> FidelityReport:
    per_ab = {k: (v,) * states_per_basis for k, v in f_ab.items()}
    per_ae = {k: (v,) * states_per_basis for k, v in f_ae.items()}
    return FidelityReport.from_per_state(per_ab, per_ae)


def qid1q_fidelities(s: SoftwareState) -> FidelityReport:
    """Single-qubit QID fidelities; X and Y differ only in one relative sign."""
    if s.num_clone_qubits != 1:
        raise ValueError("expected a single-qubit program")
    a, b, c, d = s.amplitudes
    re = lambda u, v: float(np.real(u * np.conj(v)))
    f_ab = {
        "Z": abs(a) ** 2 + abs(d) ** 2,
        "X": re(a, d) + re(b, c) + 0.5,
        "Y": re(a, d) - re(b, c) + 0.5,
    }
    f_ae = {
        "Z": abs(a) ** 2 + abs(b) ** 2,
        "X": re(a, b) + re(c, d) + 0.5,
        "Y": re(a, b) - re(c, d) + 0.5,
    }
    return _uniform_report(f_ab, f_ae, 2)


@lru_cache(maxsize=None)
def ng_stabilizer_indices(num_clone_qubits: int) -> dict:
    """Program indices (>= 1) whose Pauli string leaves each basis invariant."""
    return {
        b.label: tuple(np.flatnonzero(b.invariant_mask)[1:].tolist())
        for b in mubs_for(num_clone_qubits).bases
    }


@lru_cache(maxsize=None)
def ng_eve_pairs(num_clone_qubits: int) -> dict:
    """Unordered index pairs (i, j) with i xor j in the basis stabilizer set."""
    pairs = list(itertools.combinations(range(4**num_clone_qubits), 2))
    return {
        label: tuple((i, j) for i, j in pairs if (i ^ j) in idx)
        for label, idx in ng_stabilizer_indices(num_clone_qubits).items()
    }


def _require_real(s: SoftwareState) -> np.ndarray:
    if not s.is_real:
        raise ValueError("two-qubit QID closed forms support real programs only")
    return s.amplitudes.real


# QID two-qubit coefficient tables: (i, j, sign) triples, fidelity =
# 1/4 + 1/2 * sum sign * a_i * a_j.  M1 is split over the state pairs
# (0, 2) and (1, 3); M3 and M4 share one table.
_QID2Q_AB_M1_02 = (
    (0, 10, 1), (0, 15, 1), (0, 5, 1), (1, 11, 1), (1, 14, 1), (1, 4, 1),
    (10, 15, 1), (10, 5, 1), (11, 14, 1), (11, 4, 1), (12, 2, 1), (12, 7, 1),
    (12, 9, 1), (13, 3, 1), (13, 6, 1), (13, 8, 1), (14, 4, 1), (15, 5, 1),
    (2, 7, 1), (2, 9, 1), (3, 6, 1), (3, 8, 1), (6, 8, 1), (7, 9, 1),
)
_QID2Q_AE_M1_02 = (
    (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (10, 11, 1),
    (10, 8, 1), (10, 9, 1), (11, 8, 1), (11, 9, 1), (12, 13, 1), (12, 14, 1),
    (12, 15, 1), (13, 14, 1), (13, 15, 1), (14, 15, 1), (2, 3, 1), (4, 5, 1),
    (4, 6, 1), (4, 7, 1), (5, 6, 1), (5, 7, 1), (6, 7, 1), (8, 9, 1),
)
_QID2Q_AB_M1_13 = (
    (0, 10, 1), (0, 15, 1), (0, 5, 1), (1, 11, 1), (1, 14, 1), (1, 4, 1),
    (10, 15, 1), (10, 5, 1), (11, 14, 1), (11, 4, 1), (12, 2, -1), (12, 7, -1),
    (12, 9, 1), (13, 3, -1), (13, 6, -1), (13, 8, 1), (14, 4, 1), (15, 5, 1),
    (2, 7, 1), (2, 9, -1), (3, 6, 1), (3, 8, -1), (6, 8, -1), (7, 9, -1),
)
_QID2Q_AE_M1_13 = (
    (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (10, 11, 1),
    (10, 8, -1), (10, 9, -1), (11, 8, -1), (11, 9, -1), (12, 13, 1),
    (12, 14, -1), (12, 15, -1), (13, 14, -1), (13, 15, -1), (14, 15, 1),
    (2, 3, 1), (4, 5, 1), (4, 6, 1), (4, 7, 1), (5, 6, 1), (5, 7, 1),
    (6, 7, 1), (8, 9, 1),
)
_QID2Q_AB_M2 = (
    (0, 10, 1), (0, 15, 1), (0, 5, 1), (1, 11, -1), (1, 14, -1), (1, 4, 1),
    (10, 15, 1), (10, 5, 1), (11, 14, 1), (11, 4, -1), (12, 9, -1),
    (13, 8, -1), (14, 4, -1), (15, 5, 1), (2, 7, -1), (3, 6, -1),
)
_QID2Q_AE_M2 = (
    (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (10, 11, -1),
    (12, 13, -1), (14, 15, -1), (2, 3, 1), (4, 5, 1), (4, 6, -1), (4, 7, -1),
    (5, 6, -1), (5, 7, -1), (6, 7, 1), (8, 9, -1),
)
_QID2Q_AB_M34 = (
    (0, 10, 1), (0, 15, 1), (0, 5, 1), (1, 4, -1),
    (10, 15, 1), (10, 5, 1), (11, 14, -1), (15, 5, 1),
)
_QID2Q_AE_M34 = (
    (0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1),
    (1, 3, 1), (2, 3, 1), (4, 5, -1), (6, 7, -1),
)


def _pair_sum(a: list[float], table) -> float:
    return 0.25 + 0.5 * sum(s * a[i] * a[j] for i, j, s in table)


def qid2q_fidelities(s: SoftwareState) -> FidelityReport:
    """Two-qubit QID fidelities for a real program.

    The M1 fidelities are not uniform: states 0 and 2 share one value,
    states 1 and 3 another.  M3 and M4 always coincide, which is why this
    circuit cannot trade fidelity between those two bases.
    """
    if s.num_clone_qubits != 2:
        raise ValueError("expected a two-qubit program")
    a = _require_real(s).tolist()  # Python floats: same values, less per-term overhead
    ab_m0 = a[0] ** 2 + a[5] ** 2 + a[10] ** 2 + a[15] ** 2
    ae_m0 = a[0] ** 2 + a[1] ** 2 + a[2] ** 2 + a[3] ** 2
    ab_02, ab_13 = _pair_sum(a, _QID2Q_AB_M1_02), _pair_sum(a, _QID2Q_AB_M1_13)
    ae_02, ae_13 = _pair_sum(a, _QID2Q_AE_M1_02), _pair_sum(a, _QID2Q_AE_M1_13)
    ab_m2, ae_m2 = _pair_sum(a, _QID2Q_AB_M2), _pair_sum(a, _QID2Q_AE_M2)
    ab_m34, ae_m34 = _pair_sum(a, _QID2Q_AB_M34), _pair_sum(a, _QID2Q_AE_M34)
    per_ab = {
        "M0": (ab_m0,) * 4,
        "M1": (ab_02, ab_13, ab_02, ab_13),
        "M2": (ab_m2,) * 4,
        "M3": (ab_m34,) * 4,
        "M4": (ab_m34,) * 4,
    }
    per_ae = {
        "M0": (ae_m0,) * 4,
        "M1": (ae_02, ae_13, ae_02, ae_13),
        "M2": (ae_m2,) * 4,
        "M3": (ae_m34,) * 4,
        "M4": (ae_m34,) * 4,
    }
    return FidelityReport.from_per_state(per_ab, per_ae)


def ng_closed_form(columns: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's NG fidelities, each (basis, program), of program columns
    (4^N, P), shared by every state of a basis.  Over the indices s of the Pauli
    strings that fix the basis (its invariant mask; s = 0 is I):
    F_AB = sum_s |a_s|^2,  F_AE = (1 + sum_{s > 0} sum_i Re(conj(a_{i^s}) a_i)) / 2^N.
    """
    if any(4**b.num_qubits != len(columns) for b in bases):
        raise ValueError("program and basis register sizes differ")
    stabilizes = np.array([b.invariant_mask for b in bases], dtype=float)
    xor = np.arange(len(columns)) ^ np.arange(len(columns))[:, None]  # [s, i] = i^s
    overlap = np.einsum("sip,ip->sp", columns[xor].conj(), columns).real
    f_ae = (1 + stabilizes[:, 1:] @ overlap[1:]) / math.isqrt(len(columns))
    return stabilizes @ np.abs(columns) ** 2, f_ae


def ng_fidelities(s: SoftwareState) -> FidelityReport:
    """NG fidelities of a program over the MUB set of its register."""
    bases = mubs_for(s.num_clone_qubits).bases
    f_ab, f_ae = (
        dict(zip([b.label for b in bases], f[:, 0].tolist()))
        for f in ng_closed_form(s.amplitudes[:, None], bases)
    )
    return _uniform_report(f_ab, f_ae, len(bases[0].states))


def qid_fidelities(s: SoftwareState) -> FidelityReport:
    return qid1q_fidelities(s) if s.num_clone_qubits == 1 else qid2q_fidelities(s)


def ng_nq_bob_fidelity(program: SoftwareState, basis: MubBasis) -> float:
    """Bob's NG fidelity for one basis: the Bob half of ``ng_closed_form``."""
    return float(ng_closed_form(program.amplitudes[:, None], [basis])[0][0, 0])


def uqcm_program_ng(num_clone_qubits: int) -> SoftwareState:
    """Program of the symmetric universal cloner: fidelity (d+3)/(2(d+1))."""
    if num_clone_qubits < 1:
        raise ValueError("register size must be at least 1")
    d = 2**num_clone_qubits
    amps = np.full(d * d, math.sqrt(1.0 / (2 * d * (d + 1))))
    amps[0] = math.sqrt((d + 1) / (2.0 * d))
    return SoftwareState(amps)


def uqcm_fidelity(num_clone_qubits: int) -> float:
    d = 2**num_clone_qubits
    return (d + 3) / (2.0 * (d + 1))


# One-positions of the two-qubit QID program implementing the symmetric
# universal cloner (amplitude 1/sqrt(10) each, with a_0 = 2/sqrt(10)).
QID_UQCM_2Q_ONE_POSITIONS = (1, 2, 3, 5, 10, 15)


def qid_uqcm_program_2q() -> SoftwareState:
    """Two-qubit QID program with all ten fidelities equal to 0.7."""
    amps = np.zeros(16)
    amps[0] = 2.0
    for j in QID_UQCM_2Q_ONE_POSITIONS:
        amps[j] = 1.0
    return SoftwareState(amps / math.sqrt(10.0))


UQCM_SYM_THETA = math.atan(1.0 / 3.0)
PCCM_SYM_THETA = math.pi / 8.0


def table1_angles(
    kind: str, theta: float | None = None, eta: float | ImbalanceEta | None = None
) -> NgAngles:
    """Angles of the standard NG cloning machines.

    kind 'uqcm':        phi = pi/4,  rho = arctan(sqrt(2) sin(theta))
    kind 'pccm':        phi = rho = theta                  (Z/X bases)
    kind 'imbalanced':  phi = theta, rho = arctan(eta tan(2 theta)) / 2

    Defaults give the symmetric machines: theta = arctan(1/3) for the
    universal cloner, pi/8 for the other two.
    """
    kind = kind.lower()
    if kind == "uqcm":
        theta = UQCM_SYM_THETA if theta is None else theta
        return NgAngles(math.atan(math.sqrt(2) * math.sin(theta)), math.pi / 4, theta)
    if kind == "pccm":
        theta = PCCM_SYM_THETA if theta is None else theta
        return NgAngles(theta, theta, theta)
    if kind == "imbalanced":
        theta = PCCM_SYM_THETA if theta is None else theta
        if eta is None:
            raise ValueError("the imbalanced cloner requires eta")
        eta_val = eta.eta if isinstance(eta, ImbalanceEta) else float(eta)
        if not eta_val > 0:
            raise ValueError("eta must be positive")
        return NgAngles(math.atan(eta_val * math.tan(2 * theta)) / 2, theta, theta)
    raise ValueError(f"unknown cloner kind {kind!r}")


def qid_closed_form(kind: str, **params) -> NgAngles:
    """Angle triples of the closed-form QID cloners.

    kind 'cnot':              perfect Z clones for both receivers
    kind 'z-asym' (phi):      F_AB_Z = sin^2(phi), F_AE_Z = cos^2(phi)
    kind 'pccm' (phi):        F_AB_X = F_AB_Y = (1 + sin(phi)) / 2 and
        F_AE_X = F_AE_Y = (1 + cos(phi)) / 2; phi = 0 hands the X/Y planes
        to Eve, pi/2 to Bob
    kind 'uqcm':              symmetric universal cloner, fidelity 5/6
    kind 'uqcm-asym' (rho, branch): asymmetric universal family; branch +1
        favors Bob, -1 favors Eve
    kind 'xy-imbalanced' (p_x, p_y, phi): best X/Y-plane cloner under X/Y
        noise with p_z = 0
    kind 'xy-imbalanced-sym' (p_x, p_y): its symmetric point
    """
    kind = kind.lower()
    if kind == "cnot":
        return NgAngles(0.0, 0.0, 0.0)
    if kind == "z-asym":
        return NgAngles(math.pi / 2, float(params["phi"]), 0.0)
    if kind == "pccm":
        return NgAngles(math.pi / 4, float(params.get("phi", math.pi / 4)), 0.0)
    if kind == "uqcm":
        return NgAngles(math.acos(math.sqrt(2.0 / 3.0)), math.pi / 4, 0.0)
    if kind == "uqcm-asym":
        rho = float(params["rho"])
        branch = int(params.get("branch", +1))
        if branch not in (+1, -1):
            raise ValueError("branch must be +1 or -1")
        if math.sin(rho) == 0:
            raise ValueError("rho must not be a multiple of pi")
        inner = (0.5 - 0.75 * math.cos(rho) ** 2) / math.sin(rho) ** 2
        if inner < 0:
            raise ValueError("rho below the symmetric point arccos(sqrt(2/3))")
        base = 1.0 / (2.0 * math.tan(rho))
        s_plus, s_minus = base + math.sqrt(inner), base - math.sqrt(inner)
        sin_phi, cos_phi = (s_plus, s_minus) if branch == +1 else (s_minus, s_plus)
        # the quadrant is fixed by requiring both receivers to be universal:
        # sin(phi) and cos(phi) are the two roots of the same quadratic
        return NgAngles(rho, math.atan2(sin_phi, cos_phi), 0.0)
    if kind in ("xy-imbalanced", "xy-imbalanced-sym"):
        p_x, p_y = float(params["p_x"]), float(params["p_y"])
        if not (0 <= p_x <= 1 and 0 <= p_y <= 1 and p_x + p_y <= 1):
            raise ValueError("invalid error probabilities")
        ratio = math.atan((p_x - p_y) / (1.0 - p_x - p_y))
        if kind == "xy-imbalanced-sym":
            return NgAngles(math.pi / 4, math.pi / 4, 2.0 * ratio)
        phi = float(params["phi"])
        theta = math.asin(math.sin(2.0 * ratio) * math.sin(2.0 * phi))
        return NgAngles(math.pi / 4, phi, theta)
    raise ValueError(f"unknown QID cloner kind {kind!r}")
