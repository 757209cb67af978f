"""Closed-form clone fidelities and named program states.

Every fidelity of the NG and QID circuits is a quadratic form in the program
amplitudes.  Like the engine (``cloner.fidelity_columns``), the closed forms
take programs as columns (4^N, P) and evaluate them all in one call, each
program's values independent of the others.  For the NG family one
stabilizer rule gives them all, at any register size and for complex
programs (``ng_closed_form``): Bob's fidelity in a basis is the program
weight on the indices j whose (z|x)-encoded Pauli string fixes that basis,
and Eve's collects the XOR autocorrelations sum_i conj(a_i xor s) a_i over
the same stabilizers s, read off a Walsh-Hadamard transform.  The QID
coefficient tables do not have such a uniform rule and are stored explicitly
(``qid_fidelity_columns``); they too take complex programs.  ``ng_fidelities``
and ``qid_fidelities`` wrap one program's columns in a ``FidelityReport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if 1 - 2 * p_x - 2 * p_y == 0:
            raise ValueError("eta is undefined at 1 - 2 p_x - 2 p_y = 0")
        return cls((1 - 2 * p_z - 2 * p_y) / (1 - 2 * p_x - 2 * p_y))


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


def _re(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re(u conj(v)) elementwise; for real rows the plain product."""
    return (u * v.conj()).real


def _pair_sum(a: np.ndarray, table) -> np.ndarray:
    """1/4 + 1/2 sum sign Re(a_i conj(a_j)) over rows a_i, added in table order."""
    return 0.25 + 0.5 * sum(sign * _re(a[i], a[j]) for i, j, sign in table)


def qid_fidelity_columns(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's QID fidelities, each (state, program), of program
    columns (4^N, P) for N = 1 or 2, real or complex, in the engine's order:
    the states of ``mubs_for(N)`` basis by basis.

    At N = 1 the X and Y fidelities differ only in one relative sign.  At
    N = 2 the M1 fidelities are not uniform (states 0 and 2 share one value,
    states 1 and 3 another), and M3 and M4 always coincide, which is why this
    circuit cannot trade fidelity between those two bases.
    """
    a = np.asarray(columns)
    if len(a) == 4:
        ad, bc, ab, cd = (_re(a[i], a[j]) for i, j in ((0, 3), (1, 2), (0, 1), (2, 3)))
        f_ab = [_re(a[0], a[0]) + _re(a[3], a[3]), ad + bc + 0.5, ad - bc + 0.5]
        f_ae = [_re(a[0], a[0]) + _re(a[1], a[1]), ab + cd + 0.5, ab - cd + 0.5]
        return np.repeat(f_ab, 2, axis=0), np.repeat(f_ae, 2, axis=0)
    if len(a) != 16:
        raise ValueError("QID closed forms exist for 1- and 2-qubit programs")
    ab_m0, ae_m0 = (sum(_re(a[k], a[k]) for k in ks) for ks in ((0, 5, 10, 15), (0, 1, 2, 3)))
    # the tables are read at call time
    ab_02, ab_13 = _pair_sum(a, _QID2Q_AB_M1_02), _pair_sum(a, _QID2Q_AB_M1_13)
    ae_02, ae_13 = _pair_sum(a, _QID2Q_AE_M1_02), _pair_sum(a, _QID2Q_AE_M1_13)
    ab_m2, ae_m2 = _pair_sum(a, _QID2Q_AB_M2), _pair_sum(a, _QID2Q_AE_M2)
    ab_m34, ae_m34 = _pair_sum(a, _QID2Q_AB_M34), _pair_sum(a, _QID2Q_AE_M34)
    f_ab = [ab_m0] * 4 + [ab_02, ab_13, ab_02, ab_13] + [ab_m2] * 4 + [ab_m34] * 8
    f_ae = [ae_m0] * 4 + [ae_02, ae_13, ae_02, ae_13] + [ae_m2] * 4 + [ae_m34] * 8
    return np.array(f_ab), np.array(f_ae)


def _masked_sum(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """sum_s masks[b, s] values[s, p] as (b, p), added in the order of s."""
    return sum(m[:, None] * v for v, m in zip(values, masks.T))


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """The +-1 Walsh-Hadamard transform of a C-contiguous x along axis 0, in
    place by butterflies: elementwise adds in a fixed order, no BLAS."""
    for h in 2 ** np.arange(int(math.log2(len(x)))):
        v = x.reshape(-1, 2, h, *x.shape[1:])
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
    return x


def ng_closed_form(columns: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's NG fidelities, each (basis, program), of program columns
    (4^N, P), shared by every state of a basis.  Over the indices s of the Pauli
    strings that fix the basis (its invariant mask; s = 0 is I):
    F_AB = sum_s |a_s|^2,  F_AE = (1 + sum_{s > 0} r_s) / 2^N,  with the XOR
    autocorrelation r_s = sum_i conj(a_{i^s}) a_i = (H |H a|^2)_s / 4^N, H the
    +-1 Walsh-Hadamard transform.  Every step is elementwise along the program
    axis, so a program's values do not depend on the other columns.
    """
    if any(4**b.num_qubits != len(columns) for b in bases):
        raise ValueError("program and basis register sizes differ")
    stabilizes = np.array([b.invariant_mask for b in bases], dtype=float)
    spectrum = _walsh_hadamard(np.array(columns, dtype=complex, order="C"))
    r = _walsh_hadamard(spectrum.real**2 + spectrum.imag**2) / len(columns)
    f_ae = (1 + _masked_sum(r[1:], stabilizes[:, 1:])) / math.isqrt(len(columns))
    return _masked_sum(np.abs(columns) ** 2, stabilizes), f_ae


def ng_fidelities(s: SoftwareState) -> FidelityReport:
    """NG fidelities of a program over the MUB set of its register."""
    mubs = mubs_for(s.num_clone_qubits)
    per_basis = ng_closed_form(s.amplitudes[:, None], mubs.bases)
    per_state = (np.repeat(f[:, 0], len(mubs.bases[0].states)) for f in per_basis)
    return FidelityReport.from_columns(mubs.labels, *per_state)


def qid_fidelities(s: SoftwareState) -> FidelityReport:
    """QID fidelities of a program of 1 or 2 qubits."""
    f_ab, f_ae = (f[:, 0] for f in qid_fidelity_columns(s.amplitudes[:, None]))
    return FidelityReport.from_columns(mubs_for(s.num_clone_qubits).labels, f_ab, f_ae)


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
        if 1.0 - p_x - p_y == 0:
            raise ValueError("xy-imbalanced cloners are undefined at 1 - p_x - p_y = 0")
        ratio = math.atan((p_x - p_y) / (1.0 - p_x - p_y))
        if kind == "xy-imbalanced-sym":
            return NgAngles(math.pi / 4, math.pi / 4, 2.0 * ratio)
        phi = float(params["phi"])
        theta = math.asin(math.sin(2.0 * ratio) * math.sin(2.0 * phi))
        return NgAngles(math.pi / 4, phi, theta)
    raise ValueError(f"unknown QID cloner kind {kind!r}")
