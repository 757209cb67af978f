"""Closed-form clone fidelities and named program states.

Both cloners follow one covariance rule (Cerf's Pauli cloners; for the QID,
the Weyl-covariant form of Braunstein, Buzek and Hillery): for displacements
D_g, receiver R's fidelity at input psi is F_R = sum_g |<psi|D_g|psi>|^2
|c^R_g|^2 = chi @ w_R.  For NG the D_g are the Pauli strings and Bob's c_g the
program amplitudes; for QID they are X^-m Z^n over Z_d x Z_d, d = 2^N, and
Bob's c_g the program's Bell overlaps.  Eve's coefficients are the symplectic
Fourier transform of Bob's.  The closed forms take programs as columns
(4^N, P), like the engine, each step elementwise along the program axis.
``ng_fidelities`` and ``qid_fidelities`` wrap one program in a report.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .cloner import FidelityReport, NgAngles, SoftwareState
from .mub import MubBasis, mubs_for
from .simcore import Frozen


class ImbalanceEta(Frozen):
    """Noise-imbalance ratio between the Z- and X-affected error weights."""

    __slots__ = ("eta",)

    def __init__(self, eta: float) -> None:
        object.__setattr__(self, "eta", eta)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("eta must be positive")

    @classmethod
    def from_channel(cls, p_x: float, p_y: float, p_z: float) -> "ImbalanceEta":
        if 1 - 2 * p_x - 2 * p_y == 0:
            raise ValueError("eta is undefined at 1 - 2 p_x - 2 p_y = 0")
        return cls((1 - 2 * p_z - 2 * p_y) / (1 - 2 * p_x - 2 * p_y))


def _abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 elementwise as re^2 + im^2, without the rounding of a square root."""
    return z.real**2 + z.imag**2


def _masked_sum(values: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """sum_s masks[b, s] values[s, p] as (b, p), added in the order of s."""
    return sum(m[:, None] * v for v, m in zip(values, masks.T))


def _qid_weights(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's weights, each (d^2, P) over g = m d + n, of QID program
    columns a: |c_mn|^2 with c_mn = <B_mn|a> over the Bell states
    B_mn = d^-1/2 sum_k w^(n k) |k>_Eve |k + m>_anc, and |e_pq|^2 with
    e_pq = d^-1 sum_{m,n} w^-(p n - q m) c_mn.  A register's value k counts
    its first qubit as the low digit.  For d = 2 and 4 the twiddles are exact
    (+-1, +-i), and the scales, powers of two, come after squaring."""
    d = math.isqrt(len(a))
    bits, k = d.bit_length() - 1, np.arange(d)
    v = np.array([int(f"{value:0{bits}b}"[::-1], 2) for value in k])  # basis index of k
    twiddle = np.array([1, -1j, -1, 1j])[4 // d * np.outer(k, k) % 4]  # w^(-n k)
    pairs = a[d * v + v[(k + k[:, None]) % d]]  # [m, k]: Eve value k, ancilla k + m
    bob = sum(twiddle[:, j, None] * pairs[:, None, j] for j in k)  # [m, n]
    half = sum(twiddle[:, j, None] * bob[:, None, j] for j in k)  # [m, p]
    eve = sum(twiddle.conj()[:, j, None] * half[j, :, None] for j in k)  # [p, q]
    return _abs2(bob).reshape(d * d, -1) / d, _abs2(eve).reshape(d * d, -1) / d**3


@lru_cache(maxsize=None)
def _qid_chi(num_qubits: int) -> np.ndarray:
    """Read-only chi[s, m d + n] = |<psi_s| X^-m Z^n |psi_s>|^2 over the states of
    ``mubs_for(N)``, X^m |k> = |k + m mod d> and Z^n |k> = w^(n k) |k>: d times
    Bob's weights of the program psi (x) psi*.  Each <psi|D|psi> is (a + i b) / d
    with integers a, b on the MUB states, so rounding makes chi exact."""
    psi = np.array([st.amplitudes for b in mubs_for(num_qubits).bases for st in b.states])
    d = psi.shape[1]
    bob, _ = _qid_weights(np.einsum("se,sc->ecs", psi, psi.conj()).reshape(d * d, -1))
    chi = np.round(bob.T * d**3) / (d * d)
    chi.flags.writeable = False
    return chi


def qid_fidelity_columns(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's QID fidelities, each (state, program), of program
    columns (4^N, P) for N = 1 or 2, real or complex, in the engine's order:
    the states of ``mubs_for(N)`` basis by basis.  On the two-qubit states chi
    is 0, 1/4, 1/2 or 1: the M1 values differ between states 0, 2 and 1, 3,
    and M3's always equal M4's, so this circuit cannot trade between them."""
    a = np.asarray(columns)
    if len(a) not in (4, 16):
        raise ValueError("QID closed forms exist for 1- and 2-qubit programs")
    chi, chunk = _qid_chi(round(math.log(len(a), 4))), 64  # fixed scratch per pass
    values = tuple(np.empty((len(chi), a.shape[1])) for _ in range(2))
    for j in range(0, a.shape[1], chunk):
        for f, w in zip(values, _qid_weights(a[:, j : j + chunk])):
            f[:, j : j + chunk] = _masked_sum(w, chi)
    return values


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """The +-1 Walsh-Hadamard transform of a C-contiguous x along axis 0, in
    place by butterflies: elementwise adds in a fixed order, no BLAS."""
    for h in 2 ** np.arange(int(math.log2(len(x)))):
        v = x.reshape(-1, 2, h, *x.shape[1:])
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]
    return x


def _ng_weights(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's weights, each (4^N, P) over (z|x) labels j, of NG program
    columns a: |a_j|^2, and |(H a)_j'|^2 / 4^N, j' = (x|z), H = ``_walsh_hadamard``."""
    d = math.isqrt(len(a))
    spectrum = _abs2(_walsh_hadamard(np.array(a, dtype=complex, order="C")))
    return _abs2(a), spectrum[np.arange(d * d).reshape(d, d).T.ravel()] / len(a)


def ng_closed_form(columns: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray]:
    """Bob's and Eve's NG fidelities, each (basis, program), of program columns
    (4^N, P), shared by every state of a basis: there chi_j = |<psi|P_j|psi>|^2
    is the basis's invariant mask."""
    if any(4**b.num_qubits != len(columns) for b in bases):
        raise ValueError("program and basis register sizes differ")
    chi = np.array([b.invariant_mask for b in bases], dtype=float)
    return tuple(_masked_sum(w, chi) for w in _ng_weights(columns))


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
