"""Combined reflection operators and the skin-effect symmetry criterion.

A candidate operator is a Kronecker product (internal 2x2 unitary) x
(signed site reflection).  The criterion implemented here: if such an
operator commutes with the Hamiltonian and its spatial factor maps site
n to its mirror image, the bulk states cannot pile up at one end, so no
skin effect is expected; if no candidate commutes, skin localization is
the generic outcome.  The test is meaningful only for matrices that
cannot be block-diagonalized by a permutation, so a reducibility gate
runs first, after a Hermitian gate (a Hermitian H has no skin effect).

Reflections may carry the alternating sign (-1)^n ("staggered"), which
is what makes the particle-hole-type internal factor commute with the
asymmetric hopping.  On a periodic ring the reflection center is a free
choice; `ring_candidates` enumerates the inequivalent centers, which is
how a period-3 potential with a shifted registry is recognised as
symmetric.

Every candidate is a signed permutation of the 2L doubled indices:
index k goes to sigma[k] with a coefficient in {+1, -1, +i, -i}.  A
`SymmetryOp` is an operator family, defined for every length by its
internal factor, staggering and center; `signed_permutation(L)` fixes
the length.  H arrives as its bond list (`nhskin.model.Bonds`), whose
dim = 2L sets L: the residual and the Hermitian gate are O(nnz).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimMismatch, MalformedOperator, NonPositiveSize
from .model import Bonds

PAULI = {
    "sx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "sy": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "sz": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "id": np.eye(2, dtype=complex),
}

DEFAULT_TOL = 1e-10

KIND_BLOCKED = "nhse_blocked"
KIND_EXPECTED = "nhse_expected"
KIND_REDUCIBLE = "inapplicable_reducible"
KIND_NO_CANDIDATES = "no_symmetry_found"
KIND_HERMITIAN = "hermitian_no_skin"


@dataclass(frozen=True)
class SymmetryOp:
    """A combined-reflection candidate: internal 2x2 factor x signed site reflection.

    The operator is a signed permutation on any length L;
    `signed_permutation(L)` returns its index map and coefficients.
    """

    internal_label: str
    spatial_signed: bool
    center: int | None = None  # None: open-chain mirror n -> L+1-n

    def __post_init__(self) -> None:
        if self.internal_label not in PAULI:
            raise MalformedOperator(f"unknown internal factor {self.internal_label!r}")

    def signed_permutation(self, L: int) -> tuple[np.ndarray, np.ndarray]:
        """(sigma, coeff) with S[k, sigma[k]] = coeff[k] and zeros elsewhere,
        on L sites.

        Doubled index k = a L + i (component a, 0-based site i) goes to the
        internal factor's image of a and the mirror image of i; coeff[k]
        is the internal entry times the staggering sign (-1)^(i+1).
        Raises NonPositiveSize for L < 2, and for a ring center when L is
        not a multiple of 6 (the period of sign pattern and potential).
        """
        if L < 2:
            raise NonPositiveSize(f"reflection needs L >= 2, got {L}")
        if self.center is not None and L % 6 != 0:
            raise NonPositiveSize(f"ring candidates need L divisible by 6, got {L}")
        P = PAULI[self.internal_label]
        comp = np.abs(P).argmax(axis=1)
        i = np.arange(L)
        site = L - 1 - i if self.center is None else (self.center - i) % L
        sign = (-1.0) ** (i + 1) if self.spatial_signed else np.ones(L)
        sigma = (comp[:, None] * L + site).ravel()
        coeff = (P[[0, 1], comp][:, None] * sign).ravel()
        return sigma, coeff


@dataclass
class Verdict:
    kind: str
    commutator_residual: float | None = None
    candidate: SymmetryOp | None = None
    components: list[list[int]] | None = None

    def to_dict(self) -> dict:
        cand = None
        if self.candidate is not None:
            cand = {
                "internal": self.candidate.internal_label,
                "staggered": self.candidate.spatial_signed,
            }
            if self.candidate.center is not None:
                cand["center"] = self.candidate.center
        return {
            "kind": self.kind,
            "residual": self.commutator_residual,
            "candidate": cand,
            "components": self.components,
        }


def default_candidates() -> list[SymmetryOp]:
    """The 8 open-chain candidates: 4 internal factors x (un)staggered."""
    return [SymmetryOp(lab, st) for lab in ("sy", "sx", "sz", "id") for st in (True, False)]


def ring_candidates() -> list[SymmetryOp]:
    """Staggered sy reflections about the 6 inequivalent centers of a ring.

    The sign pattern has period 2 and the potential period 3, so centers
    repeat modulo 6; the ring length must be a multiple of 6 for every
    candidate to be a consistent lattice map (checked by
    `SymmetryOp.signed_permutation`).
    """
    return [SymmetryOp("sy", True, center=c) for c in range(6)]


def _difference_norm(n: int, a: tuple, b: tuple) -> float:
    """||A - B||_F for n x n (rows, cols, vals) lists, each one entry per position."""
    _, at = np.unique(np.concatenate([a[0] * n + a[1], b[0] * n + b[1]]), return_inverse=True)
    diff = np.zeros(at.max(initial=-1) + 1, dtype=complex)
    np.add.at(diff, at, np.concatenate([a[2], -b[2]]))
    return float(np.linalg.norm(diff))


def commutator_residual(H: Bonds, S: SymmetryOp) -> float:
    """|| HS - SH ||_F / max(||H||_F, floor); 0 means exact commutation.

    S acts on L = H.dim / 2 sites; an odd H.dim raises DimMismatch.
    Bond (r, c, v) of H gives v coeff[c] at (r, sigma[c]) in HS and
    coeff[inv[r]] v at (inv[r], c) in SH, with inv the inverse of sigma.
    """
    if H.dim % 2:
        raise DimMismatch(f"doubled matrix needs an even size, got {H.dim}")
    sigma, coeff = S.signed_permutation(H.dim // 2)
    inv = np.argsort(sigma)
    r, c, v = H.rows, H.cols, H.vals
    num = _difference_norm(H.dim, (r, sigma[c], v * coeff[c]), (inv[r], c, coeff[inv[r]] * v))
    return num / max(float(np.linalg.norm(v)), 1e-300)


def connected_components(n: int, i, j) -> list[np.ndarray]:
    """Components of the undirected graph on n nodes with edges (i[k], j[k]).

    Each component is an ascending index array; the list is ordered by
    smallest member.  Every node points at a smaller or equal node of its
    component: each round hooks the root of every edge end onto the
    smaller root, then jumps pointers until each node points at a root.
    The fixed point points every node at its component's smallest member.
    """
    i, j = np.asarray(i, dtype=int), np.asarray(j, dtype=int)
    root = np.arange(n)
    while True:
        hooked = root.copy()
        np.minimum.at(hooked, root[i], root[j])
        np.minimum.at(hooked, root[j], root[i])
        while not np.array_equal(jumped := hooked[hooked], hooked):
            hooked = jumped
        if np.array_equal(hooked, root):
            break
        root = hooked
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def is_reducible(H: Bonds) -> tuple[bool, list[list[int]]]:
    """Can a simultaneous row/column permutation block-diagonalize H?

    Builds the undirected graph with an edge (i, j) whenever H[i, j] or
    H[j, i] is nonzero (threshold 1e-14 relative to the largest entry)
    and returns whether it is disconnected, plus the components.
    """
    nz = np.abs(H.vals) > 1e-14 * max(np.abs(H.vals).max(initial=0.0), 1e-300)
    components = [c.tolist() for c in connected_components(H.dim, H.rows[nz], H.cols[nz])]
    return len(components) > 1, components


def theorem_verdict(H: Bonds, candidates: list[SymmetryOp],
                    tol: float = DEFAULT_TOL) -> Verdict:
    """Symmetry-based skin-effect verdict for a Hamiltonian's bond list.

    Order of the gates: a Hermitian H (real, ||H - H^T|| <= tol ||H||) has
    no skin effect and a permutation-reducible one is out of scope (the
    criterion presumes irreducibility); neither kind has a residual or a
    candidate.  Otherwise the first candidate that commutes within `tol`
    blocks the skin effect (every candidate maps each site to its mirror
    by construction); otherwise skin localization is the symmetry-based
    prediction, to be cross-checked against real-space diagnostics.
    """
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if _difference_norm(H.dim, H[:3], (H.cols, H.rows, H.vals)) <= tol * np.linalg.norm(H.vals):
        return Verdict(kind=KIND_HERMITIAN)
    reducible, components = is_reducible(H)
    if reducible:
        return Verdict(kind=KIND_REDUCIBLE, components=components)
    residuals = []
    for cand in candidates:
        residuals.append(commutator_residual(H, cand))
        if residuals[-1] <= tol:
            return Verdict(kind=KIND_BLOCKED, commutator_residual=residuals[-1], candidate=cand)
    if not candidates:
        return Verdict(kind=KIND_NO_CANDIDATES)
    k = int(np.argmin(residuals))  # the first of equal minima
    return Verdict(kind=KIND_EXPECTED, commutator_residual=residuals[k], candidate=candidates[k])
