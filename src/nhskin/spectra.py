"""Dense non-normal eigenproblems and real-space localization diagnostics.

One `np.linalg.eig` call gives the eigenvalues and right eigenvectors; a
real matrix (the model's) runs in real arithmetic.  The left eigenvectors
are the rows of the inverse of the right-vector matrix, so
left_i . right_j = delta_ij up to rounding, with no matching step.
Numerically degenerate eigenvalue clusters are handled as a block: the
left rows are re-solved against the cluster, and the cluster basis is
rotated to diagonalize the site-position observable, which
deterministically separates end-localized partners (a pair of zero modes
otherwise comes out of the solver as arbitrary mixtures of the two ends).
An exceptional point, where two right vectors coalesce, is reported
instead of paired.

Every eigenvalue carries its condition number kappa_i.  Open
non-reciprocal chains have exponentially large kappa, so their computed
spectrum is only good to about kappa * eps relative to |H|; states past
KAPPA_EPS_BOUND are flagged (`EigenSystem.ill_conditioned`).

The eigensystem records its chain length L (the matrix is L x L, or
the doubled 2L x 2L), so the localization functions take no length.
Localization is computed for all states in one array pass
(`classify_states` returns a `StateTable` of arrays): each state's site
density folded over internal components, its center of mass, the weight
in the outermost sites, and the participation ratio.  The skin
diagnostic aggregates the center-of-mass displacements of bulk states;
both the signed mean and the mean magnitude are reported, the latter
because the doubled chain piles states on *both* ends when its
reflection symmetry is broken (the two internal components have
opposite hopping asymmetry), which a signed mean cancels to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceFailure,
    DegenerateAmbiguity,
    DimMismatch,
    NoBulkStates,
    ZeroVector,
)
from .symmetry import connected_components

CLUSTER_TOL = 1e-10
# Unit right vectors with 1 - |r_i^H r_j| below this are one eigenvector
# found twice: an exceptional point that rounding split.  Measured: such a
# pair sits at 2e-14 (L = 39 chain at theta = pi/6, split 2.6e-8 in E), the
# most parallel distinct pair of the broken L = 192 chain at 5.5e-4 and of
# the delta = 0 L = 192 chain at 8.7e-8.  Past kappa ~ 1/eps the solver
# can return coalesced vectors too (delta = 0, L = 96); in double
# precision that basis is defective as well.
EP_OVERLAP_TOL = 1e-10
# kappa_i * eps above this: eigenvalue i may be off by more than this
# times |H|_F (the first-order error estimate of a backward-stable solver).
KAPPA_EPS_BOUND = 1e-8
DEFAULT_EDGE_SITES = 10
DEFAULT_EDGE_WEIGHT = 0.9
DEFAULT_TAU_SKIN = 0.25
ZERO_MODE_RTOL = 1e-8


@dataclass
class EigenSystem:
    """Eigenvalues with biorthogonal right (columns) and left (rows) vectors
    of a chain of `num_sites` sites.

    `condition[i]` is kappa_i = |l_i| |r_i| / |l_i . r_i|, the eigenvalue
    condition number (inf where the left row overflowed).  `defective`
    lists the indices of exceptional points: clusters with near-parallel
    right vectors (EP_OVERLAP_TOL) or a singular left/right overlap block.
    Their vectors are left as the solver returned them, unpaired, and their
    kappa is meaningless.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition: np.ndarray
    num_sites: int
    defective: list[int] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def ill_conditioned(self) -> np.ndarray:
        """Indices whose kappa * eps exceeds KAPPA_EPS_BOUND."""
        return np.nonzero(self.condition * np.finfo(float).eps > KAPPA_EPS_BOUND)[0]

    @cached_property
    def biorthogonality_defect(self) -> float:
        """max |LR - I| (inf if not finite); an O(N^3) product, formed on first use."""
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.abs(self.left @ self.right - np.eye(self.dim)).max()
        return float(defect) if np.isfinite(defect) else np.inf


@dataclass
class StateTable:
    """Localization of every state as arrays; index i is eigenvalue i.

    `density` is (n, L), each row a state's site density normalized to
    one; `is_edge` marks states whose outer-ell-site weight exceeds w_edge.
    """

    energy: np.ndarray
    density: np.ndarray
    center_of_mass: np.ndarray
    participation_ratio: np.ndarray
    edge_weight: np.ndarray
    is_edge: np.ndarray


@dataclass
class SkinReport:
    skew: float
    accumulation: float
    skin_detected: bool


def eigendecompose(H: np.ndarray, num_sites: int) -> EigenSystem:
    """Full biorthogonal eigensystem of a dense matrix.

    Parameters
    ----------
    H : square real or complex matrix with finite entries; a real one
        runs in real arithmetic
    num_sites : number of lattice sites L; H is L x L, or the doubled
        2L x 2L matrix whose halves are the two internal components.
        Sets the position observable that disentangles degenerate
        clusters, and is stored on the result.

    Eigenvalues closer than CLUSTER_TOL are handled as one degenerate
    cluster.

    Raises
    ------
    DimMismatch : H is neither L x L nor 2L x 2L.
    ConvergenceFailure : solver failure, or a numerically singular
        eigenvector basis that no exceptional point explains.
    DegenerateAmbiguity : a healthy degenerate cluster that the position
        observable cannot split.

    A defective cluster is not paired; see `EigenSystem.defective`.
    """
    N = H.shape[0]
    if H.shape[0] != H.shape[1]:
        raise ConvergenceFailure(f"matrix is not square: {H.shape}")
    if N not in (num_sites, 2 * num_sites):
        raise DimMismatch(f"matrix size {N} is neither {num_sites} sites nor twice that")
    if not np.isfinite(H).all():
        raise ConvergenceFailure("matrix has non-finite entries")
    try:
        w, right = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    w, right = w.astype(complex), right.astype(complex)
    # at an exceptional point the basis is (nearly) singular and its left
    # rows blow up or turn NaN; the cluster check below reports it as defective
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            left = np.linalg.inv(right)
        except np.linalg.LinAlgError:
            left = np.full_like(right, np.nan)

    pos = np.tile(np.arange(1.0, num_sites + 1), N // num_sites)

    D = np.abs(w[:, None] - w[None, :])
    # two unit right vectors this parallel have |E_i - E_j| below
    # 2 |H| sqrt(2 tol) / (1 - tol), so only such close pairs are compared
    i, j = np.nonzero(np.triu(D <= 3.0 * np.sqrt(EP_OVERLAP_TOL) * np.linalg.norm(H), 1))
    ep = np.abs(np.einsum("ki,ki->i", right[:, i].conj(), right[:, j])) > 1.0 - EP_OVERLAP_TOL
    i, j = i[ep], j[ep]
    parallel = np.zeros(N, dtype=bool)
    parallel[i] = parallel[j] = True
    ci, cj = np.nonzero(np.triu(D < CLUSTER_TOL, 1))
    defective = []
    for idx in connected_components(N, np.concatenate([ci, i]), np.concatenate([cj, j])):
        if len(idx) < 2:
            continue
        Rc = right[:, idx]
        Wc = left[idx, :]
        # inv(right) gives a healthy cluster an identity overlap block; an
        # exceptional point shows as parallel right vectors or a singular block
        if (parallel[idx].any() or not np.isfinite(M := Wc @ Rc).all()
                or np.linalg.svd(M, compute_uv=False)[-1] < 1e-8):
            defective.extend(idx.tolist())
            continue
        Lc = np.linalg.solve(M, Wc)
        # canonical basis inside the cluster: diagonalize the position
        # observable, then order members left to right along the chain
        Xc = Lc @ (pos[:, None] * Rc)
        mu, G = np.linalg.eig(Xc)
        if np.linalg.cond(G) > 1e12:
            raise DegenerateAmbiguity(
                f"cluster near {w[idx[0]]} cannot be split by position"
            )
        sort = np.argsort(mu.real)
        G = G[:, sort]
        Rc = Rc @ G
        Lc = np.linalg.solve(G, Lc)
        diag = np.einsum("ij,ji->i", Lc, Rc)
        if np.any(diag == 0.0):
            raise DegenerateAmbiguity(f"cluster near {w[idx[0]]} lost biorthogonality")
        Lc = Lc / diag[:, None]
        right[:, idx] = Rc
        left[idx, :] = Lc

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        condition = (np.linalg.norm(left, axis=1) * np.linalg.norm(right, axis=0)
                     / np.abs(np.einsum("ij,ji->i", left, right)))
    condition[np.isnan(condition)] = np.inf
    if not defective and not np.isfinite(condition).all():
        raise ConvergenceFailure("eigenvector basis is numerically singular")
    return EigenSystem(values=w, right=right, left=left, condition=condition,
                       num_sites=num_sites, defective=defective)


def density_profile(vectors: np.ndarray, num_sites: int):
    """Per-site densities of column vectors, folded over internal components.

    `vectors` is a (dim, n) matrix of column vectors (a 1-D vector is one
    column) with dim = L, or 2L for doubled vectors whose halves are the
    two internal components of each site.  Returns (density (n, L), center
    of mass (n,), participation ratio (n,)), each density row normalized.
    """
    R = np.asarray(vectors)
    # one C-contiguous row per state: each reduction below runs along a row
    mod2 = np.abs(np.ascontiguousarray(R.reshape(len(R), -1).T)) ** 2
    if mod2.shape[1] == 2 * num_sites:
        rho = mod2[:, :num_sites] + mod2[:, num_sites:]
    elif mod2.shape[1] == num_sites:
        rho = mod2
    else:
        raise DimMismatch(f"vector length {mod2.shape[1]} does not match {num_sites} sites")
    total = rho.sum(axis=1)
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise ZeroVector("state vector has zero or non-finite norm")
    rho = rho / total[:, None]
    com = (np.arange(1, num_sites + 1) * rho).sum(axis=1)
    return rho, com, 1.0 / (rho ** 2).sum(axis=1)


def classify_states(es: EigenSystem, ell: int = DEFAULT_EDGE_SITES,
                    w_edge: float = DEFAULT_EDGE_WEIGHT) -> StateTable:
    """State table of the eigensystem; a state is an edge state when its
    outer-ell-site weight exceeds w_edge."""
    L = es.num_sites
    if not (1 <= ell <= L // 2):
        raise ConfigError(f"ell must lie in [1, L/2], got {ell}")
    if not (0.0 <= w_edge <= 1.0):
        raise ConfigError(f"w_edge must lie in [0, 1], got {w_edge}")
    rho, com, pr = density_profile(es.right, L)
    edge = rho[:, :ell].sum(axis=1) + rho[:, L - ell:].sum(axis=1)
    return StateTable(energy=es.values, density=rho, center_of_mass=com,
                      participation_ratio=pr, edge_weight=edge, is_edge=edge > w_edge)


def skin_metrics(es: EigenSystem, tau_skin: float = DEFAULT_TAU_SKIN,
                 ell: int = DEFAULT_EDGE_SITES,
                 w_edge: float = DEFAULT_EDGE_WEIGHT) -> SkinReport:
    """Aggregate skin diagnostic over the bulk states.

    Topological end modes are excluded from the bulk set: a state counts
    as one when it is edge-localized *and* its energy sits at zero within
    ZERO_MODE_RTOL relative to the spectral radius (end modes of the
    doubled chain are zero modes; skin-localized bulk states are not).
    skew is the signed mean of (com - center)/(L/2) over bulk states,
    accumulation the mean magnitude; detection uses the magnitude since
    symmetry-broken chains pile states on both ends at once.
    """
    if not (0.0 < tau_skin < 1.0):
        raise ConfigError(f"tau_skin must lie in (0, 1), got {tau_skin}")
    st = classify_states(es, ell, w_edge)
    scale = max(np.abs(es.values).max(), 1e-300)
    bulk = ~(st.is_edge & (np.abs(st.energy) <= ZERO_MODE_RTOL * scale))
    if not bulk.any():
        raise NoBulkStates("all states were classified as topological end modes")
    L = es.num_sites
    disp = (st.center_of_mass[bulk] - (L + 1) / 2.0) / (L / 2.0)
    accumulation = float(np.abs(disp).mean())
    return SkinReport(skew=float(disp.mean()), accumulation=accumulation,
                      skin_detected=bool(accumulation > tau_skin))
