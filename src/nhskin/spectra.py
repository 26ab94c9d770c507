"""Dense non-normal eigenproblems and real-space localization diagnostics.

One `np.linalg.eig` call gives the eigenvalues and right eigenvectors; a
real matrix (the model's) runs in real arithmetic.  The left eigenvectors
are the rows of the inverse of the right-vector matrix, so
left_i . right_j = delta_ij up to rounding, with no matching step.  For a
real matrix that inverse is taken in real arithmetic, of the solver's real
basis in which each conjugate pair is the real and imaginary part of one
vector (`left_vectors`).  Close eigenvalue pairs are found by sorting
(`close_pairs`), not from an N x N distance matrix, and the norms and
densities take no complex N x N temporaries, so the pass peaks within one
N x N float array of `np.linalg.eig` itself.
Numerically degenerate eigenvalue clusters (closer than CLUSTER_TOL
relative to max |H|, by an exact power of two) are handled as a block: the
left rows are re-solved against the cluster, and the cluster basis is
rotated to diagonalize the site-position observable, which
deterministically separates end-localized partners (a pair of zero modes
otherwise comes out of the solver as arbitrary mixtures of the two ends).
An exceptional point, where two right vectors coalesce, is reported
instead of paired.

Every eigenvalue carries its condition number kappa_i.  Open
non-reciprocal chains have exponentially large kappa, so their computed
spectrum is only good to about kappa * eps relative to |H|; when the
largest kappa * eps passes KAPPA_EPS_BOUND, the chain as a whole is
flagged (`EigenSystem.ill_conditioned` is True).

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
from .symmetry import connected_components, scaled_norm

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
# times |H|_F (the first-order error estimate of a backward-stable solver;
# past it the estimate fails for the chain's other eigenvalues too).
KAPPA_EPS_BOUND = 1e-8
DEFAULT_EDGE_SITES = 10
DEFAULT_EDGE_WEIGHT = 0.9
DEFAULT_TAU_SKIN = 0.25
ZERO_MODE_RTOL = 1e-8


@dataclass
class EigenSystem:
    """Eigenvalues with biorthogonal right (columns) and left (rows) vectors
    of a chain of `num_sites` sites.

    `left` is the inverse of `right` (from the solver's real basis when H
    is real; see `left_vectors`), re-solved inside degenerate clusters.
    Cluster rows, like singletons, are paired by those solves alone:
    l_i . r_i = 1 to rounding, with no rescaling.
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
    def ill_conditioned(self) -> bool:
        """Whether the largest kappa * eps exceeds KAPPA_EPS_BOUND.  Past the
        bound the first-order estimate fails: the left rows come from a
        poorly conditioned basis, and eigenvalues with a small computed kappa
        move with rounding too, so the chain is judged as a whole."""
        return bool(self.condition.max(initial=0.0) * np.finfo(float).eps > KAPPA_EPS_BOUND)

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

    Eigenvalues closer than CLUSTER_TOL times 2^e, with 2^e the power of
    two at or below max |H|, are handled as one degenerate cluster, so
    the clusters follow the energy scale of H.

    Raises
    ------
    DimMismatch : H is not a square matrix, or neither L x L nor 2L x 2L.
    ConvergenceFailure : solver failure, or a numerically singular
        eigenvector basis that no exceptional point explains.
    DegenerateAmbiguity : a healthy degenerate cluster that the position
        observable cannot split.

    A defective cluster is not paired; see `EigenSystem.defective`.
    """
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {H.shape}")
    N = H.shape[0]
    if N not in (num_sites, 2 * num_sites):
        raise DimMismatch(f"matrix size {N} is neither {num_sites} sites nor twice that")
    if not np.isfinite(H).all():
        raise ConvergenceFailure("matrix has non-finite entries")
    try:
        w, right = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    # a real H gives its conjugate pairs as consecutive columns, Im E > 0 first
    pairs = np.flatnonzero(w.imag > 0.0) if np.isrealobj(H) else np.empty(0, dtype=int)
    left = left_vectors(right, pairs)
    w, right = w.astype(complex, copy=False), right.astype(complex, copy=False)

    pos = np.tile(np.arange(1.0, num_sites + 1), N // num_sites)

    # two unit right vectors this parallel have |E_i - E_j| below
    # 2 |H| sqrt(2 tol) / (1 - tol), so only pairs this close are compared.
    # One search serves the clusters too: cluster_tol <= CLUSTER_TOL max|H|
    # <= CLUSTER_TOL |H|_F lies far inside this radius (at H = 0 every
    # eigenvalue is 0 and the radius 0 takes every pair)
    i, j = close_pairs(w, 3.0 * np.sqrt(EP_OVERLAP_TOL) * scaled_norm(H))
    ep = np.abs(np.einsum("ki,ki->i", right[:, i].conj(), right[:, j])) > 1.0 - EP_OVERLAP_TOL
    parallel = np.zeros(N, dtype=bool)
    parallel[i[ep]] = parallel[j[ep]] = True
    cluster_tol = np.ldexp(CLUSTER_TOL, np.frexp(np.abs(H).max(initial=0.0))[1] - 1)
    joined = ep | (np.abs(w[i] - w[j]) < cluster_tol)
    defective = []
    for idx in connected_components(N, i[joined], j[joined]):
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
        # observable, then order members left to right along the chain; the
        # cond(G) bound keeps the rotated rows paired, l . r = 1 to ~cond(G) eps
        Xc = Lc @ (pos[:, None] * Rc)
        mu, G = np.linalg.eig(Xc)
        if np.linalg.cond(G) > 1e12:
            raise DegenerateAmbiguity(
                f"cluster near {w[idx[0]]} cannot be split by position"
            )
        G = G[:, np.argsort(mu.real)]
        right[:, idx] = Rc @ G
        left[idx, :] = np.linalg.solve(G, Lc)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # squared norms summed over the real and imaginary views: no N x N temporaries
        left2 = np.einsum("ij,ij->i", left.real, left.real) + np.einsum(
            "ij,ij->i", left.imag, left.imag)
        right2 = np.einsum("ij,ij->j", right.real, right.real) + np.einsum(
            "ij,ij->j", right.imag, right.imag)
        condition = np.sqrt(left2) * np.sqrt(right2) / np.abs(np.einsum("ij,ji->i", left, right))
    condition[np.isnan(condition)] = np.inf
    if not defective and not np.isfinite(condition).all():
        raise ConvergenceFailure("eigenvector basis is numerically singular")
    return EigenSystem(values=w, right=right, left=left, condition=condition,
                       num_sites=num_sites, defective=defective)


def left_vectors(right: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The rows of inv(right), complex, or NaN where it is singular.

    `pairs` lists the first columns j of the conjugate pairs that LAPACK's
    real xGEEV returns: right[:, j + 1] = conj(right[:, j]).  The real
    basis Q of the solver (column j Re v, column j + 1 Im v) is inverted in
    real arithmetic, and a pair's left rows are (p_j -+ i p_{j+1}) / 2 from
    the rows p of inv(Q).  Q is `right`'s real part with Im v written over
    each column j + 1 while it is inverted, then `right` is restored
    exactly; with no pairs, Q is `right` itself.
    """
    Q = right.real if len(pairs) else right
    blocks = [pairs[k:k + 32] for k in range(0, len(pairs), 32)]  # bound the temporaries
    for j in blocks:
        Q[:, j + 1] = right.imag[:, j]
    # at an exceptional point the basis is (nearly) singular and its left
    # rows blow up or turn NaN; eigendecompose reports such a cluster
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            left = np.linalg.inv(Q).astype(complex, copy=False)
        except np.linalg.LinAlgError:
            left = np.full(Q.shape, np.nan, dtype=complex)
    for j in blocks:
        right[:, j + 1] = right[:, j].conj()
        left.imag[j] = -0.5 * left.real[j + 1]  # exact halvings
        left.real[j] *= 0.5
        left[j + 1] = left[j].conj()
    return left


def close_pairs(w: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """All index pairs i < j with |w_i - w_j| <= radius, ordered by (i, j).

    The values are sorted along the longer side of their bounding box; only
    neighbours within twice the radius along it are candidates (|x_i - x_j|
    <= |w_i - w_j|, and the factor two absorbs the rounding of the window
    edge), and the candidates pass the same |w_i - w_j| <= radius test that
    a dense distance matrix would.
    """
    x = w.imag if len(w) and np.ptp(w.imag) > np.ptp(w.real) else w.real
    order = np.argsort(x, kind="stable")
    xs = x[order]
    stop = np.searchsorted(xs, xs + 2.0 * radius, side="right")
    count = np.maximum(stop - np.arange(1, len(xs) + 1), 0)  # none for a negative radius
    a = np.repeat(np.arange(len(xs)), count)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    i, j = np.minimum(order[a], order[b]), np.maximum(order[a], order[b])
    keep = np.abs(w[i] - w[j]) <= radius
    i, j = i[keep], j[keep]
    s = np.lexsort((j, i))
    return i[s], j[s]


def density_profile(vectors: np.ndarray, num_sites: int):
    """Per-site densities of column vectors, folded over internal components.

    `vectors` is a (dim, n) matrix of column vectors (a 1-D vector is one
    column) with dim = L, or 2L for doubled vectors whose halves are the
    two internal components of each site.  Returns (density (n, L), center
    of mass (n,), participation ratio (n,)), each density row normalized.
    """
    R = np.asarray(vectors)
    # one contiguous row per state, so each reduction below runs along a
    # row; the moduli are written in that order and squared and folded in place
    mod2 = np.abs(R.reshape(len(R), -1).T, order="C", dtype=float)
    np.square(mod2, out=mod2)
    if mod2.shape[1] == 2 * num_sites:  # fold the second half onto the first
        rho = np.add(mod2[:, :num_sites], mod2[:, num_sites:], out=mod2[:, :num_sites])
    elif mod2.shape[1] == num_sites:
        rho = mod2
    else:
        raise DimMismatch(f"vector length {mod2.shape[1]} does not match {num_sites} sites")
    total = rho.sum(axis=1)
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise ZeroVector("state vector has zero or non-finite norm")
    rho /= total[:, None]
    com = (np.arange(1, num_sites + 1) * rho).sum(axis=1)
    return rho, com, 1.0 / (rho ** 2).sum(axis=1)


def classify_states(es: EigenSystem, ell: int | None = None,
                    w_edge: float = DEFAULT_EDGE_WEIGHT) -> StateTable:
    """State table of the eigensystem; a state is an edge state when its
    weight in the ell sites at each end exceeds w_edge.  An explicit ell
    must lie in [1, L/2]; None gives max(1, min(DEFAULT_EDGE_SITES, L // 4)),
    so that the two windows cover at most half the chain."""
    L = es.num_sites
    if ell is None:
        ell = max(1, min(DEFAULT_EDGE_SITES, L // 4))
    if not (1 <= ell <= L // 2):
        raise ConfigError(f"ell must lie in [1, L/2], got {ell}")
    if not (0.0 <= w_edge <= 1.0):
        raise ConfigError(f"w_edge must lie in [0, 1], got {w_edge}")
    rho, com, pr = density_profile(es.right, L)
    edge = rho[:, :ell].sum(axis=1) + rho[:, L - ell:].sum(axis=1)
    return StateTable(energy=es.values, density=rho, center_of_mass=com,
                      participation_ratio=pr, edge_weight=edge, is_edge=edge > w_edge)


def skin_metrics(es: EigenSystem, tau_skin: float = DEFAULT_TAU_SKIN,
                 ell: int | None = None,
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
