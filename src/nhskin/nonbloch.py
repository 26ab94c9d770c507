"""Non-Bloch band machinery for the translation-invariant chain (V = 0).

Bulk states of the open chain are superpositions of exponentials
beta^n.  For this two-band model the admissible beta at energy E solve

    (delta^2 - t^2 + gamma^2/4) (beta^2 + beta^-2 - 2)
        + E gamma (beta - beta^-1) + (E^2 - 4 t^2) = 0,

which is the determinant of the 2x2 momentum-space matrix

    H(beta) = (gamma/2)(beta^-1 - beta) I - t (beta^-1 + beta) sigma_z
              + i delta (beta^-1 - beta) sigma_y

continued to complex beta.  Substituting x = beta - beta^-1 reduces the
quartic to a quadratic in x; each x-branch then yields a pair of roots
of beta^2 - x beta - 1 = 0 whose product is exactly -1, so the four
moduli come in reciprocal pairs.  A continuum band requires the two
middle moduli to coincide, which combined with the pair products forces
them onto the unit circle: open-chain bulk states of this chain stay
extended.  The loop integral of the band eigenvectors around that circle
(a discretized Wilson loop over biorthogonal pairs) gives the band's
geometric phase; +-pi signals the phase with protected end modes.
`bloch_matrix` takes an array of beta and `solve_beta` an array of
energies, returning an (n, 4) root array; the Wilson loop takes one stacked
`eig` per block of BLOCK grid points, so its eigensolver stacks stay
bounded, and pairs each right vector with a row of the closed-form 2x2
inverse of the right-vector matrix, as `spectra.eigendecompose` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BandTouching,
    ConfigError,
    DegenerateLeadingCoeff,
    GbzNotCircle,
    UnsupportedPotential,
    ZeroBeta,
)
from .model import ModelSpec, validate_spec

BRANCH_ORDER = ("1+", "2+", "1-", "2-")

CASE_MINUS_MIDDLE = "case1"  # |b_1+| <= |b_1-| = |b_2-| <= |b_2+|
CASE_PLUS_MIDDLE = "case2"   # |b_1-| <= |b_1+| = |b_2+| <= |b_2-|
CASE_NEITHER = "neither"

MID_EQUAL_RTOL = 1e-6

# Grid points per Wilson-loop block in zak_phase; bounds its eig stacks.
BLOCK = 1024


@dataclass
class BetaQuartet:
    """The four spatial decay factors at each of n energies.

    roots[:, j] is branch BRANCH_ORDER[j]; within each x-branch, label 1
    is the root of smaller modulus.  sorted_moduli is ascending along
    each row; mid_modulus_gap = |m3 - m2|.  degenerate_leading marks the
    measure-zero parameter line where the quartic collapses to a single
    quadratic: its two roots are on the '+' branch and the '-' columns,
    the two largest moduli and the gap are NaN.
    """

    energy: np.ndarray
    roots: np.ndarray
    sorted_moduli: np.ndarray
    continuum_case: np.ndarray
    mid_modulus_gap: np.ndarray
    degenerate_leading: bool = False

    @property
    def mid_deviation(self) -> np.ndarray:
        """GBZ deviation max(|m2 - 1|, |m3 - 1|) per energy; NaN if degenerate."""
        return np.abs(self.sorted_moduli[:, 1:3] - 1.0).max(axis=1)


def _leading_coeff(spec: ModelSpec) -> float:
    return spec.delta ** 2 - spec.t ** 2 + spec.gamma ** 2 / 4.0


def bloch_matrix(spec: ModelSpec, beta) -> np.ndarray:
    """H(beta), the 2x2 momentum-space matrix at complex beta; an array
    of beta gives the stack of shape beta.shape + (2, 2)."""
    validate_spec(spec)
    if spec.big_v != 0.0:
        raise UnsupportedPotential("bloch_matrix is defined for V = 0 only")
    if np.any(beta == 0):
        raise ZeroBeta("beta must be nonzero")
    bi = 1.0 / beta
    diff = bi - beta
    s = bi + beta
    g2 = 0.5 * spec.gamma * diff
    H = np.array([[g2 - spec.t * s, spec.delta * diff],
                  [-spec.delta * diff, g2 + spec.t * s]], dtype=complex)
    return np.moveaxis(H, (0, 1), (-2, -1))


def char_poly_residual(spec: ModelSpec, E, beta):
    """The characteristic expression; zero iff (E, beta) is on shell.

    Equals det[H(beta) - E I] identically, which the tests cross-check.
    E and beta broadcast against each other.
    """
    if np.any(beta == 0):
        raise ZeroBeta("beta must be nonzero")
    a = _leading_coeff(spec)
    bi = 1.0 / beta
    return (a * (beta ** 2 + bi ** 2 - 2.0)
            + E * spec.gamma * (beta - bi)
            + (E * E - 4.0 * spec.t ** 2))


def quartic_coefficients(spec: ModelSpec, E: complex) -> list[complex]:
    """Coefficients of beta^4..beta^0 after clearing beta^-2."""
    a = _leading_coeff(spec)
    return [a, E * spec.gamma, E * E - 4.0 * spec.t ** 2 - 2.0 * a,
            -E * spec.gamma, a]


def continuum_condition(roots: np.ndarray) -> np.ndarray:
    """Which branch pair, if any, is the equal-modulus middle pair, per row
    of an (n, 4) root array in BRANCH_ORDER.

    case1: the '-' pair's moduli are equal; case2: the '+' pair's are.
    Equality is relative to the larger of the two.  Each pair multiplies
    to -1, so an equal pair sits at modulus 1 with the other pair's
    moduli on either side of it: it is the middle pair by rank.  When
    both pairs are equal, case1 is reported.  NaN roots give neither.
    """
    # labels 1 and 2 of each branch; column 0 is the '+' branch, 1 the '-'
    one, two = np.abs(roots[:, 0::2]), np.abs(roots[:, 1::2])
    equal = np.abs(one - two) <= MID_EQUAL_RTOL * np.maximum(one, two)
    return np.where(equal[:, 1], CASE_MINUS_MIDDLE,
                    np.where(equal[:, 0], CASE_PLUS_MIDDLE, CASE_NEITHER))


def _degenerate(spec: ModelSpec) -> bool:
    """On the line delta^2 - t^2 + gamma^2/4 = 0, relative to the couplings."""
    scale = max(spec.delta ** 2, spec.t ** 2, spec.gamma ** 2 / 4.0, 1e-300)
    return abs(_leading_coeff(spec)) <= 1e-14 * scale


def solve_beta(spec: ModelSpec, E) -> BetaQuartet:
    """Solve the quartic for the four decay factors at each energy of E.

    Goes through the x = beta - beta^-1 substitution: a quadratic for x
    (both square-root signs retained, so the branch cut drops out), then
    beta^2 - x beta - 1 = 0 per branch.  The pair product -1 is exact by
    construction.  On the degenerate line delta^2 - t^2 + gamma^2/4 = 0
    the quartic loses two roots; the reduced linear equation is solved
    and the result flagged instead of silently perturbing.
    """
    validate_spec(spec)
    E = np.asarray(E, dtype=complex).ravel()
    a = _leading_coeff(spec)
    Eg = E * spec.gamma
    c0 = E * E - 4.0 * spec.t ** 2
    degenerate = _degenerate(spec)
    if degenerate:
        if np.any(Eg == 0.0):
            raise DegenerateLeadingCoeff(
                "quartic degenerates and the reduced equation is trivial"
            )
        x = np.stack([-c0 / Eg, np.full_like(E, np.nan)], axis=1)
    else:
        sq = np.sqrt(Eg ** 2 - 4.0 * a * c0)
        x = np.stack([(-Eg + sq) / (2.0 * a), (-Eg - sq) / (2.0 * a)], axis=1)
    # roots of beta^2 - x beta - 1 = 0 per branch, smaller modulus first
    r = np.sqrt(x * x + 4.0)
    pair = np.stack([(x + r) / 2.0, (x - r) / 2.0], axis=2)
    m, ang = np.abs(pair), np.angle(pair)
    swap = (m[..., 0] > m[..., 1]) | ((m[..., 0] == m[..., 1]) & (ang[..., 0] > ang[..., 1]))
    roots = np.where(swap[..., None], pair[..., ::-1], pair).reshape(-1, 4)
    mods = np.sort(np.abs(roots), axis=1)
    return BetaQuartet(energy=E, roots=roots, sorted_moduli=mods,
                       continuum_case=continuum_condition(roots),
                       mid_modulus_gap=np.abs(mods[:, 2] - mods[:, 1]),
                       degenerate_leading=degenerate)


def band_energies(spec: ModelSpec, num_k: int, offset: float = 0.0) -> np.ndarray:
    """Energies of both bands sampled on the unit circle beta = e^{ik}.

    These are the bulk-band energies the open chain converges to; exact
    finite-chain eigenvalues sit within O(1/L) of this set.  A fractional
    grid `offset` shifts k by offset * 2 pi / num_k; offset = 0.5 avoids
    the band edges at k = 0 and pi, where some end-condition denominators
    have genuine 0/0 points.
    """
    validate_spec(spec)
    if num_k < 1:
        raise ConfigError("num_k must be positive")
    # real angles: numpy divides complex by int via the reciprocal
    beta = np.exp(1j * (2.0 * np.pi * (np.arange(num_k) + offset) / num_k))
    return np.linalg.eigvals(bloch_matrix(spec, beta)).ravel()


def gbz_modulus_report(spec: ModelSpec, energies) -> BetaQuartet:
    """The quartet at each energy, for the GBZ table.

    Refuses the degenerate line, where the quartet has two roots only.
    """
    energies = np.asarray(energies, dtype=complex).ravel()
    if not energies.size:
        raise ConfigError("energies must be nonempty")
    if _degenerate(spec):
        raise DegenerateLeadingCoeff(
            "on the line delta^2 - t^2 + gamma^2/4 = 0 the quartic has two roots, "
            "not the four moduli the GBZ table reports"
        )
    return solve_beta(spec, energies)


@dataclass
class ZakResult:
    band: str
    phase: float
    grid_points: int
    residual: float


def wilson_loop_phase(lefts, rights) -> float:
    """Phase of the discretized loop product of left/right overlaps.

    `lefts[k]` and `rights[k]` are the 2-vectors at grid point k.  Each
    (left, right) pair must satisfy left . right = 1; the product
    telescopes, so an extra nonzero scalar per grid point cancels.
    Result is mapped to (-pi, pi].
    """
    lefts = np.asarray(lefts, dtype=complex)
    rights = np.roll(np.asarray(rights, dtype=complex), -1, axis=0)
    phase = -np.imag(np.log(np.einsum("ki,ki->k", lefts, rights)).sum())
    phase = (phase + np.pi) % (2.0 * np.pi) - np.pi
    if phase <= -np.pi:
        phase += 2.0 * np.pi
    return float(phase)


def _check_unit_circle(spec: ModelSpec) -> None:
    E = band_energies(spec, 16)
    off = ~(solve_beta(spec, E).mid_deviation <= MID_EQUAL_RTOL)  # NaN is off
    if off.any():
        raise GbzNotCircle(
            f"middle moduli off the unit circle at band energy {E[off][0]}"
        )


def zak_phase(spec: ModelSpec, band: str = "plus", grid: int = 4096,
              gap_tol: float = 1e-8) -> ZakResult:
    """Geometric phase of one band transported once around the unit circle.

    The loop lives on beta = e^{2 pi i k / N}.  At each point the 2x2
    matrix is diagonalized; its left eigenvectors are the rows of the
    closed-form inverse [[d, -b], [-c, a]] / det of the right-vector
    matrix [[a, b], [c, d]], so left_i . right_j = delta_ij by
    construction.  The chosen band is followed by eigenvector-overlap
    continuity.  The band label fixes the starting member at k = 0:
    "plus" is the larger real part.  The residual is the largest overlap
    of the chosen left vector with the other unit right vector, i.e. the
    rounding of the inverse.

    Blocks of BLOCK points each take one stacked `eig`, so only the loop
    vectors are O(grid); continuity is an integer scan carried across
    blocks.  The first failing grid point raises BandTouching: a gap at
    most gap_tol, else a singular right-vector matrix.  Phase and
    residual agree with a point-by-point two-solve loop to rounding.

    With delta = 0 the matrix is diagonal with constant eigenvectors, so
    each internal component is its own band and the loop phase vanishes
    identically; that path bypasses the gap check, which would otherwise
    reject the harmless eigenvalue crossings of the two components.
    """
    validate_spec(spec)
    if band not in ("plus", "minus"):
        raise ConfigError(f"band must be 'plus' or 'minus', got {band!r}")
    if grid < 64:
        raise ConfigError(f"grid must be at least 64, got {grid}")
    if spec.big_v != 0.0:
        raise UnsupportedPotential("zak_phase is defined for V = 0 only")
    _check_unit_circle(spec)

    if spec.delta == 0.0:
        return ZakResult(band=band, phase=0.0, grid_points=grid, residual=0.0)

    lefts, rights = np.empty((2, grid, 2), dtype=complex)
    residual, carry = 0.0, None
    for start in range(0, grid, BLOCK):
        k = np.arange(start, min(start + BLOCK, grid))
        p = np.arange(len(k))
        w, VR = np.linalg.eig(bloch_matrix(spec, np.exp(1j * (2.0 * np.pi * k / grid))))
        a, b, c, d = VR.reshape(-1, 4).T
        det = a * d - b * c
        gap = np.abs(w[:, 0] - w[:, 1])
        bad = np.flatnonzero((gap <= gap_tol) | (det == 0.0))
        if bad.size:
            q = bad[0]
            if gap[q] <= gap_tol:
                raise BandTouching(f"band gap {gap[q]:.2e} at grid point {start + q}")
            raise BandTouching(f"left/right overlap vanished at grid point {start + q}")
        Lj = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2) / det[:, None, None]
        R = VR.swapaxes(1, 2)  # R[p, j] is right vector j, Lj[p, j] its left row
        prev = np.concatenate([Lj[:1] if carry is None else carry[None], Lj[:-1]])
        follow = np.argmax(np.abs(prev @ VR), axis=2).tolist()
        if carry is None:  # the band label picks the member at k = 0
            member = int(np.argmax(w[0].real) if band == "plus" else np.argmin(w[0].real))
            follow[0] = [member, member]
        sel = []
        for f in follow:
            member = f[member]
            sel.append(member)
        sel = np.array(sel)
        other = R[p, 1 - sel]
        cross = np.einsum("pi,pi->p", Lj[p, sel], other) / np.linalg.norm(other, axis=1)
        residual = max(residual, float(np.abs(cross).max()))
        lefts[k], rights[k], carry = Lj[p, sel], R[p, sel], Lj[-1]
    return ZakResult(band=band, phase=wilson_loop_phase(lefts, rights),
                     grid_points=grid, residual=residual)
