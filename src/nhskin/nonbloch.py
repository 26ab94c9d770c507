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
`bloch_matrix` takes an array of beta; the Wilson loop takes one stacked
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
    """The four spatial decay factors at a given energy.

    roots maps the branch labels 1+/2+/1-/2- to the roots; within each
    x-branch, label 1 is the root of smaller modulus.  sorted_moduli is
    ascending; mid_modulus_gap = |m2 - m3|.  degenerate_leading marks the
    measure-zero parameter line where the quartic collapses to a single
    quadratic (two roots only, stored on the '+' branch).
    """

    energy: complex
    roots: dict[str, complex]
    sorted_moduli: np.ndarray
    continuum_case: str
    mid_modulus_gap: float
    degenerate_leading: bool = False

    def root_array(self) -> np.ndarray:
        return np.array([self.roots[k] for k in BRANCH_ORDER if k in self.roots])


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


def char_poly_residual(spec: ModelSpec, E: complex, beta: complex) -> complex:
    """The characteristic expression; zero iff (E, beta) is on shell.

    Equals det[H(beta) - E I] identically, which the tests cross-check.
    """
    if beta == 0:
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


def continuum_condition(q: BetaQuartet, rtol: float = MID_EQUAL_RTOL) -> str:
    """Which modulus ordering with equal middle pair holds, if any.

    case1: the '-' branch pair sits in the middle with equal moduli;
    case2: the '+' branch pair does.  Equality is relative to the larger
    of the two middle moduli.
    """
    if q.degenerate_leading or len(q.roots) < 4:
        return CASE_NEITHER
    mods = {k: abs(v) for k, v in q.roots.items()}
    slack = 1.0 + rtol

    def ordered(lo, mid_a, mid_b, hi):
        equal = abs(mods[mid_a] - mods[mid_b]) <= rtol * max(mods[mid_a], mods[mid_b])
        below = mods[lo] <= min(mods[mid_a], mods[mid_b]) * slack
        above = mods[hi] * slack >= max(mods[mid_a], mods[mid_b])
        return equal and below and above

    if ordered("1+", "1-", "2-", "2+"):
        return CASE_MINUS_MIDDLE
    if ordered("1-", "1+", "2+", "2-"):
        return CASE_PLUS_MIDDLE
    return CASE_NEITHER


def solve_beta(spec: ModelSpec, E: complex) -> BetaQuartet:
    """Solve the quartic for the four decay factors at energy E.

    Goes through the x = beta - beta^-1 substitution: a quadratic for x
    (both square-root signs retained, so the branch cut drops out), then
    beta^2 - x beta - 1 = 0 per branch.  The pair product -1 is exact by
    construction.  On the degenerate line delta^2 - t^2 + gamma^2/4 = 0
    the quartic loses two roots; the reduced linear equation is solved
    and the result flagged instead of silently perturbing.
    """
    validate_spec(spec)
    E = complex(E)
    a = _leading_coeff(spec)
    coeff_scale = max(spec.delta ** 2, spec.t ** 2, spec.gamma ** 2 / 4.0, 1e-300)
    if abs(a) <= 1e-14 * coeff_scale:
        if E * spec.gamma == 0.0:
            raise DegenerateLeadingCoeff(
                "quartic degenerates and the reduced equation is trivial"
            )
        x = -(E * E - 4.0 * spec.t ** 2) / (E * spec.gamma)
        pair = _beta_pair(x)
        roots = {"1+": pair[0], "2+": pair[1]}
        mods = np.sort(np.abs(np.array(pair)))
        return BetaQuartet(
            energy=E, roots=roots, sorted_moduli=mods,
            continuum_case=CASE_NEITHER,
            mid_modulus_gap=float(abs(mods[1] - mods[0])),
            degenerate_leading=True,
        )
    disc = (E * spec.gamma) ** 2 - 4.0 * a * (E * E - 4.0 * spec.t ** 2)
    sq = np.sqrt(complex(disc))
    roots: dict[str, complex] = {}
    for label, x in (("+", (-E * spec.gamma + sq) / (2.0 * a)),
                     ("-", (-E * spec.gamma - sq) / (2.0 * a))):
        b1, b2 = _beta_pair(x)
        roots["1" + label], roots["2" + label] = b1, b2
    mods = np.sort(np.abs(np.array([roots[k] for k in BRANCH_ORDER])))
    quartet = BetaQuartet(
        energy=E, roots=roots, sorted_moduli=mods,
        continuum_case=CASE_NEITHER,
        mid_modulus_gap=float(abs(mods[2] - mods[1])),
    )
    quartet.continuum_case = continuum_condition(quartet)
    return quartet


def _beta_pair(x: complex) -> tuple[complex, complex]:
    """Roots of beta^2 - x beta - 1 = 0, smaller modulus first."""
    r = np.sqrt(complex(x * x + 4.0))
    b1 = (x + r) / 2.0
    b2 = (x - r) / 2.0
    if abs(b1) > abs(b2) or (abs(b1) == abs(b2) and np.angle(b1) > np.angle(b2)):
        b1, b2 = b2, b1
    return complex(b1), complex(b2)


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


def gbz_modulus_report(spec: ModelSpec, energies) -> list[dict]:
    """Per-energy quartet moduli and the deviation of the middle pair from 1."""
    energies = list(energies)
    if not energies:
        raise ConfigError("energies must be nonempty")
    rows = []
    for E in energies:
        q = solve_beta(spec, complex(E))
        m = q.sorted_moduli
        mid_dev = float(max(abs(m[1] - 1.0), abs(m[2] - 1.0))) if len(m) == 4 else float("nan")
        rows.append({
            "energy": complex(E),
            "moduli": m,
            "case": q.continuum_case,
            "mid_gap": q.mid_modulus_gap,
            "mid_deviation": mid_dev,
        })
    return rows


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


def _check_unit_circle(spec: ModelSpec, rtol: float = MID_EQUAL_RTOL) -> None:
    for E in band_energies(spec, 16):
        q = solve_beta(spec, E)
        m = q.sorted_moduli
        if len(m) < 4 or max(abs(m[1] - 1.0), abs(m[2] - 1.0)) > rtol:
            raise GbzNotCircle(
                f"middle moduli off the unit circle at band energy {E}"
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
