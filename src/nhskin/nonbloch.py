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
extended.  At beta = e^{ik}, H = -i gamma sin k I + d(k) . sigma with
d = (0, 2 delta sin k, -2t cos k): `band_energies` samples its bands
and `zak_phase` gives their geometric phase around the circle, both
from closed forms.  `solve_beta` takes an array of energies and returns
an (n, 4) root array; on the line delta^2 - t^2 + gamma^2/4 = 0, where
the quartic keeps two roots only, `solve_beta` and `zak_phase` refuse.
Every non-Bloch and boundary function first calls `unit_couplings`,
which refuses V != 0 and divides the couplings (and the energies) by a
power of two: the roots depend only on their ratios, and no square
overflows and no floor moves at any coupling scale.
"""

from __future__ import annotations

import numpy as np

from .errors import (BandTouching, ConfigError, DegenerateLeadingCoeff, NonFinite,
                     UnsupportedPotential)
from .model import ModelSpec

BRANCH_ORDER = ("1+", "2+", "1-", "2-")

CASE_MINUS_MIDDLE = "case1"  # |b_1+| <= |b_1-| = |b_2-| <= |b_2+|
CASE_PLUS_MIDDLE = "case2"   # |b_1-| <= |b_1+| = |b_2+| <= |b_2-|
CASE_NEITHER = "neither"

MID_EQUAL_RTOL = 1e-6


def unit_couplings(spec: ModelSpec) -> tuple[int, float, float, float]:
    """The domain gate of every non-Bloch and boundary function: refuses
    V != 0, and returns e, t / 2^e, gamma / 2^e and delta / 2^e, with 2^e
    the power of two at or below the largest coupling magnitude (exact;
    e = 0 when that magnitude lies in [1, 2))."""
    if spec.big_v != 0.0:
        raise UnsupportedPotential("the decay-factor and boundary analysis require V = 0")
    e = int(np.frexp(max(abs(spec.t), abs(spec.gamma), abs(spec.delta)))[1]) - 1
    return (e, *(float(np.ldexp(x, -e)) for x in (spec.t, spec.gamma, spec.delta)))


def unit_energies(E, e: int) -> np.ndarray:
    """E / 2^e, exactly, as a flat complex array; NonFinite for a NaN or
    infinite energy, ConfigError for one whose real or imaginary part
    passes 1e60 at unit scale.  That bound lies well inside what the
    quartic (finite to ~1e150) and the boundary minors (~1e78) survive."""
    E = np.asarray(E, dtype=complex).ravel()
    if not np.isfinite(E).all():
        raise NonFinite(f"energy {complex(E[~np.isfinite(E)][0])} is not finite")
    Es = np.ldexp(E.view(float), -e).view(complex)
    huge = np.abs(Es.view(float)).reshape(-1, 2).max(axis=1) > 1e60
    if huge.any():
        raise ConfigError(f"energy {complex(E[huge][0])} is out of range: "
                          f"past 1e60 times the coupling scale")
    return Es


def leading_coeff(t: float, gamma: float, delta: float) -> float:
    """a = delta^2 - t^2 + gamma^2/4 of unit-scale couplings, refused where
    it vanishes (relative to them) and the quartic keeps two roots."""
    a = delta ** 2 - t ** 2 + gamma ** 2 / 4.0
    if abs(a) <= 1e-14 * max(delta ** 2, t ** 2, gamma ** 2 / 4.0):
        raise DegenerateLeadingCoeff(
            "on the line delta^2 - t^2 + gamma^2/4 = 0 the quartic has two roots, not four")
    return a


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


def solve_beta(spec: ModelSpec, E) -> np.ndarray:
    """Solve the quartic for the four decay factors at each energy of E.

    Returns an (n, 4) complex array whose column j is branch
    BRANCH_ORDER[j]; within each x-branch, label 1 is the root of
    smaller modulus.

    Goes through the x = beta - beta^-1 substitution: a quadratic for x
    (both square-root signs retained, so the branch cut drops out), then
    beta^2 - x beta - 1 = 0 per branch.  Each quadratic's smaller root
    comes from its root product, not from a difference that cancels, so
    the middle moduli stay on the unit circle at band energies (to ~3e-8)
    also 1e-13 next to the degenerate line.  The pair product -1 is exact
    by construction.  Every caller needs four roots, so on the line of
    `leading_coeff` it raises DegenerateLeadingCoeff.
    """
    e, t, gamma, delta = unit_couplings(spec)
    a = leading_coeff(t, gamma, delta)
    Es = unit_energies(E, e)
    Eg, c = Es * gamma, Es * Es - 4.0 * t ** 2
    sq = np.sqrt(Eg ** 2 - 4.0 * a * c)
    # a x^2 + E gamma x + c = 0: the larger root from the sign of sq that
    # does not cancel against -E gamma, the smaller from the root product
    # c / a; column 0 is the +sq branch, column 1 the -sq branch
    plus = (Eg.conj() * sq).real < 0.0
    q = -Eg - np.where(plus, -sq, sq)
    large = q / (2.0 * a)
    # q = 0 or subnormal (1/q overflows): both |x| <= |q| / (2 |a|) < 1e-290, taken as 0
    small = np.divide(2.0 * c, q, out=np.zeros_like(q), where=np.abs(q) >= np.finfo(float).tiny)
    x = np.where(plus[:, None], np.stack([large, small], axis=1),
                 np.stack([small, large], axis=1))
    # roots (x +- r) / 2 of beta^2 - x beta - 1 = 0 per branch: the larger
    # without cancellation, the smaller as -1 over it; smaller modulus first
    r = np.sqrt(x * x + 4.0)
    r = np.where((x.conj() * r).real < 0.0, -r, r)
    big = (x + r) / 2.0
    pair = np.stack([big, -1.0 / big], axis=2)
    m, ang = np.abs(pair), np.angle(pair)
    swap = (m[..., 0] > m[..., 1]) | ((m[..., 0] == m[..., 1]) & (ang[..., 0] > ang[..., 1]))
    return np.where(swap[..., None], pair[..., ::-1], pair).reshape(-1, 4)


def band_energies(spec: ModelSpec, num_k: int) -> np.ndarray:
    """The bands E+-(k) = -i gamma sin k +- 2 sqrt(t^2 cos^2 k + delta^2 sin^2 k)
    of H(e^{ik}) (Yao and Wang, PRL 121, 086803 (2018)), interleaved as
    E+(k_0), E-(k_0), E+(k_1), ...

    These are the bulk-band energies the open chain converges to; exact
    finite-chain eigenvalues sit within O(1/L) of this set.  The grid is
    k = 2 pi m / num_k, m = 0 .. num_k - 1.
    """
    unit_couplings(spec)
    if num_k < 1:
        raise ConfigError("num_k must be positive")
    k = 2.0 * np.pi * np.arange(num_k) / num_k
    half_gap = 2.0 * np.hypot(spec.t * np.cos(k), spec.delta * np.sin(k))
    shift = -1j * spec.gamma * np.sin(k)
    return np.stack([shift + half_gap, shift - half_gap], axis=1).ravel()


def gbz_modulus_report(spec: ModelSpec, energies) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The derived columns of the GBZ table at each energy: the four root
    moduli in ascending order (n, 4), the `continuum_condition` case and
    the middle gap |m3 - m2|."""
    roots = solve_beta(spec, energies)
    mods = np.sort(np.abs(roots), axis=1)
    return mods, continuum_condition(roots), np.abs(mods[:, 2] - mods[:, 1])


def zak_phase(spec: ModelSpec) -> float:
    """Geometric phase of either band transported once around the unit circle.

    The identity part of H(e^{ik}) (module docstring) leaves the
    eigenvectors alone, so the biorthogonal loop phase is the Berry phase
    of the Hermitian, planar d . sigma: pi times the winding of
    (-2t cos k, 2 delta sin k) about the origin (Zak, PRL 62, 2747
    (1989); Lieu, PRB 97, 045106 (2018)).  That winding is +-1 whenever t
    and delta are nonzero, the same for both bands and for any loop
    discretization, so the phase is pi (the phase with protected end
    modes).  With delta = 0 the matrix is diagonal with constant
    eigenvectors and the phase is 0.  The gap E+ - E- has minimum
    4 min(|t|, |delta|); at most 1e-8 at unit scale it raises BandTouching.
    """
    e, t, gamma, delta = unit_couplings(spec)
    leading_coeff(t, gamma, delta)
    if delta == 0.0:
        return 0.0
    gap = 4.0 * min(abs(t), abs(delta))
    if gap <= 1e-8:
        raise BandTouching(f"minimum band gap {np.ldexp(gap, e):.2e} on the unit circle")
    return float(np.pi)
