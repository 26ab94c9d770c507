"""Finite open-chain quantization condition from the exponential ansatz.

Writing a bulk state as a superposition of the four beta^n exponentials
and imposing the truncated equations of motion at both ends gives four
linear conditions on the amplitudes phi_a^(j).  With the per-root
amplitude ratio

    r_j = phi_b / phi_a
        = delta (beta_j - beta_j^-1) / (E - (t + gamma/2) beta_j^-1
                                          - (t - gamma/2) beta_j)

the condition rows are, per root j (columns in BRANCH_ORDER 1+, 2+, 1-, 2-):

    A_j            = E beta_j + (t + gamma/2) beta_j^2 + delta beta_j^2 r_j
    B_j            = r_j (E beta_j - (t - gamma/2) beta_j^2) - delta beta_j^2
    C_j beta^(L-1) : C_j = E beta_j + (t - gamma/2) - delta r_j
    D_j beta^L     : D_j = delta (E beta_j - 2 t) / denom_j

and an open-chain energy E is characterized by the vanishing of the
4x4 determinant.  These rows come from substituting the amplitude ratio
into the truncated end equations; the regression tests pin them against
the finite-chain spectrum at L = 6.

The near-end rows (A, B) and the far-end rows (C, D beta), whose column
j shares the factor beta_j^(L-1), split the determinant by Laplace
expansion into six terms sign(S) top(S) bot(S^c) exp(g_S^c), one per
column pair S: top and bot are the 2x2 minors of rows (A, B) and
(C, D beta), and g_j = (L-1) log beta_j stays a logarithm because
beta^L leaves double range at moderate L (|beta| ~ 16 past L ~ 256).
Determinants are reported relative to the largest Leibniz term, the
largest over S of the larger product of top(S) times that of bot(S^c)
times |exp|: a ratio invariant under row or column rescaling, O(1) off
the spectrum and at rounding level on it.  The two terms whose far-end
columns hold the outer root and one middle root balance on a continuum
band: `continuum_ratio` (Yokomizo and Murakami, PRL 123, 066404
(2019)).  L is the spec's `num_sites`; every function takes n energies.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDenominator
from .model import ModelSpec
from .nonbloch import solve_beta, unit_couplings, unit_energies

# The six column pairs (a, b) of the Laplace expansion and their signs
# (-1)^(a+b+1); pair 5 - k is the complement of pair k, with the same sign.
_PAIR_A, _PAIR_B = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).T
_SIGNS = (-1.0) ** (_PAIR_A + _PAIR_B + 1)

_DENOM_FLOOR = 1e-12


def boundary_coeffs(spec: ModelSpec, E, roots: np.ndarray) -> np.ndarray:
    """End-condition coefficients: an (n, 4, k) array whose [:, :, j] is
    (A_j, B_j, C_j, D_j) of roots[:, j], for n energies E and k roots each.

    Each is linear in the energies and is taken at unit scale (couplings
    and E divided by the 2^e of `unit_couplings`), in range at any scale.
    Raises SingularDenominator when the amplitude-ratio denominator of
    some root is within 1e-12 (relative to the energy scale) of zero.
    """
    e, t, g, d = unit_couplings(spec)
    given = np.asarray(E, dtype=complex).ravel()
    E = unit_energies(given, e)[:, None]
    b = np.asarray(roots, dtype=complex)
    scale = np.maximum(np.abs(E), max(abs(t), abs(g), abs(d)))
    bi = 1.0 / b
    denom = E - (t + g / 2.0) * bi - (t - g / 2.0) * b
    bad = np.argwhere(np.abs(denom) <= _DENOM_FLOOR * scale)
    if bad.size:
        i, j = bad[0]
        raise SingularDenominator(f"amplitude-ratio denominator ~ 0 for root "
                                  f"{complex(b[i, j])} at E = {complex(given[i])}")
    r = d * (b - bi) / denom
    A = E * b + (t + g / 2.0) * b * b + d * b * b * r
    B = r * (E * b - (t - g / 2.0) * b * b) - d * b * b
    C = E * b + (t - g / 2.0) - d * r
    D = d * (E * b - 2.0 * t) / denom
    return np.stack([A, B, C, D], axis=1)


def _minors(spec: ModelSpec, E):
    """The Laplace table at the n energies E: (b, minors, largest, g), with
    b the `solve_beta` roots.  minors[0][:, k] is A_a B_b - A_b B_a on
    column pair k = (a, b) and minors[1][:, k] is C_a D_b b_b - C_b D_a b_a;
    largest holds the larger modulus of each minor's two products, and
    g = (L-1) log b."""
    b = solve_beta(spec, E)
    A, B, C, D = boundary_coeffs(spec, E, b).transpose(1, 0, 2)
    i, j = _PAIR_A, _PAIR_B
    products = np.stack([[A[:, i] * B[:, j], A[:, j] * B[:, i]],
                         [C[:, i] * D[:, j] * b[:, j], C[:, j] * D[:, i] * b[:, i]]])
    return (b, products[:, 0] - products[:, 1], np.abs(products).max(axis=1),
            (spec.num_sites - 1) * np.log(b))


def boundary_determinant(spec: ModelSpec, E) -> np.ndarray:
    """Condition determinant normalized by its largest Leibniz term, at
    each energy of E.

    Zero (to rounding) exactly at the eigenvalues of the open chain of
    spec.num_sites sites; O(1) away from them.  The determinant is the
    sum of the six Laplace terms of the module docstring, each with its
    far-end powers of beta as one exponential relative to the largest
    pair of columns, so at any L only terms below ~1e-308 of the
    largest underflow.
    """
    _, (top, bot), (top_max, bot_max), g = _minors(spec, E)
    g = g - np.sort(g.real, axis=1)[:, -2:].sum(axis=1, keepdims=True) / 2
    far = g[:, _PAIR_A] + g[:, _PAIR_B]  # far[:, k]: the powers of far-end pair k
    det = (_SIGNS * top[:, ::-1] * bot * np.exp(far)).sum(axis=1)
    largest = (top_max[:, ::-1] * bot_max * np.exp(far.real)).max(axis=1)
    return det / np.maximum(largest, 1e-300)


def continuum_ratio(spec: ModelSpec, E) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the two-leading-terms balance, at each energy of E.

    On a continuum band the two Laplace terms whose far-end columns hold
    the outer root and one middle root dominate, and their sum vanishes.
    When the middle modulus pair is the '-' branch that reads

        (beta_1- / beta_2-)^(L-1) =
            (A_1+ B_1- - A_1- B_1+)(C_2+ D_2- b_2- - C_2- D_2+ b_2+)
          / (A_1+ B_2- - A_2- B_1+)(C_2+ D_1- b_1- - C_1- D_2+ b_2+)

    and the mirrored relation (all branch signs swapped) applies when
    the '+' pair is in the middle.  The exponent is L-1 because rows 3
    and 4 of column j share the factor b_j^(L-1).  The middle pair is
    picked by modulus rank, '-' on a tie: the '-' pair when
    |b_1+| <= |b_1-|.  The two sides agree at the bulk eigenvalues of
    the open chain of L = spec.num_sites sites, not at its two end modes
    near E = 0; on a continuum band |lhs| = 1.
    """
    b, (top, bot), _, _ = _minors(spec, E)
    minus = np.abs(b[:, 0]) <= np.abs(b[:, 2])
    lhs = np.where(minus, b[:, 2] / b[:, 3], b[:, 0] / b[:, 1]) ** (spec.num_sites - 1)
    # far-end pairs {2+, 2-} over {2+, 1-}, or {2-, 2+} over {2-, 1+}
    num = top[:, 1] * bot[:, 4]
    den = np.where(minus, top[:, 2] * bot[:, 3], top[:, 3] * bot[:, 2])
    if np.any(den == 0.0):
        E0 = complex(np.ravel(E)[den == 0.0][0])
        raise SingularDenominator(f"ratio denominator vanished at E = {E0}")
    return lhs, num / den
