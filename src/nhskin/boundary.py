"""Finite open-chain quantization condition from the exponential ansatz.

Writing a bulk state as a superposition of the four beta^n exponentials
and imposing the truncated equations of motion at both ends gives four
linear conditions on the amplitudes phi_a^(j).  With the per-root
amplitude ratio

    r_j = phi_b / phi_a
        = delta (beta_j - beta_j^-1) / (E - (t + gamma/2) beta_j^-1
                                          - (t - gamma/2) beta_j)

the condition rows are, per root j (columns ordered 1+, 1-, 2-, 2+):

    A_j            = E beta_j + (t + gamma/2) beta_j^2 + delta beta_j^2 r_j
    B_j            = r_j (E beta_j - (t - gamma/2) beta_j^2) - delta beta_j^2
    C_j beta^(L-1) : C_j = E beta_j + (t - gamma/2) - delta r_j
    D_j beta^L     : D_j = delta (E beta_j - 2 t) / denom_j

and an open-chain energy E is characterized by the vanishing of the
4x4 determinant.  These rows come from substituting the amplitude ratio
into the truncated end equations; the regression tests pin them against
the finite-chain spectrum at L = 6.

Determinants are reported relative to the largest term of the Leibniz
expansion.  That ratio is invariant under any row or column rescaling,
stays O(1) off the spectrum, and drops to rounding level exactly at the
quantized energies, while raw determinants over/underflow once beta^L
spans many decades.  The powers beta^L are therefore kept as logarithms
and enter each Leibniz term relative to the largest pair of columns.
The chain length L is the spec's `num_sites`.  Every function takes an
array of n energies: the 24 Leibniz terms of all n matrices come from
one gather over a fixed (24, 4) permutation table with its signs.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import SingularDenominator
from .model import ModelSpec
from .nonbloch import solve_beta, unit_couplings, unit_energies

# Columns of the condition matrix, as indices into BRANCH_ORDER: 1+, 1-, 2-, 2+.
COLUMN_ORDER = np.array([0, 2, 3, 1])

# The 24 permutations of four columns and their signs (-1)^inversions,
# for the Leibniz sum.
PERMUTATIONS = np.array(list(permutations(range(4))))
PERMUTATION_SIGNS = (-1.0) ** np.triu(
    PERMUTATIONS[:, :, None] > PERMUTATIONS[:, None, :]).sum(axis=(1, 2))

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


def boundary_matrix(spec: ModelSpec, E) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 condition matrices at the n energies E, in factored form
    (M, g) of shapes (n, 4, 4) and (n, 4).

    M has rows (A_j, B_j, C_j, D_j b_j) and g_j = (L-1) log b_j: the
    condition matrix, rows (A_j, B_j, C_j b^(L-1), D_j b^L), is M with
    rows 3 and 4 of column j times exp(g_j).  The powers stay logs
    because b^L leaves double range at moderate L (|b| ~ 16 past L ~ 256).
    """
    q = solve_beta(spec, E)
    b = q.roots[:, COLUMN_ORDER]
    M = boundary_coeffs(spec, q.energy, b)
    M[:, 3] *= b
    return M, (spec.num_sites - 1) * np.log(b)


def boundary_determinant(spec: ModelSpec, E) -> np.ndarray:
    """Condition determinant normalized by its largest Leibniz term, at
    each energy of E.

    Zero (to rounding) exactly at the eigenvalues of the open chain of
    spec.num_sites sites; O(1) away from them.  The determinant is the
    sum of the 24 Leibniz terms of `boundary_matrix`, each with its two
    powers of beta taken as one exponential relative to the largest pair
    of columns; rows are pre-scaled to unit max magnitude.  The reported
    ratio is independent of both scalings, and at any L only terms below
    ~1e-308 of the largest underflow.
    """
    M, g = boundary_matrix(spec, E)
    M = M / np.maximum(np.abs(M).max(axis=2, keepdims=True), 1e-300)
    g = g - np.sort(g.real, axis=1)[:, -2:].sum(axis=1, keepdims=True) / 2
    P = PERMUTATIONS
    terms = (PERMUTATION_SIGNS * M[:, np.arange(4), P].prod(axis=2)
             * np.exp(g[:, P[:, 2]] + g[:, P[:, 3]]))
    return terms.sum(axis=1) / np.maximum(np.abs(terms).max(axis=1), 1e-300)


def continuum_ratio(spec: ModelSpec, E) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the two-leading-terms balance, at each energy of E.

    When the middle modulus pair is the '-' branch the relation reads

        (beta_1- / beta_2-)^(L-1) =
            (A_1+ B_1- - A_1- B_1+)(C_2- D_2+ b_2+ - C_2+ D_2- b_2-)
          / (A_1+ B_2- - A_2- B_1+)(C_1- D_2+ b_2+ - C_2+ D_1- b_1-)

    and the mirrored relation (all branch signs swapped) applies when
    the '+' pair is in the middle.  The exponent is L-1 because rows 3
    and 4 of column j share the factor b_j^(L-1).  The middle pair is
    picked by modulus rank, '-' on a tie: the '-' pair when
    |b_1+| <= |b_1-|.  The two sides agree at the bulk eigenvalues of
    the open chain of L = spec.num_sites sites, not at its two end modes
    near E = 0; on a continuum band |lhs| = 1.
    """
    q = solve_beta(spec, E)
    cf = boundary_coeffs(spec, q.energy, q.roots)
    # per energy, the indices of 1p, 2p, 1m, 2m into BRANCH_ORDER
    idx = np.where((np.abs(q.roots[:, 0]) <= np.abs(q.roots[:, 2]))[:, None],
                   [0, 1, 2, 3], [2, 3, 0, 1])
    b = np.take_along_axis(q.roots, idx, axis=1).T
    A, B, C, D = np.take_along_axis(cf, idx[:, None], axis=2).transpose(1, 2, 0)
    # index 0, 1, 2, 3 of b, A, B, C, D is 1p, 2p, 1m, 2m
    lhs = (b[2] / b[3]) ** (spec.num_sites - 1)
    num = (A[0] * B[2] - A[2] * B[0]) * (C[3] * D[1] * b[1] - C[1] * D[3] * b[3])
    den = (A[0] * B[3] - A[3] * B[0]) * (C[2] * D[1] * b[1] - C[1] * D[2] * b[2])
    if np.any(den == 0.0):
        E0 = complex(q.energy[den == 0.0][0])
        raise SingularDenominator(f"ratio denominator vanished at E = {E0}")
    return lhs, num / den
