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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import SingularDenominator, WrongCase
from .model import ModelSpec, validate_spec
from .nonbloch import (
    BetaQuartet,
    CASE_MINUS_MIDDLE,
    CASE_PLUS_MIDDLE,
    continuum_condition,
    solve_beta,
)

COLUMN_ORDER = ("1+", "1-", "2-", "2+")

_DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class BoundaryCoeffs:
    a: complex
    b: complex
    c: complex
    d: complex


def boundary_coeffs(spec: ModelSpec, E: complex, q: BetaQuartet) -> dict[str, BoundaryCoeffs]:
    """End-condition coefficients per root label.

    Raises SingularDenominator when the amplitude-ratio denominator of
    some root is within 1e-12 (relative to the energy scale) of zero.
    """
    validate_spec(spec)
    t, g, d = spec.t, spec.gamma, spec.delta
    E = complex(E)
    scale = max(abs(E), abs(t), abs(g), abs(d), 1.0)
    out = {}
    for label, b in q.roots.items():
        bi = 1.0 / b
        denom = E - (t + g / 2.0) * bi - (t - g / 2.0) * b
        if abs(denom) <= _DENOM_FLOOR * scale:
            raise SingularDenominator(
                f"amplitude-ratio denominator ~ 0 for root {label} at E = {E}"
            )
        r = d * (b - bi) / denom
        A = E * b + (t + g / 2.0) * b * b + d * b * b * r
        B = r * (E * b - (t - g / 2.0) * b * b) - d * b * b
        C = E * b + (t - g / 2.0) - d * r
        Dc = d * (E * b - 2.0 * t) / denom
        out[label] = BoundaryCoeffs(a=complex(A), b=complex(B),
                                    c=complex(C), d=complex(Dc))
    return out


def boundary_matrix(spec: ModelSpec, E: complex, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4x4 condition matrix in factored form (M, g).

    M has rows (A_j, B_j, C_j, D_j b_j) and g_j = (L-1) log b_j: the
    condition matrix, rows (A_j, B_j, C_j b^(L-1), D_j b^L), is M with
    rows 3 and 4 of column j times exp(g_j).  The powers stay logs
    because b^L leaves double range at moderate L (|b| ~ 16 past L ~ 256).
    """
    q = solve_beta(spec, E)
    if len(q.roots) < 4:
        raise SingularDenominator("degenerate quartic: no 4x4 condition matrix")
    coeffs = boundary_coeffs(spec, E, q)
    b = np.array([q.roots[label] for label in COLUMN_ORDER])
    M = np.array([[c.a, c.b, c.c, c.d] for c in map(coeffs.get, COLUMN_ORDER)]).T
    M[3] *= b
    return M, (L - 1) * np.log(b)


def _leibniz_terms(M: np.ndarray, g: np.ndarray) -> list[complex]:
    """Signed Leibniz terms of the factored matrix (M, g), each divided by
    the largest |exp(g_j + g_k)| over two distinct columns: no term
    overflows, and only terms below ~1e-308 of that scale underflow."""
    M, g = M.tolist(), (g - np.sort(g.real)[-2:].sum() / 2).tolist()
    terms = []
    for p in permutations(range(4)):
        sgn = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sgn = -sgn
        terms.append(sgn * M[0][p[0]] * M[1][p[1]] * M[2][p[2]] * M[3][p[3]]
                     * cmath.exp(g[p[2]] + g[p[3]]))
    return terms


def boundary_determinant(spec: ModelSpec, E: complex, L: int) -> complex:
    """Condition determinant normalized by its largest Leibniz term.

    Zero (to rounding) exactly at open-chain eigenvalues of length L;
    O(1) away from them.  The determinant is the sum of the 24 Leibniz
    terms of `boundary_matrix`, each with its two powers of beta taken
    as one exponential relative to the largest pair; rows are pre-scaled
    to unit max magnitude.  The reported ratio is independent of both
    scalings, and at any L only terms below ~1e-308 of the largest
    underflow.
    """
    M, g = boundary_matrix(spec, E, L)
    terms = _leibniz_terms(M / np.maximum(np.abs(M).max(axis=1, keepdims=True), 1e-300), g)
    biggest = max(abs(x) for x in terms)
    return complex(sum(terms) / max(biggest, 1e-300))


def continuum_ratio(spec: ModelSpec, E: complex, L: int) -> tuple[complex, complex]:
    """Both sides of the two-leading-terms balance at a band energy.

    When the middle modulus pair is the '-' branch the relation reads

        (beta_1- / beta_2-)^L =
            (A_1+ B_1- - A_1- B_1+)(C_2- D_2+ b_2+ - C_2+ D_2- b_2-)
          / (A_1+ B_2- - A_2- B_1+)(C_1- D_2+ b_2+ - C_2+ D_1- b_1-)

    and the mirrored relation (all branch signs swapped) applies when
    the '+' pair is in the middle.  On a continuum band |lhs| = 1, and
    the right side stays of order one.  Raises WrongCase when neither
    modulus ordering holds at this energy.
    """
    q = solve_beta(spec, E)
    case = continuum_condition(q)
    if case == CASE_MINUS_MIDDLE:
        p, m = "+", "-"
    elif case == CASE_PLUS_MIDDLE:
        p, m = "-", "+"
    else:
        raise WrongCase(f"no continuum ordering at E = {E}")
    cf = boundary_coeffs(spec, E, q)
    b = q.roots
    A = {k: v.a for k, v in cf.items()}
    B = {k: v.b for k, v in cf.items()}
    C = {k: v.c for k, v in cf.items()}
    D = {k: v.d for k, v in cf.items()}
    lhs = (b["1" + m] / b["2" + m]) ** L
    num = ((A["1" + p] * B["1" + m] - A["1" + m] * B["1" + p])
           * (C["2" + m] * D["2" + p] * b["2" + p]
              - C["2" + p] * D["2" + m] * b["2" + m]))
    den = ((A["1" + p] * B["2" + m] - A["2" + m] * B["1" + p])
           * (C["1" + m] * D["2" + p] * b["2" + p]
              - C["2" + p] * D["1" + m] * b["1" + m]))
    if den == 0.0:
        raise SingularDenominator(f"ratio denominator vanished at E = {E}")
    return complex(lhs), complex(num / den)
