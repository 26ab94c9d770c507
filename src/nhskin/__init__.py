"""nhskin: skin-effect diagnostics for 1D non-reciprocal lattice chains.

Builds the doubled (particle/hole) chain with asymmetric hopping, real
pairing and an optional period-3 onsite potential; tests combined
reflection symmetries as a criterion for whether bulk states pile up at
the boundary; and cross-checks the verdict with dense-diagonalization
diagnostics, the complex decay-factor (beta) analysis of bulk states,
band geometric phases, and a finite-chain boundary determinant.
"""

from .model import Bonds, ModelSpec, OBC, PBC, bonds, build_bdg
from .symmetry import (
    SymmetryOp,
    Verdict,
    commutator_residual,
    default_candidates,
    is_reducible,
    ring_candidates,
    theorem_verdict,
)
from .spectra import (
    EigenSystem,
    SkinReport,
    StateTable,
    classify_states,
    density_profile,
    eigendecompose,
    skin_metrics,
)
from .nonbloch import (
    band_energies,
    continuum_condition,
    solve_beta,
    zak_phase,
)
from .boundary import (
    boundary_coeffs,
    boundary_determinant,
    continuum_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Bonds", "ModelSpec", "OBC", "PBC", "bonds", "build_bdg",
    "SymmetryOp", "Verdict",
    "commutator_residual", "default_candidates", "is_reducible",
    "ring_candidates", "theorem_verdict",
    "EigenSystem", "SkinReport", "StateTable", "classify_states",
    "density_profile", "eigendecompose", "skin_metrics",
    "band_energies", "continuum_condition", "solve_beta", "zak_phase",
    "boundary_coeffs", "boundary_determinant", "continuum_ratio",
]
