"""Exception taxonomy for the nhskin package.

Errors fall into two families: configuration problems (bad model
parameters, malformed selections) and numerical problems (failed or
ambiguous linear algebra, singular expressions).  The CLI maps these to
distinct exit codes.
"""


class NhskinError(Exception):
    """Base class for all package errors."""


class ConfigError(NhskinError):
    """Invalid model parameters or run configuration."""


class NumericalError(NhskinError):
    """A numerical procedure failed or its result is not trustworthy."""


# --- model construction -------------------------------------------------

class NonPositiveSize(ConfigError):
    """Chain length below the minimum of two sites."""


class PbcPeriodMismatch(ConfigError):
    """Periodic ring length incompatible with the period-3 potential, or,
    for a ring reflection candidate, not a multiple of 6."""


class NonFinite(ConfigError):
    """A model parameter is NaN or infinite."""


# --- operator structure -------------------------------------------------

class DimMismatch(ConfigError):
    """Matrix dimensions do not agree."""


class MalformedOperator(ConfigError):
    """Candidate operator names an internal factor outside sx, sy, sz, id.

    Every valid candidate is a signed permutation by construction, so the
    internal label is the only part of its structure that can be wrong.
    """


# --- dense eigenproblems ------------------------------------------------

class ConvergenceFailure(NumericalError):
    """Eigensolver did not converge or its output is unusable."""


class DegenerateAmbiguity(NumericalError):
    """Left/right eigenvector pairing is ambiguous (defective cluster)."""


class ZeroVector(ConfigError):
    """A state vector with (numerically) zero norm was supplied."""


# --- non-Bloch machinery ------------------------------------------------

class UnsupportedPotential(ConfigError):
    """Operation is defined only for the translation-invariant chain (V = 0)."""


class DegenerateLeadingCoeff(NumericalError):
    """Quartic leading coefficient vanishes; the root set degenerates."""


class BandTouching(NumericalError):
    """Band gap on the unit circle closes (at or below threshold)."""


# --- boundary analysis --------------------------------------------------

class SingularDenominator(NumericalError):
    """An end-condition coefficient denominator is numerically zero."""


# --- CLI ----------------------------------------------------------------

class SelectionOutOfRange(ConfigError):
    """State selection refers to indices that do not exist."""
