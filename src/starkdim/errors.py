"""Exception hierarchy shared across the package.

Two broad families matter for callers and for the CLI exit-code mapping:
``InputError`` marks a violated input contract (CLI exit code 2) and
``NumericalError`` marks a computation that could not reach its accuracy or
validity target (CLI exit code 3).
"""


class StarkDimError(Exception):
    """Base class for all package-specific errors."""


class InputError(StarkDimError):
    """The caller violated an input contract."""


class NumericalError(StarkDimError):
    """A numerical procedure failed to reach its target."""


# dimension / series construction

class InvalidDimension(InputError):
    """Dimension parameter alpha must be a finite real > 1."""


class OrderMismatch(InputError):
    """A series result does not match its order."""


class OrderTooLarge(InputError):
    """Requested expansion order exceeds the configured cap."""


class OutOfRange(InputError):
    """A scalar argument lies outside its documented range."""


# special functions

class PoleError(InputError):
    """Gamma evaluated at a non-positive integer."""


class ParameterPole(InputError):
    """Hypergeometric lower parameter is a non-positive integer."""


class OnBranchCut(InputError):
    """Argument lies exactly on the branch cut and no side was specified."""


class NonConvergent(NumericalError):
    """No evaluation region applies or a series failed to converge."""


# resummation / fitting

class InvalidL(InputError):
    """Branch-power parameter l must be finite and exceed 4."""


class DegenerateSeries(NumericalError):
    """Input coefficients do not determine the model parameters."""


class NoIonization(NumericalError):
    """No resonance width above threshold anywhere on the swept grid."""


class NonlinearTail(NumericalError):
    """Upper-field width data is not acceptably linear."""


class InsufficientData(InputError):
    """Too few (or degenerate) data points for the requested regression."""


class NonPositiveSlope(InputError):
    """Regression input contains non-positive values where positives are required."""


# barrier analysis

class DomainError(InputError):
    """Argument outside the physical domain of the barrier model."""


class NoBarrier(NumericalError):
    """The effective potential has no classically forbidden region."""


# dispersion checks

class NotValid(InputError):
    """The dispersion identity does not hold for the requested index."""


class IntegrationFailure(NumericalError):
    """Quadrature failed to reach the requested tolerance."""


class NoReference(NumericalError):
    """No reference point qualifies for calibration."""
