"""Exception taxonomy for the kleinian package.

All failures raised by the library derive from :class:`KleinianError`,
split into input problems (bad curves, bad records) and numerical
problems (non-convergence, loss of precision).
"""


class KleinianError(Exception):
    """Base class for all library errors."""


class InvalidCurveError(KleinianError):
    """Curve parameters violate the canonical-form requirements."""


class DegenerateCurveError(KleinianError):
    """The curve has collided branch points (positive discriminant stratum)."""


class SeriesError(KleinianError):
    """A series expansion failed to converge order by order."""


class SpecialDivisorError(KleinianError):
    """Interpolation through the divisor is singular (special divisor)."""


class NonReducedDivisorError(KleinianError):
    """Divisor contains a full group of points in involution."""


class InconsistencyError(KleinianError):
    """Multiset bookkeeping failed (points do not match within tolerance)."""


class DegenerateComplementError(KleinianError):
    """A complement divisor lost points to infinity (degree deficiency)."""


class InconsistentRecordError(KleinianError):
    """Basis-function values do not define a valid divisor."""


class IncompleteRecordError(KleinianError):
    """Record lacks extended values required by the requested identity set."""


class BranchPointError(KleinianError):
    """A divisor point sits on a branch point where d f / d y vanishes."""


class PoleOfRepresentationError(KleinianError):
    """A rational formula hits its pole (vanishing denominator value)."""


class DegeneratePairError(KleinianError):
    """Addition inputs are degenerate (u equals plus or minus u-tilde)."""


class PrecisionError(KleinianError):
    """Quadrature or summation could not reach the requested tolerance."""


class ThetaDivisorError(KleinianError):
    """Argument lies on the theta divisor where wp-functions have poles."""


class CharacteristicSearchError(KleinianError):
    """The Riemann-constant characteristic fails its vanishing-order certificate."""


class InputError(KleinianError):
    """Malformed JSON input or unknown configuration key."""
