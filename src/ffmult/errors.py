"""Domain error hierarchy.

Every error carries a stable ``name`` that the CLI surfaces verbatim in
machine-readable output.
"""


class FFMultError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


# -- field construction / arithmetic -----------------------------------------

class NonPrimeCharacteristic(FFMultError):
    pass


class UnsupportedSize(FFMultError):
    pass


class MissingModulusEntry(FFMultError):
    pass


class SpecMismatch(FFMultError):
    pass


class DivisionByZero(FFMultError):
    pass


# -- polynomials --------------------------------------------------------------

class DimensionMismatch(FFMultError):
    pass


class ZeroPolynomial(FFMultError):
    pass


class EmptySet(FFMultError):
    pass


# -- interpolation ------------------------------------------------------------

class InvalidParameters(FFMultError):
    pass


class UnsatisfiedCountHypothesis(FFMultError):
    pass


class InternalDefect(FFMultError):
    """An internal invariant or cross-check failed.  This indicates a defect,
    never an expected outcome."""


class InternalNoSolution(InternalDefect):
    """Interpolation found no kernel vector although the count hypothesis
    held, or its verification failed."""


# -- kakeya -------------------------------------------------------------------

class SearchSpaceTooLarge(FFMultError):
    pass


class HypothesisViolation(FFMultError):
    pass


class ParameterViolation(FFMultError):
    pass


# -- merger -------------------------------------------------------------------

class TooFewFieldElements(FFMultError):
    pass


class DuplicateNodes(FFMultError):
    pass


class UniverseMismatch(FFMultError):
    pass


class UniverseTooSmall(FFMultError):
    pass


class EnumerationTooLarge(FFMultError):
    pass


# -- reed-solomon decoding ----------------------------------------------------

class BelowJohnsonRadius(FFMultError):
    pass


class NoFeasibleM(FFMultError):
    pass
