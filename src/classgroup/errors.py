"""Exception types shared across the package."""


class ClassGroupError(Exception):
    """Base class for all errors raised by this package."""


class NonMonic(ClassGroupError):
    """Defining polynomial is not monic."""


class Reducible(ClassGroupError):
    """Defining polynomial is reducible over the rationals."""


class BasisNotUnimodularScaling(ClassGroupError):
    """Integral-basis matrix determinant is inconsistent with the polynomial
    discriminant (index squared must divide disc(T))."""


class BasisNotClosed(ClassGroupError):
    """The Z-span of the basis is not closed under multiplication: a
    structure constant has a denominator, so the span is not an order."""


class BasisNotMaximal(ClassGroupError):
    """The integral basis spans an order that is not maximal at a prime
    dividing the index: some prime ideal above it is not invertible."""

    def __init__(self, p):
        self.p = p
        super().__init__(f"integral basis is not maximal at {p}")


class PrecisionExhausted(ClassGroupError):
    """Interval widths exceed the tolerance required by the operation; the
    caller must retry at a higher precision."""


class EmptyFactorBase(ClassGroupError):
    """No prime ideal has norm within the requested bound."""


class RankDeficient(ClassGroupError):
    """Matrix does not have the rank required by the operation."""


class DeterminantTooLarge(ClassGroupError):
    """Lattice determinant violates the sublattice-reduction precondition."""


class DimensionCap(ClassGroupError):
    """Enumeration dimension exceeds the configured cap."""


class AlphaOrder(ClassGroupError):
    """Smoothness probability needs alpha1 > alpha2."""


class DomainTooSmall(ClassGroupError):
    """L-notation evaluation needs N >= 16 so that log log N > 0."""


class DegreeOne(ClassGroupError):
    """Degree-1 fields (the rationals) are not classified."""


class ZeroVolume(ClassGroupError):
    """Kernel spans fewer independent unit-log vectors than the unit rank."""


class VerificationFailed(ClassGroupError):
    """A relation failed its exact check (zero generator, norm identity or a
    valuation)."""


class Stalled(ClassGroupError):
    """Relation collection exhausted its trial budget without progress."""

    def __init__(self, message, stats=None):
        self.stats = stats or {}
        super().__init__(message)
