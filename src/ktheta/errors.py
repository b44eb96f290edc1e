"""Exception hierarchy shared across the package."""


class KThetaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModulus(KThetaError):
    """A theta argument is not finite, or its modulus tau is not in the upper half-plane."""


class TailNotConverged(KThetaError):
    """A window reached ``theta.MAX_TERMS`` before its tail bound met epsilon."""


class IllConditioned(KThetaError):
    """A least-squares sample matrix is numerically singular."""


class EquivalentPoints(KThetaError):
    """Two points coincide on the quotient manifold."""


class SearchFailed(KThetaError):
    """Bounded seeded retries were exhausted without meeting the target."""


class AllSectionsVanish(KThetaError):
    """Every homogeneous coordinate vanished; the lift is unusable."""


class DimensionMismatch(KThetaError):
    """Projective points of different dimensions cannot be compared."""


class LiftOverflow(KThetaError):
    """The lift of a projective map or its partials are not finite at a point."""
