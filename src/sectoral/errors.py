"""Exception and warning types shared across the package."""


class SectoralError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(SectoralError):
    def __init__(self, pivot_magnitude):
        self.pivot_magnitude = pivot_magnitude
        super().__init__(f"matrix numerically singular (pivot {pivot_magnitude:.3e})")


class NotHermitian(SectoralError):
    pass


class NotPositiveDefinite(SectoralError):
    def __init__(self, min_eig):
        self.min_eig = min_eig
        super().__init__(f"matrix not positive definite (min eigenvalue {min_eig:.3e})")


class InvalidAngles(SectoralError):
    pass


class InvalidRadii(SectoralError):
    pass


class SpectrumOnContour(SectoralError):
    def __init__(self, clearance):
        self.clearance = clearance
        super().__init__(f"spectrum too close to the contour (clearance {clearance:.3e})")


class TooDefective(SectoralError):
    def __init__(self, condition_estimate):
        self.condition_estimate = condition_estimate
        super().__init__(
            f"eigenvector matrix too ill-conditioned ({condition_estimate:.3e})"
        )


class EigenvalueOnBoundary(SectoralError):
    pass


class EigenvalueAtCut(SectoralError):
    pass


class EigenvalueOnCut(SectoralError):
    pass


class EigenvalueZero(SectoralError):
    pass


class EigenvalueOnAxis(SectoralError):
    pass


class SymbolSingular(SectoralError):
    def __init__(self, theta, xi):
        self.theta = theta
        self.xi = xi
        super().__init__(f"principal symbol minus lambda singular at theta={theta}, xi={xi}")


class RoundingUnsafe(SectoralError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"plaquette sum too far from an integer (residual {residual:.3f})")


class InsufficientSpan(SectoralError):
    pass


class RayHitsSpectrum(SectoralError):
    pass


class RangeOutsideResolvedRegime(SectoralError):
    pass


class ClearanceLost(SectoralError):
    def __init__(self, epsilon):
        self.epsilon = epsilon
        super().__init__(f"perturbed operator lost contour clearance at epsilon={epsilon}")


class ConfigInvalid(SectoralError):
    def __init__(self, key, reason):
        self.key = key
        self.reason = reason
        super().__init__(f"invalid configuration: {key}: {reason}")


class AliasingRisk(UserWarning):
    """Fourier coefficients of the symbol have a non-negligible tail beyond 2K."""
