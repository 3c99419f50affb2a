"""Exception types shared across the package."""


class RcstabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RcstabError):
    """Invalid or inconsistent configuration (unknown labels, bad sections)."""


class DegenerateSignalError(RcstabError, ValueError):
    """A sequence cannot be normalized (constant, or too short)."""


class DegenerateTargetError(RcstabError, ValueError):
    """The training target has zero spread."""


class IntegrationDivergedError(RcstabError):
    """State became non-finite while generating a benchmark trajectory."""


class AnalysisError(RcstabError):
    """A root finder failed to bracket or converge.

    Carries the best residual seen so the caller can judge how close it got.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SpectralRadiusError(RcstabError, ValueError):
    """Some adjacency eigenvalue lies on or outside the unit circle, so the
    discrete-time origin cannot be stabilized by any admissible shift."""


class ConstructionError(RcstabError):
    """Adjacency construction failed (e.g. zero spectral abscissa); reseed."""


class InfeasibleTopologyError(RcstabError):
    """The admissible shift interval [rho_minus, rho_plus] is empty."""


class FixedPointError(AnalysisError):
    """Fixed-point search did not converge within its iteration budget."""


class TruncatedRunError(RcstabError):
    """A drive diverged too early to supply the requested regression window."""
