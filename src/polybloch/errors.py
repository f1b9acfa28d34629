"""Exception types shared across the toolkit.

Everything numerical derives from SpectralError so the CLI can map any
computational failure to a single exit code.
"""


class SpectralError(Exception):
    """Base class for numerical / domain failures."""


class SingularBasis(SpectralError):
    """Lattice basis determinant below the singularity threshold."""


class ConvergenceFailure(SpectralError):
    """Eigensolver output failed the residual certificate."""


class WindowNotConverged(SpectralError):
    """Windowed solve changed too much under window refinement."""


class CascadeInequalityViolated(SpectralError):
    """A required exponent inequality fails; carries the inequality name."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        super().__init__(f"cascade inequality violated: {name}" + (f" ({detail})" if detail else ""))


class ShellViolation(SpectralError):
    """Point lies outside the annulus where classification is defined."""


class PartitionBreakdown(SpectralError):
    """Resonance cells failed to assign the point to exactly one class."""


class SmallDenominator(SpectralError):
    """A series denominator fell below the rejection floor.

    Signals that the evaluation point is effectively resonant for the
    requested spectral parameter.
    """

    def __init__(self, tuple_coords, floor: float):
        self.tuple_coords = tuple(tuple_coords)
        self.floor = floor
        super().__init__(f"denominator {floor!r} too small for tuple {self.tuple_coords}")


class NoCandidate(SpectralError):
    """No oracle eigenpair landed inside the matching window."""


class EmptyDirections(SpectralError):
    """A resonant index set was requested without directions."""


class PhaseDegenerate(SpectralError):
    """Dominant coefficient weight below 1/2; simple-set premise fails."""


class NoBracket(SpectralError):
    """Root bracketing failed along a ray."""


class InsufficientBands(SpectralError):
    """Band table does not cover the requested energy window."""


class PreconditionError(SpectralError, ValueError):
    """A point fails a routine's stated precondition (e.g. annulus, non-resonance)."""


class ConfigError(Exception):
    """Bad experiment configuration (separate from numerical failures)."""
