"""Exception types shared across the library."""


class LayerDetError(Exception):
    """Base class for all library errors."""


class SceneError(LayerDetError, ValueError):
    """Invalid scene: overlapping obstacles, bad curve parameters, nesting."""


class SingularOperatorError(LayerDetError, ArithmeticError):
    """Exactly singular pivot during factorization.

    Carries the pivot index; on the real spectral axis this signals that
    the squared spectral parameter sits at (or very near) an interior
    Dirichlet eigenvalue of one of the obstacles.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class ConvergenceError(LayerDetError, RuntimeError):
    """A refinement loop (nested quadrature levels, unwrapping,
    truncation) ran out of budget before reaching its tolerance."""


class UnresolvedGridError(LayerDetError, RuntimeError):
    """A spectral integral's nested rule did not converge while some of its
    nodes stayed unresolved on the caller's boundary grid: the grid, not
    the spectral quadrature, is too coarse (or too noisy) there."""


class SceneFileError(LayerDetError, ValueError):
    """Scene file failed to parse or violated the strict schema."""
