"""Exception types shared across the package.

The CLI maps these onto exit codes, so keep the hierarchy flat and the
meanings crisp: `InputError` covers malformed or out-of-contract inputs,
`PreconditionError` covers runtime contract violations (e.g. a signal
exceeding its declared amplitude bound), and the remaining classes flag
specific numerical failure modes.
"""


class TemreconError(Exception):
    """Base class for all package errors."""


class InputError(TemreconError, ValueError):
    """Rejected input: wrong shape, non-finite data, bad parameter."""


class GridMismatchError(InputError):
    """Two grid functions do not share the same grid."""


class ResolutionError(TemreconError):
    """A quadrature self-check failed: the grid is too coarse."""


class PreconditionError(TemreconError):
    """A declared runtime precondition does not hold."""


class GapError(PreconditionError):
    """A spatial point is not covered by any device ball."""


class SingularGeneratorError(TemreconError):
    """Gram symbol of a generator is (numerically) not bounded below."""


class ContractionError(TemreconError):
    """A measured contraction constant is >= 1 where < 1 is required."""


class EncodingInvariantError(TemreconError):
    """An encoder invariant failed (no crossing found where one is guaranteed)."""
