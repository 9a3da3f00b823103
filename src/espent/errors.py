"""Exception types shared across the package."""


class EspentError(Exception):
    """Base class for all espent errors."""


class ZeroStateError(EspentError, ValueError):
    """Amplitude matrix has (numerically) zero norm."""


class DimensionMismatchError(EspentError, ValueError):
    """Array shape disagrees with the declared dimensions."""


class NormError(EspentError, ValueError):
    """State norm outside the accepted window and renormalization not requested."""


class IndefiniteMatrixError(EspentError, ValueError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class OrderOutOfRangeError(EspentError, ValueError):
    """Requested order r (or K) outside the valid range."""


class InvalidOrderError(EspentError, ValueError):
    """Renyi order alpha is not admissible (alpha <= 0, alpha == 1 or not finite)."""


class InvalidOptionError(EspentError, ValueError):
    """A series or quench setting is outside its valid range."""


class WrongPortDomainError(EspentError, ValueError):
    """Fermionic joint state lives on the wrong beamsplitter ports."""


class ParseError(EspentError, ValueError):
    """State file could not be parsed."""


class TooLargeError(EspentError, ValueError):
    """Problem size exceeds the supported desk-scale limits."""


class InvalidCutError(EspentError, ValueError):
    """Bipartition cut outside 1..L-1."""
