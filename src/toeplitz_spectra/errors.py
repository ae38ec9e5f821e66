"""Exception hierarchy shared across the package."""


class ToeplitzError(Exception):
    """Base class for all errors raised by this package."""


class LatticeError(ToeplitzError):
    """Invalid partition data or multi-index arithmetic out of range."""


class QuadratureError(ToeplitzError):
    """A quadrature rule was misused or an integrand evaluated non-finite."""


class SymbolError(ToeplitzError):
    """A symbol failed validation (unbounded, non-invariant, bad mode)."""


class SymbolParseError(SymbolError):
    """Syntax error in a symbol expression. Carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class AssemblyError(ToeplitzError):
    """Operator assembly failed (bad block request, mismatched truncations)."""


class SpectraError(ToeplitzError):
    """Eigenvalue computation or planar-region processing failed."""


class GelfandError(ToeplitzError):
    """Invalid functional sample or unbounded diagonal coefficient."""


class RadicalError(ToeplitzError):
    """Ill-conditioned division or invalid radical generator data."""


class ConfigError(ToeplitzError):
    """Run configuration failed schema or semantic validation."""
