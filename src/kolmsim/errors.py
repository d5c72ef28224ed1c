"""Exception types shared across the package."""


class KolmsimError(Exception):
    """Base class for all package errors."""


class ConfigError(KolmsimError):
    """Malformed or inconsistent run configuration."""


class BasisError(KolmsimError):
    """Multi-index outside the truncated basis, or an ill-formed basis request."""


class ResourceLimitError(KolmsimError):
    """A requested truncation would exceed the configured size cap."""


class DriftError(KolmsimError):
    """Drift spec that is malformed, not divergence-free, or unresolved by its quadrature."""


class NumericalError(KolmsimError):
    """Integrator or Monte Carlo failure (stiffness, blow-up, non-convergence)."""
