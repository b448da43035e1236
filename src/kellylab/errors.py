"""Shared exception types."""


class KellylabError(Exception):
    """Base class for package-specific failures."""


class FactorizationError(KellylabError, ValueError):
    """Correlation/covariance matrix is not positive definite."""


class RescaleError(KellylabError, ValueError):
    """Transition-matrix rescaling produced an invalid chain."""


class ConfigError(KellylabError, ValueError):
    """Configuration file violates an invariant.

    Carries the dotted path of the offending key and, when known, the line
    in the source file so the message is directly actionable.
    """

    def __init__(self, message, path=None, line=None, filename=None):
        self.path = path
        self.line = line
        self.filename = filename
        loc = ""
        if filename is not None:
            loc += str(filename)
        if line is not None:
            loc += f":{line}"
        prefix = ""
        if loc:
            prefix += loc + ": "
        if path:
            prefix += path + ": "
        super().__init__(prefix + message)


class LifecycleError(KellylabError, RuntimeError):
    """Operation called out of order (e.g. step before reset)."""


class FitError(KellylabError, RuntimeError):
    """Model fitting failed (degenerate data or no usable restart)."""


class CheckpointError(KellylabError, ValueError):
    """Checkpoint file is missing, corrupt, or from an incompatible layout."""
