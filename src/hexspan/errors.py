"""Exception types the CLI maps to exit codes."""


class InputError(ValueError):
    """An argument outside the range a function accepts: a usage error
    (exit 2), not a bug.  It subclasses ValueError, so callers that
    catch ValueError keep working."""


class ResourceGuard(Exception):
    """Raised when a search would exceed its configured resource limit."""
