"""Exception types shared across the package.

The CLI maps these onto exit codes: input problems (MatrixError,
ContractError) exit 4, ResourceCapError exits 3, cross-method or corpus
discrepancies exit 2.
"""


class BredonError(Exception):
    """Base class for all package errors."""


class MatrixError(BredonError, ValueError):
    """Malformed Coxeter matrix or unreadable input."""


class ContractError(BredonError, ValueError):
    """An operation was called outside its stated preconditions."""


class ConsistencyError(BredonError, RuntimeError):
    """An internal cross-check failed (tolerance breach, order mismatch)."""


class ResourceCapError(BredonError, RuntimeError):
    """A configured resource cap (group order) was exceeded."""
