"""Exception hierarchy shared by all modules.

The CLI maps these onto distinct exit codes (see cli.py): validation
failures, numerical failures, and I/O failures are kept separate so batch
callers can react programmatically. ``_check_divergence`` is the one
divergence rule that nonlinear training and the linearized runs apply,
``_check_integer`` the one rule for integer arguments and ``_check_lambda``
the one rule for a regularization strength.
"""

import math
import numbers
import sys

DIVERGENCE_LIMIT = 1e12
_LAMBDA_LIMIT = math.sqrt(sys.float_info.max)  # the largest lambda whose square is finite, about 1.34e154


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ToolkitError, ValueError):
    """Invalid arguments, violated preconditions, or malformed configuration."""


class EmptyDatasetError(ToolkitError):
    """A dataset constructor produced fewer than two usable examples."""


class DataFormatError(ToolkitError):
    """An IDX image or label file is malformed or truncated."""


class SingularityError(ToolkitError):
    """A positive-definite solve failed even after jitter escalation.

    ``columns`` lists, for a block of right-hand sides whose residual check
    failed, the indices of the failed columns; it is None for a failed
    factorization and for a single right-hand side.
    """

    def __init__(self, message: str, columns: tuple = None):
        super().__init__(message)
        self.columns = columns


class DivergenceError(ToolkitError):
    """An iterative optimizer produced a non-finite or runaway objective."""


def _check_divergence(objective: float, step: int) -> None:
    """The one divergence rule: a non-finite objective or one above the limit fails at ``step``."""
    if not math.isfinite(objective) or objective > DIVERGENCE_LIMIT:
        if step == 0:  # no update yet, so the learning rate cannot be the cause
            cause = "before any update; the weights or inputs are non-finite or too large"
        else:
            cause = "reduce the learning rate"
        raise DivergenceError(f"objective became {objective:.3e} at step {step}; {cause}")


def _check_integer(name: str, value, minimum: int) -> None:
    """An integer argument (numpy integers too, bools not) of at least ``minimum``, or a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def _check_lambda(name: str, value) -> None:
    """A regularization strength lam >= 0 whose square lam^2 is finite, or a ValidationError (NaN fails too)."""
    if not 0.0 <= value <= _LAMBDA_LIMIT:
        raise ValidationError(f"{name} must be >= 0 with a finite square (at most {_LAMBDA_LIMIT:.4g}), got {value}")


class TrickViolationError(ToolkitError):
    """A model expected to have exactly zero initial output does not."""
