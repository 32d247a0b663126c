"""Exception hierarchy for the topiary package.

Exceptions are grouped by how an executable should exit: invalid input (2),
numerical failure (3), non-convergence (4), internal invariant breach (5).
The CLI maps ``exit_code`` directly; library callers can catch the family
base classes.

`integer`, `real` and `reals` are the one rule for a number that comes from
outside, from a file or a caller. They refuse bools, strings, None,
fractional integers, NaN, infinities and ragged arrays; every constructor
that takes such numbers calls them and keeps the checked values.
"""

import math
import numbers

import numpy as np


class TopiaryError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInput(TopiaryError):
    """Caller-supplied data or parameters failed validation."""

    exit_code = 2


class TooLarge(InvalidInput):
    """Problem exceeds an enumeration cap (oracle 12 points, deconstruct 16)."""


class NotAnIndex(InvalidInput):
    """A set claimed to be a topiaric index has a nonzero margin on itself."""


class TOutOfRange(InvalidInput):
    """Convex combination parameter outside [0, 1]."""


class EmptyMask(InvalidInput):
    """Maze mask has no obstacle cells."""


class TooFewRows(InvalidInput):
    """Returns table needs at least two rows for a sample covariance."""


class RaggedRow(InvalidInput):
    """Returns table row length does not match the header."""


class NonNumericCell(InvalidInput):
    """Returns table cell failed to parse as a number."""


class UnknownReferencePoint(InvalidInput):
    """Adaptive-objective reference measure names a point outside the ground set."""


class RequiresOracle(InvalidInput):
    """Convergence summary needs an oracle objective to compute gaps."""


class BaseNotInIndex(InvalidInput):
    """Slope-report base point is not in the topiaric index of the solution."""


class KernelNotAnalytic(InvalidInput):
    """Maze fields and paths need the margin as the real part of an analytic
    function, which only the fock kernel gives."""


class StartInsideObstacle(InvalidInput):
    """Path trace started inside an obstacle cell; the trichotomy branch
    should have produced a point mass instead."""


class NumericalError(TopiaryError):
    """Numerical failure: the computation is well-posed but this instance
    resists it (singular system, non-PSD input, overflow guard)."""

    exit_code = 3


class NonPSD(NumericalError):
    """Gram/covariance matrix has an eigenvalue below -PSD_TOL * max diagonal."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NotPrunable(NumericalError):
    """Augmented hedge system is singular; the set has no hedge."""


class DomainError(NumericalError):
    """Point outside the kernel domain (Hardy |z| >= 1, Fock overflow guard)."""


class NoProgress(NumericalError):
    """A solve found no way forward: an exchange cycle or a polish did not
    land within its cycle budget, or the oracle found no feasible
    support."""


class AccessibilityFailure(NumericalError):
    """No single-point deletion of a topiaric index is again an index within
    tolerance. Theory guarantees one exists, so this signals tolerance
    trouble; the margin evidence rides along in the message."""


class ZeroPortfolio(NumericalError):
    """Optimal measure embeds to zero; beta and alpha are undefined."""


class ConvergenceError(TopiaryError):
    """Solver ran out of budget. Carries whatever state was reached."""

    exit_code = 4

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class MaxIterExceeded(ConvergenceError):
    """Iteration cap reached before the score dropped under margin_tol."""


class CycleDetected(ConvergenceError):
    """A solve, under any algorithm, revisited a (support, objective) pair;
    aborted rather than repeat the steps that led back to it."""


class InvariantViolation(TopiaryError):
    """An internal mathematical invariant failed. Always a bug."""

    exit_code = 5


class MonotonicityError(InvariantViolation):
    """Objective decreased along a solver trajectory."""


class DuplicatePointsWarning(UserWarning):
    """Two ground-set points have identical Gram rows."""


class AtomRescueWarning(UserWarning):
    """drop_small_atoms refused to empty a measure; returned it unchanged."""


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def integer(value, what, positive=False):
    """value as an int that fits in 64 bits (at least 1 if positive); a
    fractional value is refused, not truncated."""
    if _is_number(value):
        try:
            i = int(value)
        except (OverflowError, ValueError):
            i = None
        if i is not None and i == value and abs(i) < 2**63 and (i >= 1 or not positive):
            return i
    raise InvalidInput("%s must be %s, got %r"
                       % (what, "a positive integer" if positive else "an integer", value))


def real(value, what, positive=False):
    """value as a finite float (above 0 if positive)."""
    if _is_number(value):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (x > 0 or not positive):
            return x
    raise InvalidInput("%s must be a %sfinite number, got %r"
                       % (what, "positive " if positive else "", value))


def reals(raw, what, ndim=1, kind=numbers.Real):
    """raw as an array with ndim axes (rows of equal length) of finite
    numbers; float, or complex when kind is numbers.Complex."""
    dtype = complex if kind is numbers.Complex else float
    numeric = "iufc" if dtype is complex else "iuf"
    if isinstance(raw, np.ndarray) and raw.dtype.kind in numeric:
        arr = np.asarray(raw, dtype=dtype)
    else:
        try:
            arr = np.array(raw, dtype=object)
            types = set(map(type, arr.flat))
            ok = all(issubclass(t, kind) and t is not bool for t in types)
            arr = arr.astype(dtype) if ok else None
        except (TypeError, ValueError, OverflowError):
            arr = None
    if arr is None or arr.ndim != ndim or not np.isfinite(arr).all():
        raise InvalidInput("%s must be %s" % (what, (
            "a finite number", "a list of finite numbers",
            "a list of equal-length rows of finite numbers")[min(ndim, 2)]))
    return arr


def exit_code_for(exc):
    """Map an exception to a process exit code."""
    if isinstance(exc, TopiaryError):
        return exc.exit_code
    return 1
