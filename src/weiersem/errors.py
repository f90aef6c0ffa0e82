"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError -> 1,
PreconditionError -> 2, InconsistencyError -> 3.
"""


class WeiersemError(Exception):
    """Base class for all package errors."""


class InputError(WeiersemError):
    """Malformed user input: unparsable polynomials, bad flags, bad files."""


class PreconditionError(WeiersemError):
    """A mathematical precondition of an operation is violated."""


class HypothesisError(PreconditionError):
    """The characteristic divides both degree invariants of the model."""


class PrecisionCeilingError(PreconditionError):
    """The branch series would need more terms than the precision ceiling
    (branch.PRECISION_CEILING) allows."""


class InconsistencyError(WeiersemError):
    """An internal invariant failed; indicates inconsistent input data
    (e.g. a claimed integral basis of the wrong size) or a bug."""
