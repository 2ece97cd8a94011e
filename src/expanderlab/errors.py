"""Exception taxonomy.

Every error raised by this package derives from ExpanderlabError so callers
can catch the whole family; names mirror the failure they report.
"""


class ExpanderlabError(Exception):
    pass


# --- field / element errors -------------------------------------------------

class NonPrimeModulus(ExpanderlabError):
    pass


class MissingModulus(ExpanderlabError):
    pass


class DivisionByZero(ExpanderlabError, ZeroDivisionError):
    pass


class ContextMismatch(ExpanderlabError):
    pass


class FieldMismatch(ExpanderlabError):
    """Operation restricted to one context kind (e.g. incidence geometry is
    rational-only)."""


# --- set / graph errors -----------------------------------------------------

class ZeroDilation(ExpanderlabError):
    pass


class ZeroElementPresent(ExpanderlabError):
    pass


class InvalidSetFile(ExpanderlabError):
    pass


class GraphTooSparse(ExpanderlabError):
    pass


class InvalidGraphEdge(ExpanderlabError, ValueError):
    """A PairGraph edge whose coordinates are not int indices into its left
    and right sets: out of range, not an int, or a bool."""


class InvalidKernelArgument(ExpanderlabError, ValueError):
    """An argument a set kernel does not define: an op other than those of
    `combine` or `sumset_size`, a `greedy_cover` sign other than "+" or
    "-", or `kfold_size` signs that are not one or more of +1 and -1."""


class EpsilonOutOfRange(ExpanderlabError):
    pass


# --- energy errors ----------------------------------------------------------

class TOutOfRange(ExpanderlabError):
    pass


class ZeroTwist(ExpanderlabError):
    pass


class AlphaOutOfRange(ExpanderlabError, ValueError):
    """An energy exponent alpha below 1."""


class PrecisionCapExceeded(ExpanderlabError):
    """Interval refinement hit the precision cap.  Carries the widest
    enclosure achieved so the caller can still report it."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class InvalidPrecisionCap(ExpanderlabError):
    """The precision cap (EXPANDERLAB_PRECISION_CAP or an explicit cap) is not
    a non-negative integer."""


class BudgetExceeded(ExpanderlabError):
    pass


class InvalidSearchConfig(ExpanderlabError, ValueError):
    """A search seed outside [0, 2^64), fewer than one restart, a negative
    iteration cap or budget, or an unknown mode."""


# --- verification errors ----------------------------------------------------

class UnknownRelation(ExpanderlabError):
    pass


class SideConditionViolated(ExpanderlabError):
    pass


class SetTooSmall(ExpanderlabError, ValueError):
    """A set, or a list of sets, too small for the construction: fewer
    elements than it needs, or none at all."""


class DensityViolated(ExpanderlabError):
    pass


class DuplicateInput(ExpanderlabError):
    pass


class InvalidManifest(ExpanderlabError):
    """A replay manifest that is not JSON, or whose "command" is not a list
    of strings naming a command other than replay."""


class TooManySets(ExpanderlabError):
    """More set files than a relation has inputs (A, B and C)."""


class CollisionFound(ExpanderlabError):
    """The exhaustive injectivity check found two tuples with the same image.
    This would falsify the construction on the instance, so it is never
    silent: the colliding pair is attached."""

    def __init__(self, message, first=None, second=None):
        super().__init__(message)
        self.first = first
        self.second = second


class WitnessFailure(ExpanderlabError):
    """A witness point failed its incidence test, or a twist has no witness."""


class InvariantViolation(ExpanderlabError):
    """An internal exact cross-check failed.  Either a bug or a genuine
    counterexample to a constant-free claim; both must surface loudly."""
