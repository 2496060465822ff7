"""Exception types raised across the package."""


class WefHouseError(Exception):
    """Base class for all errors raised by this package."""


# -- instance and outcome validation ---------------------------------------

class MalformedNumber(WefHouseError):
    """A value could not be parsed as an exact rational."""


class MalformedInstance(WefHouseError):
    """Instance data is structurally unusable (missing or mistyped fields)."""


class NonPositiveWeight(WefHouseError):
    """An agent weight is zero or negative."""


class NegativeUtility(WefHouseError):
    """A utility value is negative."""


class TooFewHouses(WefHouseError):
    """Fewer houses than agents."""


class DimensionMismatch(WefHouseError):
    """Row lengths, label counts, or vector lengths disagree."""


class InvalidAllocation(WefHouseError):
    """An allocation repeats a house, has the wrong length, or is out of range."""


class NegativeSubsidy(WefHouseError):
    """A subsidy payment is negative."""


# -- solver preconditions ---------------------------------------------------

class MatchingSaturating(WefHouseError):
    """A Hall violator was requested although the matching covers every agent."""


# -- envy graph -------------------------------------------------------------

class NotWefable(WefHouseError):
    """No subsidy vector can make the allocation weighted envy-free.

    `cycle` is the `envy.PositiveCycle` that proves it.
    """

    def __init__(self, cycle):
        self.cycle = cycle

    def __str__(self):
        from .model import shown  # model imports this module

        return f"positive envy cycle {self.cycle.nodes} of weight {shown(self.cycle.weight)}"


# -- special-case solvers ---------------------------------------------------

class ModeMismatch(WefHouseError):
    """The instance lies outside the family a special-case solver requires."""


class NotIdenticalUtilities(ModeMismatch):
    """Agents do not share a single utility function."""


class InconsistentPartition(WefHouseError):
    """A two-type partition does not match the instance."""


class NotBivalued(ModeMismatch):
    """Utilities are not drawn from a single pair {low, 1} with low < 1."""


class NotSquare(ModeMismatch):
    """The instance does not have exactly one house per agent."""


class NotNormalized(ModeMismatch):
    """Agent utilities do not sum to one."""


class NotTwoAgents(ModeMismatch):
    """The operation is defined only for two agents."""


class NotUnweighted(WefHouseError):
    """Agent weights are not all equal."""


# -- oracle -----------------------------------------------------------------

class CapExceeded(WefHouseError):
    """A brute-force enumeration would exceed its configured cap."""
