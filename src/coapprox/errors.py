"""Exception types shared across the library.

Every failure mode a caller is expected to handle gets its own class so that
the CLI can map exceptions to structured error reports without string
matching.
"""


class CoapproxError(ValueError):
    """Base class for all library-specific errors."""


class ZeroVector(CoapproxError):
    """An operation that requires a nonzero vector received the zero vector."""


class DegenerateInput(CoapproxError):
    """A point set does not span the ambient space."""


class UnboundedInput(CoapproxError):
    """A facet description defines an unbounded region."""


class DependentBasis(CoapproxError):
    """Rows offered as a basis are linearly dependent."""


class BasisMismatch(CoapproxError):
    """A point claimed to lie in a subspace does not."""


class DimensionOutOfRange(CoapproxError):
    """Classification requires a proper subspace of dimension strictly between 1 and n."""


class DegenerateQuery(CoapproxError):
    """The query is degenerate (for the defect: x equals y0)."""


class NonEmptyZeroSet(CoapproxError):
    """The basis has a nonempty zero set, so the minimal norming set is not unique."""


class PointInSubspace(CoapproxError):
    """A point required to lie outside the subspace lies inside it."""


class SpaceTooLarge(CoapproxError):
    """A builder would have to enumerate more than 2^12 extreme objects."""


class Discrepancy(RuntimeError):
    """Two routes to the same answer disagree, or a certificate fails its recheck."""


class BudgetExceeded(RuntimeError):
    """The anti-coproximinality search needs to try more branches than its cap."""

    def __init__(self, budget: int, required: int):
        self.budget = budget
        self.required = required
        super().__init__(
            f"search requires at least {required} tried branches, budget is {budget}"
        )


__all__ = [
    "BasisMismatch",
    "BudgetExceeded",
    "CoapproxError",
    "DegenerateInput",
    "DegenerateQuery",
    "DependentBasis",
    "DimensionOutOfRange",
    "Discrepancy",
    "NonEmptyZeroSet",
    "PointInSubspace",
    "SpaceTooLarge",
    "UnboundedInput",
    "ZeroVector",
]
