"""Exception types shared across the package.

Every error is a subclass of exactly one of three categories, and each
category is one exit code of the command line: ParseError 3,
PreconditionError 2, NumericalError 1.
"""


class NcsymError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NcsymError):
    """Expression text could not be parsed; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class PreconditionError(NcsymError):
    """A stated hypothesis of the operation does not hold for the inputs."""


class NumericalError(NcsymError):
    """A numerical routine failed or produced out-of-tolerance results."""


class MixedChartError(ParseError):
    """x/y and u/v variables appear in the same expression."""


class DimensionMismatchError(PreconditionError):
    """Variable counts or matrix sizes of the operands do not agree."""


class ChartError(PreconditionError):
    """Operation applied in the wrong variable chart (x,y vs. u,v)."""


class AssignmentError(PreconditionError):
    """Evaluation assignment is missing a variable or sizes are inconsistent."""


class ExpansionError(PreconditionError):
    """Expression cannot be expanded to a polynomial over atomic inverses."""


class SpectrumOutsideDomainError(PreconditionError):
    """The spectrum of the input is not contained in the branch's discs."""


class UnsupportedError(PreconditionError):
    """Input falls outside the cases this operation enumerates."""


class NotSymmetricError(PreconditionError):
    """Polynomial is not invariant under swapping the two variables."""


class DomainError(PreconditionError):
    """No admissible sample in the expression's domain could be produced,
    or a disc system cannot carry branches (0 inside, not quarter-isolated)."""


class SingularityError(NumericalError):
    """An inverse node was evaluated at a numerically singular matrix;
    samples masks the points of the evaluated stack singular there."""

    def __init__(self, message, expression=None, samples=None):
        super().__init__(message)
        self.expression = expression
        self.samples = samples


class InconclusiveError(NumericalError):
    """Random sampling exhausted its retry budget without a usable sample."""


class GenerationError(NumericalError):
    """Constrained random generation exhausted its retry budget."""


class IllConditionedInterpolationError(NumericalError):
    """Divided-difference tableau degenerated (non-finite entries)."""


class ClusteringError(NumericalError):
    """Spectrum admits no quarter-isolated covering at the working tolerance."""


class ContradictionError(NumericalError):
    """Two block decompositions force different companion-function values."""


class EvaluatorError(NumericalError):
    """A black-box evaluator failed on a sample; carries the sample."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample
