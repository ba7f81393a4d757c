"""Exception hierarchy shared by all fusetree modules."""

from __future__ import annotations


class FusetreeError(Exception):
    """Base class for every error raised by this package."""


class OutOfBoundsError(FusetreeError):
    """A coordinate lies outside the tensor shape."""

    def __init__(self, coords, shape):
        super().__init__(f"coordinates {coords} out of bounds for shape {tuple(shape)}")
        self.coords = tuple(coords)
        self.shape = tuple(shape)


class NonFiniteValueError(FusetreeError):
    """A tensor value is NaN or infinite; an absent value means exactly zero."""


class RankMismatchError(FusetreeError):
    """A coordinate tuple or mode permutation has the wrong length."""


class ParseError(FusetreeError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateIndexError(FusetreeError):
    """The same iteration index appears twice within one tensor reference."""


class ExtentMismatchError(FusetreeError):
    """An index is used with two different extents, or a tensor's shape disagrees with them."""


class UnknownTensorError(FusetreeError):
    """A directive or binding names a tensor that is not in the network."""


class NotATreeError(FusetreeError):
    """The contractions do not form a single-rooted tree."""


class InvalidContractionError(FusetreeError):
    """A contraction violates a structural rule (e.g. free result index)."""


class TooLargeError(FusetreeError):
    """The instance exceeds the limits of an exhaustive routine."""


class SolveTimeout(FusetreeError):
    """The solver exceeded its time budget; the tree, the bound and the
    number of search nodes visited, when known, are attached."""

    def __init__(self, budget, tree=None, bound=None, nodes=None):
        super().__init__(f"solve exceeded time budget of {budget:.3f}s")
        self.budget = budget
        self.tree = tree
        self.bound = bound
        self.nodes = nodes


class UnsatisfiableError(FusetreeError):
    """No schedule exists within the searched bound range."""


class InvalidBoundError(FusetreeError, ValueError):
    """A workspace order bound below 1 was requested."""


class InvalidToleranceError(FusetreeError, ValueError):
    """A comparison tolerance is negative, infinite or NaN."""


class InvalidDensityError(FusetreeError, ValueError):
    """A synthetic tensor's density is not a finite number in [0, 1]."""


class InvalidSeedError(FusetreeError, ValueError):
    """A synthetic generator's seed is negative."""


class InvalidExtentsError(FusetreeError, ValueError):
    """Benchmark extents are not integers, or not as many as the kind takes."""


class MalformedSolutionError(FusetreeError):
    """A solution document does not have the shape that ``to_json_dict`` writes."""


class MissingVariableError(FusetreeError):
    """A solution does not assign one of the model variables."""


class MalformedScheduleError(FusetreeError):
    """A schedule-pair sequence cannot be turned into loop IR."""


class UnboundTensorError(FusetreeError):
    """The IR references a tensor with no binding."""


class ModeOrderMismatchError(FusetreeError):
    """A reference disagrees with its loop nest, or with the layout its tensor is stored in."""


class ShapeMismatchError(FusetreeError):
    """Two tensors that should be comparable have different shapes."""


class NonCanonicalTensorError(FusetreeError):
    """A tensor's coordinates are not unique and in lexicographic order."""


class UnknownKindError(FusetreeError):
    """An unrecognized benchmark kind was requested."""
