"""Exception hierarchy for model validation and solver failures."""


class FiberAllocError(Exception):
    """Base class for all library-specific errors."""


class WrongShapeError(FiberAllocError):
    """An input array has the wrong shape (e.g. a matrix that is not m x (m+1))."""


class RankDeficientError(FiberAllocError):
    """Allocation matrix is row-rank deficient relative to tolerance."""


class DegenerateRedundancyError(FiberAllocError):
    """Null-space generator has a (near-)zero component.

    Carries the offending actuator index in ``index``.
    """

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"null-space generator component {index} is degenerate (|b_{index}| = {value:.3e})"
        )


class BoundaryStateError(FiberAllocError):
    """Operation requires a regular state but some |v_i| is at the boundary."""


class CrossingStateError(FiberAllocError):
    """Fiber parameter sits on a hyperplane crossing where the quantity is undefined."""


def row_label(row: int, t: float | None = None) -> str:
    """How an error names a task row: ``row k``, or ``sample k (t = ...)``
    for a sample of a lifted trajectory."""
    return f"row {row}" if t is None else f"sample {row} (t = {t:g})"


class SectionSolveError(FiberAllocError):
    """A section solve failed for one task row.

    Raised when the row's Newton iteration hits its cap, when the task or
    its crossings are not finite, or when the rebuilt state has a zero,
    subnormal or non-finite component (the leaf point lies outside the
    float64 range).  Carries the row
    index in ``row``, its task in ``w`` and, for a lifted sample, its time in ``t``.
    """

    kind = "section"

    def __init__(self, row: int, w, reason: str, t: float | None = None):
        self.row = row
        self.w = w
        self.t = t
        super().__init__(f"{self.kind} solve failed at {row_label(row, t)} "
                         f"(w = {w}): {reason}")


class ExtremalSolveError(SectionSolveError):
    """A section solve on an extremal layer (0 or n) failed for one task row."""

    kind = "extremal"


class NaiveSolveError(SectionSolveError):
    """The naive allocator has no state for one task row: its task is not finite."""

    kind = "naive"


class ConfinementError(FiberAllocError):
    """An extremal lift left its orthant; carries the first sample in ``sample``."""

    def __init__(self, sample: int):
        self.sample = sample
        super().__init__(
            f"extremal lift changed orthant signature at sample {sample}; "
            "confinement violated")


class NonGenericSegmentError(FiberAllocError):
    """Requested fiber segment collapsed to zero width (merged crossings)."""


class OriginExcludedError(FiberAllocError):
    """Zero task requested on a transitional layer, which excludes the origin."""
