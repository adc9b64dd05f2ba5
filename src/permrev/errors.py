"""Shared exception types.

Input-validation failures raise plain ``ValueError`` throughout the package;
the classes here cover the two situations that need to be told apart by
callers (and by the CLI exit-code mapping).
"""


class CapacityError(RuntimeError):
    """A configured size cap was exceeded before the computation finished.

    ``count`` records how far the computation got (states interned, group
    elements visited, ...) when it gave up; ``stage`` names the function
    whose cap it was, such as ``"reverse_construction"``.
    """

    def __init__(
        self, message: str, count: int | None = None, *, stage: str | None = None
    ) -> None:
        super().__init__(message)
        self.count = count
        self.stage = stage


class NotInGroupError(ValueError):
    """The target permutation is not generated by the given generators."""
