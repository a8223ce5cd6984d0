"""Exception types shared across the toolkit."""


class RRCError(Exception):
    """Base class for all library-specific failures."""


class RankZeroError(RRCError):
    """The numerical rank at the requested threshold is zero.

    Raised when every singular value of the data matrix falls at or below
    the threshold, i.e. the data is indistinguishable from noise at that
    scale and no projector/solution can be built.
    """


class DimensionMismatchError(RRCError):
    """Operands have incompatible shapes."""


class OutOfRangeError(RRCError):
    """A time index falls outside the embeddable range of a series."""


class FeatureBudgetError(RRCError):
    """A polynomial feature expansion would exceed the configured budget."""


class NumericBlowupError(RRCError):
    """An autoregressive rollout diverged past the configured guard."""

    def __init__(self, step: int, value: float, guard: float):
        self.step = step
        self.value = value
        self.guard = guard
        super().__init__(
            f"forecast diverged at step {step}: |{value:.6g}| exceeds guard {guard:.6g}"
        )


class StepUnderflowError(RRCError):
    """The adaptive step controller drove the step size below its floor."""


class DegenerateChannelError(RRCError):
    """An observed channel is identically zero, so its exposure normalizer vanishes."""

    def __init__(self, channel: int, first: int = 1):
        self.channel = channel
        self.first = first  # 1-based row of the first compared sample
        super().__init__(f"observed channel column {channel + 1} is identically zero")


class ModelFormatError(RRCError):
    """A model file is not in the expected on-disk format."""


class ModelVersionError(RRCError):
    """A model file uses an unsupported schema version."""
