"""Exception types shared across the package."""


class GameModelError(Exception):
    """Base class for every error raised by this package."""


class InvalidEdge(GameModelError):
    """Edge list contains a self-loop, duplicate, or out-of-range endpoint."""


class DisconnectedGraph(GameModelError):
    """The game requires a connected graph."""


class InvalidParameter(GameModelError):
    """A numeric parameter is outside its documented domain."""


class NotStochastic(GameModelError):
    """A transition-matrix row fails to be a probability distribution."""

    def __init__(self, row: int, total: float, detail: str = ""):
        self.row = row
        self.total = total
        msg = f"row {row} sums to {total!r}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class InconsistentAbsorbing(GameModelError):
    """Declared absorbing set disagrees with the matrix rows."""

    def __init__(self, state: int, detail: str = ""):
        self.state = state
        super().__init__(f"state {state}: {detail or 'absorbing flag inconsistent with row'}")


class NoTransientStates(GameModelError):
    """Every state of the chain is absorbing."""


class InvalidState(GameModelError):
    """State index or label does not identify a chain state."""


class Divergent(GameModelError):
    """Absorption probabilities are asked for where no solve holds them; the message says why."""


class NotLumpable(GameModelError):
    """A proposed state partition is not exact for the chain."""

    def __init__(self, class_label: str, state_pair: tuple, max_discrepancy: float):
        self.class_label = class_label
        self.state_pair = state_pair
        self.max_discrepancy = max_discrepancy
        super().__init__(
            f"class {class_label!r}: states {state_pair} disagree by {max_discrepancy:.3e}"
        )


class GraphTooLarge(GameModelError):
    """Joint state space exceeds the configured cap."""


class InvalidStart(GameModelError):
    """Simulation start positions coincide or are out of range."""


class ScheduleOutOfRange(GameModelError):
    """A tipsiness schedule produced a value outside [0, 1]."""


class UnknownTable(GameModelError):
    """No embedded reference table with the requested id."""


class ConfigError(GameModelError):
    """Command-line scenario failed validation."""
