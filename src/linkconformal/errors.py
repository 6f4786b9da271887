"""Exception types shared across the package."""


class EdgeListParseError(ValueError):
    """A line of an edge-list document could not be parsed."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class CapacityError(ValueError):
    """More samples were requested than the population can provide."""


class DegenerateCalibrationError(RuntimeError):
    """A calibration arm cannot produce finite intervals.

    Raised when edge resampling removes every training or calibration edge
    (lower lambda or switch mode), and when the calibration set is too small
    for alpha, so that q_hat is +inf. The pipeline records it as the
    trial's error.
    """
