"""Exception types and the integer-argument rule shared across the package."""

from numbers import Integral


def check_int(value, name, low):
    """``value``, once it is an integer (Python or NumPy, not bool) >= ``low``; else ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


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
    (lower lambda or switch mode), when the calibration or test set is
    empty, and when the calibration set is too small for alpha, so that
    q_hat is +inf. The pipeline records it as the trial's error.
    """
