"""Exception types and the two argument rules shared across the package: ``check_int`` and ``check_real``."""

from numbers import Integral, Real


def check_int(value, name, low):
    """``value``, once it is an integer (Python or NumPy, not bool) >= ``low``; else ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def check_real(value, name, low, high, ends="()"):
    """``value``, once a real number (not bool) in ``low``..``high``, with ``ends`` as brackets; else ValueError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not ((low <= value if ends[0] == "[" else low < value) and (value <= high if ends[1] == "]" else value < high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
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
