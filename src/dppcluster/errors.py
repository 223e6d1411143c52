"""Exception hierarchy shared across the package, and the check of the
integer settings.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericalError -> 4.
"""


class ClusterError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ClusterError):
    """Invalid configuration value or combination."""


def checked_int(name: str, value, minimum: int) -> int:
    """``value`` as an int; a ConfigError when it is not a whole number of
    at least ``minimum`` (1.5, NaN, "3" and None are not)."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < minimum:
        raise ConfigError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return whole


class DataError(ClusterError):
    """Input data cannot be used as provided."""


class DegenerateData(DataError):
    """Data carries no usable signal (identical points, constant column, ...)."""


class ShapeMismatch(DataError):
    """Array shapes or lengths are inconsistent."""


class CsvFormatError(DataError):
    """A CSV file could not be parsed; carries 1-based cell coordinates."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        if row is not None:
            where = f" (row {row}" + (f", column {col}" if col is not None else "") + ")"
            message = message + where
        super().__init__(message)
        self.row = row
        self.col = col


class NumericalError(ClusterError):
    """A numerical computation failed or produced unusable output."""


class NumericalFailure(NumericalError):
    """Eigensolver breakdown or a matrix corrupted beyond tolerance."""


class ResampleExhausted(NumericalError):
    """Rejection sampling hit its attempt budget."""


class GenerationExhausted(NumericalError):
    """Synthetic data generation hit its retry budgets."""


class NoCandidates(NumericalError):
    """Every consensus threshold collapsed to a single cluster.

    ``k_by_threshold`` holds the cluster count obtained at each threshold,
    for diagnosis.
    """

    def __init__(self, message: str, k_by_threshold: dict | None = None):
        if k_by_threshold:
            table = ", ".join(f"{t:g} -> K={k}" for t, k in sorted(k_by_threshold.items()))
            message = f"{message} [{table}]"
        super().__init__(message)
        self.k_by_threshold = dict(k_by_threshold or {})


class DegenerateScatter(NumericalError):
    """Scatter statistics vanished; a quality ratio is undefined."""


class SingletonClusterWarning(UserWarning):
    """A cluster of size one contributes zero within-cluster scattering."""
