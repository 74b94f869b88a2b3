"""Exception types shared across the toolkit."""

from __future__ import annotations


class GradecastError(Exception):
    """Base class for all toolkit errors."""


class ParseError(GradecastError):
    """Malformed input row; carries the file and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


class ReferentialError(GradecastError):
    """A record references an id that does not exist in the dataset."""


class ConfigError(GradecastError):
    """Invalid configuration value or combination."""


class RebalanceError(GradecastError):
    """Oversampling cannot proceed (e.g. minority class too small)."""


class TrainingError(GradecastError):
    """Model training received unusable input."""


class PredictionError(GradecastError):
    """A prediction request is missing required features."""


class SingularityError(GradecastError):
    """Rank-deficient design matrix; names the offending columns."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(
            "design matrix is rank deficient; offending columns: "
            + ", ".join(self.columns)
        )
