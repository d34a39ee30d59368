"""Exception hierarchy for the optimizer and its supporting modules."""

from __future__ import annotations


class VistaError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------- domain

class TaxonomyError(VistaError):
    pass


class DuplicateIdError(TaxonomyError):
    pass


class EmptyTaxonomyError(TaxonomyError):
    pass


class MalformedRecordError(TaxonomyError):
    pass


class DatasetError(VistaError):
    pass


class IoFailureError(VistaError):
    pass


class MalformedLineError(DatasetError):
    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class OverlappingIdsError(DatasetError):
    pass


class InvalidConfigError(VistaError):
    """Carries the full list of field violations, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# ---------------------------------------------------------------- pareto

class LengthMismatchError(VistaError):
    pass


class EmptyPoolError(VistaError):
    pass


# ----------------------------------------------------------------- trace

class UnknownParentError(VistaError):
    pass


class DuplicateNodeError(VistaError):
    pass


class UnknownNodeError(VistaError):
    pass


# ---------------------------------------------------------------- agents

class MissingBindingError(VistaError):
    pass


class NoBlocksFoundError(VistaError):
    pass


class EmptyRewriteError(VistaError):
    pass


# -------------------------------------------------------------- backends

class TransportFailureError(VistaError):
    pass


# ------------------------------------------------------------- estimator

class NotFittedError(VistaError):
    """Estimator method called before fit()."""


# ------------------------------------------------------------------- cli

class MissingArtifactsError(VistaError):
    pass
