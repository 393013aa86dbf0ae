"""Exception types used throughout the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """Raised when a data recipe or configuration file is invalid."""


class RegistryError(ReproError):
    """Raised when an operator, formatter or recipe lookup fails."""


class SchemaError(ConfigError):
    """Raised when operator parameters violate their declared schema.

    Carries the full list of :class:`repro.core.schema.SchemaIssue` objects
    on ``issues`` so callers (the fluent API, ``repro validate-recipe``) can
    report every bad parameter at once instead of failing on the first.
    """

    def __init__(self, message: str, issues: list | None = None):
        super().__init__(message)
        self.issues = list(issues or [])


class DataflowWarning(UserWarning):
    """Emitted when the pre-flight dataflow check finds recipe hazards.

    ``Executor.execute`` runs :func:`repro.tools.dataflow.check_recipe` before
    touching any data; findings warn by default so existing recipes keep
    running, and ``strict_dataflow: true`` upgrades them to a
    :class:`ConfigError`.
    """


class DatasetError(ReproError):
    """Raised for invalid dataset construction or access."""


class FormatError(ReproError):
    """Raised when a data file cannot be loaded or unified."""


class OpExecutionError(ReproError):
    """Raised when an operator fails permanently during engine execution.

    The message always names the failing operator and, when known, the shard
    id and a sample row index, so a failure in a multi-shard run can be
    reproduced with ``--on-error raise`` on a single shard.  The same facts
    are carried structurally on :attr:`op_name`, :attr:`shard_id` and
    :attr:`row_index`.
    """

    def __init__(
        self,
        message: str,
        op_name: str | None = None,
        shard_id: str | None = None,
        row_index: int | None = None,
    ):
        super().__init__(message)
        self.op_name = op_name
        self.shard_id = shard_id
        self.row_index = row_index


class EvaluationError(ReproError):
    """Raised when a proxy-model evaluation cannot be performed."""


class HPOError(ReproError):
    """Raised for invalid hyper-parameter search configurations."""
