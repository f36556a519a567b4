"""Exception types shared across the pipeline."""


class LogConformalError(Exception):
    """Base class for all library errors."""


class UnparsableLine(LogConformalError):
    """A raw line does not match the header schema."""


class AppendFailed(LogConformalError):
    """The chain store cannot be opened, an entry was cut short, or a record's line changed."""


class EmptyCorpus(LogConformalError):
    """An operation that needs at least one record got none."""


class EmptyTemplateSet(LogConformalError):
    """Scoring requires at least one trained template."""


class UnknownTemplate(LogConformalError):
    """Template id is not part of the calibration model."""


class NoParsers(LogConformalError):
    """A verdict needs p-value sets from at least one parser."""


class LabelMismatch(LogConformalError):
    """A labels.csv or split.csv row is malformed or inconsistent with the corpus."""


class InvalidSpec(LogConformalError):
    """An invalid configuration value, header format, mask rule, corpus spec or parser."""


class BundleError(LogConformalError):
    """Model bundle is missing, corrupt, or has an incompatible version."""
