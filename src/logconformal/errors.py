"""Exception types shared across the pipeline."""


class LogConformalError(Exception):
    """Base class for all library errors."""


class MalformedFormat(LogConformalError):
    """Header format template is unusable (missing <Content>, duplicate fields, ...)."""


class UnparsableLine(LogConformalError):
    """A raw line does not match the header schema."""

    def __init__(self, line: str, reason: str = "line does not match header schema"):
        super().__init__(f"{reason}: {line!r}")
        self.line = line


class AppendFailed(LogConformalError):
    """The chain store cannot be opened, or an entry was not written in full."""


class EmptyCorpus(LogConformalError):
    """An operation that needs at least one record got none."""


class UnknownParser(LogConformalError):
    """Parser name is not registered."""


class EmptyTemplateSet(LogConformalError):
    """Scoring requires at least one trained template."""


class UnknownTemplate(LogConformalError):
    """Template id is not part of the calibration model."""


class NoParsers(LogConformalError):
    """A verdict needs p-value sets from at least one parser."""


class LabelMismatch(LogConformalError):
    """Verdicts and labels do not cover the same records."""


class InvalidSpec(LogConformalError):
    """Corpus synthesis or parser parameters are invalid or inconsistent."""


class BundleError(LogConformalError):
    """Model bundle is missing, corrupt, or has an incompatible version."""
