"""Exception types shared across the package."""


class DdceError(Exception):
    """Base class for all data and pipeline errors raised by this package."""


class UnsplittableDatasetError(DdceError):
    """Labeled dataset has too few intents to split intent-disjointly."""


class StratificationError(DdceError):
    """An intent has too few examples for a stratified split."""


class InsufficientOutlierSourceError(DdceError):
    """The outlier source has fewer rows than the injection requires."""


class AlignmentError(DdceError):
    """Two aligned structures disagree in length or id order."""


class MissingGroundTruthError(DdceError):
    """A sample to be scored has neither an intent nor an outlier flag."""


class EmbeddingFormatError(DdceError):
    """Embedding file has a bad magic, a non-UTF-8 id or a repeated id."""


class EmbeddingTruncatedError(DdceError):
    """Embedding file payload is shorter than its header promises."""


class EmbeddingValueError(DdceError):
    """Embedding file contains non-finite values."""


class EmptySearchError(DdceError):
    """A hyperparameter search was requested with zero trials."""


class ConfigError(DdceError):
    """A configuration file or value is invalid."""
