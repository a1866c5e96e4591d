"""Typed errors raised across the pipeline.

Every domain failure maps to one of these classes so callers (and the CLI
exit-code logic) can distinguish bad input from unavailable backends.
"""

from __future__ import annotations


class ObsError(Exception):
    """Base class for all pipeline errors."""


# what the CLI reports with exit 1
DOMAIN_ERRORS = (ObsError, OSError)


# --- ingest ---------------------------------------------------------------

class MalformedInputError(ObsError):
    """Input bytes could not be decoded or parsed at all."""


class SchemaViolationError(ObsError):
    """Parsed input violates the annotation schema."""

    def __init__(self, message: str, shape_index: int | None = None):
        super().__init__(message)
        self.shape_index = shape_index


class UnknownLabelError(ObsError):
    """A component label is not in the controlled vocabulary."""

    def __init__(self, label: str, shape_index: int | None = None):
        msg = f"unknown label {label!r}"
        if shape_index is not None:
            msg += f" (shape {shape_index})"
        super().__init__(msg)
        self.label = label
        self.shape_index = shape_index


class InvalidRatioError(ObsError):
    """Split ratio outside the open interval (0, 1)."""


class InconsistentCorpusError(ObsError):
    """Corpus records reference labels or characters that do not exist."""


# --- embeddings -----------------------------------------------------------

class DimensionMismatchError(ObsError):
    """Vector dimensions disagree."""


class ZeroNormError(ObsError):
    """Cosine similarity is undefined for a zero-norm vector."""


class EmptyInputError(ObsError):
    """An operation received empty input where content is required."""


class ProviderUnavailableError(ObsError):
    """The embedding backend could not be reached or replied with garbage."""


class ProviderMismatchError(ObsError):
    """A persisted model was built with a different embedding provider."""


# --- knowledge graph ------------------------------------------------------

class NotFoundError(ObsError):
    """A graph lookup key does not exist."""

    def __init__(self, kind: str, key: str):
        super().__init__(f"{kind} not found: {key!r}")
        self.kind = kind
        self.key = key


class CorruptFileError(ObsError):
    """Persisted file is truncated or fails its integrity check."""


# --- inference ------------------------------------------------------------

class BackendUnavailableError(ObsError):
    """A chat backend could not be reached.

    ``agent`` identifies which agent failed in multi-agent mode.
    """

    agent: str | None = None


class UnparseableResponseError(ObsError):
    """Model reply does not follow the response grammar.

    ``offset`` is the byte offset of the first violation in the raw reply.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ImageRequiredButUnsupportedError(ObsError):
    """An image was supplied to a text-only backend."""


class TemplateError(ObsError):
    """Prompt template rendering failed (unfilled or unknown slot)."""


# --- evaluation -----------------------------------------------------------

class ProblemTooLargeError(ObsError):
    """Exact transport solver limit exceeded."""


class IncompleteMatrixError(ObsError):
    """Rating matrix has missing cells where a complete design is required."""


class NoPairableValuesError(ObsError):
    """No item carries two or more ratings."""


class AlignmentError(ObsError):
    """Results could not be aligned with gold records."""


# --- configuration --------------------------------------------------------

class ConfigError(ObsError):
    """Pipeline configuration is invalid (unknown key, bad value)."""
