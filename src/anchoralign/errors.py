"""Exception types shared across the package."""


class AnchorAlignError(Exception):
    """Base class for all errors raised by this package."""


class VocabFormatError(AnchorAlignError):
    """Vocabulary file is malformed or inconsistent."""


class PosteriorFormatError(AnchorAlignError):
    """Posterior matrix file or payload fails validation."""


class AlignmentFormatError(AnchorAlignError):
    """A row of alignment jsonl is malformed."""


class SpeechRegionsError(AnchorAlignError):
    """Speech regions are malformed or out of range."""


class NoSpeechError(AnchorAlignError):
    """Gap compression removed every frame of the file."""


class FrameMapError(AnchorAlignError):
    """A frame index falls outside the compressed timeline."""


class EmptyTextError(AnchorAlignError):
    """Normalization left no alignable characters."""


class NoPathError(AnchorAlignError):
    """The lattice admits no finite-probability path (window shorter than the text)."""


class ManifestError(AnchorAlignError):
    """Synthetic-corpus manifest is malformed."""


class ConfigError(AnchorAlignError, ValueError):
    """A setting, from a config file, a flag or a library call, is invalid."""
