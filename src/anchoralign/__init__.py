"""Anchor-based CTC forced alignment of long audio against imperfect text.

The package aligns frame-wise character log-posteriors (from any CTC
acoustic model) to a transcript by repeatedly force-aligning small windows,
accepting utterance batches whose trailing score clears a threshold, and
anchoring the next window after the last accepted frame. Scores double as
per-utterance quality labels for downstream filtering.
"""

import importlib
import sys
from typing import Callable, Mapping

__version__ = "0.1.0"

# each public name once, under the module it is defined in; a name's module
# is imported when the name is first read, so `import anchoralign` and the
# commands that need only part of it load only that part
_EXPORTS = {
    "aligner": (
        "AlignmentRun",
        "WindowResult",
        "align_file",
        "align_window",
        "frames_to_seconds",
    ),
    "common": (
        "AlignParams",
        "FRAGMENT_FRAMES",
        "MAX_WORDS_PER_UTT",
        "SCORE_REF_S",
        "SHORT_PENALTY",
        "normalize_score",
    ),
    "errors": (
        "AlignmentFormatError",
        "AnchorAlignError",
        "ConfigError",
        "EmptyTextError",
        "FrameMapError",
        "ManifestError",
        "NoPathError",
        "NoSpeechError",
        "PosteriorFormatError",
        "SpeechRegionsError",
        "TextDecodeError",
        "VocabFormatError",
    ),
    "filters": (
        "FilterReport",
        "filter_absolute",
        "filter_chebyshev",
        "filter_normalized",
        "recovery_stats",
        "score_histogram",
        "write_filter_report_csv",
        "write_histogram_csv",
        "write_recovery_csv",
    ),
    "posterior_io": (
        "DEFAULT_FRAME_DURATION_S",
        "FrameMap",
        "PosteriorMatrix",
        "SpeechRegions",
        "Vocab",
        "apply_speech_regions",
        "identity_frame_map",
        "load_posteriors",
        "load_regions",
        "load_vocab",
        "map_frames_back",
        "save_posteriors",
        "save_regions",
        "save_vocab",
    ),
    "synthdata": (
        "SynthSpec",
        "SynthUtterance",
        "default_spanish_vocab",
        "load_ground_truth",
        "oracle_best_path",
        "parse_manifest",
        "random_window",
        "synth_posteriors",
        "write_ground_truth",
        "write_manifest",
    ),
    "textprep": (
        "TokenSequence",
        "Utterance",
        "build_token_sequence",
        "estimate_time_refs",
        "load_utterances",
        "normalize_text",
        "split_utterances",
    ),
    "trellis": (
        "Trellis",
        "UtteranceAlignment",
        "apply_short_penalty",
        "backtrack",
        "compute_trellis",
        "end_scores",
        "fragment_scores",
        "segment_score",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def lazy_names(
    module_name: str, sources: Mapping[str, tuple[str, ...]]
) -> Callable[[str], object]:
    """A PEP 562 module `__getattr__` for module_name, re-exporting the
    names in `sources`, which maps a module of this package to the names
    taken from it, as _EXPORTS does.

    The first read of a name imports its module and binds the name in
    module_name, so later reads never reach the hook, and a name bound
    there first, by an assignment or a patch, is the one every later read
    gets. Any other name raises AttributeError.
    """
    home = {name: source for source, names in sources.items() for name in names}

    def __getattr__(name: str) -> object:
        source = home.get(name)
        if source is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{source}"), name)
        setattr(sys.modules[module_name], name, value)
        return value

    return __getattr__


__getattr__ = lazy_names(__name__, _EXPORTS)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
