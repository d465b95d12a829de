"""Reaction-distribution prediction for short social-media texts.

Builds word-averaging lexicons from reaction-annotated posts and predicts
the reaction distribution of unseen messages, with a cleaning pipeline for
Sinhala/ASCII text, min-overlap evaluation, a positive/negative star-rating
model, and a deterministic synthetic corpus generator.
"""

__version__ = "0.1.0"

# The names of the README's library example; everything else is imported
# from its submodule.
from .cleaning import CleanConfig, clean_message
from .corpus_io import ReactionCounts
from .engine import CORE_SCHEMA, build_lexicon, normalize, predict

_SYNTH_NAMES = ("SynthSpec", "write_corpus")


def __getattr__(name):
    # synth imports numpy; load it only when one of its names is asked for.
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CORE_SCHEMA",
    "CleanConfig",
    "ReactionCounts",
    "SynthSpec",
    "build_lexicon",
    "clean_message",
    "normalize",
    "predict",
    "write_corpus",
]
