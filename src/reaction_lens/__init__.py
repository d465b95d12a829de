"""Reaction-distribution prediction for short social-media texts.

Builds word-averaging lexicons from reaction-annotated posts and predicts
the reaction distribution of unseen messages, with a cleaning pipeline for
Sinhala/ASCII text, min-overlap evaluation, a positive/negative star-rating
model, and a deterministic synthetic corpus generator.
"""

__version__ = "0.1.0"

from .cleaning import CleanConfig, CleanedMessage, clean_message, is_eligible_word, read_stopwords
from .corpus_io import (
    CorpusStats,
    MalformedRow,
    PostRecord,
    ReactionCounts,
    corpus_stats,
    load_corpus,
    load_lexicon,
    save_lexicon,
)
from .engine import (
    ALL_SCHEMA,
    CORE_SCHEMA,
    STAR_SCHEMA,
    ReactionLexicon,
    ReactionSchema,
    build_lexicon,
    get_schema,
    normalize,
    predict,
)
from .evaluation import (
    EntryMetrics,
    EvalReport,
    ExperimentConfig,
    entry_metrics,
    report_emit,
    report_from_json,
    run_experiment,
    split,
)
from .star import (
    POLARITY,
    StarSentiment,
    build_star_vectors,
    discretize_star,
    gaussian_similarity,
    star_normalize,
    star_scale,
    star_sentiment,
)

_SYNTH_NAMES = ("SynthSpec", "write_corpus")


def __getattr__(name):
    # synth imports numpy; load it only when one of its names is asked for.
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_SCHEMA",
    "CORE_SCHEMA",
    "STAR_SCHEMA",
    "POLARITY",
    "CleanConfig",
    "CleanedMessage",
    "CorpusStats",
    "EntryMetrics",
    "EvalReport",
    "ExperimentConfig",
    "MalformedRow",
    "PostRecord",
    "ReactionCounts",
    "ReactionLexicon",
    "ReactionSchema",
    "StarSentiment",
    "SynthSpec",
    "build_lexicon",
    "build_star_vectors",
    "clean_message",
    "corpus_stats",
    "discretize_star",
    "entry_metrics",
    "gaussian_similarity",
    "get_schema",
    "is_eligible_word",
    "load_corpus",
    "load_lexicon",
    "normalize",
    "predict",
    "read_stopwords",
    "report_emit",
    "report_from_json",
    "run_experiment",
    "save_lexicon",
    "split",
    "star_normalize",
    "star_scale",
    "star_sentiment",
    "write_corpus",
]
