"""Reaction-distribution prediction for short social-media texts.

Builds word-averaging lexicons from reaction-annotated posts and predicts
the reaction distribution of unseen messages, with a cleaning pipeline for
Sinhala/ASCII text, min-overlap evaluation, a positive/negative star-rating
model, and a deterministic synthetic corpus generator.
"""

__version__ = "0.1.0"

# The README example's names and the generator's, by defining submodule;
# everything else is imported from its submodule.  A name loads its
# submodule on first use, so importing the package (as every command does)
# loads none of them, and numpy comes only with synth.
_SUBMODULES = {
    "CleanConfig": "cleaning", "clean_message": "cleaning", "corpus_entries": "corpus_io",
    "fit": "evaluation", "prepare": "evaluation", "predict": "engine",
    "SynthSpec": "synth", "write_corpus": "synth",
}


def __getattr__(name):
    if name in _SUBMODULES:
        from importlib import import_module

        return getattr(import_module(f".{_SUBMODULES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_SUBMODULES)
