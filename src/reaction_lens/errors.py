"""Exception hierarchy shared across the package."""


class ReactionLensError(Exception):
    """Base class for all package-specific errors."""


class UnreadableSource(ReactionLensError):
    """The input source could not be opened or decoded at all."""


class SchemaMismatch(ReactionLensError):
    """A required column, reaction schema, or vector shape does not match."""


class VersionMismatch(ReactionLensError):
    """A persisted artifact declares an unsupported format version."""


class CorruptArtifact(ReactionLensError):
    """A persisted artifact fails checksum or structural validation."""


class ZeroReactionTotal(ReactionLensError):
    """No schema reaction has a positive count; normalization is undefined."""


class EmptyTrainingSet(ReactionLensError):
    """The lexicon was built from zero entries; the fallback vector is undefined."""


class DegenerateRange(ReactionLensError):
    """All training sentiment values are equal; star scaling is undefined."""


class EmptySide(ReactionLensError):
    """A train/test split would leave one side empty."""


class InvalidSpec(ReactionLensError):
    """Synthetic corpus parameters are out of range or inconsistent."""
