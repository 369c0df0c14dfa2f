"""Exception types shared across the toolkit."""


class ProxrfError(Exception):
    """Base class for all toolkit errors."""


class MissingFrames(ProxrfError):
    """A trajectory does not cover the requested frame range."""


class ModelShapeMismatch(ProxrfError):
    """Descriptor length does not match the trained model."""


class EmptyTrainingSet(ProxrfError):
    """Training requested on zero samples."""


class ShapeMismatch(ProxrfError):
    """Inconsistent feature-vector lengths."""


class InvalidFeature(ProxrfError):
    """Non-finite value in a feature vector or a smoothed track."""


class CorruptModel(ProxrfError):
    """Serialized model is malformed, truncated, or has an unknown version."""


class ParseError(ProxrfError):
    """Syntax error in a corpus file; message carries file/line context."""


class ReferentialError(ProxrfError):
    """Annotation references a track id absent from the trajectories."""


class AnnotationConflict(ProxrfError):
    """Overlapping annotations disagree on the label."""


class ConfigError(ProxrfError):
    """Invalid or missing configuration."""


class InvalidConfig(ConfigError):
    """A configuration value is out of its allowed domain."""


class InvalidParams(ProxrfError):
    """Scene-generation parameters outside their allowed domain."""


class LabelCoverageError(ProxrfError):
    """Evaluation corpus contains labels the trained model never saw."""
