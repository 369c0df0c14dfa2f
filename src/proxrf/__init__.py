"""Two-stage pedestrian behavior recognition from ground-plane tracks.

Stage one describes each ordered pedestrian pair inside a sliding window
with a KDE-smoothed polar occupancy histogram plus a pyramidal relative
speed vector and classifies the pair interaction with a random forest.
Stage two pools the predicted interactions of a whole group with speed,
dispersion-change and shape cues into a collective behavior descriptor
classified by a second forest.  The package also ships dataset parsing
and adapters, seeded synthetic scene generators, an evaluation harness
and a command-line front end.
"""

from .cbd import (
    CollectiveLabel,
    GroupBlock,
    dispersion_change,
    interaction_histogram,
    mean_speed,
    pair_vectors,
    pool_votes,
    shape_ratio,
)
from .config import build_run_config, load_run_config, parse_config_text
from .dataset import (
    FOOT_POINTS,
    LAYOUTS,
    CollectiveAnnotation,
    FoldSplit,
    PairAnnotation,
    SceneRecording,
    adapt_external,
    apply_homography,
    parse_canonical,
    read_corpus,
    read_scene,
    windows,
    write_corpus,
    write_scene,
)
from .errors import (
    AnnotationConflict,
    ConfigError,
    CorruptModel,
    EmptyGroup,
    EmptyTrainingSet,
    InvalidConfig,
    InvalidFeature,
    InvalidParams,
    LabelCoverageError,
    MissingFrames,
    ModelShapeMismatch,
    ParseError,
    ProxrfError,
    ReferentialError,
    ShapeMismatch,
)
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    Pipeline,
    PipelineConfig,
    ablation,
    cross_dataset,
    cue_columns,
    evaluate_predictions,
    kfold_evaluate,
)
from .forest import (
    ForestConfig,
    RandomForest,
    deserialize,
    serialize,
    train,
)
from .pid import (
    InteractionLabel,
    PidConfig,
    PolarGrid,
)
from .synth import (
    SynthParams,
    gen_collective,
    gen_pair,
    make_collective_corpus,
    make_contrast_corpus,
    make_pair_corpus,
)
from .trajectory import (
    SmoothingConfig,
    TimedPosition,
    TrackStates,
    Trajectory,
    smoothed_states,
    wrap_angle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
